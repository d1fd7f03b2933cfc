"""Command-line front end: exact rational tables from JSON setup files.

Commands: lattice, measure, verify, frattini, embedding, invsys.  All
output is deterministic.
Exit codes: 0 success, 2 validation error, 3 cap exceeded, 4 a
verification suite reported a failure.
The Frattini/embedding and inverse-system modules are imported inside
the commands and verify suites that run them, so the other commands
never load them.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from math import gcd
from typing import Optional

from .groups import (
    DEFAULT_ORDER_CAP,
    CapExceeded,
    GroupError,
    GroupHom,
    _mask_to_elems,
    all_subgroups,
    cosets,
    isomorphic,
    normal_subgroups,
    quotient,
    up_sets,
)
from .lattice import SubextLattice
from .measure import (
    TUPLE_CAP,
    _hall_counts,
    _step,
    measure_event,
    mu1,
    mu_i,
    mu_infinity,
    pushforward_check,
)
from .setupfile import LoadedSetup, load_setup

SUITES = ("lifts", "markov", "tower", "frattini", "invsys", "all")


def _ratio(count: int, denominator: int) -> str:
    """count / denominator in lowest terms, integers without the denominator."""
    d = gcd(count, denominator)
    if d == denominator:
        return "%d" % (count // d)
    return "%d/%d" % (count // d, denominator // d)


def _vector_line(counts, denominator: int) -> str:
    return ", ".join(_ratio(c, denominator) for c in counts)


# -- commands -----------------------------------------------------------------


def cmd_lattice(args) -> int:
    loaded = load_setup(args.file)
    lat = SubextLattice(loaded.setup, loaded.base)
    for i in range(len(lat.members)):
        flag = " maximal" if lat.is_maximal(i) else ""
        member = lat.members[i]
        print("%d %s order=%d%s" % (i, lat.member_name(i), member.order, flag))
    return 0


def cmd_measure(args) -> int:
    loaded = load_setup(args.file)
    if args.mode == "iter" and args.steps is None:
        raise GroupError("--steps is required with --mode iter")
    if args.mode != "iter" and args.steps is not None:
        raise GroupError("--steps only applies to --mode iter")
    lat = SubextLattice(loaded.setup, loaded.base)
    if args.mode == "mu1":
        vector = mu1(lat, cap=args.cap)
    elif args.mode == "iter":
        vector = mu_i(lat, args.steps, cap=args.cap)
    else:
        vector = mu_infinity(lat, cap=args.cap)
    if args.event is None:
        print(_vector_line(vector.counts, vector.denominator))
        return 0
    if args.event not in loaded.events:
        raise GroupError('unknown event name "%s"' % args.event)
    mass = measure_event(vector, loaded.events[args.event])
    print(_ratio(mass.numerator, mass.denominator))
    return 0


def cmd_frattini(args) -> int:
    from .frattini import frattini_subgroup

    loaded = load_setup(args.file)
    report = frattini_subgroup(loaded.group)
    phi = report.frattini_subgroup
    print("Phi = %s" % phi.display_name())
    print("order = %d" % phi.order)
    print("maximal subgroups = %d" % len(report.maximal_subgroups))
    return 0


def cmd_embedding(args) -> int:
    from .frattini import has_embedding_property

    loaded = load_setup(args.file)
    report = has_embedding_property(loaded.group, bound=args.bound)
    print("embedding property: %s" % ("true" if report.holds else "false"))
    if not report.holds:
        A, B, alpha, beta = report.witness
        print("witness A order %d" % A.order)
        print("witness B order %d" % B.order)
        print("witness alpha %s" % list(alpha.image_of))
        print("witness beta %s" % list(beta.image_of))
    return 0


def cmd_invsys(args) -> int:
    """The complete system of the file's group, or of its level quotient
    G/N_i with --level i: its dump with --dump, else its class and
    element counts.  The counts need no system and are read off G: by
    the correspondence theorem the classes of G/N_i are the normal M of
    G above N_i, and the class of M has [G:M] elements, its cosets.
    They are held to the cap of complete systems all the same."""
    from .invsys import _check_system_order, _level_kernel, complete_system, level_quotient

    loaded = load_setup(args.file)
    G = loaded.group
    Q = G if args.level is None else level_quotient(G, args.level)
    if args.dump:
        # block by block, so no more than one block is held; the line cap
        # is checked before the first, so a capped dump prints nothing
        sys.stdout.writelines(complete_system(Q).dump_blocks())
        return 0
    _check_system_order(G)
    normals = normal_subgroups(G)
    if args.level is not None:
        kernel = _level_kernel(G, args.level).mask
        normals = [M for M in normals if M.mask & kernel == kernel]
    print("classes = %d" % len(normals))
    print("elements = %d" % sum(G.order // M.order for M in normals))
    if args.level is not None:
        print("level %d quotient: order %d" % (args.level, Q.order))
    return 0


# -- verification suites ---------------------------------------------------------


def _lift_independence(loaded: LoadedSetup, lat: SubextLattice, cap: int):
    """Lift independence, through the premise of Hall's closed form.

    mu1 counts the tuples of a member H from |H n N| alone, which holds
    for every valid lift exactly when H meets each lift coordinate's
    coset of N in |H n N| elements.  The base's tuple count is held to
    the cap, as mu1 holds it.
    """
    setup = loaded.setup
    _hall_counts(lat, cap, (len(lat.members) - 1,))
    t, n_elems = setup.group.table, setup.n_sub.elements
    cosets = [sum(1 << t[s][x] for x in n_elems) for s in setup.sigma_prime]
    bad = []
    for H in lat.members:
        size = (H.mask & setup.n_sub.mask).bit_count()
        for k, coset in enumerate(cosets):
            meet = (H.mask & coset).bit_count()
            if meet != size:
                bad.append(
                    "member %s: coordinate %d meets %d elements, |H n N| = %d"
                    % (H.display_name(), k, meet, size)
                )
    return not bad, bad


def _markov_checks(lat: SubextLattice, cap: int):
    """The chain's structural facts, read off the lattice's integer (f, g, below).

    Member i steps to member j, itself or one of below[i], with
    probability g[j] / f[i]; no transition matrix is built.  Every row is
    held to the cap first, as transition_matrix would hold it.  The limit
    and mu1 are read as counts over their denominators: signs and sums on
    the counts, comparisons by cross-multiplying, and no Fraction made.
    """
    m = len(lat.members)
    f, g, below = _hall_counts(lat, cap, range(m))
    inf = mu_infinity(lat, cap=cap)
    one = mu1(lat, cap=cap)

    bad = [i for i in range(m) if (g[i] == f[i]) != lat.is_maximal(i)]
    yield "absorbing-equals-maximal", not bad, ["member %d" % i for i in bad]

    # below is transitive, so what member i reaches is itself and the
    # sub-members a step lands on: no closure is needed
    reach = [sum(1 << j for j in below[i] if g[j]) | 1 << i for i in range(m)]
    bad = []
    for i in range(m):
        ergodic = all(reach[j] >> i & 1 for j in below[i] if reach[i] >> j & 1)
        if ergodic != lat.is_maximal(i):
            bad.append(i)
    yield "ergodic-equals-maximal", not bad, ["member %d" % i for i in bad]

    # the limit's counts a over D are a fixed point iff one integer
    # step, which lands over D * f[-1], gives a * f[-1]
    a, D = inf.counts, inf.denominator
    stepped = _step(a, f, g, below)
    ok = stepped == [x * f[-1] for x in a]
    yield "limit-fixed-point", ok, [] if ok else [_vector_line(stepped, D * f[-1])]

    # over a positive denominator a value has its count's sign
    bad = [i for i in range(m) if (a[i] > 0) != lat.is_maximal(i) or a[i] < 0]
    ok = not bad and sum(a) == D
    yield "limit-support", ok, ["member %d value %s" % (i, _ratio(a[i], D)) for i in bad]

    b, E = one.counts, one.denominator
    bad = [i for i in range(lat.n_maximal) if not (0 < b[i] and b[i] * D <= a[i] * E)]
    yield "mu1-below-limit", not bad, [
        "member %d: mu1 %s limit %s" % (i, _ratio(b[i], E), _ratio(a[i], D)) for i in bad
    ]


def _check_tower(lat: SubextLattice, pi: GroupHom, cap: int):
    report = pushforward_check(lat, pi, max_i=8, cap=cap)
    details = [
        "i=%s pushed=(%s) lower=(%s)"
        % (
            label,
            _vector_line(pushed.counts, pushed.denominator),
            _vector_line(lower.counts, lower.denominator),
        )
        for label, pushed, lower, equal in report.entries
        if not equal
    ]
    return report.holds, details


def _frattini_checks(loaded: LoadedSetup, lat: Optional[SubextLattice]):
    """Three laws of Frattini covers, read off G's one subgroup list
    through one criterion: some proper H above A has HN = G, that is,
    |H| |N| = |G| |H n N|.

    G ->> G/N covers iff no proper H has HN = G, so the kernel verdict
    is compared with the criterion at A = 1.  For N1 in N2, G/N1 ->>
    G/N2 covers iff no proper H above N1 has HN2 = G, by the
    correspondence theorem, so the composition law builds no quotient.
    A lattice member is maximal iff no proper subgroup strictly inside
    it meets every coset of N, read off the cosets and not off the
    lattice's own test.  A supplement, when there is one, is among the
    large subgroups, so the first two lines scan largest first, and a
    sub-member among the small ones, so the last scans smallest first;
    no verdict depends on the order.
    """
    from .frattini import _covers

    G = loaded.group
    proper = [(H.mask, H.order) for H in all_subgroups(G)[:-1]]
    largest_first = proper[::-1]
    normals = normal_subgroups(G)

    def supplemented(above, N) -> bool:
        return any(h * N.order == G.order * (m & N.mask).bit_count() for m, h in above)

    covers, alone = [], []
    routes_detail = []
    for N in normals:
        cover = _covers(G, N.mask)
        only_g = not supplemented(largest_first, N)
        if cover != only_g:
            routes_detail.append(
                "kernel %s: internal error: kernel criterion and subgroup criterion disagree"
                % N.display_name()
            )
        covers.append(cover)
        alone.append(only_g)
    yield "frattini-cover-routes", not routes_detail, routes_detail

    # G ->> G/N2 is G ->> G/N1 then G/N1 ->> G/N2, and the second is
    # asked only where the first covers; from N1 = 1, normals[0], it is
    # G ->> G/N2 itself, which the subgroup route above answered
    bad = []
    ups = up_sets(G, [N.mask for N in normals])
    for i, (N1, cover1) in enumerate(zip(normals, covers)):
        if cover1:
            above = [(m, h) for m, h in largest_first if m & N1.mask == N1.mask]
        for j in _mask_to_elems(ups[i] & ~(1 << i)):
            N2 = normals[j]
            through = cover1 and (alone[j] if i == 0 else not supplemented(above, N2))
            if covers[j] != through:
                bad.append("chain %s then %s" % (N1.display_name(), N2.display_name()))
    yield "frattini-composition", not bad, bad

    if lat is None:
        lat = SubextLattice(loaded.setup, loaded.base)
    to_least, reps = cosets(G, loaded.setup.n_sub.mask)
    coset_masks = dict.fromkeys(reps, 0)
    for g, rep in enumerate(to_least):
        coset_masks[rep] |= 1 << g
    supplements = [(m, h) for m, h in proper if all(m & c for c in coset_masks.values())]
    bad = []
    for i, H in enumerate(lat.members):
        restriction = not any(h < H.order and m & H.mask == m for m, h in supplements)
        if lat.is_maximal(i) != restriction:
            bad.append("member %d %s" % (i, lat.member_name(i)))
    yield "maximal-equals-frattini-restriction", not bad, bad


def _universe_by_sort(S: CompleteSystem) -> dict[int, list]:
    """S's universe grouped by sort.  The universe lists the classes in
    family order, and the class of N is its [G:N] cosets, each of sort
    [G:N], so it is one slice."""
    out: dict[int, list] = {}
    start = 0
    for N in S.normals:
        sort = S.group.order // N.order
        out.setdefault(sort, []).extend(S.universe[start : start + sort])
        start += sort
    return out


def _invsys_checks(loaded: LoadedSetup):
    from .invsys import _level_kernel, complete_system, dual_embedding, dual_group

    G = loaded.group
    S = complete_system(G)
    try:
        S.validate()
        yield "system-axioms", True, []
    except GroupError as e:
        yield "system-axioms", False, [str(e)]

    D, _ = dual_group(S)
    ok = isomorphic(D, G)
    yield "dual-round-trip", ok, [] if ok else ["dual group has order %d" % D.order]

    # level i adds the elements of sort i
    by_sort = _universe_by_sort(S)
    # level j is G/N_j; levels with one kernel share its cached projection,
    # and so one embedding
    bad, embeddings = [], {}
    for j in sorted({1, 2, G.order}):
        pi = quotient(G, _level_kernel(G, j))[1]
        if pi not in embeddings:
            embeddings[pi] = dual_embedding(pi, S)
        emb = embeddings[pi]
        image_by_sort = {i: list(map(emb, xs)) for i, xs in _universe_by_sort(emb.source).items()}
        # the sets grow only at the sorts present, so each verdict holds
        # from its sort up to the next one, or up to j
        cuts = sorted(i for i in image_by_sort.keys() | by_sort.keys() if i <= j)
        image, want = set(), set()
        for i, nxt in zip(cuts, cuts[1:] + [j + 1]):
            image.update(image_by_sort.get(i, ()))
            want.update(by_sort.get(i, ()))
            if image != want:
                bad.extend("j=%d i=%d" % (j, k) for k in range(i, nxt))
    yield "level-tower", not bad, bad


def cmd_verify(args) -> int:
    loaded = load_setup(args.file)
    if args.suite == "tower" and loaded.tower is None:
        raise GroupError("the file has no tower section")
    # one base lattice for every suite that reads it; the frattini suite
    # on its own builds it after enumerating G, so the group's cap binds
    # first, and the default suite lists G's subgroups before it, under
    # the cap, so a lattice over G reads them; above it a tuple-cap error
    # from lifts or markov still comes first
    lat = None
    if args.suite == "all" and loaded.group.order <= DEFAULT_ORDER_CAP:
        all_subgroups(loaded.group)
    if args.suite in ("lifts", "markov", "tower", "all"):
        lat = SubextLattice(loaded.setup, loaded.base)
    results = []
    if args.suite in ("lifts", "all"):
        ok, details = _lift_independence(loaded, lat, args.cap)
        results.append(("lift-independence", ok, details))
    if args.suite in ("markov", "all"):
        results.extend(_markov_checks(lat, args.cap))
    if args.suite == "tower" or (args.suite == "all" and loaded.tower is not None):
        ok, details = _check_tower(lat, loaded.tower, args.cap)
        results.append(("tower-pushforward", ok, details))
    if args.suite in ("frattini", "all"):
        results.extend(_frattini_checks(loaded, lat))
    if args.suite in ("invsys", "all"):
        results.extend(_invsys_checks(loaded))
    failed = False
    for name, ok, details in results:
        print("%s %s" % ("PASS" if ok else "FAIL", name))
        if not ok:
            failed = True
            for line in details:
                print("  %s" % line)
    return 4 if failed else 0


# -- argument plumbing --------------------------------------------------------------


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmeas",
        description="Exact rational absorption measures on subextension lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="list the lattice members of the setup")
    p.add_argument("file")
    p.set_defaults(run=cmd_lattice)

    p = sub.add_parser("measure", help="print a measure vector or event value")
    p.add_argument("file")
    p.add_argument("--mode", choices=("mu1", "iter", "inf"), default="inf")
    p.add_argument("--steps", type=int, default=None, help="step count for --mode iter")
    p.add_argument("--event", default=None, help="named event from the file")
    p.add_argument("--cap", type=int, default=TUPLE_CAP, help="tuple enumeration limit")
    p.set_defaults(run=cmd_measure)

    p = sub.add_parser("verify", help="run invariant suites against the file")
    p.add_argument("file")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--cap", type=int, default=TUPLE_CAP, help="tuple enumeration limit")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("frattini", help="Frattini subgroup of the file's group")
    p.add_argument("file")
    p.set_defaults(run=cmd_frattini)

    p = sub.add_parser("embedding", help="embedding-property verdict with witnesses")
    p.add_argument("file")
    p.add_argument("--bound", type=int, default=24, help="diagram size bound")
    p.set_defaults(run=cmd_embedding)

    p = sub.add_parser("invsys", help="complete-system summary, dump, or level quotient")
    p.add_argument("file")
    p.add_argument("--level", type=int, default=None, help="level quotient to compute")
    p.add_argument("--dump", action="store_true", help="print the full system dump")
    p.set_defaults(run=cmd_invsys)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except CapExceeded as e:
        print("error: %s" % e, file=sys.stderr)
        return 3
    except GroupError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
