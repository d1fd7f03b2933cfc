"""Command-line front end: exact rational tables from JSON setup files.

Commands: lattice, measure, verify, frattini, embedding, invsys.  All
output is deterministic.
Exit codes: 0 success, 2 validation error, 3 cap exceeded, 4 a
verification suite reported a failure.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache
from math import lcm
from typing import Optional

from .frattini import (
    frattini_subgroup,
    has_embedding_property,
    is_frattini_cover,
    is_frattini_restriction,
)
from .groups import (
    CapExceeded,
    GroupError,
    GroupHom,
    isomorphic,
    normal_subgroups,
    quotient,
)
from .invsys import complete_system, dual_embedding, dual_group, generated_subsystem, level_quotient
from .lattice import SubextLattice
from .measure import TUPLE_CAP, _hall_counts, _step, mu1, mu_i, mu_infinity, pushforward_check
from .setupfile import LoadedSetup, load_setup

SUITES = ("lifts", "markov", "tower", "frattini", "invsys", "all")


def _fmt(x: Fraction) -> str:
    """Lowest terms, integers without the denominator."""
    if x.denominator == 1:
        return "%d" % x.numerator
    return "%d/%d" % (x.numerator, x.denominator)


def _vector_line(values) -> str:
    return ", ".join(_fmt(v) for v in values)


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
    setup, K = loaded.setup, loaded.base
    lat = SubextLattice(setup, K)
    cap = args.cap if args.cap is not None else TUPLE_CAP
    if args.mode == "mu1":
        vector = mu1(setup, K, cap=cap, lattice=lat)
    elif args.mode == "iter":
        vector = mu_i(setup, K, args.steps, cap=cap, lattice=lat)
    else:
        vector = mu_infinity(setup, K, cap=cap, lattice=lat)
    if args.event is None:
        print(_vector_line(vector.values))
        return 0
    if args.event not in loaded.events:
        raise GroupError('unknown event name "%s"' % args.event)
    indices = {lat.member_index(S) for S in loaded.events[args.event]}
    print(_fmt(sum((vector.values[i] for i in sorted(indices)), Fraction(0))))
    return 0


def cmd_frattini(args) -> int:
    loaded = load_setup(args.file)
    report = frattini_subgroup(loaded.group)
    phi = report.frattini_subgroup
    print("Phi = %s" % phi.display_name())
    print("order = %d" % phi.order)
    print("maximal subgroups = %d" % len(report.maximal_subgroups))
    return 0


def cmd_embedding(args) -> int:
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
    loaded = load_setup(args.file)
    G = loaded.group
    if args.level is not None:
        G = level_quotient(G, args.level)
    S = complete_system(G)
    if args.dump:
        sys.stdout.write(S.dump())
        return 0
    print("classes = %d" % len(S.normals))
    print("elements = %d" % len(S.universe))
    if args.level is not None:
        print("level %d quotient: order %d" % (args.level, G.order))
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
        size = bin(H.mask & setup.n_sub.mask).count("1")
        for k, coset in enumerate(cosets):
            meet = bin(H.mask & coset).count("1")
            if meet != size:
                bad.append(
                    "member %s: coordinate %d meets %d elements, |H n N| = %d"
                    % (H.display_name(), k, meet, size)
                )
    return not bad, bad


def _markov_checks(loaded: LoadedSetup, lat: SubextLattice, cap: int):
    """The chain's structural facts, read off the lattice's integer (f, g, below).

    Member i steps to member j, itself or one of below[i], with
    probability g[j] / f[i]; no transition matrix is built.  Every row is
    held to the cap first, as transition_matrix would hold it.
    """
    setup, K = loaded.setup, loaded.base
    m = len(lat.members)
    f, g, below = _hall_counts(lat, cap, range(m))
    inf = mu_infinity(setup, K, cap=cap, lattice=lat)
    one = mu1(setup, K, cap=cap, lattice=lat)

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

    # the limit as numerators a over one denominator D is a fixed point
    # iff one integer step, which lands over D * f[-1], gives a * f[-1]
    D = lcm(*(v.denominator for v in inf.values))
    a = [v.numerator * (D // v.denominator) for v in inf.values]
    stepped = _step(a, f, g, below)
    ok = stepped == [x * f[-1] for x in a]
    yield "limit-fixed-point", ok, [] if ok else [
        _vector_line(Fraction(x, D * f[-1]) for x in stepped)
    ]

    bad = [
        i
        for i in range(m)
        if (inf.values[i] > 0) != lat.is_maximal(i) or inf.values[i] < 0
    ]
    ok = not bad and sum(inf.values) == 1
    yield "limit-support", ok, ["member %d value %s" % (i, _fmt(inf.values[i])) for i in bad]

    bad = [i for i in range(lat.n_maximal) if not 0 < one.values[i] <= inf.values[i]]
    yield "mu1-below-limit", not bad, [
        "member %d: mu1 %s limit %s" % (i, _fmt(one.values[i]), _fmt(inf.values[i]))
        for i in bad
    ]


def _check_tower(loaded: LoadedSetup, cap: int):
    report = pushforward_check(loaded.tower, loaded.base, max_i=8, cap=cap)
    details = [
        "i=%s pushed=(%s) lower=(%s)"
        % (label, _vector_line(pushed.values), _vector_line(lower.values))
        for label, pushed, lower, equal in report.entries
        if not equal
    ]
    return report.holds, details


def _frattini_checks(loaded: LoadedSetup, lat: Optional[SubextLattice]):
    G = loaded.group
    normals = normal_subgroups(G)
    projections = []
    routes_ok, routes_detail = True, []
    for N in normals:
        _, pi = quotient(G, N)
        try:
            is_frattini_cover(pi)
        except RuntimeError as e:
            routes_ok = False
            routes_detail.append("kernel %s: %s" % (N.display_name(), e))
        projections.append((N, pi))
    yield "frattini-cover-routes", routes_ok, routes_detail

    bad = []
    for N1, p1 in projections:
        Q1 = p1.target
        reps1 = [
            min(g for g in range(G.order) if p1.image_of[g] == c)
            for c in range(Q1.order)
        ]
        for N2, p2 in projections:
            if N1.mask & N2.mask != N1.mask or N1.mask == N2.mask:
                continue
            mid = GroupHom(Q1, p2.target, tuple(p2.image_of[r] for r in reps1))
            law = is_frattini_cover(p2) == (
                is_frattini_cover(p1) and is_frattini_cover(mid)
            )
            if not law:
                bad.append("chain %s then %s" % (N1.display_name(), N2.display_name()))
    yield "frattini-composition", not bad, bad

    if lat is None:
        lat = SubextLattice(loaded.setup, loaded.base)
    _, r = quotient(G, loaded.setup.n_sub)
    bad = []
    for i, H in enumerate(lat.members):
        if lat.is_maximal(i) != is_frattini_restriction(H, r):
            bad.append("member %d %s" % (i, lat.member_name(i)))
    yield "maximal-equals-frattini-restriction", not bad, bad


def _invsys_checks(loaded: LoadedSetup):
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

    bad = []
    for j in sorted({1, 2, G.order}):
        _, pj = dual_group(
            generated_subsystem(S, [x for x in S.universe if S.sort_of(x) <= j])
        )
        emb = dual_embedding(pj)
        for i in range(1, j + 1):
            image = {emb(x) for x in emb.source.universe if emb.source.sort_of(x) <= i}
            want = {x for x in S.universe if S.sort_of(x) <= i}
            if image != want:
                bad.append("j=%d i=%d" % (j, i))
    yield "level-tower", not bad, bad


def cmd_verify(args) -> int:
    loaded = load_setup(args.file)
    cap = args.cap if args.cap is not None else TUPLE_CAP
    if args.suite == "tower" and loaded.tower is None:
        raise GroupError("the file has no tower section")
    # one base lattice for every suite that reads it; the frattini suite
    # on its own builds it after enumerating G, so the group's cap binds first
    lat = None
    if args.suite in ("lifts", "markov", "all"):
        lat = SubextLattice(loaded.setup, loaded.base)
    results = []
    if args.suite in ("lifts", "all"):
        ok, details = _lift_independence(loaded, lat, cap)
        results.append(("lift-independence", ok, details))
    if args.suite in ("markov", "all"):
        results.extend(_markov_checks(loaded, lat, cap))
    if args.suite == "tower" or (args.suite == "all" and loaded.tower is not None):
        ok, details = _check_tower(loaded, cap)
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
    p.add_argument("--cap", type=int, default=None, help="tuple enumeration limit")
    p.set_defaults(run=cmd_measure)

    p = sub.add_parser("verify", help="run invariant suites against the file")
    p.add_argument("file")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--cap", type=int, default=None, help="tuple enumeration limit")
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
