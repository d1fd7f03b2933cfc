"""Acceptance suite: one test per numbered criterion, printed as a report.

Each test prints exactly one "PASS criterion-N ..." or "FAIL criterion-N
..." line before asserting, so a verbose run doubles as an acceptance
report.  Criteria 2, 3, 4, and the lattice half of 6 share one sweep
over every group of order at most 16, every normal subgroup, and every
generating quotient tuple of length at most 2.
"""

import itertools
import math
import time
from fractions import Fraction

import pytest

from fmeas.cli import main
from fmeas.frattini import (
    frattini_subgroup,
    is_frattini_cover,
    is_frattini_restriction,
)
from fmeas.groups import (
    GroupHom,
    Subgroup,
    all_subgroups,
    cyclic,
    direct_product,
    epimorphisms,
    isomorphic,
    quotient,
    symmetric,
)
from fmeas.invsys import (
    complete_system,
    dual_embedding,
    dual_group,
    generated_subsystem,
)
from fmeas.lattice import GaloisSetup, SubextLattice, make_setup
from fmeas.measure import (
    measure_event,
    mu1,
    mu_i,
    mu_infinity,
    pushforward_check,
    transition_matrix,
)

import corpus
from conftest import FIXTURES, normal_family
from test_cli import EXPECTED, GOLDEN_CASES
from test_frattini import memoized_subgroup_cover

F = Fraction
TOLERANCE = F(1, 2 ** 40)
# criterion 2 enumerates a scenario's mu1 under every lift when the valid
# lifts times the translate tuples per lift, |K n N|^n each, fit in this
LIFT_TUPLE_BUDGET = 1296


def report(name, ok, detail):
    print("%s %s: %s" % ("PASS" if ok else "FAIL", name, detail), flush=True)


def full_subgroup(G):
    return Subgroup(G, range(G.order))


# -- independent oracle: literal enumeration, no engine machinery --------------


def naive_closure_mask(G, gens):
    elems = set(gens) | {0}
    changed = True
    while changed:
        changed = False
        for a in list(elems):
            for b in list(elems):
                c = G.table[a][b]
                if c not in elems:
                    elems.add(c)
                    changed = True
    mask = 0
    for e in elems:
        mask |= 1 << e
    return mask


def oracle_row(setup, lattice, i, lift=None, closures=None):
    """mu1 at member i by closing every translate tuple of the lift.

    The lift defaults to the least one.  closures, when given, is a dict
    that keeps each generator tuple's closure across calls.
    """
    G = setup.group
    H = lattice.members[i]
    r_img = quotient(G, setup.n_sub)[1].image_of
    taus = [x for x in H.elements if x in setup.n_sub]
    if lift is None:
        lift = [
            min(h for h in H.elements if r_img[h] == r_img[s]) for s in setup.sigma_prime
        ]
    if closures is None:
        closures = {}
    counts = [0] * len(lattice.members)
    for combo in itertools.product(taus, repeat=setup.n):
        gens = tuple(G.table[l][t] for l, t in zip(lift, combo))
        mask = closures.get(gens)
        if mask is None:
            mask = closures[gens] = naive_closure_mask(G, gens)
        counts[lattice.index_of[mask]] += 1
    total = len(taus) ** setup.n
    return [F(c, total) for c in counts]


def step(values, rows):
    out = [F(0)] * len(values)
    for i, vi in enumerate(values):
        if vi:
            for j, p in enumerate(rows[i]):
                if p:
                    out[j] += vi * p
    return out


def oracle_power(rows, steps):
    values = [F(0)] * len(rows)
    values[-1] = F(1)
    for _ in range(steps):
        values = step(values, rows)
    return values


def test_criterion_1_worked_examples():
    t0 = time.perf_counter()
    failures = []

    s3 = symmetric(3)
    orders = s3.element_orders()
    three_cycle = next(x for x in range(6) if orders[x] == 3)
    transposition = next(x for x in range(6) if orders[x] == 2)
    klein = direct_product(cyclic(2), cyclic(2))
    # element (a, b) of a product has index 2*a + b, so (1,0) = 2, (0,1) = 1
    cases = [
        ("Z/2", make_setup(cyclic(2), [1], [1]), (F(1, 2), F(1, 2)), (F(1), F(0))),
        ("Klein", make_setup(klein, [2], [1]), None, (F(1, 2), F(1, 2), F(0))),
        (
            "S3",
            make_setup(s3, [three_cycle], [transposition]),
            None,
            (F(1, 3), F(1, 3), F(1, 3), F(0)),
        ),
        ("Z/4", make_setup(cyclic(4), [2], [1]), None, (F(1),)),
    ]
    for label, setup, want_mu1, want_inf in cases:
        K = full_subgroup(setup.group)
        lat = SubextLattice(setup, K)
        one = mu1(lat)
        inf = mu_infinity(lat)
        if want_mu1 is not None and one.values != want_mu1:
            failures.append("%s mu1 %s" % (label, one.values))
        if inf.values != want_inf:
            failures.append("%s limit %s" % (label, inf.values))
        # oracle: exhaustive tuple enumeration, then naive powering to 64
        oracle_rows = [oracle_row(setup, lat, i) for i in range(len(lat.members))]
        engine = transition_matrix(lat)
        if [list(r) for r in engine.rows] != oracle_rows:
            failures.append("%s transition rows disagree with the oracle" % label)
        if one.values != tuple(oracle_rows[-1]):
            failures.append("%s mu1 disagrees with the oracle" % label)
        v64 = oracle_power(oracle_rows, 64)
        if mu_i(lat, 64).values != tuple(v64):
            failures.append("%s powered step 64 disagrees with the oracle" % label)
        tail = sum(v64[lat.n_maximal:], F(0))
        for a in range(lat.n_maximal):
            if not v64[a] <= inf.values[a] <= v64[a] + tail:
                failures.append("%s limit outside the 64-step bracket" % label)
    elapsed = time.perf_counter() - t0
    if elapsed >= 5:
        failures.append("took %.1fs" % elapsed)
    ok = not failures
    report(
        "criterion-1 worked-examples",
        ok,
        "4 setups against the oracle in %.2fs" % elapsed if ok else "; ".join(failures),
    )
    assert not failures


# -- shared sweep: every group of order <= 16, every N, every tuple ------------


def markov_issues(tag, lat, rows, mu1_values, inf_values):
    issues = []
    m = len(lat.members)
    reach = [
        (1 << i) | sum(1 << j for j, p in enumerate(rows[i]) if p) for i in range(m)
    ]
    changed = True
    while changed:
        changed = False
        for i in range(m):
            acc = reach[i]
            scan = acc
            while scan:
                j = (scan & -scan).bit_length() - 1
                scan &= scan - 1
                acc |= reach[j]
            if acc != reach[i]:
                reach[i] = acc
                changed = True
    for i in range(m):
        maximal = lat.is_maximal(i)
        absorbing = rows[i][i] == 1
        ergodic = all(reach[j] >> i & 1 for j in range(m) if reach[i] >> j & 1)
        if not (absorbing == maximal == ergodic):
            issues.append(
                "%s member %d: absorbing=%s maximal=%s ergodic=%s"
                % (tag, i, absorbing, maximal, ergodic)
            )
        if maximal:
            if not inf_values[i] > 0:
                issues.append("%s member %d: limit not positive" % (tag, i))
            if not mu1_values[i] <= inf_values[i]:
                issues.append("%s member %d: mu1 above the limit" % (tag, i))
        elif inf_values[i] != 0:
            issues.append("%s member %d: limit not zero" % (tag, i))
    for j in range(m):
        if sum((inf_values[i] * rows[i][j] for i in range(m)), F(0)) != inf_values[j]:
            issues.append("%s member %d: limit is not a fixed point" % (tag, j))
    return issues


def scaled_step(w, scaled):
    """One step of an integer chain: w times the sparse rows in scaled."""
    out = [0] * len(w)
    for i, wi in enumerate(w):
        if wi:
            for j, a in scaled[i]:
                out[j] += wi * a
    return out


def limit_issues(tag, rows, inf_values, n_maximal):
    """Check the exact limit against the iterated chain; return (issues, k).

    Members move only to subgroups, so the mass t_k still on the transient
    members decays like rho^k, rho the largest transient self-loop, and no
    fixed step count brings every chain within TOLERANCE.  Instead:

    - at step 200 the limit lies in the exact bracket
      v200[a] <= inf[a] <= v200[a] + t200 on every maximal member a, and
      vanishes on every other member;
    - at the chain's own step count k, the first k >= 200 with
      t_k <= TOLERANCE, the iterate is within TOLERANCE of the limit.  The
      walk fails at ceil(64 m_t / (1 - rho)) steps, m_t the number of
      transient members: the absorption time is at most a sum of m_t
      geometric sojourns, and a Chernoff bound on that negative binomial
      puts t_k below 2^-40 by then.

    The chain runs in integers: with D the common denominator of the rows,
    w_k = D^k v_k, so every comparison is exact.
    """
    issues = []
    m = len(rows)
    rho = max((rows[i][i] for i in range(n_maximal, m)), default=F(0))
    if rho == 1:
        return ["%s: a transient member never leaves" % tag], 0
    ceiling = math.ceil(64 * (m - n_maximal) / (1 - rho))
    D = math.lcm(*(p.denominator for row in rows for p in row))
    scaled = [
        [(j, p.numerator * (D // p.denominator)) for j, p in enumerate(row) if p]
        for row in rows
    ]
    w = [0] * m
    w[-1] = 1
    for _ in range(200):
        w = scaled_step(w, scaled)
    k, scale = 200, D ** 200
    t = sum(w[n_maximal:])
    for a, x in enumerate(inf_values):
        if a < n_maximal:
            if not w[a] * x.denominator <= x.numerator * scale <= (w[a] + t) * x.denominator:
                issues.append("%s member %d: limit outside the 200-step bracket" % (tag, a))
        elif x != 0:
            issues.append("%s member %d: limit not zero" % (tag, a))
    tol_num, tol_den = TOLERANCE.numerator, TOLERANCE.denominator
    while t * tol_den > scale * tol_num:
        if k >= ceiling:
            issues.append("%s: transient mass above 2^-40 at the ceiling, step %d" % (tag, k))
            return issues, k
        w = scaled_step(w, scaled)
        k, scale = k + 1, scale * D
        t = sum(w[n_maximal:])
    for a, x in enumerate(inf_values):
        gap = abs(w[a] * x.denominator - x.numerator * scale)
        if gap * tol_den > scale * x.denominator * tol_num:
            issues.append(
                "%s member %d: gap %.3e at step %d" % (tag, a, gap / (scale * x.denominator), k)
            )
    for j in range(m):
        if sum((inf_values[i] * rows[i][j] for i in range(m)), F(0)) != inf_values[j]:
            issues.append("%s: solve not certified by the fixed point" % tag)
            break
    return issues, k


@pytest.fixture(scope="module")
def sweep():
    data = {
        "scenarios": 0,
        "lift_coordinates": 0,
        "lift_enumerated": 0,
        "lift_vectors": 0,
        "lift_seconds": 0.0,
        "lift_failures": [],
        "markov_failures": [],
        "limit_checked": 0,
        "limit_failures": [],
        "limit_slowest": (0, ""),
        "restriction_checked": 0,
        "restriction_failures": [],
    }
    seen_chains = set()
    for name, G in corpus.classes_upto(16):
        base = full_subgroup(G)
        for N in all_subgroups(G):
            if not N.is_normal():
                continue
            Q, r = quotient(G, N)
            fullq = (1 << Q.order) - 1
            tuples = [(q,) for q in range(Q.order) if Q.closure_mask((q,)) == fullq]
            tuples += [
                (a, b)
                for a in range(Q.order)
                for b in range(Q.order)
                if Q.closure_mask((a, b)) == fullq
            ]
            first_tuple = True
            for tup in tuples:
                sigma = tuple(
                    min(g for g in range(G.order) if r.image_of[g] == q) for q in tup
                )
                setup = GaloisSetup(G, N, sigma)
                lat = SubextLattice(setup, base)
                tag = "%s N=%s sigma=%s" % (name, list(N.elements), list(sigma))
                data["scenarios"] += 1

                # the premise of the closed form, with no lift chosen: every
                # valid lift coordinate l translates K n N onto K n sigma_k N
                t0 = time.perf_counter()
                one = mu1(lat).values
                r_img = r.image_of
                meet_n = [g for g in base.elements if g in N]
                choices = [
                    [g for g in base.elements if r_img[g] == r_img[s]] for s in sigma
                ]
                for k, coset in enumerate(choices):
                    for l in coset:
                        data["lift_coordinates"] += 1
                        if sorted(G.table[l][t] for t in meet_n) != coset:
                            data["lift_failures"].append("%s coordinate %d l=%d" % (tag, k, l))
                # mu1 against the enumeration under every lift, within the budget
                if len(meet_n) ** (2 * len(sigma)) <= LIFT_TUPLE_BUDGET:
                    data["lift_enumerated"] += 1
                    closures = {}
                    for L in itertools.product(*choices):
                        data["lift_vectors"] += 1
                        want = oracle_row(setup, lat, len(lat.members) - 1, L, closures)
                        if list(one) != want:
                            data["lift_failures"].append("%s lift %s" % (tag, list(L)))
                data["lift_seconds"] += time.perf_counter() - t0

                T = transition_matrix(lat)
                rows = [tuple(row) for row in T.rows]
                inf = mu_infinity(lat)
                data["markov_failures"] += markov_issues(tag, lat, rows, one, inf.values)

                # a limit is checked once per chain; the limit is part of the
                # key, so a wrong limit on rows already seen is still checked
                key = (tuple(rows), inf.values, lat.n_maximal)
                if key not in seen_chains:
                    seen_chains.add(key)
                    data["limit_checked"] += 1
                    issues, k = limit_issues(tag, rows, inf.values, lat.n_maximal)
                    data["limit_failures"] += issues
                    data["limit_slowest"] = max(data["limit_slowest"], (k, tag))

                if first_tuple:
                    first_tuple = False
                    data["restriction_checked"] += 1
                    for i, H in enumerate(lat.members):
                        if is_frattini_restriction(H, r) != lat.is_maximal(i):
                            data["restriction_failures"].append(
                                "%s member %d" % (tag, i)
                            )
    return data


def test_criterion_2_lift_independence(sweep):
    failures = list(sweep["lift_failures"])
    if sweep["lift_seconds"] >= 60:
        failures.append("took %.1fs" % sweep["lift_seconds"])
    ok = not failures
    report(
        "criterion-2 lift-independence",
        ok,
        "%d scenarios, %d lift coordinates, %d scenarios enumerated under %d lifts, %.1fs"
        % (
            sweep["scenarios"],
            sweep["lift_coordinates"],
            sweep["lift_enumerated"],
            sweep["lift_vectors"],
            sweep["lift_seconds"],
        )
        if ok
        else "; ".join(failures[:6]),
    )
    assert not failures


def test_criterion_3_markov_equivalence(sweep):
    failures = sweep["markov_failures"]
    ok = not failures
    report(
        "criterion-3 markov-equivalence",
        ok,
        "%d scenarios, every member absorbing=maximal=ergodic, limits certified"
        % sweep["scenarios"]
        if ok
        else "; ".join(failures[:6]),
    )
    assert not failures


def test_criterion_4_limit_agreement(sweep):
    failures = sweep["limit_failures"]
    ok = not failures
    k, tag = sweep["limit_slowest"]
    detail = (
        "%d distinct chains bracket the limit at step 200 and come within 2^-40 "
        "by their own step count; slowest %s at step %d"
        % (sweep["limit_checked"], tag, k)
    )
    if not ok:
        detail = "%d issue(s) on %d distinct chains: %s" % (
            len(failures),
            sweep["limit_checked"],
            "; ".join(failures[:8]),
        )
    report("criterion-4 limit-agreement", ok, detail)
    assert not failures


# -- towers ---------------------------------------------------------------------


def test_criterion_5_towers():
    s3 = symmetric(3)
    orders = s3.element_orders()
    c = next(x for x in range(6) if orders[x] == 3)
    t = next(x for x in range(6) if orders[x] == 2)
    sign = [0 if orders[x] != 2 else 1 for x in range(6)]
    klein = direct_product(cyclic(2), cyclic(2))
    p6 = direct_product(cyclic(2), cyclic(3))
    c2 = make_setup(cyclic(2), [1], [1])
    towers = [
        ("Z/4 to Z/2", make_setup(cyclic(4), [1], [1]), c2, [0, 1, 0, 1]),
        ("Klein to Z/2", make_setup(klein, [1, 2], [3]), c2, [0, 0, 1, 1]),
        ("Z/2xZ/3 to Z/2", make_setup(p6, [1, 3], [4]), c2, [0, 0, 0, 1, 1, 1]),
        ("S3 sign", make_setup(s3, [t, c], [t]), c2, sign),
        (
            "S3 sign, constants A3",
            make_setup(s3, [c], [t]),
            make_setup(cyclic(2), [0], [1]),
            sign,
        ),
        ("identity on S3", make_setup(s3, [c], [t]), None, list(range(6))),
        ("Z/6 to Z/2", make_setup(cyclic(6), [1], [1]), c2, [0, 1, 0, 1, 0, 1]),
    ]
    failures = []
    for label, up, low, images in towers:
        if low is None:
            low = up
        pi = GroupHom(up.group, low.group, images)
        rep = pushforward_check(SubextLattice(up, full_subgroup(up.group)), pi, max_i=8)
        # the hand-built lower setup is the oracle for the derived one
        got = rep.lower_lattice
        want = SubextLattice(low, full_subgroup(low.group))
        if (
            got.setup.n_sub.mask != low.n_sub.mask
            or got.setup.sigma_prime != low.sigma_prime
            or [H.mask for H in got.members] != [H.mask for H in want.members]
        ):
            failures.append("%s: derived lower level differs from the hand-built one" % label)
        labels = [e[0] for e in rep.entries]
        if labels != [str(i) for i in range(9)] + ["inf"]:
            failures.append("%s: entries %s" % (label, labels))
        if not rep.holds:
            bad = [e[0] for e in rep.entries if not e[3]]
            failures.append("%s: pushforward differs at %s" % (label, bad))

    # events that only constrain one coprime factor are computed in the
    # quotient by the other factor
    locality = 0
    for maker, c3_gen, n_gens in [
        (lambda: corpus.group("C6"), 2, [1]),
        (lambda: corpus.group("C6"), 2, [2]),
        (lambda: corpus.group("C6"), 2, [3]),
        (lambda: direct_product(cyclic(2), cyclic(3)), 1, [3, 1]),
    ]:
        G = maker()
        c3 = Subgroup(G, (c3_gen,))
        Qg, proj = quotient(G, c3)
        setup = make_setup(
            G, n_gens, (next(x for x in range(G.order) if proj.image_of[x]),)
        )
        K = full_subgroup(G)
        lat = SubextLattice(setup, K)
        marg = make_setup(
            Qg,
            [proj.image_of[x] for x in setup.n_sub.elements],
            tuple(proj.image_of[s] for s in setup.sigma_prime),
        )
        mK = full_subgroup(Qg)
        mlat = SubextLattice(marg, mK)
        minf = mu_infinity(mlat)
        for s1_mask in (1, 3):
            X = [H for H in lat.members if proj.image_mask(H.mask) == s1_mask]
            want = F(0)
            for i, H in enumerate(mlat.members):
                if H.mask == s1_mask:
                    want = minf.values[i]
            locality += 1
            if measure_event(mu_infinity(lat), X) != want:
                failures.append("locality N=%s mask=%d" % (n_gens, s1_mask))
    ok = not failures
    report(
        "criterion-5 towers",
        ok,
        "%d towers hold at steps 0..8 and the limit, each derived lower level "
        "equal to its hand-built one, %d locality events"
        % (len(towers), locality)
        if ok
        else "; ".join(failures),
    )
    assert not failures


# -- Frattini machinery ----------------------------------------------------------


def test_criterion_6_frattini(sweep):
    failures = []
    if frattini_subgroup(cyclic(4)).frattini_subgroup.elements != (0, 2):
        failures.append("Phi(Z/4)")
    if frattini_subgroup(symmetric(3)).frattini_subgroup.order != 1:
        failures.append("Phi(S3)")
    klein = direct_product(cyclic(2), cyclic(2))
    if frattini_subgroup(klein).frattini_subgroup.order != 1:
        failures.append("Phi(Klein)")

    # both cover criteria on every epimorphism between corpus groups: the
    # engine's kernel test against the subgroup route, which depends on
    # the source and the kernel alone and is memoized per that pair
    corp = corpus.classes_upto(16)
    by_subgroups = memoized_subgroup_cover()
    epis_checked = 0
    covers = 0
    for gname, G in corp:
        for hname, H in corp:
            if G.order % H.order:
                continue
            for phi in epimorphisms(G, H):
                epis_checked += 1
                cover = is_frattini_cover(phi)
                covers += cover
                if cover != by_subgroups(phi):
                    failures.append("routes disagree on %s -> %s" % (gname, hname))

    # cover(psi . phi) == cover(phi) and cover(psi) on all composable chains
    chains = 0
    for gname, G in corp:
        normals = [S for S in all_subgroups(G) if S.is_normal()]
        for n1 in normals:
            q1, p1 = quotient(G, n1)
            reps = [-1] * q1.order
            for g in range(G.order):
                if reps[p1.image_of[g]] < 0:
                    reps[p1.image_of[g]] = g
            for n2 in normals:
                if n1.mask & n2.mask != n1.mask:
                    continue
                q2, p2 = quotient(G, n2)
                mid = GroupHom(q1, q2, [p2.image_of[reps[x]] for x in range(q1.order)])
                chains += 1
                if is_frattini_cover(p2) != (
                    is_frattini_cover(p1) and is_frattini_cover(mid)
                ):
                    failures.append(
                        "composition law on %s N1=%s N2=%s"
                        % (gname, list(n1.elements), list(n2.elements))
                    )

    failures += sweep["restriction_failures"]
    ok = not failures
    report(
        "criterion-6 frattini",
        ok,
        "%d epimorphisms dual-checked (%d covers), %d chains, "
        "maximal=restriction on %d lattices"
        % (epis_checked, covers, chains, sweep["restriction_checked"])
        if ok
        else "; ".join(failures[:6]),
    )
    assert not failures


# -- inverse systems --------------------------------------------------------------


def family_is_closed(G, masks, normal_masks, seed_masks):
    s = set(masks)
    if (1 << G.order) - 1 not in s:
        return False
    if not seed_masks <= s:
        return False
    for a in s:
        for b in s:
            if a & b not in s:
                return False
        for m in normal_masks:
            if m & a == a and m not in s:
                return False
    return True


def test_criterion_7_inverse_systems():
    t0 = time.perf_counter()
    failures = []

    round_trips = 0
    for name, G in corpus.classes_upto(24):
        D, _ = dual_group(complete_system(G))
        round_trips += 1
        if not isomorphic(D, G):
            failures.append("round trip on %s" % name)

    # removing any single member of a generated family breaks closure or
    # drops a generator
    minimal_families = 0
    sample = ["C2xC2", "C4", "C6", "S3", "Q8", "D4", "C4xC2", "C12", "A4"]
    for name in sample:
        G = corpus.group(name)
        S = complete_system(G)
        normal_masks = [N.mask for N in normal_family(G)]
        seeds = [(x,) for x in S.universe]
        seeds.append((S.universe[1], S.universe[-1]))
        for A in seeds:
            sub = generated_subsystem(S, A)
            masks = [N.mask for N in sub.normals]
            seed_masks = {x[0] for x in A}
            minimal_families += 1
            for drop in masks:
                kept = [m for m in masks if m != drop]
                if family_is_closed(G, kept, normal_masks, seed_masks):
                    failures.append("%s seeds=%s drop=%d" % (name, A, drop))

    # quotients agree with the full system on all sorts up to the level
    level_pairs = 0
    for name in ["C4", "C6", "S3", "D4", "Q8", "C12", "A4"]:
        G = corpus.group(name)
        S = complete_system(G)
        levels = sorted({1, 2, 3, 4, 6, G.order})
        for j in levels:
            sub = generated_subsystem(S, [x for x in S.universe if S.sort_of(x) <= j])
            Gj, pj = dual_group(sub)
            emb = dual_embedding(pj)
            for i in (lv for lv in levels if lv <= j):
                level_pairs += 1
                img = {
                    emb(x)
                    for x in emb.source.universe
                    if emb.source.sort_of(x) <= i
                }
                want = {x for x in S.universe if S.sort_of(x) <= i}
                if img != want:
                    failures.append("%s level j=%d sort<=%d" % (name, j, i))

    # dual embeddings preserve and reflect every relation
    embeddings = 0
    epi_specs = [("S3", 2), ("C12", 4), ("Q8", 2), ("D4", 1)]
    for name, gen in epi_specs:
        G = corpus.group(name)
        _, phi = quotient(G, Subgroup(G, (gen,)))
        emb = dual_embedding(phi)
        src, dst = emb.source, emb.target
        embeddings += 1
        if emb(src.one) != dst.one:
            failures.append("%s: constant not preserved" % name)
        for x in src.universe:
            if dst.sort_of(emb(x)) != src.sort_of(x):
                failures.append("%s: sort changed at %s" % (name, (x,)))
        for x, y in itertools.product(src.universe, repeat=2):
            if ((x, y) in src.compat) != ((emb(x), emb(y)) in dst.compat):
                failures.append("%s: compatibility broken" % name)
                break
            if ((x, y) in src.leq) != ((emb(x), emb(y)) in dst.leq):
                failures.append("%s: ordering broken" % name)
                break
        for x, y, z in itertools.product(src.universe, repeat=3):
            if ((x, y, z) in src.prod) != ((emb(x), emb(y), emb(z)) in dst.prod):
                failures.append("%s: multiplication broken" % name)
                break

    elapsed = time.perf_counter() - t0
    if elapsed >= 120:
        failures.append("took %.1fs" % elapsed)
    ok = not failures
    report(
        "criterion-7 inverse-systems",
        ok,
        "%d round trips, %d generated families minimal, %d level pairs, "
        "%d embeddings, %.1fs" % (round_trips, minimal_families, level_pairs, embeddings, elapsed)
        if ok
        else "; ".join(failures[:6]),
    )
    assert not failures


# -- CLI determinism ---------------------------------------------------------------


def test_criterion_8_cli_determinism(capsys):
    # every fixture twice in one process: a second run must not read
    # state the first one left behind
    failures = []
    runs = 0
    for args, fixture, golden, code in GOLDEN_CASES:
        argv = args[:1] + [str(FIXTURES / fixture)] + args[1:]
        outs = []
        for _ in range(2):
            rc = main(argv)
            outs.append(capsys.readouterr().out)
            runs += 1
            if rc != code:
                failures.append("exit %d: %s" % (rc, " ".join(argv)))
        if outs[0] != outs[1]:
            failures.append("runs differ: %s" % " ".join(argv))
        elif outs[0] != (EXPECTED / golden).read_text():
            failures.append("golden differs: %s" % " ".join(argv))
    ok = not failures
    report(
        "criterion-8 cli-determinism",
        ok,
        "%d fixture runs, each fixture twice in one process, byte-identical" % runs
        if ok
        else "; ".join(failures[:6]),
    )
    assert not failures
