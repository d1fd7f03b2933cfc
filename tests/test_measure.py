"""Measure engine: an independent enumeration oracle, the worked
examples, chain and limit invariants, and tower pushforwards."""

import random
import time
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import corpus
import setups
from fmeas import measure
from fmeas.groups import (
    CapExceeded,
    FiniteGroup,
    GroupError,
    GroupHom,
    Subgroup,
    cyclic,
    direct_product,
    normal_subgroups,
    quotient,
)
from fmeas.lattice import SubextLattice, make_setup
from fmeas.measure import (
    STEP_BITS_CAP,
    MeasureVector,
    TransitionMatrix,
    format_rational,
    measure_event,
    mu1,
    mu_i,
    mu_infinity,
    pushforward_check,
    transition_matrix,
)

F = Fraction


# -- independent oracle ------------------------------------------------------


def naive_closure(G, gens):
    """Closure by repeated full products; no engine machinery."""
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
    return elems


def oracle_row(setup, lattice, base_index, lift=None):
    """mu1 at one member by literal tuple enumeration."""
    G = setup.group
    H = lattice.members[base_index]
    r_img = quotient(G, setup.n_sub)[1].image_of
    taus = [x for x in H.elements if x in setup.n_sub]
    if lift is None:
        lift = [
            min(h for h in H.elements if r_img[h] == r_img[s])
            for s in setup.sigma_prime
        ]
    counts = [0] * len(lattice.members)
    for combo in product(taus, repeat=setup.n):
        gens = [G.table[l][t] for l, t in zip(lift, combo)]
        mask = 0
        for e in naive_closure(G, gens):
            mask |= 1 << e
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


def point_mass(lattice):
    vals = [F(0)] * len(lattice.members)
    vals[-1] = F(1)
    return vals


def oracle_limit(rows, n_maximal):
    """Limit measure by forward substitution over explicit Fraction rows.

    With the maximal members first, the transient block of the rows is
    lower triangular, so (I - Q)B = R is solved one transient at a time;
    the last transient is the base.
    """
    m = len(rows)
    if n_maximal == m:
        return [F(1)]
    absorb = []  # absorb[t][a]: probability of ending at maximal a from n_maximal + t
    for t in range(m - n_maximal):
        row = rows[n_maximal + t]
        pivot = 1 - row[n_maximal + t]
        assert pivot != 0
        here = []
        for a in range(n_maximal):
            acc = row[a]
            for s in range(t):
                acc += row[n_maximal + s] * absorb[s][a]
            here.append(acc / pivot)
        absorb.append(here)
    return absorb[-1] + [F(0)] * (m - n_maximal)


def fraction_limit(lattice):
    """Limit measure by Fraction forward substitution over recounted (f, g).

    f, g and the sub-member lists are recomputed by mask tests, and each
    absorption row is a list of Fractions, as the engine solved it
    before it kept integer numerators over one denominator.
    """
    setup = lattice.setup
    masks = [H.mask for H in lattice.members]
    f = [bin(m & setup.n_sub.mask).count("1") ** setup.n for m in masks]
    g, below = [], []
    for j, mj in enumerate(masks):
        sub = [k for k in range(j) if masks[k] & mj == masks[k]]
        g.append(f[j] - sum(g[k] for k in sub))
        below.append(sub)
    ell, m = lattice.n_maximal, len(masks)
    if ell == m:
        return [F(1)]
    absorb = []
    for i in range(ell, m):
        acc = [F(0)] * ell
        for j in below[i]:
            if j < ell:
                acc[j] += g[j]
            elif g[j]:
                acc = [x + g[j] * y for x, y in zip(acc, absorb[j - ell])]
        absorb.append([x / (f[i] - g[i]) for x in acc])
    return absorb[-1] + [F(0)] * (m - ell)


def forward_substitution(lattice):
    """Limit measure by the engine's former forward substitution: one
    vector of integer numerators over its own denominator per transient
    member, brought to the lcm of the rows it sums and reduced by a gcd.
    mu_infinity ran it on every lattice before it took the point mass
    where one member is maximal and one pass from the base elsewhere."""
    f, g = lattice.hall_counts()
    below = lattice.below
    ell, m = lattice.n_maximal, len(lattice.members)
    if ell == m:
        return [F(1)]
    absorb = []
    for i in range(ell, m):
        pivot = f[i] - g[i]
        assert pivot != 0
        steps = [j for j in below[i] if j >= ell and g[j]]
        den = lcm(*(absorb[j - ell][1] for j in steps))
        acc = [0] * ell
        for j in below[i]:
            if j < ell:
                acc[j] = g[j] * den
        for j in steps:
            nums, d = absorb[j - ell]
            w = g[j] * (den // d)
            acc = [x + w * y for x, y in zip(acc, nums)]
        den *= pivot
        common = gcd(den, *acc)
        absorb.append(([x // common for x in acc], den // common))
    nums, den = absorb[-1]
    assert all(nums)
    return [F(x, den) for x in nums] + [F(0)] * (m - ell)


@pytest.mark.parametrize("name", setups.NAMES)
def test_mu1_matches_oracle(name):
    setup, K, lat = setups.get(name)
    assert list(mu1(lat).values) == oracle_row(setup, lat, len(lat.members) - 1)


@pytest.mark.parametrize("name", setups.NAMES)
def test_transition_matrix_matches_oracle(name):
    setup, K, lat = setups.get(name)
    T = transition_matrix(lat)
    for i in range(len(lat.members)):
        assert list(T.rows[i]) == oracle_row(setup, lat, i)


@pytest.mark.parametrize("name", setups.NAMES)
def test_mu_infinity_matches_oracle_limit(name):
    setup, K, lat = setups.get(name)
    rows = [oracle_row(setup, lat, i) for i in range(len(lat.members))]
    assert list(mu_infinity(lat).values) == oracle_limit(rows, lat.n_maximal)


def test_mu_infinity_matches_the_fraction_solve_on_the_corpus():
    for tag, setup, K, lat in setups.corpus_lattices():
        assert list(mu_infinity(lat).values) == fraction_limit(lat), tag


def test_mu_infinity_matches_the_forward_substitution_on_the_corpus():
    # the point mass where one member is maximal, as on every N = G
    # lattice, and the solve where two or more are
    lattices = setups.corpus_lattices()
    assert {lat.n_maximal == 1 for *_, lat in lattices} == {True, False}
    for tag, setup, K, lat in lattices:
        assert list(mu_infinity(lat).values) == forward_substitution(lat), tag


def test_mu_infinity_matches_the_forward_substitution_on_c2_6():
    # C2^6 with |N| = 8 and n = 5: 1,017 members, 512 of them maximal,
    # so the pass from the base carries a denominator of 505 pivots
    G = FiniteGroup([[a ^ b for b in range(64)] for a in range(64)])
    setup = make_setup(G, [1, 2, 4], (8, 16, 32, 8, 16))
    lat = SubextLattice(setup, Subgroup(G, range(64)))
    assert (len(lat.members), lat.n_maximal) == (1017, 512)
    assert list(mu_infinity(lat).values) == forward_substitution(lat)


@st.composite
def galois_setups(draw):
    """A group of order <= 12, a normal N, a lift of 1 to 3 coordinates
    whose images generate G/N, and a base that maps onto G/N."""
    name = draw(st.sampled_from([name for name, _ in corpus.classes_upto(12)]))
    G = corpus.group(name)
    N = draw(st.sampled_from(normal_subgroups(G)))
    sigma = tuple(draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=3)))
    Q, r = quotient(G, N)
    assume(Q.closure_mask([r.image_of[x] for x in sigma]) == (1 << Q.order) - 1)
    setup = make_setup(G, N.elements, sigma)
    extra = draw(st.lists(st.integers(0, G.order - 1), max_size=2))
    K = Subgroup(G, sigma + tuple(extra))
    assume(r.image_mask(K.mask) == (1 << Q.order) - 1)
    return setup, K


@settings(deadline=None, max_examples=60)
@given(galois_setups())
def test_mu_infinity_matches_the_fraction_solve_on_generated_setups(drawn):
    setup, K = drawn
    lat = SubextLattice(setup, K)
    assert list(mu_infinity(lat).values) == fraction_limit(lat)


@pytest.mark.parametrize("name", setups.NAMES)
def test_mu_i_matches_oracle_steps(name):
    setup, K, lat = setups.get(name)
    rows = [oracle_row(setup, lat, i) for i in range(len(lat.members))]
    v = point_mass(lat)
    for k in range(9):
        assert list(mu_i(lat, k).values) == v, "step %d" % k
        v = step(v, rows)


# -- worked examples ---------------------------------------------------------


def test_mu1_z2():
    setup, K, lat = setups.get("Z2-full")
    assert mu1(lat).values == (F(1, 2), F(1, 2))


def test_mu1_klein():
    setup, K, lat = setups.get("Klein-first")
    v = mu1(lat)
    assert v.values == (F(1, 2), F(1, 2), F(0))
    assert [lat.members[i].elements for i in range(3)] == [
        (0, 1),
        (0, 3),
        (0, 1, 2, 3),
    ]


def test_mu1_z4_point_mass():
    setup, K, lat = setups.get("Z4-g")
    assert mu1(lat).values == (F(1),)


def test_transition_z2_l_first():
    setup, K, lat = setups.get("Z2-full")
    T = transition_matrix(lat)
    assert T.rows == ((F(1), F(0)), (F(1, 2), F(1, 2)))
    assert T.n_maximal == 1


def test_transition_klein_whole_constant_group():
    G = corpus.group("C2xC2")
    setup = make_setup(G, [1, 2], (1,))
    K = Subgroup(G, range(4))
    T = transition_matrix(SubextLattice(setup, K))
    assert [m.elements for m in T.lattice.members] == [
        (0,),
        (0, 1),
        (0, 2),
        (0, 3),
        (0, 1, 2, 3),
    ]
    assert T.rows == (
        (F(1), F(0), F(0), F(0), F(0)),
        (F(1, 2), F(1, 2), F(0), F(0), F(0)),
        (F(1, 2), F(0), F(1, 2), F(0), F(0)),
        (F(1, 2), F(0), F(0), F(1, 2), F(0)),
        (F(1, 4), F(1, 4), F(1, 4), F(1, 4), F(0)),
    )


def test_transition_single_member_lattice():
    setup, K, lat = setups.get("C4xC2-subK")
    T = transition_matrix(lat)
    assert T.rows == ((F(1),),)


@pytest.mark.parametrize("name", setups.NAMES)
def test_mu_zero_is_point_mass_at_base(name):
    setup, K, lat = setups.get(name)
    v = mu_i(lat, 0)
    assert v.values[-1] == 1
    assert all(x == 0 for x in v.values[:-1])


def test_mu_two_z2():
    setup, K, lat = setups.get("Z2-full")
    assert mu_i(lat, 2).values == (F(3, 4), F(1, 4))


@pytest.mark.parametrize("name", setups.NAMES)
def test_mu_one_equals_mu1(name):
    setup, K, lat = setups.get(name)
    assert mu_i(lat, 1) == mu1(lat)


def test_mu_i_holds_the_denominator_bits_to_the_cap():
    # f(K) = 2 on Z2 with N = G, so i steps need denominators of i * 2 bits
    setup, K, lat = setups.get("Z2-full")
    top = STEP_BITS_CAP // 2
    v = mu_i(lat, top)
    assert v.values == (1 - F(1, 2**top), F(1, 2**top))
    with pytest.raises(CapExceeded, match="over the cap of %d" % STEP_BITS_CAP):
        mu_i(lat, top + 1)


def test_mu_infinity_z2():
    setup, K, lat = setups.get("Z2-full")
    assert mu_infinity(lat).values == (F(1), F(0))


def test_mu_infinity_klein():
    setup, K, lat = setups.get("Klein-first")
    assert mu_infinity(lat).values == (F(1, 2), F(1, 2), F(0))


def test_mu_infinity_s3():
    setup, K, lat = setups.get("S3-A3")
    assert mu_infinity(lat).values == (F(1, 3), F(1, 3), F(1, 3), F(0))


def test_measure_event_basics():
    setup, K, lat = setups.get("Klein-first")
    inf = mu_infinity(lat)
    assert measure_event(inf, list(lat.members)) == 1
    assert measure_event(inf, []) == 0
    assert measure_event(inf, [lat.members[0]]) == F(1, 2)
    # indices work, duplicates collapse
    assert measure_event(inf, [0, lat.members[0]]) == F(1, 2)
    assert measure_event(inf, [0, 1]) == 1


@pytest.mark.parametrize("name", setups.NAMES)
def test_measure_event_sums_any_vector(name):
    # each member alone carries its own value, and an event its values' sum
    setup, K, lat = setups.get(name)
    for vector in (mu1(lat), mu_i(lat, 3), mu_infinity(lat)):
        for i, H in enumerate(lat.members):
            assert measure_event(vector, [H]) == measure_event(vector, [i]) == vector.values[i]
        half = range(0, len(lat.members), 2)
        assert measure_event(vector, half) == sum(vector.values[i] for i in half)


def test_measure_event_rejects_non_members():
    setup, K, lat = setups.get("Z4-g")
    inf = mu_infinity(lat)
    outside = Subgroup(setup.group, (2,))
    with pytest.raises(GroupError, match="member"):
        measure_event(inf, [outside])
    with pytest.raises(GroupError, match="out of range"):
        measure_event(inf, [5])
    with pytest.raises(GroupError, match="member"):
        measure_event(inf, ["k(a)"])


# -- invariants ---------------------------------------------------------------


# per member: valid lifts times translate tuples, each tuple closed by the
# oracle; a member over it is enumerated under its least and greatest lifts
LIFT_TUPLE_BUDGET = 5000


@pytest.mark.parametrize("name", setups.NAMES)
def test_lift_independence_exhaustive(name):
    setup, K, lat = setups.get(name)
    r_img = quotient(setup.group, setup.n_sub)[1].image_of
    for H in lat.members:
        member_lat = SubextLattice(setup, H)
        candidates = [
            [h for h in H.elements if r_img[h] == r_img[s]]
            for s in setup.sigma_prime
        ]
        lifts = list(product(*candidates))
        tuples = len([x for x in H.elements if x in setup.n_sub]) ** setup.n
        assert len(lifts) == tuples
        if len(lifts) * tuples > LIFT_TUPLE_BUDGET:
            lifts = [lifts[0], lifts[-1]]
        closed_form = list(mu1(member_lat).values)
        base = len(member_lat.members) - 1
        for lift in lifts:
            assert oracle_row(setup, member_lat, base, lift=lift) == closed_form, lift


@pytest.mark.parametrize("name", setups.NAMES)
def test_ergodic_absorbing_maximal_coincide(name):
    setup, K, lat = setups.get(name)
    T = transition_matrix(lat)
    m = len(lat.members)
    reach = [[bool(T.rows[i][j]) or i == j for j in range(m)] for i in range(m)]
    for k in range(m):
        for i in range(m):
            if reach[i][k]:
                reach[i] = [a or b for a, b in zip(reach[i], reach[k])]
    for i in range(m):
        absorbing = T.rows[i][i] == 1
        ergodic = all(reach[j][i] for j in range(m) if reach[i][j])
        assert absorbing == lat.is_maximal(i)
        assert ergodic == lat.is_maximal(i)


@pytest.mark.parametrize("name", setups.NAMES)
def test_monotone_and_bounded_at_maximal(name):
    setup, K, lat = setups.get(name)
    T = transition_matrix(lat)
    inf = mu_infinity(lat).values
    v = point_mass(lat)
    prev = v
    for _ in range(10):
        v = step(v, T.rows)
        for a in range(lat.n_maximal):
            assert v[a] >= prev[a]
        prev = v
    one = step(point_mass(lat), T.rows)
    for a in range(lat.n_maximal):
        assert 0 < one[a] <= inf[a]


@pytest.mark.parametrize("name", setups.NAMES)
def test_mu_infinity_is_a_fixed_point(name):
    setup, K, lat = setups.get(name)
    T = transition_matrix(lat)
    inf = list(mu_infinity(lat).values)
    assert step(inf, T.rows) == inf


@pytest.mark.parametrize("name", setups.NAMES)
def test_mu_infinity_vanishes_sums_and_stays_rational(name):
    setup, K, lat = setups.get(name)
    v = mu_infinity(lat).values
    assert sum(v) == 1
    for i, x in enumerate(v):
        assert isinstance(x, Fraction)
        if lat.is_maximal(i):
            assert x > 0
        else:
            assert x == 0


@pytest.mark.parametrize("name", setups.NAMES)
def test_limit_lies_within_the_unabsorbed_bound(name):
    # after 64 oracle steps, the not-yet-absorbed mass t bounds how far
    # the absorbed mass can still move, so |v[a] - inf[a]| <= t exactly
    setup, K, lat = setups.get(name)
    rows = [oracle_row(setup, lat, i) for i in range(len(lat.members))]
    v = point_mass(lat)
    for _ in range(64):
        v = step(v, rows)
    t = sum(v[lat.n_maximal :])
    assert t < 1
    inf = mu_infinity(lat).values
    for a in range(lat.n_maximal):
        assert abs(v[a] - inf[a]) <= t


@pytest.mark.parametrize(
    "name", ["Klein-first", "S3-A3", "C4xC2-N4", "C4xC2-subK", "C2^4-e1"]
)
def test_limit_reached_exactly_when_no_transient_loops(name):
    # when every transient member leaves itself with probability 1, the
    # chain must be absorbed within (number of transients) steps
    setup, K, lat = setups.get(name)
    T = transition_matrix(lat)
    transients = range(lat.n_maximal, len(lat.members))
    assert all(T.rows[i][i] == 0 for i in transients)
    steps_needed = len(lat.members) - lat.n_maximal
    assert mu_i(lat, steps_needed) == mu_infinity(lat)


def test_mu1_same_for_alternative_constant_subgroup():
    # C4 x C2 with N = <(0,1)> against N1 = <(2,0),(0,1)>: same members,
    # different denominators, identical measures
    G = corpus.group("C4xC2")
    K = Subgroup(G, range(8))
    via_n = make_setup(G, [1], (2,))
    via_n1 = make_setup(G, [4, 1], (2,))
    lat, lat1 = SubextLattice(via_n, K), SubextLattice(via_n1, K)
    v, v1 = mu1(lat), mu1(lat1)
    assert v == v1
    assert v.values == (F(1, 2), F(1, 2), F(0))
    assert mu_infinity(lat) == mu_infinity(lat1)


@pytest.mark.parametrize(
    "maker,n_gens,n1_gens,sigma",
    [
        (lambda: cyclic(4), [], [2], (1,)),
        (lambda: corpus.group("Q8"), [], [2], (1, 4)),
    ],
)
def test_mu1_constant_subgroup_degenerate_cases(maker, n_gens, n1_gens, sigma):
    G = maker()
    K = Subgroup(G, range(G.order))
    a = make_setup(G, n_gens, sigma)
    b = make_setup(G, n1_gens, sigma)
    va, vb = mu1(SubextLattice(a, K)), mu1(SubextLattice(b, K))
    assert va == vb
    assert va.values == (F(1),)


@pytest.mark.parametrize(
    "maker,c3_gen,n_gens",
    [
        (lambda: corpus.group("C6"), 2, [1]),
        (lambda: corpus.group("C6"), 2, [2]),
        (lambda: corpus.group("C6"), 2, [3]),
        (lambda: direct_product(cyclic(2), cyclic(3)), 1, [3, 1]),
    ],
)
def test_coprime_factor_locality(maker, c3_gen, n_gens):
    # events that only constrain the order-2 factor have the same limit
    # measure as the same events computed in the quotient by the order-3
    # factor
    G = maker()
    c3 = Subgroup(G, (c3_gen,))
    assert c3.order == 3
    Qg, proj = quotient(G, c3)
    setup = make_setup(G, n_gens, (next(x for x in range(G.order) if proj.image_of[x]),))
    K = Subgroup(G, range(G.order))
    lat = SubextLattice(setup, K)
    marg = make_setup(
        Qg,
        [proj.image_of[x] for x in setup.n_sub.elements],
        tuple(proj.image_of[s] for s in setup.sigma_prime),
    )
    mK = Subgroup(Qg, range(Qg.order))
    mlat = SubextLattice(marg, mK)
    minf = mu_infinity(mlat)
    for s1_mask in (1, 3):
        X = [H for H in lat.members if proj.image_mask(H.mask) == s1_mask]
        want = F(0)
        for i, H in enumerate(mlat.members):
            if H.mask == s1_mask:
                want = minf.values[i]
        assert measure_event(mu_infinity(lat), X) == want


# -- caps, validation ----------------------------------------------------------


def test_cap_exceeded_is_loud():
    setup, K, lat = setups.get("C13-n2")
    with pytest.raises(CapExceeded, match="169"):
        mu1(lat, cap=168)
    assert sum(mu1(lat, cap=169).values) == 1


@pytest.mark.parametrize(
    "cap,base_message,row_message",
    [
        (23, "member 29 needs 24 tuples, over the cap of 23", None),
        (2, "member 29 needs 24 tuples, over the cap of 2", "member 10 needs 3 tuples, over the cap of 2"),
    ],
)
def test_cap_binds_each_call_on_a_lattice_with_cached_counts(cap, base_message, row_message):
    # the counts are cached by the first call, at the default cap; every
    # later call still holds its own rows to its own cap, in row order
    setup, K, lat = setups.get("S4-full")
    mu_infinity(lat)
    row_message = row_message or base_message
    calls = [
        (lambda: mu1(lat, cap=cap), base_message),
        (lambda: transition_matrix(lat, cap=cap), row_message),
        (lambda: mu_i(lat, 1, cap=cap), row_message),
        (lambda: mu_infinity(lat, cap=cap), row_message),
    ]
    for call, message in calls:
        with pytest.raises(CapExceeded) as exc:
            call()
        assert str(exc.value) == message


def test_a_one_maximal_limit_is_still_held_to_the_cap():
    # the point mass reads no count, but every row is held to the cap first
    setup, K, lat = setups.get("C13-n2")
    assert lat.n_maximal == 1
    with pytest.raises(CapExceeded) as exc:
        mu_infinity(lat, cap=168)
    assert str(exc.value) == "member 1 needs 169 tuples, over the cap of 168"
    assert mu_infinity(lat, cap=169).values == (F(1), F(0))


def test_cap_propagates_through_the_solve():
    G = corpus.group("C2xC2")
    setup = make_setup(G, [1, 2], (1,))
    K = Subgroup(G, range(4))
    with pytest.raises(CapExceeded):
        mu_infinity(SubextLattice(setup, K), cap=3)


def test_mu_i_rejects_bad_step_counts():
    setup, K, lat = setups.get("Z2-full")
    with pytest.raises(GroupError, match="nonnegative"):
        mu_i(lat, -1)
    with pytest.raises(GroupError, match="nonnegative"):
        mu_i(lat, F(1, 2))
    # True is an int, but no step count, as for level_quotient
    for flag in (True, False):
        with pytest.raises(GroupError, match="^step count must be a nonnegative integer$"):
            mu_i(lat, flag)


def test_measure_vector_validation():
    setup, K, lat = setups.get("Klein-first")
    with pytest.raises(GroupError, match="3 members"):
        MeasureVector(lat, [F(1)])
    with pytest.raises(GroupError, match="nonnegative"):
        MeasureVector(lat, [F(3, 2), F(-1, 2), F(0)])
    with pytest.raises(GroupError, match="sum"):
        MeasureVector(lat, [F(1, 2), F(1, 4), F(0)])


def test_measure_vector_takes_ints_and_mixed_values():
    setup, K, lat = setups.get("Klein-first")
    # the common denominator of 1/6, 1/10 and 11/15 is none of theirs
    for values in ([0, 1, 0], [F(1, 2), 0, F(1, 2)], [1, F(0), 0], [F(1, 6), F(1, 10), F(11, 15)]):
        vec = MeasureVector(lat, values)
        assert vec.values == tuple(F(v) for v in values)
        assert all(type(v) is F for v in vec.values)
    with pytest.raises(GroupError, match="^measure values must be nonnegative$"):
        MeasureVector(lat, [2, -1, 0])
    with pytest.raises(GroupError, match="^measure values must sum to exactly 1$"):
        MeasureVector(lat, [1, F(1, 3), 0])
    with pytest.raises(GroupError, match="^measure values must sum to exactly 1$"):
        MeasureVector(lat, [F(1, 6), F(1, 10), F(7, 10)])


def test_measure_vector_sums_large_coprime_denominators_exactly():
    # three Mersenne primes: the common denominator D is their product,
    # and a vector that misses 1 by 1/D either way is rejected
    setup, K, lat = setups.get("Klein-first")
    p, q, r = 2**61 - 1, 2**89 - 1, 2**107 - 1
    d = p * q * r
    first, second = F(p - 1, q), F(q - 1, r * p)
    rest = 1 - first - second
    assert rest.denominator == d
    vec = MeasureVector(lat, [first, second, rest])
    assert sum(vec.values) == 1
    for miss in (F(1, d), F(-1, d)):
        with pytest.raises(GroupError, match="^measure values must sum to exactly 1$"):
            MeasureVector(lat, [first, second, rest + miss])


def test_transition_matrix_validation():
    G = corpus.group("C2xC2")
    setup = make_setup(G, [1, 2], (1,))
    lat = SubextLattice(setup, Subgroup(G, range(4)))
    good = transition_matrix(lat).rows
    bad = [list(r) for r in good]
    bad[1] = [F(0), F(0), F(1), F(0), F(0)]  # mass on an incomparable member
    with pytest.raises(GroupError, match="extend"):
        TransitionMatrix(lat, bad)
    bad = [list(r) for r in good]
    bad[0] = [F(1, 2), F(1, 2), F(0), F(0), F(0)]  # maximal row not a unit
    with pytest.raises(GroupError, match="absorbing"):
        TransitionMatrix(lat, bad)
    bad = [list(r) for r in good]
    bad[4] = [F(3, 4), F(1, 4), F(1, 4), F(-1, 4), F(0)]
    with pytest.raises(GroupError, match="negative"):
        TransitionMatrix(lat, bad)
    bad = [list(r) for r in good]
    bad[4] = [F(1, 4), F(1, 4), F(1, 4), F(0), F(0)]
    with pytest.raises(GroupError, match="sum"):
        TransitionMatrix(lat, bad)


def test_format_rational():
    assert format_rational(F(1, 2)) == "1/2"
    assert format_rational(F(2, 4)) == "1/2"
    assert format_rational(1) == "1/1"
    assert format_rational(0) == "0/1"


@pytest.mark.parametrize("name", setups.NAMES)
def test_serialized_values_are_lowest_terms(name):
    setup, K, lat = setups.get(name)
    for x in mu_infinity(lat).values:
        assert x.denominator >= 1
        assert gcd(x.numerator, x.denominator) == 1


# -- large inputs -----------------------------------------------------------------


@pytest.mark.parametrize(
    "normal,sigma",
    [([1, 2, 4, 8], (1, 2, 4, 8)), ([1, 2, 4], (8, 1, 2, 4))],
    ids=["N=G", "N=C2^3"],
)
def test_inputs_beyond_the_default_cap_are_cheap(normal, sigma):
    # C2^4 with n = 12 is up to 16^12 (about 2.8e14) tuples per row: far
    # past any enumeration, while the closed form takes milliseconds
    # (about 50 ms with the lattice on a 2-core x86-64 machine, CPython
    # 3.11); the 2 s bound leaves room for a loaded machine
    G = corpus.group("C2^4")
    setup = make_setup(G, normal, sigma * 3)
    K = Subgroup(G, range(16))
    start = time.perf_counter()
    lat = SubextLattice(setup, K)
    T = transition_matrix(lat, cap=16**12)
    one = mu1(lat, cap=16**12)
    inf = mu_infinity(lat, cap=16**12)
    elapsed = time.perf_counter() - start
    assert all(sum(row) == 1 for row in T.rows)
    assert one.values == T.rows[-1]
    assert lat.n_maximal >= 1
    for a in range(lat.n_maximal):
        assert 0 < one.values[a] <= inf.values[a]
    assert elapsed < 2.0, "took %.2f s" % elapsed
    base = len(lat.members) - 1
    with pytest.raises(
        CapExceeded,
        match="member %d needs %d tuples, over the cap of 10000000"
        % (base, (2 ** len(normal)) ** 12),
    ):
        mu1(lat)


# -- towers ----------------------------------------------------------------------


def pushforward(up, low, pi, K, **kwargs):
    """pushforward_check on the upper lattice, its derived lower level
    compared with the lattice of a hand-built lower setup over pi(K)."""
    report = pushforward_check(SubextLattice(up, K), pi, **kwargs)
    want = SubextLattice(low, Subgroup(low.group, sorted({pi.image_of[x] for x in K.elements})))
    got = report.lower_lattice
    assert report.pi is pi and got.setup.group is low.group
    assert got.setup.n_sub.mask == low.n_sub.mask
    assert got.setup.sigma_prime == low.sigma_prime
    assert got.base.mask == want.base.mask
    assert [H.mask for H in got.members] == [H.mask for H in want.members]
    assert got.n_maximal == want.n_maximal and got.below == want.below
    return report


def c4_to_c2_tower():
    C4, C2 = cyclic(4), cyclic(2)
    up = make_setup(C4, [1], (1,))
    low = make_setup(C2, [1], (1,))
    return up, low, GroupHom(C4, C2, [0, 1, 0, 1]), Subgroup(C4, range(4))


def test_tower_validation():
    up, low, pi, K = c4_to_c2_tower()
    lat = SubextLattice(up, K)
    with pytest.raises(GroupError, match="^pi is not surjective$"):
        pushforward_check(lat, GroupHom(up.group, low.group, [0, 0, 0, 0]))
    with pytest.raises(GroupError, match="^pi must map the upper group to the lower group$"):
        pushforward_check(lat, GroupHom(low.group, low.group, range(low.group.order)))


def test_derived_lower_level_is_the_image_of_the_upper_one():
    # a proper base: C4 with N = G over K = {0, 2}, which pi kills, so the
    # lower base is trivial and its lattice the one trivial member
    up, low, pi, _ = c4_to_c2_tower()
    C4 = up.group
    whole = make_setup(C4, [1], (1, 3))
    report = pushforward(whole, make_setup(low.group, [1], (1, 1)), pi, Subgroup(C4, (2,)))
    assert report.holds
    assert [H.mask for H in report.lower_lattice.members] == [1]
    # N given by other generators: pi(A3) is trivial and pi(sigma) the sign
    setup, K, _ = setups.get("S3-A3")
    G, C2 = setup.group, cyclic(2)
    pi = GroupHom(G, C2, [0 if G.element_order(x) in (1, 3) else 1 for x in range(6)])
    report = pushforward(setup, make_setup(C2, [], (1,)), pi, K)
    assert report.holds and report.lower_lattice.setup.n_sub.order == 1


def test_tower_z4_to_z2_point_mass():
    report = pushforward(*c4_to_c2_tower())
    assert report.holds
    label, pushed, lower, equal = report.entries[-1]
    assert label == "inf" and equal
    assert pushed.values == (F(1), F(0)) == lower.values


def test_tower_z4_to_z2_midway_values():
    report = pushforward(*c4_to_c2_tower(), max_i=2)
    assert [e[0] for e in report.entries] == ["0", "1", "2", "inf"]
    assert report.entries[2][1].values == (F(3, 4), F(1, 4))
    assert report.holds


def test_tower_identity_is_definitional():
    setup, K, lat = setups.get("S3-A3")
    G = setup.group
    report = pushforward(setup, setup, GroupHom(G, G, range(G.order)), K)
    assert report.holds
    for _, pushed, lower, equal in report.entries:
        assert equal and pushed.values == lower.values


def test_tower_klein_to_z2_compatible():
    G = corpus.group("C2xC2")
    up = make_setup(G, [2], (1,))
    low = make_setup(cyclic(2), [], (1,))
    pi = GroupHom(G, low.group, [0, 1, 0, 1])
    report = pushforward(up, low, pi, Subgroup(G, range(4)))
    assert report.holds
    assert len(report.entries) == 10


def test_tower_s3_sign_map():
    setup, K, lat = setups.get("S3-full")
    G = setup.group
    C2 = cyclic(2)
    sign = [0 if G.element_order(x) in (1, 3) else 1 for x in range(6)]
    pi = GroupHom(G, C2, sign)
    low = make_setup(C2, [1], (pi.image_of[setup.sigma_prime[0]],))
    report = pushforward(setup, low, pi, K)
    assert report.holds
    assert report.entries[1][1].values == (F(1, 2), F(1, 2))


def test_tower_c6_to_c2():
    C6, C2 = corpus.group("C6"), cyclic(2)
    up = make_setup(C6, [1], (1,))
    low = make_setup(C2, [1], (1,))
    pi = GroupHom(C6, C2, [x % 2 for x in range(6)])
    report = pushforward(up, low, pi, Subgroup(C6, range(6)))
    assert report.holds


def test_tower_mismatched_constants_is_detected():
    # pi kills an element outside the upper N, so the two levels do not
    # share a constant quotient: the check must report the mismatch
    G = corpus.group("C2xC2")
    up = make_setup(G, [2], (1,))
    low = make_setup(cyclic(2), [1], (0,))
    pi = GroupHom(G, low.group, [0, 0, 1, 1])
    report = pushforward(up, low, pi, Subgroup(G, range(4)))
    assert not report.holds
    flags = {label: equal for label, _, _, equal in report.entries}
    assert flags["0"] and flags["1"]
    assert not flags["2"] and not flags["inf"]
    two = next(e for e in report.entries if e[0] == "2")
    assert two[1].values == (F(1, 2), F(1, 2))
    assert two[2].values == (F(3, 4), F(1, 4))


def test_tower_steps_are_held_to_the_step_bits_cap():
    # C4 ->> C2 with N = G and 900 coordinates: f(K) = 4^900 upstairs,
    # 1,801 bits, and 2^900 downstairs; each level's i steps share the
    # denominator f(K)^i, held to the cap as in mu_i
    C4, C2 = cyclic(4), cyclic(2)
    up = make_setup(C4, [1], (1,) * 900)
    low = make_setup(C2, [1], (1,) * 900)
    pi = GroupHom(C4, C2, [0, 1, 0, 1])
    K = Subgroup(C4, range(4))
    lat = SubextLattice(up, K)
    cap = 4**900
    assert pushforward(up, low, pi, K, max_i=7, cap=cap).holds
    with pytest.raises(
        CapExceeded,
        match="^8 steps over %d tuples need denominators of up to 14408 bits, "
        "over the cap of %d$" % (cap, STEP_BITS_CAP),
    ):
        pushforward_check(lat, pi, max_i=8, cap=cap)
    # the rows are held to their cap first
    with pytest.raises(CapExceeded, match="over the cap of %d$" % (cap - 1)):
        pushforward_check(lat, pi, max_i=8, cap=cap - 1)


def test_tower_depth_zero_and_bad_depth():
    up, low, pi, K = c4_to_c2_tower()
    lat = SubextLattice(up, K)
    report = pushforward_check(lat, pi, max_i=0)
    assert [e[0] for e in report.entries] == ["0", "inf"]
    with pytest.raises(GroupError, match="nonnegative"):
        pushforward_check(lat, pi, max_i=-1)
    for flag in (True, False):
        with pytest.raises(GroupError, match="^max_i must be a nonnegative integer$"):
            pushforward_check(lat, pi, max_i=flag)


# -- the integer route ---------------------------------------------------------------


def corpus_vectors(lat):
    """(label, vector) for mu1, mu_i with i = 0..8 and mu_infinity on lat."""
    yield "mu1", mu1(lat)
    for i in range(9):
        yield "mu_%d" % i, mu_i(lat, i)
    yield "inf", mu_infinity(lat)


def test_measures_are_counts_over_one_denominator():
    # every measure is built from its integer counts, unchecked: each must
    # be a valid measure that the checking constructor accepts from its
    # lowest-terms values, and equal to what it builds
    for tag, _, _, lat in setups.corpus_lattices():
        for label, v in corpus_vectors(lat):
            where = "%s %s" % (tag, label)
            assert len(v.counts) == len(lat.members), where
            assert v.denominator > 0 and all(c >= 0 for c in v.counts), where
            assert sum(v.counts) == v.denominator, where
            assert v.values == tuple(F(c, v.denominator) for c in v.counts), where
            assert all(type(x) is F for x in v.values), where
            checked = MeasureVector(lat, v.values)
            assert checked == v and v == checked, where
            assert checked.values == v.values, where
            assert checked.denominator == lcm(*(x.denominator for x in v.values)), where


def test_the_limit_is_solved_once_per_lattice(monkeypatch):
    # a second call reads the limit kept on the lattice, and it equals the
    # limit a new lattice over the same setup solves afresh
    solved = []
    real = measure._absorbing_solve

    def counting(lat, f, g, below):
        solved.append(lat)
        return real(lat, f, g, below)

    monkeypatch.setattr(measure, "_absorbing_solve", counting)
    for tag, setup, K, _ in setups.corpus_lattices():
        lat = SubextLattice(setup, K)
        first, again = mu_infinity(lat), mu_infinity(lat)
        assert solved == [lat], tag
        fresh = mu_infinity(SubextLattice(setup, K))
        assert (again.counts, again.denominator) == (first.counts, first.denominator), tag
        assert (fresh.counts, fresh.denominator) == (first.counts, first.denominator), tag
        solved.clear()


def test_measure_vector_equality_crosses_denominators():
    setup, K, lat = setups.get("Klein-first")
    half = MeasureVector(lat, [F(1, 2), F(1, 2), 0])
    assert MeasureVector._of_counts(lat, [3, 3, 0], 6) == half
    assert MeasureVector._of_counts(lat, [4, 2, 0], 6) != half
    # values are built once, when first read, in lowest terms
    v = MeasureVector._of_counts(lat, [2, 6, 0], 8)
    assert v.values is v.values and v.values == (F(1, 4), F(3, 4), F(0))


def test_measure_event_is_the_fraction_sum_of_its_values():
    rng = random.Random(0)
    for tag, _, _, lat in setups.corpus_lattices():
        m = len(lat.members)
        for label, v in corpus_vectors(lat):
            for _ in range(3):
                X = [i for i in range(m) if rng.random() < 0.5]
                assert measure_event(v, X) == sum((v.values[i] for i in X), F(0)), (tag, label)


def tower_cases():
    """(tag, upper lattice, pi) for the towers above, then for every corpus
    lattice over a group of order at most 8, its projection onto G/M for
    every normal M: some kernels lie outside the upper N."""
    whole = lambda G: Subgroup(G, range(G.order))
    up, _, pi, K = c4_to_c2_tower()
    yield "C4->C2", SubextLattice(up, K), pi
    G = corpus.group("C2xC2")
    for image in ([0, 1, 0, 1], [0, 0, 1, 1]):
        yield "C2xC2 %s" % image, SubextLattice(make_setup(G, [2], (1,)), whole(G)), GroupHom(
            G, cyclic(2), image
        )
    setup, K, lat = setups.get("S3-full")
    G = setup.group
    sign = [0 if G.element_order(x) in (1, 3) else 1 for x in range(6)]
    yield "S3 sign", lat, GroupHom(G, cyclic(2), sign)
    C6 = corpus.group("C6")
    yield "C6->C2", SubextLattice(make_setup(C6, [1], (1,)), whole(C6)), GroupHom(
        C6, cyclic(2), [x % 2 for x in range(6)]
    )
    for tag, setup, _, lat in setups.corpus_lattices():
        G = setup.group
        if G.order <= 8:
            for M in normal_subgroups(G):
                yield "%s ->> G/%s" % (tag, M.display_name()), lat, quotient(G, M)[1]


def test_pushforward_flags_match_the_fraction_comparison():
    # the pushed values, summed as Fractions over the upper values, and
    # each flag, compared on Fraction tuples
    unequal = 0
    for tag, upper, pi in tower_cases():
        report = pushforward_check(upper, pi)
        low = report.lower_lattice
        assert report.holds == all(e[3] for e in report.entries), tag
        for label, pushed, lower, equal in report.entries:
            vec = mu_infinity(upper) if label == "inf" else mu_i(upper, int(label))
            want = [F(0)] * len(low.members)
            for H, x in zip(upper.members, vec.values):
                want[low.index_of[pi.image_mask(H.mask)]] += x
            assert pushed.values == tuple(want), (tag, label)
            assert lower == (mu_infinity(low) if label == "inf" else mu_i(low, int(label)))
            assert equal == (pushed.values == lower.values), (tag, label)
            unequal += not equal
    assert unequal
