"""Measure engine: an independent enumeration oracle, the worked
examples, chain and limit invariants, and tower pushforwards."""

import time
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import corpus
import setups
from fmeas.groups import (
    CapExceeded,
    GroupError,
    GroupHom,
    Subgroup,
    cyclic,
    direct_product,
    identity_hom,
    normal_subgroups,
    quotient,
)
from fmeas.lattice import SubextLattice, make_setup
from fmeas.measure import (
    STEP_BITS_CAP,
    MeasureVector,
    TowerSetup,
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


@pytest.mark.parametrize("name", setups.NAMES)
def test_mu1_matches_oracle(name):
    setup, K, lat = setups.get(name)
    assert list(mu1(setup, K, lattice=lat).values) == oracle_row(setup, lat, len(lat.members) - 1)


@pytest.mark.parametrize("name", setups.NAMES)
def test_transition_matrix_matches_oracle(name):
    setup, K, lat = setups.get(name)
    T = transition_matrix(setup, K, lattice=lat)
    for i in range(len(lat.members)):
        assert list(T.rows[i]) == oracle_row(setup, lat, i)


@pytest.mark.parametrize("name", setups.NAMES)
def test_mu_infinity_matches_oracle_limit(name):
    setup, K, lat = setups.get(name)
    rows = [oracle_row(setup, lat, i) for i in range(len(lat.members))]
    assert list(mu_infinity(setup, K, lattice=lat).values) == oracle_limit(rows, lat.n_maximal)


def test_mu_infinity_matches_the_fraction_solve_on_the_corpus():
    for tag, setup, K, lat in setups.corpus_lattices():
        assert list(mu_infinity(setup, K, lattice=lat).values) == fraction_limit(lat), tag


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
    assert list(mu_infinity(setup, K, lattice=lat).values) == fraction_limit(lat)


@pytest.mark.parametrize("name", setups.NAMES)
def test_mu_i_matches_oracle_steps(name):
    setup, K, lat = setups.get(name)
    rows = [oracle_row(setup, lat, i) for i in range(len(lat.members))]
    v = point_mass(lat)
    for k in range(9):
        assert list(mu_i(setup, K, k, lattice=lat).values) == v, "step %d" % k
        v = step(v, rows)


# -- worked examples ---------------------------------------------------------


def test_mu1_z2():
    setup, K, lat = setups.get("Z2-full")
    assert mu1(setup, K, lattice=lat).values == (F(1, 2), F(1, 2))


def test_mu1_klein():
    setup, K, lat = setups.get("Klein-first")
    v = mu1(setup, K, lattice=lat)
    assert v.values == (F(1, 2), F(1, 2), F(0))
    assert [lat.members[i].elements for i in range(3)] == [
        (0, 1),
        (0, 3),
        (0, 1, 2, 3),
    ]


def test_mu1_z4_point_mass():
    setup, K, lat = setups.get("Z4-g")
    assert mu1(setup, K, lattice=lat).values == (F(1),)


def test_transition_z2_l_first():
    setup, K, lat = setups.get("Z2-full")
    T = transition_matrix(setup, K, lattice=lat)
    assert T.rows == ((F(1), F(0)), (F(1, 2), F(1, 2)))
    assert T.n_maximal == 1


def test_transition_klein_whole_constant_group():
    G = corpus.group("C2xC2")
    setup = make_setup(G, [1, 2], (1,))
    K = Subgroup(G, range(4))
    T = transition_matrix(setup, K)
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
    T = transition_matrix(setup, K, lattice=lat)
    assert T.rows == ((F(1),),)


@pytest.mark.parametrize("name", setups.NAMES)
def test_mu_zero_is_point_mass_at_base(name):
    setup, K, lat = setups.get(name)
    v = mu_i(setup, K, 0, lattice=lat)
    assert v.values[-1] == 1
    assert all(x == 0 for x in v.values[:-1])


def test_mu_two_z2():
    setup, K, lat = setups.get("Z2-full")
    assert mu_i(setup, K, 2, lattice=lat).values == (F(3, 4), F(1, 4))


@pytest.mark.parametrize("name", setups.NAMES)
def test_mu_one_equals_mu1(name):
    setup, K, lat = setups.get(name)
    assert mu_i(setup, K, 1, lattice=lat) == mu1(setup, K, lattice=lat)


def test_mu_i_holds_the_denominator_bits_to_the_cap():
    # f(K) = 2 on Z2 with N = G, so i steps need denominators of i * 2 bits
    setup, K, lat = setups.get("Z2-full")
    top = STEP_BITS_CAP // 2
    v = mu_i(setup, K, top, lattice=lat)
    assert v.values == (1 - F(1, 2**top), F(1, 2**top))
    with pytest.raises(CapExceeded, match="over the cap of %d" % STEP_BITS_CAP):
        mu_i(setup, K, top + 1, lattice=lat)


def test_mu_infinity_z2():
    setup, K, lat = setups.get("Z2-full")
    assert mu_infinity(setup, K, lattice=lat).values == (F(1), F(0))


def test_mu_infinity_klein():
    setup, K, lat = setups.get("Klein-first")
    assert mu_infinity(setup, K, lattice=lat).values == (F(1, 2), F(1, 2), F(0))


def test_mu_infinity_s3():
    setup, K, lat = setups.get("S3-A3")
    assert mu_infinity(setup, K, lattice=lat).values == (F(1, 3), F(1, 3), F(1, 3), F(0))


def test_measure_event_basics():
    setup, K, lat = setups.get("Klein-first")
    assert measure_event(setup, K, list(lat.members), lattice=lat) == 1
    assert measure_event(setup, K, [], lattice=lat) == 0
    assert measure_event(setup, K, [lat.members[0]], lattice=lat) == F(1, 2)
    # indices work, duplicates collapse
    assert measure_event(setup, K, [0, lat.members[0]], lattice=lat) == F(1, 2)
    assert measure_event(setup, K, [0, 1], lattice=lat) == 1


def test_measure_event_rejects_non_members():
    setup, K, lat = setups.get("Z4-g")
    outside = Subgroup(setup.group, (2,))
    with pytest.raises(GroupError, match="member"):
        measure_event(setup, K, [outside], lattice=lat)
    with pytest.raises(GroupError, match="out of range"):
        measure_event(setup, K, [5], lattice=lat)
    with pytest.raises(GroupError, match="member"):
        measure_event(setup, K, ["k(a)"], lattice=lat)


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
        closed_form = list(mu1(setup, H, lattice=member_lat).values)
        base = len(member_lat.members) - 1
        for lift in lifts:
            assert oracle_row(setup, member_lat, base, lift=lift) == closed_form, lift


@pytest.mark.parametrize("name", setups.NAMES)
def test_ergodic_absorbing_maximal_coincide(name):
    setup, K, lat = setups.get(name)
    T = transition_matrix(setup, K, lattice=lat)
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
    T = transition_matrix(setup, K, lattice=lat)
    inf = mu_infinity(setup, K, lattice=lat).values
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
    T = transition_matrix(setup, K, lattice=lat)
    inf = list(mu_infinity(setup, K, lattice=lat).values)
    assert step(inf, T.rows) == inf


@pytest.mark.parametrize("name", setups.NAMES)
def test_mu_infinity_vanishes_sums_and_stays_rational(name):
    setup, K, lat = setups.get(name)
    v = mu_infinity(setup, K, lattice=lat).values
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
    inf = mu_infinity(setup, K, lattice=lat).values
    for a in range(lat.n_maximal):
        assert abs(v[a] - inf[a]) <= t


@pytest.mark.parametrize(
    "name", ["Klein-first", "S3-A3", "C4xC2-N4", "C4xC2-subK", "C2^4-e1"]
)
def test_limit_reached_exactly_when_no_transient_loops(name):
    # when every transient member leaves itself with probability 1, the
    # chain must be absorbed within (number of transients) steps
    setup, K, lat = setups.get(name)
    T = transition_matrix(setup, K, lattice=lat)
    transients = range(lat.n_maximal, len(lat.members))
    assert all(T.rows[i][i] == 0 for i in transients)
    steps_needed = len(lat.members) - lat.n_maximal
    assert mu_i(setup, K, steps_needed, lattice=lat) == mu_infinity(setup, K, lattice=lat)


def test_mu1_same_for_alternative_constant_subgroup():
    # C4 x C2 with N = <(0,1)> against N1 = <(2,0),(0,1)>: same members,
    # different denominators, identical measures
    G = corpus.group("C4xC2")
    K = Subgroup(G, range(8))
    via_n = make_setup(G, [1], (2,))
    via_n1 = make_setup(G, [4, 1], (2,))
    v, v1 = mu1(via_n, K), mu1(via_n1, K)
    assert v == v1
    assert v.values == (F(1, 2), F(1, 2), F(0))
    assert mu_infinity(via_n, K) == mu_infinity(via_n1, K)


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
    va, vb = mu1(a, K), mu1(b, K)
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
    minf = mu_infinity(marg, mK, lattice=mlat)
    for s1_mask in (1, 3):
        X = [H for H in lat.members if proj.image_mask(H.mask) == s1_mask]
        want = F(0)
        for i, H in enumerate(mlat.members):
            if H.mask == s1_mask:
                want = minf.values[i]
        assert measure_event(setup, K, X, lattice=lat) == want


# -- caps, validation ----------------------------------------------------------


def test_cap_exceeded_is_loud():
    setup, K, lat = setups.get("C13-n2")
    with pytest.raises(CapExceeded, match="169"):
        mu1(setup, K, cap=168, lattice=lat)
    assert sum(mu1(setup, K, cap=169, lattice=lat).values) == 1


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
    mu_infinity(setup, K, lattice=lat)
    row_message = row_message or base_message
    calls = [
        (lambda: mu1(setup, K, cap=cap, lattice=lat), base_message),
        (lambda: transition_matrix(setup, K, cap=cap, lattice=lat), row_message),
        (lambda: mu_i(setup, K, 1, cap=cap, lattice=lat), row_message),
        (lambda: mu_infinity(setup, K, cap=cap, lattice=lat), row_message),
    ]
    for call, message in calls:
        with pytest.raises(CapExceeded) as exc:
            call()
        assert str(exc.value) == message


def test_cap_propagates_through_the_solve():
    G = corpus.group("C2xC2")
    setup = make_setup(G, [1, 2], (1,))
    K = Subgroup(G, range(4))
    with pytest.raises(CapExceeded):
        mu_infinity(setup, K, cap=3)


def test_lattice_argument_must_match():
    setup, K, lat = setups.get("Klein-first")
    other_setup, other_K, other_lat = setups.get("Z2-full")
    with pytest.raises(GroupError, match="lattice"):
        mu1(setup, K, lattice=other_lat)


def test_mu_i_rejects_bad_step_counts():
    setup, K, lat = setups.get("Z2-full")
    with pytest.raises(GroupError, match="nonnegative"):
        mu_i(setup, K, -1, lattice=lat)
    with pytest.raises(GroupError, match="nonnegative"):
        mu_i(setup, K, F(1, 2), lattice=lat)


def test_measure_vector_validation():
    setup, K, lat = setups.get("Klein-first")
    with pytest.raises(GroupError, match="3 members"):
        MeasureVector(lat, [F(1)])
    with pytest.raises(GroupError, match="nonnegative"):
        MeasureVector(lat, [F(3, 2), F(-1, 2), F(0)])
    with pytest.raises(GroupError, match="sum"):
        MeasureVector(lat, [F(1, 2), F(1, 4), F(0)])


def test_transition_matrix_validation():
    G = corpus.group("C2xC2")
    setup = make_setup(G, [1, 2], (1,))
    lat = SubextLattice(setup, Subgroup(G, range(4)))
    good = transition_matrix(setup, lat.base, lattice=lat).rows
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
    for x in mu_infinity(setup, K, lattice=lat).values:
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
    T = transition_matrix(setup, K, cap=16**12, lattice=lat)
    one = mu1(setup, K, cap=16**12, lattice=lat)
    inf = mu_infinity(setup, K, cap=16**12, lattice=lat)
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
        mu1(setup, K, lattice=lat)


# -- towers ----------------------------------------------------------------------


def c4_to_c2_tower():
    C4, C2 = cyclic(4), cyclic(2)
    up = make_setup(C4, [1], (1,))
    low = make_setup(C2, [1], (1,))
    return TowerSetup(up, low, GroupHom(C4, C2, [0, 1, 0, 1])), Subgroup(C4, range(4))


def test_tower_validation():
    C4, C2 = cyclic(4), cyclic(2)
    up = make_setup(C4, [1], (1,))
    low = make_setup(C2, [1], (1,))
    with pytest.raises(GroupError, match="surjective"):
        TowerSetup(up, low, GroupHom(C4, C2, [0, 0, 0, 0]))
    with pytest.raises(GroupError, match="upper group"):
        TowerSetup(up, low, identity_hom(C2))
    up_small_n = make_setup(C4, [2], (1,))
    with pytest.raises(GroupError, match="onto the lower N"):
        TowerSetup(up_small_n, low, GroupHom(C4, C2, [0, 1, 0, 1]))
    low_two = make_setup(C2, [1], (1, 1))
    with pytest.raises(GroupError, match="lengths"):
        TowerSetup(up, low_two, GroupHom(C4, C2, [0, 1, 0, 1]))
    low_other_sigma = make_setup(C2, [1], (0,))
    with pytest.raises(GroupError, match="coordinatewise"):
        TowerSetup(up, low_other_sigma, GroupHom(C4, C2, [0, 1, 0, 1]))


def test_tower_z4_to_z2_point_mass():
    tower, K = c4_to_c2_tower()
    report = pushforward_check(tower, K)
    assert report.holds
    label, pushed, lower, equal = report.entries[-1]
    assert label == "inf" and equal
    assert pushed.values == (F(1), F(0)) == lower.values


def test_tower_z4_to_z2_midway_values():
    tower, K = c4_to_c2_tower()
    report = pushforward_check(tower, K, max_i=2)
    assert [e[0] for e in report.entries] == ["0", "1", "2", "inf"]
    assert report.entries[2][1].values == (F(3, 4), F(1, 4))
    assert report.holds


def test_tower_identity_is_definitional():
    setup, K, lat = setups.get("S3-A3")
    report = pushforward_check(TowerSetup(setup, setup, identity_hom(setup.group)), K)
    assert report.holds
    for _, pushed, lower, equal in report.entries:
        assert equal and pushed.values == lower.values


def test_tower_klein_to_z2_compatible():
    G = corpus.group("C2xC2")
    up = make_setup(G, [2], (1,))
    low = make_setup(cyclic(2), [], (1,))
    pi = GroupHom(G, low.group, [0, 1, 0, 1])
    report = pushforward_check(TowerSetup(up, low, pi), Subgroup(G, range(4)))
    assert report.holds
    assert len(report.entries) == 10


def test_tower_s3_sign_map():
    setup, K, lat = setups.get("S3-full")
    G = setup.group
    C2 = cyclic(2)
    sign = [0 if G.element_order(x) in (1, 3) else 1 for x in range(6)]
    pi = GroupHom(G, C2, sign)
    low = make_setup(C2, [1], (pi.image_of[setup.sigma_prime[0]],))
    report = pushforward_check(TowerSetup(setup, low, pi), K)
    assert report.holds
    assert report.entries[1][1].values == (F(1, 2), F(1, 2))


def test_tower_c6_to_c2():
    C6, C2 = corpus.group("C6"), cyclic(2)
    up = make_setup(C6, [1], (1,))
    low = make_setup(C2, [1], (1,))
    pi = GroupHom(C6, C2, [x % 2 for x in range(6)])
    report = pushforward_check(TowerSetup(up, low, pi), Subgroup(C6, range(6)))
    assert report.holds


def test_tower_mismatched_constants_is_detected():
    # pi kills an element outside the upper N, so the two levels do not
    # share a constant quotient: the check must report the mismatch
    G = corpus.group("C2xC2")
    up = make_setup(G, [2], (1,))
    low = make_setup(cyclic(2), [1], (0,))
    pi = GroupHom(G, low.group, [0, 0, 1, 1])
    report = pushforward_check(TowerSetup(up, low, pi), Subgroup(G, range(4)))
    assert not report.holds
    flags = {label: equal for label, _, _, equal in report.entries}
    assert flags["0"] and flags["1"]
    assert not flags["2"] and not flags["inf"]
    two = next(e for e in report.entries if e[0] == "2")
    assert two[1].values == (F(1, 2), F(1, 2))
    assert two[2].values == (F(3, 4), F(1, 4))


def test_tower_depth_zero_and_bad_depth():
    tower, K = c4_to_c2_tower()
    report = pushforward_check(tower, K, max_i=0)
    assert [e[0] for e in report.entries] == ["0", "inf"]
    with pytest.raises(GroupError, match="nonnegative"):
        pushforward_check(tower, K, max_i=-1)
