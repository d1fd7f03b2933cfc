"""The pure tuple walk as an enumeration oracle for the closed form.

backend.walk_product is checked digit by digit against brute force;
then a layered step table over subgroup masks turns it into a count of
translate tuples per generated member, which must equal the engine's
closed-form rows exactly, including on inputs too large for brute force.
"""

import random
from array import array

import pytest

import corpus
import fmeas
import setups
from fmeas import backend
from fmeas.groups import Subgroup, quotient
from fmeas.lattice import SubextLattice, make_setup
from fmeas.measure import mu1, transition_matrix


def brute_counts(steps, n, n_states, b, start_state, begin, end):
    """Digit-by-digit reference, independent of the walk."""
    counts = [0] * n_states
    for idx in range(begin, end):
        digits = []
        rem = idx
        for _ in range(n):
            rem, d = divmod(rem, b)
            digits.append(d)
        digits.reverse()
        s = start_state
        for k, d in enumerate(digits):
            s = steps[(k * n_states + s) * b + d]
        counts[s] += 1
    return counts


def random_machine(rng, n, n_states, b):
    steps = array("i", [0]) * (n * n_states * b)
    for i in range(len(steps)):
        steps[i] = rng.randrange(n_states)
    return steps


def run(steps, n, n_states, b, start, begin, end):
    counts = array("q", [0]) * n_states
    backend.walk_product(steps, n, n_states, b, start, begin, end, counts)
    return list(counts)


@pytest.mark.parametrize("seed", range(20))
def test_walk_matches_brute_force(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    b = rng.randint(1, 6)
    n_states = rng.randint(1, 9)
    start = rng.randrange(n_states)
    steps = random_machine(rng, n, n_states, b)
    total = b**n
    want = brute_counts(steps, n, n_states, b, start, 0, total)
    assert run(steps, n, n_states, b, start, 0, total) == want
    assert sum(want) == total


@pytest.mark.parametrize("seed", range(10))
def test_partial_ranges_sum_to_full(seed):
    rng = random.Random(100 + seed)
    n = rng.randint(1, 4)
    b = rng.randint(2, 5)
    n_states = rng.randint(2, 8)
    steps = random_machine(rng, n, n_states, b)
    total = b**n
    cuts = sorted(rng.randrange(total + 1) for _ in range(3))
    bounds = [0] + cuts + [total]
    counts = array("q", [0]) * n_states
    for lo, hi in zip(bounds, bounds[1:]):
        backend.walk_product(steps, n, n_states, b, 0, lo, hi, counts)
    assert list(counts) == brute_counts(steps, n, n_states, b, 0, 0, total)


def test_empty_range_is_a_noop():
    steps = array("i", [0, 0])
    counts = array("q", [7])
    backend.walk_product(steps, 1, 1, 2, 0, 3, 3, counts)
    assert list(counts) == [7]


def test_single_tuple_mid_range():
    rng = random.Random(42)
    steps = random_machine(rng, 3, 5, 4)
    for idx in (0, 17, 63):
        want = brute_counts(steps, 3, 5, 4, 1, idx, idx + 1)
        assert run(steps, 3, 5, 4, 1, idx, idx + 1) == want


def test_counts_accumulate_across_calls():
    steps = array("i", [0, 1, 1, 1])  # 1 level, 2 states, 2 digits
    counts = array("q", [0, 0])
    backend.walk_product(steps, 1, 2, 2, 0, 0, 2, counts)
    backend.walk_product(steps, 1, 2, 2, 0, 0, 2, counts)
    assert list(counts) == [2, 2]


def test_backend_is_the_pure_walk():
    assert fmeas.BACKEND == backend.BACKEND == "pure"
    assert callable(backend.walk_product)


# -- the walk as the engine's mid-size oracle -------------------------------


def walk_row(setup, lattice, base_index, lift):
    """Translate-tuple counts per member at one base, by the tuple walk.

    The state after k digits is the closure of the first k translated
    lift entries, so the step table is built one layer at a time over
    the subgroup masks that can occur, and the walk needs one lookup per
    digit.
    """
    G = setup.group
    H = lattice.members[base_index]
    tau = [x for x in H.elements if setup.n_sub.mask >> x & 1]
    b, n = len(tau), setup.n
    masks = [1]
    state_of = {1: 0}
    layers = []
    frontier = {0}
    for k in range(n):
        gen_row = G.table[lift[k]]
        layer = {}
        for s in sorted(frontier):
            row = []
            for t in tau:
                m2 = G.extend_mask(masks[s], gen_row[t])
                sid = state_of.get(m2)
                if sid is None:
                    sid = state_of[m2] = len(masks)
                    masks.append(m2)
                row.append(sid)
            layer[s] = row
        layers.append(layer)
        frontier = {sid for row in layer.values() for sid in row}
    n_states = len(masks)
    steps = array("i", [0]) * (n * n_states * b)
    for k, layer in enumerate(layers):
        for s, row in layer.items():
            off = (k * n_states + s) * b
            steps[off : off + b] = array("i", row)
    counts = array("q", [0]) * n_states
    backend.walk_product(steps, n, n_states, b, 0, 0, b**n, counts)
    member_counts = [0] * len(lattice.members)
    for sid, c in enumerate(counts):
        if c:
            member_counts[lattice.index_of[masks[sid]]] += c
    return member_counts


def least_lift(setup, H):
    """The smallest element of H in each lift coordinate's coset."""
    r_img = quotient(setup.group, setup.n_sub)[1].image_of
    return tuple(
        min(h for h in H.elements if r_img[h] == r_img[s]) for s in setup.sigma_prime
    )


def greatest_lift(setup, H):
    """The largest element of H in each lift coordinate's coset: a valid
    lift that differs from the least one wherever it can."""
    r_img = quotient(setup.group, setup.n_sub)[1].image_of
    return tuple(
        max(h for h in H.elements if r_img[h] == r_img[s]) for s in setup.sigma_prime
    )


def assert_rows_match_walk(setup, K, lat, lift_of):
    T = transition_matrix(setup, K, lattice=lat)
    for i, H in enumerate(lat.members):
        total = len([x for x in H.elements if x in setup.n_sub]) ** setup.n
        counts = walk_row(setup, lat, i, lift_of(setup, H))
        assert sum(counts) == total
        assert [v * total for v in T.rows[i]] == counts, "row %d" % i
    assert mu1(setup, K, lattice=lat).values == T.rows[-1]


@pytest.mark.parametrize("name", setups.NAMES)
def test_closed_form_rows_equal_walk_counts(name):
    setup, K, lat = setups.get(name)
    assert_rows_match_walk(setup, K, lat, least_lift)


@pytest.mark.parametrize("name", setups.NAMES)
def test_closed_form_rows_equal_walk_counts_under_another_lift(name):
    setup, K, lat = setups.get(name)
    assert_rows_match_walk(setup, K, lat, greatest_lift)


def test_closed_form_matches_walk_beyond_brute_force():
    # C2^4 with N the whole group and n = 5: the base row alone is
    # 16^5 = 1,048,576 tuples, the 67 rows together about 1.6 million
    G = corpus.group("C2^4")
    setup = make_setup(G, [1, 2, 4, 8], (1, 2, 4, 8, 15))
    K = Subgroup(G, range(16))
    lat = SubextLattice(setup, K)
    assert len(lat.members) == 67
    assert_rows_match_walk(setup, K, lat, least_lift)
