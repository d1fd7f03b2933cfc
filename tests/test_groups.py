import itertools
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import setups
from conftest import (
    FIXTURES,
    count_enumerations,
    count_hom_builds,
    d4_power_generators,
    normal_family,
)
from fmeas import groups
from fmeas.groups import (
    _image_kernels,
    TABLE_ORDER_CAP,
    CapExceeded,
    FiniteGroup,
    GroupError,
    GroupHom,
    Subgroup,
    all_subgroups,
    build_group,
    compose,
    cosets,
    cyclic,
    dihedral,
    direct_product,
    epimorphisms,
    hom_from_images,
    image_classes,
    isomorphic,
    normal_subgroups,
    quotient,
    semidirect_product,
    symmetric,
    up_sets,
)
from fmeas.frattini import frattini_subgroup
from fmeas.lattice import make_setup
from fmeas.measure import measure_event, mu_infinity

ALL_NAMES = sorted(corpus.BUILDERS)
SMALL_NAMES = sorted(name for name, G in corpus.classes_upto(16))

# a loop with identity and two-sided inverses that is not associative:
# (1*2)*2 = 2 but 1*(2*2) = 5
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4, 5],
    [1, 2, 0, 4, 5, 3],
    [2, 0, 4, 5, 3, 1],
    [3, 4, 5, 0, 1, 2],
    [4, 5, 3, 1, 2, 0],
    [5, 3, 1, 2, 0, 4],
]


def swapped_intercalate(table, a, c, b, d):
    """table with the intercalate at rows a, c and columns b, d swapped."""
    out = [list(row) for row in table]
    out[a][b], out[a][d], out[c][b], out[c][d] = out[a][d], out[a][b], out[c][d], out[c][b]
    return out


# cyclic(70) with the intercalate at rows 3/38 and columns 5/40 swapped,
# a loop above order 64
SWAPPED_C70 = swapped_intercalate(
    [[(a + b) % 70 for b in range(70)] for a in range(70)], 3, 38, 5, 40
)


def oracle_associative(t) -> bool:
    """Brute force over all n^3 triples."""
    n = range(len(t))
    return all(t[t[x][a]][y] == t[x][t[a][y]] for x in n for a in n for y in n)


def is_loop(t) -> bool:
    """Identity 0 and two-sided inverses, for a table whose rows and
    columns are permutations."""
    n = len(t)
    if list(t[0]) != list(range(n)) or any(t[x][0] != x for x in range(n)):
        return False
    return all(t[t[x].index(0)][x] == 0 for x in range(n))


def check_verdict(table) -> bool:
    """FiniteGroup's verdict on a loop table, checked against the oracle.

    A rejection must name a triple that is not associative.
    """
    try:
        FiniteGroup(table)
    except GroupError as e:
        got = re.fullmatch(r"non-associative triple \((\d+), (\d+), (\d+)\)", str(e))
        assert got is not None, str(e)
        x, a, y = map(int, got.groups())
        assert table[table[x][a]][y] != table[x][table[a][y]]
        return False
    assert oracle_associative(table)
    return True


# -- construction --------------------------------------------------------


def test_build_group_z2_table():
    G = build_group({"table": [[0, 1], [1, 0]]})
    assert G.order == 2
    assert G.mul(1, 1) == 0
    assert G.inv(1) == 1


def test_build_group_from_permutations_gives_s3():
    G = build_group({"permutations": [[1, 0, 2], [1, 2, 0]]})
    assert G.order == 6
    assert isomorphic(G, symmetric(3))


def test_build_group_rejects_nonassociative_3x3_table():
    # contains the non-associative triple (1, 2, 2)
    with pytest.raises(GroupError):
        build_group({"table": [[0, 1, 2], [1, 2, 0], [2, 0, 0]]})


def test_associativity_check_catches_a_genuine_loop():
    for table in (NONASSOC_LOOP, SWAPPED_C70):
        assert is_loop(table)
        assert not check_verdict(table)
    with pytest.raises(GroupError, match="non-associative"):
        build_group({"table": NONASSOC_LOOP})


@pytest.mark.parametrize("name", ALL_NAMES)
def test_associativity_check_matches_the_oracle_on_the_corpus(name):
    assert check_verdict(corpus.group(name).table)


def test_associativity_check_matches_the_oracle_on_swapped_intercalates():
    # every table one intercalate swap away from a corpus group of order
    # at most 16 that is still a loop (4,332 tables): accepted exactly
    # when the oracle finds no non-associative triple, and a rejection
    # names one
    verdicts = []
    for _, G in corpus.classes_upto(16):
        t = G.table
        n = G.order
        for a, c in itertools.combinations(range(n), 2):
            for b in range(n):
                d = t[c].index(t[a][b])
                if b < d and t[a][d] == t[c][b]:
                    table = swapped_intercalate(t, a, c, b, d)
                    if is_loop(table):
                        verdicts.append(check_verdict(table))
    assert set(verdicts) == {True, False}


def test_associativity_check_matches_the_oracle_at_order_64():
    # D4 x D4 at the order cap, and the loop one intercalate swap away
    # from it at rows 1/3 and columns 1/3
    table = direct_product(dihedral(4), dihedral(4)).table
    swapped = swapped_intercalate(table, 1, 3, 1, 3)
    assert is_loop(swapped)
    assert check_verdict(table)
    assert not check_verdict(swapped)


def test_build_group_rejects_malformed_permutations():
    with pytest.raises(GroupError):
        build_group({"permutations": [[0, 1, 1]]})
    with pytest.raises(GroupError):
        build_group({"permutations": []})
    with pytest.raises(GroupError):
        build_group({"permutations": [[1, 0], [0, 1, 2]]})
    with pytest.raises(GroupError):
        build_group({"permutations": [list(range(17))]})
    with pytest.raises(GroupError):
        build_group({})
    with pytest.raises(GroupError):
        build_group({"table": [[0]], "permutations": [[0]]})


def oracle_permutation_group(perms):
    """(table, labels, inverses) of the group the permutations generate,
    by composition: the breadth-first closure, then every pair of
    elements composed and looked up, and each element's inverse
    permutation looked up."""
    d = len(perms[0])
    ident = tuple(range(d))
    elems = [ident]
    index = {ident: 0}
    for p in elems:
        for g in perms:
            q = tuple(p[g[i]] for i in range(d))
            if q not in index:
                index[q] = len(elems)
                elems.append(q)
    table = tuple(tuple(index[tuple(p[q[i]] for i in range(d))] for q in elems) for p in elems)
    inverses = tuple(index[tuple(sorted(range(d), key=p.__getitem__))] for p in elems)
    return table, tuple(map(str, elems)), inverses


# every permutation fixture, every corpus group built from permutations,
# the symmetric groups and D4^3
PERMUTATION_CASES = [
    "s3.json",
    "s3_bad_normal.json",
    "A4",
    "A5",
    "SL23",
    "symmetric(1)",
    "symmetric(2)",
    "symmetric(3)",
    "symmetric(4)",
    "symmetric(5)",
    "D4^3",
]


def permutation_spec(case, monkeypatch):
    """The permutation spec of a case: read from the fixture, or recorded
    from the builder's call to build_group."""
    if case.endswith(".json"):
        return json.loads((FIXTURES / case).read_text())["group"]
    if case == "D4^3":
        return {"permutations": d4_power_generators(3)}
    if case == "symmetric(1)":  # symmetric(1) is cyclic(1), built from its table
        return {"permutations": [[0]]}
    specs = []
    with monkeypatch.context() as m:
        m.setattr(corpus, "build_group", specs.append)
        m.setattr(groups, "build_group", specs.append)
        if case.startswith("symmetric"):
            symmetric(int(case[-2]))
        else:
            dict(corpus.BUILDERS, A5=corpus.alternating5)[case]()
    (spec,) = specs
    return spec


@pytest.mark.parametrize("case", PERMUTATION_CASES)
def test_build_group_matches_the_composition_oracle(case, monkeypatch):
    spec = permutation_spec(case, monkeypatch)
    G = build_group(spec)
    assert (G.table, G.labels, G._inverse) == oracle_permutation_group(spec["permutations"])


@pytest.mark.parametrize("case", PERMUTATION_CASES)
def test_permutation_groups_pass_the_full_checks(case, monkeypatch):
    # build_group reads the table off the Cayley graph and takes it
    # without the table checks (FiniteGroup._derived); the tests' oracle
    # accepts it, and up to TABLE_ORDER_CAP so does the checking
    # constructor, which agrees.  D4^3, of order 512, is past the cap
    G = build_group(permutation_spec(case, monkeypatch))
    assert_passes_the_oracle(G)
    if G.order <= TABLE_ORDER_CAP:
        full = FiniteGroup([list(row) for row in G.table], labels=G.labels)
        assert (full.table, full.labels, full._inverse) == (G.table, G.labels, G._inverse)


def test_build_group_never_checks_a_permutation_table(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a permutation table reached the checking constructor")

    monkeypatch.setattr(FiniteGroup, "__init__", refuse)
    for case, order in [("s3.json", 6), ("A5", 60), ("D4^3", 512)]:
        assert build_group(permutation_spec(case, monkeypatch)).order == order
    # a table spec still takes the checks
    with pytest.raises(AssertionError, match="checking constructor"):
        build_group({"table": [[0]]})


def test_stock_groups_are_derived_and_pass_the_oracle(monkeypatch):
    # cyclic, dihedral, dicyclic, direct_product and semidirect_product
    # build their tables as groups' and take them without the table checks
    # (FiniteGroup._derived), at every order; the tests' oracle accepts
    # each table with the inverses it carries
    def refuse(self, *args, **kwargs):
        raise AssertionError("a stock table reached the checking constructor")

    monkeypatch.setattr(FiniteGroup, "__init__", refuse)
    makers = dict(corpus.BUILDERS, **LARGE_GROUPS)
    makers["C2^9"] = lambda: direct_product(*[cyclic(2)] * 9)
    orders = {}
    for name, make in makers.items():
        G = make()
        assert_passes_the_oracle(G)
        orders[name] = G.order
    assert orders["C257"] == 257 and orders["C2^9"] == 512
    with pytest.raises(AssertionError, match="checking constructor"):
        FiniteGroup([[0]])


def test_build_group_respects_closure_cap():
    # S7 on 7 points has 5,040 elements, past PERM_CLOSURE_CAP
    swap = [1, 0, 2, 3, 4, 5, 6]
    seven_cycle = [1, 2, 3, 4, 5, 6, 0]
    with pytest.raises(CapExceeded, match="4096"):
        build_group({"permutations": [swap, seven_cycle]})


def test_build_group_drops_duplicate_generators():
    # an exact duplicate adds no tree edge, so the table, labels and
    # inverses are those the composition oracle builds from every entry
    gens = d4_power_generators(3)
    repeated = gens * 3 + gens[:2]
    G = build_group({"permutations": repeated})
    H = build_group({"permutations": gens})
    assert (G.table, G.labels, G._inverse) == (H.table, H.labels, H._inverse)
    assert (G.table, G.labels, G._inverse) == oracle_permutation_group(repeated)


def test_build_group_holds_the_closure_to_the_products_cap(monkeypatch):
    # D4^3: 6 distinct generators times 512 elements is 3,072 products,
    # however often each generator is listed
    spec = {"permutations": d4_power_generators(3) * 2}
    monkeypatch.setattr(groups, "PERM_PRODUCTS_CAP", 3072)
    assert build_group(spec).order == 512
    monkeypatch.setattr(groups, "PERM_PRODUCTS_CAP", 3071)
    with pytest.raises(CapExceeded) as exc:
        build_group(spec)
    assert str(exc.value) == "permutation closure of 6 generators exceeds the cap of 3071 products"


def test_identity_must_be_index_zero():
    # C2 written with the identity at index 1
    with pytest.raises(GroupError):
        FiniteGroup([[1, 0], [0, 1]])


def test_table_rows_must_be_permutations():
    with pytest.raises(GroupError):
        FiniteGroup([[0, 1], [1, 1]])


def test_associativity_check_accepts_large_cyclic_group():
    assert cyclic(70).order == 70


def assert_capped(table):
    """FiniteGroup refuses the table at the order cap, before any check."""
    with pytest.raises(CapExceeded) as info:
        FiniteGroup(table)
    assert str(info.value) == "multiplication tables capped at order 256 (got %d)" % len(table)


@pytest.mark.parametrize("n", [256, 258])
def test_associativity_check_catches_a_loop_at_and_above_order_256(n):
    # cyclic(n) with the intercalate at rows 3 and 3 + n/2 and columns 5
    # and 5 + n/2 swapped: a loop at the largest order a table may have,
    # and one past it, which the cap refuses
    h = n // 2
    table = swapped_intercalate(
        [[(a + b) % n for b in range(n)] for a in range(n)], 3, 3 + h, 5, 5 + h
    )
    assert is_loop(table)
    if n <= TABLE_ORDER_CAP:
        assert not check_verdict(table)
    else:
        assert_capped(table)


def test_no_valid_table_runs_the_per_entry_scan(monkeypatch):
    # a check that sent every table to the per-entry scan would pass the
    # other tests, only slower, as the scan names each entry fault.  So
    # valid tables of every corpus group, D4 x D4 and orders 255 and 256
    # must pass the C-speed entry test; a table of int subclasses, which
    # bytes() takes but the type count refuses, is scanned and accepted
    tables = [corpus.group(name).table for name in ALL_NAMES]
    tables.append(direct_product(dihedral(4), dihedral(4)).table)
    tables += [cyclic(n).table for n in (255, 256)]
    scanned = []
    scan = groups._scan_entries

    def counted(rows, n):
        scanned.append(n)
        scan(rows, n)

    monkeypatch.setattr(groups, "_scan_entries", counted)
    for table in tables:
        assert FiniteGroup([list(row) for row in table]).table == tuple(map(tuple, table))
    assert scanned == []
    assert FiniteGroup([[Index(v) for v in row] for row in cyclic(4).table]).order == 4
    assert scanned == [4]


# -- subgroups -----------------------------------------------------------


def test_generated_subgroup_of_square_in_z4():
    H = Subgroup(cyclic(4), [2])
    assert H.elements == (0, 2)
    assert H.index == 2


def test_generated_subgroup_of_transposition_in_s3():
    G = symmetric(3)
    transpositions = [x for x in range(6) if G.element_order(x) == 2]
    H = Subgroup(G, [transpositions[0]])
    assert H.order == 2


def test_generated_subgroup_empty_generators():
    G = corpus.group("D4")
    assert Subgroup(G, []).elements == (0,)


def test_generated_subgroup_rejects_out_of_range():
    with pytest.raises(GroupError):
        Subgroup(cyclic(4), [4])


@pytest.mark.parametrize(
    "call,message",
    [
        (
            lambda: GroupHom(cyclic(4), cyclic(2), [0, True, 0, True]),
            "image True is not a target element index",
        ),
        (lambda: make_setup(cyclic(4), [2], [True]), "sigma_prime entry True is out of range"),
        (lambda: Subgroup(cyclic(4), [True]), "generator True is out of range"),
        (
            lambda: hom_from_images(cyclic(4), cyclic(2), [1], [True]),
            "image True is not a target element index",
        ),
        (
            lambda: hom_from_images(cyclic(4), cyclic(2), [True], [1]),
            "generator True is out of range",
        ),
        (
            lambda: measure_event(mu_infinity(setups.get("Klein-first")[2]), [True]),
            "event entries must be members or member indices",
        ),
    ],
    ids=[
        "GroupHom",
        "make_setup",
        "Subgroup",
        "hom_from_images-image",
        "hom_from_images-generator",
        "measure_event",
    ],
)
def test_element_indices_refuse_bools(call, message):
    # True is an int equal to 1, but no element index, as in FiniteGroup
    with pytest.raises(GroupError) as exc:
        call()
    assert str(exc.value) == message


def test_all_subgroups_of_z4():
    subs = all_subgroups(cyclic(4))
    assert [H.order for H in subs] == [1, 2, 4]


def test_all_subgroups_of_klein_four():
    subs = all_subgroups(corpus.group("C2xC2"))
    assert len(subs) == 5
    assert [H.order for H in subs] == [1, 2, 2, 2, 4]


def test_all_subgroups_of_trivial_group():
    assert len(all_subgroups(cyclic(1))) == 1


def test_all_subgroups_canonical_order():
    subs = all_subgroups(corpus.group("D4"))
    keys = [(H.order, H.elements) for H in subs]
    assert keys == sorted(keys)
    assert len(subs) == 10
    assert len(set(H.elements for H in subs)) == 10


def test_all_subgroups_respects_order_cap():
    with pytest.raises(CapExceeded):
        all_subgroups(cyclic(70))


@pytest.mark.parametrize("name", ["C12", "D4", "A4", "Q8", "C2xC2xC2"])
def test_subgroups_closed_under_intersection_and_conjugation(name):
    G = corpus.group(name)
    subs = all_subgroups(G)
    masks = {H.mask for H in subs}
    for H in subs:
        for K in subs:
            assert (H.mask & K.mask) in masks
        for g in range(G.order):
            assert sum(1 << G.conj(g, x) for x in H.elements) in masks


@settings(deadline=None)
@given(st.data())
def test_generated_subgroup_is_closed(data):
    name = data.draw(st.sampled_from(SMALL_NAMES))
    G = corpus.group(name)
    gens = data.draw(st.lists(st.integers(0, G.order - 1), max_size=3))
    H = Subgroup(G, gens)
    assert 0 in H
    for x in H:
        assert G.inv(x) in H
        for y in H:
            assert G.mul(x, y) in H
    assert G.closure_mask(gens) == sum(1 << x for x in naive_closure(G, gens))


def naive_closure(G, gens):
    """Elements of <gens>: multiply all pairs until nothing new appears."""
    elems = {0, *gens}
    while True:
        grown = elems | {G.table[a][b] for a in elems for b in elems}
        if grown == elems:
            return elems
        elems = grown


def oracle_greedy_generators(G, candidates, target):
    """The candidates, in order, that each grow the naive closure of those
    kept before them, up to the first whose closure has the mask target."""
    gens = []
    closure = {0}
    for x in candidates:
        if x in closure:
            continue
        gens.append(x)
        closure = naive_closure(G, gens)
        if sum(1 << y for y in closure) == target:
            break
    return tuple(gens)


def naive_element_order(G, x):
    k, y = 1, x
    while y != 0:
        k, y = k + 1, G.table[y][x]
    return k


@pytest.mark.parametrize("name", ALL_NAMES)
def test_greedy_generators_match_the_naive_loop(name):
    # generator_sequence takes the elements by descending order, then
    # index; canonical_generators takes a subgroup's elements by index
    G = corpus.group(name)
    by_pref = sorted(range(G.order), key=lambda a: (-naive_element_order(G, a), a))
    assert G.generator_sequence() == oracle_greedy_generators(G, by_pref, (1 << G.order) - 1)
    for H in all_subgroups(G):
        assert H.canonical_generators() == oracle_greedy_generators(G, H.elements, H.mask)


@pytest.mark.parametrize("name", sorted(name for name, G in corpus.classes_upto(12)))
def test_all_subgroups_match_closed_subsets(name):
    # brute force over subsets, with no closure code: in a finite group a
    # subset that holds the identity and is closed under the table is a
    # subgroup
    G = corpus.group(name)
    t = G.table
    closed = set()
    for rest in range(1 << (G.order - 1)):
        mask = rest << 1 | 1
        elems = [x for x in range(G.order) if mask >> x & 1]
        if all(mask >> t[a][b] & 1 for a in elems for b in elems):
            closed.add(mask)
    assert {H.mask for H in all_subgroups(G)} == closed


def oracle_subgroups_within(G, extend):
    """The masks of every subgroup reached from the trivial one by
    extending every known subgroup by every element of extend outside it."""
    built = {1}
    work = [1]
    while work:
        mask = work.pop()
        for x in extend:
            if mask >> x & 1:
                continue
            bigger = G.extend_mask(mask, x)
            if bigger not in built:
                built.add(bigger)
                work.append(bigger)
    return built


@pytest.mark.parametrize("name", ALL_NAMES)
def test_coset_enumeration_matches_the_per_element_oracle(name):
    # the same subgroups as extending by every element, each yielded once
    G = corpus.group(name)
    fast = list(groups._subgroups_within(G, [(1, 0)], (1 << G.order) - 1))
    assert len(set(fast)) == len(fast)
    assert set(fast) == oracle_subgroups_within(G, range(G.order))


def test_coset_enumeration_matches_the_oracle_on_every_corpus_lattice():
    # the oracle extends the trivial subgroup by every element of the base
    # and keeps what maps onto the quotient; each member comes once
    for tag, setup, K, _ in setups.corpus_lattices():
        G = setup.group
        fast = groups.subgroup_masks_within(G, K.mask, setup.n_sub.mask, setup.sigma_prime)
        oracle = oracle_subgroups_within(G, G.elems_of_mask(K.mask))
        assert len(set(fast)) == len(fast), tag
        assert set(fast) == {m for m in oracle if setup.qualifies(m)}, tag


def test_coset_enumeration_extends_once_per_coset(monkeypatch):
    # C2^4 has 67 subgroups and C2^6 has 2,825; the tree closes each
    # subgroup but {0} once, where one closure per left coset outside
    # each known subgroup took 240 and 23,562
    calls = []
    extend_mask = FiniteGroup.extend_mask

    def counted(self, mask, x):
        calls.append((mask, x))
        return extend_mask(self, mask, x)

    monkeypatch.setattr(FiniteGroup, "extend_mask", counted)
    for factors, subgroups, closures in [(4, 67, 66), (6, 2825, 2824)]:
        G = direct_product(*[cyclic(2)] * factors)
        calls.clear()
        built = list(groups._subgroups_within(G, [(1, 0)], (1 << G.order) - 1))
        assert len(built) == len(set(built)) == subgroups
        assert len(calls) == closures


def test_subgroup_masks_within_orders_like_all_subgroups():
    G = corpus.group("S4")
    whole = (1 << G.order) - 1
    got = groups.subgroup_masks_within(G, whole, whole, ())
    assert got == [H.mask for H in all_subgroups(G)]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_subgroups_built_from_masks_match_their_closures(name):
    # all_subgroups, the Frattini meet and the kernel of each quotient map
    # are built from masks proved closed, without a closure; each equals
    # the subgroup its elements generate, in mask and elements
    G = corpus.group(name)
    built = list(all_subgroups(G)) + [frattini_subgroup(G).frattini_subgroup]
    built += [quotient(G, N)[1].kernel() for N in normal_subgroups(G)]
    for H in built:
        direct = Subgroup(G, H.elements)
        assert H.mask == direct.mask and H.elements == direct.elements


@pytest.mark.parametrize("name", ALL_NAMES)
def test_image_subgroups_match_their_closures(name):
    # a homomorphism's image of a subgroup is one, so it is built from
    # its image_mask; on every projection of a corpus group it equals the
    # subgroup the image elements generate
    G = corpus.group(name)
    for N in normal_subgroups(G):
        Q, pi = quotient(G, N)
        whole = Subgroup._of_mask(Q, pi.image_mask((1 << G.order) - 1))
        direct = Subgroup(Q, set(pi.image_of))
        assert (whole.mask, whole.elements) == (direct.mask, direct.elements)
        for H in all_subgroups(G):
            image = Subgroup._of_mask(Q, pi.image_mask(H.mask))
            direct = Subgroup(Q, {pi(x) for x in H.elements})
            assert (image.mask, image.elements) == (direct.mask, direct.elements)


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_conjugate_by_matches_the_conjugated_elements(name):
    # G.conj(g, x) is g x g^-1, and conjugating a subgroup by g gives one
    G = corpus.group(name)
    for H in all_subgroups(G):
        for g in range(G.order):
            conj = {G.mul(G.mul(g, x), G.inv(g)) for x in H.elements}
            got = Subgroup._of_mask(G, sum(1 << G.conj(g, x) for x in H.elements))
            assert set(got.elements) == conj
            assert got == Subgroup(G, conj)


# -- table and image validation ------------------------------------------


class Index(int):
    """An int subclass, which the table and image checks accept."""


def oracle_table_error(table):
    """The first message of the per-entry checks, up to the inverse check,
    or None when the table passes them."""
    n = len(table)
    rows = [tuple(row) for row in table]
    for row in rows:
        if len(row) != n:
            return "multiplication table is not square"
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                return "table entry %r is not an element index" % (v,)
    if rows[0] != tuple(range(n)):
        return "element 0 is not a left identity"
    for a in range(n):
        if rows[a][0] != a:
            return "element 0 is not a right identity"
    full = frozenset(range(n))
    for a in range(n):
        if frozenset(rows[a]) != full:
            return "row %d is not a permutation; not a group table" % a
        if frozenset(rows[b][a] for b in range(n)) != full:
            return "column %d is not a permutation; not a group table" % a
    for a in range(n):
        b = rows[a].index(0)
        if rows[b][a] != 0:
            return "element %d has no two-sided inverse" % a
    return None


def oracle_group_error(table):
    """The ordered scans' first message, or None for a group table:
    oracle_table_error's, then Light's test in its right form, row x*a
    against row x composed with row a for each a of a generating
    sequence, naming the first triple (x, a, y) that fails.

    The a that pass are closed under the product, and the sequence is
    grown greedily, each a the least element not yet reached from 0 by
    right multiplication by the earlier ones, so every element passes.
    """
    error = oracle_table_error(table)
    if error is not None:
        return error
    t = [tuple(row) for row in table]
    reached = [0]
    seen = {0}
    gens = []
    for a in range(len(t)):
        if a in seen:
            continue
        ta = t[a]
        for x, tx in enumerate(t):
            row = t[tx[a]]
            if row != tuple(map(tx.__getitem__, ta)):
                y = next(y for y, v in enumerate(row) if v != tx[ta[y]])
                return "non-associative triple (%d, %d, %d)" % (x, a, y)
        gens.append(a)
        for x in reached:
            for g in gens:
                if t[x][g] not in seen:
                    seen.add(t[x][g])
                    reached.append(t[x][g])
    return None


def assert_passes_the_oracle(G):
    """G's table passes the ordered scans, its labels are one per element
    and distinct, and each inverse it carries is two-sided."""
    t = G.table
    assert oracle_group_error(t) is None
    if G.labels is not None:
        assert len(G.labels) == len(set(G.labels)) == G.order
    assert all(t[a][b] == 0 == t[b][a] for a, b in enumerate(G._inverse))


def corrupted_tables(G):
    """G's table with one fault of each kind the entry and row checks name."""
    n = G.order
    base = [list(row) for row in G.table]

    def put(r, c, v):
        t = [list(row) for row in base]
        t[r][c] = v
        return t

    yield base
    yield [[Index(v) for v in row] for row in base]
    yield put(n - 1, n - 1, Index(n))
    yield put(1, n - 1, True)
    yield put(1, 1, False)
    yield put(n - 1, 1, float(base[n - 1][1]))
    yield put(n - 1, n - 1, -1)
    yield put(n - 1, n - 1, n)
    yield put(n - 1, 1, "1")
    yield put(1, 1, None)
    yield base[:-1] + [base[-1][:-1]]
    yield base[:1] + [base[1] + [0]] + base[2:]
    # a repeated entry in row 1, and so in one column too
    yield put(1, n - 1, base[1][n - 2])
    # two entries of the last row swapped: every row stays a permutation
    t = [list(row) for row in base]
    t[-1][1], t[-1][2] = t[-1][2], t[-1][1]
    yield t
    # two entries of the last column swapped: every column stays a permutation
    t = [list(row) for row in base]
    t[1][-1], t[2][-1] = t[2][-1], t[1][-1]
    yield t
    # columns 1 and 2 swapped, then rows 1 and 2: a Latin square in which 0
    # is a right identity only, then a left identity only
    yield [[row[0], row[2], row[1]] + row[3:] for row in base]
    yield [base[0], base[2], base[1]] + base[3:]
    # a bad entry after a short row, and a short row after a bad entry
    yield [base[0], base[1][:-1]] + [row[:-1] + [-1] for row in base[2:]]
    yield [base[0], base[1][:-1] + [-1]] + [row[:-1] for row in base[2:]]


# a loop of order 5 in which 2 * 3 = 0 but 3 * 2 = 1
ONE_SIDED_LOOP = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]]


@pytest.mark.parametrize("k", [1, 51, 52])
def test_one_sided_inverses_are_named_on_either_side_of_the_byte_route(k):
    # the loop times C_k, of order 5, 255 (the inverses read off the row
    # bytes) and 260, past the order cap
    t = ONE_SIDED_LOOP
    table = [
        [t[a][b] * k + (i + j) % k for b in range(5) for j in range(k)]
        for a in range(5)
        for i in range(k)
    ]
    if len(table) > TABLE_ORDER_CAP:
        assert_capped(table)
        return
    with pytest.raises(GroupError) as info:
        FiniteGroup(table)
    assert str(info.value) == "element %d has no two-sided inverse" % (2 * k)
    assert str(info.value) == oracle_table_error(table)


@pytest.mark.parametrize("name", ["C2xC2", "C4", "S3", "D4", "C6xC2xC2", "D4xD4"])
def test_a_bool_in_a_valid_table_takes_the_ordered_checks(name):
    # bytes() takes True as 1 and False as 0, so a table with one of them
    # in place of a 1 or a 0 passes every byte check but the type count
    # of the entries, and the per-entry scan names it
    G = large_or_corpus_group(name)
    n = G.order
    for value, entry in [(1, True), (0, False)]:
        for r in (1, n // 2, n - 1):
            table = [list(row) for row in G.table]
            table[r][table[r].index(value)] = entry
            with pytest.raises(GroupError) as info:
                FiniteGroup(table)
            assert str(info.value) == "table entry %r is not an element index" % entry
            assert str(info.value) == oracle_table_error(table)


class Indexable:
    """Not an int, but bytes() takes it as its __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return "Indexable(%d)" % self.value


class IntLike(Indexable):
    """Equal to its int and hashed like it, as numpy's integer scalars are."""

    def __eq__(self, other):
        return other == self.value

    def __hash__(self):
        return hash(self.value)


@pytest.mark.parametrize("kind", [Indexable, IntLike])
def test_an_int_like_entry_takes_the_ordered_checks_at_every_placement(kind):
    # bytes() reads any __index__, so such an entry valued 2 or more once
    # passed every byte check at orders 4 to 256: the table was then built
    # or died with TypeError in extend_mask, as the placement fell, while
    # orders 3 and 257 named the entry.  The type count sends it to the
    # per-entry scan
    base = cyclic(8).table
    for r in range(8):
        for c in range(8):
            table = [list(row) for row in base]
            table[r][c] = entry = kind(base[r][c])
            with pytest.raises(GroupError) as info:
                FiniteGroup(table)
            assert str(info.value) == "table entry %r is not an element index" % entry
            assert str(info.value) == oracle_table_error(table)


@pytest.mark.parametrize("n", [3, 256, 257])
def test_an_int_like_entry_is_named_on_either_side_of_the_byte_route(n):
    # named at order 3 and at the order cap; past it the cap refuses the
    # table first
    table = [list(row) for row in cyclic(n).table]
    table[n - 1][n - 1] = entry = IntLike(table[n - 1][n - 1])
    if n > TABLE_ORDER_CAP:
        assert_capped(table)
        return
    with pytest.raises(GroupError) as info:
        FiniteGroup(table)
    assert str(info.value) == "table entry %r is not an element index" % entry
    assert str(info.value) == oracle_table_error(table)


# groups past the corpus's largest order, 24, up to either side of the
# largest order a hand-written table may have, TABLE_ORDER_CAP = 256
LARGE_GROUPS = {
    "C2^5": lambda: direct_product(*[cyclic(2)] * 5),
    "D4xD4": lambda: direct_product(dihedral(4), dihedral(4)),
    "C256": lambda: cyclic(256),
    "C257": lambda: cyclic(257),
}


def large_or_corpus_group(name):
    return LARGE_GROUPS[name]() if name in LARGE_GROUPS else corpus.group(name)


@pytest.mark.parametrize(
    "name",
    ["C3", "C2xC2", "S3", "D4", "Q8", "A4", "C4xC2:C2", "C6xC2xC2", "SL23", *LARGE_GROUPS],
)
def test_table_checks_match_the_per_entry_oracle(name):
    G = large_or_corpus_group(name)
    for table in corrupted_tables(G):
        if len(table) > TABLE_ORDER_CAP:
            assert_capped(table)
            continue
        want = oracle_table_error(table)
        try:
            FiniteGroup(table)
        except GroupError as e:
            got = str(e)
            if want is None:
                assert got.startswith("non-associative triple")
            else:
                assert got == want
        else:
            assert want is None


def oracle_hom_defect(G, H, phi, gens, imgs):
    """The defect check as the per-pair loop, x outermost: (0, 0) when
    phi(0) != 0, else the first (x, g) with phi(x*g) != phi(x)*imgs[s]."""
    if phi[0] != 0:
        return (0, 0)
    tg, th = G.table, H.table
    for x, px in enumerate(phi):
        for g, i in zip(gens, imgs):
            if phi[tg[x][g]] != th[px][i]:
                return (x, g)
    return None


def oracle_hom_error(G, H, imgs):
    """The first message of the per-entry image check, then the defect check."""
    imgs = tuple(imgs)
    if len(imgs) != G.order:
        return "image table length does not match source order"
    for v in imgs:
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < H.order:
            return "image %r is not a target element index" % (v,)
    gens = G.generator_sequence()
    bad = oracle_hom_defect(G, H, imgs, gens, [imgs[g] for g in gens])
    if bad is not None:
        return "not a homomorphism: images of %d*%d disagree" % bad
    return None


def test_image_checks_match_the_per_entry_oracle():
    G, H = corpus.group("C4xC2"), cyclic(2)
    good = [x % 2 for x in range(8)]
    assert GroupHom(G, H, good).image_of == tuple(good)

    def put(i, v):
        out = list(good)
        out[i] = v
        return out

    cases = [
        good,
        [Index(v) for v in good],
        put(1, True),
        put(1, False),
        put(0, False),
        put(3, 1.0),
        put(3, -1),
        put(3, 2),
        put(3, Index(2)),
        put(3, "1"),
        put(3, None),
        good[:-1],
        good + [0],
        put(2, 1),
        put(2, -1) + [0],
    ]
    for imgs in cases:
        want = oracle_hom_error(G, H, imgs)
        try:
            GroupHom(G, H, imgs)
        except GroupError as e:
            assert str(e) == want
        else:
            assert want is None
        if want is None or want.startswith("not a homomorphism"):
            gens = G.generator_sequence()
            got = groups._hom_defect(G, H, imgs, gens, [imgs[g] for g in gens])
            assert got == oracle_hom_defect(G, H, imgs, gens, [imgs[g] for g in gens])


# -- quotients -----------------------------------------------------------


def test_quotient_z4_by_square():
    G = cyclic(4)
    Q, pi = quotient(G, Subgroup(G, [2]))
    assert Q.order == 2
    assert pi(1) == 1
    assert pi(2) == 0
    assert pi.is_surjective


def test_quotient_s3_by_a3():
    G = symmetric(3)
    a3 = [x for x in range(6) if G.element_order(x) in (1, 3)]
    Q, pi = quotient(G, Subgroup(G, a3))
    assert Q.order == 2


def test_quotient_by_whole_group_is_trivial():
    G = corpus.group("D4")
    Q, _ = quotient(G, Subgroup(G, range(G.order)))
    assert Q.order == 1


def test_quotient_rejects_non_normal_subgroup():
    G = symmetric(3)
    t = next(x for x in range(6) if G.element_order(x) == 2)
    with pytest.raises(GroupError, match="normal"):
        quotient(G, Subgroup(G, [t]))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_quotient_matches_the_checking_constructors(name):
    # quotient builds G/N and the projection without the table and hom
    # checks (FiniteGroup._derived, GroupHom._onto); the checking
    # constructors accept both and agree with them
    G = corpus.group(name)
    for N in normal_subgroups(G):
        Q, pi = quotient(G, N)
        full = FiniteGroup(Q.table, labels=Q.labels)
        assert (Q.order, Q.table, Q.labels) == (full.order, full.table, full.labels)
        assert Q._inverse == full._inverse
        checked = GroupHom(G, Q, pi.image_of)
        assert pi.is_surjective and checked.is_surjective
        assert pi.image_of == checked.image_of
        assert pi.kernel() == N


def oracle_is_normal(H):
    """Every conjugate of every element of H lies in H."""
    G = H.group
    return all(G.conj(g, x) in H for g in range(G.order) for x in H.elements)


@pytest.mark.parametrize("name", ALL_NAMES + ["C2^5"])
def test_normal_subgroups_match_the_is_normal_filter(name):
    # abelian groups skip the filter: each of their subgroups is normal
    G = large_or_corpus_group(name)
    assert normal_subgroups(G) == tuple(H for H in all_subgroups(G) if H.is_normal())


def fresh_group(name):
    """A new group on the table of the named one, with empty caches:
    corpus groups are memoized, so their lists may already be cached."""
    return FiniteGroup(large_or_corpus_group(name).table)


def element_lists(subgroups):
    return [H.elements for H in subgroups]


def corresponding(members, kernel, image_of):
    """The element tuples of the images of the members that contain the
    kernel mask, ordered like all_subgroups.  By the correspondence
    theorem these are the subgroups of the image, or its normal
    subgroups when the members are the normal ones, each once."""
    images = {
        tuple(sorted({image_of[x] for x in H.elements}))
        for H in members
        if H.mask & kernel == kernel
    }
    return sorted(images, key=lambda elements: (len(elements), elements))


def quotient_tower(G):
    """Per normal N of G, (G/N, pi, N) and (Q2, rho o pi, its kernel): G/N
    with its projection, then a quotient Q2 of G/N, by its least
    nontrivial normal subgroup M, with the composite G ->> Q2."""
    for N in normal_subgroups(G):
        Q, pi = quotient(G, N)
        normals = normal_subgroups(Q)
        M = normals[min(1, len(normals) - 1)]
        Q2, rho = quotient(Q, M)
        yield Q, pi.image_of, N.mask
        yield Q2, tuple(rho.image_of[q] for q in pi.image_of), pi.preimage_mask(M.mask)


@pytest.mark.parametrize("name", ALL_NAMES + ["C2^5"])
def test_quotient_subgroups_read_off_the_parent_match_enumeration(name):
    # each G/N and a quotient of it search their own subgroups, with G's
    # cached, and list the images of G's subgroups above the kernel, in order
    G = fresh_group(name)
    subs = all_subgroups(G)
    for Q, image_of, kernel in quotient_tower(G):
        searched = all_subgroups(Q)
        assert all(H.group is Q for H in searched)
        assert element_lists(searched) == corresponding(subs, kernel, image_of)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_quotient_normal_subgroups_read_off_the_parent_normals(name):
    # each G/N and a quotient of it find their own normal subgroups, with
    # G's cached, by class joins or the abelian search, and list the
    # images of G's normal subgroups above the kernel, in order
    G = fresh_group(name)
    normals = normal_subgroups(G)
    for Q, image_of, kernel in quotient_tower(G):
        found = normal_subgroups(Q)
        assert all(H.group is Q for H in found)
        assert element_lists(found) == corresponding(normals, kernel, image_of)


@pytest.mark.parametrize(
    "name", [name for name in ALL_NAMES if not corpus.group(name).is_abelian()]
)
def test_normal_subgroups_from_classes_match_the_is_normal_filter(name, monkeypatch):
    # on a fresh group nothing is cached, so normal_subgroups joins the
    # normal closures of the conjugacy classes, without enumerating
    G = fresh_group(name)
    calls = count_enumerations(monkeypatch)
    normals = normal_subgroups(G)
    assert (calls, G._subgroups) == ([], None)
    assert normals == tuple(H for H in all_subgroups(G) if H.is_normal())


def test_normal_subgroups_above_the_order_cap_raise_cached_or_not():
    G = FiniteGroup([[a ^ b for b in range(128)] for a in range(128)])
    Q, _ = quotient(G, Subgroup(G, ()))
    for H in (G, Q):
        with pytest.raises(CapExceeded, match="order 64"):
            normal_subgroups(H)
        H._subgroups = H._normals = (Subgroup(H, ()),)
        with pytest.raises(CapExceeded, match="order 64"):
            normal_subgroups(H)
        with pytest.raises(CapExceeded, match="order 64"):
            all_subgroups(H)


@pytest.mark.parametrize("name", sorted(name for name, G in corpus.classes_upto(24)))
def test_normality_on_generators_matches_conjugation_oracle(name):
    G = corpus.group(name)
    for H in all_subgroups(G):
        assert H.is_normal() == oracle_is_normal(H)


@pytest.mark.parametrize("name", ["C12", "D4", "S4"])
def test_projection_after_section_is_identity(name):
    G = corpus.group(name)
    for N in all_subgroups(G):
        if not N.is_normal():
            continue
        Q, pi = quotient(G, N)
        first: dict[int, int] = {}
        last: dict[int, int] = {}
        for g in range(G.order):
            first.setdefault(pi(g), g)
            last[pi(g)] = g
        for q in range(Q.order):
            assert pi(first[q]) == q
            assert pi(last[q]) == q


@pytest.mark.parametrize("name", ALL_NAMES)
def test_cosets_match_the_least_element_oracle(name):
    # every subgroup, normal or not: cosets names the left cosets gN
    G = corpus.group(name)
    t = G.table
    for N in all_subgroups(G):
        least = tuple(min(t[g][x] for x in N.elements) for g in range(G.order))
        reps = tuple(g for g in range(G.order) if least[g] == g)
        assert cosets(G, N.mask) == (least, reps), N.elements


def oracle_preimage(phi, mask):
    """The union of the fibres of the target elements in the mask."""
    out = 0
    for y in range(phi.target.order):
        if mask >> y & 1:
            out |= sum(1 << x for x in range(phi.source.order) if phi(x) == y)
    return out


@pytest.mark.parametrize("name", ALL_NAMES)
def test_preimage_mask_matches_a_brute_force_scan(name):
    G = corpus.group(name)
    for N in normal_subgroups(G):
        Q, pi = quotient(G, N)
        assert pi.preimage_mask(1) == N.mask
        for mask in [0, (1 << Q.order) - 1] + [M.mask for M in all_subgroups(Q)]:
            assert pi.preimage_mask(mask) == oracle_preimage(pi, mask)


def test_preimage_mask_of_a_map_that_is_not_onto():
    phi = hom_from_images(cyclic(2), cyclic(4), [1], [2])
    assert not phi.is_surjective
    for mask in range(16):
        assert phi.preimage_mask(mask) == oracle_preimage(phi, mask)
    assert phi.preimage_mask(0b1010) == 0
    assert phi.preimage_mask(0b0100) == 0b10
    assert phi.kernel().elements == (0,)


def oracle_up_sets(masks):
    return [sum(1 << j for j, m in enumerate(masks) if n & m == n) for n in masks]


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_up_sets_match_the_pairwise_scan(name):
    G = corpus.group(name)
    for family in (all_subgroups(G), normal_family(G)):
        masks = [H.mask for H in family]
        assert up_sets(G, masks) == oracle_up_sets(masks)


def test_up_sets_of_no_masks_and_of_one():
    G = cyclic(4)
    assert up_sets(G, []) == []
    assert up_sets(G, [0b101]) == [1]
    assert up_sets(G, [0, 0b1]) == oracle_up_sets([0, 0b1]) == [0b11, 0b10]


# -- homomorphisms -------------------------------------------------------


def test_hom_verification_rejects_non_homomorphism():
    with pytest.raises(GroupError, match="homomorphism"):
        GroupHom(cyclic(4), cyclic(2), (0, 1, 1, 0))
    # the trivial group has no generators; its identity must still map to 0
    with pytest.raises(GroupError, match="homomorphism"):
        GroupHom(cyclic(1), cyclic(2), (1,))


def test_hom_from_images_rejects_what_no_hom_extends():
    assert hom_from_images(cyclic(4), cyclic(2), [1], [1]).image_of == (0, 1, 0, 1)
    # an element of order 4 cannot go to one of order 3
    assert hom_from_images(cyclic(4), cyclic(3), [1], [1]) is None
    # a repeated generator given two images: the table follows the first
    assert hom_from_images(cyclic(4), cyclic(2), [1, 1], [1, 0]) is None
    # each transposition of S3 may go to C3's generator alone, not both
    S3 = symmetric(3)
    t = [x for x in range(6) if S3.element_order(x) == 2]
    assert hom_from_images(S3, cyclic(2), t[:2], [1, 1]) is not None
    assert hom_from_images(S3, cyclic(3), t[:2], [1, 2]) is None


def test_hom_from_images_refuses_what_is_no_element_index():
    # with Subgroup's and GroupHom's messages; a negative index, which a
    # table lookup would read as another element, is refused too
    C4, C2 = cyclic(4), cyclic(2)
    cases = [
        ([7], [1], "generator 7 is out of range"),
        ([-1], [1], "generator -1 is out of range"),
        ([1.0], [1], "generator 1.0 is out of range"),
        (["1"], [1], "generator '1' is out of range"),
        ([1], [5], "image 5 is not a target element index"),
        ([1], [-1], "image -1 is not a target element index"),
        ([1], [1.0], "image 1.0 is not a target element index"),
        ([1], [None], "image None is not a target element index"),
        # every generator is checked before any image
        ([1, 7], [5, 1], "generator 7 is out of range"),
    ]
    for gens, imgs, message in cases:
        with pytest.raises(GroupError) as e:
            hom_from_images(C4, C2, gens, imgs)
        assert str(e.value) == message
    assert hom_from_images(C4, C2, [Index(1)], [Index(1)]).image_of == (0, 1, 0, 1)


def test_hom_from_images_refuses_lists_of_unequal_length():
    # the table walk reads an image only where a spanning edge needs it,
    # so it would drop an extra image and might never miss a lost one
    C4, C2 = cyclic(4), cyclic(2)
    differ = "gens and imgs differ in length "
    cases = [
        ([1], [1, 0], differ + "(1 and 2)"),
        ([1, 3], [1], differ + "(2 and 1)"),
        ([1], [], differ + "(1 and 0)"),
        ((), (0,), differ + "(0 and 1)"),
    ]
    for gens, imgs, message in cases:
        with pytest.raises(GroupError) as e:
            hom_from_images(C4, C2, gens, imgs)
        assert str(e.value) == message
    assert hom_from_images(C4, C2, (1, 3), (1, 1)).image_of == (0, 1, 0, 1)


def test_epimorphism_search_checks_each_table_once(monkeypatch):
    # into C2 every candidate table of an elementary abelian group is a
    # homomorphism; the closing pairs of the search are its one check, so
    # no defect check runs and each table becomes one derived hom
    calls = []
    defect = groups._hom_defect

    def counted(*args):
        calls.append(args)
        return defect(*args)

    monkeypatch.setattr(groups, "_hom_defect", counted)
    checked, derived = count_hom_builds(monkeypatch)
    found = epimorphisms(corpus.group("C2xC2xC2"), cyclic(2))
    assert len(found) == 7
    assert calls == [] and checked == []
    assert derived == [(8, 2)] * 7


def test_epimorphism_search_builds_only_the_epimorphisms(monkeypatch):
    # a prefix of images that breaks a relation is cut before the leaf,
    # so one hom is derived per epimorphism returned, into every image,
    # and none is built by the checking constructor
    G = corpus.group("D4xC2")
    images = image_classes(G)
    checked, derived = count_hom_builds(monkeypatch)
    found = sum(len(epimorphisms(G, B)) for B in images)
    assert found > len(images)
    assert checked == []
    assert len(derived) == found


def oracle_is_hom(G, H, phi) -> bool:
    """Brute force over all pairs."""
    tg, th = G.table, H.table
    n = range(G.order)
    return all(phi[tg[a][b]] == th[phi[a]][phi[b]] for a in n for b in n)


def test_hom_check_matches_the_all_pairs_oracle():
    # every map G -> H between corpus groups of order at most 8 with
    # |H|^|G| <= 4,096; a rejection names a pair whose images disagree
    small = [G for _, G in corpus.classes_upto(8)]
    homs = 0
    for G, H in itertools.product(small, small):
        if H.order ** G.order > 4096:
            continue
        for phi in itertools.product(range(H.order), repeat=G.order):
            try:
                GroupHom(G, H, phi)
            except GroupError as e:
                got = re.fullmatch(r"not a homomorphism: images of (\d+)\*(\d+) disagree", str(e))
                assert got is not None, str(e)
                a, b = map(int, got.groups())
                assert phi[G.table[a][b]] != H.table[phi[a]][phi[b]]
            else:
                assert oracle_is_hom(G, H, phi)
                homs += 1
    assert homs > 0


def assert_defects_match(G, H, phi):
    """_hom_defect against the per-pair oracle on phi, and on phi with one
    entry moved, at 0, at the last element and at each generator."""
    gens = G.generator_sequence()
    variants = [tuple(phi)]
    if H.order > 1:
        for x in {0, G.order - 1, *gens}:
            moved = list(phi)
            moved[x] = (moved[x] + 1) % H.order
            variants.append(tuple(moved))
    for v in variants:
        imgs = [v[g] for g in gens]
        assert groups._hom_defect(G, H, v, gens, imgs) == oracle_hom_defect(G, H, v, gens, imgs)


# the groups whose epimorphisms the embedding tests list: order <= 16 but C2^4
EMBEDDING_NAMES = [name for name in SMALL_NAMES if name != "C2^4"]


@pytest.mark.parametrize("name", EMBEDDING_NAMES)
def test_hom_defect_matches_the_oracle_on_embedding_diagrams(name):
    # the alphas and gammas G ->> A and the betas B ->> A between images
    G = corpus.group(name)
    images = image_classes(G)
    for A in images:
        for phi in epimorphisms(G, A):
            assert_defects_match(G, A, phi.image_of)
        for B in images:
            if B.order % A.order == 0:
                for phi in epimorphisms(B, A):
                    assert_defects_match(B, A, phi.image_of)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_hom_defect_matches_the_oracle_on_quotient_projections(name):
    G = corpus.group(name)
    for N in normal_subgroups(G):
        Q, pi = quotient(G, N)
        assert_defects_match(G, Q, pi.image_of)


def test_hom_defect_at_orders_256_and_257():
    # one ordered loop at every order: a hom is accepted and a table with
    # two images swapped names the oracle's first pair, on both sides of
    # the largest order whose table fits in bytes
    for n in (256, 257):
        Cn = cyclic(n)
        assert GroupHom(Cn, Cn, range(n)).image_of == tuple(range(n))
        swapped = list(range(n))
        swapped[5], swapped[7] = 7, 5
        gens = Cn.generator_sequence()
        want = oracle_hom_defect(Cn, Cn, swapped, gens, [swapped[g] for g in gens])
        with pytest.raises(GroupError) as e:
            GroupHom(Cn, Cn, swapped)
        assert str(e.value) == "not a homomorphism: images of %d*%d disagree" % want
    C256, C257 = cyclic(256), cyclic(257)
    GroupHom(C256, cyclic(2), [x % 2 for x in range(256)])
    GroupHom(C257, cyclic(1), [0] * 257)
    GroupHom(cyclic(1), C257, [0])
    for G, H in [(C256, cyclic(2)), (C257, cyclic(1)), (cyclic(2), C257)]:
        assert_defects_match(G, H, [0] * G.order)


def test_every_corpus_epimorphism_passes_the_full_check():
    # the search takes its leaves without a check (GroupHom._onto), so
    # the full check runs on each here, into every image class
    built = 0
    for name in ALL_NAMES:
        G = corpus.group(name)
        for B in image_classes(G):
            for phi in epimorphisms(G, B):
                assert GroupHom(G, B, phi.image_of).is_surjective
                built += 1
        GroupHom(G, G, range(G.order))
    assert built > 20_000


def test_hom_surjectivity_is_recomputed():
    phi = GroupHom(cyclic(4), cyclic(2), (0, 1, 0, 1))
    assert phi.is_surjective
    psi = GroupHom(cyclic(2), cyclic(4), (0, 2))
    assert not psi.is_surjective


def test_kernel_and_image():
    phi = GroupHom(cyclic(4), cyclic(2), (0, 1, 0, 1))
    assert phi.kernel().elements == (0, 2)
    assert Subgroup._of_mask(phi.target, phi.image_mask(0b1111)).order == 2


def test_compose_homs():
    pi1 = GroupHom(cyclic(8), cyclic(4), tuple(x % 4 for x in range(8)))
    pi2 = GroupHom(cyclic(4), cyclic(2), tuple(x % 2 for x in range(4)))
    both = compose(pi2, pi1)
    assert both.image_of == tuple(x % 2 for x in range(8))


def test_epimorphisms_counts():
    assert len(epimorphisms(cyclic(4), cyclic(2))) == 1
    assert len(epimorphisms(symmetric(3), cyclic(2))) == 1
    assert len(epimorphisms(corpus.group("C2xC2"), cyclic(2))) == 3
    assert epimorphisms(cyclic(2), cyclic(4)) == []
    assert epimorphisms(cyclic(4), cyclic(3)) == []
    # automorphism groups of C6 and S3
    assert len(epimorphisms(cyclic(6), cyclic(6))) == 2
    assert len(epimorphisms(symmetric(3), symmetric(3))) == 6


def oracle_epimorphisms(G, H) -> list[tuple[int, ...]]:
    """Image tables of every onto homomorphism G -> H, by brute force.

    Every tuple of images of G.generator_sequence() in lexicographic
    order, extended along the words of a naive breadth-first search from
    the identity; kept when onto and when the all-pairs check passes.
    """
    gens = G.generator_sequence()
    word = {0: None}
    reached = [0]
    for x in reached:
        for s, g in enumerate(gens):
            y = G.table[x][g]
            if y not in word:
                word[y] = (x, s)
                reached.append(y)
    out = []
    for imgs in itertools.product(range(H.order), repeat=len(gens)):
        phi = [0] * G.order
        for y in reached[1:]:
            x, s = word[y]
            phi[y] = H.table[phi[x]][imgs[s]]
        if len(set(phi)) == H.order and oracle_is_hom(G, H, phi):
            out.append(tuple(phi))
    return out


@pytest.mark.parametrize("name", ALL_NAMES)
def test_epimorphisms_match_the_brute_force_oracle(name):
    # every corpus H whose order divides |G|, within 4,096 image tuples;
    # the tables must agree in order too, as the embedding witness
    # depends on it
    G = corpus.group(name)
    k = len(G.generator_sequence())
    for _, H in corpus.classes_upto(24):
        if G.order % H.order == 0 and H.order ** k <= 4096:
            assert [phi.image_of for phi in epimorphisms(G, H)] == oracle_epimorphisms(G, H)


# groups._epimorphism_search as it stood before it became one loop over a
# stack of candidate iterators: a recursive generator, one level per
# generator, pruning and closing pairs as now; kept as the slow oracle
def oracle_epimorphism_search(G, H):
    if G.order % H.order != 0:
        return
    index = G.order // H.order
    gens = G.generator_sequence()
    steps = groups._prefix_steps(G, gens)
    th = H.table
    phi = [0] * G.order
    chosen = []

    def dfs(slot, mask):
        if slot == len(gens):
            yield tuple(phi)
            return
        size, edges, closing = steps[slot]
        for h in range(H.order):
            grown = H.extend_mask(mask, h)
            image = bin(grown).count("1")
            if size % image != 0 or size // image > index:
                continue
            chosen.append(h)
            for x, s, y in edges:
                phi[y] = th[phi[x]][chosen[s]]
            if all(phi[y] == th[phi[x]][chosen[s]] for x, s, y in closing):
                yield from dfs(slot + 1, grown)
            chosen.pop()

    yield from dfs(0, 1)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_epimorphism_search_matches_the_recursive_oracle(name):
    # the same leaves in the same order, onto every image class
    G = corpus.group(name)
    for B in image_classes(G):
        got = [phi.image_of for phi in groups._epimorphism_search(G, B)]
        assert got == list(oracle_epimorphism_search(G, B)), B.order


def test_epimorphism_search_is_lazy(monkeypatch):
    # isomorphic() takes the first leaf only, so no later one is built
    checked, derived = count_hom_builds(monkeypatch)
    G = corpus.group("C2xC2xC2")
    search = groups._epimorphism_search(G, cyclic(2))
    assert next(search).image_of == list(oracle_epimorphism_search(G, cyclic(2)))[0]
    assert derived == [(8, 2)] and checked == []
    assert len(list(search)) == 6
    # a trivial source has one generator sequence, the empty one
    assert [phi.image_of for phi in groups._epimorphism_search(cyclic(1), cyclic(1))] == [(0,)]


def test_epimorphism_listing_is_capped_as_it_is_searched(monkeypatch):
    # C2^3 onto C2 has 7 epimorphisms: a cap of 7 lists them, a cap of 3
    # stops at the fourth leaf
    checked, derived = count_hom_builds(monkeypatch)
    G = corpus.group("C2xC2xC2")
    monkeypatch.setattr(groups, "EPIMORPHISM_CAP", 7)
    assert len(epimorphisms(G, cyclic(2))) == 7
    monkeypatch.setattr(groups, "EPIMORPHISM_CAP", 3)
    derived.clear()
    with pytest.raises(CapExceeded, match="^epimorphism listing capped at 3 maps$"):
        epimorphisms(G, cyclic(2))
    assert derived == [(8, 2)] * 4 and checked == []
    # isomorphic() takes the first leaf only, whatever the cap
    assert isomorphic(G, G)


def test_epimorphism_cap_admits_aut_c4_cubed_and_not_c2_5_onto_c2_4():
    # |Aut(C4^3)| = |GL(3, 2)| * 2^9 = 86,016, the largest |Epi(G, B)|
    # known to answer (embedding --bound 64 on C4^3, which counts it by
    # its automorphism chain); C2^5 has |GL(5, 2)| = 9,999,360
    # automorphisms and 624,960 epimorphisms onto C2^4
    C4_3 = direct_product(cyclic(4), cyclic(4), cyclic(4))
    assert len(epimorphisms(C4_3, C4_3)) == 86_016 <= groups.EPIMORPHISM_CAP
    C2_5 = direct_product(*[cyclic(2)] * 5)
    with pytest.raises(CapExceeded, match="capped at %d maps" % groups.EPIMORPHISM_CAP):
        epimorphisms(C2_5, direct_product(*[cyclic(2)] * 4))


def test_epimorphisms_are_deterministic():
    a = [phi.image_of for phi in epimorphisms(corpus.group("D4"), cyclic(2))]
    b = [phi.image_of for phi in epimorphisms(corpus.group("D4"), cyclic(2))]
    assert a == b
    assert len(a) == 3


# -- isomorphism ---------------------------------------------------------


def oracle_center_mask(t) -> int:
    """The central elements, by n^2 commutation tests."""
    n = range(len(t))
    return sum(1 << a for a in n if all(t[a][b] == t[b][a] for b in n))


@pytest.mark.parametrize("name", ALL_NAMES + list(LARGE_GROUPS))
def test_abelian_and_center_match_the_pairwise_oracle(name):
    G = large_or_corpus_group(name)
    t = G.table
    n = range(G.order)
    assert G.is_abelian() == all(t[a][b] == t[b][a] for a in n for b in n)
    assert G.center_mask() == oracle_center_mask(t)


def test_isomorphic_takes_equal_tables_without_a_search(monkeypatch):
    # G/1 has G's table, as the invsys suite's dual round trip meets it:
    # the identity map is then an isomorphism; tables that differ are
    # still searched
    calls = []
    search = groups._epimorphism_search

    def counted(G, H):
        calls.append((G.order, H.order))
        return search(G, H)

    monkeypatch.setattr(groups, "_epimorphism_search", counted)
    for name in ["C1", "C2", "S3", "D4", "SL23"]:
        G = corpus.group(name)
        D, _ = quotient(G, Subgroup(G, ()))
        assert D is not G and D.table == G.table
        assert isomorphic(D, G) and isomorphic(G, FiniteGroup(G.table))
    assert calls == []
    assert isomorphic(cyclic(6), direct_product(cyclic(2), cyclic(3)))
    assert not isomorphic(dihedral(4), corpus.group("Q8"))
    assert calls == [(6, 6)]


def test_isomorphic_z4_vs_klein_four():
    assert not isomorphic(cyclic(4), corpus.group("C2xC2"))


def test_isomorphic_s3_vs_its_trivial_quotient():
    G = symmetric(3)
    Q, _ = quotient(G, Subgroup(G, []))
    assert isomorphic(G, Q)


def test_isomorphic_z6_vs_z2_times_z3():
    assert isomorphic(cyclic(6), direct_product(cyclic(2), cyclic(3)))


def test_isomorphic_separates_groups_with_equal_invariants():
    # same order statistics, center, derived subgroup and class sizes,
    # so the generator-image search has to do the work
    A = corpus.group("C4:C4")
    B = corpus.group("Q8xC2")
    assert A.fingerprint() == B.fingerprint()
    assert not isomorphic(A, B)


def test_isomorphic_respects_order_cap():
    with pytest.raises(CapExceeded):
        isomorphic(cyclic(70), cyclic(70))


def test_isomorphic_is_an_equivalence_relation_on_small_groups():
    """Pairwise tests over order <= 16 classes plus isomorphic aliases."""
    entries = [(name, corpus.group(name)) for name in SMALL_NAMES]
    entries += [
        ("C6", direct_product(cyclic(2), cyclic(3))),
        ("S3", dihedral(3)),
        ("D4", build_group({"permutations": [[1, 2, 3, 0], [3, 2, 1, 0]]})),
        ("C2xC2xC2", quotient(
            corpus.group("C2^4"),
            Subgroup(corpus.group("C2^4"), [1]),
        )[0]),
    ]
    n = len(entries)
    matrix = [[isomorphic(entries[i][1], entries[j][1]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            assert matrix[i][j] == (entries[i][0] == entries[j][0])


def test_image_classes_of_z4():
    reps = image_classes(cyclic(4))
    assert [R.order for R in reps] == [1, 2, 4]


def test_image_classes_of_trivial_group():
    assert [R.order for R in image_classes(cyclic(1))] == [1]


def test_image_classes_of_a5():
    """A simple group has only itself and the trivial group as images."""
    A5 = corpus.alternating5()
    assert len(all_subgroups(A5)) == 59
    assert [R.order for R in image_classes(A5)] == [1, 60]


def test_image_classes_of_q8():
    # 1, C2, C2xC2 (inner automorphism quotient), Q8
    reps = image_classes(corpus.group("Q8"))
    assert [R.order for R in reps] == [1, 2, 4, 8]
    assert isomorphic(reps[2], corpus.group("C2xC2"))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_image_kernels_are_the_kernels_of_the_listed_epimorphisms(name):
    # per class, exactly the normal K with G/K isomorphic to B, each once,
    # read off the full list Epi(G, B); every normal subgroup falls in one
    # class; and each gamma_K passes the full homomorphism check with
    # kernel K
    G = corpus.group(name)
    classes = _image_kernels(G)
    assert [B for B, _ in classes] == image_classes(G)
    kernels = [K for _, onto_b in classes for K, _ in onto_b]
    assert sorted(kernels) == sorted(N.mask for N in normal_subgroups(G))
    for B, onto_b in classes:
        listed = {phi.kernel().mask for phi in epimorphisms(G, B)}
        assert {K for K, _ in onto_b} == listed
        for K, gamma in onto_b:
            phi = GroupHom(G, B, gamma)
            assert phi.is_surjective and phi.kernel().mask == K


# -- corpus sanity -------------------------------------------------------


def test_corpus_orders_and_class_counts():
    seen: dict[int, int] = {}
    for name in ALL_NAMES:
        G = corpus.group(name)
        seen[G.order] = seen.get(G.order, 0) + 1
    assert seen == corpus.CLASS_COUNTS


@pytest.mark.parametrize("order", sorted(corpus.CLASS_COUNTS))
def test_corpus_classes_are_pairwise_nonisomorphic(order):
    members = [G for _, G in corpus.classes_upto(24) if G.order == order]
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            assert not isomorphic(members[i], members[j])


@given(st.sampled_from(ALL_NAMES))
def test_element_orders_divide_group_order(name):
    G = corpus.group(name)
    assert all(G.order % k == 0 for k in G.element_orders())


@given(st.sampled_from(ALL_NAMES))
def test_inverses_invert(name):
    G = corpus.group(name)
    assert all(G.mul(x, G.inv(x)) == 0 for x in range(G.order))


def test_semidirect_product_rejects_non_automorphism_action():
    # x -> x + 1 on C3 does not fix the identity
    shift = [1, 2, 0]
    with pytest.raises(GroupError):
        semidirect_product(cyclic(3), cyclic(2), [[0, 1, 2], shift])
    # wrong number of maps
    with pytest.raises(GroupError):
        semidirect_product(cyclic(3), cyclic(2), [[0, 1, 2]])
    # not a homomorphism into the automorphism group
    with pytest.raises(GroupError):
        semidirect_product(cyclic(3), cyclic(3), [[0, 1, 2], [0, 2, 1], [0, 2, 1]])
