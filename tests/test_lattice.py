import random

import pytest

import corpus
import setups
from conftest import is_frattini_restriction
from fmeas.groups import (
    FiniteGroup,
    GroupError,
    Subgroup,
    all_subgroups,
    cyclic,
    normal_subgroups,
    quotient,
)
from fmeas import lattice as lattice_module
from fmeas.lattice import (
    GaloisSetup,
    SubextLattice,
    make_setup,
    s_lattice,
)
from fmeas.measure import measure_event, mu1


# -- make_setup ------------------------------------------------------------


def test_setup_with_whole_group_as_constants():
    setup, _, _ = setups.get("Z2-full")
    assert quotient(setup.group, setup.n_sub)[0].order == 1


def test_setup_klein_mod_first_coordinate():
    setup, _, _ = setups.get("Klein-first")
    Q, r = quotient(setup.group, setup.n_sub)
    assert Q.order == 2
    assert r.image_of == (0, 1, 0, 1)


def test_setup_rejects_lift_that_does_not_generate():
    with pytest.raises(GroupError, match="generate"):
        make_setup(cyclic(4), [2], (2,))


def test_setup_rejects_non_normal_n():
    G = corpus.group("S3")
    t = next(x for x in range(6) if G.element_order(x) == 2)
    with pytest.raises(GroupError, match="normal"):
        make_setup(G, [t], (t,))


def test_setup_rejects_empty_sigma():
    with pytest.raises(GroupError, match="nonempty"):
        make_setup(cyclic(2), [1], ())


# -- the counting tests against the projection G -> G/N ----------------------


def maps_onto_quotient(setup, mask):
    """Is the subgroup's image all of Q, through the projection G -> G/N?"""
    Q, r = quotient(setup.group, setup.n_sub)
    return r.image_mask(mask) == (1 << Q.order) - 1


def images_generate_quotient(G, N, sigma):
    Q, r = quotient(G, N)
    return Q.closure_mask([r.image_of[x] for x in sigma]) == (1 << Q.order) - 1


@pytest.mark.parametrize("name", [name for name, _ in corpus.classes_upto(16)])
def test_qualifies_matches_the_projection(name):
    # |H| |N| = |G| |H n N| exactly when H maps onto G/N, for every
    # normal N and every subgroup H
    G = corpus.group(name)
    for N in normal_subgroups(G):
        setup = make_setup(G, N.elements, tuple(range(G.order)))
        for H in all_subgroups(G):
            assert setup.qualifies(H.mask) == maps_onto_quotient(setup, H.mask), (N, H)


@pytest.mark.parametrize("name", [name for name, _ in corpus.classes_upto(16)])
def test_setup_accepts_exactly_the_lifts_that_generate_the_quotient(name):
    # every single coordinate, and every pair up to order 8: <N, sigma> = G
    # exactly when the images generate G/N
    G = corpus.group(name)
    lifts = [(x,) for x in range(G.order)]
    if G.order <= 8:
        lifts += [(x, y) for x in range(G.order) for y in range(G.order)]
    outcomes = set()
    for N in normal_subgroups(G):
        for sigma in lifts:
            want = images_generate_quotient(G, N, sigma)
            outcomes.add(want)
            if want:
                assert make_setup(G, N.elements, sigma).sigma_prime == sigma
            else:
                with pytest.raises(GroupError) as err:
                    make_setup(G, N.elements, sigma)
                assert str(err.value) == "images of sigma_prime do not generate the quotient"
    assert outcomes == ({True} if G.order == 1 else {True, False})


# -- s_lattice -------------------------------------------------------------


def test_lattice_z2_trivial_quotient():
    _, _, lat = setups.get("Z2-full")
    assert [H.elements for H in lat.members] == [(0,), (0, 1)]
    assert lat.n_maximal == 1


def test_lattice_klein_three_members():
    _, _, lat = setups.get("Klein-first")
    assert [H.elements for H in lat.members] == [(0, 1), (0, 3), (0, 1, 2, 3)]
    assert lat.n_maximal == 2


def test_lattice_z4_base_only():
    _, _, lat = setups.get("Z4-g")
    assert [H.elements for H in lat.members] == [(0, 1, 2, 3)]
    assert lat.n_maximal == 1


def test_lattice_rejects_disqualified_base():
    setup, _, _ = setups.get("Klein-first")
    with pytest.raises(GroupError, match="base"):
        s_lattice(setup, Subgroup(setup.group, (2,)))


def test_lattice_with_proper_base_subgroup():
    setup, K, lat = setups.get("C4xC2-subK")
    assert K.order == 4
    assert len(lat.members) == 1
    assert lat.members[0] == K
    assert lat.n_maximal == 1


# -- direct enumeration against every subgroup of the base -------------------


def oracle_members(setup, K):
    """Every subgroup of K that maps onto Q, found by filtering all of them."""
    return {
        H.mask
        for H in all_subgroups(setup.group)
        if H.mask & K.mask == H.mask and maps_onto_quotient(setup, H.mask)
    }


def seeded_lifts(G, N, seed):
    """Three lifts of length 1 to 4 whose images generate G/N.

    The first is a greedy generating sequence in a seeded random order.
    The others add a coordinate inside N, which maps to the identity,
    and a translate of a generator, which is redundant after it, as far
    as length 4 allows; the third shuffles the second.
    """
    rng = random.Random(seed)
    full = (1 << G.order) - 1
    order = list(range(G.order))
    rng.shuffle(order)
    gens, span = [], N.mask
    for x in order:
        if span == full:
            break
        if not span >> x & 1:
            gens.append(x)
            span = G.extend_mask(span, x)
    extras = [rng.choice(N.elements)]
    if gens:
        extras.append(G.mul(rng.choice(gens), rng.choice(N.elements)))
    extras = extras[: 4 - len(gens)]
    padded = extras[:1] + gens + extras[1:]
    shuffled = padded[:]
    rng.shuffle(shuffled)
    return [gens or extras[:1], padded, shuffled]


def test_seeded_lifts_cover_identity_and_redundant_coordinates():
    kinds = set()
    for name, G in corpus.classes_upto(24):
        for N in all_subgroups(G):
            if not N.is_normal():
                continue
            for lift in seeded_lifts(G, N, "%s/%d" % (name, N.mask)):
                assert 1 <= len(lift) <= 4
                span = N.mask
                for x in lift:
                    if N.mask >> x & 1:
                        kinds.add("identity")
                    elif span >> x & 1:
                        kinds.add("redundant")
                    span = G.extend_mask(span, x)
    assert kinds == {"identity", "redundant"}


@pytest.mark.parametrize("name", [name for name, _ in corpus.classes_upto(24)])
def test_members_match_every_subgroup_filtered(name):
    # every normal N, three seeded lifts, every qualifying base: the
    # members built from the lift seeds are exactly the subgroups of the
    # base that map onto Q
    G = corpus.group(name)
    subs = all_subgroups(G)
    for N in subs:
        if not N.is_normal():
            continue
        for lift in seeded_lifts(G, N, "%s/%d" % (name, N.mask)):
            setup = make_setup(G, N.elements, lift)
            for K in subs:
                if maps_onto_quotient(setup, K.mask):
                    lat = SubextLattice(setup, K)
                    assert set(lat.index_of) == oracle_members(setup, K), (N, lift, K)


@pytest.mark.parametrize("name", ["C4xC2", "D4", "C2xC2xC2", "S4", "C2^4"])
def test_confirm_n1_agrees_with_the_filtered_member_sets(name):
    # s_lattice accepts a normal N1 above N exactly when it selects the
    # same subgroups of the base as N does; both outcomes must occur
    G = corpus.group(name)
    full = Subgroup(G, range(G.order))
    normals = [N for N in all_subgroups(G) if N.is_normal()]
    outcomes = set()
    for N in normals:
        for lift in seeded_lifts(G, N, "%s/%d" % (name, N.mask)):
            setup = make_setup(G, N.elements, lift)
            want = oracle_members(setup, full)
            for N1 in normals:
                if N.mask & N1.mask != N.mask:
                    continue
                same = oracle_members(make_setup(G, N1.elements, lift), full) == want
                outcomes.add(same)
                if same:
                    assert set(s_lattice(setup, full, confirm_n1=N1).index_of) == want
                else:
                    with pytest.raises(GroupError, match="different member set"):
                        s_lattice(setup, full, confirm_n1=N1)
    assert outcomes == {True, False}


def test_lattice_work_stays_with_the_members():
    # C2^6 with a central N of order 2: the members are G and the 32
    # complements of N, among 2,825 subgroups.  Seeded from the lift, the
    # closure memo holds about 100 entries; enumerating every subgroup
    # and filtering left over 150,000
    G = FiniteGroup([[a ^ b for b in range(64)] for a in range(64)])
    setup = make_setup(G, [1], (2, 4, 8, 16, 32))
    lat = SubextLattice(setup, Subgroup(G, range(64)))
    assert len(lat) == 33
    assert len(G._extend_memo) <= 1000


# -- canonical order -------------------------------------------------------


@pytest.mark.parametrize("name", setups.NAMES)
def test_member_order_puts_containments_backwards(name):
    _, _, lat = setups.get(name)
    for i in range(len(lat.members)):
        for j in range(len(lat.members)):
            if lat.leq(i, j):
                # H_j inside H_i, so the field F_i sits below F_j
                assert i >= j or i == j
                assert (
                    lat.members[j].mask & lat.members[i].mask == lat.members[j].mask
                )


@pytest.mark.parametrize("name", setups.NAMES)
def test_member_list_shape(name):
    setup, K, lat = setups.get(name)
    assert lat.members[-1] == K
    assert all(setup.qualifies(H.mask) for H in lat.members)
    qualifying = {H.mask for H in lat.members}
    for i, H in enumerate(lat.members):
        minimal = not any(
            m != H.mask and m & H.mask == m for m in qualifying
        )
        assert minimal == lat.is_maximal(i)
    sizes = [H.order for H in lat.members]
    block1 = sizes[: lat.n_maximal]
    block2 = sizes[lat.n_maximal :]
    assert block1 == sorted(block1)
    assert block2 == sorted(block2)


def test_below_and_the_order_match_a_direct_scan():
    # on every corpus lattice: below[j] is every proper sub-member of
    # member j, and the members are sorted by the key the order is
    # defined by, the minimal ones (no sub-member) first
    for tag, setup, K, lat in setups.corpus_lattices():
        masks = [H.mask for H in lat.members]
        below = [
            tuple(k for k, mk in enumerate(masks) if k != j and mk & mj == mk)
            for j, mj in enumerate(masks)
        ]
        assert lat.below == tuple(below), tag
        minimal = {m for m, sub in zip(masks, below) if not sub}
        assert lat.n_maximal == len(minimal), tag
        G = setup.group
        key = lambda m: (m not in minimal, bin(m).count("1"), G.elems_of_mask(m))
        assert masks == sorted(masks, key=key), tag


def corpus_triples():
    """(name, N, sigma) for every corpus group of order <= 24 and each of
    its normal subgroups N, sigma the least element of each coset that
    the quotient's generator sequence names."""
    for name, G in corpus.classes_upto(24):
        for N in normal_subgroups(G):
            Q, r = quotient(G, N)
            least = {q: g for g, q in reversed(list(enumerate(r.image_of)))}
            sigma = [least[q] for q in Q.generator_sequence()] or [0]
            yield name, N, sigma


def test_members_from_cached_subgroups_match_the_enumerated_lattice():
    # with the whole group as base, once G's subgroups are cached the
    # members are the cached ones that qualify, with no second search;
    # each route runs on its own copy of G, the enumeration on a copy
    # with nothing cached
    for name, N, sigma in corpus_triples():
        fresh, cached = (FiniteGroup(N.group.table) for _ in range(2))
        all_subgroups(cached)
        lattices = []
        for G in (fresh, cached):
            setup = GaloisSetup(G, Subgroup._of_mask(G, N.mask), tuple(sigma))
            lattices.append(SubextLattice(setup, Subgroup(G, range(G.order))))
        assert fresh._subgroups is None
        enumerated, read = lattices
        tag = (name, N.elements)
        assert [H.mask for H in read.members] == [H.mask for H in enumerated.members], tag
        assert all(H.group is cached for H in read.members), tag
        assert (read.below, read.n_maximal) == (enumerated.below, enumerated.n_maximal), tag


def test_lattice_reads_cached_subgroups_only_over_the_whole_group(monkeypatch):
    # a proper base still enumerates, cached or not; the whole group as
    # base enumerates only while nothing is cached
    calls = []
    real = lattice_module.subgroup_masks_within

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(lattice_module, "subgroup_masks_within", counted)
    G = FiniteGroup(corpus.group("C4xC2").table)
    setup = make_setup(G, [1], (2,))
    whole, K = Subgroup(G, range(G.order)), Subgroup(G, (2,))
    SubextLattice(setup, whole)
    all_subgroups(G)
    SubextLattice(setup, whole)
    SubextLattice(setup, K)
    assert calls == [whole.mask, K.mask]


def test_members_built_from_generators_match_their_elements():
    # members are built from the masks the enumeration proved closed, not
    # closed from their elements; either way gives the same subgroup and name
    for tag, setup, K, lat in setups.corpus_lattices():
        G = setup.group
        for H in lat.members:
            direct = Subgroup(G, G.elems_of_mask(H.mask))
            assert H == direct and H.elements == direct.elements, tag
            assert H.display_name() == direct.display_name(), tag


def test_lattice_closes_each_member_once(monkeypatch):
    # C2^4 with N = G: the enumeration's 66 closures, one per member but
    # {0}, and no second closure to build the members
    G = FiniteGroup([[a ^ b for b in range(16)] for a in range(16)])
    setup = make_setup(G, [1, 2, 4, 8], [0] * 4)
    K = Subgroup(G, range(16))
    calls = []
    extend_mask = FiniteGroup.extend_mask

    def counted(self, mask, x):
        calls.append((mask, x))
        return extend_mask(self, mask, x)

    monkeypatch.setattr(FiniteGroup, "extend_mask", counted)
    lat = SubextLattice(setup, K)
    assert len(lat.members) == 67
    assert len(calls) == 66
    assert len(set(calls)) == 66


@pytest.mark.parametrize("name", setups.NAMES)
def test_member_names_are_distinct(name):
    _, _, lat = setups.get(name)
    names = [lat.member_name(i) for i in range(len(lat.members))]
    assert len(set(names)) == len(names)


# -- maximal fields ----------------------------------------------------------


def test_unique_maximal_field_when_quotient_trivial():
    _, _, lat = setups.get("Z2-full")
    tops = lat.members[: lat.n_maximal]
    assert len(tops) == 1
    assert tops[0].elements == (0,)


def test_klein_has_two_maximal_fields():
    _, _, lat = setups.get("Klein-first")
    assert [H.elements for H in lat.members[: lat.n_maximal]] == [(0, 1), (0, 3)]


def test_s3_has_three_maximal_fields():
    setup, _, lat = setups.get("S3-A3")
    tops = lat.members[: lat.n_maximal]
    assert len(tops) == 3
    G = setup.group
    for H in tops:
        assert H.order == 2
        assert G.element_order(H.elements[1]) == 2


@pytest.mark.parametrize("name", setups.NAMES)
def test_trivial_quotient_forces_trivial_top_subgroup(name):
    setup, _, lat = setups.get(name)
    if quotient(setup.group, setup.n_sub)[0].order == 1:
        tops = lat.members[: lat.n_maximal]
        assert len(tops) == 1
        assert tops[0].order == 1


@pytest.mark.parametrize("name", setups.NAMES)
def test_maximality_matches_frattini_restriction(name):
    setup, _, lat = setups.get(name)
    _, r = quotient(setup.group, setup.n_sub)
    for i, H in enumerate(lat.members):
        assert lat.is_maximal(i) == is_frattini_restriction(H, r)


@pytest.mark.parametrize("name", setups.NAMES)
def test_every_lift_into_a_maximal_member_generates_it(name):
    setup, _, lat = setups.get(name)
    G = setup.group
    r_img = quotient(setup.group, setup.n_sub)[1].image_of
    for H in lat.members[: lat.n_maximal]:
        cosets = [
            [h for h in H.elements if r_img[h] == r_img[s]]
            for s in setup.sigma_prime
        ]
        count = 1
        for c in cosets:
            count *= len(c)
        assert count <= 10**5
        stack = [()]
        for c in cosets:
            stack = [t + (h,) for t in stack for h in c]
        for lift in stack:
            assert G.closure_mask(lift) == H.mask


@pytest.mark.parametrize("name", setups.NAMES)
def test_deterministic_lift_lands_in_the_right_cosets(name):
    # the premise of Hall's closed form, with no lift chosen: each member H
    # meets the coset of N under every sigma coordinate in |H n N| elements,
    # and any of them, l, translates H n N onto that whole meet
    setup, _, lat = setups.get(name)
    G = setup.group
    r_img = quotient(setup.group, setup.n_sub)[1].image_of
    for H in lat.members:
        meet_n = [h for h in H.elements if h in setup.n_sub]
        for s in setup.sigma_prime:
            meet = {h for h in H.elements if r_img[h] == r_img[s]}
            assert len(meet) == len(meet_n)
            for l in meet:
                assert {G.table[l][t] for t in meet_n} == meet


# -- alternative constants validation ---------------------------------------


def test_confirm_n1_accepts_a_frattini_coarsening():
    G = corpus.group("C4xC2")
    setup = make_setup(G, [1], (2,))
    K = Subgroup(G, range(8))
    n1 = Subgroup(G, (4, 1))
    lat = s_lattice(setup, K, confirm_n1=n1)
    assert [H.elements for H in lat.members] == [
        (0, 2, 4, 6),
        (0, 3, 4, 7),
        (0, 1, 2, 3, 4, 5, 6, 7),
    ]


def test_confirm_n1_rejects_a_member_changing_coarsening():
    G = corpus.group("C2xC2")
    setup = make_setup(G, [2], (1,))
    K = Subgroup(G, range(4))
    with pytest.raises(GroupError, match="different member set"):
        s_lattice(setup, K, confirm_n1=Subgroup(G, range(4)))


def test_confirm_n1_must_contain_n():
    G = corpus.group("C4xC2")
    setup = make_setup(G, [2], (1,))
    K = Subgroup(G, range(8))
    with pytest.raises(GroupError, match="contain"):
        s_lattice(setup, K, confirm_n1=Subgroup(G, (1,)))


def test_a_lattice_refuses_subgroups_of_another_group():
    # on the Klein lattice, C4's <1> has the mask of the base and C4's
    # <2> the mask of N, yet neither is a subgroup of the setup group
    setup, K, lat = setups.get("Klein-first")
    C4 = cyclic(4)
    with pytest.raises(GroupError, match="^subgroup is not a lattice member$"):
        lat.member_index(Subgroup(C4, [1]))
    with pytest.raises(GroupError, match="^subgroup is not a lattice member$"):
        measure_event(mu1(lat), [Subgroup(C4, [1])])
    with pytest.raises(GroupError, match="^confirm_n1 does not live in the setup group$"):
        s_lattice(setup, K, confirm_n1=Subgroup(C4, [2]))
