import gc
import time
import weakref

import pytest

import corpus
import setups
from conftest import is_frattini_restriction
from fmeas import frattini, groups
from fmeas.frattini import (
    _automorphism_chain,
    _automorphisms,
    _orbit_union,
    _sections,
    frattini_subgroup,
    has_embedding_property,
    is_frattini_cover,
)
from fmeas.groups import (
    CapExceeded,
    FiniteGroup,
    GroupError,
    GroupHom,
    Subgroup,
    _image_kernels,
    all_subgroups,
    compose,
    cyclic,
    direct_product,
    epimorphisms,
    image_classes,
    normal_subgroups,
    quotient,
    subgroup_masks_within,
    symmetric,
)

ALL_NAMES = sorted(corpus.BUILDERS)
SMALL_NAMES = sorted(name for name, G in corpus.classes_upto(16))
TINY_NAMES = sorted(name for name, G in corpus.classes_upto(8))
# every group of order <= 16 but C2^4, whose oracle runs for minutes
EMBEDDING_NAMES = [name for name in SMALL_NAMES if name != "C2^4"]


# -- oracles -------------------------------------------------------------


def non_generator_mask(G):
    """Elements x such that no proper subgroup reaches G when x is added.

    Independent characterization of the Frattini subgroup, used as the
    oracle for the maximal-intersection computation.
    """
    full = (1 << G.order) - 1
    proper = [H for H in all_subgroups(G) if H.mask != full]
    out = 0
    for x in range(G.order):
        if all(G.extend_mask(H.mask, x) != full for H in proper):
            out |= 1 << x
    return out


def oracle_maximal(G):
    """The maximal subgroups by a pairwise scan, in all_subgroups order:
    the proper subgroups that lie in no other proper subgroup."""
    proper = [H for H in all_subgroups(G) if H.order < G.order]
    return tuple(
        H
        for H in proper
        if not any(H.mask != K.mask and H.mask & K.mask == H.mask for K in proper)
    )


def oracle_middle_cover(G, N1, N2) -> bool:
    """Whether G/N1 ->> G/N2 is a Frattini cover, for N1 in N2, by building
    the map on the least representatives of the cosets of N1."""
    Q1, p1 = quotient(G, N1)
    Q2, p2 = quotient(G, N2)
    least = {p1.image_of[g]: g for g in reversed(range(G.order))}
    reps1 = [least[c] for c in range(Q1.order)]
    return is_frattini_cover(GroupHom(Q1, Q2, tuple(p2.image_of[r] for r in reps1)))


def oracle_cover(phi) -> bool:
    return phi.is_surjective and all(
        non_generator_mask(phi.source) >> a & 1
        for a in range(phi.source.order)
        if phi.image_of[a] == 0
    )


def oracle_subgroup_cover(phi) -> bool:
    """phi is onto, and no proper subgroup of the source maps onto the target.

    The cover route the library no longer runs, with images read off the
    image table element by element.
    """
    G, target = phi.source, phi.target
    if len(set(phi.image_of)) != target.order:
        return False
    return all(
        len({phi.image_of[x] for x in H.elements}) < target.order
        for H in all_subgroups(G)
        if H.order < G.order
    )


def memoized_subgroup_cover():
    """oracle_subgroup_cover memoized per (source, kernel), on which it depends."""
    memo = {}

    def verdict(phi):
        key = (phi.source, tuple(a for a, v in enumerate(phi.image_of) if v == 0))
        if key not in memo:
            memo[key] = oracle_subgroup_cover(phi)
        return memo[key]

    return verdict


def oracle_embedding(G):
    """First violating diagram (A, B, alpha, beta), or None if there is none.

    Naive loop over diagrams in the engine's order (A, B, beta, alpha),
    recomputing every epimorphism list and scanning all gamma
    compositions per pair.
    """
    images = image_classes(G)
    for A in images:
        alphas = epimorphisms(G, A)
        for B in images:
            gammas = epimorphisms(G, B)
            for beta in epimorphisms(B, A):
                composites = [compose(beta, gamma).image_of for gamma in gammas]
                for alpha in alphas:
                    if alpha.image_of not in composites:
                        return A, B, alpha, beta
    return None


def oracle_reached(alphas, betas, gammas):
    """Per alpha, the betas with beta o gamma = alpha for some gamma, by composing."""
    composites: dict[tuple, set] = {}
    for beta in betas:
        for gamma in gammas:
            composites.setdefault(compose(beta, gamma).image_of, set()).add(beta.image_of)
    return [composites.get(alpha.image_of, set()) for alpha in alphas]


# (kernel, section) per gamma by a loop over the image table, and a
# second pass for the kernel: the slow oracle of frattini._sections
def oracle_factorings(gammas):
    out = []
    for gamma in gammas:
        section = [0] * gamma.target.order
        for x, b in enumerate(gamma.image_of):
            section[b] = x
        out.append((gamma.preimage_mask(1), bytes(section)))
    return out


def listed_reached(kernel, image, factorings, enough=None):
    """Image tables, as bytes, of the betas beta = alpha o section(gamma),
    one per listed gamma whose kernel lies in ker alpha."""
    by_alpha = bytes(image) + bytes(256 - len(image))
    got = set()
    for gamma_kernel, section in factorings:
        if gamma_kernel & ~kernel == 0:
            got.add(section.translate(by_alpha))
            if len(got) == enough:
                break
    return got


def enumerating_embedding(G, bound=24):
    """First violating diagram (A, B, alpha, beta), or None if there is none.

    has_embedding_property as it stood when it listed Epi(G, B) for every
    image B, serving as the alphas onto B and as the gammas onto it, and
    decided each pair with one alpha per kernel; kept as the oracle of
    the orbit search.  |Epi(B, A)| is the number of alphas whose kernel
    holds ker gamma, for one gamma onto B.
    """
    if G.order > bound:
        raise CapExceeded("embedding-property search capped at order %d" % bound)
    images = image_classes(G)
    epis = [epimorphisms(G, B) for B in images]
    factorings = [oracle_factorings(gammas) for gammas in epis]
    for A, alphas, onto_a in zip(images, epis, factorings):
        kernels = [kernel for kernel, _ in onto_a]
        by_kernel = {}
        for kernel, alpha in zip(kernels, alphas):
            by_kernel.setdefault(kernel, alpha.image_of)
        for B, onto_b in zip(images, factorings):
            if B.order % A.order != 0:
                continue
            n = sum(1 for kernel in kernels if onto_b[0][0] & ~kernel == 0)
            if all(len(listed_reached(k, img, onto_b, n)) == n for k, img in by_kernel.items()):
                continue
            reached = [listed_reached(k, alpha.image_of, onto_b) for k, alpha in zip(kernels, alphas)]
            for beta in epimorphisms(B, A):
                table = bytes(beta.image_of)
                for alpha, got in zip(alphas, reached):
                    if table not in got:
                        return A, B, alpha, beta
    return None


def diagram_tables(witness):
    if witness is None:
        return None
    A, B, alpha, beta = witness
    return A.table, B.table, alpha.image_of, beta.image_of


# -- frattini_subgroup ---------------------------------------------------


def test_frattini_of_z4():
    report = frattini_subgroup(cyclic(4))
    assert report.frattini_subgroup.elements == (0, 2)
    assert [M.order for M in report.maximal_subgroups] == [2]


def test_frattini_of_s3_is_trivial():
    report = frattini_subgroup(symmetric(3))
    assert report.frattini_subgroup.elements == (0,)
    assert len(report.maximal_subgroups) == 4


def test_frattini_of_klein_four_is_trivial():
    report = frattini_subgroup(corpus.group("C2xC2"))
    assert report.frattini_subgroup.elements == (0,)
    assert len(report.maximal_subgroups) == 3


def test_frattini_of_trivial_group_is_whole():
    report = frattini_subgroup(cyclic(1))
    assert report.frattini_subgroup.order == 1
    assert report.maximal_subgroups == ()


def test_frattini_respects_order_cap():
    with pytest.raises(CapExceeded):
        frattini_subgroup(cyclic(70))


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_frattini_matches_non_generator_oracle(name):
    G = corpus.group(name)
    assert frattini_subgroup(G).frattini_subgroup.mask == non_generator_mask(G)


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_frattini_is_normal_and_is_the_maximal_intersection(name):
    G = corpus.group(name)
    report = frattini_subgroup(G)
    assert report.frattini_subgroup.is_normal()
    if report.maximal_subgroups:
        mask = (1 << G.order) - 1
        for M in report.maximal_subgroups:
            mask &= M.mask
        assert mask == report.frattini_subgroup.mask
    # maximality: nothing strictly between a maximal subgroup and G
    masks = {H.mask for H in all_subgroups(G)}
    for M in report.maximal_subgroups:
        between = [
            m
            for m in masks
            if m != M.mask and m & M.mask == M.mask and m != (1 << G.order) - 1
        ]
        assert between == []


@pytest.mark.parametrize("name", ALL_NAMES)
def test_maximal_subgroups_match_the_pairwise_scan(name):
    # C1 is the trivial group: no maximal subgroups, and Phi is all of it
    G = corpus.group(name)
    got = frattini_subgroup(G).maximal_subgroups
    assert [M.mask for M in got] == [M.mask for M in oracle_maximal(G)]
    assert got == oracle_maximal(G)


# -- is_frattini_cover ---------------------------------------------------


def test_cover_z4_onto_z2():
    G = cyclic(4)
    _, pi = quotient(G, Subgroup(G, [2]))
    assert is_frattini_cover(pi)


def test_cover_klein_onto_z2_fails():
    G = corpus.group("C2xC2")
    _, pi = quotient(G, Subgroup(G, [2]))
    assert not is_frattini_cover(pi)


def test_cover_identity_map():
    G = corpus.group("D4")
    assert is_frattini_cover(GroupHom(G, G, tuple(range(G.order))))


def test_cover_requires_surjectivity():
    phi = GroupHom(cyclic(2), cyclic(4), (0, 2))
    assert not is_frattini_cover(phi)


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_cover_matches_subgroup_oracle_on_every_projection(name):
    G = corpus.group(name)
    for N in all_subgroups(G):
        if N.is_normal():
            _, pi = quotient(G, N)
            assert is_frattini_cover(pi) == oracle_subgroup_cover(pi), N.elements


@pytest.mark.parametrize("name", TINY_NAMES)
def test_cover_composition_law_on_all_chains(name):
    """A composite of epimorphisms covers iff both factors cover."""
    G = corpus.group(name)
    by_subgroups = memoized_subgroup_cover()
    for A in image_classes(G):
        for phi in epimorphisms(G, A):
            first = is_frattini_cover(phi)
            assert first == oracle_cover(phi) == by_subgroups(phi)
            for B in image_classes(A):
                for psi in epimorphisms(A, B):
                    both = compose(psi, phi)
                    second = is_frattini_cover(psi)
                    assert second == by_subgroups(psi)
                    assert is_frattini_cover(both) == by_subgroups(both) == (first and second)


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_middle_map_covers_iff_n2_lies_over_the_quotients_frattini(name):
    # G/N1 ->> G/N2 has kernel p1(N2): it covers iff N2 is in p1^-1(Phi(G/N1))
    G = corpus.group(name)
    normals = normal_subgroups(G)
    for N1 in normals:
        Q1, p1 = quotient(G, N1)
        phi = frattini_subgroup(Q1).frattini_subgroup.mask
        pre = sum(1 << g for g, c in enumerate(p1.image_of) if phi >> c & 1)
        for N2 in normals:
            if N1.mask & N2.mask == N1.mask and N1.mask != N2.mask:
                got = N2.mask & ~pre == 0
                assert got == oracle_middle_cover(G, N1, N2), (N1.elements, N2.elements)


@pytest.mark.parametrize("name", ALL_NAMES + ["C2^6"])
def test_a_covering_kernel_pulls_the_quotients_frattini_back_to_the_groups(name):
    # for N inside Phi(G), p^-1(Phi(G/N)) = Phi(G): every maximal
    # subgroup of G holds Phi(G), so N, and the maximal subgroups of G/N
    # are their images.  The Frattini suite's composition law reads
    # Phi(G/N) on exactly these N
    if name == "C2^6":
        G = FiniteGroup([[a ^ b for b in range(64)] for a in range(64)])
    else:
        G = corpus.group(name)
    phi = frattini_subgroup(G).frattini_subgroup.mask
    inside = [N for N in normal_subgroups(G) if N.mask & ~phi == 0]
    assert inside[0].order == 1
    for N in inside:
        Q, pi = quotient(G, N)
        assert pi.preimage_mask(frattini_subgroup(Q).frattini_subgroup.mask) == phi, N.elements


def test_cover_reads_the_cached_frattini_subgroup_only(monkeypatch):
    # fresh copies of the corpus groups, so no earlier test's caches count
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    projections = []
    for name in SMALL_NAMES:
        G = FiniteGroup(corpus.group(name).table)
        frattini_subgroup(G)
        projections += [quotient(G, N)[1] for N in normal_subgroups(G)]
    monkeypatch.setattr(frattini, "all_subgroups", counted(all_subgroups))
    monkeypatch.setattr(GroupHom, "image_mask", counted(GroupHom.image_mask))
    for pi in projections:
        is_frattini_cover(pi)
    assert calls == []


@pytest.mark.parametrize("name", ["C12", "D4", "S4"])
def test_a_group_asked_about_is_freed_with_its_report(name):
    # the report is cached on its group, which it refers back to through
    # its subgroups: a module-level map from groups to reports, even a
    # weak-keyed one, kept every group it was asked about alive
    G = FiniteGroup(corpus.group(name).table)
    report = frattini_subgroup(G)
    assert frattini_subgroup(G) is report
    covers = [is_frattini_cover(quotient(G, N)[1]) for N in normal_subgroups(G)]
    assert covers.count(True) == sum(
        1 for N in normal_subgroups(G) if N.mask & ~report.frattini_subgroup.mask == 0
    )
    group = weakref.ref(G)
    del G, report
    gc.collect()
    assert group() is None


# -- is_frattini_restriction ---------------------------------------------


def klein_mod_first():
    G = corpus.group("C2xC2")
    # coordinates: (a, b) has index 2a + b; kill the first coordinate
    _, r = quotient(G, Subgroup(G, (0, 2)))
    return G, r


def test_restriction_on_minimal_lift():
    G, r = klein_mod_first()
    assert is_frattini_restriction(Subgroup(G, (0, 1)), r)


def test_restriction_on_whole_group_fails():
    G, r = klein_mod_first()
    assert not is_frattini_restriction(Subgroup(G, range(4)), r)


def test_restriction_trivial_on_trivial():
    G = corpus.group("C2xC2")
    _, r = quotient(G, Subgroup(G, range(4)))
    assert is_frattini_restriction(Subgroup(G, ()), r)


def test_restriction_requires_surjectivity():
    G, r = klein_mod_first()
    with pytest.raises(GroupError, match="surjective"):
        is_frattini_restriction(Subgroup(G, (0, 2)), r)


def listed_frattini_restriction(H, r):
    """is_frattini_restriction as a scan of the whole sorted list of the
    subgroups of H."""
    full = (1 << r.target.order) - 1
    masks = subgroup_masks_within(H.group, H.mask, (1 << H.group.order) - 1, ())
    return not any(m != H.mask and r.image_mask(m) == full for m in masks)


def test_lazy_restriction_matches_the_list_scan_on_every_corpus_lattice():
    for tag, setup, _, lat in setups.corpus_lattices():
        _, r = quotient(setup.group, setup.n_sub)
        for H in lat.members:
            assert is_frattini_restriction(H, r) == listed_frattini_restriction(H, r), tag


def test_restriction_stops_at_the_first_subgroup_onto_the_target(monkeypatch):
    # onto the trivial group, the trivial subgroup, yielded first, answers
    searched = []
    real = groups._subgroups_within

    def counted(G, seeds, extend):
        for mask in real(G, seeds, extend):
            searched.append(mask)
            yield mask

    monkeypatch.setattr(groups, "_subgroups_within", counted)
    G = corpus.group("C2^4")
    _, r = quotient(G, Subgroup(G, range(16)))
    assert not is_frattini_restriction(Subgroup(G, range(16)), r)
    assert searched == [1]
    searched.clear()
    assert is_frattini_restriction(Subgroup(G, ()), r)
    assert searched == [1]


def test_restriction_above_the_order_cap_raises():
    G = FiniteGroup([[a ^ b for b in range(128)] for a in range(128)])
    whole = Subgroup(G, range(128))
    _, r = quotient(G, whole)
    with pytest.raises(CapExceeded, match="order 64"):
        is_frattini_restriction(whole, r)


# -- has_embedding_property ----------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 12])
def test_cyclic_groups_have_the_embedding_property(n):
    assert has_embedding_property(cyclic(n)).holds


def test_s3_embedding_property_matches_oracle():
    report = has_embedding_property(symmetric(3))
    assert oracle_embedding(symmetric(3)) is None
    assert report.holds


def test_d4_lacks_the_embedding_property():
    G = corpus.group("D4")
    report = has_embedding_property(G)
    assert not report.holds
    A, B, alpha, beta = report.witness
    # the witness really is a violating diagram
    assert alpha.source is G and alpha.target is A
    assert beta.target is A
    for gamma in epimorphisms(G, B):
        assert compose(beta, gamma).image_of != alpha.image_of


def test_c4xc2_lacks_the_embedding_property():
    report = has_embedding_property(corpus.group("C4xC2"))
    assert not report.holds
    _, B, _, _ = report.witness
    assert B.order == 4


@pytest.mark.parametrize("name", EMBEDDING_NAMES)
def test_embedding_search_matches_oracle_on_tiny_groups(name):
    # verdict and first witness, as image tables: the witness lines of
    # `fmeas embedding` print them
    G = corpus.group(name)
    report = has_embedding_property(G)
    witness = oracle_embedding(G)
    assert report.holds == (witness is None)
    assert diagram_tables(report.witness) == diagram_tables(witness)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_embedding_search_matches_the_enumerating_search(name):
    # every corpus group, C2^4 included: verdict and first witness
    G = corpus.group(name)
    report = has_embedding_property(G)
    witness = enumerating_embedding(G)
    assert report.holds == (witness is None)
    assert diagram_tables(report.witness) == diagram_tables(witness)


def test_embedding_search_on_c4_cubed_matches_the_enumerating_search():
    # the enumerating search lists 86,016 automorphisms here; about 6 s
    # on a 2-core x86-64 machine (CPython 3.11)
    G = direct_product(cyclic(4), cyclic(4), cyclic(4))
    report = has_embedding_property(G, bound=64)
    assert report.holds
    assert enumerating_embedding(G, bound=64) is None


@pytest.mark.parametrize("name", ALL_NAMES)
def test_automorphism_chain_lists_aut_of_every_image_class(name):
    # the products of the transversals are Aut(B), each once, and the
    # product of the level sizes is |Aut(B)|
    for B in image_classes(corpus.group(name)):
        chain = _automorphism_chain(B)
        auts = _automorphisms(chain, B.order)
        size = 1
        for level in chain:
            size *= len(level)
        assert len(auts) == size == len(set(auts))
        assert set(auts) == {bytes(phi.image_of) for phi in epimorphisms(B, B)}


@pytest.mark.parametrize("name", EMBEDDING_NAMES)
def test_reached_sets_match_composition_oracle(name):
    # every pair, failing or not, and every alpha: the witness test stops
    # at the first failing pair
    G = corpus.group(name)
    classes = _image_kernels(G)
    for A, onto_a in classes:
        alphas = epimorphisms(G, A)
        aut_a = epimorphisms(A, A)
        for B, onto_b in classes:
            if B.order % A.order != 0:
                continue
            gammas = epimorphisms(G, B)
            betas = epimorphisms(B, A)
            # |Epi(B, A)| = #{M >= K_B} |Aut(A)|, as the pair test counts it
            above = sum(1 for kernel, _ in onto_a if onto_b[0][0] & ~kernel == 0)
            assert above * len(aut_a) == len(betas)
            sections = _sections(onto_b, B.order)
            auts = _automorphisms(_automorphism_chain(B), B.order)
            # _orbit_union gives the betas' image tables as bytes
            expected = [{bytes(t) for t in s} for s in oracle_reached(alphas, betas, gammas)]
            got = [
                _orbit_union(bytes(alpha.image_of), alpha.kernel().mask, sections, auts)
                for alpha in alphas
            ]
            assert got == expected


@pytest.mark.parametrize("name", ALL_NAMES)
def test_factorings_match_the_per_gamma_loop(name):
    # the one gamma per kernel onto every image class, held to GroupHom's
    # full check: kernel and section as the per-gamma loop reads them off
    # the checked map; where several x share an image the section keeps
    # the last, as the loop does
    G = corpus.group(name)
    for B, onto_b in _image_kernels(G):
        gammas = [GroupHom(G, B, gamma) for _, gamma in onto_b]
        assert all(gamma.is_surjective for gamma in gammas)
        assert _sections(onto_b, B.order) == oracle_factorings(gammas)


def test_c2_4_has_the_embedding_property_in_bounded_time():
    # C2^4 composes 2,520 betas with 20,160 gammas for one pair alone,
    # about 2 minutes; listing Epi(G, B) for every image took about 0.5 s,
    # and the orbit search takes about 0.04 s on a 2-core x86-64 machine
    # (CPython 3.11).  The bound leaves room for a loaded machine
    start = time.perf_counter()
    assert has_embedding_property(corpus.group("C2^4")).holds
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, "took %.2f s" % elapsed


def test_embedding_respects_bound():
    with pytest.raises(CapExceeded):
        has_embedding_property(cyclic(25))
    assert has_embedding_property(cyclic(25), bound=32).holds


@pytest.mark.parametrize("name", ["D4", "C2xC2xC2", "C6xC2xC2", "SL23"])
def test_embedding_cap_counts_the_largest_epimorphism_set(name, monkeypatch):
    # refused exactly when some |Epi(G, B)|, counted here by listing it,
    # is over the cap, with the listing's message, and before any search
    # for a witness
    G = corpus.group(name)
    largest = max(len(epimorphisms(G, B)) for B in image_classes(G))
    monkeypatch.setattr(frattini, "EPIMORPHISM_CAP", largest)
    assert has_embedding_property(G).holds == (enumerating_embedding(G) is None)
    monkeypatch.setattr(frattini, "EPIMORPHISM_CAP", largest - 1)
    monkeypatch.setattr(frattini, "epimorphisms", None)
    with pytest.raises(CapExceeded, match="^epimorphism listing capped at %d maps$" % (largest - 1)):
        has_embedding_property(G)
