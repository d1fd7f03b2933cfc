"""Frattini subgroups, cover checking, and the embedding property.

An epimorphism is a Frattini cover exactly when its kernel lies inside
the Frattini subgroup of the source, the set of non-generators (Fried
and Jarden, Field Arithmetic, the chapter on Frattini covers), so the
cover check is one mask test against the cached Frattini subgroup.
That subgroup is the meet of the maximal subgroups, found largest
first: every proper subgroup lies in a maximal one, so a subgroup is
maximal iff no larger maximal subgroup contains it.  It reads G's
subgroup list, and so the list's order cap.  The report is cached on
its group, like the group's subgroup list, so it lives and dies with
the group.  The other laws of Frattini covers (no proper subgroup maps
onto the target, covers compose, a Frattini restriction is a minimal
subgroup onto the target) are read off the same list by the verify
suite, not by a search of their own.

The embedding-property search lists Epi(G, B) for no image B.  Each
image class B comes with its kernels K and one map gamma_K: G ->> B per
kernel (groups._image_kernels), and with Aut(B) from a stabilizer chain
along B's generator sequence g_0, g_1, ... (_automorphism_chain): level
k fixes g_0..g_{k-1} and asks the search for first leaves sending g_k to
each image in turn, and |Aut(B)| is the product of the level sizes.  So
|Epi(G, B)| = #K |Aut(B)| is checked against EPIMORPHISM_CAP by count
before anything is listed.  An alpha: G ->> A of kernel M reaches the
betas in the union of the orbits a_K o Aut(B), K in M, where
a_K = alpha o section(gamma_K) is one bytes.translate.  Each row A
checks the pair (A, G) first: there alpha reaches alpha o Aut(G), so
(A, G) holds iff Aut(G) is transitive on Epi(G, A).  For sigma in
Aut(G), alpha o sigma reaches what alpha does, as gamma o sigma^-1 runs
over Epi(G, B) with gamma; so once Aut(G) is transitive one alpha
decides every pair of the row, and only a row whose (A, G) fails checks
one alpha per kernel.
"""

from __future__ import annotations

from typing import Optional

from .groups import (
    EPIMORPHISM_CAP,
    CapExceeded,
    FiniteGroup,
    GroupHom,
    Subgroup,
    _epimorphism_search,
    _image_kernels,
    all_subgroups,
    epimorphisms,
)

class FrattiniReport:
    """Frattini subgroup together with the maximal subgroups defining it."""

    __slots__ = ("frattini_subgroup", "maximal_subgroups")

    def __init__(self, frattini_subgroup: Subgroup, maximal_subgroups: tuple[Subgroup, ...]):
        self.frattini_subgroup = frattini_subgroup
        self.maximal_subgroups = maximal_subgroups

    def __repr__(self) -> str:
        return "FrattiniReport(order=%d, n_maximal=%d)" % (
            self.frattini_subgroup.order,
            len(self.maximal_subgroups),
        )


def frattini_subgroup(G: FiniteGroup) -> FrattiniReport:
    """Intersection of all maximal proper subgroups; all of G when G is trivial."""
    if G._frattini is not None:
        return G._frattini
    maximal, mask = [], (1 << G.order) - 1
    for H in reversed(all_subgroups(G)[:-1]):  # largest first, G left out
        if not any(H.mask & M.mask == H.mask for M in maximal):
            maximal.append(H)
            mask &= H.mask
    report = FrattiniReport(Subgroup._of_mask(G, mask), tuple(reversed(maximal)))
    G._frattini = report
    return report


def _covers(G: FiniteGroup, kernel: int) -> bool:
    """True iff G ->> G/N is a Frattini cover, N the normal subgroup with
    the mask kernel: iff N lies inside Phi(G), a fact about N alone."""
    return kernel & ~frattini_subgroup(G).frattini_subgroup.mask == 0


def is_frattini_cover(phi: GroupHom) -> bool:
    """True iff phi is surjective with kernel inside the Frattini subgroup.

    Equivalently, no proper subgroup of the source maps onto the target:
    a kernel element outside Phi(G) is missed by some maximal subgroup M,
    and then M ker phi = G.
    """
    return phi.is_surjective and _covers(phi.source, phi.preimage_mask(1))


class EmbeddingReport:
    """Outcome of the embedding-property search, with witnesses on failure.

    witness is None when the property holds, else a violating diagram
    (A, B, alpha, beta): no epimorphism gamma from G onto B satisfies
    beta o gamma = alpha.
    """

    __slots__ = ("holds", "witness")

    def __init__(
        self,
        holds: bool,
        witness: Optional[tuple[FiniteGroup, FiniteGroup, GroupHom, GroupHom]],
    ):
        self.holds = holds
        self.witness = witness

    def __bool__(self) -> bool:
        return self.holds

    def __repr__(self) -> str:
        if self.holds:
            return "EmbeddingReport(holds=True)"
        A, B, _, _ = self.witness
        return "EmbeddingReport(holds=False, A order %d, B order %d)" % (
            A.order,
            B.order,
        )


def _automorphism_chain(B: FiniteGroup) -> list[list[bytes]]:
    """Transversals of the stabilizer chain of Aut(B) along B's generator
    sequence g_0..g_{r-1}, as image tables in bytes.

    Level k holds one automorphism fixing g_0..g_{k-1} per image of g_k
    under those automorphisms.  Such an image has g_k's element order and
    lies outside the subgroup g_0..g_{k-1} generate; each such h not yet
    reached is asked about in index order, by the search with those slots
    held to themselves and slot k to h.  A first leaf joins the maps
    found, and the orbit of g_k under them is closed at once: t o u sends
    g_k to t(p) when u sends it to p, so the points it reaches need no
    search.  Every automorphism is then t_0 o t_1 o ... o t_{r-1} for
    exactly one t_k per level, so |Aut(B)| is the product of the level
    sizes (Holt, Eick and O'Brien, Handbook of Computational Group
    Theory, ch. 4).
    """
    gens = B.generator_sequence()
    orders = B.element_orders()
    free = [range(B.order)] * len(gens)
    chain = []
    fixed_mask = 1  # the subgroup g_0..g_{k-1} generate
    for k, g in enumerate(gens):
        fixed = [(x,) for x in gens[:k]]
        level = {g: bytes(range(B.order))}
        found: list[bytes] = []
        for h in range(B.order):
            if h in level or orders[h] != orders[g] or fixed_mask >> h & 1:
                continue
            leaf = next(_epimorphism_search(B, B, fixed + [(h,)] + free[k + 1 :]), None)
            if leaf is None:
                continue
            found.append(bytes(leaf.image_of).ljust(256, b"\0"))
            todo = list(level.items())
            for p, u in todo:
                for t in found:
                    if t[p] not in level:
                        level[t[p]] = u.translate(t)
                        todo.append((t[p], level[t[p]]))
        chain.append(list(level.values()))
        fixed_mask = B.extend_mask(fixed_mask, g)
    return chain


def _automorphisms(chain: list[list[bytes]], order: int) -> list[bytes]:
    """Aut(B) as image tables in bytes: the products of the chain's
    transversals, composed right to left, t o a being a.translate(t)."""
    auts = [bytes(range(order))]
    for level in reversed(chain):
        padded = [t.ljust(256, b"\0") for t in level]
        auts = [a.translate(t) for t in padded for a in auts]
    return auts


def _sections(kernels: list[tuple[int, bytes]], order: int) -> list[tuple[int, bytes]]:
    """(K, section of gamma_K) per kernel, the section as bytes with
    gamma_K(section[b]) = b: the first |B| bytes of
    bytes.maketrans(gamma_K, 0..n-1), which sends each b to the last x
    with gamma_K(x) = b."""
    return [
        (kernel, bytes.maketrans(gamma, bytes(range(len(gamma))))[:order])
        for kernel, gamma in kernels
    ]


def _orbit_union(
    alpha: bytes,
    kernel: int,
    sections: list[tuple[int, bytes]],
    auts: list[bytes],
    enough: Optional[int] = None,
) -> set[bytes]:
    """Image tables, as bytes, of the betas: B ->> A with beta o gamma =
    alpha for some gamma: G ->> B.

    alpha is given by its image table and kernel mask.  A gamma with
    kernel K is theta o gamma_K for one theta in Aut(B), and
    beta o theta o gamma_K = alpha iff K lies in ker alpha and
    beta o theta = a_K = alpha o section(gamma_K).  So the betas reached
    are the union of the orbits a_K o Aut(B) over those K, each a_K read
    off its section by one bytes.translate; an a_K already in the union
    brings its whole orbit with it, and is skipped.  The union stops
    growing once it holds enough betas.
    """
    by_alpha = alpha.ljust(256, b"\0")
    got: set[bytes] = set()
    for gamma_kernel, section in sections:
        if gamma_kernel & ~kernel == 0:
            a_k = section.translate(by_alpha)
            if a_k not in got:
                by_a = a_k.ljust(256, b"\0")
                got.update([theta.translate(by_a) for theta in auts])
                if len(got) == enough:
                    break
    return got


def has_embedding_property(G: FiniteGroup, bound: int = 24) -> EmbeddingReport:
    """Test over all diagrams alpha: G ->> A, beta: B ->> A, A and B
    images of G, decided orbit by orbit.

    Each image class comes with one gamma_K per kernel K and with Aut(B)
    from its stabilizer chain (_image_kernels, _automorphism_chain), so
    |Epi(G, B)| = #K |Aut(B)| is known before anything is listed, and
    held to EPIMORPHISM_CAP.  An alpha of kernel M reaches the union of
    the orbits a_K o Aut(B), K in M (_orbit_union), and a pair (A, B)
    holds iff that has |Epi(B, A)| = #{M' >= K_B} |Aut(A)| members, M'
    a kernel onto A and K_B one onto B.  Each row checks (A, G) first,
    which holds iff Aut(G) is transitive on Epi(G, A), as the alpha
    reaches alpha o Aut(G).  For sigma in Aut(G), alpha o sigma reaches
    what alpha does, since gamma o sigma^-1 runs over Epi(G, B) with
    gamma; so once Aut(G) is transitive one alpha decides every pair of
    the row.  Otherwise one alpha per kernel decides each pair: theta o
    alpha, theta in Aut(A), reaches theta o beta wherever alpha reaches
    beta.  In the first pair that fails, the witness is the first
    (beta, alpha) not reached, beta outermost, both in lexicographic
    order of their image tables.
    """
    if G.order > bound:
        raise CapExceeded("embedding-property search capped at order %d" % bound)
    classes = _image_kernels(G)
    chains = [_automorphism_chain(B) for B, _ in classes]
    for (_, kernels), chain in zip(classes, chains):
        count = len(kernels)
        for level in chain:
            count *= len(level)
        if count > EPIMORPHISM_CAP:
            raise CapExceeded("epimorphism listing capped at %d maps" % EPIMORPHISM_CAP)
    auts = [_automorphisms(chain, B.order) for (B, _), chain in zip(classes, chains)]
    sections = [_sections(kernels, B.order) for B, kernels in classes]
    top = len(classes) - 1  # G itself, the only class of its order
    for (A, onto_a), aut_a in zip(classes, auts):

        def holds(b: int, alphas: list[tuple[int, bytes]]) -> bool:
            gamma_kernel = sections[b][0][0]
            n = len(aut_a) * sum(1 for kernel, _ in onto_a if gamma_kernel & ~kernel == 0)
            return all(
                len(_orbit_union(alpha, kernel, sections[b], auts[b], n)) == n
                for kernel, alpha in alphas
            )

        transitive = holds(top, onto_a[:1])
        for b, (B, _) in enumerate(classes):
            if B.order % A.order != 0 or (transitive and b == top):
                continue
            if holds(b, onto_a[:1] if transitive else onto_a):
                continue
            alphas = epimorphisms(G, A)
            betas = epimorphisms(B, A)
            reached = [
                _orbit_union(bytes(alpha.image_of), alpha.preimage_mask(1), sections[b], auts[b])
                for alpha in alphas
            ]
            for beta in betas:
                table = bytes(beta.image_of)
                for alpha, got in zip(alphas, reached):
                    if table not in got:
                        return EmbeddingReport(False, (A, B, alpha, beta))
    return EmbeddingReport(True, None)
