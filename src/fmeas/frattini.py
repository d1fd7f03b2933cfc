"""Frattini subgroups, cover checking, and the embedding property.

An epimorphism is a Frattini cover exactly when its kernel lies inside
the Frattini subgroup of the source, the set of non-generators (Fried
and Jarden, Field Arithmetic, the chapter on Frattini covers), so the
cover check is one mask test against the cached Frattini subgroup.
That subgroup is the meet of the maximal subgroups, found largest
first: every proper subgroup lies in a maximal one, so a subgroup is
maximal iff no larger maximal subgroup contains it.  The report is
cached on its group, like the group's subgroup list, so it lives and
dies with the group.

The embedding-property search computes Epi(G, B) once per image B of G
and reads both the alphas and the gammas onto B from that one list.  It
never composes maps: an epimorphism gamma: G ->> B factors an alpha
through the unique beta with beta o gamma = alpha exactly when ker gamma
lies in ker alpha, so the betas an alpha reaches are read off the gammas
by a kernel test.
"""

from __future__ import annotations

from typing import Optional

from .groups import (
    DEFAULT_ORDER_CAP,
    CapExceeded,
    FiniteGroup,
    GroupError,
    GroupHom,
    Subgroup,
    _check_order_cap,
    _subgroups_within,
    all_subgroups,
    epimorphisms,
    image_classes,
)

# per image byte, its digit in the binary numeral of the kernel mask
_KERNEL_DIGITS = b"1" + b"0" * 255

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
    if G.order > DEFAULT_ORDER_CAP:
        raise CapExceeded("Frattini computation capped at order %d" % DEFAULT_ORDER_CAP)
    maximal, mask = [], (1 << G.order) - 1
    for H in reversed(all_subgroups(G)[:-1]):  # largest first, G left out
        if not any(H.mask & M.mask == H.mask for M in maximal):
            maximal.append(H)
            mask &= H.mask
    report = FrattiniReport(Subgroup._of_mask(G, mask), tuple(reversed(maximal)))
    G._frattini = report
    return report


def is_frattini_cover(phi: GroupHom) -> bool:
    """True iff phi is surjective with kernel inside the Frattini subgroup.

    Equivalently, no proper subgroup of the source maps onto the target:
    a kernel element outside Phi(G) is missed by some maximal subgroup M,
    and then M ker phi = G.
    """
    if not phi.is_surjective:
        return False
    return phi.preimage_mask(1) & ~frattini_subgroup(phi.source).frattini_subgroup.mask == 0


def is_frattini_restriction(H: Subgroup, r: GroupHom) -> bool:
    """True iff no proper subgroup of H still maps onto the target of r.

    The subgroups of H are searched lazily, the trivial one first, and
    the search stops at the first proper one that maps onto the target.
    """
    G = H.group
    if r.source is not G:
        raise GroupError("r is not defined on the parent group of H")
    full_target = (1 << r.target.order) - 1
    if r.image_mask(H.mask) != full_target:
        raise GroupError("restriction of r to H is not surjective")
    _check_order_cap(H.order)
    for mask in _subgroups_within(G, [(1, 0)], H.mask):
        if mask != H.mask and r.image_mask(mask) == full_target:
            return False
    return True


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


def _factorings(gammas: list[GroupHom]) -> list[tuple[int, bytes]]:
    """(ker gamma, section) per gamma, where gamma(section[b]) = b; the
    section as bytes, since _reached relabels it (sources have order at
    most DEFAULT_ORDER_CAP).

    Both are read off the image table as bytes.  The section is the
    first |B| bytes of bytes.maketrans(image, 0..n-1), which sends each
    b to the last x with gamma(x) = b.  The kernel mask is the image
    translated into a binary string, "1" where gamma(x) = 0, read in
    reverse as a base-2 numeral.
    """
    out = []
    for gamma in gammas:
        image = bytes(gamma.image_of)
        section = bytes.maketrans(image, bytes(range(len(image))))[: gamma.target.order]
        out.append((int(image.translate(_KERNEL_DIGITS)[::-1], 2), section))
    return out


def _reached(
    kernel: int,
    image: tuple[int, ...],
    factorings: list[tuple[int, bytes]],
    enough: Optional[int] = None,
) -> set[bytes]:
    """Image tables, as bytes, of the betas with beta o gamma = alpha for
    some gamma.

    alpha is given by its kernel mask and image table.  Such a beta
    exists iff ker gamma lies in ker alpha, and it is then
    beta[gamma(x)] = alpha(x): the section of gamma relabelled by alpha,
    one bytes.translate.  The search stops once enough betas are found.
    """
    by_alpha = bytes(image) + bytes(256 - len(image))
    got = set()
    for gamma_kernel, section in factorings:
        if gamma_kernel & ~kernel == 0:
            got.add(section.translate(by_alpha))
            if len(got) == enough:
                break
    return got


def _onto_count(alpha_kernels: list[int], gamma_kernel: int) -> int:
    """|Epi(B, A)|, from the kernels of Epi(G, A) and of one gamma: G ->> B.

    beta -> beta o gamma is a bijection from Epi(B, A) onto the alphas
    whose kernel holds ker gamma.
    """
    return sum(1 for kernel in alpha_kernels if gamma_kernel & ~kernel == 0)


def has_embedding_property(G: FiniteGroup, bound: int = 24) -> EmbeddingReport:
    """Exhaustive test over all diagrams alpha: G ->> A, beta: B ->> A.

    A and B run over the images of G, and Epi(G, B) is computed once per
    image, serving as the alphas onto it and as the gammas onto it.  An
    alpha reaches one beta per gamma whose kernel lies in ker alpha (see
    _reached), and a pair (A, B) holds iff every alpha reaches all of
    Epi(B, A), whose size _onto_count reads off the kernels; only a
    failing pair lists Epi(B, A).  For theta in Aut(A), theta o alpha
    reaches theta o beta wherever alpha reaches beta, as many betas, so
    one alpha per kernel decides the pair.  In the first pair that
    fails, the witness is the first (beta, alpha) not reached, beta
    outermost, both in lexicographic order of their image tables.
    """
    if G.order > bound:
        raise CapExceeded("embedding-property search capped at order %d" % bound)
    images = image_classes(G)
    epis = [epimorphisms(G, B) for B in images]
    factorings = [_factorings(gammas) for gammas in epis]
    for A, alphas, onto_a in zip(images, epis, factorings):
        kernels = [kernel for kernel, _ in onto_a]
        by_kernel = {}
        for kernel, alpha in zip(kernels, alphas):
            by_kernel.setdefault(kernel, alpha.image_of)
        for B, onto_b in zip(images, factorings):
            if B.order % A.order != 0:
                continue
            n = _onto_count(kernels, onto_b[0][0])
            if all(len(_reached(k, img, onto_b, n)) == n for k, img in by_kernel.items()):
                continue
            betas = epimorphisms(B, A)
            reached = [_reached(k, alpha.image_of, onto_b) for k, alpha in zip(kernels, alphas)]
            for beta in betas:
                table = bytes(beta.image_of)
                for alpha, got in zip(alphas, reached):
                    if table not in got:
                        return EmbeddingReport(False, (A, B, alpha, beta))
    return EmbeddingReport(True, None)
