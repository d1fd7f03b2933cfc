"""Subextension lattices through the Galois correspondence.

Fields between the base field and the top field are represented by
subgroups of G, with inclusion reversed: larger fields are smaller
subgroups.  A lattice member is a subgroup H of the base subgroup whose
image under r: G -> Q = G/N is all of Q; the member list puts the
minimal (field-maximal) subgroups first, then the rest, each block in
ascending subgroup order, so inclusions only ever point backwards and
the base sits last.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .groups import (
    FiniteGroup,
    GroupError,
    GroupHom,
    Subgroup,
    quotient,
    subgroup_masks_within,
)


class GaloisSetup:
    """A finite group with a distinguished normal subgroup and generator lifts.

    G models the Galois group of the top field over the base, N the
    subgroup fixing the constants, and sigma_prime an n-tuple of lifts
    whose images generate Q = G/N.  r is the projection G -> Q.
    """

    __slots__ = ("group", "n_sub", "sigma_prime", "quotient_group", "r")

    def __init__(self, group: FiniteGroup, n_sub: Subgroup, sigma_prime: tuple[int, ...]):
        if n_sub.group is not group:
            raise GroupError("N does not live in the given group")
        if not n_sub.is_normal():
            raise GroupError("N is not normal")
        if not sigma_prime:
            raise GroupError("sigma_prime must be nonempty")
        for x in sigma_prime:
            if not isinstance(x, int) or not 0 <= x < group.order:
                raise GroupError("sigma_prime entry %r is out of range" % (x,))
        Q, r = quotient(group, n_sub)
        image_mask = 0
        for x in sigma_prime:
            image_mask |= 1 << r.image_of[x]
        if Q.closure_mask(Q.elems_of_mask(image_mask)) != (1 << Q.order) - 1:
            raise GroupError("images of sigma_prime do not generate the quotient")
        self.group = group
        self.n_sub = n_sub
        self.sigma_prime = sigma_prime
        self.quotient_group = Q
        self.r = r

    @property
    def n(self) -> int:
        return len(self.sigma_prime)

    def qualifies(self, mask: int) -> bool:
        """Does the subgroup with this mask map onto Q?"""
        return self.r.image_mask(mask) == (1 << self.quotient_group.order) - 1

    def __repr__(self) -> str:
        return "GaloisSetup(|G|=%d, |N|=%d, n=%d)" % (
            self.group.order,
            self.n_sub.order,
            self.n,
        )


def make_setup(
    G: FiniteGroup, n_gens: Iterable[int], sigma_prime: Sequence[int]
) -> GaloisSetup:
    """Verified setup from generators of N and the lift tuple."""
    return GaloisSetup(G, Subgroup(G, tuple(n_gens)), tuple(sigma_prime))


class SubextLattice:
    """All qualifying subgroups of a base subgroup, canonically ordered.

    members[:n_maximal] are the minimal qualifying subgroups (the
    maximal fields); members[-1] is the base.  F_i <= F_j in the field
    order iff members[j] is contained in members[i], which implies
    i >= j everywhere.
    """

    __slots__ = ("setup", "base", "members", "n_maximal", "index_of")

    def __init__(self, setup: GaloisSetup, base: Subgroup):
        G = setup.group
        if base.group is not G:
            raise GroupError("base subgroup does not live in the setup group")
        if not setup.qualifies(base.mask):
            raise GroupError("base subgroup does not map onto the quotient")
        qualifying = [
            m for m in subgroup_masks_within(G, base.mask) if setup.qualifies(m)
        ]
        qual_set = set(qualifying)
        minimal = {
            m
            for m in qualifying
            if not any(k != m and k & m == k for k in qual_set)
        }

        def sort_key(m: int) -> tuple:
            return (m not in minimal, bin(m).count("1"), G.elems_of_mask(m))

        ordered = sorted(qualifying, key=sort_key)
        self.setup = setup
        self.base = base
        self.members = tuple(Subgroup(G, G.elems_of_mask(m)) for m in ordered)
        self.n_maximal = len(minimal)
        self.index_of = {m: i for i, m in enumerate(ordered)}

    def __len__(self) -> int:
        return len(self.members)

    def member_index(self, H: Subgroup) -> int:
        got = self.index_of.get(H.mask)
        if got is None:
            raise GroupError("subgroup is not a lattice member")
        return got

    def is_maximal(self, i: int) -> bool:
        return i < self.n_maximal

    def leq(self, i: int, j: int) -> bool:
        """Field order: F_i <= F_j iff the subgroup of F_j is inside that of F_i."""
        mj = self.members[j].mask
        return mj & self.members[i].mask == mj

    def member_name(self, i: int) -> str:
        """Stable display name of member i, from its canonical generators."""
        return self.members[i].display_name()

    def __repr__(self) -> str:
        return "SubextLattice(%d members, %d maximal)" % (
            len(self.members),
            self.n_maximal,
        )


def s_lattice(
    setup: GaloisSetup,
    k_subgroup: Subgroup,
    *,
    confirm_n1: Optional[Subgroup] = None,
) -> SubextLattice:
    """The lattice of qualifying subgroups of k_subgroup.

    confirm_n1, when given, is a coarser normal subgroup (containing N)
    expected to select exactly the same members; a mismatch is an error.
    This mirrors the fact that regularity can be tested over a smaller
    field of constants.
    """
    lattice = SubextLattice(setup, k_subgroup)
    if confirm_n1 is not None:
        if setup.n_sub.mask & confirm_n1.mask != setup.n_sub.mask:
            raise GroupError("confirm_n1 does not contain N")
        alt = make_setup(
            setup.group, confirm_n1.elements, setup.sigma_prime
        )
        alt_members = {
            m
            for m in subgroup_masks_within(setup.group, k_subgroup.mask)
            if alt.qualifies(m)
        }
        if alt_members != set(lattice.index_of):
            raise GroupError(
                "alternative constant subgroup selects a different member set"
            )
    return lattice


def maximal_fields(lattice: SubextLattice) -> list[Subgroup]:
    """Members that are minimal as subgroups (maximal as fields)."""
    return list(lattice.members[: lattice.n_maximal])


def fix_field(lattice: SubextLattice, elements: Sequence[int]) -> Optional[Subgroup]:
    """The member generated by the elements, or None when it fails to qualify."""
    G = lattice.setup.group
    for x in elements:
        if not isinstance(x, int) or not 0 <= x < G.order:
            raise GroupError("element %r is out of range" % (x,))
        if not lattice.base.mask >> x & 1:
            raise GroupError("element %d lies outside the base subgroup" % x)
    mask = G.closure_mask(tuple(elements))
    i = lattice.index_of.get(mask)
    if i is None:
        return None
    return lattice.members[i]
