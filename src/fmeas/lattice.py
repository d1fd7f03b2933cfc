"""Subextension lattices through the Galois correspondence.

Fields between the base field and the top field are represented by
subgroups of G, with inclusion reversed: larger fields are smaller
subgroups.  A lattice member is a subgroup H of the base with HN = G,
which, N being normal, is the count |H| |N| = |G| |H n N|; the member
list puts the minimal (field-maximal) subgroups first, then the rest,
each block in ascending subgroup order, so inclusions only ever point
backwards and the base sits last.

Members are enumerated directly, not filtered from every subgroup of
the base K.  A member H meets each coset s_i N of a sigma coordinate,
inside K n s_i N, so it holds a lift L_H = (l_i t_i) of sigma with each
t_i in K n N, and H = <L_H, H n N>: every h in H has the image of some
w in <L_H>, and w^-1 h lies in H n N.  So the members are the subgroups
<l_1 t_1, ..., l_k t_k>, closed upward by elements of K n N.  Only a
greedy subsequence of sigma whose images generate Q is used: a
coordinate whose image lies in the span of the earlier ones is skipped,
and with N = G none is left, so the enumeration is that of every
subgroup of K.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .groups import (
    FiniteGroup,
    GroupError,
    Subgroup,
    subgroup_masks_within,
)


class GaloisSetup:
    """A finite group with a distinguished normal subgroup and generator lifts.

    G models the Galois group of the top field over the base, N the
    subgroup fixing the constants, and sigma_prime an n-tuple of lifts
    whose images generate Q = G/N, that is, with <N, sigma_prime> = G.
    """

    __slots__ = ("group", "n_sub", "sigma_prime")

    def __init__(self, group: FiniteGroup, n_sub: Subgroup, sigma_prime: tuple[int, ...]):
        if n_sub.group is not group:
            raise GroupError("N does not live in the given group")
        if not n_sub.is_normal():
            raise GroupError("N is not normal")
        if not sigma_prime:
            raise GroupError("sigma_prime must be nonempty")
        for x in sigma_prime:
            if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < group.order:
                raise GroupError("sigma_prime entry %r is out of range" % (x,))
        # the extensions _lift_seeds makes next, so the lattice replays them
        span = n_sub.mask
        for x in sigma_prime:
            span = group.extend_mask(span, x)
        if span != (1 << group.order) - 1:
            raise GroupError("images of sigma_prime do not generate the quotient")
        self.group = group
        self.n_sub = n_sub
        self.sigma_prime = sigma_prime

    @property
    def n(self) -> int:
        return len(self.sigma_prime)

    def qualifies(self, mask: int) -> bool:
        """Does the subgroup with this mask map onto Q, |H| |N| = |G| |H n N|?"""
        meet = (mask & self.n_sub.mask).bit_count()
        return mask.bit_count() * self.n_sub.order == self.group.order * meet

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

    They are found as H = <L_H, H n N>: seeds generated by one element of
    K n sN for each coordinate s of a greedy subsequence of sigma whose
    images generate Q, closed upward by the elements of K n N; each is
    closed once there and built from its mask, not closed again.

    members[:n_maximal] are the minimal qualifying subgroups (the
    maximal fields); members[-1] is the base.  F_i <= F_j in the field
    order iff members[j] is contained in members[i], which implies
    i >= j everywhere.  below[j] lists, ascending, the proper
    sub-members of member j; it is transitive, and empty exactly on the
    minimal members.
    """

    __slots__ = ("setup", "base", "members", "n_maximal", "index_of", "below", "_counts")

    def __init__(self, setup: GaloisSetup, base: Subgroup):
        G = setup.group
        if base.group is not G:
            raise GroupError("base subgroup does not live in the setup group")
        if not setup.qualifies(base.mask):
            raise GroupError("base subgroup does not map onto the quotient")
        # by order, then elements: every proper sub-member comes earlier
        by_size = subgroup_masks_within(G, base.mask, setup.n_sub.mask, setup.sigma_prime)
        subs = [
            [k for k, mk in zip(range(j), by_size) if mk & mj == mk]
            for j, mj in enumerate(by_size)
        ]
        # the minimal members, those with no sub-member, move to the front
        order = [j for j, sub in enumerate(subs) if not sub]
        n_maximal = len(order)
        order += [j for j, sub in enumerate(subs) if sub]
        position = sorted(range(len(order)), key=order.__getitem__)
        self.setup = setup
        self.base = base
        self.members = tuple(Subgroup._of_mask(G, by_size[j]) for j in order)
        self.n_maximal = n_maximal
        self.index_of = {by_size[j]: i for i, j in enumerate(order)}
        self.below = tuple(tuple(sorted(map(position.__getitem__, subs[j]))) for j in order)
        self._counts: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None

    def __len__(self) -> int:
        return len(self.members)

    def member_index(self, H: Subgroup) -> int:
        got = self.index_of.get(H.mask) if H.group is self.setup.group else None
        if got is None:
            raise GroupError("subgroup is not a lattice member")
        return got

    def is_maximal(self, i: int) -> bool:
        return i < self.n_maximal

    def leq(self, i: int, j: int) -> bool:
        """Field order: F_i <= F_j iff the subgroup of F_j is inside that of F_i."""
        mj = self.members[j].mask
        return mj & self.members[i].mask == mj

    def hall_counts(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(f, g): translate tuples inside, and exactly on, each member (P. Hall, 1936).

        A member H maps onto Q, so it meets each lift coordinate's coset
        of N in exactly |H n N| translates, whichever valid lift is used:
        f[j] = |H_j n N|^n translate tuples land inside H_j.  The tuples
        landing exactly on H_j number g[j] = f[j] minus g over below[j],
        whose members all come earlier.  Computed once per lattice;
        callers hold the counts to their own cap.
        """
        if self._counts is None:
            n_mask, n = self.setup.n_sub.mask, self.setup.n
            f = tuple((H.mask & n_mask).bit_count() ** n for H in self.members)
            g: list[int] = []
            for j, sub in enumerate(self.below):
                gj = f[j] - sum(g[k] for k in sub)
                if gj < 0:
                    raise RuntimeError("internal error: member %d has a negative exact count" % j)
                g.append(gj)
            self._counts = (f, tuple(g))
        return self._counts

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

    confirm_n1, when given, is a coarser normal subgroup of the setup
    group (containing N) expected to select exactly the same members; a
    mismatch is an error.  This mirrors the fact that regularity can be
    tested over a smaller field of constants.
    """
    lattice = SubextLattice(setup, k_subgroup)
    if confirm_n1 is not None:
        if confirm_n1.group is not setup.group:
            raise GroupError("confirm_n1 does not live in the setup group")
        if setup.n_sub.mask & confirm_n1.mask != setup.n_sub.mask:
            raise GroupError("confirm_n1 does not contain N")
        alt = GaloisSetup(setup.group, confirm_n1, setup.sigma_prime)
        alt_members = set(
            subgroup_masks_within(
                setup.group, k_subgroup.mask, alt.n_sub.mask, alt.sigma_prime
            )
        )
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
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < G.order:
            raise GroupError("element %r is out of range" % (x,))
        if not lattice.base.mask >> x & 1:
            raise GroupError("element %d lies outside the base subgroup" % x)
    mask = G.closure_mask(tuple(elements))
    i = lattice.index_of.get(mask)
    if i is None:
        return None
    return lattice.members[i]
