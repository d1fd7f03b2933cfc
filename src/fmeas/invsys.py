"""Finite groups as many-sorted coset structures.

A complete system collects the quotients G/N of one finite group into a
single relational structure: the universe is the disjoint union of the
coset spaces, C relates a coset to its image under the canonical
projection wherever N is contained in M, the order relation compares
elements by that containment alone, and P is the multiplication graph
within each quotient.  Complete subsystems correspond to families of
normal subgroups that contain G and are closed under intersection and
under passing to larger normal subgroups.  Such a family is the up-set
of its meet N0, every normal subgroup above N0, and the dual group of
the subsystem recovers G/N0.
"""

from __future__ import annotations

from functools import reduce
from operator import and_
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple

from .groups import (
    DEFAULT_ORDER_CAP,
    CapExceeded,
    FiniteGroup,
    GroupError,
    GroupHom,
    Subgroup,
    _mask_to_elems,
    cosets,
    normal_subgroups,
    quotient,
    up_sets,
)

DUMP_LINES_CAP = 1_000_000

Element = Tuple[int, int]  # (mask of the normal subgroup, least coset element)


def normal_family(G: FiniteGroup) -> tuple[Subgroup, ...]:
    """All normal subgroups, ordered by index then element tuple."""
    return tuple(sorted(normal_subgroups(G), key=lambda H: (G.order // H.order, H.elements)))


class Relation:
    """A relation generated on demand: its tuples in dump order, and its size."""

    def __init__(self, tuples: Callable[[], Iterator[tuple]], size: int):
        self.tuples = tuples
        self.size = size

    def __iter__(self) -> Iterator[tuple]:
        return self.tuples()

    def __len__(self) -> int:
        return self.size


class CompleteSystem:
    """Cosets of a closed family of normal subgroups with C, <=, P.

    Universe elements are (mask, rep) pairs naming the coset rep*N by
    the least element it contains, so a subsystem's universe is a
    literal subset of the parent's.  Relations are generated from those
    representatives and the group table, never stored.  _rep_in[N]
    names the coset of every group element, _reps[N] lists the names,
    and _above[N] holds the family masks above N, in family order: C
    and <= are generated from _above, and their sizes read off it.
    validate() checks these class data, which is to check the relations
    they generate, without expanding any.  Every system, a generated
    subsystem too, is built and checked here.

    compat, leq and prod are properties: each call makes a Relation
    from the sizes counted at construction.  A stored Relation would
    hold a bound method of its own system, a reference cycle that keeps
    every dropped system and its class data alive until the cyclic
    garbage collector runs; without it a system is freed as soon as the
    last reference to it goes.
    """

    __slots__ = (
        "group",
        "normals",
        "universe",
        "one",
        "_sizes",
        "_rep_in",
        "_reps",
        "_above",
        "_id_of",
    )

    def __init__(self, group: FiniteGroup, normals: Iterable[Subgroup]):
        family = list(normals)
        normal_masks = {M.mask for M in normal_subgroups(group)}
        masks = set()
        for N in family:
            if N.group is not group:
                raise GroupError("subgroup does not live in the given group")
            if N.mask not in normal_masks:
                raise GroupError("family member %r is not normal" % (N,))
            if N.mask in masks:
                raise GroupError("duplicate normal subgroup in the family")
            masks.add(N.mask)
        full = (1 << group.order) - 1
        if full not in masks:
            raise GroupError("the family must contain the whole group")
        upward = not any(
            M not in masks and any(m & M == m for m in masks) for M in normal_masks
        )
        # an upward closed family is every normal M above its meet N0, so
        # it is closed under intersection iff N0 is a member
        meet = reduce(and_, masks)
        closed = meet in masks if upward else all(a & b in masks for a in masks for b in masks)
        if not closed:
            raise GroupError("the family is not closed under intersection")
        if not upward:
            raise GroupError("the family is not upward closed")
        family.sort(key=lambda H: (group.order // H.order, H.elements))
        self.group = group
        self.normals = tuple(family)
        self._id_of = {N.mask: i for i, N in enumerate(family)}
        # least element of each coset gN, per family member
        self._rep_in, self._reps = {}, {}
        for N in family:
            self._rep_in[N.mask], self._reps[N.mask] = cosets(group, N.mask)
        fam = list(self._reps)  # family order
        self._above = {
            n: tuple(map(fam.__getitem__, _mask_to_elems(up)))
            for n, up in zip(fam, up_sets(group, fam))
        }
        self.universe = tuple((n, r) for n, rs in self._reps.items() for r in rs)
        self.one = (full, 0)
        index = {mask: len(rs) for mask, rs in self._reps.items()}
        n_compat = n_leq = 0
        for n, up in self._above.items():
            n_compat += index[n] * len(up)
            n_leq += index[n] * sum(map(index.__getitem__, up))
        self._sizes = (n_compat, n_leq, sum(i * i for i in index.values()))

    @property
    def compat(self) -> Relation:
        return Relation(self._compat, self._sizes[0])

    @property
    def leq(self) -> Relation:
        return Relation(self._leq, self._sizes[1])

    @property
    def prod(self) -> Relation:
        return Relation(self._prod, self._sizes[2])

    def _compat(self) -> Iterator[tuple[Element, Element]]:
        for N in self.normals:
            above = [(m, self._rep_in[m]) for m in self._above[N.mask]]
            for a in self._reps[N.mask]:
                for m, to_m in above:
                    yield (N.mask, a), (m, to_m[a])

    def _leq(self) -> Iterator[tuple[Element, Element]]:
        for x, (m, _) in self._compat():
            for b in self._reps[m]:
                yield x, (m, b)

    def _prod(self) -> Iterator[tuple[Element, Element, Element]]:
        t = self.group.table
        for N in self.normals:
            to_n = self._rep_in[N.mask]
            for a in self._reps[N.mask]:
                for b in self._reps[N.mask]:
                    yield (N.mask, a), (N.mask, b), (N.mask, to_n[t[a][b]])

    def __repr__(self) -> str:
        return "CompleteSystem(%d classes, %d elements)" % (
            len(self.normals),
            len(self.universe),
        )

    def sort_of(self, x: Element) -> int:
        """The index [G:N] of the element's class."""
        mask, rep = x
        if (
            mask not in self._id_of
            or not 0 <= rep < self.group.order
            or self._rep_in[mask][rep] != rep
        ):
            raise GroupError("element is not in the universe")
        return self.group.order // mask.bit_count()

    def class_reps(self, mask: int) -> tuple[int, ...]:
        return self._reps[mask]

    def dump(self) -> str:
        """Deterministic text form: universe lines, then C, <= and P tuples.

        The dump is the join of dump_blocks(), so a caller that writes
        the blocks as they come never holds more than one of them.
        """
        return "".join(self.dump_blocks())

    def dump_blocks(self) -> Iterator[str]:
        """The dump as blocks of whole lines, each ending in a newline.

        The line count is checked against DUMP_LINES_CAP here, before any
        block is made.  The universe, C and P lines come in one block per
        class, and the <= lines in one block per element, as an element
        of the least class lies below the whole universe (2,451 lines on
        C2^5, 78,432 for its class).  Each section runs over the classes
        in family order, so each relation comes out in its iteration
        order: class index, then representative, on every coordinate.
        """
        count = len(self.universe) + sum(self._sizes)
        if count > DUMP_LINES_CAP:
            raise CapExceeded("system dumps capped at %d lines (got %d)" % (DUMP_LINES_CAP, count))
        return self._blocks()

    def _blocks(self) -> Iterator[str]:
        """dump_blocks() past its cap check.  Each element's name is built
        once, and each class names the coset of every group element, so a
        C or P line is a lookup per coordinate; the <= lines of an element
        are one join over the names of the classes above its own.
        """
        names: Dict[int, list[str]] = {}  # per class, in representative order
        coset_names: Dict[int, list[str]] = {}  # per class, the name of gN per g
        for mask, reps in self._reps.items():
            names[mask] = ["N#%d rep=%d" % (self._id_of[mask], r) for r in reps]
            by_rep = dict(zip(reps, names[mask]))
            coset_names[mask] = list(map(by_rep.__getitem__, self._rep_in[mask]))

        def block(lines: list[str]) -> str:
            lines.append("")  # so the join ends the last line too
            return "\n".join(lines)

        for own in names.values():
            sort = " sort=%d" % len(own)  # [G:N], the number of cosets
            yield block([name + sort for name in own])
        for mask, own in names.items():
            above = [coset_names[m] for m in self._above[mask]]
            lines: list[str] = []
            for a, name in zip(self._reps[mask], own):
                head = "C " + name + " "
                lines.extend(head + to_m[a] for to_m in above)
            yield block(lines)
        for mask, own in names.items():
            above = [y for m in self._above[mask] for y in names[m]]
            for name in own:
                head = "<= " + name + " "
                yield head + ("\n" + head).join(above) + "\n"
        t = self.group.table
        for mask, own in names.items():
            reps, to_own = self._reps[mask], coset_names[mask]
            lines = []
            for a, name in zip(reps, own):
                head, ta = "P " + name + " ", t[a]
                lines.extend(head + y + " " + to_own[ta[b]] for b, y in zip(reps, own))
            yield block(lines)

    def validate(self) -> None:
        """Check the axioms; raises on any failure.

        C, <= and P are generated from the class data, so the data are
        checked and no relation is read:
        - normals, _reps, _rep_in and _above list the same classes, in
          family order;
        - the constant is the coset of the whole group, and the universe
          is the classes' names in order, none repeated;
        - per class, a pass on bytes (_class_fault) proves that the class
          is a normal subgroup N, that _rep_in[N] names each coset by
          its name in the universe, and that P on the class is the
          product of G/N; so C is the projection graph wherever _above
          pairs two classes;
        - each _above[N] is, in family order, the classes containing N:
          one bitset over the family, compared with the one up_sets
          gives, neither decoded; so <= is containment of the classes,
          and C is defined exactly on the comparable pairs.
        """
        G = self.group
        family = [N.mask for N in self.normals]
        if not family == list(self._reps) == list(self._rep_in) == list(self._above):
            raise GroupError("the class data do not list the classes of the family")
        elems = set(self.universe)
        if self.one != ((1 << G.order) - 1, 0) or self.one not in elems:
            raise GroupError("the constant is not the coset of the whole group")
        if len(elems) != len(self.universe):
            raise GroupError("the universe repeats an element")
        if self.universe != tuple((n, r) for n in family for r in self._reps[n]):
            raise GroupError("P relates cosets outside the universe")
        order = G.order
        flat = b"".join(map(bytes, G.table))
        columns = [flat[g::order] for g in range(order)]
        pad = bytes(256 - order)
        padded = [column + pad for column in columns]
        for n in family:
            fault = self._class_fault(n, columns, padded)
            if fault is not None:
                raise GroupError(fault)
        # _above[n] as bits over family positions, 0 for a mask outside
        # the family: k bits add up to a k-bit up-set only when they are
        # distinct and nonzero, and then ascend in family order
        bit = {m: 1 << i for i, m in enumerate(family)}
        for n, up in zip(family, up_sets(G, family)):
            bits = [bit.get(m, 0) for m in self._above[n]]
            if sum(bits) != up or len(bits) != up.bit_count() or bits != sorted(bits):
                raise GroupError("<= does not match containment of the classes")

    def _class_fault(self, mask: int, columns: list[bytes], padded: list[bytes]) -> Optional[str]:
        """The fault in the class with this mask, or None when the class
        is G/N, N the mask's elements, with P its product.

        On bytes, as systems have order at most 64, with to = _rep_in[N]
        and R = _reps[N], the class's names in the universe:
        - every value of to is in R, else P relates cosets outside the
          universe;
        - |R| |N| = |G|, and to(y*m) = y for y in R and to(m'*m) = 0
          for m' in N, per m in N: one translate of R then N by column
          m, one by to.  So y*m runs over G once, N is closed, a
          subgroup, and to names each left coset yN by y; else C does
          not follow the canonical projection;
        - to(to(x)*b) = to(x*b) for every x and each b in R, P's column
          b: to(x)*b is one translate of to by column b.  Then
          to(xy) = to(x*to(y)) = to(to(x)*to(y)), so to is onto a group,
          P's table on R, with kernel N, which is so normal; else P is
          not the quotient product on the class.
        """
        G = self.group
        n = G.order
        try:
            R = bytes(self._reps[mask])
            to = bytes(self._rep_in[mask])
        except (TypeError, ValueError):
            return "P relates cosets outside the universe"
        if not set(to) <= set(R):
            return "P relates cosets outside the universe"
        if mask >> n or len(to) != n:
            return "C does not follow the canonical projection"
        members = bytes(G.elems_of_mask(mask))
        if len(R) * len(members) != n:
            return "C does not follow the canonical projection"
        by_to = to + bytes(256 - n)
        named = R + members
        want = R + bytes(len(members))
        for m in members:
            if named.translate(padded[m]).translate(by_to) != want:
                return "C does not follow the canonical projection"
        for b in R:
            if to.translate(padded[b]).translate(by_to) != columns[b].translate(by_to):
                return "P is not the quotient product on a class"
        return None


def _check_system_order(G: FiniteGroup) -> None:
    if G.order > DEFAULT_ORDER_CAP:
        raise CapExceeded(
            "complete systems capped at group order %d (got %d)" % (DEFAULT_ORDER_CAP, G.order)
        )


def _level_kernel(G: FiniteGroup, i: int) -> Subgroup:
    """N_i, the meet of the normal subgroups of index at most i, itself one."""
    normals = normal_subgroups(G)
    meet = reduce(and_, (N.mask for N in normals if G.order // N.order <= i))
    return next(N for N in normals if N.mask == meet)


def complete_system(G: FiniteGroup) -> CompleteSystem:
    """The full system over every normal subgroup of G."""
    _check_system_order(G)
    return CompleteSystem(G, normal_family(G))


def generated_subsystem(S: CompleteSystem, A: Iterable[Element]) -> CompleteSystem:
    """Smallest complete subsystem containing A and the constant.

    On the families of normal subgroups this is the up-set of the meet
    of the generators' classes; whole coset classes come along with each
    family member.  The meet is a member of S's family, which is closed
    under intersection, and the subsystem is built afresh on S's members
    above it.
    """
    elems = set(S.universe)
    meet = (1 << S.group.order) - 1
    for x in A:
        if x not in elems:
            raise GroupError("generator %r is not in the universe" % (x,))
        meet &= x[0]
    return CompleteSystem(S.group, [N for N in S.normals if meet & N.mask == meet])


def dual_group(S: CompleteSystem) -> tuple[FiniteGroup, GroupHom]:
    """The group the system describes: G over the intersection of its family."""
    # the family is sorted by index; its meet is its only member of largest index
    return quotient(S.group, S.normals[-1])


def level_quotient(G: FiniteGroup, i: int) -> FiniteGroup:
    """G/N_i: the dual of the subsystem generated by all cosets of index
    at most i, which lies above N_i, found with no system built but under
    the order cap of complete systems."""
    if not isinstance(i, int) or isinstance(i, bool) or i < 1:
        raise GroupError("level must be a positive integer")
    _check_system_order(G)
    return quotient(G, _level_kernel(G, i))[0]


class SystemEmbedding:
    """Injective relation-preserving map of complete systems."""

    __slots__ = ("source", "target", "image_of")

    def __init__(
        self, source: CompleteSystem, target: CompleteSystem, image_of: Dict[Element, Element]
    ):
        if set(image_of) != set(source.universe):
            raise GroupError("embedding must be defined on the whole source universe")
        values = list(image_of.values())
        if len(set(values)) != len(values):
            raise GroupError("embedding is not injective")
        missing = set(values) - set(target.universe)
        if missing:
            raise GroupError("embedding lands outside the target universe")
        self.source = source
        self.target = target
        self.image_of = dict(image_of)

    def __call__(self, x: Element) -> Element:
        return self.image_of[x]

    def __repr__(self) -> str:
        return "SystemEmbedding(%d -> %d elements)" % (
            len(self.source.universe),
            len(self.target.universe),
        )


def dual_embedding(phi: GroupHom, target: Optional[CompleteSystem] = None) -> SystemEmbedding:
    """An epimorphism G -> H read backwards as a map of systems.

    Each coset h*M of H goes to its full preimage under phi, which is a
    coset of the preimage of M; every relation transfers verbatim.  The
    target is the complete system of G, built here unless given.
    """
    if not phi.is_surjective:
        raise GroupError("dual embedding needs a surjective homomorphism")
    G, H = phi.source, phi.target
    source = complete_system(H)
    if target is None:
        target = complete_system(G)
    elif target.group is not G or len(target.normals) != len(normal_subgroups(G)):
        raise GroupError("dual embedding target is not the complete system of the source group")
    least = {phi.image_of[g]: g for g in reversed(range(G.order))}  # least preimage of each h
    image_of: Dict[Element, Element] = {}
    for M in source.normals:
        pre_mask = phi.preimage_mask(M.mask)
        for h in source.class_reps(M.mask):
            image_of[(M.mask, h)] = (pre_mask, target._rep_in[pre_mask][least[h]])
    return SystemEmbedding(source, target, image_of)
