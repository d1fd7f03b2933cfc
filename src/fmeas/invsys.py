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

SYSTEM_ORDER_CAP = 64
DUMP_LINES_CAP = 1_000_000

Element = Tuple[int, int]  # (mask of the normal subgroup, least coset element)


def normal_family(G: FiniteGroup) -> tuple[Subgroup, ...]:
    """All normal subgroups, ordered by index then element tuple."""
    return tuple(sorted(normal_subgroups(G), key=lambda H: (G.order // H.order, H.elements)))


class Relation:
    """A relation generated on demand: its tuples in dump order, and its size.

    A relation may also yield a shorter form of itself, which validate()
    checks in place of the tuples; each is None when there is none:
    - rectangles: for a union of class rectangles, every element of
      class N paired with every element of class M, the pairs (N, M) of
      class masks, unexpanded;
    - blocks: for the system's own C and P, the units its coset maps
      expand.  A C block is a pair (N, M) of class masks, every gN paired
      with its image in M; a P block is a class mask N, the whole product
      table of class N.
    """

    def __init__(
        self,
        tuples: Callable[[], Iterator[tuple]],
        size: int,
        rectangles: Optional[Callable[[], Iterator[tuple[int, int]]]] = None,
        blocks: Optional[Callable[[], Iterator]] = None,
    ):
        self.tuples = tuples
        self.size = size
        self.rectangles = rectangles
        self.blocks = blocks

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
    and <= are generated from _above, and their sizes read off it.  C
    and P also yield their blocks, and <= its rectangles, which
    validate() checks without expanding them.
    """

    __slots__ = (
        "group",
        "normals",
        "universe",
        "compat",
        "leq",
        "prod",
        "one",
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
        # least element of each coset gN, per family member
        rep_in, reps = {}, {}
        for N in family:
            rep_in[N.mask], reps[N.mask] = cosets(group, N.mask)
        fam = list(reps)  # family order
        above = {
            n: tuple(map(fam.__getitem__, _mask_to_elems(up))) for n, up in zip(fam, up_sets(fam))
        }
        self._fill(group, tuple(family), rep_in, reps, above)

    @classmethod
    def _restricted(cls, parent: "CompleteSystem", meet: int) -> "CompleteSystem":
        """The subsystem of parent on its members above meet, itself a
        member, read off the parent without a check or a coset pass: each
        member keeps its cosets, and its up-set, which lies in the
        subfamily."""
        family = parent._above[meet]
        self = cls.__new__(cls)
        self._fill(
            parent.group,
            tuple(parent.normals[parent._id_of[m]] for m in family),
            {m: parent._rep_in[m] for m in family},
            {m: parent._reps[m] for m in family},
            {m: parent._above[m] for m in family},
        )
        return self

    def _fill(
        self,
        group: FiniteGroup,
        normals: tuple[Subgroup, ...],
        rep_in: Dict[int, tuple[int, ...]],
        reps: Dict[int, tuple[int, ...]],
        above: Dict[int, tuple[int, ...]],
    ) -> None:
        """Set every field from the sorted family and its coset maps."""
        self.group = group
        self.normals = normals
        self._id_of = {N.mask: i for i, N in enumerate(normals)}
        self._rep_in, self._reps, self._above = rep_in, reps, above
        self.universe = tuple((n, r) for n, rs in reps.items() for r in rs)
        self.one = ((1 << group.order) - 1, 0)
        index = {mask: len(rs) for mask, rs in reps.items()}
        n_compat = n_leq = 0
        for n, up in above.items():
            n_compat += index[n] * len(up)
            n_leq += index[n] * sum(map(index.__getitem__, up))
        self.compat = Relation(self._compat, n_compat, blocks=self._comparable)
        self.leq = Relation(self._leq, n_leq, self._comparable)
        self.prod = Relation(self._prod, sum(i * i for i in index.values()), blocks=self._classes)

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

    def _comparable(self) -> Iterator[tuple[int, int]]:
        """The pairs (N, M) of classes with N inside M: the blocks of C and
        the rectangles of <=."""
        for n, above in self._above.items():
            for m in above:
                yield n, m

    def _classes(self) -> Iterator[int]:
        """The class masks in family order: the blocks of P."""
        return (N.mask for N in self.normals)

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
        return self.group.order // bin(mask).count("1")

    def class_reps(self, mask: int) -> tuple[int, ...]:
        return self._reps[mask]

    def dump(self) -> str:
        """Deterministic text form: universe lines, then C, <= and P tuples.

        Each relation is listed in its iteration order: class index, then
        representative, on every coordinate.  Each element's name is built
        once, and each class names the coset of every group element, so a
        C or P line is a lookup per coordinate; the <= lines of an element
        are one join over the names of the classes above its own.
        """
        count = len(self.universe) + len(self.compat) + len(self.leq) + len(self.prod)
        if count > DUMP_LINES_CAP:
            raise CapExceeded("system dumps capped at %d lines (got %d)" % (DUMP_LINES_CAP, count))
        names: Dict[int, list[str]] = {}  # per class, in representative order
        coset_names: Dict[int, list[str]] = {}  # per class, the name of gN per g
        for mask, reps in self._reps.items():
            names[mask] = ["N#%d rep=%d" % (self._id_of[mask], r) for r in reps]
            by_rep = dict(zip(reps, names[mask]))
            coset_names[mask] = list(map(by_rep.__getitem__, self._rep_in[mask]))
        lines: list[str] = []
        for own in names.values():
            sort = " sort=%d" % len(own)  # [G:N], the number of cosets
            lines.extend(name + sort for name in own)
        for mask, own in names.items():
            above = [coset_names[m] for m in self._above[mask]]
            for a, name in zip(self._reps[mask], own):
                head = "C " + name + " "
                lines.extend(head + to_m[a] for to_m in above)
        for mask, own in names.items():
            above = [y for m in self._above[mask] for y in names[m]]
            for name in own:
                head = "<= " + name + " "
                lines.append(head + ("\n" + head).join(above))
        t = self.group.table
        for mask, own in names.items():
            reps, to_own = self._reps[mask], coset_names[mask]
            for a, name in zip(reps, own):
                head, ta = "P " + name + " ", t[a]
                lines.extend(head + y + " " + to_own[ta[b]] for b, y in zip(reps, own))
        return "\n".join(lines) + "\n"

    def validate(self) -> None:
        """Check the axioms; raises on any failure.

        The system's own P and C are checked by their blocks, and <= by
        its rectangles, none expanded; any other iterable is checked with
        one pass over its tuples.

        The P blocks must be the classes of the universe, once each.
        Then, per class N, an accept-only pass on bytes (_quotient_holds)
        proves that N is a normal subgroup, that _rep_in[N] names each
        coset by its representative in the universe, and that P on the
        class is the product of G/N, which is more than the pass over
        the tuples asks: that P be some group.  A class it refuses takes
        that pass over P and then over C, which name the fault as
        before; if both accept, P is not G/N's product.  With the coset
        maps proved, the C blocks are checked as the rectangles are.
        """
        G = self.group
        elems = set(self.universe)
        if self.one != ((1 << G.order) - 1, 0) or self.one not in elems:
            raise GroupError("the constant is not the coset of the whole group")
        if len(elems) != len(self.universe):
            raise GroupError("the universe repeats an element")
        by_mask: Dict[int, list[int]] = {}
        for mask, r in self.universe:
            by_mask.setdefault(mask, []).append(r)
        classes = getattr(self.prod, "blocks", None)
        proved = None  # whether every class is proved G/N; None if not tried
        if classes is not None:
            # each class of the universe is one P block
            found = set()
            for n in classes():
                if n not in by_mask:
                    raise GroupError("P relates cosets outside the universe")
                if n in found:
                    raise GroupError("P is not functional")
                found.add(n)
            if len(found) != len(by_mask):
                raise GroupError("P is not total on a class")
            columns = [G.column_bytes(g) for g in range(G.order)]
            pad = bytes(256 - G.order)
            padded = [column + pad for column in columns]
            proved = all(
                self._quotient_holds(n, names, columns, padded) for n, names in by_mask.items()
            )
        if not proved:
            _check_prod(self.prod, by_mask, elems)
        comparable = want_c = want_leq = 0
        sizes = list(map(len, by_mask.values()))
        for size, up in zip(sizes, up_sets(list(by_mask))):
            above = [sizes[j] for j in _mask_to_elems(up)]
            comparable += len(above)
            want_c += size * len(above)
            want_leq += size * sum(above)
        projections = getattr(self.compat, "blocks", None)
        if proved and projections is not None:
            # C block (N, M) pairs each gN with _rep_in[M][g], the name of
            # gM, both proved above: so C is the projection graph when the
            # blocks are distinct comparable pairs of classes, all of them
            found, pairs = set(), 0
            for n, m in projections():
                if n & m != n:
                    raise GroupError("C crosses an incomparable pair of classes")
                if (n, m) in found:
                    raise GroupError("C is not functional toward a class")
                if n not in by_mask or m not in by_mask:
                    raise GroupError("C relates cosets outside the universe")
                found.add((n, m))
                pairs += len(by_mask[n])
            if len(found) != comparable or pairs != want_c:
                raise GroupError("C misses a comparable pair")
        else:
            _check_compat(self.compat, elems, G, want_c)
        if proved is False:
            raise GroupError("P is not the quotient product on a class")
        # <= compares classes by containment of the normal subgroups
        rectangles = getattr(self.leq, "rectangles", None)
        if rectangles is not None:
            # a union of class rectangles is checked one rectangle at a
            # time: distinct comparable pairs of classes, as many as there
            # are, so every such pair, expanding to every comparable pair
            found, pairs = set(), 0
            for n, m in rectangles():
                if n not in by_mask or m not in by_mask or n & m != n:
                    raise GroupError("<= does not match containment of the classes")
                found.add((n, m))
                pairs += len(by_mask[n]) * len(by_mask[m])
            if len(found) != comparable or pairs != want_leq:
                raise GroupError("<= does not match containment of the classes")
            return
        # any other relation is enumerated: each pair is comparable and in
        # the universe, and the distinct pairs, a bitmask of y per (x,
        # class of y), number all comparable pairs
        seen = {}
        for x, y in self.leq:
            if x[0] & y[0] != x[0] or x not in elems or y not in elems:
                raise GroupError("<= does not match containment of the classes")
            key = x, y[0]
            seen[key] = seen.get(key, 0) | 1 << y[1]
        if sum(b.bit_count() for b in seen.values()) != want_leq:
            raise GroupError("<= does not match containment of the classes")

    def _quotient_holds(
        self, mask: int, names: list[int], columns: list[bytes], padded: list[bytes]
    ) -> bool:
        """True when the class with this mask and these universe names is
        G/N, N the mask's elements, with P its product; False on any
        fault, or data that is not a table of names of G.

        On bytes, as systems have order at most 64, with to = _rep_in[N]
        and R = _reps[N], the universe's names:
        - N holds 0 and |R| |N| = |G|;
        - to(y*m) = y for y in R and to(m'*m) = 0 for m' in N, per m in
          N: one translate of R then N by column m, one by to.  So N is
          closed, a subgroup, and to names each left coset yN by y;
        - to(to(x)*b) = to(x*b) for every x and each b in R, P's column
          b: to(x)*b is one translate of to by column b.  Then
          to(xy) = to(x*to(y)) = to(to(x)*to(y)), so to is onto a
          group, P's table on R, with kernel N, which is so normal.
        """
        G = self.group
        n = G.order
        try:
            if not mask & 1 or mask >> n:
                return False
            R = bytes(self._reps[mask])
            to = bytes(self._rep_in[mask])
            members = bytes(G.elems_of_mask(mask))
        except (KeyError, TypeError, ValueError):
            return False
        if (
            len(to) != n
            or len(R) * len(members) != n
            or len(set(R)) != len(R)
            or set(R) != set(names)
            or max(R) >= n
        ):
            return False
        by_to = to + bytes(256 - n)
        named = R + members
        want = R + bytes(len(members))
        for m in members:
            if named.translate(padded[m]).translate(by_to) != want:
                return False
        for b in R:
            if to.translate(padded[b]).translate(by_to) != columns[b].translate(by_to):
                return False
        return True


def _check_prod(prod: Iterable, by_mask: Dict[int, list[int]], elems: set) -> None:
    """P by one pass over its triples: each class is a group under P, with
    the class of 1 as identity."""
    pos = {mask: {r: i for i, r in enumerate(sorted(reps))} for mask, reps in by_mask.items()}
    tables = {mask: [[-1] * len(p) for _ in p] for mask, p in pos.items()}
    for x, y, z in prod:
        if y[0] != x[0] or z[0] != x[0]:
            raise GroupError("P relates cosets of different classes")
        if x not in elems or y not in elems or z not in elems:
            raise GroupError("P relates cosets outside the universe")
        p, table = pos[x[0]], tables[x[0]]
        if table[p[x[1]]][p[y[1]]] != -1:
            raise GroupError("P is not functional")
        table[p[x[1]]][p[y[1]]] = p[z[1]]
    for mask, table in tables.items():
        if any(v == -1 for row in table for v in row):
            raise GroupError("P is not total on a class")
        if 0 not in pos[mask]:
            raise GroupError("a class is missing the coset of the identity")
        FiniteGroup(table)  # raises unless the class is a group


def _check_compat(compat: Iterable, elems: set, G: FiniteGroup, want_c: int) -> None:
    """C by one pass over its pairs: between comparable classes it is
    exactly the projection graph.  x lies in the coset yM iff y^-1 x is
    in M, both ends lie in the universe, and each element meets every
    class above its own once."""
    seen = set()
    for x, y in compat:
        if x[0] & y[0] != x[0]:
            raise GroupError("C crosses an incomparable pair of classes")
        if (x, y[0]) in seen:
            raise GroupError("C is not functional toward a class")
        seen.add((x, y[0]))
        if not (0 <= x[1] < G.order and y[0] >> G.table[G.inv(y[1])][x[1]] & 1):
            raise GroupError("C does not follow the canonical projection")
        if x not in elems or y not in elems:
            raise GroupError("C relates cosets outside the universe")
    if len(seen) != want_c:
        raise GroupError("C misses a comparable pair")


def complete_system(G: FiniteGroup) -> CompleteSystem:
    """The full system over every normal subgroup of G."""
    if G.order > SYSTEM_ORDER_CAP:
        raise CapExceeded(
            "complete systems capped at group order %d (got %d)" % (SYSTEM_ORDER_CAP, G.order)
        )
    return CompleteSystem(G, normal_family(G))


def generated_subsystem(S: CompleteSystem, A: Iterable[Element]) -> CompleteSystem:
    """Smallest complete subsystem containing A and the constant.

    On the families of normal subgroups this is the up-set of the meet
    of the generators' classes; whole coset classes come along with each
    family member.  The meet is a member of S's family, which is closed
    under intersection, and the subsystem is restricted from S
    (CompleteSystem._restricted): its family is S's up-set of the meet.
    """
    elems = set(S.universe)
    meet = (1 << S.group.order) - 1
    for x in A:
        if x not in elems:
            raise GroupError("generator %r is not in the universe" % (x,))
        meet &= x[0]
    return CompleteSystem._restricted(S, meet)


def dual_group(S: CompleteSystem) -> tuple[FiniteGroup, GroupHom]:
    """The group the system describes: G over the intersection of its family."""
    # the family is sorted by index; its meet is its only member of largest index
    return quotient(S.group, S.normals[-1])


def level_quotient(G: FiniteGroup, i: int) -> FiniteGroup:
    """Dual of the subsystem generated by all cosets of index at most i:
    the subsystem above the meet of the classes of index at most i."""
    if not isinstance(i, int) or isinstance(i, bool) or i < 1:
        raise GroupError("level must be a positive integer")
    S = complete_system(G)
    meet = reduce(and_, (N.mask for N in S.normals if G.order // N.order <= i))
    return dual_group(CompleteSystem._restricted(S, meet))[0]


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
