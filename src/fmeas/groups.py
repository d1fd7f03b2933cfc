"""Finite groups on canonical element indices.

A group of order m lives on element indices 0..m-1, and index 0 is
always the identity.  Groups are built from an explicit Cayley table,
fully verified at construction in one ordered pass over its rows as
byte strings, up to order TABLE_ORDER_CAP, or from permutation
generators, and are immutable afterwards.  Homomorphisms given by the
caller are verified in full too, by the one homomorphism check,
_hom_defect: a loop over the pairs (x, g) of an element and a
generator, x outermost, that names the first pair whose images
disagree.  Four kinds of object are derived, not checked, because the
code that builds them proves them: the table of a permutation group,
read off its Cayley graph; a quotient G/N with its projection, once N
is known to be normal in G; the stock constructions (cyclic, dihedral,
dicyclic, direct products, and semidirect products once the action is
checked); and each epimorphism the search returns.  Every derived
table goes through one constructor, FiniteGroup._derived, so no table
the program builds is checked, at any order.  The tests hold all four
to the full checks.

Subgroups carry their elements both as a sorted tuple (the canonical,
hashable form) and as a bitmask.  There is one closure routine,
FiniteGroup.extend_mask, which grows <H, x> from a subgroup H one left
coset of H at a time; closure_mask folds it over a generator list,
_greedy_generators over candidates until a target subgroup is reached
(a group's generator sequence, a subgroup's canonical generators), and
subgroup enumeration is a reverse search (Avis and Fukuda, 1996): each
subgroup is reached from exactly one canonical seed along exactly one
chain of extensions by elements of an extension set, each the least
element the subgroup still lacks, so it is closed once, and it is
built from its mask (Subgroup._of_mask), not closed again.  There is
likewise one homomorphism search, _epimorphism_search, over the images
of the generator sequence: epimorphisms lists it, and isomorphic asks
it for a first epimorphism between groups of equal order.  There is one
classification routine, _image_kernels: per isomorphism class B of
quotients of G it returns every normal K with G/K isomorphic to B and
one map per kernel, gamma_K = iso o pi_K, iso the first leaf the
isomorphism test finds; image_classes reads it.  The embedding search
(frattini) builds on both: Aut(B) from a stabilizer chain along B's
generator sequence, each level asking the search for first leaves with
per-slot allowed images; |Epi(G, B)| = #K |Aut(B)| held to
EPIMORPHISM_CAP by count, before anything is listed; and the pair
(A, G) first, where an alpha reaches alpha o Aut(G), so it holds iff
Aut(G) is transitive on Epi(G, A), and then one alpha decides the row,
as alpha o sigma reaches what alpha does for sigma in Aut(G).
Quotients rest on three more routines, one of each kind: cosets names
each coset gN by its least element, GroupHom.preimage_mask pulls a mask
back, and up_sets lists the members of a family above each member.
Each group has one route per subgroup list: its cache, else its own
search, or for the normal subgroups of a non-abelian group, the normal
members of its cached subgroups or, with none cached, joins of its
conjugacy classes, with no search.
Subgroup enumeration and isomorphism testing are supported up to order
64.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, countOf, eq
from typing import Iterable, Iterator, Optional, Sequence

DEFAULT_ORDER_CAP = 64
# the largest order a byte can index: a hand-written table is checked as
# one byte string per row
TABLE_ORDER_CAP = 256
PERM_POINTS_CAP = 16
PERM_CLOSURE_CAP = 4096
# bound on distinct generators times closure size, the products the
# permutation closure composes: 1.6 to 3.5 us each on a shared 2-core
# x86-64 machine (CPython 3.11), so 0.4 to 0.9 s, within the 1 s that
# reading the table of a closure at PERM_CLOSURE_CAP takes; D4^4 (order
# 4,096) admits 64 generators
PERM_PRODUCTS_CAP = 2**18
EPIMORPHISM_CAP = 100_000


class GroupError(ValueError):
    """A group axiom, a precondition, or input validation failed."""


class CapExceeded(RuntimeError):
    """A configured size or enumeration cap would be exceeded."""


def _mask_to_elems(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _scan_entries(rows: tuple, n: int) -> None:
    """Name the first row that is not n long or entry that is no element
    index below n, a plain int or an int subclass but no bool."""
    for row in rows:
        if len(row) != n:
            raise GroupError("multiplication table is not square")
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise GroupError("table entry %r is not an element index" % (v,))


class FiniteGroup:
    """An immutable finite group given by a verified Cayley table.

    table[a][b] is the index of a*b.  Instances compare by identity;
    structural comparison is what isomorphic() is for.

    A hand-written table is checked in one ordered pass over its rows as
    byte strings, so it is held to TABLE_ORDER_CAP, the largest order a
    byte can index.  Each check names the first fault it finds: entries,
    then labels, identity, Latin rows and columns, inverses and Light's
    test.  The program's own tables take none of them (_derived).
    """

    def __init__(self, table: Sequence[Sequence[int]], labels: Optional[Sequence[str]] = None):
        if not isinstance(table, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) for row in table
        ):
            raise GroupError("multiplication table must be a list of rows")
        n = len(table)
        if n == 0:
            raise GroupError("empty multiplication table")
        if n > TABLE_ORDER_CAP:
            raise CapExceeded(
                "multiplication tables capped at order %d (got %d)" % (TABLE_ORDER_CAP, n)
            )
        rows = tuple(tuple(row) for row in table)
        ident = bytes(range(n))
        # bytes() refuses, at C speed, what has no __index__ in 0..255, but
        # takes bools and other objects with such an __index__, so the
        # types are counted too.  Only a table this refuses, or one with
        # int subclasses, is scanned entry by entry
        try:
            row_bytes = list(map(bytes, rows))
        except (TypeError, ValueError):
            row_bytes = None
        flat = b"".join(row_bytes or ())
        if (
            row_bytes is None
            or set(map(len, rows)) != {n}
            or not all(countOf(map(type, row), int) == n for row in rows)
            or flat.translate(None, ident)
        ):
            # a table the scan passes holds ints in 0..n-1, so bytes() took it
            _scan_entries(rows, n)
        if labels is None:
            self.labels: Optional[tuple[str, ...]] = None
        else:
            if len(labels) != n:
                raise GroupError("label count does not match group order")
            self.labels = tuple(str(x) for x in labels)
            if len(set(self.labels)) != n:
                raise GroupError("element labels must be distinct")
        if row_bytes[0] != ident:
            raise GroupError("element 0 is not a left identity")
        if flat[::n] != ident:
            raise GroupError("element 0 is not a right identity")
        # a row or column holds every index when deleting its bytes from
        # 0..n-1 leaves nothing
        for a in range(n):
            if ident.translate(None, row_bytes[a]):
                raise GroupError("row %d is not a permutation; not a group table" % a)
            if ident.translate(None, flat[a::n]):
                raise GroupError("column %d is not a permutation; not a group table" % a)
        inverse = tuple(row.index(0) for row in row_bytes)
        for a, b in enumerate(inverse):
            if row_bytes[b][a]:
                raise GroupError("element %d has no two-sided inverse" % a)
        self.order = n
        self.table = rows
        self._init_caches()
        self._inverse = inverse
        # Light's test in its left form, a(xy) = (ax)y, on each generator
        # a: the whole table relabelled by row a, one translate, against
        # the rows ax in order.  The a that pass are closed under the
        # product: if a and b pass, ((ab)x)y = (a(bx))y = a((bx)y) =
        # a(b(xy)) = (ab)(xy).  The identity passes, and extend_mask marks
        # only products of 0 and generators, so passing every generator
        # makes the table associative
        pad = bytes(256 - n)
        for a in self.generator_sequence():
            ta = row_bytes[a]
            left = flat.translate(ta + pad)
            right = b"".join(map(row_bytes.__getitem__, ta))
            if left != right:
                i = next(i for i, (u, v) in enumerate(zip(left, right)) if u != v)
                raise GroupError("non-associative triple (%d, %d, %d)" % (a, *divmod(i, n)))

    def _init_caches(self) -> None:
        """Empty the caches, all derived from the table and deterministic."""
        self._mask_elems: dict[int, tuple[int, ...]] = {1: (0,)}
        self._extend_memo: dict[tuple[int, int], int] = {}
        self._subgroups: Optional[tuple["Subgroup", ...]] = None
        self._normals: Optional[tuple["Subgroup", ...]] = None
        self._quotients: dict[int, tuple["FiniteGroup", "GroupHom"]] = {}
        self._element_orders: Optional[tuple[int, ...]] = None
        self._fingerprint: Optional[tuple] = None
        self._gen_sequence: Optional[tuple[int, ...]] = None
        self._search_steps: Optional[list] = None  # _prefix_steps on the generator sequence
        self._frattini: Optional["FrattiniReport"] = None  # set by frattini_subgroup

    @classmethod
    def _derived(
        cls, table: tuple, labels: Optional[tuple] = None, inverse: Optional[tuple] = None
    ) -> "FiniteGroup":
        """A group on a table of tuples its caller has built as a group's,
        0 the identity, with its labels, taken unchecked.  The inverses
        are read off the rows, where each holds 0, unless given."""
        self = cls.__new__(cls)
        self.order = len(table)
        self.table = table
        self.labels = labels
        self._init_caches()
        self._inverse = tuple(row.index(0) for row in table) if inverse is None else inverse
        return self

    # -- basic queries -------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inverse[a]

    def conj(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        t = self.table
        return t[t[g][x]][self._inverse[g]]

    def label(self, a: int) -> str:
        if self.labels is not None:
            return self.labels[a]
        return str(a)

    def element_orders(self) -> tuple[int, ...]:
        if self._element_orders is None:
            out = []
            for a in range(self.order):
                k = 1
                x = a
                while x != 0:
                    x = self.table[x][a]
                    k += 1
                out.append(k)
            self._element_orders = tuple(out)
        return self._element_orders

    def element_order(self, a: int) -> int:
        return self.element_orders()[a]

    def is_abelian(self) -> bool:
        t = self.table
        return all(map(eq, t, zip(*t)))

    def __repr__(self) -> str:
        return "FiniteGroup(order=%d)" % self.order

    # -- closure machinery ---------------------------------------------

    def elems_of_mask(self, mask: int) -> tuple[int, ...]:
        got = self._mask_elems.get(mask)
        if got is None:
            got = _mask_to_elems(mask)
            self._mask_elems[mask] = got
        return got

    def closure_mask(self, gens: Iterable[int]) -> int:
        """Bitmask of the subgroup generated by gens (empty gens give {0})."""
        mask = 1
        for x in gens:
            mask = self.extend_mask(mask, x)
        return mask

    def extend_mask(self, mask: int, x: int) -> int:
        """Bitmask of the subgroup generated by the subgroup H with this mask plus x.

        <H, x> is a union of left cosets yH, grown one coset at a time:
        the products y*h*x (h in H) of each coset found lead to every
        next one, and a new coset zH is added whole.  Results are
        memoized per (mask, x).
        """
        if mask >> x & 1:
            return mask
        key = (mask, x)
        got = self._extend_memo.get(key)
        if got is not None:
            return got
        t = self.table
        H = self.elems_of_mask(mask)
        hx = [t[h][x] for h in H]
        out = mask
        reps = [0]
        for y in reps:
            ty = t[y]
            for a in hx:
                z = ty[a]
                if not out >> z & 1:
                    tz = t[z]
                    for h in H:
                        out |= 1 << tz[h]
                    reps.append(z)
        self._extend_memo[key] = out
        return out

    # -- derived invariants ---------------------------------------------

    def center_mask(self) -> int:
        """a is central iff row a equals column a."""
        t = self.table
        return sum(1 << a for a, (row, column) in enumerate(zip(t, zip(*t))) if row == column)

    def derived_mask(self) -> int:
        t = self.table
        inv = self._inverse
        n = self.order
        comms = set()
        for a in range(n):
            for b in range(n):
                comms.add(t[t[a][b]][t[inv[a]][inv[b]]])
        return self.closure_mask(comms)

    def fingerprint(self) -> tuple:
        """Cheap isomorphism invariant used to prune searches."""
        if self._fingerprint is None:
            n = self.order
            orders = tuple(sorted(self.element_orders()))
            abelian = self.is_abelian()
            if abelian:
                # all of G is central, each element its own class, and
                # the derived subgroup trivial
                center, derived, class_sizes = n, 1, (1,) * n
            else:
                center = self.center_mask().bit_count()
                derived = self.derived_mask().bit_count()
                class_sizes = tuple(sorted(map(len, self._conjugacy_classes())))
            self._fingerprint = (n, orders, abelian, center, derived, class_sizes)
        return self._fingerprint

    def _conjugacy_classes(self) -> list[set[int]]:
        """The conjugacy classes, by least element."""
        t, inv = self.table, self._inverse
        n = self.order
        seen = [False] * n
        out = []
        for a in range(n):
            if not seen[a]:
                cls = {t[t[g][a]][inv[g]] for g in range(n)}
                for x in cls:
                    seen[x] = True
                out.append(cls)
        return out

    def generator_sequence(self) -> tuple[int, ...]:
        """Deterministic small generating sequence (highest order first)."""
        if self._gen_sequence is None:
            orders = self.element_orders()
            by_pref = sorted(range(self.order), key=lambda a: (-orders[a], a))
            self._gen_sequence = self._greedy_generators(by_pref, (1 << self.order) - 1)
        return self._gen_sequence

    def _greedy_generators(self, candidates: Iterable[int], target: int) -> tuple[int, ...]:
        """The candidates, in their order, that each enlarge the subgroup
        generated so far, up to the first that reaches the mask target."""
        gens: list[int] = []
        mask = 1
        for x in candidates:
            if mask >> x & 1:
                continue
            gens.append(x)
            mask = self.extend_mask(mask, x)
            if mask == target:
                break
        return tuple(gens)


class Subgroup:
    """A verified subgroup of a FiniteGroup.

    Canonical form is the sorted tuple of element indices; mask is the
    same set as a bitmask, the closure of the given generators, or a
    mask already proved closed (_of_mask).  Instances compare and hash
    by parent identity plus element set.
    """

    __slots__ = ("group", "elements", "mask")

    def __init__(self, group: FiniteGroup, generators: Iterable[int] = ()):
        gens = tuple(generators)
        for x in gens:
            if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < group.order:
                raise GroupError("generator %r is out of range" % (x,))
        self.group = group
        self.mask = group.closure_mask(gens)
        self.elements = group.elems_of_mask(self.mask)

    @classmethod
    def _of_mask(cls, group: FiniteGroup, mask: int) -> "Subgroup":
        """The subgroup with a mask its caller has proved closed, unchecked."""
        self = cls.__new__(cls)
        self.group = group
        self.mask = mask
        self.elements = group.elems_of_mask(mask)
        return self

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def index(self) -> int:
        return self.group.order // len(self.elements)

    def __contains__(self, x: int) -> bool:
        return bool(self.mask >> x & 1)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.group is other.group
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((id(self.group), self.mask))

    def __repr__(self) -> str:
        return "Subgroup(order=%d, elements=%r)" % (self.order, self.elements)

    def is_normal(self) -> bool:
        """True iff each generator of G conjugates each generator of H into H.

        That suffices: x -> g x g^-1 maps H into H once it does so on
        generators of H, and the g that normalize H form a subgroup.
        """
        G = self.group
        gens = self.canonical_generators()
        for g in G.generator_sequence():
            for x in gens:
                if not self.mask >> G.conj(g, x) & 1:
                    return False
        return True

    def canonical_generators(self) -> tuple[int, ...]:
        """Least-index greedy generating sequence, for stable display names."""
        return self.group._greedy_generators(self.elements, self.mask)

    def display_name(self) -> str:
        """Stable name from the canonical generators, as "<g1,g2>"; the trivial subgroup is <>."""
        return "<%s>" % ",".join(self.group.label(g) for g in self.canonical_generators())


class GroupHom:
    """A verified homomorphism between finite groups, as a total image table.

    The homomorphism property is checked completely, on generators, at
    construction; is_surjective is always recomputed from the image table.
    The epimorphisms that quotient and the epimorphism search prove by
    construction are built by _onto instead, without either step.
    """

    __slots__ = ("source", "target", "image_of", "is_surjective")

    @classmethod
    def _onto(
        cls, source: FiniteGroup, target: FiniteGroup, image_of: tuple[int, ...]
    ) -> "GroupHom":
        """An epimorphism whose image table its caller has proved to be a
        homomorphism onto the target, taken without the checks."""
        self = cls.__new__(cls)
        self.source = source
        self.target = target
        self.image_of = image_of
        self.is_surjective = True
        return self

    def __init__(self, source: FiniteGroup, target: FiniteGroup, image_of: Sequence[int]):
        imgs = tuple(image_of)
        if len(imgs) != source.order:
            raise GroupError("image table length does not match source order")
        if set(map(type, imgs)) != {int} or min(imgs) < 0 or max(imgs) >= target.order:
            for v in imgs:
                if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < target.order:
                    raise GroupError("image %r is not a target element index" % (v,))
        gens = source.generator_sequence()
        bad = _hom_defect(source, target, imgs, gens, [imgs[g] for g in gens])
        if bad is not None:
            raise GroupError("not a homomorphism: images of %d*%d disagree" % bad)
        self.source = source
        self.target = target
        self.image_of = imgs
        self.is_surjective = len(set(imgs)) == target.order

    def __call__(self, x: int) -> int:
        return self.image_of[x]

    def __repr__(self) -> str:
        return "GroupHom(%d -> %d elements%s)" % (
            self.source.order,
            self.target.order,
            ", onto" if self.is_surjective else "",
        )

    def kernel(self) -> Subgroup:
        return Subgroup._of_mask(self.source, self.preimage_mask(1))

    def image_mask(self, mask: int) -> int:
        out = 0
        for x in self.source.elems_of_mask(mask):
            out |= 1 << self.image_of[x]
        return out

    def preimage_mask(self, mask: int) -> int:
        """Bitmask of the source elements whose image lies in the target mask."""
        return sum(1 << x for x, v in enumerate(self.image_of) if mask >> v & 1)


def _hom_defect(
    G: FiniteGroup, H: FiniteGroup, phi: Sequence[int], gens: Sequence[int], imgs: Sequence[int]
) -> Optional[tuple[int, int]]:
    """The first pair (x, g), x outermost, with phi(x*g) != phi(x)*imgs[s],
    g = gens[s], or None.

    A phi(0) other than 0 gives (0, 0).  With gens generating G, None
    means phi is the homomorphism sending each gens[s] to imgs[s]: the g
    that pass for every x hold 0 and are closed under the product.
    """
    if phi[0] != 0:
        return (0, 0)
    tg, th = G.table, H.table
    for x, px in enumerate(phi):
        tx, tpx = tg[x], th[px]
        for g, i in zip(gens, imgs):
            if phi[tx[g]] != tpx[i]:
                return (x, g)
    return None


def compose(outer: GroupHom, inner: GroupHom) -> GroupHom:
    """outer o inner, verified."""
    if inner.target is not outer.source and inner.target.table != outer.source.table:
        raise GroupError("homomorphisms do not compose: middle groups differ")
    return GroupHom(
        inner.source, outer.target, tuple(outer.image_of[v] for v in inner.image_of)
    )


# -- construction -------------------------------------------------------


def build_group(spec: dict) -> FiniteGroup:
    """Build a group from a Cayley table or permutation generators.

    spec is {"table": [[...], ...]} or {"permutations": [[...], ...]},
    permutations being 0-indexed image arrays on up to 16 points.  A
    table takes every check; a permutation group's is read off the
    Cayley graph of its closure and, being a group's, takes none.  The
    closure composes each element with each distinct generator, and is
    held to PERM_CLOSURE_CAP elements and PERM_PRODUCTS_CAP products.
    """
    if not isinstance(spec, dict):
        raise GroupError("group spec must be a mapping")
    keys = set(spec) & {"table", "permutations"}
    if len(keys) != 1:
        raise GroupError('group spec needs exactly one of "table" or "permutations"')
    if "table" in spec:
        return FiniteGroup(spec["table"])
    perms = spec["permutations"]
    if not isinstance(perms, (list, tuple)) or not perms:
        raise GroupError("permutation generator list is empty or not a list")
    for p in perms:
        if not isinstance(p, (list, tuple)):
            raise GroupError("malformed permutation %r" % (p,))
    d = len(perms[0])
    if d == 0 or d > PERM_POINTS_CAP:
        raise GroupError("permutations must act on 1..%d points" % PERM_POINTS_CAP)
    gens = []
    for p in perms:
        q = tuple(p)
        ints = all(isinstance(v, int) and not isinstance(v, bool) for v in q)
        if not ints or len(q) != d or sorted(q) != list(range(d)):
            raise GroupError("malformed permutation %r" % (p,))
        gens.append(q)
    # an exact duplicate never adds a tree edge, so dropping it changes
    # no element's index
    gens = list(dict.fromkeys(gens))
    ident = tuple(range(d))
    elems = [ident]
    index = {ident: 0}
    # the Cayley graph: right[s][x] is the index of x*g_s; element q > 0
    # is first reached as y*g_s, with (y, s) = tree[q - 1] and y < q
    right: list[list[int]] = [[] for _ in gens]
    tree = []
    for x, p in enumerate(elems):
        for s, g in enumerate(gens):
            q = tuple(map(p.__getitem__, g))
            i = index.get(q)
            if i is None:
                if len(elems) >= PERM_CLOSURE_CAP:
                    raise CapExceeded(
                        "permutation closure exceeds the size cap of %d" % PERM_CLOSURE_CAP
                    )
                if (len(elems) + 1) * len(gens) > PERM_PRODUCTS_CAP:
                    raise CapExceeded(
                        "permutation closure of %d generators exceeds the cap of %d products"
                        % (len(gens), PERM_PRODUCTS_CAP)
                    )
                i = index[q] = len(elems)
                elems.append(q)
                tree.append((x, s))
            right[s].append(i)
    # row a along the tree, as a*(y*g_s) = (a*y)*g_s
    table = []
    for a in range(len(elems)):
        row = [a]
        for y, s in tree:
            row.append(right[s][row[y]])
        table.append(tuple(row))
    return FiniteGroup._derived(tuple(table), tuple(map(str, elems)))


def _subgroups_within(
    G: FiniteGroup, seeds: Iterable[tuple[int, int]], extend: int
) -> Iterator[int]:
    """The masks of every subgroup reached from the seeds by adding
    elements of the extension set E (the mask extend), each closed once
    and yielded once, as its closure proves it: each seed, then its
    tree depth first.

    A reverse search (Avis and Fukuda, 1996) over canonical generating
    sequences.  Each seed is a pair (mask, bar): bar marks the
    elements no subgroup grown from that seed may hold (see _lift_seeds).
    A node C made by the element last is extended by each x in E with
    x > last that is the least element of E in its left coset xC, and
    the child B = <C, x> is kept only when x is the least element of
    (B n E) \\ C and B meets no element of bar; as xC lies in B outside
    C, a coset that fails either test is skipped unclosed, so C gets at
    most one closure per left coset.  So a subgroup K above a
    seed S has exactly one parent: the chain C_0 = S, C_{j+1} =
    <C_j, min((K n E) \\ C_j)> rises through E, and any tree path to K
    meets those conditions at each step only if it is that chain.  The
    chain ends at <S, K n E>, which is K whenever K is generated by S
    and its elements in E.  From the seed {0} with no bar and E the
    whole group, the chain's elements are the subgroup's
    canonical_generators().
    """
    t = G.table
    extend_elems = G.elems_of_mask(extend)
    for seed, bar in seeds:
        yield seed
        work = [(seed, 0)]
        while work:
            mask, start = work.pop()
            H = G.elems_of_mask(mask)
            done = mask
            for i in range(start, len(extend_elems)):
                x = extend_elems[i]
                if done >> x & 1:
                    continue
                tx = t[x]
                coset = 0
                for h in H:
                    coset |= 1 << tx[h]
                done |= coset
                barred = extend & ((1 << x) - 1) & ~mask | bar
                if coset & barred:
                    continue
                bigger = G.extend_mask(mask, x)
                if bigger & barred:
                    continue
                yield bigger
                work.append((bigger, i + 1))


def _check_order_cap(order: int) -> None:
    if order > DEFAULT_ORDER_CAP:
        raise CapExceeded(
            "subgroup enumeration capped at order %d (group has order %d)"
            % (DEFAULT_ORDER_CAP, order)
        )


def _lift_seeds(
    G: FiniteGroup, universe: int, normal: int, lift: Sequence[int]
) -> list[tuple[int, int]]:
    """The canonical seeds <y_1, ..., y_k> of the universe, y_i in c_i,
    as pairs (mask, bar).

    c_i is the universe's meet with s_i N, where s_1, ..., s_k is the
    greedy subsequence of lift whose images generate <N, lift> / N: a
    coordinate already inside the span of N and the earlier ones is
    skipped.  A seed S is canonical when each y_i is the least element
    of S n c_i; bar marks the elements of each c_i below y_i, so S is
    canonical iff it meets no element of bar.  A subgroup K meeting
    every c_i then lies above exactly one canonical seed, <min(K n c_i)>,
    and a prefix of a canonical seed is canonical, so seeds grow one
    coordinate at a time, each level extending every seed of the last
    by every y in the next c_i and keeping the canonical ones.
    """
    t = G.table
    n_elems = G.elems_of_mask(normal)
    seeds: list[tuple[int, int]] = [(1, 0)]
    span = normal
    for s in lift:
        if span >> s & 1:
            continue
        span = G.extend_mask(span, s)
        ts = t[s]
        coset = 0
        for x in n_elems:
            coset |= 1 << ts[x]
        coset &= universe
        ys = _mask_to_elems(coset)
        level = []
        for mask, bar in seeds:
            for y in ys:
                seed = G.extend_mask(mask, y)
                seed_bar = bar | coset & ((1 << y) - 1)
                if not seed & seed_bar:
                    level.append((seed, seed_bar))
        seeds = level
    return seeds


def _ordered(G: FiniteGroup, masks: Iterable[int]) -> tuple[Subgroup, ...]:
    """The subgroups with these masks, proved closed, by size then element tuple."""
    subs = (Subgroup._of_mask(G, mask) for mask in masks)
    return tuple(sorted(subs, key=lambda H: (H.order, H.elements)))


def _normals_from_classes(G: FiniteGroup) -> tuple[Subgroup, ...]:
    """The normal subgroups of G, ordered like all_subgroups, as the
    joins of the normal closures of its conjugacy classes.

    The subgroup a class generates is normal, and a normal subgroup is
    the join of those of the classes it holds.  So adding the classes
    one at a time, the joins of the closures so far are kept, and with
    M normal the join of M and a class is M grown by the class's
    elements (extend_mask).  A class whose closure is already a join
    adds nothing.
    """
    found = {1}
    for cls in G._conjugacy_classes():
        closure = G.closure_mask(cls)
        if closure in found:
            continue
        grown = set()
        for mask in found:
            if mask & closure != closure:
                for x in cls:
                    mask = G.extend_mask(mask, x)
                grown.add(mask)
        found |= grown
    return _ordered(G, found)


def all_subgroups(G: FiniteGroup) -> tuple[Subgroup, ...]:
    """Every subgroup exactly once, ordered by size then element tuple,
    listed by one reverse search and cached on G."""
    # above the cap this raises, whether or not the subgroups are cached
    _check_order_cap(G.order)
    if G._subgroups is None:
        G._subgroups = _ordered(G, _subgroups_within(G, [(1, 0)], (1 << G.order) - 1))
    return G._subgroups


def normal_subgroups(G: FiniteGroup) -> tuple[Subgroup, ...]:
    """The normal subgroups, ordered like all_subgroups, and cached on G.

    Every subgroup when G is abelian; else, with G's subgroups cached,
    the normal ones among them, and without, the joins of the normal
    closures of G's conjugacy classes.
    """
    _check_order_cap(G.order)
    if G._normals is None:
        if G.is_abelian():
            G._normals = all_subgroups(G)
        elif G._subgroups is not None:
            G._normals = tuple(H for H in G._subgroups if H.is_normal())
        else:
            G._normals = _normals_from_classes(G)
    return G._normals


def subgroup_masks_within(
    G: FiniteGroup, universe: int, normal: int, lift: Sequence[int]
) -> list[int]:
    """The masks of the subgroups H of the universe with HN = <N, lift>,
    ordered like all_subgroups.

    normal is the mask of a normal subgroup N; with N the whole group
    and no lift, every subgroup of the universe qualifies.  Each such H
    holds an element of every coset s N with s in the lift, and for any
    choice L of such elements, H is <L, H n N>: an element h of H has
    the image of some w in <L>, and w^-1 h lies in H n N.  So each H is
    reached from its one canonical seed of _lift_seeds, <min(H n c_i)>,
    by _subgroups_within's one chain of elements of the universe's meet
    with N; with N the whole group the one seed is {0} and every element
    of the universe extends.  Each mask was closed once there, so
    Subgroup._of_mask builds it.  The universe must be a subgroup, of
    order at most DEFAULT_ORDER_CAP.
    """
    _check_order_cap(universe.bit_count())
    seeds = _lift_seeds(G, universe, normal, lift)
    built = _subgroups_within(G, seeds, universe & normal)
    return sorted(built, key=lambda m: (m.bit_count(), G.elems_of_mask(m)))


def cosets(G: FiniteGroup, mask: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(to_least, reps): to_least[g] is the least element of the left coset
    gN of the subgroup N with this mask, and reps lists those, ascending;
    for ascending g, the first element met of each coset is its least."""
    elems = G.elems_of_mask(mask)
    to_least = [-1] * G.order
    reps = []
    for g, tg in enumerate(G.table):
        if to_least[g] == -1:
            reps.append(g)
            for x in elems:
                to_least[tg[x]] = g
    return tuple(to_least), tuple(reps)


def up_sets(G: FiniteGroup, masks: Sequence[int]) -> list[int]:
    """Per mask over G, the bitset of the j with the mask inside masks[j]:
    the AND, over its elements, of the bitset of the masks holding each.
    Each mask is decoded once, through G's cache of subgroup elements."""
    elems = list(map(G.elems_of_mask, masks))
    holders: dict[int, int] = {}
    for j, xs in enumerate(elems):
        bit = 1 << j
        for x in xs:
            holders[x] = holders.get(x, 0) | bit
    everyone = (1 << len(masks)) - 1
    return [reduce(and_, map(holders.__getitem__, xs), everyone) for xs in elems]


def quotient(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, GroupHom]:
    """Quotient group on least coset representatives plus the projection.

    Once N is known to be a normal subgroup of G, neither is checked
    again: G/N is a group and the projection g -> gN an epimorphism by
    construction (FiniteGroup._derived, GroupHom._onto).  The tests
    hold both to the full checks.  The pair is cached on G by N's mask;
    G/N holds only its table, labels and inverses, and lists its own
    subgroups.
    """
    if N.group is not G:
        raise GroupError("subgroup does not live in the given group")
    cached = G._quotients.get(N.mask)
    if cached is not None:
        return cached
    if not N.is_normal():
        raise GroupError("subgroup is not normal; no quotient group")
    to_least, reps = cosets(G, N.mask)
    index = {r: i for i, r in enumerate(reps)}
    coset_of = tuple(map(index.__getitem__, to_least))
    # with N normal, (aN)(bN) = abN, so coset i times coset j is the coset
    # of reps[i]*reps[j], 0N is the identity and (aN)^-1 = a^-1 N
    t, inv = G.table, G._inverse
    table = tuple(tuple(coset_of[t[a][b]] for b in reps) for a in reps)
    labels = tuple(G.label(r) + "N" for r in reps)
    Q = FiniteGroup._derived(table, labels, tuple(coset_of[inv[r]] for r in reps))
    pi = GroupHom._onto(G, Q, coset_of)
    G._quotients[N.mask] = (Q, pi)
    return Q, pi


# -- isomorphism and homomorphism search --------------------------------


def _prefix_steps(
    G: FiniteGroup, gens: Sequence[int]
) -> list[tuple[int, list[tuple[int, int, int]], list[tuple[int, int, int]]]]:
    """Per generator k, |P_{k+1}| and the steps (x, s, x*gens[s]) it adds.

    P_k is the subgroup generated by gens[:k].  Step k covers the pairs
    (x, s) with s <= k that earlier steps left: x in P_k with s = k, and
    each x new in P_{k+1} with every s.  They split into spanning edges,
    which reach each new element once, and closing pairs, whose product
    was reached already.  Over all k every pair (x, s) with x in G comes
    once, so the map extended along the edges with phi(0) = 0 is the
    homomorphism sending each gens[s] to imgs[s] iff every closing pair
    agrees: phi(x*gens[s]) = phi(x)*imgs[s].
    """
    t = G.table
    seen = 1
    reached = [0]
    out = []
    for k in range(len(gens)):
        edges: list[tuple[int, int, int]] = []
        closing: list[tuple[int, int, int]] = []
        pairs = [(x, k) for x in reached]
        for x, s in pairs:
            y = t[x][gens[s]]
            if seen >> y & 1:
                closing.append((x, s, y))
            else:
                seen |= 1 << y
                edges.append((x, s, y))
                reached.append(y)
                pairs.extend((y, r) for r in range(k + 1))
        out.append((len(reached), edges, closing))
    if len(reached) != G.order:
        raise GroupError("generators do not generate the group")
    return out


def hom_from_images(
    G: FiniteGroup, H: FiniteGroup, gens: Sequence[int], imgs: Sequence[int]
) -> Optional[GroupHom]:
    """The homomorphism G -> H sending gens[s] to imgs[s], or None if none exists.

    gens must generate G, imgs must be as long as gens, and each gens[s]
    and imgs[s] must be an element index of its group.  Extending the
    images along the spanning edges of _prefix_steps gives the only
    candidate table.  It is that hom iff it sends each gens[s] to
    imgs[s], which a repeated generator given two images breaks, and it
    passes GroupHom's check, the one check here.
    """
    if len(gens) != len(imgs):
        raise GroupError("gens and imgs differ in length (%d and %d)" % (len(gens), len(imgs)))
    for g in gens:
        if not isinstance(g, int) or isinstance(g, bool) or not 0 <= g < G.order:
            raise GroupError("generator %r is out of range" % (g,))
    for i in imgs:
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < H.order:
            raise GroupError("image %r is not a target element index" % (i,))
    phi = [0] * G.order
    th = H.table
    for _, edges, _ in _prefix_steps(G, gens):
        for x, s, y in edges:
            phi[y] = th[phi[x]][imgs[s]]
    if any(phi[g] != i for g, i in zip(gens, imgs)):
        return None
    try:
        return GroupHom(G, H, phi)
    except GroupError:
        return None


def _epimorphism_search(
    G: FiniteGroup, H: FiniteGroup, allowed: Optional[Sequence[Iterable[int]]] = None
) -> Iterator[GroupHom]:
    """Every epimorphism G -> H, lazily, by the images of G's generator sequence.

    Depth first, images in index order, so the image tuples come out in
    lexicographic order.  With P_k the subgroup generated by the first k
    generators, a homomorphism phi has |phi(P_k)| = |P_k| / |P_k n ker phi|,
    and an onto phi has |ker phi| = [G:H].  So a prefix of images
    generating I is pruned when |I| does not divide |P_k| or
    |P_k| / |I| > [G:H]; at the last generator this leaves I = H only.
    A prefix is also cut when its map on P_k, extended along spanning
    edges, breaks a relation of P_k (_prefix_steps).  So each leaf is a
    proved epimorphism and is taken without a second check
    (GroupHom._onto): every closing pair agreed, each generator, which
    is new in its P_{k+1}, got its image by the edge from 0, and the
    pruning left I = H.  The tests hold every leaf to the full check.

    The search is one loop over a stack of per-slot candidate
    iterators.  A slot's candidates, the images h that survive the
    pruning with the subgroup each then generates, depend only on the
    slot and the subgroup its prefix generates, so they are listed once
    per such pair.  allowed, if given, names per slot the images it may
    take, ascending; the automorphism chain asks with some slots fixed.
    """
    if G.order % H.order != 0:
        return
    index = G.order // H.order
    gens = G.generator_sequence()
    if not gens:  # G trivial, so H is too
        yield GroupHom._onto(G, H, (0,))
        return
    steps = G._search_steps
    if steps is None:
        steps = G._search_steps = _prefix_steps(G, gens)
    last = len(gens) - 1
    th = H.table
    phi = [0] * G.order
    chosen = [0] * len(gens)
    listed: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def candidates(slot: int, mask: int) -> Iterator[tuple[int, int]]:
        got = listed.get((slot, mask))
        if got is None:
            size = steps[slot][0]
            got = listed[(slot, mask)] = []
            for h in range(H.order) if allowed is None else allowed[slot]:
                grown = H.extend_mask(mask, h)
                image = grown.bit_count()
                if size % image == 0 and size // image <= index:
                    got.append((h, grown))
        return iter(got)

    stack = [candidates(0, 1)]
    while stack:
        slot = len(stack) - 1
        _, edges, closing = steps[slot]
        for h, grown in stack[slot]:
            chosen[slot] = h
            for x, s, y in edges:
                phi[y] = th[phi[x]][chosen[s]]
            for x, s, y in closing:
                if phi[y] != th[phi[x]][chosen[s]]:
                    break
            else:
                if slot == last:
                    yield GroupHom._onto(G, H, tuple(phi))
                    continue
                stack.append(candidates(slot + 1, grown))
                break
        else:
            stack.pop()


def _isomorphism(G: FiniteGroup, H: FiniteGroup) -> Optional[bytes]:
    """The image table, as bytes, of the first isomorphism G -> H the
    search finds between groups of equal order, or None.

    Equal tables need no search: the identity map is then an isomorphism.
    """
    if G.table == H.table:
        return bytes(range(G.order))
    if G.fingerprint() != H.fingerprint():
        return None
    phi = next(_epimorphism_search(G, H), None)
    return None if phi is None else bytes(phi.image_of)


def isomorphic(G: FiniteGroup, H: FiniteGroup) -> bool:
    """True iff an epimorphism G -> H exists between groups of equal order."""
    if G.order > DEFAULT_ORDER_CAP or H.order > DEFAULT_ORDER_CAP:
        raise CapExceeded("isomorphism test capped at order %d" % DEFAULT_ORDER_CAP)
    return _isomorphism(G, H) is not None


def _image_kernels(G: FiniteGroup) -> list[tuple[FiniteGroup, list[tuple[int, bytes]]]]:
    """Per isomorphism class of quotients of G, a representative B with,
    per normal K such that G/K is isomorphic to B, the pair (mask of K,
    gamma_K), in normal_subgroups order.

    gamma_K = iso o pi_K: G ->> B, as an image table in bytes, where
    pi_K is the projection onto G/K and iso the first leaf the
    isomorphism test finds; the representative is the first such G/K,
    so its own iso is the identity.  Every epimorphism G ->> B is
    theta o gamma_K for exactly one K and one theta in Aut(B).
    """
    if G.order > DEFAULT_ORDER_CAP:
        raise CapExceeded("image enumeration capped at order %d" % DEFAULT_ORDER_CAP)
    classes: list[tuple[FiniteGroup, list[tuple[int, bytes]]]] = []
    for N in normal_subgroups(G):
        Q, pi = quotient(G, N)
        image = bytes(pi.image_of)
        for B, maps in classes:
            iso = _isomorphism(Q, B)
            if iso is not None:
                maps.append((N.mask, image.translate(iso.ljust(256, b"\0"))))
                break
        else:
            classes.append((Q, [(N.mask, image)]))
    classes.sort(key=lambda c: (c[0].order, c[0].fingerprint()))
    return classes


def image_classes(G: FiniteGroup) -> list[FiniteGroup]:
    """One representative per isomorphism class of quotients of G."""
    return [B for B, _ in _image_kernels(G)]


def epimorphisms(G: FiniteGroup, H: FiniteGroup) -> list[GroupHom]:
    """All surjective homomorphisms G -> H, image tuples in lexicographic order.

    The list is counted as the search yields it and refused past
    EPIMORPHISM_CAP maps, as |Epi(G, H)| grows like |GL(k, 2)| on
    elementary abelian groups: 20,160 maps onto C2^4 from itself, but
    624,960 onto C2^4 from C2^5, which the order cap admits.
    """
    if G.order > DEFAULT_ORDER_CAP or H.order > DEFAULT_ORDER_CAP:
        raise CapExceeded("homomorphism search capped at order %d" % DEFAULT_ORDER_CAP)
    if G.order == H.order and G.fingerprint() != H.fingerprint():
        return []
    maps = []
    for phi in _epimorphism_search(G, H):
        if len(maps) == EPIMORPHISM_CAP:
            raise CapExceeded("epimorphism listing capped at %d maps" % EPIMORPHISM_CAP)
        maps.append(phi)
    return maps


# -- stock constructions -------------------------------------------------


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupError("cyclic group order must be positive")
    return FiniteGroup._derived(tuple(tuple((a + b) % n for b in range(n)) for a in range(n)))


def direct_product(*factors: FiniteGroup) -> FiniteGroup:
    if not factors:
        raise GroupError("direct product needs at least one factor")
    if len(factors) == 1:
        return factors[0]
    A, rest = factors[0], direct_product(*factors[1:])
    na, nb = A.order, rest.order
    table = tuple(
        tuple(A.table[a1][a2] * nb + rest.table[b1][b2] for a2 in range(na) for b2 in range(nb))
        for a1 in range(na)
        for b1 in range(nb)
    )
    labels = tuple(
        "(%s,%s)" % (A.label(a), rest.label(b)) for a in range(na) for b in range(nb)
    )
    return FiniteGroup._derived(table, labels)


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: rotation r^k is k, reflection r^k s is n+k."""
    if n < 1:
        raise GroupError("dihedral parameter must be positive")
    m = 2 * n

    def mul(a: int, b: int) -> int:
        ra, fa = a % n, a >= n
        rb, fb = b % n, b >= n
        r = (ra - rb) % n if fa else (ra + rb) % n
        return r + n * (fa != fb)

    return FiniteGroup._derived(tuple(tuple(mul(a, b) for b in range(m)) for a in range(m)))


def dicyclic(n: int) -> FiniteGroup:
    """Dicyclic group of order 4n (quaternion group for n = 2)."""
    if n < 1:
        raise GroupError("dicyclic parameter must be positive")
    m = 4 * n

    # elements a^r b^f with a of order 2n, b^2 = a^n, b a b^-1 = a^-1
    def mul(x: int, y: int) -> int:
        ra, fa = x % (2 * n), x >= 2 * n
        rb, fb = y % (2 * n), y >= 2 * n
        if not fa:
            r = (ra + rb) % (2 * n)
            return r + 2 * n * fb
        if not fb:
            return (ra - rb) % (2 * n) + 2 * n
        return (ra - rb + n) % (2 * n)

    return FiniteGroup._derived(tuple(tuple(mul(a, b) for b in range(m)) for a in range(m)))


def symmetric(n: int) -> FiniteGroup:
    if n < 1 or n > 5:
        raise GroupError("symmetric constructor supports 1..5 points")
    if n == 1:
        return cyclic(1)
    swap = [1, 0] + list(range(2, n))
    cycle = list(range(1, n)) + [0]
    return build_group({"permutations": [swap, cycle]})


def semidirect_product(
    N: FiniteGroup, H: FiniteGroup, action: Sequence[Sequence[int]]
) -> FiniteGroup:
    """N x| H where action[h] is the automorphism of N induced by h.

    Pairs (x, h) are indexed x*|H| + h and multiply as
    (x1, h1)(x2, h2) = (x1 * action[h1](x2), h1 h2).
    """
    if len(action) != H.order:
        raise GroupError("need one automorphism of N per element of H")
    maps = [tuple(a) for a in action]
    for h, a in enumerate(maps):
        if sorted(a) != list(range(N.order)) or a[0] != 0:
            raise GroupError("action of %d is not a permutation fixing 0" % h)
        for x in range(N.order):
            for y in range(N.order):
                if a[N.table[x][y]] != N.table[a[x]][a[y]]:
                    raise GroupError("action of %d is not an automorphism of N" % h)
    for h1 in range(H.order):
        for h2 in range(H.order):
            lhs = maps[H.table[h1][h2]]
            rhs = tuple(maps[h1][maps[h2][x]] for x in range(N.order))
            if lhs != rhs:
                raise GroupError("action is not a homomorphism H -> Aut(N)")
    nh = H.order
    table = []
    for x1 in range(N.order):
        for h1 in range(nh):
            row = []
            a1 = maps[h1]
            for x2 in range(N.order):
                for h2 in range(nh):
                    row.append(N.table[x1][a1[x2]] * nh + H.table[h1][h2])
            table.append(tuple(row))
    labels = tuple(
        "(%s,%s)" % (N.label(x), H.label(h)) for x in range(N.order) for h in range(nh)
    )
    return FiniteGroup._derived(tuple(table), labels)
