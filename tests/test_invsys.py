"""Complete coset systems: universes, closure, duality, embeddings."""

import gc
import random
import tracemalloc
import types
import weakref
from typing import Dict

import pytest

import corpus
from conftest import normal_family
from fmeas import invsys
from fmeas.groups import (
    CapExceeded,
    FiniteGroup,
    GroupError,
    GroupHom,
    Subgroup,
    all_subgroups,
    cosets,
    cyclic,
    direct_product,
    isomorphic,
    quotient,
)
from fmeas.invsys import (
    DUMP_LINES_CAP,
    CompleteSystem,
    Relation,
    SystemEmbedding,
    complete_system,
    dual_embedding,
    dual_group,
    generated_subsystem,
    level_quotient,
)

ALL_NAMES = sorted(corpus.BUILDERS)
SAMPLE = ["C2xC2", "C4", "C6", "S3", "Q8", "D4", "C4xC2", "A4", "C12", "S4"]


def oracle_relations(G):
    """C, <= and P as explicit sets, built from the quotient maps G -> G/N.

    Each coset is named by the least element with its image; C follows
    the projections, <= the containment of the element sets, and P the
    quotient group's table.
    """
    family = normal_family(G)
    least = {}
    for N in family:
        Q, pi = quotient(G, N)
        lift = {}
        for g in range(G.order):
            lift.setdefault(pi.image_of[g], g)
        least[N] = (Q, pi.image_of, lift)
    compat, leq, prod = set(), set(), set()
    for N in family:
        Q, img, lift = least[N]
        for a in lift.values():
            for M in family:
                if set(N.elements) <= set(M.elements):
                    _, img_m, lift_m = least[M]
                    compat.add(((N.mask, a), (M.mask, lift_m[img_m[a]])))
                    leq.update(((N.mask, a), (M.mask, b)) for b in lift_m.values())
            for b in lift.values():
                prod.add(((N.mask, a), (N.mask, b), (N.mask, lift[Q.table[img[a]][img[b]]])))
    return compat, leq, prod


def family_masks(S):
    return {N.mask for N in S.normals}


def oracle_closed_family(G, base_masks):
    """Fixpoint closure over library normals; interleaves meet and up."""
    normals = {N.mask for N in normal_family(G)}
    fam = set(base_masks) | {(1 << G.order) - 1}
    while True:
        grown = set()
        for a in fam:
            for b in fam:
                if a & b not in fam:
                    grown.add(a & b)
        for m in normals:
            if m not in fam and any(a & m == a for a in fam):
                grown.add(m)
        if not grown:
            return fam
        fam |= grown


# CompleteSystem.validate() as it stood before it counted: a set of
# coset elements per C pair, and every comparable pair of the universe
# in one set; kept word for word as the slow oracle
def oracle_validate(self) -> None:
    """Model-check the axioms by enumeration; raises on any failure."""
    G = self.group
    elems = set(self.universe)
    if self.one != ((1 << G.order) - 1, 0) or self.one not in elems:
        raise GroupError("the constant is not the coset of the whole group")
    by_mask: Dict[int, list[int]] = {}
    for mask, r in self.universe:
        by_mask.setdefault(mask, []).append(r)
    # each class is a group under P, with the class of 1 as identity
    pos = {mask: {r: i for i, r in enumerate(sorted(reps))} for mask, reps in by_mask.items()}
    tables = {mask: [[-1] * len(p) for _ in p] for mask, p in pos.items()}
    for x, y, z in self.prod:
        if not {x, y, z} <= elems:
            raise GroupError("P relates cosets outside the universe")
        if y[0] != x[0] or z[0] != x[0]:
            raise GroupError("P relates cosets of different classes")
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
    # C between comparable classes is exactly the projection graph
    seen = {}
    for x, y in self.compat:
        # a name outside the universe, -1 say, is read as no element
        if x not in elems or y not in elems:
            raise GroupError("C relates cosets outside the universe")
        if x[0] & y[0] != x[0]:
            raise GroupError("C crosses an incomparable pair of classes")
        if (x, y[0]) in seen:
            raise GroupError("C is not functional toward a class")
        seen[(x, y[0])] = y
        coset_of_y = {G.table[y[1]][m] for m in G.elems_of_mask(y[0])}
        if x[1] not in coset_of_y:
            raise GroupError("C does not follow the canonical projection")
    for x in elems:
        for mask in by_mask:
            if x[0] & mask == x[0] and (x, mask) not in seen:
                raise GroupError("C misses a comparable pair")
    # <= compares classes by containment of the normal subgroups
    want = {
        (x, y)
        for x in elems
        for y in elems
        if x[0] & y[0] == x[0]
    }
    if set(self.leq) != want:
        raise GroupError("<= does not match containment of the classes")


# -- universes ----------------------------------------------------------------


def test_trivial_group_universe():
    S = complete_system(cyclic(1))
    assert S.universe == ((1, 0),)
    assert S.one == (1, 0)


def test_z4_universe():
    S = complete_system(cyclic(4))
    assert len(S.universe) == 7
    assert [len(N.elements) for N in S.normals] == [4, 2, 1]
    assert [S.sort_of(x) for x in S.universe] == [1, 2, 2, 4, 4, 4, 4]


def test_s3_universe():
    S = complete_system(corpus.group("S3"))
    assert len(S.universe) == 9
    assert [S.group.order // N.order for N in S.normals] == [1, 2, 6]


def test_sorts_follow_the_index_buckets():
    S = complete_system(corpus.group("D4"))
    for mask, rep in S.universe:
        n = S.sort_of((mask, rep))
        assert n == S.group.order // bin(mask).count("1")
        # "sort <= n" holds exactly from the index upward
        assert all((S.sort_of((mask, rep)) <= k) == (n <= k) for k in range(1, 9))


def test_sort_of_rejects_foreign_elements():
    S = complete_system(cyclic(4))
    with pytest.raises(GroupError, match="universe"):
        S.sort_of((0b0110, 0))
    with pytest.raises(GroupError, match="universe"):
        S.sort_of((0b0101, 2))  # 2 is not the least element of its coset


@pytest.mark.parametrize("name", SAMPLE)
def test_axioms_validate(name):
    complete_system(corpus.group(name)).validate()


@pytest.mark.parametrize("name", [n for n, _ in corpus.classes_upto(24)])
def test_relations_match_the_quotient_oracle(name):
    G = corpus.group(name)
    S = complete_system(G)
    class_of = {N.mask: i for i, N in enumerate(normal_family(G))}

    def dump_order(t):
        return [(class_of[mask], rep) for mask, rep in t]

    for got, want in zip((S.compat, S.leq, S.prod), oracle_relations(G)):
        assert len(got) == len(want)
        assert set(got) == want
        assert list(got) == sorted(want, key=dump_order)


@pytest.mark.parametrize("name", SAMPLE)
def test_relation_sizes_and_up_sets_match_a_rescan(name):
    S = complete_system(corpus.group(name))
    for T in (S, generated_subsystem(S, [x for x in S.universe if S.sort_of(x) <= 2])):
        for relation in (T.compat, T.leq, T.prod):
            assert len(relation) == sum(1 for _ in relation)
        # each class's up-set as C's generator rescanned the tables per
        # pass, as a bitset over family positions and decoded
        assert list(T._above) == [N.mask for N in T.normals]
        for N in T.normals:
            rescan = [m for m in T._rep_in if N.mask & m == N.mask]
            assert T._above[N.mask] == sum(1 << list(T._rep_in).index(m) for m in rescan)
            assert T._masks_above(N.mask) == rescan


class Tracked(CompleteSystem):
    """A complete system that a weakref can follow."""

    __slots__ = ("__weakref__",)


@pytest.mark.parametrize("name", SAMPLE)
def test_a_dropped_system_dies_without_the_cycle_collector(name):
    # a system that stored its relations held bound methods of itself, a
    # cycle that kept it and its class data alive until the cycle
    # collector ran; built afresh, its relations keep their sizes
    G = corpus.group(name)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        S = Tracked(G, normal_family(G))
        sizes = [len(S.compat), len(S.leq), len(S.prod)]
        assert sizes == [len(r) for r in oracle_relations(G)]
        ref = weakref.ref(S)
        del S
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


# -- checked by class data ----------------------------------------------------


def expand_blocks(S):
    """C, <= and P from the class data, each coset named by its least
    element, read off the table.  Their blocks: each pair (N, M) with
    M's family position a bit of _above[N] sends each gN to gM under C
    and pairs every coset of N with every coset of M under <=; each
    class N multiplies every pair of cosets of N under P."""
    G = S.group
    t = G.table
    family = [N.mask for N in S.normals]

    def least(g, mask):
        return min(t[g][m] for m in G.elems_of_mask(mask))

    pairs = [(n, m) for n, up in S._above.items() for j, m in enumerate(family) if up >> j & 1]
    compat = [((n, a), (m, least(a, m))) for n, m in pairs for a in S.class_reps(n)]
    leq = [
        ((n, a), (m, b)) for n, m in pairs for a in S.class_reps(n) for b in S.class_reps(m)
    ]
    prod = [
        ((n, a), (n, b), (n, least(t[a][b], n)))
        for n, reps in S._reps.items()
        for a in reps
        for b in reps
    ]
    return compat, leq, prod


@pytest.mark.parametrize("name", ALL_NAMES)
def test_leq_rectangles_expand_to_the_relation(name):
    # validate() checks the class pairs of _above, the rectangles of <=;
    # they must expand to exactly the pairs the relation lists
    S = complete_system(corpus.group(name))
    for T in (S, generated_subsystem(S, [x for x in S.universe if S.sort_of(x) <= 2])):
        _, leq, _ = expand_blocks(T)
        assert len(leq) == len(T.leq) and set(leq) == set(T.leq)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_blocks_expand_to_the_relations(name):
    # validate() checks the classes and the class pairs of _above, the
    # blocks of P and C; they must expand to exactly the tuples the
    # relations list, so that a passing validate() means sound relations
    S = complete_system(corpus.group(name))
    for T in (S, generated_subsystem(S, [x for x in S.universe if S.sort_of(x) <= 2])):
        compat, _, prod = expand_blocks(T)
        assert len(compat) == len(T.compat) and set(compat) == set(T.compat)
        assert len(prod) == len(T.prod) and set(prod) == set(T.prod)


@pytest.mark.parametrize("name", SAMPLE)
def test_a_sound_system_is_checked_by_blocks_alone(name, monkeypatch):
    # validate() reads the class data the relations expand from, their
    # blocks, and no relation: a sound system and its subsystems pass
    # with every relation unreadable
    def refuse(self):
        raise AssertionError("validate() read a relation")

    monkeypatch.setattr(Relation, "__iter__", refuse)
    S = complete_system(corpus.group(name))
    S.validate()
    for level in (1, 2):
        generated_subsystem(S, [x for x in S.universe if S.sort_of(x) <= level]).validate()


@pytest.mark.parametrize("kind", ["drop", "repeat", "flip", "foreign"])
@pytest.mark.parametrize("name", ["C4", "C2xC2", "D4", "Q8", "C4xC2"])
def test_validate_rejects_a_wrong_rectangle(name, kind):
    # <= has one rectangle (N, M) per bit of _above[N], at M's family
    # position; the second class's first two are (N, G), bit 0, and
    # (N, N), bit 1
    S = complete_system(corpus.group(name))
    full, n = list(S._above)[:2]
    up = S._above[n]
    assert up & 0b11 == 0b11
    if kind == "drop":
        up ^= 1
    elif kind == "repeat":
        # (N, N) written over by (N, G), which the bitset holds once
        up ^= 0b10
    elif kind == "flip":
        # (N, G) turned into (G, N)
        up ^= 1
        S._above[full] |= 0b10
    elif kind == "foreign":
        # (N, G) turned into (N, M), M at a position past the family
        up ^= 1 | 1 << len(S.normals)
    S._above[n] = up
    with pytest.raises(GroupError, match="^<= does not match containment of the classes$"):
        S.validate()


@pytest.mark.parametrize("name", ["C4", "S3", "D4", "Q8", "A4"])
def test_validate_rejects_a_wrong_representative(name):
    S = complete_system(corpus.group(name))
    S.validate()
    M = next(N for N in S.normals if len(S.class_reps(N.mask)) >= 2)
    # the last element outside M, sent to the coset of the identity
    g = max(x for x in range(S.group.order) if x not in M.elements)
    table = list(S._rep_in[M.mask])
    table[g] = 0
    S._rep_in[M.mask] = tuple(table)
    with pytest.raises(GroupError, match="canonical projection"):
        S.validate()


def test_validate_rejects_a_repeated_universe_element():
    S = complete_system(corpus.group("S3"))
    S.universe = S.universe + S.universe[-1:]
    with pytest.raises(GroupError, match="^the universe repeats an element$"):
        S.validate()


def test_validate_rejects_a_missing_universe_element():
    S = complete_system(corpus.group("S3"))
    S.universe = S.universe[:-1]
    with pytest.raises(GroupError, match="^P relates cosets outside the universe$"):
        S.validate()


def test_validate_rejects_a_representative_sent_within_its_coset():
    S = complete_system(cyclic(4))
    table = list(S._rep_in[0b0101])
    table[1] = 3  # the coset {1, 3} of {0, 2} named by 3, not by its least element
    S._rep_in[0b0101] = tuple(table)
    with pytest.raises(GroupError, match="^P relates cosets outside the universe$"):
        S.validate()


def other_in_coset(S, y):
    """An element of the coset y other than its least one."""
    return next(S.group.mul(y[1], m) for m in S.group.elems_of_mask(y[0]) if m != 0)


def corrupt(S, kind, rng):
    """Give the class data of S one corruption of the named kind.

    The kinds are named by the relation the data then generate wrongly:
    leq-* change the up-sets _above, from which <= and C are generated:
    one bit of an up-set, one up-set in place of another, or the order
    in which the classes' up-sets are listed;
    c-*, wrong-rep, swap-names and p-column change one class's coset map
    _rep_in, which C and P read; universe-* change the universe.
    """
    G = S.group
    if kind.startswith("leq-"):
        family = list(S._above)
        everyone = (1 << len(family)) - 1
        if kind == "leq-shuffle":
            # two classes' up-sets listed in each other's place
            i, j = rng.sample(range(len(family)), 2)
            family[i], family[j] = family[j], family[i]
            S._above = {n: S._above[n] for n in family}
            return
        if kind == "leq-duplicate":
            # one class's up-set written over another's
            n, other = rng.sample(family, 2)
            S._above[n] = S._above[other]
            return
        if kind == "leq-flip":
            # a class below its own, as if a <= pair were flipped
            n = rng.choice([n for n in family if n != 1])
            new = family.index(1)  # the trivial subgroup, below every class
        elif kind == "leq-outside":
            n = rng.choice(family)
            new = len(family)  # a position past the family
        else:
            n = rng.choice([n for n in family if S._above[n] != everyone])
            new = rng.choice([j for j in range(len(family)) if not S._above[n] >> j & 1])
        up = S._above[n]
        i = rng.choice([j for j in range(len(family)) if up >> j & 1])
        if kind == "leq-drop":
            up ^= 1 << i
        elif kind in ("leq-flip", "leq-outside"):
            up |= 1 << new
        elif kind == "leq-swap":
            # the class at position i swapped for one not above n
            up ^= 1 << i | 1 << new
        S._above[n] = up
        return
    if kind.startswith("universe-"):
        universe = list(S.universe)
        if kind == "universe-drop":
            del universe[rng.randrange(1, len(universe))]
        else:
            universe.append(rng.choice(universe))
        S.universe = tuple(universe)
        return
    if kind == "clean":
        return
    # a class with two names or more, and two elements or more
    mask = rng.choice([m for m in S._reps if len(S._reps[m]) >= 2 and m != 1])
    reps, table = S._reps[mask], list(S._rep_in[mask])
    g = rng.randrange(G.order)
    if kind == "c-drop":
        del table[-1]
    elif kind == "c-wrong-coset":
        table[g] = rng.choice([r for r in reps if r != table[g]])
    elif kind == "c-outside":
        # g's coset named by one of its elements that is not its least
        table[g] = rng.choice([G.mul(table[g], m) for m in G.elems_of_mask(mask) if m != 0])
    elif kind == "c-out-of-range":
        table[g] = rng.choice([G.order, 256, -1])  # 256 and -1 are no byte
    elif kind == "c-negative":
        # a name that Python's indexing would read as the last element
        table[g] = -1
    elif kind == "wrong-rep":
        r = rng.choice(reps)
        table[r] = other_in_coset(S, (mask, r))
    elif kind == "swap-names":
        # the cosets of two names swap names
        y, z = rng.sample(reps, 2)
        table = [{y: z, z: y}.get(v, v) for v in table]
    elif kind == "p-column":
        # one product of two names sent to the name of another coset; a
        # product that is no name itself leaves the identity's row alone
        products = sorted({G.mul(a, b) for a in reps for b in reps})
        g = rng.choice([g for g in products if g not in reps] or products)
        table[g] = rng.choice([r for r in reps if r != table[g]])
    S._rep_in[mask] = tuple(table)


def outcome(check, S):
    try:
        check(S)
    except GroupError as e:
        return "GroupError", str(e)
    except Exception as e:  # the oracle's crashes are part of the record
        return "crash", type(e).__name__
    return "pass", None


CORRUPTIONS = [
    "clean",
    "leq-drop",
    "leq-duplicate",
    "leq-flip",
    "leq-outside",
    "leq-swap",
    "leq-shuffle",
    "c-drop",
    "c-wrong-coset",
    "c-outside",
    "c-out-of-range",
    "c-negative",
    "wrong-rep",
    "swap-names",
    "p-column",
    "universe-drop",
    "universe-repeat",
]

def assert_matches_the_oracle(S, kind, seed):
    # the oracle enumerates the relations that the corrupted data generate
    want = outcome(oracle_validate, S)
    got = outcome(CompleteSystem.validate, S)
    if kind == "clean":
        assert got == want == ("pass", None)
        return
    assert got[0] == "GroupError", (seed, got)
    # validate() is stronger than the oracle, which reads each class's
    # up-set by its key, so that up-sets listed out of family order
    # pass; a class that is no subgroup, one
    # with too few cosets and one that is not normal are the other cases,
    # tested below
    if kind == "leq-shuffle":
        assert want == ("pass", None), seed
    else:
        assert want[0] != "pass", seed


@pytest.mark.parametrize("kind", CORRUPTIONS)
@pytest.mark.parametrize("name", SAMPLE)
def test_validate_matches_the_enumerating_oracle(name, kind):
    for seed in range(3):
        S = complete_system(corpus.group(name))
        corrupt(S, kind, random.Random(seed))
        assert_matches_the_oracle(S, kind, seed)


@pytest.mark.parametrize("kind", CORRUPTIONS)
@pytest.mark.parametrize("name", SAMPLE)
def test_every_route_matches_the_enumerating_oracle(name, kind):
    # a system is built by complete_system, as above, or by
    # generated_subsystem on a parent's family, through the same
    # CompleteSystem.__init__; generated above the trivial subgroup it has
    # the whole family, so every corruption applies, and the parent,
    # which shares nothing with it, stays sound
    for seed in range(3):
        S = complete_system(corpus.group(name))
        T = generated_subsystem(S, S.universe)
        corrupt(T, kind, random.Random(seed))
        assert_matches_the_oracle(T, kind, seed)
        S.validate()


FAMILY_FAULT = "the class data do not list the classes of the family"
BLOCK_FAULTS = {
    # P's blocks are the classes, listed by normals, _reps and _rep_in
    "p-drop": FAMILY_FAULT,
    "p-repeat": FAMILY_FAULT,
    "p-foreign": FAMILY_FAULT,
    # C's blocks are the class pairs of _above
    "c-drop": FAMILY_FAULT,
    "c-repeat": "<= does not match containment of the classes",
    "c-flip": FAMILY_FAULT,
    "c-foreign": FAMILY_FAULT,
}


def rekey_last(data, mask):
    """The dict data with its last class keyed by mask instead."""
    data = dict(data)
    data[mask] = data.pop(list(data)[-1])
    return data


@pytest.mark.parametrize("kind", sorted(BLOCK_FAULTS))
@pytest.mark.parametrize("name", ["C4", "C2xC2", "D4", "Q8", "C4xC2"])
def test_validate_rejects_a_wrong_block(name, kind):
    S = complete_system(corpus.group(name))
    first, last = S.normals[0].mask, S.normals[-1].mask
    if kind == "p-drop":
        S._reps = {m: r for m, r in S._reps.items() if m != last}
    elif kind == "p-repeat":
        S.normals = S.normals[:-1] + S.normals[:1]
    elif kind == "p-foreign":
        S._rep_in = rekey_last(S._rep_in, 0)
    elif kind == "c-drop":
        S._above = {m: a for m, a in S._above.items() if m != last}
    elif kind == "c-repeat":
        # the whole group's up-set in place of the last class's
        S._above[last] = S._above[first]
    elif kind == "c-flip":
        S._above = dict(reversed(S._above.items()))
    elif kind == "c-foreign":
        S._above = rekey_last(S._above, 0)
    with pytest.raises(GroupError) as info:
        S.validate()
    assert str(info.value) == BLOCK_FAULTS[kind]


@pytest.mark.parametrize("kind", ["swap-names", "p-column"])
@pytest.mark.parametrize("name", SAMPLE)
def test_validate_rejects_a_wrong_coset_map(name, kind):
    # every coset keeps a name in the universe, but some element is sent
    # to the name of a coset it is not in; the enumerating oracle refuses
    # these systems too, in the words of P's group check or of C's
    for seed in range(5):
        S = complete_system(corpus.group(name))
        corrupt(S, kind, random.Random(seed))
        assert outcome(oracle_validate, S)[0] == "GroupError", seed
        got = outcome(CompleteSystem.validate, S)
        assert got == ("GroupError", "C does not follow the canonical projection"), seed


def with_class_replaced(S, old, new):
    """S with the class of mask old replaced by the mask new, its cosets
    named by their least elements and the up-sets read by containment."""
    masks = [new if m == old else m for m in S._reps]
    S.normals = tuple(types.SimpleNamespace(mask=m) for m in masks)
    S._rep_in, S._reps = {}, {}
    for m in masks:
        S._rep_in[m], S._reps[m] = cosets(S.group, m)
    S._above = {n: sum(1 << j for j, m in enumerate(masks) if n & m == n) for n in masks}
    S.universe = tuple((n, r) for n, reps in S._reps.items() for r in reps)


def test_validate_rejects_a_class_that_is_not_a_subgroup():
    # C4 with the class {0, 2} replaced by {0, 1}: its translates {0, 1}
    # and {2, 3}, named 0 and 2, make a group of order 2 under P, and C
    # follows them, so the enumerating oracle passes it; but 1 + 1 = 2
    # leaves {0, 1}, so 1 + 1 is named 2, not 0
    S = complete_system(cyclic(4))
    with_class_replaced(S, 0b0101, 0b0011)
    assert S._rep_in[0b0011] == (0, 0, 2, 2)
    assert outcome(oracle_validate, S) == ("pass", None)
    with pytest.raises(GroupError, match="^C does not follow the canonical projection$"):
        S.validate()


def test_validate_rejects_a_class_with_too_few_cosets():
    # C4's trivial class named as one coset, as if it were the whole
    # group: P on it is the trivial group, and C sends its one coset up
    # as the whole group's would go, so the enumerating oracle passes it;
    # but {0} has four cosets
    S = complete_system(cyclic(4))
    S._reps[1], S._rep_in[1] = (0,), (0, 0, 0, 0)
    S.universe = tuple((n, r) for n, reps in S._reps.items() for r in reps)
    assert outcome(oracle_validate, S) == ("pass", None)
    with pytest.raises(GroupError, match="^C does not follow the canonical projection$"):
        S.validate()


def test_validate_rejects_a_class_beyond_the_group():
    # C4's class {0, 2} keyed as {0, 4}, with its cosets kept: two names
    # times two elements are |C4|, but 4 is no element of C4
    def moved(m):
        return 0b10001 if m == 0b0101 else m

    S = complete_system(cyclic(4))
    S._reps = {moved(m): reps for m, reps in S._reps.items()}
    S._rep_in = {moved(m): to for m, to in S._rep_in.items()}
    S._above = {moved(n): up for n, up in S._above.items()}
    S.normals = tuple(types.SimpleNamespace(mask=m) for m in S._reps)
    S.universe = tuple((n, r) for n, reps in S._reps.items() for r in reps)
    with pytest.raises(GroupError, match="^C does not follow the canonical projection$"):
        S.validate()


def test_validate_rejects_a_class_that_is_not_normal():
    # D4 with its centre replaced by a subgroup of order 2 that is not
    # normal: the left cosets are named by their least elements and make
    # a group of order 4 under P, so the enumerating oracle passes it; only
    # P's columns, to(to(x)*b) = to(x*b), tell
    G = corpus.group("D4")
    S = complete_system(G)
    H = next(H for H in all_subgroups(G) if H.order == 2 and not H.is_normal())
    with_class_replaced(S, G.center_mask(), H.mask)
    assert outcome(oracle_validate, S) == ("pass", None)
    with pytest.raises(GroupError, match="^P is not the quotient product on a class$"):
        S.validate()


def test_validate_on_c2_4_stays_small():
    # the enumerating check peaked at 4.1 MB here, counting at 0.7 MB
    S = complete_system(direct_product(*[cyclic(2)] * 4))
    tracemalloc.start()
    try:
        S.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


def test_dump_line_cap_admits_c2_5_and_not_c2_6():
    S = complete_system(direct_product(*[cyclic(2)] * 5))
    c2_5 = len(S.universe) + len(S.compat) + len(S.leq) + len(S.prod)
    assert c2_5 == 393_152
    # C2^6: 26,387 elements, 1,824,489 C pairs, 10,425,879 <= pairs, 335,213 P triples
    assert c2_5 <= DUMP_LINES_CAP < 12_611_968


def test_cap_is_loud():
    with pytest.raises(CapExceeded, match="64"):
        complete_system(cyclic(65))


# -- family validation ---------------------------------------------------------


def test_family_must_contain_the_whole_group():
    G = cyclic(4)
    with pytest.raises(GroupError, match="whole group"):
        CompleteSystem(G, [Subgroup(G, (2,))])


def test_family_must_be_upward_closed():
    G = cyclic(4)
    with pytest.raises(GroupError, match="upward"):
        CompleteSystem(G, [Subgroup(G, range(4)), Subgroup(G, ())])


def test_family_must_be_normal():
    G = corpus.group("S3")
    t = next(x for x in range(6) if G.element_order(x) == 2)
    with pytest.raises(GroupError, match="not normal"):
        CompleteSystem(G, [Subgroup(G, range(6)), Subgroup(G, (t,))])


def test_family_must_be_meet_closed():
    G = corpus.group("C2xC2")
    subs = [Subgroup(G, range(4)), Subgroup(G, (1,)), Subgroup(G, (2,)), Subgroup(G, (3,))]
    with pytest.raises(GroupError, match="intersection"):
        CompleteSystem(G, subs)


def c2_3_family(*gens):
    """Subgroups of C2^3 (XOR table) from generator tuples, with the whole group."""
    G = direct_product(cyclic(2), cyclic(2), cyclic(2))
    assert all(G.mul(a, b) == a ^ b for a in range(8) for b in range(8))
    return G, [Subgroup(G, range(8))] + [Subgroup(G, g) for g in gens]


def test_family_failing_both_checks_is_not_meet_closed():
    # neither upward closed (<1,2> is missing) nor closed under
    # intersection; the meet {0} is missing too
    G, family = c2_3_family((1,), (2,))
    with pytest.raises(GroupError, match="not closed under intersection"):
        CompleteSystem(G, family)


def test_family_holding_its_meet_can_fail_intersection():
    # not upward closed, and the meet {0} is a member, yet
    # <1,2> n <1,4> = <1> is not
    G, family = c2_3_family((), (1, 2), (1, 4))
    with pytest.raises(GroupError, match="not closed under intersection"):
        CompleteSystem(G, family)


def oracle_family_error(masks, normal_masks):
    """The pairwise checks, intersection first: the message they raise, or None."""
    if any(a & b not in masks for a in masks for b in masks):
        return "the family is not closed under intersection"
    if any(M not in masks and any(m & M == m for m in masks) for M in normal_masks):
        return "the family is not upward closed"
    return None


@pytest.mark.parametrize("name", ["C2xC2", "C4", "S3", "D4", "Q8", "C4xC2"])
def test_family_checks_match_pairwise_oracle(name):
    # every family of normal subgroups that holds the whole group
    G = corpus.group(name)
    normals = normal_family(G)
    whole, rest = normals[0], normals[1:]
    masks_of = {N.mask for N in normals}
    for bits in range(1 << len(rest)):
        family = [whole] + [N for i, N in enumerate(rest) if bits >> i & 1]
        expected = oracle_family_error({N.mask for N in family}, masks_of)
        if expected is None:
            assert CompleteSystem(G, family).normals == tuple(family)
        else:
            with pytest.raises(GroupError) as info:
                CompleteSystem(G, family)
            assert str(info.value) == expected


def test_family_rejects_duplicates_and_foreigners():
    G = cyclic(4)
    with pytest.raises(GroupError, match="duplicate"):
        CompleteSystem(G, [Subgroup(G, range(4)), Subgroup(G, (1,))])
    with pytest.raises(GroupError, match="live"):
        CompleteSystem(G, [Subgroup(cyclic(2), (1,))])


def test_family_rejects_non_normal_members():
    G = corpus.group("S3")
    t = next(x for x in range(6) if G.element_order(x) == 2)
    sub = Subgroup(G, (t,))
    assert not sub.is_normal()
    with pytest.raises(GroupError, match="normal"):
        CompleteSystem(G, list(normal_family(G)) + [sub])


# -- generated subsystems --------------------------------------------------------


def test_generated_by_nothing_is_the_constant():
    S = complete_system(corpus.group("S3"))
    sub = generated_subsystem(S, [])
    assert sub.universe == (S.one,)


def test_generated_upward_only():
    S = complete_system(cyclic(4))
    sub = generated_subsystem(S, [(0b0101, 1)])
    assert len(sub.universe) == 3
    assert [N.elements for N in sub.normals] == [(0, 1, 2, 3), (0, 2)]


def test_generated_meet_rule_forces_the_intersection():
    S = complete_system(corpus.group("C2xC2"))
    assert len(S.universe) == 11
    sub = generated_subsystem(S, [(0b0011, 2), (0b0101, 1)])
    assert family_masks(sub) == family_masks(S)
    assert sub.universe == S.universe


def test_generated_rejects_foreign_generators():
    S = complete_system(cyclic(4))
    with pytest.raises(GroupError, match="universe"):
        generated_subsystem(S, [(0b1111, 1)])


@pytest.mark.parametrize("name", ["C4xC2", "D4", "Q8", "S3", "C12"])
def test_generated_matches_fixpoint_closure(name):
    G = corpus.group(name)
    S = complete_system(G)
    for x in S.universe:
        sub = generated_subsystem(S, [x])
        assert family_masks(sub) == oracle_closed_family(G, {x[0]})
    first = [x for x in S.universe if x[1] != 0][:4]
    sub = generated_subsystem(S, first)
    assert family_masks(sub) == oracle_closed_family(G, {x[0] for x in first})


@pytest.mark.parametrize("name", ALL_NAMES)
def test_restricted_subsystems_match_a_built_one(name):
    # the subsystem generated by one class is S restricted to the classes
    # above it: its universe and its C are S's, read on those classes
    G = corpus.group(name)
    S = complete_system(G)
    compat = list(S.compat)
    for N in S.normals:
        sub = generated_subsystem(S, [(N.mask, 0)])
        above = {M.mask for M in S.normals if N.mask & M.mask == N.mask}
        assert sub.universe == tuple(x for x in S.universe if x[0] in above)
        assert list(sub.compat) == [(x, y) for x, y in compat if x[0] in above]
        sub.validate()
        # the subsystem's coset maps are its own to replace
        own = S._rep_in[N.mask]
        sub._rep_in[N.mask] = ()
        assert S._rep_in[N.mask] is own


def test_generated_within_a_subsystem_stays_inside():
    S = complete_system(corpus.group("C2xC2"))
    sub = generated_subsystem(S, [(0b0011, 2)])
    again = generated_subsystem(sub, [sub.one])
    assert again.universe == (sub.one,)
    assert set(sub.universe) <= set(S.universe)


# -- dual groups -------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_NAMES)
def test_representatives_are_least_by_projection(name):
    # read off the table, not the quotient map, which comes from the same cosets
    G = corpus.group(name)
    S = complete_system(G)
    for N in S.normals:
        least = tuple(min({G.table[g][x] for x in N.elements}) for g in range(G.order))
        assert S._rep_in[N.mask] == least, N.elements


@pytest.mark.parametrize("name", ALL_NAMES)
def test_dual_group_round_trip(name):
    G = corpus.group(name)
    D, pi = dual_group(complete_system(G))
    assert pi.is_surjective and pi.source is G
    assert isomorphic(D, G)


def test_dual_of_the_constant_subsystem_is_trivial():
    S = complete_system(corpus.group("S3"))
    D, _ = dual_group(generated_subsystem(S, []))
    assert D.order == 1


def test_dual_of_low_sort_part_of_s3():
    S = complete_system(corpus.group("S3"))
    A = [x for x in S.universe if S.sort_of(x) <= 2]
    D, _ = dual_group(generated_subsystem(S, A))
    assert isomorphic(D, cyclic(2))


# -- level quotients ----------------------------------------------------------------


def test_level_quotient_examples():
    S3 = corpus.group("S3")
    assert isomorphic(level_quotient(S3, 2), cyclic(2))
    assert level_quotient(S3, 1).order == 1
    assert isomorphic(level_quotient(S3, 6), S3)


@pytest.mark.parametrize("name", SAMPLE)
def test_level_quotient_endpoints(name):
    G = corpus.group(name)
    assert level_quotient(G, 1).order == 1
    assert isomorphic(level_quotient(G, G.order), G)


def test_level_quotient_rejects_bad_levels():
    G = cyclic(2)
    with pytest.raises(GroupError, match="positive"):
        level_quotient(G, 0)
    with pytest.raises(GroupError, match="positive"):
        level_quotient(G, True)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_level_quotient_matches_the_generated_subsystem_route(name):
    # the oracle is the route through the complete system: the dual of
    # the subsystem of S(G) generated by every coset of sort at most i
    G = corpus.group(name)
    S = complete_system(G)
    for i in range(1, G.order + 1):
        D, pi = dual_group(generated_subsystem(S, [x for x in S.universe if S.sort_of(x) <= i]))
        Gi = level_quotient(G, i)
        assert (Gi.order, Gi.table) == (D.order, D.table), i
        assert invsys._level_kernel(G, i) == pi.kernel(), i


def test_level_quotient_builds_no_system(monkeypatch):
    def refuse(self, group, normals):
        raise AssertionError("level_quotient built a complete system")

    monkeypatch.setattr(CompleteSystem, "__init__", refuse)
    for name in SAMPLE:
        G = corpus.group(name)
        assert level_quotient(G, G.order).order == G.order


def test_level_quotient_is_capped_like_complete_systems():
    # the level is checked first, then the order, with complete_system's
    # message, before any subgroup is enumerated
    G = cyclic(65)
    with pytest.raises(GroupError, match="positive"):
        level_quotient(G, 0)
    with pytest.raises(CapExceeded) as got:
        level_quotient(G, 2)
    with pytest.raises(CapExceeded) as want:
        complete_system(G)
    assert str(got.value) == str(want.value) == (
        "complete systems capped at group order 64 (got 65)"
    )
    assert G._subgroups is None


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "C12", "A4", "S4"])
def test_level_tower_is_a_chain_of_quotients(name):
    G = corpus.group(name)
    S = complete_system(G)
    cores = {}
    for i in range(1, G.order + 1):
        A = [x for x in S.universe if S.sort_of(x) <= i]
        _, pi = dual_group(generated_subsystem(S, A))
        cores[i] = pi.kernel().mask
    for i in range(1, G.order):
        # larger level, smaller kernel: G_i is a quotient of G_{i+1}
        assert cores[i] & cores[i + 1] == cores[i + 1]
        Gi = level_quotient(G, i)
        Gj, pj = dual_group(
            generated_subsystem(S, [x for x in S.universe if S.sort_of(x) <= i + 1])
        )
        pushed = Subgroup(Gj, [pj.image_of[x] for x in range(G.order) if cores[i] >> x & 1])
        Q, _ = quotient(Gj, pushed)
        assert isomorphic(Q, Gi)


@pytest.mark.parametrize("name", ["S3", "D4", "C12", "A4"])
def test_low_sorts_survive_the_level_quotient(name):
    # the sort <= i part of S(G_j) matches the sort <= i part of S(G)
    # through the dual embedding, whenever j >= i
    G = corpus.group(name)
    S = complete_system(G)
    for j in sorted({1, 2, 3, 4, 6, G.order}):
        Gj, pj = dual_group(
            generated_subsystem(S, [x for x in S.universe if S.sort_of(x) <= j])
        )
        emb = dual_embedding(pj)
        for i in range(1, j + 1):
            image = {
                emb(x) for x in emb.source.universe if emb.source.sort_of(x) <= i
            }
            want = {x for x in S.universe if S.sort_of(x) <= i}
            assert image == want


@pytest.mark.parametrize("name", SAMPLE)
def test_sort_restricted_universes_grow_monotonically(name):
    S = complete_system(corpus.group(name))
    sizes = [
        sum(1 for x in S.universe if S.sort_of(x) <= i)
        for i in range(1, S.group.order + 1)
    ]
    assert sizes[0] >= 1
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] == len(S.universe)


# -- dual embeddings ------------------------------------------------------------------


def test_identity_dualizes_to_identity():
    G = corpus.group("S3")
    emb = dual_embedding(GroupHom(G, G, range(G.order)))
    assert emb.image_of == {x: x for x in emb.source.universe}


def test_z4_to_z2_embedding_lands_on_low_sorts():
    C4 = cyclic(4)
    emb = dual_embedding(GroupHom(C4, cyclic(2), [0, 1, 0, 1]))
    assert len(emb.source.universe) == 3
    S = complete_system(C4)
    assert set(emb.image_of.values()) == {x for x in S.universe if S.sort_of(x) <= 2}


def test_collapse_to_trivial_embeds_the_constant():
    G = corpus.group("D4")
    emb = dual_embedding(GroupHom(G, cyclic(1), [0] * 8))
    assert emb.image_of == {emb.source.one: emb.target.one}


def test_non_surjective_maps_are_rejected():
    with pytest.raises(GroupError, match="surjective"):
        dual_embedding(GroupHom(cyclic(2), cyclic(4), [0, 2]))


def epi_examples():
    S3 = corpus.group("S3")
    sign = [0 if S3.element_order(x) in (1, 3) else 1 for x in range(6)]
    yield GroupHom(S3, cyclic(2), sign)
    yield GroupHom(cyclic(12), cyclic(4), [x % 4 for x in range(12)])
    Q8 = corpus.group("Q8")
    _, pi = quotient(Q8, Subgroup(Q8, (2,)))
    yield pi
    D4 = corpus.group("D4")
    _, pi = quotient(D4, Subgroup(D4, (2,)))
    yield pi


@pytest.mark.parametrize("phi", list(epi_examples()), ids=["S3sign", "C12toC4", "Q8", "D4"])
def test_embedding_preserves_and_reflects_relations(phi):
    emb = dual_embedding(phi)
    src, tgt = emb.source, emb.target
    f = emb.image_of
    assert f[src.one] == tgt.one
    for x in src.universe:
        assert src.sort_of(x) == tgt.sort_of(f[x])
        for y in src.universe:
            assert ((x, y) in src.compat) == ((f[x], f[y]) in tgt.compat)
            assert ((x, y) in src.leq) == ((f[x], f[y]) in tgt.leq)
    for mask in {x[0] for x in src.universe}:
        reps = [x for x in src.universe if x[0] == mask]
        for x in reps:
            for y in reps:
                for z in reps:
                    assert ((x, y, z) in src.prod) == ((f[x], f[y], f[z]) in tgt.prod)


def test_embedding_validation():
    S2 = complete_system(cyclic(2))
    S4 = complete_system(cyclic(4))
    with pytest.raises(GroupError, match="whole source"):
        SystemEmbedding(S2, S4, {})
    full = (1 << 4) - 1
    squash = {x: (full, 0) for x in S2.universe}
    with pytest.raises(GroupError, match="injective"):
        SystemEmbedding(S2, S4, squash)
    off = {(0b11, 0): (full, 0), (0b01, 0): (0b0101, 0), (0b01, 1): (0b0110, 0)}
    with pytest.raises(GroupError, match="outside"):
        SystemEmbedding(S2, S4, off)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_dual_embedding_into_a_given_system_matches_a_built_one(name):
    # the level tower's projections, embedded into the suite's own system
    # and into a complete system built afresh
    G = corpus.group(name)
    S = complete_system(G)
    for j in sorted({1, 2, G.order}):
        _, pj = dual_group(
            generated_subsystem(S, [x for x in S.universe if S.sort_of(x) <= j])
        )
        given = dual_embedding(pj, S)
        built = dual_embedding(pj)
        assert given.target is S
        assert given.image_of == built.image_of
        assert given.target.universe == built.target.universe


def test_dual_embedding_rejects_a_foreign_or_partial_target():
    G = corpus.group("D4")
    S = complete_system(G)
    phi = GroupHom(G, G, range(G.order))
    with pytest.raises(GroupError, match="complete system of the source"):
        dual_embedding(phi, complete_system(corpus.group("Q8")))
    with pytest.raises(GroupError, match="complete system of the source"):
        dual_embedding(phi, generated_subsystem(S, [x for x in S.universe if S.sort_of(x) <= 2]))


def class_data(S):
    """Every datum S is generated from, with its relation sizes."""
    return (
        [N.mask for N in S.normals],
        S.universe,
        S.one,
        S._sizes,
        S._rep_in,
        S._reps,
        S._above,
        S._id_of,
    )


C2_6 = FiniteGroup([[a ^ b for b in range(64)] for a in range(64)])


@pytest.mark.parametrize("name", ALL_NAMES + ["C2^6"])
def test_the_carried_system_of_g_mod_1_matches_a_built_one(name, monkeypatch):
    # G/{0} is G on the same indices, so dual_embedding carries the
    # target's class data across; complete_system(G/{0}) builds the same
    # system, and the embedding through it is the same map
    G = C2_6 if name == "C2^6" else corpus.group(name)
    S = complete_system(G)
    H, pi = quotient(G, Subgroup(G))
    assert pi.image_of == tuple(range(G.order))
    emb = dual_embedding(pi, S)
    carried, built = emb.source, complete_system(H)
    assert carried.group is H and all(N.group is H for N in carried.normals)
    assert carried.normals == built.normals
    assert class_data(carried) == class_data(built)
    carried.validate()
    if name == "C2^6":
        # 10,425,879 <= pairs, past the dump's line cap either way
        for T in (carried, built):
            with pytest.raises(CapExceeded):
                T.dump()
    else:
        assert carried.dump() == built.dump()
    # the carried data are copies: changing them leaves S whole
    carried._above[(1 << G.order) - 1] = 0
    S.validate()
    monkeypatch.setattr(
        CompleteSystem, "_carried", classmethod(lambda cls, S, group: complete_system(group))
    )
    rebuilt = dual_embedding(pi, S)
    assert rebuilt.source is not S and rebuilt.source.group is H
    assert rebuilt.image_of == emb.image_of


# -- dump format -----------------------------------------------------------------------


# CompleteSystem.dump() as it stood before it joined per class block: one
# formatted line per universe element and per relation tuple, read from
# the relations themselves; kept as the slow oracle
def oracle_dump(S) -> str:
    ids = {N.mask: i for i, N in enumerate(S.normals)}

    def name(x):
        return "N#%d rep=%d" % (ids[x[0]], x[1])

    lines = ["%s sort=%d" % (name(x), S.sort_of(x)) for x in S.universe]
    lines.extend("C %s %s" % (name(x), name(y)) for x, y in S.compat)
    lines.extend("<= %s %s" % (name(x), name(y)) for x, y in S.leq)
    lines.extend("P %s %s %s" % (name(x), name(y), name(z)) for x, y, z in S.prod)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", ALL_NAMES)
def test_dump_matches_the_per_tuple_oracle(name):
    # the system and its level-1 and level-2 generated subsystems, whose
    # classes are numbered afresh
    S = complete_system(corpus.group(name))
    assert S.dump() == oracle_dump(S)
    for level in (1, 2):
        sub = generated_subsystem(S, [x for x in S.universe if S.sort_of(x) <= level])
        assert sub.dump() == oracle_dump(sub)


def test_dump_matches_the_per_tuple_oracle_on_c2_5():
    S = complete_system(direct_product(*[cyclic(2)] * 5))
    got = S.dump()
    assert got.count("\n") == 393_152
    assert got == oracle_dump(S)



def test_dump_of_z2_exactly():
    got = complete_system(cyclic(2)).dump()
    assert got == (
        "N#0 rep=0 sort=1\n"
        "N#1 rep=0 sort=2\n"
        "N#1 rep=1 sort=2\n"
        "C N#0 rep=0 N#0 rep=0\n"
        "C N#1 rep=0 N#0 rep=0\n"
        "C N#1 rep=0 N#1 rep=0\n"
        "C N#1 rep=1 N#0 rep=0\n"
        "C N#1 rep=1 N#1 rep=1\n"
        "<= N#0 rep=0 N#0 rep=0\n"
        "<= N#1 rep=0 N#0 rep=0\n"
        "<= N#1 rep=0 N#1 rep=0\n"
        "<= N#1 rep=0 N#1 rep=1\n"
        "<= N#1 rep=1 N#0 rep=0\n"
        "<= N#1 rep=1 N#1 rep=0\n"
        "<= N#1 rep=1 N#1 rep=1\n"
        "P N#0 rep=0 N#0 rep=0 N#0 rep=0\n"
        "P N#1 rep=0 N#1 rep=0 N#1 rep=0\n"
        "P N#1 rep=0 N#1 rep=1 N#1 rep=1\n"
        "P N#1 rep=1 N#1 rep=0 N#1 rep=1\n"
        "P N#1 rep=1 N#1 rep=1 N#1 rep=0\n"
    )


@pytest.mark.parametrize("name", ["S3", "C4xC2", "Q8"])
def test_dump_is_deterministic(name):
    a = complete_system(corpus.group(name)).dump()
    b = complete_system(corpus.group(name)).dump()
    assert a == b
    lines = a.splitlines()
    assert lines[0] == "N#0 rep=0 sort=1"
    assert len(lines) == len(set(lines))


def test_subsystem_dump_renumbers_classes():
    S = complete_system(cyclic(4))
    sub = generated_subsystem(S, [(0b0101, 1)])
    head = sub.dump().splitlines()[:3]
    assert head == ["N#0 rep=0 sort=1", "N#1 rep=0 sort=2", "N#1 rep=1 sort=2"]
