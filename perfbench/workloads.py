"""Seeded setup files and CLI operations for the benchmark workloads.

Every workload is a list of operations, each one `fmeas` CLI invocation
on a generated JSON setup file.  The seed decides the element labelling
of every group table (a random relabelling that keeps 0 as the
identity), the normal subgroup N where several of equal cost exist, the
lift tuple, and which sweep files carry a tower.  The program sees only
the files.  Choices that would change the amount of work (the group,
the order of N, the lift length) are fixed per workload, so runs with
different seeds measure the same work on different bytes.
"""

from __future__ import annotations

import json
import os
import random
from typing import NamedTuple, Optional

from fmeas import (
    FiniteGroup,
    Subgroup,
    SubextLattice,
    all_subgroups,
    build_group,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    make_setup,
    quotient,
    semidirect_product,
    symmetric,
)

# share of sweep files that also get a tower to a quotient G/M
TOWER_SHARE = 0.125


class Op(NamedTuple):
    """One CLI invocation: argv after `fmeas`, with the file name at argv[1]."""

    key: str
    argv: tuple[str, ...]
    file: str
    expect: int
    kind: str


class Workload(NamedTuple):
    files: dict  # file name -> JSON object
    facts: dict  # file name -> what the checks need to know about it
    ops: tuple[Op, ...]


# -- groups ------------------------------------------------------------------------


def _c2n(k: int) -> FiniteGroup:
    return direct_product(*[cyclic(2)] * k)


def _alternating4() -> FiniteGroup:
    return build_group({"permutations": [[1, 2, 0, 3], [1, 0, 3, 2]]})


def _sl23() -> FiniteGroup:
    vecs = [(x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)]
    idx = {v: i for i, v in enumerate(vecs)}

    def perm(m):
        (a, b), (c, d) = m
        return [idx[((a * x + b * y) % 3, (c * x + d * y) % 3)] for x, y in vecs]

    return build_group({"permutations": [perm(((0, 2), (1, 0))), perm(((1, 1), (0, 1)))]})


def _c8_by_c2(k: int) -> FiniteGroup:
    return semidirect_product(cyclic(8), cyclic(2), [list(range(8)), [x * k % 8 for x in range(8)]])


def _central_product_16() -> FiniteGroup:
    G = direct_product(dihedral(4), cyclic(4))
    return quotient(G, Subgroup(G, (10,)))[0]


def _c4_by_c4() -> FiniteGroup:
    ident, inv = list(range(4)), [(-x) % 4 for x in range(4)]
    return semidirect_product(cyclic(4), cyclic(4), [ident, inv, ident, inv])


def _c4xc2_by_c2() -> FiniteGroup:
    alpha = [2 * (i // 2) + (i // 2 + i % 2) % 2 for i in range(8)]
    return semidirect_product(direct_product(cyclic(4), cyclic(2)), cyclic(2), [list(range(8)), alpha])


# one representative per isomorphism class of order <= 16 (42 classes)
SMALL_GROUPS = {
    "C1": lambda: cyclic(1),
    "C2": lambda: cyclic(2),
    "C3": lambda: cyclic(3),
    "C4": lambda: cyclic(4),
    "C2^2": lambda: _c2n(2),
    "C5": lambda: cyclic(5),
    "C6": lambda: cyclic(6),
    "S3": lambda: symmetric(3),
    "C7": lambda: cyclic(7),
    "C8": lambda: cyclic(8),
    "C4xC2": lambda: direct_product(cyclic(4), cyclic(2)),
    "C2^3": lambda: _c2n(3),
    "D4": lambda: dihedral(4),
    "Q8": lambda: dicyclic(2),
    "C9": lambda: cyclic(9),
    "C3xC3": lambda: direct_product(cyclic(3), cyclic(3)),
    "C10": lambda: cyclic(10),
    "D5": lambda: dihedral(5),
    "C11": lambda: cyclic(11),
    "C12": lambda: cyclic(12),
    "C6xC2": lambda: direct_product(cyclic(6), cyclic(2)),
    "D6": lambda: dihedral(6),
    "A4": _alternating4,
    "Dic3": lambda: dicyclic(3),
    "C13": lambda: cyclic(13),
    "C14": lambda: cyclic(14),
    "D7": lambda: dihedral(7),
    "C15": lambda: cyclic(15),
    "C16": lambda: cyclic(16),
    "C8xC2": lambda: direct_product(cyclic(8), cyclic(2)),
    "C4xC4": lambda: direct_product(cyclic(4), cyclic(4)),
    "C4xC2xC2": lambda: direct_product(cyclic(4), cyclic(2), cyclic(2)),
    "C2^4": lambda: _c2n(4),
    "D8": lambda: dihedral(8),
    "SD16": lambda: _c8_by_c2(3),
    "Q16": lambda: dicyclic(4),
    "M16": lambda: _c8_by_c2(5),
    "D4xC2": lambda: direct_product(dihedral(4), cyclic(2)),
    "Q8xC2": lambda: direct_product(dicyclic(2), cyclic(2)),
    "CP16": _central_product_16,
    "C4:C4": _c4_by_c4,
    "C4xC2:C2": _c4xc2_by_c2,
}

LARGE_GROUPS = {
    "S4": lambda: symmetric(4),
    "SL(2,3)": _sl23,
    "C2^5": lambda: _c2n(5),
    "D4xC2xC2": lambda: direct_product(dihedral(4), _c2n(2)),
    "C4xC4xC2": lambda: direct_product(cyclic(4), cyclic(4), cyclic(2)),
    "S4xC2": lambda: direct_product(symmetric(4), cyclic(2)),
    "C4^3": lambda: direct_product(cyclic(4), cyclic(4), cyclic(4)),
    "D4xD4": lambda: direct_product(dihedral(4), dihedral(4)),
    "D6xC2": lambda: direct_product(dihedral(6), cyclic(2)),
    "C6xC2xC2": lambda: direct_product(cyclic(6), _c2n(2)),
}


def make_group(name: str) -> FiniteGroup:
    maker = SMALL_GROUPS.get(name) or LARGE_GROUPS[name]
    return maker()


# -- seeded relabelling and file pieces -----------------------------------------------


class Labelled(NamedTuple):
    """A group together with a relabelling of its elements for one file."""

    group: FiniteGroup
    new: tuple[int, ...]  # old index -> new index; new[0] == 0

    def table(self) -> list[list[int]]:
        G, p = self.group, self.new
        out = [[0] * G.order for _ in range(G.order)]
        for a in range(G.order):
            row = G.table[a]
            for b in range(G.order):
                out[p[a]][p[b]] = p[row[b]]
        return out

    def elems(self, xs) -> list[int]:
        return [self.new[x] for x in xs]


def relabel(G: FiniteGroup, rng: random.Random) -> Labelled:
    rest = list(range(1, G.order))
    rng.shuffle(rest)
    return Labelled(G, tuple([0] + rest))


def normal_subgroups(G: FiniteGroup) -> list[Subgroup]:
    return [H for H in all_subgroups(G) if H.is_normal()]


def generators_of(G: FiniteGroup, mask: int, rng: random.Random) -> list[int]:
    """A seeded generating set of the subgroup with this mask (empty for 1)."""
    elems = [x for x in G.elems_of_mask(mask) if x]
    rng.shuffle(elems)
    gens, got = [], 1
    for x in elems:
        if not got >> x & 1:
            gens.append(x)
            got = G.closure_mask(gens)
        if got == mask:
            break
    return gens


def lift_tuple(G: FiniteGroup, N: Subgroup, n: Optional[int], rng: random.Random) -> list[int]:
    """A seeded sigma whose images generate G/N.

    With n given, draws n-tuples of quotient elements until one
    generates; with n None, uses the smallest length from 2 up for
    which a random draw generates.  Each coordinate is then a random
    element of its coset.
    """
    Q, r = quotient(G, N)
    full = (1 << Q.order) - 1
    lengths = [n] if n is not None else [2, 3, 4, 5, 6]
    for k in lengths:
        for _ in range(200):
            images = [rng.randrange(Q.order) for _ in range(k)]
            if Q.closure_mask(images) == full:
                cosets = [[g for g in range(G.order) if r.image_of[g] == q] for q in images]
                return [rng.choice(c) for c in cosets]
    raise RuntimeError("no generating lift found for %r" % (Q,))


def lattice_signature(G: FiniteGroup, N: Subgroup, base: Subgroup) -> tuple[int, ...]:
    """Sorted |H n N| over the lattice members: what the walk's cost depends on."""
    setup = make_setup(G, N.elements, lift_tuple(G, N, None, random.Random(0)))
    lat = SubextLattice(setup, base)
    return tuple(sorted(bin(H.mask & N.mask).count("1") for H in lat.members))


def whole(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, range(G.order))


class _Plan:
    """Collects files and operations for one workload and seed."""

    def __init__(self, name: str, seed: int):
        self.rng = random.Random("%s:%d" % (name, seed))
        self.files: dict = {}
        self.facts: dict = {}
        self.ops: list[Op] = []
        self._groups: dict[str, FiniteGroup] = {}

    def group(self, name: str) -> FiniteGroup:
        """Each group is built once per workload; its files share the object."""
        if name not in self._groups:
            self._groups[name] = make_group(name)
        return self._groups[name]

    def add_file(self, stem: str, data: dict, **facts) -> str:
        fname = "%s-%03d.json" % (stem, len(self.files))
        self.files[fname] = data
        self.facts[fname] = facts
        return fname

    def add_op(self, fname: str, kind: str, *args: str, expect: int = 0) -> None:
        argv = (args[0], fname) + tuple(args[1:])
        self.ops.append(Op(" ".join(argv), argv, fname, expect, kind))

    def setup_data(self, lab: Labelled, N: Subgroup, sigma, base: Optional[Subgroup] = None) -> dict:
        G = lab.group
        data = {
            "group": {"table": lab.table()},
            "normal": lab.elems(generators_of(G, N.mask, self.rng)),
            "sigma": lab.elems(sigma),
        }
        if base is not None:
            data["base"] = lab.elems(generators_of(G, base.mask, self.rng))
        return data

    def done(self) -> Workload:
        return Workload(self.files, self.facts, tuple(self.ops))


# -- the four workloads -----------------------------------------------------------------

# (group, |N|, n): large |H n N|^n, so the tuple walk dominates
WALK_SETUPS = (
    ("C2^4", 16, 4),
    ("C2^4", 8, 5),
    ("C4xC4", 16, 4),
    ("C4xC4", 8, 5),
    ("S4", 24, 4),
    ("S4", 12, 4),
    ("SL(2,3)", 24, 3),
    ("SL(2,3)", 8, 5),
    ("A4", 12, 4),
    ("D4", 8, 5),
    ("C3xC3", 9, 5),
)
# 16^6 translate tuples at the base row, over the default TUPLE_CAP of 10^7
WALK_OVER_CAP = ("C2^4", 16, 6)

WIDE_GROUPS = ("C2^5", "D4xC2xC2", "C4xC4xC2", "S4xC2", "C4^3", "D4xD4")

STRUCTURE_GROUPS = ("D4", "Q8", "C2^3", "C4xC2", "A4", "D6", "Dic3", "S4", "SL(2,3)", "D4xC2", "C6xC2xC2")
# (kind, argv after the command's file name is inserted)
STRUCTURE_OPS = (
    ("embedding", ("embedding",)),
    ("frattini", ("frattini",)),
    ("verify", ("verify", "--suite", "frattini")),
    ("verify", ("verify", "--suite", "invsys")),
    ("invsys-level", ("invsys", "--level", "2")),
    ("invsys-dump", ("invsys", "--dump")),
)


def _walk(b: _Plan) -> None:
    for gname, n_order, n in WALK_SETUPS + (WALK_OVER_CAP,):
        G = b.group(gname)
        full = whole(G)
        candidates = [N for N in normal_subgroups(G) if N.order == n_order]
        want = lattice_signature(G, candidates[0], full)
        N = b.rng.choice([M for M in candidates if lattice_signature(G, M, full) == want])
        sigma = lift_tuple(G, N, n, b.rng)
        lab = relabel(G, b.rng)
        fname = b.add_file(gname, b.setup_data(lab, N, sigma), order=G.order)
        if (gname, n_order, n) == WALK_OVER_CAP:
            b.add_op(fname, "measure", "measure", "--mode", "mu1", expect=3)
            continue
        b.add_op(fname, "measure", "measure", "--mode", "inf")
        b.add_op(fname, "measure-mu1", "measure", "--mode", "mu1")
        b.add_op(fname, "measure-iter", "measure", "--mode", "iter", "--steps", "8")


def _sweep(b: _Plan) -> None:
    for gname in SMALL_GROUPS:
        G = b.group(gname)
        lab = relabel(G, b.rng)
        normals = normal_subgroups(G)
        eligible = []
        for N in normals:
            sigma = lift_tuple(G, N, None, b.rng)
            fname = b.add_file(gname, b.setup_data(lab, N, sigma), order=G.order)
            b.add_op(fname, "lattice", "lattice")
            b.add_op(fname, "measure", "measure")
            b.add_op(fname, "verify", "verify", "--suite", "markov")
            inside = [M for M in normals if M.order > 1 and M.mask & N.mask == M.mask]
            if inside:
                eligible.append((fname, inside))
        # the same number of towers per group on every seed keeps the work fixed
        for fname, inside in b.rng.sample(eligible, round(TOWER_SHARE * len(eligible))):
            Q, pi = quotient(G, b.rng.choice(inside))
            low = relabel(Q, b.rng)
            gens = generators_of(G, (1 << G.order) - 1, b.rng)
            b.files[fname]["tower"] = {
                "group": {"table": low.table()},
                "map": [[lab.new[g], low.new[pi.image_of[g]]] for g in gens],
            }
            b.add_op(fname, "verify", "verify", "--suite", "tower")


def _central_involutions(G: FiniteGroup) -> list[Subgroup]:
    """The normal subgroups of order 2, found from the centre without enumerating subgroups."""
    center = G.center_mask()
    return [Subgroup(G, (z,)) for z in G.elems_of_mask(center) if z and G.element_order(z) == 2]


def _wide(b: _Plan) -> None:
    for gname in WIDE_GROUPS:
        G = b.group(gname)
        N = b.rng.choice(_central_involutions(G))
        sigma = lift_tuple(G, N, None, b.rng)
        lab = relabel(G, b.rng)
        files = [b.add_file(gname, b.setup_data(lab, N, sigma), order=G.order)]
        if gname == "C2^5":
            # a proper base: the kernel K of a character that is -1 on N, so KN = G
            (z,) = N.elements[1:]
            v = b.rng.choice([v for v in range(1, G.order) if bin(v & z).count("1") % 2])
            K = Subgroup(G, [x for x in range(G.order) if bin(x & v).count("1") % 2 == 0])
            # lattice members lie in K, so their orders divide |K|
            files.append(b.add_file(gname + "-base", b.setup_data(lab, N, sigma, base=K), order=K.order))
        for fname in files:
            b.add_op(fname, "lattice", "lattice")
            b.add_op(fname, "measure", "measure")
            b.add_op(fname, "measure-iter", "measure", "--mode", "iter", "--steps", "4")


def _structure(b: _Plan) -> None:
    for gname in STRUCTURE_GROUPS + ("C2^5",):
        G = b.group(gname)
        normals = normal_subgroups(G)
        N = b.rng.choice(normals)
        sigma = lift_tuple(G, N, None, b.rng)
        lab = relabel(G, b.rng)
        fname = b.add_file(
            gname,
            b.setup_data(lab, N, sigma),
            order=G.order,
            normals=len(normals),
            elements=sum(G.order // M.order for M in normals),
        )
        if gname == "C2^5":
            b.add_op(fname, "invsys", "invsys")
            continue
        for kind, args in STRUCTURE_OPS:
            b.add_op(fname, kind, *args)


_GENERATORS = {"walk": _walk, "sweep": _sweep, "wide": _wide, "structure": _structure}


def build_workload(name: str, seed: int) -> Workload:
    """Every file and operation of one workload, reproducible from the seed."""
    if name not in _GENERATORS:
        raise ValueError("unknown workload %r" % name)
    b = _Plan(name, seed)
    _GENERATORS[name](b)
    return b.done()


def write_files(workload: Workload, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for fname, data in workload.files.items():
        with open(os.path.join(directory, fname), "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))
