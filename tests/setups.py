"""Shared Galois setups: (setup, base subgroup, lattice) per scenario name.

Covers trivial quotients, proper quotients, lifts of length 1 to 3,
single-member lattices, and a proper base subgroup.
"""

from __future__ import annotations

from fmeas.groups import FiniteGroup, Subgroup, normal_subgroups, quotient
from fmeas.lattice import GaloisSetup, SubextLattice, make_setup, s_lattice

import corpus


def _transposition(G: FiniteGroup) -> int:
    return next(x for x in range(G.order) if G.element_order(x) == 2)


def _three_cycle(G: FiniteGroup) -> int:
    return next(x for x in range(G.order) if G.element_order(x) == 3)


def _build(name: str) -> tuple[GaloisSetup, Subgroup, SubextLattice]:
    if name == "Z2-full":
        G = corpus.group("C2")
        setup = make_setup(G, [1], (1,))
    elif name == "Klein-first":
        G = corpus.group("C2xC2")
        setup = make_setup(G, [2], (1,))
    elif name == "Z4-g":
        G = corpus.group("C4")
        setup = make_setup(G, [2], (1,))
    elif name == "S3-A3":
        G = corpus.group("S3")
        setup = make_setup(G, [_three_cycle(G)], (_transposition(G),))
    elif name == "S3-full":
        G = corpus.group("S3")
        setup = make_setup(G, [_three_cycle(G), _transposition(G)], (_transposition(G),))
    elif name == "C6-half":
        G = corpus.group("C6")
        setup = make_setup(G, [3], (1,))
    elif name == "C4xC2-N4":
        G = corpus.group("C4xC2")
        setup = make_setup(G, [2], (1,))
    elif name == "C4xC2-subK":
        G = corpus.group("C4xC2")
        setup = make_setup(G, [1], (2,))
        K = Subgroup(G, (2,))
        return setup, K, s_lattice(setup, K)
    elif name == "Q8-center":
        G = corpus.group("Q8")
        setup = make_setup(G, [2], (1, 4))
    elif name == "D4-center":
        G = corpus.group("D4")
        setup = make_setup(G, [2], (1, 4))
    elif name == "C13-n1":
        G = corpus.group("C13")
        setup = make_setup(G, [1], (1,))
    elif name == "C13-n2":
        G = corpus.group("C13")
        setup = make_setup(G, [1], (1, 1))
    elif name == "C3-n2":
        G = corpus.group("C3")
        setup = make_setup(G, [1], (1, 1))
    elif name == "C2^4-e1":
        G = corpus.group("C2^4")
        setup = make_setup(G, [8], (4, 2, 1))
    elif name == "C2^4-mid":
        G = corpus.group("C2^4")
        setup = make_setup(G, [8, 4], (2, 1))
    elif name == "S4-full":
        G = corpus.group("S4")
        setup = make_setup(G, [_transposition(G), _three_cycle(G), 1, 2, 3], (1,))
        if setup.n_sub.order != 24:
            raise RuntimeError("expected the whole of S4")
    else:
        raise KeyError(name)
    K = Subgroup(setup.group, range(setup.group.order))
    return setup, K, s_lattice(setup, K)


NAMES = [
    "Z2-full",
    "Klein-first",
    "Z4-g",
    "S3-A3",
    "S3-full",
    "C6-half",
    "C4xC2-N4",
    "C4xC2-subK",
    "Q8-center",
    "D4-center",
    "C13-n1",
    "C13-n2",
    "C3-n2",
    "C2^4-e1",
    "C2^4-mid",
    "S4-full",
]

_cache: dict[str, tuple[GaloisSetup, Subgroup, SubextLattice]] = {}


def get(name: str) -> tuple[GaloisSetup, Subgroup, SubextLattice]:
    got = _cache.get(name)
    if got is None:
        got = _build(name)
        _cache[name] = got
    return got


_corpus: list[tuple[str, GaloisSetup, Subgroup, SubextLattice]] = []


def corpus_lattices() -> list[tuple[str, GaloisSetup, Subgroup, SubextLattice]]:
    """(tag, setup, base, lattice) for every named scenario, then for every
    group of order <= 16 and each of its normal subgroups N, over the
    whole group.  sigma lifts the quotient's generator sequence to the
    least element of each coset, padded with the identity to length 2.
    """
    if not _corpus:
        _corpus.extend((name,) + get(name) for name in NAMES)
        for gname, G in corpus.classes_upto(16):
            K = Subgroup(G, range(G.order))
            for N in normal_subgroups(G):
                Q, r = quotient(G, N)
                images = list(Q.generator_sequence())
                images += [0] * (2 - len(images))
                sigma = tuple(
                    min(g for g in range(G.order) if r.image_of[g] == q) for q in images
                )
                setup = GaloisSetup(G, N, sigma)
                tag = "%s N=%s" % (gname, N.display_name())
                _corpus.append((tag, setup, K, SubextLattice(setup, K)))
    return _corpus
