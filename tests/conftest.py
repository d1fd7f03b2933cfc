# keeps the tests directory importable (corpus.py helpers)
from pathlib import Path

from fmeas import groups
from fmeas.groups import GroupHom, normal_subgroups

FIXTURES = Path(__file__).parent / "fixtures"


def d4_power_generators(k):
    """Generators of D4^k on 4k points: a 4-cycle and a reflection per
    factor, factor f on points 4f to 4f + 3.  A permutation closure
    lists them first, as elements 1 to 2k."""
    gens = []
    for f in range(k):
        for p4 in ([1, 2, 3, 0], [0, 3, 2, 1]):
            perm = list(range(4 * k))
            perm[4 * f : 4 * f + 4] = [4 * f + v for v in p4]
            gens.append(perm)
    return gens


def normal_family(G):
    """All normal subgroups, ordered by index then element tuple: the
    order of a complete system's family."""
    return tuple(sorted(normal_subgroups(G), key=lambda H: (G.order // H.order, H.elements)))


def count_hom_builds(monkeypatch):
    """(checked, derived): the (source, target) orders of every GroupHom
    built by the checking constructor and by GroupHom._onto."""
    checked, derived = [], []
    init, onto = GroupHom.__init__, GroupHom._onto.__func__

    def counted_init(self, source, target, image_of):
        checked.append((source.order, target.order))
        init(self, source, target, image_of)

    def counted_onto(cls, source, target, image_of):
        derived.append((source.order, target.order))
        return onto(cls, source, target, image_of)

    monkeypatch.setattr(GroupHom, "__init__", counted_init)
    monkeypatch.setattr(GroupHom, "_onto", classmethod(counted_onto))
    return checked, derived


def count_enumerations(monkeypatch):
    """The groups whose subgroups _subgroups_within searches from now on,
    once per call."""
    calls = []
    real = groups._subgroups_within

    def counted(G, seeds, extend):
        calls.append(G)
        return real(G, seeds, extend)

    monkeypatch.setattr(groups, "_subgroups_within", counted)
    return calls
