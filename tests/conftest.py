# keeps the tests directory importable (corpus.py helpers)
import sys
from pathlib import Path

from fmeas import groups
from fmeas.groups import GroupError, GroupHom, normal_subgroups

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
    once per call, wrapped at every fmeas module that binds it."""
    calls = []
    real = groups._subgroups_within

    def counted(G, seeds, extend):
        calls.append(G)
        return real(G, seeds, extend)

    for name, module in list(sys.modules.items()):
        if (name == "fmeas" or name.startswith("fmeas.")) and getattr(
            module, "_subgroups_within", None
        ) is real:
            monkeypatch.setattr(module, "_subgroups_within", counted)
    return calls


def is_frattini_restriction(H, r):
    """True iff no proper subgroup of H still maps onto the target of r.

    The subgroups of H are searched lazily, the trivial one first, and
    the search stops at the first proper one that maps onto the target:
    the oracle for the verify suite's restriction check, which reads the
    subgroups meeting every coset of the kernel off G's subgroup list.
    """
    G = H.group
    if r.source is not G:
        raise GroupError("r is not defined on the parent group of H")
    full_target = (1 << r.target.order) - 1
    if r.image_mask(H.mask) != full_target:
        raise GroupError("restriction of r to H is not surjective")
    groups._check_order_cap(H.order)
    for mask in groups._subgroups_within(G, [(1, 0)], H.mask):
        if mask != H.mask and r.image_mask(mask) == full_target:
            return False
    return True
