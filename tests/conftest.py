# keeps the tests directory importable (corpus.py helpers)
from pathlib import Path

from fmeas.groups import GroupHom

FIXTURES = Path(__file__).parent / "fixtures"


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
