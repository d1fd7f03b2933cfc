"""JSON setup files for the command line.

A file names one measure setup and, optionally, events over its lattice
and an epimorphism onto a second, smaller group, the lower level of a
tower:

    {
      "group":  {"table": [[...], ...]} or {"permutations": [[...], ...]},
      "normal": [generators of N],
      "sigma":  [lift tuple],
      "base":   [generators of K]          (optional; whole group if absent),
      "events": {"name": [[gens], ...]}    (optional; each entry one member),
      "tower":  {"group": ..., "map": [[g, image], ...]}   (optional)
    }

Permutations are 0-indexed image arrays.  The tower map lists images of
group elements that must generate the upper group; the file loads to
the resulting epimorphism, and pushforward_check derives the lower
level from it as the image of the upper one.  Every error message
carries the file path and the line of the offending key.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from .groups import (
    FiniteGroup,
    GroupError,
    GroupHom,
    Subgroup,
    build_group,
    hom_from_images,
)
from .lattice import GaloisSetup, make_setup

TOP_KEYS = {"group", "normal", "sigma", "base", "events", "tower"}
TOWER_KEYS = {"group", "map"}


class SetupFileError(GroupError):
    """Validation failure; the message already carries path and line."""


class LoadedSetup:
    __slots__ = ("path", "group", "setup", "base", "events", "tower")

    def __init__(
        self,
        path: str,
        setup: GaloisSetup,
        base: Subgroup,
        events: Dict[str, tuple[Subgroup, ...]],
        tower: Optional[GroupHom],
    ):
        self.path = path
        self.group = setup.group
        self.setup = setup
        self.base = base
        self.events = events
        self.tower = tower

    def __repr__(self) -> str:
        return "LoadedSetup(%r, order %d)" % (self.path, self.group.order)


def _line_of(raw: str, key: str) -> int:
    needle = '"%s"' % key
    for i, line in enumerate(raw.splitlines(), start=1):
        if needle in line:
            return i
    return 1


def _fail(path: str, raw: str, key: str, msg: str) -> SetupFileError:
    return SetupFileError("%s:%d: %s" % (path, _line_of(raw, key), msg))


def _int_list(value, path: str, raw: str, key: str) -> list[int]:
    if not isinstance(value, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    ):
        raise _fail(path, raw, key, '"%s" must be a list of integers' % key)
    return value


def load_setup(path: str) -> LoadedSetup:
    """Parse, build, and re-verify everything the file describes."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as e:
        raise SetupFileError("cannot read %s: %s" % (path, e.strerror)) from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as e:
        raise SetupFileError("%s:%d: not valid JSON: %s" % (path, e.lineno, e.msg))
    if not isinstance(data, dict):
        raise SetupFileError("%s:1: the top level must be an object" % path)
    for key in data:
        if key not in TOP_KEYS:
            raise _fail(path, raw, key, 'unknown key "%s"' % key)
    for key in ("group", "normal", "sigma"):
        if key not in data:
            raise SetupFileError('%s:1: missing required key "%s"' % (path, key))

    try:
        G = build_group(data["group"])
    except GroupError as e:
        raise _fail(path, raw, "group", str(e))

    n_gens = _int_list(data["normal"], path, raw, "normal")
    sigma = _int_list(data["sigma"], path, raw, "sigma")
    try:
        setup = make_setup(G, n_gens, tuple(sigma))
    except GroupError as e:
        key = "sigma" if "sigma" in str(e) else "normal"
        raise _fail(path, raw, key, str(e))

    if "base" in data:
        base_gens = _int_list(data["base"], path, raw, "base")
        try:
            base = Subgroup(G, base_gens)
        except GroupError as e:
            raise _fail(path, raw, "base", str(e))
        if not setup.qualifies(base.mask):
            raise _fail(path, raw, "base", "base subgroup does not map onto the quotient")
    else:
        base = Subgroup._of_mask(G, (1 << G.order) - 1)

    events: Dict[str, tuple[Subgroup, ...]] = {}
    if "events" in data:
        ev = data["events"]
        if not isinstance(ev, dict):
            raise _fail(path, raw, "events", '"events" must be an object')
        for name, entries in ev.items():
            if not isinstance(entries, list):
                raise _fail(path, raw, name, 'event "%s" must list subgroups' % name)
            subs = []
            for gens in entries:
                member_gens = _int_list(gens, path, raw, name)
                try:
                    S = Subgroup(G, member_gens)
                except GroupError as e:
                    raise _fail(path, raw, name, 'event "%s": %s' % (name, e))
                # the lattice members are the base's subgroups that qualify
                if S.mask & base.mask != S.mask or not setup.qualifies(S.mask):
                    raise _fail(
                        path, raw, name, 'event "%s": subgroup is not a lattice member' % name
                    )
                subs.append(S)
            events[name] = tuple(subs)

    tower: Optional[GroupHom] = None
    if "tower" in data:
        tower = _load_tower(data["tower"], G, path, raw)

    return LoadedSetup(path, setup, base, events, tower)


def _load_tower(spec, G: FiniteGroup, path: str, raw: str) -> GroupHom:
    if not isinstance(spec, dict) or set(spec) != TOWER_KEYS:
        raise _fail(path, raw, "tower", '"tower" needs exactly "group" and "map"')
    try:
        H = build_group(spec["group"])
    except GroupError as e:
        raise _fail(path, raw, "tower", str(e))
    pairs = spec["map"]
    if not isinstance(pairs, list) or not all(
        isinstance(p, list)
        and len(p) == 2
        and all(isinstance(v, int) and not isinstance(v, bool) for v in p)
        for p in pairs
    ):
        raise _fail(path, raw, "map", '"map" must list [element, image] pairs')
    gens = [p[0] for p in pairs]
    imgs = [p[1] for p in pairs]
    if any(not 0 <= g < G.order for g in gens):
        raise _fail(path, raw, "map", "map element out of range")
    if any(not 0 <= h < H.order for h in imgs):
        raise _fail(path, raw, "map", "map image out of range")
    if G.closure_mask(tuple(gens)) != (1 << G.order) - 1:
        raise _fail(path, raw, "map", "map elements do not generate the group")
    pi = hom_from_images(G, H, gens, imgs)
    if pi is None:
        raise _fail(path, raw, "map", "map does not extend to a homomorphism")
    if not pi.is_surjective:
        raise _fail(path, raw, "map", "map is not surjective onto the lower group")
    return pi
