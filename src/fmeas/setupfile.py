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
    CapExceeded,
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


def _line_of(raw: str, key: str, start: int = 1) -> int:
    """The first line from line start on that holds "key", else start."""
    needle = '"%s"' % key
    for i, line in enumerate(raw.splitlines()[start - 1 :], start=start):
        if needle in line:
            return i
    return start


def _fail(path: str, raw: str, key: str, msg: str, start: int = 1) -> SetupFileError:
    return SetupFileError("%s:%d: %s" % (path, _line_of(raw, key, start), msg))


def _int_list(value, path: str, raw: str, key: str, start: int = 1) -> list[int]:
    if not isinstance(value, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    ):
        raise _fail(path, raw, key, '"%s" must be a list of integers' % key, start)
    return value


def _build(spec, path: str, raw: str, key: str) -> FiniteGroup:
    """build_group, its errors prefixed with the path and the key's line;
    a cap keeps its own class, so the command still exits 3."""
    try:
        return build_group(spec)
    except GroupError as e:
        raise _fail(path, raw, key, str(e))
    except CapExceeded as e:
        raise CapExceeded("%s:%d: %s" % (path, _line_of(raw, key), e)) from None


def load_setup(path: str) -> LoadedSetup:
    """Parse, build, and re-verify everything the file describes."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as e:
        raise SetupFileError("cannot read %s: %s" % (path, e.strerror)) from None
    except UnicodeDecodeError:
        raise SetupFileError("%s: not valid UTF-8" % path) from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as e:
        raise SetupFileError("%s:%d: not valid JSON: %s" % (path, e.lineno, e.msg))
    except ValueError as e:
        # an integer past CPython's limit on int-string conversion, which
        # json reports with no position
        raise SetupFileError("%s: not valid JSON: %s" % (path, e)) from None
    except RecursionError:
        # arrays or objects nested past the interpreter's recursion limit
        raise SetupFileError("%s: not valid JSON: nested too deeply" % path) from None
    if not isinstance(data, dict):
        raise SetupFileError("%s:1: the top level must be an object" % path)
    for key in data:
        if key not in TOP_KEYS:
            raise _fail(path, raw, key, 'unknown key "%s"' % key)
    for key in ("group", "normal", "sigma"):
        if key not in data:
            raise SetupFileError('%s:1: missing required key "%s"' % (path, key))

    G = _build(data["group"], path, raw, "group")

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
        # an event is looked for from the "events" key on, so one named
        # like an earlier key is not reported at that key's line
        start = _line_of(raw, "events")
        for name, entries in ev.items():
            if not isinstance(entries, list):
                raise _fail(path, raw, name, 'event "%s" must list subgroups' % name, start)
            subs = []
            for gens in entries:
                member_gens = _int_list(gens, path, raw, name, start)
                try:
                    S = Subgroup(G, member_gens)
                except GroupError as e:
                    raise _fail(path, raw, name, 'event "%s": %s' % (name, e), start)
                # the lattice members are the base's subgroups that qualify
                if S.mask & base.mask != S.mask or not setup.qualifies(S.mask):
                    msg = 'event "%s": subgroup is not a lattice member' % name
                    raise _fail(path, raw, name, msg, start)
                subs.append(S)
            events[name] = tuple(subs)

    tower: Optional[GroupHom] = None
    if "tower" in data:
        tower = _load_tower(data["tower"], G, path, raw)

    return LoadedSetup(path, setup, base, events, tower)


def _load_tower(spec, G: FiniteGroup, path: str, raw: str) -> GroupHom:
    if not isinstance(spec, dict) or set(spec) != TOWER_KEYS:
        raise _fail(path, raw, "tower", '"tower" needs exactly "group" and "map"')
    H = _build(spec["group"], path, raw, "tower")
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
