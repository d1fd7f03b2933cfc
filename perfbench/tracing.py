"""Spans and counters around the public entry points of each fmeas module.

The tracer patches the package from outside: every `fmeas.*` module
attribute bound to a traced function is replaced by a wrapper, so a
name that another module imported directly (`from .groups import
quotient`) is caught too.  Methods are patched on their class.  Spans
are kept in memory as (name, start, end, parent, op) and written out
when the run ends; a layer's self time is its span's duration minus the
part of that interval its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    op: int  # id of the CLI operation the span belongs to


def _value_bits(vector) -> int:
    return max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in vector.values)


def _count_walk(c, args, kwargs, result):
    c["backend.walk_calls"] += 1
    c["measure.tuples"] += args[6] - args[5]


def _count_subgroups(c, args, kwargs, result):
    c["groups.subgroups_enumerated"] += len(result)


def _count_lattice(c, args, kwargs, result):
    lat = args[0]
    c["lattice.members"] += len(lat.members)
    c["lattice.maximal"] += lat.n_maximal


def _count_transition(c, args, kwargs, result):
    c["measure.transition_builds"] += 1
    c["measure.rows"] += len(result.rows)


def _count_vector(c, args, kwargs, result):
    c["measure.max_bits"] = max(c["measure.max_bits"], _value_bits(result))


def _count_system(c, args, kwargs, result):
    S = args[0]
    c["invsys.relation_tuples"] += len(S.compat) + len(S.leq) + len(S.prod)


def _counter(key: str) -> Callable:
    def count(c, args, kwargs, result):
        c[key] += 1

    return count


def _count_found(c, args, kwargs, result):
    c["groups.epimorphisms_found"] += len(result)


# (module, attribute path, span name, counter)
TARGETS = (
    ("fmeas.cli", "main", "cli.main", None),
    ("fmeas.setupfile", "load_setup", "setupfile.load_setup", None),
    ("fmeas.groups", "build_group", "groups.build_group", _counter("groups.builds")),
    ("fmeas.groups", "all_subgroups", "groups.all_subgroups", _count_subgroups),
    ("fmeas.groups", "subgroup_masks_within", "groups.subgroup_masks_within", _count_subgroups),
    ("fmeas.groups", "quotient", "groups.quotient", None),
    ("fmeas.groups", "epimorphisms", "groups.epimorphisms", _count_found),
    ("fmeas.groups", "isomorphic", "groups.isomorphic", None),
    ("fmeas.lattice", "SubextLattice.__init__", "lattice.SubextLattice", _count_lattice),
    ("fmeas.measure", "transition_matrix", "measure.transition_matrix", _count_transition),
    ("fmeas.measure", "mu_infinity", "measure.mu_infinity", _count_vector),
    ("fmeas.measure", "mu1", "measure.mu1", _count_vector),
    ("fmeas.measure", "mu_i", "measure.mu_i", _count_vector),
    ("fmeas.measure", "pushforward_check", "measure.pushforward_check", None),
    ("fmeas.backend", "walk_product", "backend.walk_product", _count_walk),
    ("fmeas.frattini", "has_embedding_property", "frattini.has_embedding_property", None),
    ("fmeas.frattini", "is_frattini_cover", "frattini.is_frattini_cover", _counter("frattini.cover_calls")),
    ("fmeas.frattini", "frattini_subgroup", "frattini.frattini_subgroup", None),
    ("fmeas.invsys", "CompleteSystem.__init__", "invsys.CompleteSystem", _count_system),
    ("fmeas.invsys", "CompleteSystem.validate", "invsys.CompleteSystem.validate", None),
    ("fmeas.invsys", "CompleteSystem.dump", "invsys.CompleteSystem.dump", None),
    ("fmeas.invsys", "level_quotient", "invsys.level_quotient", None),
)

# per-layer time metrics: self time summed over the spans of these names
TIME_METRICS = {
    "backend.walk_s": ("backend.walk_product",),
    "measure.transition_s": ("measure.transition_matrix",),
    "measure.solve_s": ("measure.mu_infinity",),
    "measure.mu1_s": ("measure.mu1",),
    "measure.mu_i_s": ("measure.mu_i",),
    "measure.pushforward_s": ("measure.pushforward_check",),
    "groups.build_s": ("groups.build_group",),
    "setupfile.load_s": ("setupfile.load_setup",),
    "cli.self_s": ("cli.main",),
    "groups.subgroups_s": ("groups.all_subgroups", "groups.subgroup_masks_within"),
    "lattice.build_s": ("lattice.SubextLattice",),
    "groups.quotient_s": ("groups.quotient",),
    "groups.epimorphisms_s": ("groups.epimorphisms",),
    "groups.isomorphic_s": ("groups.isomorphic",),
    "frattini.embedding_s": ("frattini.has_embedding_property",),
    "frattini.cover_s": ("frattini.is_frattini_cover",),
    "frattini.subgroup_s": ("frattini.frattini_subgroup",),
    "invsys.system_s": ("invsys.CompleteSystem",),
    "invsys.validate_s": ("invsys.CompleteSystem.validate",),
    "invsys.dump_s": ("invsys.CompleteSystem.dump",),
    "invsys.level_s": ("invsys.level_quotient",),
}

COUNT_METRICS = (
    "backend.walk_calls",
    "measure.tuples",
    "measure.transition_builds",
    "measure.rows",
    "measure.max_bits",
    "groups.builds",
    "groups.subgroups_enumerated",
    "lattice.members",
    "lattice.maximal",
    "groups.epimorphisms_found",
    "frattini.cover_calls",
    "invsys.relation_tuples",
    "cli.stdout_bytes",
)


class Tracer:
    """Records spans and counters while installed; restores the package on removal."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._patches = self._resolve()

    def _wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.op)
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _resolve(self) -> list[tuple[object, str, object, Callable]]:
        """(owner, attribute, original, wrapper) for every binding to patch."""
        modules = [m for n, m in list(sys.modules.items()) if n == "fmeas" or n.startswith("fmeas.")]
        patches = []
        for module_name, path, span_name, count in TARGETS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(span_name, original, count)
            if outer:
                patches.append((owner, attr, original, wrapper))
                continue
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        patches.append((module, key, original, wrapper))
        return patches

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of the recorded spans and counters."""
        own = self_times(self.spans)
        by_name: dict[str, float] = defaultdict(float)
        for span, t in zip(self.spans, own):
            by_name[span.name] += t
        out = {key: sum(by_name[n] for n in names) for key, names in TIME_METRICS.items()}
        out.update({key: self.counters[key] for key in COUNT_METRICS})
        return out

    def layer_shares(self) -> dict[str, float]:
        """Share of traced self time per module, for seeing the dominant layer."""
        own = self_times(self.spans)
        total = sum(own) or 1.0
        shares: dict[str, float] = defaultdict(float)
        for span, t in zip(self.spans, own):
            shares[span.name.split(".")[0]] += t / total
        return dict(sorted(shares.items(), key=lambda kv: -kv[1]))

    def inclusive_shares(self) -> dict[str, float]:
        """Share of CLI time spent inside each module's outermost spans, children included."""
        spans = self.spans
        total = sum(s.end - s.start for s in spans if s.parent < 0) or 1.0
        shares: dict[str, float] = defaultdict(float)
        for s in spans:
            module = s.name.split(".")[0]
            p = s.parent
            while p >= 0 and spans[p].name.split(".")[0] != module:
                p = spans[p].parent
            if p < 0:
                shares[module] += (s.end - s.start) / total
        return dict(sorted(shares.items(), key=lambda kv: -kv[1]))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Duration minus the union of the child intervals, per span."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append(s.end - s.start - covered)
    return out
