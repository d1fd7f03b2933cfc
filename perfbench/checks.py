"""The correctness gate, run on captured outputs after the timed region.

Every sample of an operation is checked three ways:

- its exit code is the expected one (3 for the over-cap case);
- its stdout is byte-identical to the first sample of the same
  operation in the run and, for the default seed, has the SHA-256 digest
  recorded in reference.json from the commit that defined the benchmark;
- its output satisfies the paper's invariants, whatever the seed: each
  measure vector is nonnegative and sums to exactly 1, mu_infinity is
  positive exactly on the members `lattice` flags as maximal (the
  leading block), mu1 lies in (0, mu_infinity] there, a verify suite
  whose theorem applies prints only PASS, and the structure commands
  agree with the group's normal subgroups.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from fractions import Fraction
from typing import NamedTuple, Optional

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

SUITE_CHECKS = {
    "markov": (
        "absorbing-equals-maximal",
        "ergodic-equals-maximal",
        "limit-fixed-point",
        "limit-support",
        "mu1-below-limit",
    ),
    "tower": ("tower-pushforward",),
    "frattini": (
        "frattini-cover-routes",
        "frattini-composition",
        "maximal-equals-frattini-restriction",
    ),
    "invsys": ("system-axioms", "dual-round-trip", "level-tower"),
}

_LATTICE_LINE = re.compile(r"^(\d+) <[^<>]*> order=(\d+)( maximal)?$")


class Sample(NamedTuple):
    """One timed CLI invocation as the gate sees it."""

    op: object  # workloads.Op
    code: object  # exit code, or the exception text when the CLI raised
    stdout: str
    stderr: str


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def save_reference(workload: str, samples: list[Sample]) -> None:
    try:
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {}
    data[workload] = {s.op.key: [digest(s.stdout), s.code] for s in samples}
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")


def load_reference(workload: str) -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def _vector(line: str) -> list[Fraction]:
    values = [Fraction(v) for v in line.split(", ")]
    if any(v < 0 for v in values):
        raise ValueError("negative value")
    if sum(values) != 1:
        raise ValueError("values sum to %s, not 1" % sum(values))
    return values


def _lines(stdout: str) -> list[str]:
    if not stdout.endswith("\n"):
        raise ValueError("output does not end with a newline")
    return stdout[:-1].split("\n")


def _lattice(stdout: str, facts: dict) -> list[bool]:
    """The maximal flags, after checking the listing's shape."""
    flags, orders = [], []
    for i, line in enumerate(_lines(stdout)):
        m = _LATTICE_LINE.match(line)
        if not m or int(m.group(1)) != i:
            raise ValueError("bad lattice line %r" % line)
        order = int(m.group(2))
        if facts["order"] % order:
            raise ValueError("member order %d does not divide %d" % (order, facts["order"]))
        flags.append(bool(m.group(3)))
        orders.append(order)
    n_max = flags.count(True)
    if not n_max or flags != [True] * n_max + [False] * (len(flags) - n_max):
        raise ValueError("maximal members are not the leading block")
    if orders[:n_max] != sorted(orders[:n_max]) or orders[n_max:] != sorted(orders[n_max:]):
        raise ValueError("members are not in ascending order within their block")
    return flags


def _limit(stdout: str) -> list[Fraction]:
    (line,) = _lines(stdout)
    values = _vector(line)
    n_pos = sum(1 for v in values if v > 0)
    if not n_pos or any(v == 0 for v in values[:n_pos]):
        raise ValueError("the limit is not positive on exactly a leading block")
    return values


def _verify(stdout: str, suite: str) -> None:
    want = ["PASS %s" % name for name in SUITE_CHECKS[suite]]
    if _lines(stdout) != want:
        raise ValueError("verify --suite %s did not print only PASS" % suite)


def _key_values(stdout: str, keys: tuple[str, ...]) -> dict:
    out = {}
    for line in _lines(stdout):
        key, sep, value = line.rpartition(" = ")
        if not sep or key not in keys:
            raise ValueError("unexpected line %r" % line)
        out[key] = value
    if set(out) != set(keys):
        raise ValueError("missing lines: %s" % sorted(set(keys) - set(out)))
    return out


def _structure(kind: str, stdout: str, facts: dict) -> None:
    order = facts["order"]
    if kind == "frattini":
        got = _key_values(stdout, ("Phi", "order", "maximal subgroups"))
        if order % int(got["order"]) or int(got["maximal subgroups"]) < 1:
            raise ValueError("implausible Frattini report")
    elif kind == "embedding":
        lines = _lines(stdout)
        if lines[0] not in ("embedding property: true", "embedding property: false"):
            raise ValueError("bad embedding verdict %r" % lines[0])
        if len(lines) != (1 if lines[0].endswith("true") else 5):
            raise ValueError("witness lines do not match the verdict")
    elif kind == "invsys":
        got = _key_values(stdout, ("classes", "elements"))
        if (int(got["classes"]), int(got["elements"])) != (facts["normals"], facts["elements"]):
            raise ValueError("system size does not match the normal subgroups")
    elif kind == "invsys-level":
        lines = _lines(stdout)
        m = re.match(r"^level 2 quotient: order (\d+)$", lines[-1])
        if not m or order % int(m.group(1)):
            raise ValueError("bad level quotient line")
        _key_values("\n".join(lines[:-1]) + "\n", ("classes", "elements"))
    elif kind == "invsys-dump":
        lines = _lines(stdout)
        universe = [ln for ln in lines if ln.startswith("N#")]
        classes = {ln.split()[0] for ln in universe}
        if (len(classes), len(universe)) != (facts["normals"], facts["elements"]):
            raise ValueError("dump universe does not match the normal subgroups")
        if any(not ln.startswith(("N#", "C ", "<= ", "P ")) for ln in lines):
            raise ValueError("unexpected dump line")
    else:
        raise ValueError("no check for kind %r" % kind)


def _check_first(sample: Sample, facts: dict, file_outputs: dict) -> Optional[str]:
    """Invariant violations of one operation's output, or None."""
    op = sample.op
    if sample.code != op.expect:
        return "exit %r, expected %d: %s" % (sample.code, op.expect, sample.stderr.strip()[:200])
    try:
        if op.expect == 3:
            if sample.stdout or "cap" not in sample.stderr:
                raise ValueError("a cap error must print nothing to stdout and name the cap")
            return None
        if op.kind == "lattice":
            _lattice(sample.stdout, facts)
        elif op.kind == "measure":
            _limit(sample.stdout)
        elif op.kind in ("measure-mu1", "measure-iter"):
            (line,) = _lines(sample.stdout)
            _vector(line)
        elif op.kind == "verify":
            _verify(sample.stdout, op.argv[op.argv.index("--suite") + 1])
            return None
        else:
            _structure(op.kind, sample.stdout, facts)
            return None
        return _cross_check(op.file, file_outputs, facts)
    except (ValueError, ZeroDivisionError, IndexError, KeyError) as e:
        return "%s: %s" % (op.key, e)


def _cross_check(fname: str, outputs: dict, facts: dict) -> Optional[str]:
    """Checks between the outputs of different commands on one file."""
    lattice, limit = outputs.get("lattice"), outputs.get("measure")
    if lattice is None and limit is None:
        return None
    flags = _lattice(lattice, facts) if lattice is not None else None
    inf = _limit(limit) if limit is not None else None
    if flags is not None and inf is not None and [v > 0 for v in inf] != flags:
        return "%s: mu_infinity is not positive exactly on the maximal members" % fname
    size = len(flags) if flags is not None else len(inf)
    for kind in ("measure-mu1", "measure-iter"):
        if kind in outputs:
            values = _vector(_lines(outputs[kind])[0])
            if len(values) != size:
                return "%s: %s has %d values for %d members" % (fname, kind, len(values), size)
            if kind == "measure-mu1" and inf is not None:
                if any(not 0 < m <= v for m, v in zip(values, inf) if v > 0):
                    return "%s: mu1 is not in (0, mu_infinity] on a maximal member" % fname
    return None


def gate(samples: list[Sample], facts: dict, reference: Optional[dict]) -> list[str]:
    """One message per failed sample; reference is None for seeds without one."""
    first: dict[str, Sample] = {}
    for s in samples:
        first.setdefault(s.op.key, s)
    by_file: dict[str, dict] = {}
    for s in first.values():
        if s.code == s.op.expect and s.op.expect == 0:
            by_file.setdefault(s.op.file, {})[s.op.kind] = s.stdout
    verdict = {
        key: _check_first(s, facts[s.op.file], by_file.get(s.op.file, {})) for key, s in first.items()
    }
    failures = []
    for s in samples:
        key = s.op.key
        if s.code != first[key].code or s.stdout != first[key].stdout:
            failures.append("%s: output differs between samples of one run" % key)
        elif verdict[key] is not None:
            failures.append(verdict[key])
        elif reference is not None and reference.get(key) != [digest(s.stdout), s.code]:
            failures.append("%s: stdout digest or exit code differs from the reference" % key)
    return failures
