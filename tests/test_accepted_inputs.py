"""Every input the parser accepts gets an answer or a clean refusal.

Each fixture is mutated along each axis the setup file and the command
line accept: long sigma tuples, very large --cap, --steps, --bound and
--level, many generators, many events, very large ints and bools where
element indices go, integers past CPython's 4,300-digit conversion
limit, a table past the order cap, a byte that is not UTF-8, and arrays
nested past the recursion limit.  Every case must exit 0, 2, 3 or 4, with no
traceback, within a time and a memory bound.  The sweep holds a
property, not an answer, so it needs no oracle.

One child process imports fmeas once and forks a grandchild per case,
which keeps the sweep to a few seconds: a fresh interpreter per case
would cost more than most cases do.  The child starts no thread, so
forking it is safe.  Each grandchild is held to
CASE_SECONDS by an alarm and to CASE_ADDRESS_BYTES of address space,
and reports its own peak RSS (VmHWM, Linux) last on stderr.
"""

import copy
import json
import subprocess
import sys

from conftest import FIXTURES
from test_cli import subprocess_env

CASE_SECONDS = 10
CASE_ADDRESS_BYTES = 2 << 30
CASE_PEAK_MB = 200

# reads a JSON list of argv lists on stdin and prints, as JSON, one
# [exit code or -signal, seconds, VmHWM in kB or None, stderr] per case
SWEEP_CHILD = r"""
import json, os, resource, signal, sys, time, traceback
from fmeas.cli import main

seconds, address = int(sys.argv[1]), int(sys.argv[2])
results = []
for argv in json.load(sys.stdin):
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        os.dup2(w, 2)
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        resource.setrlimit(resource.RLIMIT_AS, (address, address))
        signal.alarm(seconds)
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except BaseException:
            traceback.print_exc()
            rc = 1
        sys.stdout.flush()
        with open("/proc/self/status") as f:
            hwm = next(line for line in f if line.startswith("VmHWM:")).split()[1]
        print(hwm, file=sys.stderr, flush=True)
        os._exit(rc)
    os.close(w)
    with os.fdopen(r, encoding="utf-8", errors="replace") as f:
        err = f.read()
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    body, _, last = err.rstrip("\n").rpartition("\n")
    if last.isdigit():
        results.append([code, time.perf_counter() - start, int(last), body])
    else:
        results.append([code, time.perf_counter() - start, None, err])
print(json.dumps(results))
"""

C257_TABLE = [[(a + b) % 257 for b in range(257)] for a in range(257)]
# text json.dumps cannot write: a mutation puts a marker where it goes,
# and the file is written with the text in its place.  CPython converts
# no int of more than 4,300 digits from a string, so json.loads refuses
# one with a plain ValueError; a 0xff byte is no UTF-8; and json.loads
# meets the recursion limit in arrays nested 1,000 deep, as json.dumps
# would in making them
HUGE_INT = "<5000 digits>"
NOT_UTF8 = "<byte ff>"
NESTED = {"10^3": 10**3, "10^5": 10**5}
RAW = {HUGE_INT: b"9" * 5000, NOT_UTF8: b'"\xff"'}
RAW.update(("<nested %s>" % name, b"[" * depth + b"]" * depth) for name, depth in NESTED.items())


def file_bytes(mutated):
    """The mutated setup as a file, each marker replaced by its text."""
    text = json.dumps(mutated).encode()
    for marker, raw in RAW.items():
        text = text.replace(json.dumps(marker).encode(), raw)
    return text


def stretched(values, length):
    """values repeated to the given length."""
    return (values * (length // len(values) + 1))[:length]


def file_mutations(data):
    """(axis, mutated setup) pairs: each changes one key the parser reads."""
    sigma, normal = data["sigma"], data["normal"]
    yield "sigma-10^4", dict(data, sigma=stretched(sigma, 10**4))
    yield "normal-10^4-generators", dict(data, normal=stretched(normal or [0], 10**4))
    yield "base-10^4-generators", dict(data, base=stretched(sigma + normal, 10**4))
    # <N, sigma> is the whole group, a member of every lattice on it
    yield "events-10^4", dict(data, events={"e%d" % i: [sigma + normal] for i in range(10**4)})
    yield "event-10^4-generators", dict(data, events={"big": [stretched(sigma + normal, 10**4)]})
    group = data["group"]
    if "permutations" in group:
        perms = stretched(group["permutations"], 10**4)
        yield "permutations-10^4", dict(data, group={"permutations": perms})
        yield "permutation-bool", dict(data, group={"permutations": [[True, False, 2]]})
        perms = copy.deepcopy(group["permutations"])
        perms[0][0] = HUGE_INT
        yield "permutation-entry-5000-digits", dict(data, group={"permutations": perms})
    else:
        table = copy.deepcopy(group["table"])
        table[-1][0] = bool(table[-1][0]) if table[-1][0] < 2 else True
        yield "table-bool", dict(data, group={"table": table})
        yield "table-order-257", dict(data, group={"table": C257_TABLE})
        table = copy.deepcopy(group["table"])
        table[-1][0] = HUGE_INT
        yield "table-entry-5000-digits", dict(data, group={"table": table})
    yield "sigma-entry-10^30", dict(data, sigma=[10**30] + sigma)
    yield "sigma-entry-5000-digits", dict(data, sigma=[HUGE_INT] + sigma)
    yield "normal-entry-5000-digits", dict(data, normal=normal + [HUGE_INT])
    yield "sigma-entry-byte-ff", dict(data, sigma=[NOT_UTF8] + sigma)
    for name in NESTED:
        yield "sigma-nested-" + name, dict(data, sigma=["<nested %s>" % name])
    yield "sigma-bool", dict(data, sigma=[True] + sigma)
    yield "normal-bool", dict(data, normal=normal + [False])
    yield "base-bool", dict(data, base=[True])
    yield "event-bool", dict(data, events={"b": [[True]]})
    if "tower" in data:
        tower = data["tower"]
        yield "tower-map-bool", dict(data, tower=dict(tower, map=[[True, 0]]))
        yield "tower-map-10^4", dict(data, tower=dict(tower, map=stretched(tower["map"], 10**4)))
        yield "tower-order-257", dict(data, tower=dict(tower, group={"table": C257_TABLE}))


BIG = str(10**30)

# (axis, argv after the file) for each fixture as it stands
COMMAND_MUTATIONS = [
    ("cap", ["measure", "--cap", BIG]),
    ("cap-mu1", ["measure", "--mode", "mu1", "--cap", BIG]),
    ("cap-verify", ["verify", "--cap", BIG]),
    ("steps", ["measure", "--mode", "iter", "--steps", BIG]),
    ("steps-10^6", ["measure", "--mode", "iter", "--steps", str(10**6)]),
    ("bound", ["embedding", "--bound", BIG]),
    ("level", ["invsys", "--level", BIG]),
    ("cap-bool", ["measure", "--cap", "True"]),
]

FIXTURE_NAMES = sorted(p.name for p in FIXTURES.glob("*.json"))


def sweep_cases(tmp_path):
    """(case id, argv) for every fixture along every axis."""
    cases = []
    for name in FIXTURE_NAMES:
        path = FIXTURES / name
        data = json.loads(path.read_text())
        for axis, argv in COMMAND_MUTATIONS:
            cases.append(("%s/%s" % (name, axis), argv[:1] + [str(path)] + argv[1:]))
        for axis, mutated in file_mutations(data):
            p = tmp_path / ("%s-%s.json" % (path.stem, axis))
            p.write_bytes(file_bytes(mutated))
            command = ["verify", "--suite", "tower"] if axis.startswith("tower") else ["measure"]
            cases.append(("%s/%s" % (name, axis), command[:1] + [str(p)] + command[1:]))
    # the longest sigma, on one fixture
    data = json.loads((FIXTURES / "klein.json").read_text())
    p = tmp_path / "klein-sigma-10^6.json"
    p.write_text(json.dumps(dict(data, sigma=[1] * 10**6)))
    cases.append(("klein.json/sigma-10^6", ["measure", str(p)]))
    return cases


def test_every_accepted_input_answers_or_refuses_in_bounds(tmp_path):
    cases = sweep_cases(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", SWEEP_CHILD, str(CASE_SECONDS), str(CASE_ADDRESS_BYTES)],
        input=json.dumps([argv for _, argv in cases]),
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert len(results) == len(cases)
    failures = []
    for (case, argv), (code, seconds, peak_kb, err) in zip(cases, results):
        peak_mb = float("inf") if peak_kb is None else peak_kb / 1024
        if code not in (0, 2, 3, 4) or "Traceback" in err or peak_mb > CASE_PEAK_MB:
            failures.append((case, code, round(seconds, 2), peak_mb, err[-300:]))
        # the refusals that name the file: a table past the order cap at
        # the line of its key, files that cannot be read without a line
        path = argv[1]
        if case.endswith("-order-257"):
            message = "error: %s:1: multiplication tables capped at order 256 (got 257)" % path
            if (code, err) != (3, message):
                failures.append((case, code, err[-300:]))
        if case.endswith("-5000-digits"):
            message = "error: %s: not valid JSON: Exceeds the limit (4300 digits)" % path
            if code != 2 or not err.startswith(message):
                failures.append((case, code, err[-300:]))
        if case.endswith("-byte-ff"):
            if (code, err) != (2, "error: %s: not valid UTF-8" % path):
                failures.append((case, code, err[-300:]))
        if "-nested-" in case:
            if (code, err) != (2, "error: %s: not valid JSON: nested too deeply" % path):
                failures.append((case, code, err[-300:]))
    assert failures == []
