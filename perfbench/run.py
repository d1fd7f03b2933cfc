"""Benchmark of the fmeas command line, run in-process from a source checkout.

    python3 perfbench/run.py --workload walk --seed 0 --seconds 15 --trace 0

One client, one process, one thread, closed loop: each operation is one
`fmeas.cli.main(argv)` call on a generated setup file, and the next
starts when it returns.  A run is a whole number of passes over the
workload's operations, fixed by PASSES and --seconds, so every commit
measures exactly the same operations.  Op times are reported in
reference seconds: wall time scaled by how fast a fixed probe ran
around it, so that other tenants of the machine do not move them.
Outputs are checked after the timed region (see checks.py).  The last
line of stdout is one JSON object: correct, attempted, failed, and the
metrics -- the end-to-end ones with --trace 0, the per-layer ones with
--trace 1.  The line before it records the environment and the details
behind the numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import checks
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

WORKLOADS = ("walk", "sweep", "wide", "structure")
DEFAULT_SEED = 0
SETUP_REPEATS = 3
# passes per run at --seconds PASSES_AT: about that many seconds of ops on
# the reference machine, except wide, whose two 13 s passes give its tail
# percentile enough samples
PASSES_AT = 15
PASSES = {"walk": 8, "sweep": 1, "wide": 2, "structure": 4}
# probe() wall time on the reference machine at its usual speed
PROBE_REFERENCE_S = 0.0052
PROBE_EVERY_S = 0.25
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10


def tail_percentile(n: int) -> float:
    """The highest of PERCENTILES with at least TAIL_BEYOND samples above its rank."""
    best = None
    for p in PERCENTILES:
        if n - math.ceil(p * n / 100) >= TAIL_BEYOND:
            best = p
    if best is None:
        raise ValueError("%d samples are too few for a tail percentile" % n)
    return best


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p * len(ordered) / 100)) - 1]


def median_of_passes(latencies: list[float], n_ops: int) -> list[float]:
    """Each sample replaced by the median of its op's times over the passes.

    Samples are in pass order, n_ops per pass.  The count stays the same,
    so the tail percentile does not change; what goes is the jitter of a
    single sample, which otherwise decides which op lands at a rank.
    """
    typical = [statistics.median(latencies[i::n_ops]) for i in range(n_ops)]
    return typical * (len(latencies) // n_ops)


def declared_metrics(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(PASSES[workload] * seconds / PASSES_AT))


def pin_environment() -> None:
    """One thread in the walk; everything else about the backend is recorded, not forced."""
    os.environ["FMEAS_THREADS"] = "1"


def import_fmeas() -> None:
    """Import the package from this checkout's sources, and only from there."""
    if not os.path.isfile(os.path.join(SRC, "fmeas", "__init__.py")):
        raise SystemExit("perfbench: no fmeas sources at %s" % SRC)
    sys.path.insert(0, SRC)
    import fmeas
    import fmeas.cli  # noqa: F401

    if os.path.dirname(os.path.dirname(os.path.abspath(fmeas.__file__))) != SRC:
        raise SystemExit("perfbench: fmeas was imported from %s, not %s" % (fmeas.__file__, SRC))


def environment(seed: int) -> dict:
    import fmeas

    env = {
        "seed": seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "kernel": platform.release(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "FMEAS_THREADS": os.environ.get("FMEAS_THREADS"),
        "FMEAS_BACKEND": os.environ.get("FMEAS_BACKEND"),
        "backend": fmeas.BACKEND,
    }
    # runs are comparable only when this matches
    env["env_id"] = "%(implementation)s-%(python)s/%(kernel)s/%(machine)s/nproc=%(nproc)s/%(backend)s" % env
    return env


def run_op(op, directory: str):
    """Time one CLI call; returns (seconds, Sample)."""
    cli = sys.modules["fmeas.cli"]
    argv = list(op.argv)
    argv[1] = os.path.join(directory, op.file)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:  # a crash is a failed operation, not a failed benchmark
            code = "%s: %s" % (type(e).__name__, e)
        elapsed = time.perf_counter() - start
    return elapsed, checks.Sample(op, code, out.getvalue(), err.getvalue())


def warmup_ops(workload) -> list:
    """The operations on the workload's smallest group."""
    small = min(workload.facts, key=lambda f: (workload.facts[f]["order"], f))
    return [op for op in workload.ops if op.file == small]


def probe() -> float:
    """Seconds for a fixed piece of pure-Python work of the kind fmeas does.

    Lists, dicts, small ints, Fractions with bounded denominators, and
    sets and sorts of tuples, so the probe slows down with the
    interpreter's work when another tenant of the machine takes its
    share.  The garbage collector is off during the probe, so that the
    heap fmeas keeps alive cannot slow it down.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(2):
            table = [[(a * b) % 61 for b in range(61)] for a in range(61)]
            seen: dict = {}
            for row in table:
                for x in row:
                    seen[x] = seen.get(x, 0) + 1
            total = Fraction(0)
            for k in range(1, 400):
                total += Fraction(k % 61, 61)
            triples = {((a * 7) % 40, (b * 3) % 40, a ^ b) for a in range(40) for b in range(40)}
            index = {(x, y): z for x, y, z in sorted(triples)[::3]}
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class Clock:
    """Turns op wall times into reference seconds, the machine at its reference speed.

    A probe runs before the first op and again whenever PROBE_EVERY_S of
    wall time has passed.  The ops between probes k and k + 1 are scaled
    by PROBE_REFERENCE_S over the median of probes k - 1 to k + 2, which
    follows the machine's speed without taking the noise of one probe.
    """

    def __init__(self):
        self.probes = [probe()]
        self._segments: list[list[float]] = [[]]
        self._since = time.perf_counter()

    def add(self, seconds: float) -> None:
        self._segments[-1].append(seconds)
        if time.perf_counter() - self._since >= PROBE_EVERY_S:
            self.probes.append(probe())
            self._segments.append([])
            self._since = time.perf_counter()

    def scaled(self) -> list[float]:
        if self._segments[-1]:
            self.probes.append(probe())
            self._segments.append([])
        out = []
        for k, segment in enumerate(self._segments[:-1]):
            factor = PROBE_REFERENCE_S / statistics.median(self.probes[max(0, k - 1) : k + 3])
            out.extend(x * factor for x in segment)
        return out


def timed_passes(workload, directory: str, passes: int):
    """Returns (raw per-op seconds, scaled per-op seconds, probes, samples)."""
    clock = Clock()
    latencies, samples = [], []
    for _ in range(passes):
        for op in workload.ops:
            elapsed, sample = run_op(op, directory)
            clock.add(elapsed)
            latencies.append(elapsed)
            samples.append(sample)
    return latencies, clock.scaled(), clock.probes, samples


def traced_passes(workload, directory: str, passes: int, tracer):
    """Each operation untraced and traced back to back, so both see the same machine.

    The order alternates between operations so that neither side always
    runs second with warm caches.  Returns (untraced seconds, traced
    seconds, samples).
    """
    seconds = [0.0, 0.0]
    samples = []
    for _ in range(passes):
        for i, op in enumerate(workload.ops):
            for traced in (False, True) if i % 2 else (True, False):
                if traced:
                    tracer.op += 1
                    tracer.install()
                try:
                    elapsed, sample = run_op(op, directory)
                finally:
                    tracer.remove()
                seconds[traced] += elapsed
                samples.append(sample)
                if traced:
                    tracer.counters["cli.stdout_bytes"] += len(sample.stdout.encode())
    return seconds[0], seconds[1], samples


def setup_once(workloads, name: str, seed: int, directory: str):
    """Import time in a fresh interpreter, plus generating the files and warming up.

    In reference seconds, scaled by the probes just before and after.
    """
    code = "import time; t = time.perf_counter(); import fmeas.cli; print(time.perf_counter() - t)"
    before = probe()
    child = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    start = time.perf_counter()
    workload = workloads.build_workload(name, seed)
    workloads.write_files(workload, directory)
    warm = [run_op(op, directory)[1] for op in warmup_ops(workload)]
    seconds = float(child.stdout) + time.perf_counter() - start
    return seconds * PROBE_REFERENCE_S / ((before + probe()) / 2), workload, warm


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="record stdout digests and exit codes of one pass at the default seed",
    )
    args = parser.parse_args(argv)

    pin_environment()
    import_fmeas()
    import workloads

    env = environment(args.seed)
    work_dir = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        samples: list = []
        setup_times = []
        for i in range(SETUP_REPEATS):
            directory = os.path.join(work_dir, "setup%d" % i)
            seconds, workload, warm = setup_once(workloads, args.workload, args.seed, directory)
            setup_times.append(seconds)
            samples.extend(warm)

        passes = passes_for(args.workload, args.seconds)
        if args.write_reference:
            passes = 1
        details = {"workload": args.workload, "env": env}
        if args.trace:
            tracer = tracing.Tracer()
            plain_s, traced_s, paired = traced_passes(workload, directory, max(1, passes // 2), tracer)
            samples += paired
            metrics = tracer.metrics()
            metrics["trace.overhead_ratio"] = traced_s / plain_s
            os.makedirs(WORK, exist_ok=True)
            spans_path = os.path.join(WORK, "spans-%s-%d.jsonl" % (args.workload, args.seed))
            tracer.write(spans_path)
            details.update(
                passes=max(1, passes // 2),
                spans=os.path.relpath(spans_path, ROOT),
                self_time_shares=tracer.layer_shares(),
                inclusive_shares=tracer.inclusive_shares(),
            )
        else:
            latencies, scaled, probes, timed = timed_passes(workload, directory, passes)
            samples += timed
            typical = median_of_passes(scaled, len(workload.ops))
            p = tail_percentile(len(typical))
            metrics = {
                "throughput_ops_s": len(scaled) / sum(scaled),
                "latency_p50_ms": statistics.median(typical) * 1e3,
                "latency_tail_ms": percentile(typical, p) * 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": statistics.median(setup_times),
            }
            details.update(
                passes=passes,
                samples=len(scaled),
                tail_percentile=p,
                probes=len(probes),
                probe_median_s=statistics.median(probes),
                wall_throughput_ops_s=len(latencies) / sum(latencies),
                wall_latency_p50_ms=statistics.median(latencies) * 1e3,
                wall_latency_tail_ms=percentile(latencies, p) * 1e3,
            )

        reference = None
        if args.seed == DEFAULT_SEED and not args.write_reference:
            reference = checks.load_reference(args.workload)
        failures = checks.gate(samples, workload.facts, reference)
        if args.write_reference and not failures:
            checks.save_reference(args.workload, samples)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for message in failures[:20]:
        print("perfbench: FAIL %s" % message, file=sys.stderr)
    details.update(fail_ratio=len(failures) / len(samples), failures=failures[:5])
    print("perfbench-details " + json.dumps(details, sort_keys=True))
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(declared):
        raise SystemExit("perfbench: metrics %s do not match BENCHMARK.json" % sorted(set(metrics) ^ set(declared)))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(samples),
                "failed": len(failures),
                "metrics": {k: {"value": metrics[k], "unit": declared[k]} for k in declared},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
