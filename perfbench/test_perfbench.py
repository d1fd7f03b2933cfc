"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import os
import shutil

import pytest

import run

run.pin_environment()
run.import_fmeas()

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def work_dir():
    path = os.path.join(run.WORK, "test-%d" % os.getpid())
    os.makedirs(path, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_same_seed_same_files_new_seed_new_files():
    first = workloads.build_workload("walk", 5)
    again = workloads.build_workload("walk", 5)
    other = workloads.build_workload("walk", 6)
    assert first.files == again.files
    assert first.ops == again.ops
    assert first.files.keys() == other.files.keys()
    assert all(first.files[f] != other.files[f] for f in first.files)


def test_sweep_covers_every_normal_subgroup_of_order_at_most_16():
    w = workloads.build_workload("sweep", 1)
    normals = sum(len(workloads.normal_subgroups(make())) for make in workloads.SMALL_GROUPS.values())
    assert len(w.files) == normals
    towers = [op for op in w.ops if op.argv[-1] == "tower"]
    assert towers and all("tower" in w.files[op.file] for op in towers)


def test_corrupted_output_counts_toward_fail_ratio(work_dir):
    w = workloads.build_workload("walk", 2)
    workloads.write_files(w, work_dir)
    d4 = [op for op in w.ops if op.file.startswith("D4")]
    good = [run.run_op(op, work_dir)[1] for op in d4]
    assert checks.gate(good, w.facts, None) == []

    inf = next(s for s in good if s.op.kind == "measure")
    values = inf.stdout.strip().split(", ")
    values[0] = "0"
    corrupt = inf._replace(stdout=", ".join(values) + "\n")
    failures = checks.gate(good + [corrupt], w.facts, None)
    assert len(failures) == 1
    assert len(failures) / len(good + [corrupt]) == 1 / 4

    wrong_exit = good[1]._replace(code=2)
    assert len(checks.gate([wrong_exit], w.facts, None)) == 1


def test_expected_cap_exit_is_a_success_and_other_exits_fail(work_dir):
    w = workloads.build_workload("walk", 2)
    workloads.write_files(w, work_dir)
    (over_cap,) = [op for op in w.ops if op.expect == 3]
    sample = run.run_op(over_cap, work_dir)[1]
    assert sample.code == 3
    assert checks.gate([sample], w.facts, None) == []
    assert len(checks.gate([sample._replace(code=0)], w.facts, None)) == 1


def test_reference_digest_mismatch_fails(work_dir):
    w = workloads.build_workload("walk", 2)
    workloads.write_files(w, work_dir)
    sample = run.run_op(w.ops[0], work_dir)[1]
    good = {w.ops[0].key: [checks.digest(sample.stdout), sample.code]}
    assert checks.gate([sample], w.facts, good) == []
    bad = {w.ops[0].key: [checks.digest(sample.stdout + " "), sample.code]}
    assert len(checks.gate([sample], w.facts, bad)) == 1


@pytest.mark.parametrize(
    "n, p",
    [(20, 50), (39, 50), (40, 75), (99, 75), (100, 90), (199, 90), (200, 95), (999, 95), (1000, 99), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    assert run.tail_percentile(n) == p
    values = list(range(n))
    assert sum(v > run.percentile(values, p) for v in values) >= 10


def test_tail_percentile_needs_enough_samples():
    with pytest.raises(ValueError):
        run.tail_percentile(19)


def test_clock_scales_op_times_by_the_probes_around_them(monkeypatch):
    # the machine ran at half its reference speed, then at a quarter
    ref = run.PROBE_REFERENCE_S
    probes = iter([2 * ref, 2 * ref, 4 * ref, 4 * ref, 4 * ref])
    monkeypatch.setattr(run, "probe", lambda: next(probes))
    monkeypatch.setattr(run, "PROBE_EVERY_S", 0.0)
    clock = run.Clock()
    for seconds in (1.0, 2.0, 4.0, 8.0):
        clock.add(seconds)
    # windows: probes 0-2, 0-3, 1-4, 2-4
    assert clock.scaled() == [0.5, 2.0 / 3, 1.0, 2.0]
    assert len(clock.probes) == 5


def test_median_of_passes_keeps_the_sample_count():
    # three passes over two ops
    latencies = [1.0, 10.0, 3.0, 30.0, 2.0, 20.0]
    assert run.median_of_passes(latencies, 2) == [2.0, 20.0] * 3


def test_self_time_subtracts_child_coverage():
    S = tracing.Span
    spans = [
        S("cli.main", 0.0, 10.0, -1, 0),
        S("groups.quotient", 1.0, 4.0, 0, 0),
        S("groups.quotient", 2.0, 3.0, 1, 0),
        S("measure.mu1", 5.0, 9.0, 0, 0),
        S("backend.walk_product", 6.0, 6.5, 3, 0),
        S("backend.walk_product", 7.0, 8.0, 3, 0),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 2.5, 0.5, 1.0]


def test_tracer_catches_directly_imported_names_and_restores_them():
    import fmeas
    from fmeas import cli, groups, invsys

    original = groups.quotient
    assert cli.quotient is original
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module in (fmeas, cli, groups, invsys):
            assert module.quotient is not original
            assert module.quotient.__wrapped__ is original
        G = groups.cyclic(4)
        cli.quotient(G, groups.Subgroup(G, (2,)))
    finally:
        tracer.remove()
    assert fmeas.quotient is cli.quotient is groups.quotient is invsys.quotient is original
    assert [s.name for s in tracer.spans] == ["groups.quotient"]
    assert tracer.metrics()["groups.quotient_s"] > 0
