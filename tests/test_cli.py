"""Command line tests pinned to golden output files.

Every fixture run is compared byte for byte against a file under
tests/fixtures/expected/, so any change to output formatting or to the
numbers themselves shows up as a diff.  One test runs every case again
under each of the retired FMEAS_THREADS settings 1, 2 and 8, which
scripts written for older releases may still export: nothing reads the
variable, and the output must not depend on it.
The markov suite, which reads the chain off integer counts, is also
checked line by line against the explicit Fraction-matrix route.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest

import fmeas
from fmeas import cli, frattini, groups, invsys, measure
from fmeas.cli import _markov_checks, main
from fmeas.frattini import frattini_subgroup
from fmeas.lattice import GaloisSetup, SubextLattice
from fmeas.measure import TUPLE_CAP, MeasureVector, mu1, mu_infinity, transition_matrix
from fmeas.setupfile import load_setup

import corpus
import setups
from conftest import (
    FIXTURES,
    count_enumerations,
    count_hom_builds,
    d4_power_generators,
    is_frattini_restriction,
)
from test_invsys import oracle_dump

EXPECTED = FIXTURES / "expected"

# (argv fragments after the command, fixture file, golden file, exit code)
GOLDEN_CASES = [
    (["lattice"], "klein.json", "klein_lattice.txt", 0),
    (["measure"], "klein.json", "klein_inf.txt", 0),
    (["measure", "--mode", "mu1"], "klein.json", "klein_mu1.txt", 0),
    (["measure", "--mode", "iter", "--steps", "0"], "klein.json", "klein_iter0.txt", 0),
    (["measure", "--event", "first"], "klein.json", "klein_event_first.txt", 0),
    (["measure", "--event", "both"], "klein.json", "klein_event_both.txt", 0),
    (["verify"], "klein.json", "klein_verify.txt", 0),
    (["measure", "--mode", "mu1"], "z2.json", "z2_mu1.txt", 0),
    (["measure"], "z2.json", "z2_inf.txt", 0),
    (["invsys", "--dump"], "z2.json", "z2_dump.txt", 0),
    (["invsys", "--dump"], "s3.json", "s3_dump.txt", 0),
    (["invsys", "--dump"], "klein.json", "klein_dump.txt", 0),
    (["lattice"], "z4.json", "z4_lattice.txt", 0),
    (["frattini"], "z4.json", "z4_frattini.txt", 0),
    (["measure"], "z4.json", "z4_inf.txt", 0),
    (["measure"], "s3.json", "s3_inf.txt", 0),
    (["invsys", "--level", "2"], "s3.json", "s3_level2.txt", 0),
    (["embedding", "--bound", "8"], "s3.json", "s3_embedding.txt", 0),
    (["embedding"], "d4.json", "d4_embedding.txt", 0),
    (["verify", "--suite", "tower"], "c4_to_c2.json", "c4_to_c2_verify_tower.txt", 0),
    (["verify", "--suite", "tower"], "klein_weak.json", "klein_weak_verify_tower.txt", 4),
]


def run_main(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def assert_golden(args, fixture, golden, code, capsys):
    argv = args[:1] + [str(FIXTURES / fixture)] + args[1:]
    rc, out, err = run_main(argv, capsys)
    assert rc == code, argv
    assert err == "", argv
    assert out == (EXPECTED / golden).read_text(), argv


@pytest.mark.parametrize(
    "args,fixture,golden,code",
    GOLDEN_CASES,
    ids=["%s-%s" % (c[1].split(".")[0], c[2].split(".")[0]) for c in GOLDEN_CASES],
)
def test_golden_output(args, fixture, golden, code, capsys):
    assert_golden(args, fixture, golden, code, capsys)


def test_golden_output_ignores_fmeas_threads(monkeypatch, capsys):
    for threads in ("1", "2", "8"):
        monkeypatch.setenv("FMEAS_THREADS", threads)
        for case in GOLDEN_CASES:
            assert_golden(*case, capsys)


def subprocess_env():
    """The environment with the directory of the imported fmeas first on PYTHONPATH."""
    path = [str(Path(fmeas.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "fmeas", "measure", str(FIXTURES / "klein.json")],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == (EXPECTED / "klein_inf.txt").read_text()


def test_entry_point_subprocess_failure_code():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "fmeas",
            "verify",
            str(FIXTURES / "klein_weak.json"),
            "--suite",
            "tower",
        ],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 4
    assert proc.stdout == (EXPECTED / "klein_weak_verify_tower.txt").read_text()


def expect_error(argv, capsys, fragment, code):
    rc, out, err = run_main(argv, capsys)
    assert rc == code
    assert out == ""
    assert err.startswith("error: ")
    assert fragment in err
    return err


def test_invalid_json_reports_line(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"group": bad\n')
    err = expect_error(["lattice", str(p)], capsys, "not valid JSON", 2)
    assert "%s:1:" % p in err


def test_an_integer_past_the_conversion_limit_names_the_file(tmp_path, capsys):
    # CPython converts no int of more than 4,300 digits from a string, and
    # json.loads says so with a plain ValueError, not a JSONDecodeError:
    # it once escaped as a traceback with exit 1
    p = tmp_path / "huge.json"
    p.write_text('{"group": {"table": [[0,1],[1,0]]}, "normal": [1], "sigma": [%s]}' % ("1" * 5000))
    err = expect_error(["measure", str(p)], capsys, "not valid JSON", 2)
    assert err.startswith("error: %s: not valid JSON: Exceeds the limit (4300 digits)" % p)


def test_error_names_offending_line(tmp_path, capsys):
    p = tmp_path / "badsigma.json"
    p.write_text(
        '{\n "group": {"table": [[0,1],[1,0]]},\n "normal": [1],\n "sigma": [9]\n}\n'
    )
    err = expect_error(["lattice", str(p)], capsys, "sigma_prime entry 9", 2)
    assert "%s:4:" % p in err


def test_non_normal_subgroup_rejected(capsys):
    p = FIXTURES / "s3_bad_normal.json"
    err = expect_error(["lattice", str(p)], capsys, "N is not normal", 2)
    assert "%s:3:" % p in err


def test_unknown_event_name(capsys):
    expect_error(
        ["measure", str(FIXTURES / "klein.json"), "--event", "nope"],
        capsys,
        'unknown event name "nope"',
        2,
    )


def test_iter_requires_steps(capsys):
    expect_error(
        ["measure", str(FIXTURES / "klein.json"), "--mode", "iter"],
        capsys,
        "--steps is required with --mode iter",
        2,
    )


def test_steps_rejected_outside_iter(capsys):
    expect_error(
        ["measure", str(FIXTURES / "klein.json"), "--steps", "3"],
        capsys,
        "--steps only applies to --mode iter",
        2,
    )


def test_cap_exceeded_is_exit_three(capsys):
    expect_error(
        ["measure", str(FIXTURES / "klein.json"), "--cap", "1"],
        capsys,
        "over the cap of 1",
        3,
    )


def test_default_cap_still_binds_the_closed_form(tmp_path, capsys):
    # C2^4, N the whole group, n = 12: the closed form could answer at
    # once, but 16^12 tuples exceed TUPLE_CAP, and the cap is a policy
    p = tmp_path / "c2_4_n12.json"
    table = [[a ^ b for b in range(16)] for a in range(16)]
    setup = {"group": {"table": table}, "normal": [1, 2, 4, 8], "sigma": [1, 2, 4, 8] * 3}
    p.write_text(json.dumps(setup))
    err = expect_error(["measure", str(p), "--mode", "mu1"], capsys, "over the cap", 3)
    assert err == "error: member 66 needs 281474976710656 tuples, over the cap of 10000000\n"


def test_default_cap_binds_the_one_maximal_limit(tmp_path, capsys):
    # the same setup under --mode inf: its one maximal member gives the
    # limit without a solve, but each row is still held to TUPLE_CAP in
    # row order, so the first order-4 member, 4^12 tuples, is named
    p = tmp_path / "c2_4_n12.json"
    table = [[a ^ b for b in range(16)] for a in range(16)]
    setup = {"group": {"table": table}, "normal": [1, 2, 4, 8], "sigma": [1, 2, 4, 8] * 3}
    p.write_text(json.dumps(setup))
    err = expect_error(["measure", str(p), "--mode", "inf"], capsys, "over the cap", 3)
    assert err == "error: member 16 needs 16777216 tuples, over the cap of 10000000\n"


def klein_with_sigma_length(n, tmp_path):
    data = json.loads((FIXTURES / "klein.json").read_text())
    data["sigma"] = [1] * n
    p = tmp_path / ("klein_n%d.json" % n)
    p.write_text(json.dumps(data))
    return p


@pytest.mark.parametrize(
    "command",
    [["measure"], ["measure", "--mode", "mu1"], ["verify", "--suite", "lifts"]],
    ids=["inf", "mu1", "lifts"],
)
def test_over_cap_counts_too_long_to_print_exit_three(command, tmp_path):
    # klein with n = 14,500: the base needs 2^14500 tuples, 4,365 digits,
    # past CPython's 4,300-digit limit on printing an int.  Printed in
    # full, the message raised ValueError, a traceback and exit 1; the
    # count is named as a power instead
    p = klein_with_sigma_length(14_500, tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "fmeas", command[0], str(p)] + command[1:],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=60,
    )
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "error: member 2 needs 2^14500 tuples, over the cap of 10000000\n"


@pytest.mark.parametrize("n", [14_284, 14_285])
def test_an_over_cap_count_prints_in_full_while_it_can(n, tmp_path, capsys):
    # 2^14284 has 4,300 digits and prints in full, as it always has;
    # 2^14285 has 4,301
    p = klein_with_sigma_length(n, tmp_path)
    err = expect_error(["measure", str(p)], capsys, "over the cap", 3)
    count = "%d" % 2**n if n == 14_284 else "2^%d" % n
    assert err == "error: member 2 needs %s tuples, over the cap of 10000000\n" % count


def test_a_long_sigma_is_held_to_the_cap_from_the_sizes(tmp_path):
    # C2^6 with |N| = 8 and a sigma of 10^5 entries: the rows are held to
    # the cap from the sizes |H n N| before any count |H n N|^n is built.
    # The command takes about 0.1 s at 19 MB on a 2-core x86-64 machine
    # (CPython 3.11), as long as `lattice` on the file; building every
    # count first took 0.23 s at 32 MB and then crashed on printing one
    # (at 10^6 entries, 3 s at 170 MB)
    table = [[a ^ b for b in range(64)] for a in range(64)]
    sigma = ([8, 16, 32] * 33_334)[:100_000]
    setup = {"group": {"table": table}, "normal": [1, 2, 4], "sigma": sigma}
    p = tmp_path / "c2_6_long_sigma.json"
    p.write_text(json.dumps(setup))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_CHILD, "measure", str(p)],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=60,
    )
    elapsed = time.perf_counter() - start
    err, peak_kb = proc.stderr.rsplit("\n", 2)[:2]
    assert (proc.returncode, proc.stdout) == (3, "")
    assert err == "error: member 512 needs 2^100000 tuples, over the cap of 10000000"
    peak_mb = int(peak_kb) / 1024
    assert elapsed < 10.0, "took %.2f s" % elapsed
    assert peak_mb < 60, "peak RSS %.0f MB" % peak_mb


def test_embedding_on_c2_4_answers(tmp_path, capsys):
    # order 16, inside the default --bound of 24
    p = tmp_path / "c2_4.json"
    table = [[a ^ b for b in range(16)] for a in range(16)]
    setup = {"group": {"table": table}, "normal": [1, 2, 4, 8], "sigma": [0]}
    p.write_text(json.dumps(setup))
    rc, out, err = run_main(["embedding", str(p)], capsys)
    assert (rc, out, err) == (0, "embedding property: true\n", "")


def test_lifts_suite_over_the_cap_is_exit_three(capsys):
    expect_error(
        ["verify", str(FIXTURES / "klein.json"), "--suite", "lifts", "--cap", "1"],
        capsys,
        "over the cap of 1",
        3,
    )


def test_verify_with_many_valid_lifts_is_fast(tmp_path, capsys):
    # C2^4, N the whole group, n = 5: the base alone has 16^5 valid
    # lifts, but the lifts suite checks one coset size per member and
    # coordinate (about 0.5 s for every suite on a 2-core x86-64
    # machine, CPython 3.11); the bound leaves room for a loaded machine
    p = tmp_path / "c2_4_n5.json"
    table = [[a ^ b for b in range(16)] for a in range(16)]
    setup = {"group": {"table": table}, "normal": [1, 2, 4, 8], "sigma": [1, 2, 4, 8, 15]}
    p.write_text(json.dumps(setup))
    start = time.perf_counter()
    rc, out, err = run_main(["verify", str(p)], capsys)
    elapsed = time.perf_counter() - start
    assert rc == 0 and err == ""
    assert out.startswith("PASS lift-independence\n")
    assert "FAIL" not in out
    assert elapsed < 10.0, "took %.2f s" % elapsed


def test_lattice_beyond_the_order_cap_is_exit_three(tmp_path, capsys):
    # C2^7 (order 128) has 29,212 subgroups; the lattice enumerates the
    # base's subgroups under the same order cap of 64 as all_subgroups
    p = tmp_path / "c2_7.json"
    table = [[a ^ b for b in range(128)] for a in range(128)]
    setup = {"group": {"table": table}, "normal": [1], "sigma": [2, 4, 8, 16, 32, 64]}
    p.write_text(json.dumps(setup))
    start = time.perf_counter()
    err = expect_error(["lattice", str(p)], capsys, "capped at order 64", 3)
    elapsed = time.perf_counter() - start
    assert err == "error: subgroup enumeration capped at order 64 (group has order 128)\n"
    assert elapsed < 10.0, "took %.2f s" % elapsed


@pytest.mark.parametrize("argv", [["frattini"], ["embedding", "--bound", "72"]])
def test_frattini_layer_above_the_order_cap_names_the_enumeration_cap(argv, tmp_path, capsys):
    # the Frattini subgroup and the image classes read G's subgroup
    # lists, so the enumeration's own order cap is the one that binds
    p = tmp_path / "c72.json"
    table = [[(a + b) % 72 for b in range(72)] for a in range(72)]
    p.write_text(json.dumps({"group": {"table": table}, "normal": [1], "sigma": [0]}))
    err = expect_error(argv[:1] + [str(p)] + argv[1:], capsys, "capped at order 64", 3)
    assert err == "error: subgroup enumeration capped at order 64 (group has order 72)\n"


def test_verify_above_the_order_cap_keeps_its_error_precedence(tmp_path, capsys):
    # C2^7 over a base of order 64: the lattice answers, the lifts suite's
    # tuple cap binds before the frattini suite meets the order cap, and
    # without it the order cap binds; the default suite lists G's
    # subgroups first only under the cap
    p = tmp_path / "c2_7_base.json"
    table = [[a ^ b for b in range(128)] for a in range(128)]
    setup = {
        "group": {"table": table},
        "normal": [1, 64],
        "sigma": [2, 4, 8, 16, 32],
        "base": [1, 2, 4, 8, 16, 32],
    }
    p.write_text(json.dumps(setup))
    err = expect_error(["verify", str(p), "--cap", "31"], capsys, "over the cap", 3)
    assert err == "error: member 32 needs 32 tuples, over the cap of 31\n"
    err = expect_error(["verify", str(p)], capsys, "capped at order 64", 3)
    assert err == "error: subgroup enumeration capped at order 64 (group has order 128)\n"


def test_dump_over_the_line_cap_is_exit_three(monkeypatch, capsys):
    lines = (EXPECTED / "z2_dump.txt").read_text().count("\n")
    monkeypatch.setattr(invsys, "DUMP_LINES_CAP", lines - 1)
    err = expect_error(["invsys", str(FIXTURES / "z2.json"), "--dump"], capsys, "capped", 3)
    assert err == "error: system dumps capped at %d lines (got %d)\n" % (lines - 1, lines)


def test_dump_at_the_line_cap_is_whole(monkeypatch, capsys):
    golden = (EXPECTED / "z2_dump.txt").read_text()
    monkeypatch.setattr(invsys, "DUMP_LINES_CAP", golden.count("\n"))
    rc, out, err = run_main(["invsys", str(FIXTURES / "z2.json"), "--dump"], capsys)
    assert (rc, out, err) == (0, golden, "")


@pytest.mark.parametrize("steps", [1500, 10_000])
def test_iterated_measure_beyond_the_result_size_cap_is_exit_three(steps, tmp_path, capsys):
    # C2^4 with N = G and n = 4, so f(K) = 2^16: the values after k steps
    # have denominators of up to 16k + 1 bits.  Without a cap, k = 1,500
    # hit CPython's 4,300-digit limit on printing an int (exit 1), and
    # k = 10,000 ran for about 38 s first; the cap is checked before the
    # first step
    p = tmp_path / "c2_4_n4.json"
    table = [[a ^ b for b in range(16)] for a in range(16)]
    setup = {"group": {"table": table}, "normal": [1, 2, 4, 8], "sigma": [1, 2, 4, 8]}
    p.write_text(json.dumps(setup))
    start = time.perf_counter()
    argv = ["measure", str(p), "--mode", "iter", "--steps", str(steps)]
    err = expect_error(argv, capsys, "over the cap of 14000", 3)
    elapsed = time.perf_counter() - start
    assert err == (
        "error: %d steps over 65536 tuples need denominators of up to %d bits, "
        "over the cap of 14000\n" % (steps, 17 * steps)
    )
    assert elapsed < 5.0, "took %.2f s" % elapsed


@pytest.mark.parametrize("fixture,n", [("klein_weak.json", 1800), ("c4_to_c2.json", 900)])
def test_tower_suite_beyond_the_result_size_cap_is_exit_three(fixture, n, tmp_path, capsys):
    # n coordinates give f(K) = 2^1800 upstairs in both, so the suite's 8
    # steps need denominators of up to 14,408 bits.  Without the cap,
    # klein_weak's failing tower hit CPython's 4,300-digit limit on
    # printing its values (exit 1), and c4_to_c2's tower passed (exit 0)
    data = json.loads((FIXTURES / fixture).read_text())
    data["sigma"] = [1] * n
    p = tmp_path / fixture
    p.write_text(json.dumps(data))
    argv = ["verify", str(p), "--suite", "tower", "--cap", str(10**600)]
    err = expect_error(argv, capsys, "over the cap of 14000", 3)
    assert err == (
        "error: 8 steps over %d tuples need denominators of up to 14408 bits, "
        "over the cap of 14000\n" % 2**1800
    )


def test_lattice_at_the_order_cap_is_fast(tmp_path, capsys):
    # C2^6 with N = G: order 64, the default order cap, and each of its
    # 2,825 subgroups is a member; about 1.5 s on a 2-core x86-64 machine
    # (CPython 3.11), against about 11 s with a closure that multiplies
    # every pair of elements
    p = tmp_path / "c2_6.json"
    table = [[a ^ b for b in range(64)] for a in range(64)]
    setup = {"group": {"table": table}, "normal": [1, 2, 4, 8, 16, 32], "sigma": [0]}
    p.write_text(json.dumps(setup))
    start = time.perf_counter()
    rc, out, err = run_main(["lattice", str(p)], capsys)
    elapsed = time.perf_counter() - start
    assert rc == 0 and err == ""
    assert len(out.splitlines()) == 2825
    assert elapsed < 5.0, "took %.2f s" % elapsed


# a child that runs the CLI and prints its own peak RSS in kB last on
# stderr: VmHWM from /proc/self/status (Linux), which exec resets, where
# ru_maxrss would carry over the peak of the forking test process
PEAK_RSS_CHILD = (
    "import sys\n"
    "from fmeas.cli import main\n"
    "rc = main(sys.argv[1:])\n"
    "with open('/proc/self/status') as f:\n"
    "    hwm = next(line for line in f if line.startswith('VmHWM:'))\n"
    "print(hwm.split()[1], file=sys.stderr)\n"
    "sys.exit(rc)\n"
)


def test_invsys_suite_at_the_order_cap_finishes(tmp_path):
    # C2^6 with N = G: 26,387 cosets and 10,425,879 <= pairs.  Counting
    # them in one pass took about 17 s for the suite at about 380 MB on a
    # 2-core x86-64 machine (CPython 3.11), and building every comparable
    # pair as a set grew past 3 GB without finishing; validate() now
    # reads only the class data the relations are generated from (the
    # tighter bounds are below).  A child process keeps the memory out of
    # the test run, and the timeout stops it if it grows
    p = tmp_path / "c2_6.json"
    table = [[a ^ b for b in range(64)] for a in range(64)]
    setup = {"group": {"table": table}, "normal": [1, 2, 4, 8, 16, 32], "sigma": [0]}
    p.write_text(json.dumps(setup))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "fmeas", "verify", str(p), "--suite", "invsys"],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=150,
    )
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "PASS system-axioms\nPASS dual-round-trip\nPASS level-tower\n"
    assert elapsed < 150.0, "took %.2f s" % elapsed


def test_invsys_suite_at_the_order_cap_is_fast(tmp_path):
    # the suite above, bounded tighter: once validate() stopped
    # enumerating the 10,425,879 <= pairs it took about 6 s at 330 MB on
    # a 2-core x86-64 machine (CPython 3.11), against 15 to 20 s at
    # 377 MB
    p = tmp_path / "c2_6.json"
    table = [[a ^ b for b in range(64)] for a in range(64)]
    setup = {"group": {"table": table}, "normal": [1, 2, 4, 8, 16, 32], "sigma": [0]}
    p.write_text(json.dumps(setup))
    child = PEAK_RSS_CHILD
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", child, "verify", str(p), "--suite", "invsys"],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=150,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "PASS system-axioms\nPASS dual-round-trip\nPASS level-tower\n"
    peak_mb = int(proc.stderr) / 1024
    assert elapsed < 12.0, "took %.2f s" % elapsed
    assert peak_mb < 360, "peak RSS %.0f MB" % peak_mb


def test_invsys_suite_at_the_order_cap_checks_by_class(tmp_path):
    # the suite above, bounded tighter again: with validate() reading each
    # class once on bytes and each up-set as one bitset, and the level
    # tower projecting G onto each G/N_i and sharing their embeddings,
    # under 1 s at about 40 MB on a 2-core x86-64 machine (CPython 3.11),
    # against about 8 s at 330 MB when validate() walked every P triple
    # and C pair
    p = tmp_path / "c2_6.json"
    table = [[a ^ b for b in range(64)] for a in range(64)]
    setup = {"group": {"table": table}, "normal": [1, 2, 4, 8, 16, 32], "sigma": [0]}
    p.write_text(json.dumps(setup))
    child = PEAK_RSS_CHILD
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", child, "verify", str(p), "--suite", "invsys"],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=150,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "PASS system-axioms\nPASS dual-round-trip\nPASS level-tower\n"
    peak_mb = int(proc.stderr) / 1024
    assert elapsed < 6.0, "took %.2f s" % elapsed
    assert peak_mb < 100, "peak RSS %.0f MB" % peak_mb


class Writes:
    """A stdout that keeps each piece written, as it is written."""

    def __init__(self):
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)
        return len(text)

    def writelines(self, pieces):
        for text in pieces:
            self.write(text)


def dump_cases():
    """(id, setup file or None, group) for every loadable fixture and
    every corpus group; a corpus group gets a file with N = G."""
    for path in sorted(FIXTURES.glob("*.json")):
        if path.name != "s3_bad_normal.json":
            yield path.stem, path, None
    for name in sorted(corpus.BUILDERS):
        yield name, None, corpus.group(name)


@pytest.mark.parametrize("case", list(dump_cases()), ids=lambda case: case[0])
def test_invsys_dump_streams_the_per_tuple_oracle(case, tmp_path, monkeypatch):
    # stdout gets the dump block by block: one per class for the universe,
    # C and P, one per element for <=, and together the oracle's bytes
    _, path, G = case
    if path is None:
        path = tmp_path / "group.json"
        normal = list(G.generator_sequence())
        path.write_text(json.dumps({"group": {"table": G.table}, "normal": normal, "sigma": [0]}))
    else:
        G = load_setup(str(path)).group
    S = invsys.complete_system(G)
    out = Writes()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["invsys", str(path), "--dump"]) == 0
    assert "".join(out.pieces) == oracle_dump(S)
    assert len(out.pieces) == 3 * len(S.normals) + len(S.universe)
    assert all(piece.endswith("\n") for piece in out.pieces)


def test_dump_over_the_line_cap_on_c2_6_prints_nothing(tmp_path, capsys):
    # C2^6 with N = G would dump 12,611,968 lines; the cap is checked
    # before the first block is written
    p = tmp_path / "c2_6.json"
    table = [[a ^ b for b in range(64)] for a in range(64)]
    setup = {"group": {"table": table}, "normal": [1, 2, 4, 8, 16, 32], "sigma": [0]}
    p.write_text(json.dumps(setup))
    err = expect_error(["invsys", str(p), "--dump"], capsys, "capped", 3)
    assert err == "error: system dumps capped at 1000000 lines (got 12611968)\n"


def test_dump_of_c2_5_is_streamed_in_bounded_memory(tmp_path):
    # C2^5 with N = G dumps 393,152 lines (about 13 MB).  Written block by
    # block the child peaked at about 19 MB on a 2-core x86-64 machine
    # (CPython 3.11), of which about 18 MB is the interpreter with fmeas
    # loaded, against 54 MB when the dump was one list of lines joined
    # into one string
    p = tmp_path / "c2_5.json"
    table = [[a ^ b for b in range(32)] for a in range(32)]
    setup = {"group": {"table": table}, "normal": [1, 2, 4, 8, 16], "sigma": [0]}
    p.write_text(json.dumps(setup))
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_CHILD, "invsys", str(p), "--dump"],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    G = load_setup(str(p)).group
    assert proc.stdout == invsys.complete_system(G).dump()
    assert proc.stdout.count("\n") == 393_152
    peak_mb = int(proc.stderr) / 1024
    assert peak_mb < 32, "peak RSS %.1f MB" % peak_mb


@pytest.mark.parametrize("bound", ["32", "64"])
def test_embedding_on_c2_5_is_exit_three_in_bounded_time_and_memory(bound, tmp_path):
    # C2^5 has 624,960 epimorphisms onto C2^4 and 9,999,360 automorphisms;
    # listing them grew by about 38 MB/s without an answer, and stopping
    # the listing at groups.EPIMORPHISM_CAP maps took about 1.1 s at
    # 64 MB.  The search now counts |Epi(G, B)| = #kernels * |Aut(B)|
    # from each image's automorphism chain and refuses before it lists
    # anything: about 0.1 s at 18 MB on a 2-core x86-64 machine
    # (CPython 3.11), most of it the interpreter and fmeas loading
    p = tmp_path / "c2_5.json"
    table = [[a ^ b for b in range(32)] for a in range(32)]
    setup = {"group": {"table": table}, "normal": [1, 2, 4, 8, 16], "sigma": [0]}
    p.write_text(json.dumps(setup))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_CHILD, "embedding", str(p), "--bound", bound],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (3, "")
    message, peak_kb = proc.stderr.splitlines()
    assert message == "error: epimorphism listing capped at %d maps" % groups.EPIMORPHISM_CAP
    peak_mb = int(peak_kb) / 1024
    assert elapsed < 5.0, "took %.2f s" % elapsed
    assert peak_mb < 48, "peak RSS %.0f MB" % peak_mb


def test_embedding_on_c4_cubed_answers_in_bounded_time_and_memory(tmp_path):
    # |Aut(C4^3)| = 86,016.  Listing Epi(G, B) for every image took about
    # 4.9 s at 104 MB; the orbit search lists Aut(G) once, from its
    # automorphism chain, and answers in about 0.3 s at 38 MB on a
    # 2-core x86-64 machine (CPython 3.11)
    G = groups.direct_product(groups.cyclic(4), groups.cyclic(4), groups.cyclic(4))
    p = tmp_path / "c4_3.json"
    table = [list(row) for row in G.table]
    setup = {"group": {"table": table}, "normal": list(G.generator_sequence()), "sigma": [0]}
    p.write_text(json.dumps(setup))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_CHILD, "embedding", str(p), "--bound", "64"],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (0, "embedding property: true\n"), proc.stderr
    peak_mb = int(proc.stderr) / 1024
    assert elapsed < 5.0, "took %.2f s" % elapsed
    assert peak_mb < 64, "peak RSS %.0f MB" % peak_mb


def test_level_tower_builds_each_dual_embedding_once(tmp_path, capsys, monkeypatch):
    # C2^3 with N = G: levels 2 and 8 both meet in the trivial subgroup,
    # so they share the projection onto G/{0} and its embedding; S3's
    # three levels have three meets
    built = []
    real = invsys.dual_embedding

    def counting(pi, target=None):
        built.append(pi.target.order)
        return real(pi, target)

    monkeypatch.setattr(invsys, "dual_embedding", counting)
    p = tmp_path / "c2_3.json"
    table = [[a ^ b for b in range(8)] for a in range(8)]
    p.write_text(json.dumps({"group": {"table": table}, "normal": [1, 2, 4], "sigma": [0]}))
    for path, orders in ((p, [1, 8]), (FIXTURES / "s3.json", [1, 2, 6])):
        built.clear()
        rc, out, err = run_main(["verify", str(path), "--suite", "invsys"], capsys)
        assert (rc, err) == (0, "")
        assert out == "PASS system-axioms\nPASS dual-round-trip\nPASS level-tower\n"
        assert built == orders


def level_tower_lines(G, S, embed):
    """The level tower's detail lines from one comparison per level i,
    1 to j: the slow route, with embed giving each level's embedding."""
    by_sort = cli._universe_by_sort(S)
    bad = []
    for j in sorted({1, 2, G.order}):
        emb = embed(groups.quotient(G, invsys._level_kernel(G, j))[1], S)
        image_by_sort = {i: list(map(emb, xs)) for i, xs in cli._universe_by_sort(emb.source).items()}
        image, want = set(), set()
        for i in range(1, j + 1):
            image.update(image_by_sort.get(i, ()))
            want.update(by_sort.get(i, ()))
            if image != want:
                bad.append("j=%d i=%d" % (j, i))
    return bad


@pytest.mark.parametrize("name", ["C2xC2xC2", "S3", "D4", "C6xC2xC2"])
def test_a_corrupted_level_tower_lists_every_failing_level(name, monkeypatch):
    # each embedding's images of its first element of the second sort and
    # its last element of the largest sort are swapped: the sets differ
    # from that second sort up to, not including, the largest, and the
    # tower, which compares once per sort, names every level between
    real = invsys.dual_embedding

    def corrupted(pi, target=None):
        emb = real(pi, target)
        sorts = cli._universe_by_sort(emb.source)
        if len(sorts) < 3:
            return emb
        keys = sorted(sorts)
        x, y = sorts[keys[1]][0], sorts[keys[-1]][-1]
        image_of = dict(emb.image_of)
        image_of[x], image_of[y] = image_of[y], image_of[x]
        return invsys.SystemEmbedding(emb.source, emb.target, image_of)

    monkeypatch.setattr(invsys, "dual_embedding", corrupted)
    G = corpus.group(name)
    loaded = types.SimpleNamespace(group=G)
    got = {check: (ok, details) for check, ok, details in cli._invsys_checks(loaded)}
    S = invsys.complete_system(G)
    want = level_tower_lines(G, S, corrupted)
    assert got["level-tower"] == (False, want)
    # some failing level lies between two sorts
    sorts = cli._universe_by_sort(S)
    assert any(int(line.split("i=")[1]) not in sorts for line in want)


def test_the_carried_system_decodes_each_mask_once(tmp_path, capsys, monkeypatch):
    # C2^6 has 2,825 subgroups, all normal; each mask but the trivial one,
    # which every group holds decoded, is decoded once, by G, and the
    # system on G/{0} reads the elements G found
    decoded = []
    real = groups._mask_to_elems

    def counting(mask):
        decoded.append(mask)
        return real(mask)

    monkeypatch.setattr(groups, "_mask_to_elems", counting)
    p = tmp_path / "c2_6.json"
    table = [[a ^ b for b in range(64)] for a in range(64)]
    p.write_text(json.dumps({"group": {"table": table}, "normal": [1, 2, 4, 8, 16, 32], "sigma": [0]}))
    rc, out, err = run_main(["verify", str(p), "--suite", "invsys"], capsys)
    assert (rc, err) == (0, "")
    assert out == "PASS system-axioms\nPASS dual-round-trip\nPASS level-tower\n"
    assert len(decoded) == len(set(decoded)) == 2824


def test_level_routes_build_no_extra_system(capsys, monkeypatch):
    # invsys --level builds no system, as level_quotient reads N_i off the
    # normal subgroups and the summary counts the quotient's; the level
    # tower projects onto each G/N_i and generates no subsystem, so on S3
    # it builds the suite's system and one source system per embedding
    # but the last, onto G/{0}, whose system is the suite's carried across
    built, generated = [], []
    init, generate = invsys.CompleteSystem.__init__, invsys.generated_subsystem

    def counting_init(self, group, normals):
        built.append(group.order)
        init(self, group, normals)

    def counting_generate(S, A):
        generated.append(S.group.order)
        return generate(S, A)

    monkeypatch.setattr(invsys.CompleteSystem, "__init__", counting_init)
    monkeypatch.setattr(invsys, "generated_subsystem", counting_generate)
    # and under the name the CLI would import it by
    monkeypatch.setattr(cli, "generated_subsystem", counting_generate, raising=False)
    s3 = str(FIXTURES / "s3.json")
    rc, out, err = run_main(["invsys", s3, "--level", "2"], capsys)
    assert (rc, out, err) == (0, (EXPECTED / "s3_level2.txt").read_text(), "")
    assert built == []
    rc, out, err = run_main(["verify", s3, "--suite", "invsys"], capsys)
    assert (rc, err) == (0, "")
    assert out == "PASS system-axioms\nPASS dual-round-trip\nPASS level-tower\n"
    assert (built, generated) == ([6, 1, 2], [])


def test_the_invsys_summary_builds_no_system(tmp_path, capsys, monkeypatch):
    # classes and elements are counted off the normal subgroups; on C2^6
    # the system they describe has 2,825 classes and 26,387 elements
    built = []
    init = invsys.CompleteSystem.__init__

    def counting_init(self, group, normals):
        built.append(group.order)
        init(self, group, normals)

    monkeypatch.setattr(invsys.CompleteSystem, "__init__", counting_init)
    p = tmp_path / "c2_6.json"
    table = [[a ^ b for b in range(64)] for a in range(64)]
    p.write_text(json.dumps({"group": {"table": table}, "normal": [1, 2, 4, 8, 16, 32], "sigma": [0]}))
    for path in (p, FIXTURES / "s3.json"):
        for level in ([], ["--level", "2"]):
            rc, out, err = run_main(["invsys", str(path)] + level, capsys)
            assert (rc, err) == (0, "")
            assert built == []
    rc, out, err = run_main(["invsys", str(p)], capsys)
    assert out == "classes = 2825\nelements = 26387\n"


def summary_oracle(G):
    """invsys's two lines for G, read off its complete system."""
    S = invsys.complete_system(G)
    return "classes = %d\nelements = %d\n" % (len(S.normals), len(S.universe))


@pytest.mark.parametrize("name", [name for name, _ in corpus.classes_upto(24)] + ["C2^6"])
def test_the_invsys_summary_matches_the_built_system(name, tmp_path, capsys):
    # plain, and at levels 1, 2 and |G|, against the system each describes
    G = C2_6 if name == "C2^6" else corpus.group(name)
    p = tmp_path / "group.json"
    normal = list(G.generator_sequence())
    p.write_text(json.dumps({"group": {"table": G.table}, "normal": normal, "sigma": [0]}))
    levels = [2] if name == "C2^6" else [1, 2, G.order]
    rc, out, err = run_main(["invsys", str(p)], capsys)
    assert (rc, out, err) == (0, summary_oracle(G), "")
    for j in levels:
        Q = invsys.level_quotient(G, j)
        rc, out, err = run_main(["invsys", str(p), "--level", str(j)], capsys)
        want = summary_oracle(Q) + "level %d quotient: order %d\n" % (j, Q.order)
        assert (rc, out, err) == (0, want, ""), j


@pytest.mark.parametrize("level", [[], ["--level", "2"]])
def test_the_invsys_summary_keeps_the_system_cap(level, tmp_path, capsys):
    # S5 from permutations, order 120: counted or built, the system is capped
    p = tmp_path / "s5.json"
    perms = [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]]
    G = groups.build_group({"permutations": perms})
    normal = list(G.generator_sequence())
    p.write_text(json.dumps({"group": {"permutations": perms}, "normal": normal, "sigma": [0]}))
    rc, out, err = run_main(["invsys", str(p)] + level, capsys)
    assert (rc, out) == (3, "")
    assert err == "error: complete systems capped at group order 64 (got 120)\n"


def lift_of(G, N):
    """The least element of each coset of N named by G/N's generator sequence."""
    Q, r = groups.quotient(G, N)
    least = {q: g for g, q in reversed(list(enumerate(r.image_of)))}
    return [least[q] for q in Q.generator_sequence()] or [0]


def level_orders(G):
    """The orders of G/N_1 and G/N_2, the level quotients whose systems the
    invsys suite builds: elementary abelian 2-groups, so each lists its
    normal subgroups by one search of its own."""
    return [G.order // invsys._level_kernel(G, j).order for j in (1, 2)]


@pytest.mark.parametrize("name", ["S4", "C6xC2xC2"])
def test_the_frattini_suite_enumerates_once(name, tmp_path, capsys, monkeypatch):
    # the cover routes list every subgroup of G; the base lattice, over
    # the whole group, takes its members from that list, for every N and
    # with every suite; the composition law and the restriction check
    # read the same list, and search no quotient and no member; each run
    # loads its own copy of G, with nothing cached
    calls = count_enumerations(monkeypatch)
    G = corpus.group(name)
    assert frattini_subgroup(G).frattini_subgroup.order == 1
    p = tmp_path / "group.json"
    for N in groups.normal_subgroups(G):
        normal = list(N.canonical_generators())
        setup = {"group": {"table": G.table}, "normal": normal, "sigma": lift_of(G, N)}
        p.write_text(json.dumps(setup))
        calls.clear()
        rc, out, err = run_main(["verify", str(p), "--suite", "frattini"], capsys)
        assert (rc, err) == (0, "")
        assert "FAIL" not in out
        assert [H.order for H in calls] == [G.order], N
        assert calls[0] is not G
    # the default suite lists G's subgroups before its base lattice, so
    # with N = G the lattice and the Frattini suite share one search; then
    # the invsys suite's level quotients
    p.write_text(json.dumps({"group": {"table": G.table}, "normal": normal, "sigma": [0]}))
    calls.clear()
    rc, out, err = run_main(["verify", str(p)], capsys)
    assert (rc, err) == (0, "")
    assert "FAIL" not in out
    assert [H.order for H in calls] == [G.order] + level_orders(G)


@pytest.mark.parametrize("name,searches", [("C6xC2xC2", 1), ("S4", 0)])
def test_structure_commands_enumerate_at_most_once(name, searches, tmp_path, capsys, monkeypatch):
    # the abelian group's normal subgroups are all its subgroups, found by
    # one reverse search; S4's are joined from its conjugacy classes; the
    # suite's level tower searches G/N_1 and G/N_2 once each, and the
    # level command counts off G's normal subgroups, searching no quotient
    calls = count_enumerations(monkeypatch)
    G = corpus.group(name)
    p = tmp_path / "group.json"
    normal = list(G.generator_sequence())
    p.write_text(json.dumps({"group": {"table": G.table}, "normal": normal, "sigma": [0]}))
    runs = [
        (["verify", str(p), "--suite", "invsys"], level_orders(G)),
        (["invsys", str(p), "--level", "2"], []),
    ]
    for argv, levels in runs:
        calls.clear()
        rc, out, err = run_main(argv, capsys)
        assert (rc, err) == (0, "")
        assert "FAIL" not in out
        assert [H.order for H in calls] == [G.order] * searches + levels, argv


def test_frattini_suite_at_the_order_cap_is_fast(tmp_path, capsys):
    # C2^6 with N = G: 2,825 subgroups, all normal, and 92,881 chains
    # N1 < N2, read off up-sets; about 0.4 to 0.6 s on a 2-core x86-64
    # machine (CPython 3.11), most of it the lattice's containments
    p = tmp_path / "c2_6.json"
    table = [[a ^ b for b in range(64)] for a in range(64)]
    setup = {"group": {"table": table}, "normal": [1, 2, 4, 8, 16, 32], "sigma": [0]}
    p.write_text(json.dumps(setup))
    start = time.perf_counter()
    rc, out, err = run_main(["verify", str(p), "--suite", "frattini"], capsys)
    elapsed = time.perf_counter() - start
    assert (rc, err) == (0, "")
    assert out == (
        "PASS frattini-cover-routes\n"
        "PASS frattini-composition\n"
        "PASS maximal-equals-frattini-restriction\n"
    )
    assert elapsed < 30.0, "took %.2f s" % elapsed


def ascending_cover_routes(G):
    """For each normal N, by mask, whether only G itself has HN = G: the
    subgroup route as it scanned the proper subgroups smallest first."""
    proper = [(H.mask, H.order) for H in groups.all_subgroups(G) if H.order < G.order]
    return {
        N.mask: not any(h * N.order == G.order * bin(m & N.mask).count("1") for m, h in proper)
        for N in groups.normal_subgroups(G)
    }


C2_6 = groups.FiniteGroup([[a ^ b for b in range(64)] for a in range(64)])


@pytest.mark.parametrize("name", [name for name, _ in corpus.classes_upto(24)] + ["C2^6"])
def test_frattini_cover_routes_match_the_ascending_scan(name, monkeypatch):
    # the kernel verdict replaced by the ascending scan's, and then
    # by its negation: the check passes, and then fails on every normal N,
    # only if the largest-first scan gives that verdict on each of them
    G = C2_6 if name == "C2^6" else corpus.group(name)
    oracle = ascending_cover_routes(G)
    loaded = types.SimpleNamespace(group=G)
    for negate in (False, True):
        monkeypatch.setattr(frattini, "_covers", lambda G, kernel: oracle[kernel] ^ negate)
        check, ok, details = next(cli._frattini_checks(loaded, None))
        assert check == "frattini-cover-routes"
        assert (ok, len(details)) == ((True, 0) if not negate else (False, len(oracle)))


def test_frattini_suite_builds_only_the_projections(monkeypatch, capsys):
    # on S3 the three laws read G's subgroup list alone: the composition
    # law and the restriction check build no projection, the chains
    # N1 < N2 no map of their own, and nothing runs the checking
    # constructor
    checked, derived = count_hom_builds(monkeypatch)
    rc, _, err = run_main(["verify", str(FIXTURES / "s3.json"), "--suite", "frattini"], capsys)
    assert (rc, err) == (0, "")
    assert derived == []
    assert checked == []


@pytest.mark.parametrize("name", ["s3.json", "Q8", "C2^6"])
def test_frattini_suite_builds_a_quotient_per_covering_kernel(name, tmp_path, monkeypatch, capsys):
    # no G/N is built: the composition law decides G/N1 ->> G/N2 by the
    # subgroups of G above N1, and the restriction check reads the cosets
    # of the setup's N, so neither S3, nor Q8, whose Phi(G) = Z is a
    # covering kernel, nor C2^6 with N = G builds a projection
    if name == "s3.json":
        p = FIXTURES / name
    else:
        G = C2_6 if name == "C2^6" else corpus.group(name)
        p = tmp_path / "g.json"
        setup = {"group": {"table": G.table}, "normal": list(range(G.order)), "sigma": [0]}
        p.write_text(json.dumps(setup))
    built = []
    onto = groups.GroupHom._onto.__func__

    def counted(cls, source, target, image_of):
        built.append(sum(1 << x for x, v in enumerate(image_of) if v == 0))
        return onto(cls, source, target, image_of)

    monkeypatch.setattr(groups.GroupHom, "_onto", classmethod(counted))
    rc, out, err = run_main(["verify", str(p), "--suite", "frattini"], capsys)
    assert (rc, err) == (0, "") and "FAIL" not in out
    assert built == []


@pytest.mark.parametrize("name", [name for name, G in corpus.classes_upto(24) if G.order > 1])
def test_frattini_composition_lists_failing_chains_in_pair_order(name, tmp_path, monkeypatch):
    # every projection claimed a cover: the law then fails exactly on the
    # chains N1 < N2 with N2 outside p1^-1(Phi(G/N1)), and the detail lines
    # come in the order of the pairwise scan over the normal subgroups;
    # on C4xC2, N1 = 1xC2 lies outside Phi(G) = 2C4x1, yet G/N1 ->> G/(2C4xC2)
    # covers
    G = corpus.group(name)
    p = tmp_path / "g.json"
    setup = {"group": {"table": G.table}, "normal": list(range(G.order)), "sigma": [0]}
    p.write_text(json.dumps(setup))
    monkeypatch.setattr(frattini, "_covers", lambda G, kernel: True)
    loaded = load_setup(str(p))
    G = loaded.group
    want = []
    for N1 in groups.normal_subgroups(G):
        Q, p1 = groups.quotient(G, N1)
        phi_q = frattini_subgroup(Q).frattini_subgroup
        for N2 in groups.normal_subgroups(G):
            if N1.mask & N2.mask == N1.mask and N1 != N2:
                if not all(p1(x) in phi_q for x in N2.elements):
                    want.append("chain %s then %s" % (N1.display_name(), N2.display_name()))
    got = {check: (ok, details) for check, ok, details in cli._frattini_checks(loaded, None)}
    assert want
    assert got["frattini-composition"] == (False, want)


@pytest.mark.parametrize("name", [name for name, _ in corpus.classes_upto(24)] + ["C2^6"])
def test_restriction_check_lists_exactly_the_flipped_members(name, tmp_path, monkeypatch, capsys):
    # is_maximal answers the reverse-search oracle's verdict, flipped on
    # every third member: the check then fails on exactly those members,
    # only if its own verdict is the oracle's on every member; every
    # normal N with a greedy lift, and N = G on C2^6
    G = C2_6 if name == "C2^6" else corpus.group(name)
    normals = [groups.all_subgroups(G)[-1]] if name == "C2^6" else groups.normal_subgroups(G)
    p = tmp_path / "g.json"
    for N in normals:
        normal = list(N.canonical_generators())
        setup = {"group": {"table": G.table}, "normal": normal, "sigma": lift_of(G, N)}
        p.write_text(json.dumps(setup))
        loaded = load_setup(str(p))
        lat = SubextLattice(loaded.setup, loaded.base)
        r = groups.quotient(loaded.group, loaded.setup.n_sub)[1]
        oracle = [is_frattini_restriction(H, r) for H in lat.members]
        flipped = range(0, len(oracle), 3)
        monkeypatch.setattr(
            SubextLattice, "is_maximal", lambda self, i: oracle[i] != (i % 3 == 0)
        )
        rc, out, err = run_main(["verify", str(p), "--suite", "frattini"], capsys)
        want = ["FAIL maximal-equals-frattini-restriction"]
        want += ["  member %d %s" % (i, lat.member_name(i)) for i in flipped]
        assert (rc, err) == (4, ""), N
        assert out.splitlines()[2:] == want, N


def test_measure_on_an_order_512_permutation_group_is_fast(tmp_path, capsys):
    # D4^3 on 12 points, N the last two factors, the base the first: one
    # member.  Sampling 10 n^2 table triples took 6.0 to 7.6 s here, and
    # composing every pair of permutations, then checking the table on a
    # generator sequence, about 0.4 s; the table read off the Cayley
    # graph, with no table check, brings the command to about 0.1 s on a
    # 2-core x86-64 machine (CPython 3.11).  The closure lists the
    # generators first, as elements 1 to 6
    setup = {
        "group": {"permutations": d4_power_generators(3)},
        "normal": [3, 4, 5, 6],
        "sigma": [1, 2],
        "base": [1, 2],
    }
    p = tmp_path / "d4_cubed.json"
    p.write_text(json.dumps(setup))
    start = time.perf_counter()
    rc, out, err = run_main(["measure", str(p)], capsys)
    elapsed = time.perf_counter() - start
    assert rc == 0 and err == ""
    assert out == "1\n"
    assert elapsed < 5.0, "took %.2f s" % elapsed


C257_TABLE = [[(a + b) % 257 for b in range(257)] for a in range(257)]


@pytest.mark.parametrize(
    "setup",
    [
        {"group": {"table": C257_TABLE}, "normal": [1], "sigma": [0], "base": []},
        {
            "group": {"table": [[0, 1], [1, 0]]},
            "normal": [1],
            "sigma": [0],
            "tower": {"group": {"table": C257_TABLE}, "map": [[1, 0]]},
        },
    ],
    ids=["group", "tower"],
)
def test_a_table_past_the_order_cap_exits_three(setup, tmp_path, capsys):
    # a hand-written table is checked as one byte string per row, so it
    # is held to order 256.  Before, C257's table was checked by scans:
    # measure on its trivial base answered 1, and as the lower group of
    # a tower the file failed on the map with exit 2.  The refusal names
    # the file and the line of the group's key, as every error from a
    # file does
    p = tmp_path / "c257.json"
    p.write_text(json.dumps(setup))
    rc, out, err = run_main(["measure", str(p)], capsys)
    assert (rc, out) == (3, "")
    assert err == "error: %s:1: multiplication tables capped at order 256 (got 257)\n" % p


def test_measure_on_an_order_4096_permutation_group_is_fast(tmp_path):
    # the case above with a fourth factor, N the last three: D4^4 on 16
    # points, at the closure cap.  Composing every pair of permutations
    # and checking the table took about 29 s at 275 MB; read off the
    # Cayley graph the command takes about 1 s at 146 MB on a 2-core
    # x86-64 machine (CPython 3.11).  A child process keeps the memory
    # out of the test run
    setup = {
        "group": {"permutations": d4_power_generators(4)},
        "normal": [3, 4, 5, 6, 7, 8],
        "sigma": [1, 2],
        "base": [1, 2],
    }
    p = tmp_path / "d4_fourth.json"
    p.write_text(json.dumps(setup))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_CHILD, "measure", str(p)],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=150,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"
    peak_mb = int(proc.stderr) / 1024
    assert elapsed < 10.0, "took %.2f s" % elapsed
    assert peak_mb < 400, "peak RSS %.0f MB" % peak_mb


def test_permutation_generators_past_the_products_cap_exit_three(tmp_path, capsys):
    # D4^4's 8 generators and its 256 rotations, each factor turned by its
    # own power of the 4-cycle: 260 distinct generators, 1,064,960
    # products over the 4,096 elements.  Past 2^18 products the closure
    # stops; `lattice` with 1,008 distinct generators took about 12 s at
    # 183 MB without the cap on a 2-core x86-64 machine (CPython 3.11)
    rotations = [
        [4 * f + (v + turns[f]) % 4 for f in range(4) for v in range(4)]
        for turns in itertools.product(range(4), repeat=4)
    ]
    setup = {
        "group": {"permutations": d4_power_generators(4) + rotations},
        "normal": [3, 4, 5, 6, 7, 8],
        "sigma": [1, 2],
    }
    p = tmp_path / "d4_fourth_rotations.json"
    p.write_text(json.dumps(setup))
    start = time.perf_counter()
    err = expect_error(["lattice", str(p)], capsys, "products", 3)
    elapsed = time.perf_counter() - start
    assert err.endswith(
        ": permutation closure of 260 generators exceeds the cap of 262144 products\n"
    )
    assert elapsed < 5.0, "took %.2f s" % elapsed


@pytest.mark.parametrize(
    "group,fragment",
    [
        ({"table": [[False, True], [True, False]]}, "table entry False is not an element index"),
        ({"permutations": [[True, False]]}, "malformed permutation [True, False]"),
    ],
    ids=["table", "permutations"],
)
def test_boolean_group_entries_rejected(group, fragment, tmp_path, capsys):
    p = tmp_path / "bools.json"
    p.write_text('{\n "group": %s,\n "normal": [0],\n "sigma": [1]\n}\n' % json.dumps(group))
    err = expect_error(["lattice", str(p)], capsys, fragment, 2)
    assert err.startswith("error: %s:2: " % p)


@pytest.mark.parametrize(
    "group,fragment",
    [
        ({"table": 7}, "multiplication table must be a list of rows"),
        ({"table": [1]}, "multiplication table must be a list of rows"),
        ({"permutations": [5]}, "malformed permutation 5"),
        ({"permutations": [[1, 0], 3]}, "malformed permutation 3"),
    ],
    ids=["table-int", "table-int-row", "permutations-int", "permutations-int-entry"],
)
def test_malformed_group_shapes_rejected(group, fragment, tmp_path, capsys):
    p = tmp_path / "shape.json"
    p.write_text('{\n "group": %s,\n "normal": [0],\n "sigma": [0]\n}\n' % json.dumps(group))
    err = expect_error(["lattice", str(p)], capsys, fragment, 2)
    assert err.startswith("error: %s:2: " % p)


# -- the markov suite against the Fraction-matrix route ----------------------------


def reachable(rows):
    """Bit j of reach[i] is set when member j is reachable from member i."""
    reach = [sum(1 << j for j, p in enumerate(row) if p) | 1 << i for i, row in enumerate(rows)]
    for k in range(len(rows)):
        for i in range(len(rows)):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    return reach


def naive_reach(rows):
    """reach[i][j]: a path of nonzero entries leads from i to j (or i == j)."""
    m = len(rows)
    reach = [[i == j or bool(rows[i][j]) for j in range(m)] for i in range(m)]
    changed = True
    while changed:
        changed = False
        for i in range(m):
            for j in range(m):
                if not reach[i][j] and any(reach[i][k] and reach[k][j] for k in range(m)):
                    reach[i][j] = changed = True
    return reach


@pytest.mark.parametrize(
    "rows",
    [
        [[1]],
        [[1, 0, 0], [1, 0, 0], [0, 1, 0]],
        [[0, 1, 0], [0, 0, 1], [0, 0, 1]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1]],
        # a cycle 0 -> 1 -> 2 -> 0 fed by 3, which the lattice order never gives
        [[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 1, 0]],
    ],
    ids=["single", "chain-down", "chain-up", "two-absorbing", "cycle"],
)
def test_reachable_matches_a_naive_closure(rows):
    m = len(rows)
    reach = reachable(rows)
    assert [[bool(reach[i] >> j & 1) for j in range(m)] for i in range(m)] == naive_reach(rows)


def _fmt(x):
    """A Fraction in lowest terms, integers without the denominator: the
    oracle for every printed value, which the program prints from
    integer counts over a denominator."""
    if x.denominator == 1:
        return "%d" % x.numerator
    return "%d/%d" % (x.numerator, x.denominator)


def _vector_line(values):
    return ", ".join(_fmt(v) for v in values)


def matrix_markov_checks(lat, inf, one):
    """The five markov checks over the explicit Fraction transition matrix,
    with a closure for reachability: the slow route, given the limit and
    mu1 vectors to check."""
    T = transition_matrix(lat)
    m = len(lat.members)
    out = []

    bad = [i for i in range(m) if (T.rows[i][i] == 1) != lat.is_maximal(i)]
    out.append(("absorbing-equals-maximal", not bad, ["member %d" % i for i in bad]))

    reach = reachable(T.rows)
    bad = []
    for i in range(m):
        ergodic = all(reach[j] >> i & 1 for j in range(m) if reach[i] >> j & 1)
        if ergodic != lat.is_maximal(i):
            bad.append(i)
    out.append(("ergodic-equals-maximal", not bad, ["member %d" % i for i in bad]))

    support = [i for i in range(m) if inf.values[i]]
    stepped = [sum(inf.values[i] * T.rows[i][j] for i in support) for j in range(m)]
    ok = stepped == list(inf.values)
    out.append(("limit-fixed-point", ok, [] if ok else [_vector_line(stepped)]))

    bad = [i for i in range(m) if (inf.values[i] > 0) != lat.is_maximal(i) or inf.values[i] < 0]
    ok = not bad and sum(inf.values) == 1
    out.append(
        ("limit-support", ok, ["member %d value %s" % (i, _fmt(inf.values[i])) for i in bad])
    )

    bad = [i for i in range(lat.n_maximal) if not 0 < one.values[i] <= inf.values[i]]
    out.append(
        (
            "mu1-below-limit",
            not bad,
            [
                "member %d: mu1 %s limit %s" % (i, _fmt(one.values[i]), _fmt(inf.values[i]))
                for i in bad
            ],
        )
    )
    return out


VALID_FIXTURES = ["klein.json", "klein_weak.json", "z2.json", "z4.json", "s3.json", "c4_to_c2.json"]


def markov_cases():
    """(tag, lattice) for every corpus lattice and valid fixture."""
    for tag, _, _, lat in setups.corpus_lattices():
        yield tag, lat
    for name in VALID_FIXTURES:
        loaded = load_setup(str(FIXTURES / name))
        yield name, SubextLattice(loaded.setup, loaded.base)


def test_an_absent_base_is_the_whole_group(tmp_path):
    paths = [FIXTURES / name for name in VALID_FIXTURES]
    for name in ["C1", "C2xC2", "S3", "D4", "Q8", "A4", "SL23", "C2^4"]:
        G = corpus.group(name)
        p = tmp_path / ("%s.json" % name)
        setup = {"group": {"table": G.table}, "normal": list(range(G.order)), "sigma": [0]}
        p.write_text(json.dumps(setup))
        paths.append(p)
    for p in paths:
        loaded = load_setup(str(p))
        assert loaded.base.mask == (1 << loaded.group.order) - 1, p.name


def test_markov_suite_matches_the_matrix_route():
    for tag, lat in markov_cases():
        inf = mu_infinity(lat)
        one = mu1(lat)
        got = list(_markov_checks(lat, TUPLE_CAP))
        assert got == matrix_markov_checks(lat, inf, one), tag
        assert all(ok for _, ok, _ in got), tag


def test_markov_suite_fails_a_wrong_limit(monkeypatch, capsys):
    # the point mass at the base is a valid measure, but a step moves it
    # and it sits on a member that is not maximal: both checks must fail,
    # with the matrix route's detail lines
    def point_mass_at_base(lat, *, cap):
        m = len(lat.members)
        return MeasureVector(lat, [0] * (m - 1) + [1])

    monkeypatch.setattr(cli, "mu_infinity", point_mass_at_base)
    checked = 0
    for tag, lat in markov_cases():
        if len(lat.members) == 1:
            continue
        got = list(_markov_checks(lat, TUPLE_CAP))
        wrong = point_mass_at_base(lat, cap=TUPLE_CAP)
        one = mu1(lat)
        assert got == matrix_markov_checks(lat, wrong, one), tag
        verdict = {name: ok for name, ok, _ in got}
        assert not verdict["limit-fixed-point"], tag
        assert not verdict["limit-support"], tag
        checked += 1
    assert checked > 250
    rc, out, err = run_main(["verify", str(FIXTURES / "klein.json"), "--suite", "markov"], capsys)
    assert rc == 4
    assert out == (
        "PASS absorbing-equals-maximal\n"
        "PASS ergodic-equals-maximal\n"
        "FAIL limit-fixed-point\n"
        "  1/2, 1/2, 0\n"
        "FAIL limit-support\n"
        "  member 0 value 0\n"
        "  member 1 value 0\n"
        "  member 2 value 1\n"
        "FAIL mu1-below-limit\n"
        "  member 0: mu1 1/2 limit 0\n"
        "  member 1: mu1 1/2 limit 0\n"
    )


def test_markov_suite_fails_a_limit_below_mu1(monkeypatch):
    # a limit weighted 1, 2, 1, 2, ... over the maximal members is positive
    # where it must be, but falls below mu1 on some of them
    def tilted(lat, *, cap):
        ell, m = lat.n_maximal, len(lat.members)
        weights = [1 + i % 2 for i in range(ell)]
        return MeasureVector(lat, [Fraction(w, sum(weights)) for w in weights] + [0] * (m - ell))

    monkeypatch.setattr(cli, "mu_infinity", tilted)
    below = 0
    for tag, lat in markov_cases():
        if lat.n_maximal < 2:
            continue
        got = list(_markov_checks(lat, TUPLE_CAP))
        assert got == matrix_markov_checks(lat, tilted(lat, cap=TUPLE_CAP), mu1(lat)), tag
        verdict = {name: ok for name, ok, _ in got}
        assert verdict["limit-support"], tag
        below += not verdict["mu1-below-limit"]
    assert below > 50


def test_verify_solves_each_lattice_limit_once(monkeypatch, capsys):
    # the markov suite and the tower's pushforward check both read the base
    # lattice's limit, and the check reads the lower lattice's: three
    # mu_infinity calls on two lattices make two solves, one per lattice
    calls, solved = [], []
    real_limit, real_solve = measure.mu_infinity, measure._absorbing_solve

    def counting_limit(lat, *, cap):
        calls.append(lat)
        return real_limit(lat, cap=cap)

    def counting_solve(lat, f, g, below):
        solved.append(lat)
        return real_solve(lat, f, g, below)

    monkeypatch.setattr(cli, "mu_infinity", counting_limit)
    monkeypatch.setattr(measure, "mu_infinity", counting_limit)
    monkeypatch.setattr(measure, "_absorbing_solve", counting_solve)
    rc, out, err = run_main(["verify", str(FIXTURES / "c4_to_c2.json")], capsys)
    assert (rc, err) == (0, "")
    assert "FAIL" not in out and "PASS tower-pushforward\n" in out
    assert len(calls) == 3 and len(set(map(id, calls))) == 2
    assert len(solved) == len(set(map(id, solved))) == 2


def test_printed_values_match_the_fraction_formatter(capsys):
    # the program prints each value from its count and denominator; the
    # Fraction formatter on the values is the oracle
    for tag, _, _, lat in setups.corpus_lattices():
        for v in (mu1(lat), measure.mu_i(lat, 3), mu_infinity(lat)):
            assert cli._vector_line(v.counts, v.denominator) == _vector_line(v.values), tag
    rng = random.Random(0)
    for _ in range(2000):
        p, q = rng.randint(-60, 60), rng.randint(1, 60)
        assert cli._ratio(p, q) == _fmt(Fraction(p, q)), (p, q)
    for name in VALID_FIXTURES:
        path = str(FIXTURES / name)
        loaded = load_setup(path)
        lat = SubextLattice(loaded.setup, loaded.base)
        for mode, vector in (("mu1", mu1(lat)), ("inf", mu_infinity(lat))):
            rc, out, err = run_main(["measure", path, "--mode", mode], capsys)
            assert (rc, out, err) == (0, _vector_line(vector.values) + "\n", ""), name
            for event, X in loaded.events.items():
                rc, out, err = run_main(["measure", path, "--mode", mode, "--event", event], capsys)
                mass = sum((vector.values[i] for i in {lat.member_index(H) for H in X}), Fraction(0))
                assert (rc, out, err) == (0, _fmt(mass) + "\n", ""), (name, event)


@pytest.mark.parametrize("suite", ["markov", "all"])
def test_verify_builds_no_transition_matrix(suite, monkeypatch, capsys):
    runs = []
    for name in VALID_FIXTURES + ["s3_bad_normal.json"]:
        runs.append(run_main(["verify", str(FIXTURES / name), "--suite", suite], capsys))

    def refuse(*args, **kwargs):
        raise AssertionError("verify built a TransitionMatrix")

    monkeypatch.setattr(measure.TransitionMatrix, "__init__", refuse)
    for name, before in zip(VALID_FIXTURES + ["s3_bad_normal.json"], runs):
        rc, out, err = run_main(["verify", str(FIXTURES / name), "--suite", suite], capsys)
        assert (rc, out, err) == before, name
        if suite == "markov" and name != "s3_bad_normal.json":
            assert rc == 0, name


def test_markov_suite_holds_every_row_to_the_cap(capsys):
    rc, out, err = run_main(
        ["verify", str(FIXTURES / "klein.json"), "--suite", "markov", "--cap", "1"], capsys
    )
    assert (rc, out, err) == (3, "", "error: member 2 needs 2 tuples, over the cap of 1\n")


def test_verify_builds_one_lattice_per_tower_level(monkeypatch, capsys):
    # the base's lattice serves every suite, the tower's upper level
    # included, and pushforward_check builds only the lower one
    built = []
    init = SubextLattice.__init__

    def counting(self, setup, base):
        built.append(setup.group.order)
        init(self, setup, base)

    monkeypatch.setattr(SubextLattice, "__init__", counting)
    c4 = str(FIXTURES / "c4_to_c2.json")
    for suite in (["--suite", "tower"], []):
        built.clear()
        rc, out, err = run_main(["verify", c4] + suite, capsys)
        assert (rc, err) == (0, "")
        assert built == [4, 2]


def test_loading_a_tower_builds_no_lower_setup(monkeypatch, capsys):
    built = []
    init = GaloisSetup.__init__

    def counting(self, group, n_sub, sigma_prime):
        built.append(group.order)
        init(self, group, n_sub, sigma_prime)

    monkeypatch.setattr(GaloisSetup, "__init__", counting)
    c4 = str(FIXTURES / "c4_to_c2.json")
    for argv in (["lattice", c4], ["measure", c4], ["verify", c4, "--suite", "markov"]):
        built.clear()
        rc, out, err = run_main(argv, capsys)
        assert (rc, err) == (0, "")
        assert built == [4]
    assert isinstance(load_setup(c4).tower, groups.GroupHom)


def test_tower_suite_needs_tower_section(capsys):
    expect_error(
        ["verify", str(FIXTURES / "klein.json"), "--suite", "tower"],
        capsys,
        "the file has no tower section",
        2,
    )


def test_bad_level_rejected(capsys):
    expect_error(
        ["invsys", str(FIXTURES / "s3.json"), "--level", "0"],
        capsys,
        "level must be a positive integer",
        2,
    )


def test_missing_file_is_usage_error(tmp_path, capsys):
    rc, out, err = run_main(["lattice", str(tmp_path / "absent.json")], capsys)
    assert rc == 2
    assert "absent.json" in err


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


def test_tower_map_must_be_homomorphism(tmp_path, capsys):
    data = json.loads((FIXTURES / "c4_to_c2.json").read_text())
    data["tower"]["map"] = [[1, 1], [2, 1]]
    p = tmp_path / "badmap.json"
    p.write_text(json.dumps(data, indent=1))
    expect_error(
        ["verify", str(p), "--suite", "tower"],
        capsys,
        "map does not extend to a homomorphism",
        2,
    )


def test_tower_that_is_not_a_group_names_the_tower_line(tmp_path, capsys):
    # the tower's own "group" key comes after the top-level one, so the
    # error points at the line that opens "tower"
    raw = (FIXTURES / "c4_to_c2.json").read_text()
    assert raw.splitlines()[4].strip() == '"tower": {'
    p = tmp_path / "badtower.json"
    p.write_text(raw.replace('"table": [[0, 1], [1, 0]]', '"table": [[0, 1], [1, 1]]'))
    err = expect_error(["verify", str(p), "--suite", "tower"], capsys, "not a group table", 2)
    assert err == "error: %s:5: row 1 is not a permutation; not a group table\n" % p


@pytest.mark.parametrize(
    "command", ["lattice", "measure", "verify", "frattini", "embedding", "invsys"]
)
def test_base_that_does_not_map_onto_the_quotient_is_a_file_error(command, tmp_path, capsys):
    data = json.loads((FIXTURES / "klein.json").read_text())
    data["base"] = []
    p = tmp_path / "badbase.json"
    text = json.dumps(data, indent=1)
    p.write_text(text)
    line = next(i for i, s in enumerate(text.splitlines(), start=1) if '"base"' in s)
    rc, out, err = run_main([command, str(p)], capsys)
    assert (rc, out) == (2, "")
    assert err == "error: %s:%d: base subgroup does not map onto the quotient\n" % (p, line)


# events whose subgroup is no lattice member: <2> = N, so <2>N != G, and
# <3>, which maps onto the quotient but lies outside the base <1>
NON_MEMBER_EVENTS = [({}, [[2]]), ({"base": [1]}, [[3]])]


@pytest.mark.parametrize(
    "args",
    [
        ["lattice"],
        ["measure"],
        ["measure", "--event", "bad"],
        ["verify"],
        ["frattini"],
        ["embedding"],
        ["invsys"],
    ],
    ids=lambda args: "-".join(a.lstrip("-") for a in args),
)
def test_event_that_is_not_a_lattice_member_is_a_file_error(args, tmp_path, capsys):
    for k, (extra, entries) in enumerate(NON_MEMBER_EVENTS):
        data = json.loads((FIXTURES / "klein.json").read_text())
        data.update(extra)
        data["events"] = {"first": [[1]], "bad": entries}
        p = tmp_path / ("badevent%d.json" % k)
        text = json.dumps(data, indent=1)
        p.write_text(text)
        line = next(i for i, s in enumerate(text.splitlines(), start=1) if '"bad"' in s)
        rc, out, err = run_main(args[:1] + [str(p)] + args[1:], capsys)
        assert (rc, out) == (2, "")
        assert err == 'error: %s:%d: event "bad": subgroup is not a lattice member\n' % (p, line)


def test_event_named_like_an_earlier_key_is_reported_at_its_own_line(tmp_path, capsys):
    # the event "normal" is on line 6, below the "normal" key on line 3;
    # an event is searched for from the "events" key's line on
    p = tmp_path / "ev.json"
    p.write_text(
        "{\n"
        '  "group": {"permutations": [[1, 0, 2], [1, 2, 0]]},\n'
        '  "normal": [2],\n'
        '  "sigma": [1],\n'
        '  "events": {\n'
        '    "normal": [[9]]\n'
        "  }\n"
        "}\n"
    )
    rc, out, err = run_main(["measure", str(p)], capsys)
    assert (rc, out) == (2, "")
    assert err == 'error: %s:6: event "normal": generator 9 is out of range\n' % p


MEASURE_PATH = [
    ["lattice"],
    ["measure", "--mode", "mu1"],
    ["measure", "--mode", "iter", "--steps", "3"],
    ["measure", "--mode", "inf"],
    ["verify", "--suite", "lifts"],
    ["verify", "--suite", "markov"],
]


def test_frattini_suite_reports_cover_routes_that_disagree(monkeypatch, capsys):
    # a kernel verdict that calls every kernel a cover is wrong on
    # Z4 ->> 1, whose kernel <1> = Z4 is not inside Phi(Z4) = <2>
    monkeypatch.setattr(frattini, "_covers", lambda G, kernel: True)
    argv = ["verify", str(FIXTURES / "z4.json"), "--suite", "frattini"]
    rc, out, err = run_main(argv, capsys)
    assert (rc, err) == (4, "")
    assert (
        "FAIL frattini-cover-routes\n"
        "  kernel <1>: internal error: kernel criterion and subgroup criterion disagree\n"
    ) in out


def test_measure_path_builds_no_quotient(monkeypatch, capsys):
    # groups.quotient wrapped at every fmeas module that binds it
    original = groups.quotient
    calls = []

    def counted(G, N):
        calls.append((G, N))
        return original(G, N)

    for name, module in list(sys.modules.items()):
        if (name == "fmeas" or name.startswith("fmeas.")) and getattr(
            module, "quotient", None
        ) is original:
            monkeypatch.setattr(module, "quotient", counted)
    for name in VALID_FIXTURES:
        runs = [[cmd[0], str(FIXTURES / name)] + cmd[1:] for cmd in MEASURE_PATH]
        if json.loads((FIXTURES / name).read_text()).get("tower"):
            runs.append(["verify", str(FIXTURES / name), "--suite", "tower"])
        for argv in runs:
            rc, _, err = run_main(argv, capsys)
            # klein_weak's tower fails its pushforward check on purpose
            assert rc in (0, 4) and err == "", argv
            assert calls == [], argv
    # the wrapper does see the invsys suite's projections onto its levels
    p = FIXTURES / "s3.json"
    assert run_main(["verify", str(p), "--suite", "invsys"], capsys)[0] == 0
    G = load_setup(str(p)).group
    levels = {invsys._level_kernel(G, j).mask for j in (1, 2, G.order)}
    assert calls and {N.mask for _, N in calls} == levels
