"""Command line tests pinned to golden output files.

Every fixture run is compared byte for byte against a file under
tests/fixtures/expected/, so any change to output formatting or to the
numbers themselves shows up as a diff.  Each case also runs under the
retired FMEAS_THREADS settings 1, 2 and 8, which scripts written for
older releases may still export: the output must not depend on them.
The markov suite, which reads the chain off integer counts, is also
checked line by line against the explicit Fraction-matrix route.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fmeas
from fmeas import cli, groups, invsys, measure
from fmeas.cli import _fmt, _markov_checks, _vector_line, main
from fmeas.lattice import SubextLattice
from fmeas.measure import TUPLE_CAP, MeasureVector, mu1, mu_infinity, transition_matrix
from fmeas.setupfile import LoadedSetup, load_setup

import setups
from conftest import FIXTURES

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
    (["lattice"], "z4.json", "z4_lattice.txt", 0),
    (["frattini"], "z4.json", "z4_frattini.txt", 0),
    (["measure"], "z4.json", "z4_inf.txt", 0),
    (["measure"], "s3.json", "s3_inf.txt", 0),
    (["invsys", "--level", "2"], "s3.json", "s3_level2.txt", 0),
    (["embedding", "--bound", "8"], "s3.json", "s3_embedding.txt", 0),
    (["verify", "--suite", "tower"], "c4_to_c2.json", "c4_to_c2_verify_tower.txt", 0),
    (["verify", "--suite", "tower"], "klein_weak.json", "klein_weak_verify_tower.txt", 4),
]


def run_main(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


@pytest.mark.parametrize("threads", ["1", "2", "8"])
@pytest.mark.parametrize(
    "args,fixture,golden,code",
    GOLDEN_CASES,
    ids=["%s-%s" % (c[1].split(".")[0], c[2].split(".")[0]) for c in GOLDEN_CASES],
)
def test_golden_output(args, fixture, golden, code, threads, monkeypatch, capsys):
    monkeypatch.setenv("FMEAS_THREADS", threads)
    argv = args[:1] + [str(FIXTURES / fixture)] + args[1:]
    rc, out, err = run_main(argv, capsys)
    assert rc == code
    assert err == ""
    assert out == (EXPECTED / golden).read_text()


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


def test_measure_on_an_order_512_permutation_group_is_fast(tmp_path, capsys):
    # D4^3 on 12 points, N the last two factors, the base the first: one
    # member.  Every table check is complete; sampling 10 n^2 triples
    # took 6.0 to 7.6 s here, and the generator-sequence check brings the
    # command to about 1 s on a 2-core x86-64 machine (CPython 3.11)
    gens = []
    for f in range(3):
        for p4 in ([1, 2, 3, 0], [0, 3, 2, 1]):
            perm = list(range(12))
            perm[4 * f : 4 * f + 4] = [4 * f + v for v in p4]
            gens.append(perm)
    # the closure lists the generators first, as elements 1 to 6
    setup = {
        "group": {"permutations": gens},
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


def matrix_markov_checks(setup, K, lat, inf, one):
    """The five markov checks over the explicit Fraction transition matrix,
    with a closure for reachability: the slow route, given the limit and
    mu1 vectors to check."""
    T = transition_matrix(setup, K, lattice=lat)
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
    """(tag, loaded setup, lattice) for every corpus lattice and valid fixture."""
    for tag, setup, K, lat in setups.corpus_lattices():
        yield tag, LoadedSetup(tag, setup, K, {}, None), lat
    for name in VALID_FIXTURES:
        loaded = load_setup(str(FIXTURES / name))
        yield name, loaded, SubextLattice(loaded.setup, loaded.base)


def test_markov_suite_matches_the_matrix_route():
    for tag, loaded, lat in markov_cases():
        setup, K = loaded.setup, loaded.base
        inf = mu_infinity(setup, K, lattice=lat)
        one = mu1(setup, K, lattice=lat)
        got = list(_markov_checks(loaded, lat, TUPLE_CAP))
        assert got == matrix_markov_checks(setup, K, lat, inf, one), tag
        assert all(ok for _, ok, _ in got), tag


def test_markov_suite_fails_a_wrong_limit(monkeypatch, capsys):
    # the point mass at the base is a valid measure, but a step moves it
    # and it sits on a member that is not maximal: both checks must fail,
    # with the matrix route's detail lines
    def point_mass_at_base(setup, K, *, cap, lattice):
        m = len(lattice.members)
        return MeasureVector(lattice, [0] * (m - 1) + [1])

    monkeypatch.setattr(cli, "mu_infinity", point_mass_at_base)
    checked = 0
    for tag, loaded, lat in markov_cases():
        if len(lat.members) == 1:
            continue
        setup, K = loaded.setup, loaded.base
        got = list(_markov_checks(loaded, lat, TUPLE_CAP))
        wrong = point_mass_at_base(setup, K, cap=TUPLE_CAP, lattice=lat)
        one = mu1(setup, K, lattice=lat)
        assert got == matrix_markov_checks(setup, K, lat, wrong, one), tag
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


MEASURE_PATH = [
    ["lattice"],
    ["measure", "--mode", "mu1"],
    ["measure", "--mode", "iter", "--steps", "3"],
    ["measure", "--mode", "inf"],
    ["verify", "--suite", "lifts"],
    ["verify", "--suite", "markov"],
]


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
    # the wrapper does see the frattini suite's projections
    p = FIXTURES / "s3.json"
    assert run_main(["verify", str(p), "--suite", "frattini"], capsys)[0] == 0
    G = load_setup(str(p)).group
    assert {N.mask for _, N in calls} == {N.mask for N in groups.normal_subgroups(G)}
