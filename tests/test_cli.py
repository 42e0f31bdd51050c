"""Scenario parsing, report generation, exit codes and determinism of the
command-line front end."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndistal.cli import (REGISTRY, ScenarioError, main, parse_scenario,
                         run_scenario, validate_scenario)

ANNULUS_SCENARIO = """\
# full annulus3 audit
system = annulus3
seed = 0
cloud_size = 64

[distality_report]
N_max = 3
assert_max_cell_size = 3

[theorem_3_5_audit]
N = 3
gap_c = 16
assert_passed = true
assert_details.n_minimal = 2
"""

SHIFT_SCENARIO = """\
system = shift2

[word_count_entropy]
n = 12
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_scenario_roundtrip(tmp_path):
    path = write(tmp_path, "s.scn", ANNULUS_SCENARIO)
    header, analyses = parse_scenario(path)
    assert header == {"system": "annulus3", "seed": 0, "cloud_size": 64}
    assert [op for op, _, _ in analyses] == ["distality_report",
                                             "theorem_3_5_audit"]
    assert analyses[1][1]["gap_c"] == 16


def test_parse_errors_carry_line_numbers(tmp_path):
    path = write(tmp_path, "bad.scn", "system = annulus3\n\nnot a kv line\n")
    with pytest.raises(ScenarioError, match="line 3"):
        parse_scenario(path)
    path = write(tmp_path, "empty.scn", "system = annulus3\n")
    with pytest.raises(ScenarioError, match="no analyses"):
        parse_scenario(path)


def test_missing_file_and_bad_usage_exit_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.scn")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_unknown_system_exits_2(tmp_path, capsys):
    path = write(tmp_path, "s.scn",
                 "system = moebius\n\n[distality_report]\n")
    assert main(["run", path]) == 2
    assert "moebius" in capsys.readouterr().err


def test_unknown_op_exits_2_with_line(tmp_path, capsys):
    path = write(tmp_path, "s.scn",
                 "system = annulus3\n\n[frobnicate]\n")
    assert main(["run", path]) == 2
    assert "line 3" in capsys.readouterr().err


def test_annulus_scenario_passes(tmp_path):
    path = write(tmp_path, "s.scn", ANNULUS_SCENARIO)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["summary"]["passed"]
    dist = report["analyses"][0]["result"]
    assert dist["max_cell_size"] == 3
    assert (out / "timings.json").exists()


def test_distality_timings_say_how_the_verdict_was_reached(tmp_path):
    # timings.json, not report.json, holds the pairs the kernels computed
    # and the verdict's slack: the largest edge M_H / eps and the smallest
    # computed non-edge's, which here is no unstable pair under eps
    out = tmp_path / "out"
    assert run_scenario(str(ROOT / "scenarios" / "annulus3_audit.scn"),
                        out=str(out)) == 0
    entry = json.loads((out / "timings.json").read_text())["analyses"][0]
    assert entry["op"] == "distality_report"
    assert 209 < entry["pairs_evaluated"] < 209 ** 2 // 8
    assert 0.0 <= entry["max_edge_ratio"] < 1.0 <= entry["min_nonedge_ratio"]
    report = (out / "report.json").read_text()
    assert "pairs_evaluated" not in report and "_ratio" not in report


def test_failed_assert_exits_1(tmp_path):
    path = write(tmp_path, "s.scn", ANNULUS_SCENARIO.replace(
        "assert_max_cell_size = 3", "assert_max_cell_size = 2"))
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert not report["summary"]["passed"]


def test_shift_word_entropy_value(tmp_path):
    path = write(tmp_path, "s.scn", SHIFT_SCENARIO)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    value = report["analyses"][0]["result"]["value"]
    assert abs(value - math.log(2.0)) <= 1e-12


def test_reports_are_byte_identical(tmp_path):
    path = write(tmp_path, "s.scn", ANNULUS_SCENARIO)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", path, "--out", str(out)]) == 0
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]


def test_list_systems_facts(capsys):
    assert main(["list-systems"]) == 0
    text = capsys.readouterr().out
    assert "3-distal, not 2-distal" in text
    assert "distal, minimal, not N-equicontinuous" in text
    assert "expansive, not N-distal" in text


def test_oneoff_subcommand(capsys):
    assert main(["ndiam", "--system", "rotation", "--size", "16",
                 "--N", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["exact"]
    assert out["value_lower"] == out["value_upper"] >= 0.0
    assert len(out["witness"]) == 3


NON_UTF8 = "non-utf8.scn"
TINY = "system = rotation\ncloud_size = 8\n"
# scenario files the table below runs; each must be rejected by binding,
# before any analysis
BAD_SCENARIOS = {
    "misspelt-key.scn": TINY + "[distality_report]\neps_prox = 0.5\n",
    "misspelt-case.scn": TINY + "[distality_report]\nHorizon = 3\n",
    "h-word.scn": TINY + "[distality_report]\nH = abc\n",
    "h-float.scn": TINY + "[distality_report]\nH = 2.5\n",
    "n-bool.scn": TINY + "[n_equicontinuity_probe]\nN = true\n",
    "grid-words.scn": TINY + "[expansivity_probe]\ndelta_grid = a, b\n",
    "cloud-word.scn": "system = rotation\ncloud_size = abc\n"
                      "[skew_witness]\n",
    "section-cloud-word.scn": TINY + "[skew_witness]\ncloud_size = abc\n",
    "seed-word.scn": "system = rotation\nseed = abc\n[skew_witness]\n",
}
# scenario files that bind but whose analysis rejects a parameter
REJECTED_AT_RUN = {
    "return-h.scn": "system = annulus3\ncloud_size = 8\n"
                    "[return_profile]\nH = -1\n",
    "witness-m-0.scn": "system = skew_torus\ncloud_size = 8\n"
                       "[skew_witness]\nN = 2\nM = 0\n",
    "witness-m-negative.scn": "system = skew_torus\ncloud_size = 8\n"
                              "[skew_witness]\nN = 2\nM = -1\n",
    "witness-m-above-n.scn": "system = skew_torus\ncloud_size = 8\n"
                             "[skew_witness]\nN = 1\nM = 2\n",
    "equicont-no-bases.scn": "system = rotation\ncloud_size = 8\n"
                             "[n_equicontinuity_probe]\nN = 1\n"
                             "n_bases = 0\n",
}


@pytest.mark.parametrize("argv", [
    ["proximal", "--system", "annulus3", "--H", "-5"],
    ["proximal", "--system", "annulus3", "--H", "0"],
    ["structure", "--system", "annulus3", "--op", "transitive_check",
     "--H", "-5"],
    ["entropy", "--system", "rotation", "--op", "word_count_entropy"],
    ["entropy", "--system", "shift2", "--op", "word_count_entropy",
     "--n", "0"],
    ["proximal", "--system", "rotation{alpha=abc}"],
    ["proximal", "--system", "rotation{alpha=nan}"],
    ["proximal", "--system", "rotation{alpha=1e400}"],
    ["proximal", "--system", "annulusN{N=nan}"],
    ["--threads", "2", "list-systems"],
    ["proximal", "--system", "annulus3", "--eps", "nan"],
    ["proximal", "--system", "annulus3", "--eps", "0"],
    ["proximal", "--system", "annulus3", "--index", "0", "--eps", "-1"],
    ["equicont", "--system", "rotation", "--N", "1", "--epsilon", "nan"],
    ["equicont", "--system", "rotation", "--N", "1", "--epsilon", "0"],
    ["equicont", "--system", "rotation", "--N", "1",
     "--delta-grid", "0.1", "nan"],
    ["equicont", "--system", "rotation", "--N", "1", "--delta-grid", "-0.1"],
    ["structure", "--system", "annulus3", "--op", "transitive_check",
     "--delta", "nan"],
    ["structure", "--system", "annulus3", "--op", "minimal_subsystems",
     "--delta", "0"],
    ["structure", "--system", "annulus3", "--delta", "nan"],
    ["entropy", "--system", "shift2"],
    ["run", NON_UTF8],
    *[["run", name] for name in BAD_SCENARIOS],
    ["entropy", "--system", "shift2", "--op", "ks_bound_audit", "--k", "5"],
    ["proximal", "--system", "annulus3", "--index", "0", "--N-max", "5"],
    ["proximal", "--system", "annulus3", "--index", "0", "--quotient"],
    ["structure", "--system", "annulus3", "--op", "theorem_3_5_audit",
     "--T-max", "9"],
    ["structure", "--system", "rotation", "--op", "expansivity_probe",
     "--H", "2.5"],
    ["structure", "--system", "annulus3", "--op", "minimal_subsystems",
     "--H", "-5"],
    *[["run", name] for name in REJECTED_AT_RUN],
    ["proximal", "--system", "rotation", "--cloud-size", "0"],
    ["proximal", "--system", "skew_torus", "--cloud-size", "-3"],
    ["proximal", "--system", "shift2", "--cloud-size", "-1"],
    ["structure", "--system", "annulus3", "--cloud-size", "0", "--op",
     "minimal_subsystems"],
    ["entropy", "--system", "rotation", "--k", "0"],
    ["entropy", "--system", "rotation", "--k", "-2"],
    ["ndiam", "--system", "rotation", "--N", "2", "--size", "-3"],
    ["ndiam", "--system", "rotation", "--N", "2", "--size", "-3",
     "--cloud-size", "16"],
    ["ndiam", "--system", "rotation", "--N", "2", "--size", "-3", "--bounds"],
    ["structure", "--system", "rotation", "--op", "periodic_points",
     "--T-max", "0"],
    ["structure", "--system", "rotation", "--op", "periodic_points",
     "--T-max", "-1"],
    ["structure", "--system", "rotation", "--op", "prop_3_2_audit",
     "--T-max", "0"],
    ["structure", "--system", "rotation", "--op", "prop_3_2_audit",
     "--T-max", "-1"],
    ["structure", "--system", "annulus3", "--op", "theorem_3_5_audit",
     "--N", "0"],
    ["proximal", "--system", "annulusN{N=4.5}"],
    ["proximal", "--system", "annulus3", "--N-max", "0"],
    ["proximal", "--system", "annulusN{N=1025}"],
])
def test_invalid_invocations_exit_2(argv, tmp_path, monkeypatch):
    # scenario files named in the table are written to the working directory
    (tmp_path / NON_UTF8).write_bytes(b"system = annulus3\n\xff\n")
    for name, text in {**BAD_SCENARIOS, **REJECTED_AT_RUN}.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    try:
        code = main(argv)
    except SystemExit as exc:   # argparse rejects unknown flags this way
        code = exc.code
    assert code == 2


def test_oversized_shift_grid_exits_2_at_once():
    # 2^33 words: refused before any is enumerated; the child's address
    # space is capped so that an enumeration fails instead of growing
    child = (
        "import resource, sys, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from ndistal.cli import main\n"
        "t = time.perf_counter()\n"
        "code = main(['structure', '--system', 'shift2', '--cloud-size',"
        " '16', '--op', 'periodic_points'])\n"
        "print(time.perf_counter() - t)\n"
        "sys.exit(code)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": src if not path else src + os.pathsep + path}
    proc = subprocess.run([sys.executable, "-c", child], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "2^33" in proc.stderr
    assert float(proc.stdout.split()[-1]) < 1.0



def test_out_of_memory_exits_2(monkeypatch, capsys):
    # a cloud too large for its visit matrix is a usage error, not an
    # audit failure
    from ndistal import structure

    def too_large(*args):
        raise MemoryError("Unable to allocate 2.00 TiB")

    monkeypatch.setattr(structure, "orbit_visit_matrix", too_large)
    code = main(["structure", "--system", "shift2", "--cloud-size", "2",
                 "--op", "transitive_check", "--H", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1

def test_oneoff_audit_that_failed_exits_1(monkeypatch, capsys):
    # a one-off audit that prints "passed": false exits 1, as a scenario
    # whose audit fails does; no catalogue default fails, so the runner is
    # made to.  A probe's "passed" is a verdict: the skew torus's refuted
    # N-equicontinuity exits 0
    argv = ["structure", "--system", "rotation", "--cloud-size", "8",
            "--op", "prop_3_2_audit", "--T-max", "3"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    real = REGISTRY["prop_3_2_audit"]

    def failed(sys, cloud, seed, *, T_max=50):
        return {**real(sys, cloud, seed, T_max=T_max), "passed": False}

    monkeypatch.setitem(REGISTRY, "prop_3_2_audit", failed)
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False
    assert main(["equicont", "--system", "skew_torus", "--N", "1",
                 "--cloud-size", "8", "--H", "20"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_no_minimal_set_found_is_undecided(capsys):
    # every compact system has a minimal set (Birkhoff), so a cloud with no
    # almost periodic point leaves the count undecided, with the reason
    # the theorem audit gives, and the call exits 0
    argv = ["structure", "--system", "annulus3"]
    assert main([*argv, "--op", "minimal_subsystems"]) == 0
    found = json.loads(capsys.readouterr().out)
    assert found["count"] is None and found["clusters"] == []
    assert main([*argv, "--op", "theorem_3_5_audit"]) == 0
    audit = json.loads(capsys.readouterr().out)
    assert audit["passed"] is None
    assert found["reason"] == audit["details"]["reason"]


def test_rejected_scenario_writes_nothing(tmp_path, capsys):
    path = write(tmp_path, "s.scn", BAD_SCENARIOS["misspelt-key.scn"])
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "line 3" in err and "eps_prox" in err


@pytest.mark.parametrize("flags, seed", [([], 7), (["--seed", "3"], 3),
                                         (["--seed", "0"], 0)])
def test_run_seed_overrides_header_only_when_given(tmp_path, flags, seed):
    path = write(tmp_path, "s.scn", TINY.replace(
        "cloud_size", "seed = 7\ncloud_size") + "[skew_witness]\n")
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out), *flags]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["scenario"]["seed"] == seed


def test_oneoff_flags_reach_the_op(capsys):
    def run(*argv):
        assert main(["structure", "--system", "rotation{alpha=0.25}",
                     "--cloud-size", "8", *argv]) == 0
        return json.loads(capsys.readouterr().out)

    assert run("--op", "expansivity_probe", "--H", "3")["horizon"] == 3
    # an absent flag takes the op's own default, as a scenario section does
    assert run("--op", "prop_3_2_audit")["details"]["T_max"] == 50


ROOT = Path(__file__).resolve().parents[1]


def test_shipped_scenarios_bind():
    # binding only: no analysis runs, and bench/ is only read
    paths = [*ROOT.glob("scenarios/*.scn"),
             *ROOT.glob("bench/scenarios/*.scn")]
    assert {p.parent for p in paths} == {ROOT / "scenarios",
                                         ROOT / "bench" / "scenarios"}
    for path in paths:
        validate_scenario(*parse_scenario(path))


@given(st.binary(max_size=200))
@settings(max_examples=200, deadline=None)
def test_parse_scenario_raises_only_scenario_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("scn") / "s.scn"
    path.write_bytes(data)
    try:
        parse_scenario(str(path))
    except ScenarioError:
        pass


NAMES = st.from_regex(r"[a-z][a-z0-9_]{0,8}(\.[a-z][a-z0-9_]{0,5})?",
                      fullmatch=True)
WORDS = st.from_regex(r"[A-Za-z][A-Za-z0-9_ ]{0,10}", fullmatch=True)
VALUES = st.one_of(
    st.integers(-10**6, 10**6), st.booleans(), st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    WORDS, st.lists(st.integers(-99, 99), min_size=2, max_size=4).map(tuple))


def scenario_value(v):
    """The text parse_scenario reads back as v."""
    if v is None or isinstance(v, bool):
        return {None: "none", True: "true", False: "false"}[v]
    if isinstance(v, str):
        return f'"{v}"'
    if isinstance(v, tuple):
        return ", ".join(map(str, v))
    return repr(v)


@given(st.dictionaries(NAMES, VALUES, max_size=4),
       st.lists(st.tuples(NAMES, st.dictionaries(NAMES, VALUES, max_size=4)),
                min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_generated_scenarios_round_trip(tmp_path_factory, header, analyses):
    header = {"system": "annulus3", **header}
    lines = [f"{k} = {scenario_value(v)}" for k, v in header.items()]
    for op, params in analyses:
        lines += ["", f"[{op}]  # comment"]
        lines += [f"  {k}={scenario_value(v)}" for k, v in params.items()]
    path = tmp_path_factory.mktemp("scn") / "s.scn"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    got_header, got = parse_scenario(str(path))
    assert got_header == header
    assert [(op, params) for op, params, _ in got] == analyses


ROTATION_16 = ("system = rotation\ncloud_size = 16\n"
               "[distality_report]\nH = 20\n")


def test_bound_on_a_word_exits_2(tmp_path, capsys):
    path = write(tmp_path, "s.scn",
                 ROTATION_16 + "assert_max_cell_size_le = abc\n")
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 2
    assert not out.exists()
    assert "assert_max_cell_size_le" in capsys.readouterr().err


@pytest.mark.parametrize("assertion, actual", [
    ("assert_verdict_le = 3", "distal"),
    ("assert_cells_ge = 1", []),
])
def test_bound_on_a_field_not_a_number_fails_its_check(tmp_path, assertion,
                                                       actual):
    path = write(tmp_path, "s.scn", ROTATION_16 + assertion + "\n")
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 1
    [record] = json.loads((out / "report.json").read_text())["analyses"]
    [check] = record["checks"]
    assert check["actual"] == actual
    assert not check["passed"] and check["error"] == "not a number"


def test_negative_seed_exits_2(tmp_path, capsys):
    assert main(["--seed", "-1", "equicont", "--system", "rotation",
                 "--N", "1", "--cloud-size", "32"]) == 2
    assert "seed" in capsys.readouterr().err
    path = write(tmp_path, "s.scn", "system = rotation\nseed = -3\n"
                 "cloud_size = 16\n[n_equicontinuity_probe]\nH = 20\n")
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 2
    [record] = json.loads((out / "report.json").read_text())["analyses"]
    assert record["error"].startswith("ParameterError: seed")


def test_analysis_error_fails_the_summary(tmp_path):
    # the analysis has no assert_* keys, yet it never ran
    path = write(tmp_path, "s.scn", "system = rotation\nseed = -3\n"
                 "cloud_size = 16\n[n_equicontinuity_probe]\nH = 20\n")
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    [record] = report["analyses"]
    assert "error" in record and record["passed"] is None
    assert report["summary"] == {"passed": False, "n_failed": 0,
                                 "n_asserted": 0}


@pytest.mark.parametrize("argv", [
    ["run", str(ROOT / "scenarios" / "shift2_suite.scn")],
    ["ndiam", "--system", "rotation", "--N", "1", "--cloud-size", "8"],
])
def test_output_path_that_is_a_file_exits_2(tmp_path, capsys, argv):
    taken = tmp_path / "F"
    taken.write_text("")
    assert main([*argv, "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# small parameters for every registry op on a torus system; the shift's
# word count runs on shift2
CONTRACT_PARAMS = {
    "distality_report": {"H": 20}, "proximal_cell": {"H": 20},
    "proximal_quotient": {"H": 20}, "n_equicontinuity_probe": {"H": 20},
    "r_set": {"H": 20}, "skew_witness": {},
    "theorem_3_5_audit": {"N": 1, "H": 20}, "prop_3_2_audit": {"T_max": 5},
    "minimal_subsystems": {"H": 20}, "transitive_check": {"H": 20},
    "return_profile": {"H": 20}, "expansivity_probe": {"H": 5},
    "periodic_points": {"T_max": 5}, "metric_entropy_estimate": {"n_max": 4},
    "ks_bound_audit": {}, "diam_n_exact": {}, "diam_n_bounds": {},
}


def test_every_runner_returns_a_dict_and_the_run_writes_two_files(tmp_path):
    assert {*CONTRACT_PARAMS, "word_count_entropy"} == set(REGISTRY)
    sections = "".join(
        f"[{op}]\n" + "".join(f"{k} = {v}\n" for k, v in params.items())
        for op, params in CONTRACT_PARAMS.items())
    scenarios = {"torus": "system = rotation\ncloud_size = 8\n" + sections,
                 "shift": "system = shift2\n[word_count_entropy]\nn = 4\n"}
    ran = []
    for name, text in scenarios.items():
        out = tmp_path / name
        assert run_scenario(write(tmp_path, f"{name}.scn", text),
                            out=str(out)) == 0
        assert sorted(p.name for p in out.iterdir()) == ["report.json",
                                                         "timings.json"]
        for record in json.loads((out / "report.json").read_text())[
                "analyses"]:
            assert "error" not in record, record
            assert isinstance(record["result"], dict), record["op"]
            ran.append(record["op"])
    assert sorted(ran) == sorted(REGISTRY)


def test_python_dash_m_runs_the_command_line(tmp_path):
    # `python -m ndistal` is the `ndistal` command
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src if not path else src + os.pathsep + path}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "ndistal", *argv],
                              env=env, cwd=tmp_path, capture_output=True,
                              text=True, timeout=120)

    proc = run("--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage: ndistal" in proc.stdout
    proc = run("run", str(tmp_path / "missing.scn"))
    assert proc.returncode == 2
    assert "missing.scn" in proc.stderr
