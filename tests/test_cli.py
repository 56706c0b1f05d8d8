"""Command line behavior: outputs, exit codes, determinism."""

import argparse
import json
import math
import resource

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from xproc import cli, diagnostics, spectral, verify
from xproc.cli import apply_config_file, build_parser, dumps_json, main
from xproc.generator import GeneratorStack
from xproc.graph import make_complete, make_cycle, make_half_complete_cycle, save_graph

from conftest import solve_alone


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spectrum_complete4_level2(capsys):
    code, out, _ = run(
        ["spectrum", "--graph", "complete:4", "--rate", "1", "--level", "2"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# schema=")
    assert lines[1] == "level,index,eigenvalue,multiplicity_group_id"
    eigenvalues = [float(line.split(",")[2]) for line in lines[2:]]
    assert eigenvalues == [0.0, 4.0, 4.0, 4.0, 6.0, 6.0]
    groups = [int(line.split(",")[3]) for line in lines[2:]]
    assert groups == [0, 1, 1, 1, 2, 2]


def test_spectrum_json_all_levels(capsys):
    code, out, _ = run(
        ["spectrum", "--graph", "cycle:4", "--rate", "0.5", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"].startswith("xproc")
    assert doc["config"]["graph"] == "cycle:4"
    levels = {row["level"] for row in doc["spectrum"]}
    assert levels == {0, 1, 2, 3, 4}


def test_exact_dictator_variance(capsys):
    code, out, _ = run(
        ["exact", "--graph", "complete:3", "--rate", "1", "--function",
         "dictator:0", "--t", "0"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["covariance"] == pytest.approx(0.25)
    assert doc["correlation"] == pytest.approx(0.5)


def test_exact_flip(capsys):
    code, out, _ = run(
        ["exact", "--graph", "cycle:5", "--rate", "0.5", "--function",
         "parity_on_set:0,2", "--eps", "0.3"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert 0.0 <= doc["flip_probability"] <= 1.0


def test_profile_summary_json(capsys):
    code, out, _ = run(
        ["profile", "--graph", "complete:4", "--rate", "0.25", "--function",
         "majority"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    masses = sum(e["mass"] for e in doc["mass_by_eigenvalue"])
    assert masses == pytest.approx(doc["variance"] + doc["mean"] ** 2, abs=1e-10)


def test_profile_csv(capsys):
    code, out, _ = run(
        ["profile", "--graph", "complete:3", "--rate", "1", "--function",
         "dictator:0", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "level,eigenvalue,coeff_sq"
    assert len(lines) == 2 + 8


def test_profile_n_grid_sweep(capsys):
    code, out, _ = run(
        ["profile", "--graph", "complete", "--rate-policy", "one-over-max-degree",
         "--function", "dictator:0", "--n-grid", "3:6", "--k", "0.5,4"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["n_grid"] == [3, 4, 5, 6]
    assert doc["k_grid"] == [0.5, 4.0]
    assert len(doc["records"]) == 4
    # dictators keep low-frequency mass bounded away from zero at k=4
    assert all(r["low_frequency_mass"]["4.0"] > 0.05 for r in doc["records"])
    assert doc["checks"][0]["violations"] == 0


def test_profile_n_grid_boundary_k_takes_whole_cluster(capsys):
    # k = 6 is the K_6 eigenvalue holding all of the dictator's non-zero mass
    code, out, _ = run(["profile", "--graph", "complete", "--n-grid", "4:8", "--rate", "1",
                        "--k", "6", "--function", "dictator:0"], capsys)
    assert code == 0
    record = json.loads(out)["records"][2]
    code, out, _ = run(["profile", "--graph", "complete:6", "--rate", "1",
                        "--function", "dictator:0"], capsys)
    pooled = {round(e["eigenvalue"]): e["mass"] for e in json.loads(out)["mass_by_eigenvalue"]}
    assert record["n"] == 6 and pooled[6] > 0.2
    assert record["low_frequency_mass"]["6.0"] == pytest.approx(pooled[6], rel=1e-12)
    assert record["tail_mass"]["6.0"] == pytest.approx(pooled[6], rel=1e-12)


def test_profile_n_grid_validation(capsys):
    code, _, err = run(
        ["profile", "--graph", "complete:4", "--rate", "1", "--function",
         "dictator:0", "--n-grid", "3:5"], capsys
    )
    assert code == 2 and "--graph" in err
    code, _, err = run(
        ["profile", "--graph", "cycle", "--rate", "1", "--function",
         "dictator:0", "--n-grid", "4:6", "--k", "0,1"], capsys
    )
    assert code == 2 and "--k" in err
    code, _, err = run(
        ["profile", "--graph", "half_complete_cycle", "--rate", "1", "--function",
         "majority", "--n-grid", "3:3"], capsys
    )
    assert code == 2 and err.startswith("config error: --n-grid: ")


def test_half_complete_cycle_n_grid_sweeps_the_even_counts(capsys):
    code, out, _ = run(["profile", "--graph", "half_complete_cycle", "--rate", "1",
                        "--function", "majority", "--n-grid", "4:10", "--k", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["n_grid"] == [4, 6, 8, 10]
    assert [r["n"] for r in doc["records"]] == [4, 6, 8, 10]


@pytest.mark.parametrize("family, grid, n", [("complete", "1:3", 1), ("cycle", "2:4", 2),
                                              ("half_complete_cycle", "2:2", 2)])
def test_n_grid_below_the_smallest_graph_names_the_flag(capsys, family, grid, n):
    code, out, err = run(["profile", "--graph", family, "--rate", "1", "--function",
                          "dictator:0", "--n-grid", grid], capsys)
    assert code == 2 and out == ""
    assert err == f"config error: --n-grid: {family} has no graph on n={n} vertices\n"


def test_simulate_deterministic(capsys):
    args = ["simulate", "--graph", "cycle:5", "--rate", "0.5", "--function",
            "majority", "--t", "0.4", "--samples", "400", "--seed", "11"]
    code1, out1, _ = run(args, capsys)
    code2, out2, _ = run(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["covariance"]["samples"] == 400


@pytest.mark.parametrize("subcommand", ["exact", "simulate"])
@pytest.mark.parametrize("flag", ["--t", "--eps"])
@pytest.mark.parametrize("value", ["inf", "nan", "-1"])
def test_bad_horizon_exit_2(capsys, subcommand, flag, value):
    code, out, err = run([subcommand, "--graph", "cycle:5", "--rate", "0.5",
                          "--function", "dictator:0", f"{flag}={value}"], capsys)
    assert code == 2 and out == ""
    assert f"config error: {flag} must be finite and >= 0" in err


def test_graph_file_and_rate_policy(tmp_path, capsys):
    path = tmp_path / "g.json"
    save_graph(make_half_complete_cycle(3, 1.0), str(path))
    code, out, _ = run(
        ["spectrum", "--graph", f"@{path}", "--rate-policy", "one-over-max-degree",
         "--level", "1", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    rates = {e[2] for e in doc["graph"]["edges"]}
    assert rates == {1 / 3}


RATE_UNDER_POLICY = {  # argv giving a rate flag with its one-over-max-degree policy
    "exact": (["exact", "--graph", "cycle:5", "--rate", "7", "--rate-policy",
               "one-over-max-degree", "--function", "majority", "--t", "1"], ""),
    "compare --rate-b": (["compare", "--graph", "complete:5", "--rate", "1", "--graph-b",
                          "cycle:5", "--rate-b", "1", "--rate-policy-b",
                          "one-over-max-degree"], "-b"),
    "--n-grid": (["profile", "--graph", "cycle", "--rate", "1", "--rate-policy",
                  "one-over-max-degree", "--function", "majority", "--n-grid", "3:5"], ""),
    "@file": (["spectrum", "--graph", "@g.json", "--rate", "2", "--rate-policy",
               "one-over-max-degree"], ""),
}


@pytest.mark.parametrize("case", RATE_UNDER_POLICY)
def test_rate_with_one_over_max_degree_exit_2(tmp_path, capsys, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    save_graph(make_cycle(5, 1.0), "g.json")
    argv, b = RATE_UNDER_POLICY[case]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err == f"config error: --rate{b}: not read with --rate-policy{b} one-over-max-degree\n"


def test_function_table_file(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"n": 3, "values": [0, 1, 1, 0, 1, 0, 0, 1]}))
    code, out, _ = run(
        ["exact", "--graph", "complete:3", "--rate", "1", "--function",
         f"@{path}", "--t", "0.5"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mean"] == pytest.approx(0.5)


def test_dump_matrix(tmp_path, capsys):
    out_path = tmp_path / "m.csv"
    code, _, _ = run(
        ["spectrum", "--graph", "complete:2", "--rate", "1", "--level", "1",
         "--dump-matrix", str(out_path), "--out", str(tmp_path / "s.csv")], capsys
    )
    assert code == 0
    rows = out_path.read_text().strip().splitlines()
    assert rows[2].split(",")[:2] == ["1", "-1"]


def test_config_file_expansion(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "subcommand": "exact", "graph": "complete:3", "rate": 1.0,
        "function": "dictator:0", "t": 0.0,
    }))
    code, out, _ = run(["--config", str(cfg)], capsys)
    assert code == 0
    assert json.loads(out)["covariance"] == pytest.approx(0.25)
    # explicit flags win over the config file; at large t the covariance
    # settles at the conditional-mean variance Var(l/3), l ~ Bin(3, 1/2)
    code, out, _ = run(["--config", str(cfg), "--t", "1000.0"], capsys)
    assert code == 0
    assert json.loads(out)["covariance"] == pytest.approx(1 / 12, abs=1e-9)


def test_compare_subgraph(capsys):
    code, out, _ = run(
        ["compare", "--graph", "complete:6", "--rate", "1", "--graph-b", "cycle:6",
         "--rate-b", "1", "--function", "dictator:0", "--k", "4", "--kprime", "8"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["edge_subgraph"] is True
    names = {c["name"] for c in doc["checks"]}
    assert "spectra_dominated_by_supergraph" in names
    assert "monotonicity_inequality" in names
    assert doc["violations"] == 0


def test_compare_containment(capsys):
    code, out, _ = run(
        ["compare", "--graph", "complete:6", "--rate", str(1 / 6), "--graph-b",
         "cycle:6", "--rate-b", "0.5", "--k", "1"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    checks = {c["name"]: c for c in doc["checks"]}
    assert checks["containment_residual"]["max_residual"] <= 1e-8


def test_compare_solves_each_level_once(capsys, solves):
    code, out, _ = run(["compare", "--graph", "complete:10", "--rate", "0.1", "--graph-b",
                        "cycle:10", "--rate-b", "0.1", "--function", "dictator:0", "--k", "1",
                        "--kprime", "2"], capsys)
    assert code == 0
    assert [c["name"] for c in json.loads(out)["checks"]] == [
        "spectra_dominated_by_supergraph", "monotonicity_inequality", "containment_residual"]
    assert set(solves.values()) == {1}
    assert len(solves) == 2 * 11


def test_compare_containment_uses_the_diagnostics_hypothesis(capsys):
    # alpha * k' * (n - k' + 1) = 5/3 falls short of k by 1e-9 relative:
    # inside the slack, so the check runs
    k = 1.6666666683338331
    code, out, _ = run(["compare", "--graph", "complete:6", "--rate", str(1 / 6),
                        "--graph-b", "cycle:6", "--rate-b", "0.5", "--kprime", "2",
                        "--k", repr(k)], capsys)
    assert code == 0
    (check,) = json.loads(out)["checks"]
    assert "skipped" not in check and check["instances"] == 7
    complete, cycle = make_complete(6, 1 / 6), make_cycle(6, 0.5)
    assert diagnostics.containment_hypothesis(complete, k, 2.0)
    assert check["max_residual"] == max(diagnostics.containment_residual(
        complete, cycle, k, 2.0, solve_alone(complete), solve_alone(cycle)))


def test_compare_counts_a_violation_per_violating_instance(capsys, monkeypatch):
    monkeypatch.setattr(diagnostics, "CONTAINMENT_TOL", -1.0)
    monkeypatch.setattr(diagnostics, "DOMINATION_TOL", -1.0)
    code, out, _ = run(["compare", "--graph", "complete:6", "--rate", "1", "--graph-b",
                        "cycle:6", "--rate-b", "1", "--k", "1"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert [(c["name"], c["instances"], c["violations"]) for c in doc["checks"]] == [
        ("spectra_dominated_by_supergraph", 7, 7), ("containment_residual", 7, 7)]
    assert doc["violations"] == 14


def test_config_errors_exit_2(capsys, tmp_path):
    code, _, err = run(["spectrum", "--graph", "petersen:10", "--rate", "1"], capsys)
    assert code == 2 and "--graph" in err
    code, _, err = run(["spectrum", "--graph", "cycle:5"], capsys)
    assert code == 2 and "--rate" in err
    code, _, err = run(
        ["exact", "--graph", "complete:3", "--rate", "1", "--function", "dictator:0"],
        capsys,
    )
    assert code == 2 and "--t" in err
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "edges": [[0, 1]]}')
    code, _, err = run(["spectrum", "--graph", f"@{bad}", "--rate", "1"], capsys)
    assert code == 2


def test_state_cap_env_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("XPROC_STATE_CAP", "10")
    code, _, err = run(["spectrum", "--graph", "complete:8", "--rate", "1",
                        "--level", "4"], capsys)
    assert code == 2
    assert "cap" in err


def test_verify_small(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        ["verify", "--suite", "all", "--nmax", "5", "--seed", "7",
         "--mc-samples", "800", "--out", str(out_path)], capsys
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["violations"] == 0
    names = {c["name"] for c in doc["checks"]}
    assert {"generator_invariants", "eigensolver_residuals",
            "complete_graph_multiplicities", "lift_length_formulas",
            "lift_orthogonality", "eigenvalue_upper_bound", "parseval",
            "oracle_equivalence", "containment_residual",
            "projection_mass_inequality", "monotonicity_inequality",
            "monte_carlo_agreement"} <= names


@pytest.mark.parametrize("flag", ["--rate", "--rate-b"])
@pytest.mark.parametrize("value", ["inf", "nan", "-1"])
def test_bad_rate_flag_exit_2(capsys, flag, value):
    code, out, err = run(["compare", "--graph", "complete:5", "--rate", "1",
                          "--graph-b", "cycle:5", "--rate-b", "1",
                          f"{flag}={value}"], capsys)
    assert code == 2 and out == ""
    assert f"config error: {flag} must be finite and > 0" in err


@pytest.mark.parametrize("flag", ["--rate", "--rate-b"])
def test_non_numeric_rate_flag_exit_2(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--graph", "complete:5", "--rate", "1",
              "--graph-b", "cycle:5", "--rate-b", "1", f"{flag}=abc"])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid float value" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["1e999", "NaN", '"abc"', '"1.5"'])
def test_bad_rate_in_graph_file_exit_2(tmp_path, capsys, literal):
    path = tmp_path / "g.json"
    path.write_text('{"n": 3, "edges": [[0, 1, 1.0], [1, 2, ' + literal + ']]}')
    code, out, err = run(["exact", "--graph", f"@{path}", "--function",
                          "dictator:0", "--t", "1"], capsys)
    assert code == 2 and out == ""
    assert "edges[1]" in err and "edge 1:" in err


@pytest.mark.parametrize("flag,value", [("--nmax", "2"), ("--nmax", "3"),
                                        ("--mc-samples", "0"), ("--mc-samples", "-5"),
                                        ("--mc-samples", "1"), ("--mc-samples", "99")])
def test_verify_bad_sizes_exit_2(capsys, flag, value):
    code, out, err = run(["verify", flag, value], capsys)
    assert code == 2 and out == ""
    assert f"config error: {flag} must be >= " in err


THRESHOLD_COMMANDS = {
    "compare --k": lambda v: ["compare", "--graph", "complete:5", "--rate", "1", "--graph-b",
                              "cycle:5", "--rate-b", "1", "--function", "dictator:0",
                              f"--k={v}", "--kprime", "2"],
    "compare --kprime": lambda v: ["compare", "--graph", "complete:5", "--rate", "1",
                                   "--graph-b", "cycle:5", "--rate-b", "1", "--k", "1",
                                   f"--kprime={v}"],
    "profile --n-grid --k": lambda v: ["profile", "--graph", "cycle", "--rate", "1",
                                       "--function", "dictator:0", "--n-grid", "3:4",
                                       f"--k=1,{v}"],
}


@pytest.mark.parametrize("command", THRESHOLD_COMMANDS)
@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_bad_threshold_exit_2(capsys, command, value):
    code, out, err = run(THRESHOLD_COMMANDS[command](value), capsys)
    assert code == 2 and out == ""
    flag = command.split()[-1]
    assert f"config error: {flag} must be finite and > 0, got {float(value)}" in err


def test_dumps_json_17_digits():
    text = dumps_json({"x": 0.1, "flag": True, "n": 3, "s": "a", "v": [1.5], "none": None})
    assert "0.10000000000000001" in text
    assert '"flag": true' in text
    assert json.loads(text) == {"x": 0.1, "flag": True, "n": 3, "s": "a",
                                "v": [1.5], "none": None}


@pytest.mark.parametrize("raw", ["-5", "abc"])
def test_bad_state_cap_env_exit_2(capsys, monkeypatch, raw):
    monkeypatch.setenv("XPROC_STATE_CAP", raw)
    code, out, err = run(["spectrum", "--graph", "complete:4", "--rate", "1",
                          "--level", "2"], capsys)
    assert code == 2 and out == ""
    assert "XPROC_STATE_CAP" in err


@pytest.mark.parametrize("entry", ["[0, 2.5, 1.0]", "[false, 2, 1.0]", "[1, 2, true]"])
def test_non_integral_or_boolean_edge_in_graph_file_exit_2(tmp_path, capsys, entry):
    path = tmp_path / "g.json"
    path.write_text('{"n": 3, "edges": [[0, 1, 1.0], ' + entry + ']}')
    code, out, err = run(["exact", "--graph", f"@{path}", "--function",
                          "dictator:0", "--t", "1"], capsys)
    assert code == 2 and out == ""
    assert "edges[1]" in err and "edge 1:" in err


def test_compare_kprime_without_k_exit_2(capsys):
    code, out, err = run(["compare", "--graph", "complete:5", "--rate", "1", "--graph-b",
                          "cycle:5", "--rate-b", "1", "--function", "dictator:0",
                          "--kprime", "2"], capsys)
    assert code == 2 and out == ""
    assert "config error: --k is required with --kprime" in err


def test_eigensolver_failure_exit_3(capsys, monkeypatch):
    real = np.linalg.eigh

    def fail(matrix):  # on the 4-state level 1 alone, whatever order levels are solved in
        if matrix.shape[-1] == 4:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(matrix)

    monkeypatch.setattr(np.linalg, "eigh", fail)
    code, out, err = run(["spectrum", "--graph", "cycle:4", "--rate", "1"], capsys)
    assert code == 3 and out == ""
    assert err.startswith("numerical error: eigendecompose on n=4, level=1 (4 states): "
                          "eigensolver failed to converge")


OVERFLOW = "edge rates sum to inf; the total rate must be finite"


@pytest.mark.parametrize("argv", [["spectrum"], ["exact", "--function", "majority", "--t", "1"],
                                  ["profile", "--function", "majority"]])
def test_an_overflowing_rate_is_a_numerical_error(capsys, argv):
    # five edges at 1e308 sum to inf, which would overflow the generator's
    # diagonal: the graph is refused, naming the flag, before numpy sees it
    code, out, err = run([*argv, "--graph", "cycle:5", "--rate", "1e308"], capsys)
    assert code == 2 and out == ""
    assert err == f"config error: --rate: {OVERFLOW}\n"


@pytest.mark.parametrize("argv,named", [
    (["simulate", "--graph", "cycle:5", "--rate", "1e308", "--function", "majority",
      "--t", "0"], "--rate"),
    (["compare", "--graph", "cycle:5", "--rate", "1", "--graph-b", "cycle:5",
      "--rate-b", "1e308"], "--rate-b"),
    (["profile", "--graph", "complete", "--rate", "1e308", "--function", "majority",
      "--n-grid", "3:5"], "--rate"),
    (["spectrum", "--graph", "@big.json"], "big.json"),
    (["spectrum", "--graph", "@big.json", "--rate", "1"], "big.json"),
])
def test_an_overflowing_total_rate_names_its_source(tmp_path, monkeypatch, capsys, argv, named):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.json").write_text('{"n": 3, "edges": [[0, 1, 1e308], [1, 2, 1e308]]}')
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err == f"config error: {named}: {OVERFLOW}\n"


@pytest.mark.parametrize("argv", [["spectrum"],
                                  ["exact", "--function", "dictator:0", "--t", "1"]])
def test_an_overflowing_eigenvalue_is_a_numerical_error(capsys, argv):
    # K_2's one edge at 1.5e308 is a finite total rate, but the level-1
    # eigenvalue 2 * rate is past the float range
    code, out, err = run([*argv, "--graph", "complete:2", "--rate", "1.5e308"], capsys)
    assert code == 3 and out == ""
    assert err == ("numerical error: eigendecompose on n=2, level=1 (2 states): "
                   "eigenvalues are not finite: eigenvalue 1 is inf\n")


@pytest.mark.parametrize("flags,flag,jumps", [
    (["--rate", "1", "--t", "1e300"], "--t", "5e+300"),
    (["--rate", "1e300", "--t", "1e10"], "--t", "inf"),
    (["--rate", "1", "--t", "1", "--eps", "1e300"], "--eps", "5e+300"),
])
def test_a_horizon_too_long_to_sample_names_its_flag(capsys, flags, flag, jumps):
    code, out, err = run(["simulate", "--graph", "cycle:5", "--function", "majority",
                          "--samples", "10", *flags], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"config error: {flag}: a path to time ")
    assert f" expects {jumps} jumps " in err
    assert err.endswith("the Poisson sampler takes at most 9.223e+18\n")


def test_dump_matrix_all_levels_keeps_spectrum(tmp_path, capsys):
    argv = ["spectrum", "--graph", "cycle:4", "--rate", "1", "--format", "json"]
    code, plain, _ = run(argv, capsys)
    assert code == 0
    code, dumped, _ = run(argv + ["--dump-matrix", str(tmp_path / "m.csv")], capsys)
    assert code == 0
    assert json.loads(dumped)["spectrum"] == json.loads(plain)["spectrum"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"m.level{l}.csv" for l in range(5)]


def test_config_file_explicit_equals_form_wins(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"graph": "complete:6", "rate": 1, "graph_b": "cycle:6",
                               "rate_b": 1, "k": "9"}))
    for k in (["--k=1"], ["--k", "1"]):
        code, out, _ = run(["compare", "--config", str(cfg), *k], capsys)
        assert code == 0
        assert json.loads(out)["config"]["k"] == 1.0


def test_config_file_null_leaves_flag_unset(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"graph": "cycle:4", "rate": 1, "dump_matrix": None,
                               "level": None}))
    code, out, _ = run(["spectrum", "--config", str(cfg)], capsys)
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]
    code, plain, _ = run(["spectrum", "--graph", "cycle:4", "--rate", "1"], capsys)
    assert out == plain


def test_config_file_equals_form(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"subcommand": "exact", "graph": "cycle:5", "rate": 0.5,
                               "function": "majority", "t": 0.75}))
    code, spaced, _ = run(["--config", str(cfg)], capsys)
    assert code == 0
    code, out, _ = run([f"--config={cfg}"], capsys)
    assert code == 0 and out == spaced
    code, out, _ = run(["exact", f"--config={cfg}", "--t=0.75"], capsys)
    assert code == 0 and out == spaced


@pytest.mark.parametrize("second", [["--config", "other.json"], ["--config=other.json"]])
def test_config_file_given_twice_exit_2(tmp_path, capsys, second):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"subcommand": "exact"}))
    code, out, err = run(["--config", str(cfg), *second], capsys)
    assert code == 2 and out == ""
    assert err == "config error: --config may be given only once\n"


EXACT_FLAGS = {
    "graph": st.sampled_from(["complete:4", "cycle:5", "half_complete_cycle:3", "@g.json"]),
    "rate": st.floats(min_value=1e-3, max_value=1e3),
    "rate_policy": st.sampled_from(["uniform", "one-over-max-degree"]),
    "function": st.sampled_from(["dictator:0", "majority", "parity_on_set:0,2", "@f.json"]),
    "t": st.floats(min_value=0.0, max_value=10.0),
    "eps": st.floats(min_value=0.0, max_value=10.0),
    "out": st.sampled_from(["r.json", "out dir/r.json"]),
}


@st.composite
def split_exact_flags(draw):
    """An exact flag set, each flag in the file, on argv, or in both with its own value."""
    final, in_file, on_argv = {}, {}, []
    for key, values in EXACT_FLAGS.items():
        place = draw(st.sampled_from(["unset", "file", "argv", "both"]))
        if place == "unset":
            continue
        final[key] = draw(values)
        if place == "file":
            in_file[key] = final[key]
            continue
        if place == "both":
            in_file[key] = draw(values)
        flag = "--" + key.replace("_", "-")
        on_argv.append([f"{flag}={final[key]}"] if draw(st.booleans())
                       else [flag, str(final[key])])
    on_argv = [word for pair in draw(st.permutations(on_argv)) for word in pair]
    return final, in_file, on_argv, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(split_exact_flags())
def test_config_file_split_parses_as_explicit_flags(tmp_path_factory, split):
    final, in_file, on_argv, subcommand_in_file = split
    cfg = tmp_path_factory.mktemp("config") / "c.json"
    if subcommand_in_file:
        cfg.write_text(json.dumps({"subcommand": "exact", **in_file}))
        argv = ["--config", str(cfg), *on_argv]
    else:
        cfg.write_text(json.dumps(in_file))
        argv = ["exact", "--config", str(cfg), *on_argv]
    explicit = ["exact"]
    for key, value in final.items():
        explicit.append(f"--{key.replace('_', '-')}={value}")
    parser = build_parser()
    assert parser.parse_args(apply_config_file(argv)) == parser.parse_args(explicit)
    assert cli.parse_args(apply_config_file(argv)) == parser.parse_args(explicit)


def test_simulate_zero_samples_exit_2(capsys):
    code, out, err = run(["simulate", "--graph", "cycle:5", "--rate", "1", "--function",
                          "dictator:0", "--t", "1", "--samples", "0"], capsys)
    assert code == 2 and out == ""
    assert err == "config error: --samples must be >= 1, got 0\n"


def test_simulate_accepts_negative_seed(capsys):
    code, out, _ = run(["simulate", "--graph", "cycle:5", "--rate", "1", "--function",
                        "dictator:0", "--t", "1", "--samples", "50", "--seed", "-3"], capsys)
    assert code == 0 and json.loads(out)["config"]["seed"] == -3


SIMULATE = ["simulate", "--graph", "cycle:5", "--rate", "1", "--function", "dictator:0",
            "--t", "1", "--samples", "50"]


@pytest.mark.parametrize("seed,rule", [(-2**63 - 1, ">= -9223372036854775808"),
                                       (2**63, "<= 9223372036854775807"),
                                       (2**64 - 1, "<= 9223372036854775807")])
def test_simulate_seed_outside_64_bits_exit_2(capsys, seed, rule):
    code, out, err = run(SIMULATE + [f"--seed={seed}"], capsys)
    assert code == 2 and out == ""
    assert err == f"config error: --seed must be {rule}, got {seed}\n"


def test_simulate_seeds_at_the_bounds_run(capsys):
    reports = set()
    for seed in (-2**63, 2**63 - 1):
        code, out, _ = run(SIMULATE + [f"--seed={seed}"], capsys)
        assert code == 0 and json.loads(out)["config"]["seed"] == seed
        reports.add(out.replace(str(seed), "SEED"))
    assert len(reports) == 2


def test_verify_seed_bounds(capsys):
    # check_monte_carlo seeds its instances seed .. seed + 2, all within 64 bits
    code, out, err = run(["verify", "--nmax", "4", f"--seed={2**63 - 2}"], capsys)
    assert code == 2 and out == ""
    assert err == f"config error: --seed must be <= {2**63 - 3}, got {2**63 - 2}\n"
    code, out, _ = run(["verify", "--nmax", "4", f"--seed={2**63 - 3}"], capsys)
    assert code == 0 and json.loads(out)["config"]["seed"] == 2**63 - 3


def test_verify_seed_too_large_for_a_float_exit_2(capsys):
    code, out, err = run(["verify", f"--seed={10**400}"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("config error: --seed must be <= ")


def test_verify_negative_seed_exit_2(capsys):
    code, out, err = run(["verify", "--seed", "-1"], capsys)
    assert code == 2 and out == ""
    assert err == "config error: --seed must be >= 0, got -1\n"


class Named(str):
    """A --function spec passed as given, not written to a table file."""


@pytest.mark.parametrize("text,message", [
    (json.dumps({"n": 3, "values": [0, 2, 1, 0, 1, 0, 0, 1]}),
     "Boolean mode requires all values in {0, 1}"),
    (json.dumps({"n": 3, "values": [0, 1, 1]}), "table has length (3,), expected (8,)"),
    ("not json", "Expecting value: line 1 column 1 (char 0)"),
    (json.dumps({"n": 3, "values": {"0": 1}}),
     "float() argument must be a string or a real number, not 'dict'"),
    (Named("parity:0,1"),
     "unknown function family 'parity'; expected dictator, parity_on_set, or majority"),
    (Named("majority:3"), "majority takes no argument, got 'majority:3'"),
    *((Named(spec), "parity_on_set takes a list of distinct vertices, as "
                    f"parity_on_set:0,2, got {spec!r}")
      for spec in ("parity_on_set", "parity_on_set:", "parity_on_set:1,,2",
                   "parity_on_set:1,", "parity_on_set:1,1", "parity_on_set:2,0,02")),
])
def test_bad_function_table_names_the_flag(tmp_path, capsys, text, message):
    spec = text
    if not isinstance(text, Named):
        path = tmp_path / "f.json"
        path.write_text(text)
        spec = f"@{path}"
    code, out, err = run(["exact", "--graph", "complete:3", "--rate", "1", "--function",
                          spec, "--t", "1"], capsys)
    assert code == 2 and out == ""
    assert err == f"config error: --function: {message}\n"


@pytest.fixture
def address_space_limit():
    """Cap this process's address space at 1 TiB, so an 8 TiB table is refused at once."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = 2**40 if hard == resource.RLIM_INFINITY else min(2**40, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    yield
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


# 2^40 table entries: far over the state cap, and refused by numpy at once
TOO_LARGE = ["--graph", "cycle:40", "--rate", "1", "--function", "dictator:0"]
CAP_AT_40 = "level slice C(40,4) has 91390 states, exceeding the cap 20000"


def test_too_large_graph_exact_exit_2(capsys, address_space_limit):
    code, out, err = run(["exact", *TOO_LARGE, "--t", "1"], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"config error: {CAP_AT_40}")


def test_too_large_graph_sweep_records_truncation(capsys, address_space_limit):
    code, out, _ = run(["profile", "--graph", "cycle", "--rate", "1", "--function",
                        "majority", "--n-grid", "40:40"], capsys)
    assert code == 0
    (record,) = json.loads(out)["records"]
    assert record["truncated"] and record["reason"].startswith(CAP_AT_40)


def test_too_large_graph_simulate_names_graph(capsys, address_space_limit):
    code, out, err = run(["simulate", *TOO_LARGE, "--t", "1"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("config error: --graph: n=40 is too large for a function table")
    # past 2^59 entries numpy cannot address the table at all; at 2^63 and up
    # 1 << n overflows int64
    for graph in ("cycle:60", "cycle:63", "complete:64"):
        n = graph.split(":")[1]
        code, out, err = run(["simulate", "--graph", graph, "--rate", "1", "--function",
                              "dictator:0", "--t", "1"], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"config error: --graph: n={n} is too large for a function table")


def test_too_many_samples_names_samples(capsys, address_space_limit):
    # two arrays of 10^12 doubles: 7.3 TiB each, refused at once under the 1 TiB cap
    code, out, err = run(["simulate", "--graph", "complete:3", "--rate", "1", "--function",
                          "majority", "--t", "1", "--samples", "1000000000000"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("config error: --samples: 1000000000000 samples are too many "
                          "to allocate")


def test_too_many_mc_samples_names_mc_samples(capsys, monkeypatch, address_space_limit):
    # arrays of 10^12 doubles, 7.3 TiB each: refused under the 1 TiB cap before any check
    monkeypatch.setattr(verify, "run_suite", None)
    code, out, err = run(["verify", "--nmax", "4", "--mc-samples", "1000000000000"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("config error: --mc-samples: 1000000000000 samples are too many "
                          "to allocate") and err.count("\n") == 1


def test_config_file_missing_names_flag_and_path(tmp_path, capsys):
    path = tmp_path / "nothere.json"
    code, out, err = run(["--config", str(path)], capsys)
    assert code == 2 and out == ""
    assert err == f"config error: --config: cannot read {path}: No such file or directory\n"


def test_config_file_not_json_names_flag_and_path(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    code, out, err = run([f"--config={path}"], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"config error: --config: {path} is not a JSON file: Expecting value")


UNREAD_FUNCTION = {  # compare flags under which no check reads --function
    "rates differ, --k only": ["--graph", "complete:6", "--rate-policy", "one-over-max-degree",
                               "--graph-b", "cycle:6", "--rate-policy-b",
                               "one-over-max-degree", "--k", "1"],
    "subgraph, --k only": ["--graph", "complete:6", "--rate", "1", "--graph-b", "cycle:6",
                           "--rate-b", "1", "--k", "4"],
    "subgraph, no threshold": ["--graph", "complete:6", "--rate", "1", "--graph-b",
                               "cycle:6", "--rate-b", "1"],
    "not a subgraph": ["--graph", "cycle:6", "--rate", "1", "--graph-b", "complete:6",
                       "--rate-b", "1", "--k", "4", "--kprime", "8"],
}


@pytest.mark.parametrize("case", UNREAD_FUNCTION)
def test_compare_function_no_check_reads_exit_2(capsys, case):
    code, out, err = run(["compare", *UNREAD_FUNCTION[case], "--function", "dictator:0"],
                         capsys)
    assert code == 2 and out == ""
    assert err.startswith("config error: --function: no check reads it")
    code, out, err = run(["compare", *UNREAD_FUNCTION[case]], capsys)
    if case == "not a subgraph":  # nor --k: containment needs a complete --graph
        assert code == 2 and out == ""
        assert err.startswith("config error: --k: no check reads it")
    else:
        assert code == 0


UNREAD_K = {  # --graph is not complete and no --function is given
    "subgraph": ["--graph", "cycle:6", "--rate", "1", "--graph-b", "cycle:6",
                 "--rate-b", "1", "--k", "1", "--kprime", "3"],
    "--k only": ["--graph", "half_complete_cycle:3", "--rate", "1", "--graph-b", "cycle:6",
                 "--rate-b", "1", "--k", "1"],
}


@pytest.mark.parametrize("case", UNREAD_K)
def test_compare_k_no_check_reads_exit_2(capsys, case):
    code, out, err = run(["compare", *UNREAD_K[case]], capsys)
    assert code == 2 and out == ""
    assert err == ("config error: --k: no check reads it; containment needs --graph to be "
                   "complete, and the monotonicity check needs --function\n")


def test_compare_k_is_read_by_monotonicity_on_a_supergraph_not_complete(capsys):
    code, out, _ = run(["compare", "--graph", "half_complete_cycle:3", "--rate", "1",
                        "--graph-b", "cycle:6", "--rate-b", "1", "--function", "dictator:0",
                        "--k", "1", "--kprime", "2"], capsys)
    assert code == 0
    assert [c["name"] for c in json.loads(out)["checks"]] == [
        "spectra_dominated_by_supergraph", "monotonicity_inequality"]


def test_profile_k_without_n_grid_exit_2(capsys):
    code, out, err = run(["profile", "--graph", "cycle:5", "--rate", "1", "--function",
                          "majority", "--k", "1"], capsys)
    assert code == 2 and out == ""
    assert err == "config error: --k is read only with --n-grid\n"


def test_profile_sweep_refuses_csv(capsys):
    argv = ["profile", "--graph", "cycle", "--rate", "1", "--function", "majority",
            "--n-grid", "3:4"]
    code, out, err = run([*argv, "--format", "csv"], capsys)
    assert code == 2 and out == ""
    assert err == "config error: --format: an --n-grid sweep is written as json only\n"
    code, default, _ = run(argv, capsys)
    assert code == 0
    code, out, _ = run([*argv, "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["config"]["format"] == "json"
    assert json.loads(out)["records"] == json.loads(default)["records"]


SOLVING_COMMANDS = {
    "spectrum": ["spectrum", "--graph", "cycle:5", "--rate", "1"],
    "spectrum --level --dump-matrix": ["spectrum", "--graph", "cycle:5", "--rate", "1",
                                       "--level", "2", "--dump-matrix", "m.csv"],
    "spectrum --level all --dump-matrix": ["spectrum", "--graph", "cycle:5", "--rate", "1",
                                           "--level", "all", "--dump-matrix", "m.csv"],
    "profile": ["profile", "--graph", "complete:5", "--rate", "1", "--function", "majority"],
    "exact": ["exact", "--graph", "cycle:5", "--rate", "1", "--function", "majority",
              "--t", "0.5"],
    "compare": ["compare", "--graph", "complete:6", "--rate", "1", "--graph-b", "cycle:6",
                "--rate-b", "1", "--function", "dictator:0", "--k", "4", "--kprime", "8"],
    # cycle:6 at rate 0.5 is no edge subgraph: the containment check alone solves
    "compare --k": ["compare", "--graph", "complete:6", "--rate", "1", "--graph-b", "cycle:6",
                    "--rate-b", "0.5", "--k", "1"],
    "profile --n-grid": ["profile", "--graph", "cycle", "--rate", "1", "--function",
                         "majority", "--n-grid", "3:5"],
    "verify": ["verify", "--nmax", "6"],
}


@pytest.mark.parametrize("command", SOLVING_COMMANDS)
def test_every_solve_lands_in_eigendecompose_stack(tmp_path, capsys, monkeypatch, command):
    """Each solved level is a pair handed to solve_stacks and one member of an
    eigendecompose_stack call, whose argument is the GeneratorStack of one build."""
    monkeypatch.chdir(tmp_path)
    calls = {"solve_stacks": 0, "eigendecompose_stack": 0}
    solved = []
    for name in calls:
        inner = getattr(spectral, name)

        def counting(members, *read, name=name, inner=inner):
            calls[name] += len(members)
            if name == "eigendecompose_stack":
                solved.append(type(members))
            return inner(members, *read)

        monkeypatch.setattr(spectral, name, counting)
    assert run(SOLVING_COMMANDS[command], capsys)[0] == 0
    assert calls["eigendecompose_stack"] == calls["solve_stacks"] > 0
    assert set(solved) == {GeneratorStack}


@pytest.mark.parametrize("flag", ["--out", "--dump-matrix"])
@pytest.mark.parametrize("where", ["missing directory", "existing directory"])
def test_unwritable_output_path_exit_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                       flag, where):
    path = tmp_path / "nodir" / "r.csv" if where == "missing directory" else tmp_path

    def no_work(*args):
        raise AssertionError("work started before the output path was checked")

    monkeypatch.setattr(spectral, "solve_stacks", no_work)
    code, out, err = run(["spectrum", "--graph", "cycle:5", "--rate", "1", flag, str(path)],
                         capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"config error: {flag}: ") and str(path) in err
    assert list(tmp_path.iterdir()) == []


def test_failed_write_names_out(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "check_writable", lambda flag, path: None)
    path = tmp_path / "nodir" / "r.json"
    code, out, err = run(["exact", "--graph", "cycle:5", "--rate", "1", "--function",
                          "majority", "--t", "1", "--out", str(path)], capsys)
    assert code == 2 and out == ""
    assert err == f"config error: --out: cannot write {path}: No such file or directory\n"


def test_verify_over_the_cap_exits_2_before_any_solve(capsys, monkeypatch):
    monkeypatch.setenv("XPROC_STATE_CAP", "100")

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the cap was checked")

    monkeypatch.setattr(spectral, "eigendecompose_stack", no_work)
    monkeypatch.setattr(verify, "run_suite", no_work)
    code, out, err = run(["verify", "--nmax", "10"], capsys)
    assert code == 2 and out == ""
    assert err == ("config error: --nmax: level slice C(10,5) has 252 states, exceeding the "
                   "cap 100 (set XPROC_STATE_CAP to raise it)\n")


@pytest.mark.parametrize("level", ["all", "3"])
def test_spectrum_over_the_cap_exits_2_before_any_solve(capsys, monkeypatch, level):
    monkeypatch.setenv("XPROC_STATE_CAP", "30")

    def no_solve(*args):
        raise AssertionError("a level was solved before the cap was checked")

    monkeypatch.setattr(spectral, "eigendecompose_stack", no_solve)
    code, out, err = run(["spectrum", "--graph", "cycle:8", "--rate", "1", "--level", level],
                         capsys)
    assert code == 2 and out == ""
    assert err == ("config error: level slice C(8,3) has 56 states, exceeding the cap 30 "
                   "(set XPROC_STATE_CAP to raise it)\n")


def test_compare_over_the_cap_exits_2_before_any_solve(capsys, monkeypatch):
    monkeypatch.setenv("XPROC_STATE_CAP", "800")

    def no_solve(*args):
        raise AssertionError("a level was solved before the cap was checked")

    monkeypatch.setattr(spectral, "eigendecompose_stack", no_solve)
    code, out, err = run(["compare", "--graph", "complete:12", "--rate", "1",
                          "--graph-b", "cycle:12", "--rate-b", "1"], capsys)
    assert code == 2 and out == ""
    assert err == ("config error: level slice C(12,6) has 924 states, exceeding the cap 800 "
                   "(set XPROC_STATE_CAP to raise it)\n")


def test_spectrum_of_one_level_under_the_cap_runs_above_it(capsys, monkeypatch):
    monkeypatch.setenv("XPROC_STATE_CAP", "30")
    code, out, _ = run(["spectrum", "--graph", "cycle:8", "--rate", "1", "--level", "1"],
                       capsys)
    # a comment line, the header and the 8 eigenvalues of level 1
    assert code == 0 and len(out.splitlines()) == 2 + 8


# Every numeric flag with its check_numbers rule (op, bound, int or float) and
# an argv that reads it: a value outside the rule goes where {} stands.
NUMERIC_FLAGS = [
    ("--t", ">=", 0, float, ["exact", "--graph", "cycle:5", "--rate", "1",
                             "--function", "dictator:0", "--t={}"]),
    ("--eps", ">=", 0, float, ["exact", "--graph", "cycle:5", "--rate", "1",
                               "--function", "dictator:0", "--eps={}"]),
    ("--t", ">=", 0, float, ["simulate", "--graph", "cycle:5", "--rate", "1",
                             "--function", "dictator:0", "--samples", "10", "--t={}"]),
    ("--eps", ">=", 0, float, ["simulate", "--graph", "cycle:5", "--rate", "1",
                               "--function", "dictator:0", "--samples", "10", "--eps={}"]),
    ("--samples", ">=", 1, int, ["simulate", "--graph", "cycle:5", "--rate", "1",
                                 "--function", "dictator:0", "--t", "1", "--samples={}"]),
    ("--rate", ">", 0, float, ["spectrum", "--graph", "cycle:5", "--rate={}"]),
    ("--rate-b", ">", 0, float, ["compare", "--graph", "complete:5", "--rate", "1",
                                 "--graph-b", "cycle:5", "--rate-b={}"]),
    ("--k", ">", 0, float, ["compare", "--graph", "complete:5", "--rate", "1",
                            "--graph-b", "cycle:5", "--rate-b", "1", "--k={}"]),
    ("--kprime", ">", 0, float, ["compare", "--graph", "complete:5", "--rate", "1",
                                 "--graph-b", "cycle:5", "--rate-b", "1", "--k", "1",
                                 "--kprime={}"]),
    ("--k", ">", 0, float, ["profile", "--graph", "cycle", "--rate", "1", "--function",
                            "dictator:0", "--n-grid", "3:4", "--k=1,{}"]),
    ("--rate", ">", 0, float, ["profile", "--graph", "cycle", "--function", "dictator:0",
                               "--n-grid", "3:4", "--rate={}"]),
    ("--nmax", ">=", 4, int, ["verify", "--nmax={}"]),
    ("--mc-samples", ">=", 100, int, ["verify", "--mc-samples={}"]),
    ("--seed", ">=", 0, int, ["verify", "--seed={}"]),
    ("--seed", "<=", 2**63 - 3, int, ["verify", "--seed={}"]),
    ("--seed", ">=", -2**63, int, ["simulate", "--graph", "cycle:5", "--rate", "1",
                                   "--function", "dictator:0", "--t", "1", "--seed={}"]),
    ("--seed", "<=", 2**63 - 1, int, ["simulate", "--graph", "cycle:5", "--rate", "1",
                                      "--function", "dictator:0", "--t", "1", "--seed={}"]),
]


@st.composite
def numeric_flag_outside_its_rule(draw):
    flag, op, bound, kind, argv = draw(st.sampled_from(NUMERIC_FLAGS))
    if op == "<=":
        value = draw(st.integers(min_value=bound + 1))
    elif kind is int:
        value = draw(st.integers(max_value=bound - (op == ">=")))
    else:
        # NaN, +-inf, or a finite value at or below the bound
        value = draw(st.sampled_from([math.nan, math.inf, -math.inf])
                     | st.floats(max_value=bound, allow_nan=False, allow_infinity=False)
                     .filter(lambda x: not (x > bound if op == ">" else x >= bound)))
    return flag, [word.replace("{}", repr(value)) for word in argv]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(numeric_flag_outside_its_rule())
def test_a_numeric_flag_outside_its_rule_exits_2_naming_it(capsys, case):
    flag, argv = case
    capsys.readouterr()
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert f"config error: {flag} must be " in err


# ---------------------------------------------------------------------------
# cli.parse_args builds one subcommand's parser; build_parser() is the reference
# ---------------------------------------------------------------------------

# Per subcommand: flags that parse (with '=' forms and abbreviations), a flag that
# takes a number, and a flag with choices (verify has none).
PARSE_CASES = {
    "spectrum": (["--graph=cycle:5", "--rate", "0.5", "--level", "2", "--form=json",
                  "--dump-matrix", "m.csv"], "--rate", "--format"),
    "profile": (["--graph", "cycle", "--n-grid=3:6", "--k", "0.5,1",
                 "--rate-policy=one-over-max-degree", "--func", "majority"],
                "--rate", "--rate-policy"),
    "exact": (["--graph", "complete:4", "--function=majority", "--t", "1e-3", "--eps=0.5"],
              "--t", "--rate-policy"),
    "simulate": (["--graph", "cycle:5", "--sam", "50", "--seed", "-3", "--level=2",
                  "--t=2"], "--eps", "--rate-policy"),
    "verify": (["--nmax=6", "--mc", "500", "--seed", "3", "--suite", "all"], "--nmax", None),
    "compare": (["--graph", "complete:6", "--graph-b=cycle:6", "--k", "4", "--kp", "8",
                 "--rate-policy-b", "uniform"], "--k", "--rate-policy-b"),
}


def exit_text(parse, argv, capsys):
    """Exit code, stdout and stderr of a parse that exits (help, --version, an error)."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def test_parse_cases_cover_every_subcommand():
    assert list(PARSE_CASES) == list(cli.SUBCOMMANDS)


@pytest.mark.parametrize("name", PARSE_CASES)
def test_parse_args_gives_the_full_trees_namespace(tmp_path, name):
    flags = PARSE_CASES[name][0]
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"subcommand": name, "out": "from-config.json"}))
    for argv in ([name], [name, *flags], [name, *flags, "--out=r.json"],
                 apply_config_file(["--config", str(cfg), *flags]),
                 apply_config_file([name, f"--config={cfg}", *flags, "--out", "r.json"])):
        args = cli.parse_args(argv)
        assert args == build_parser().parse_args(argv), argv
        assert args.subcommand == name and args.func is cli.SUBCOMMANDS[name][2]


@pytest.mark.parametrize("name", PARSE_CASES)
def test_main_words_help_and_errors_as_the_full_tree(capsys, name):
    flags, number, choice = PARSE_CASES[name]
    argvs = [[name, "-h"], [name, *flags, "--help"], [name, *flags, "--bogus", "1"],
             [name, number, "abc"], [name, *flags, number], [name, "--version"],
             [name, *flags, "--version"], [name, *flags, "--", "--out", "r.json"],
             [name, *flags, "extra"], [name, "--=x"]]
    if choice:
        argvs.append([name, *flags, choice, "bogus"])
    for argv in argvs:
        assert exit_text(main, argv, capsys) == exit_text(build_parser().parse_args, argv,
                                                          capsys), argv


@pytest.mark.parametrize("argv", [[], ["bogus"], ["bogus", "--help"], ["--help"], ["-h"],
                                  ["--version"], ["--version", "simulate"],
                                  ["--", "simulate"], ["--graph", "cycle:5"]])
def test_main_without_a_leading_subcommand_is_the_full_tree(capsys, argv):
    assert exit_text(main, argv, capsys) == exit_text(build_parser().parse_args, argv, capsys)


def test_a_subcommand_op_builds_one_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["simulate", "--graph", "cycle:5", "--rate", "1", "--function", "dictator:0",
                 "--t", "1", "--samples", "50"]) == 0
    assert built == ["xproc simulate"]
    # A word the subcommand leaves over goes to the full tree, which words the error.
    built.clear()
    code, out, err = exit_text(main, ["simulate", "--graph", "cycle:5", "--bogus"], capsys)
    assert built == ["xproc simulate", "xproc", *(f"xproc {name}" for name in cli.SUBCOMMANDS)]
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == "xproc: error: unrecognized arguments: --bogus"
