"""Tests of the benchmark itself: seeded inputs, failure accounting, spans.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

CHEAP_EXACT = ["exact", "--graph", "cycle:6", "--rate", "1", "--function",
               "parity_on_set:0,2", "--t", "0.5", "--eps", "0.1"]


def materialize(workload: Workload, directory: Path, ops: int) -> dict[str, bytes]:
    """Write a workload's files and first ops to a directory; return the bytes."""
    directory.mkdir()
    for name, text in workload.files.items():
        (directory / name).write_text(text)
    (directory / "ops.json").write_text(json.dumps([workload.op(i) for i in range(ops)]))
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    first = materialize(Workload(name, 7), tmp_path / "a", 48)
    second = materialize(Workload(name, 7), tmp_path / "b", 48)
    other = materialize(Workload(name, 8), tmp_path / "c", 48)
    assert first == second
    assert first != other


def test_corrupted_output_is_counted_as_failed(monkeypatch):
    real_run_child = run.run_child
    calls = {"ops": 0}

    def corrupting_run_child(argv, trace, workdir, *timeout):
        child = real_run_child(argv, trace, workdir, *timeout)
        if argv is not None:
            calls["ops"] += 1
            if calls["ops"] % 2 == 0:
                body = json.loads(child["stdout"])
                body["correlation"] += 1e-6
                child["stdout"] = json.dumps(body)
        return child

    monkeypatch.setattr(Workload, "op", lambda self, i: CHEAP_EXACT)
    monkeypatch.setattr(run, "run_child", corrupting_run_child)
    record = run.run("exact_large", 1, 1.0, trace=False)
    result = record["result"]
    attempted = result["attempted"]
    assert attempted == calls["ops"] >= 2
    assert attempted % Workload("exact_large", 1).round == 0   # ends on a round boundary
    assert result["failed"] == attempted // 2
    assert not result["correct"]
    assert result["metrics"]["ok_frac"]["value"] == (attempted - attempted // 2) / attempted
    assert all("correlation" in f["problems"][0] for f in record["failures"])


def test_uncorrupted_outputs_pass_their_checks(tmp_path):
    child = run.run_child(CHEAP_EXACT, False, tmp_path)
    assert checks.check_op(CHEAP_EXACT, child, str(tmp_path)) == []


def test_span_self_times_add_up_to_the_traced_op_time(tmp_path):
    argv = ["verify", "--suite", "all", "--nmax", "5", "--seed", "3", "--mc-samples", "200"]
    child = run.run_child(argv, True, tmp_path)
    spans = child["spans"]
    roots = [s for s in spans if s[1] == -1]
    assert [tracing.LAYER_NAMES[s[0]] for s in roots] == ["cli.main"]
    total_self = sum(tracing.self_times(spans))
    assert total_self == pytest.approx(child["op_s"], rel=0.01, abs=2e-3)
    metrics = tracing.layer_metrics([spans])
    layer_self = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert layer_self == pytest.approx(total_self, rel=1e-9)
    assert metrics["spectral.lift.calls"] > 0
    assert metrics["dynamics.sample_rng.calls"] == 3 * 200


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracing.metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_tail_never_falls_below_the_median():
    assert run.tail([float(i) for i in range(8)]) == (4.0, 62.5, 3)
    assert run.tail([float(i) for i in range(40)]) == (29.0, 75.0, 10)


def test_ticks_sample_the_host_outside_the_op_time(tmp_path):
    argv = ["verify", "--suite", "all", "--nmax", "6", "--seed", "3", "--mc-samples", "200"]
    child = run.run_child(argv, False, tmp_path)
    assert len(child["op_ticks"]) >= run.MIN_TICKS
    assert child["tick_cost_s"] >= sum(child["setup_ticks"] + child["op_ticks"])
    assert run.run_child(argv, True, tmp_path)["op_ticks"] == []


def test_a_part_with_few_ticks_takes_the_host_factor_of_its_run():
    few = {"setup_ticks": [2e-3], "op_ticks": [2e-3]}
    many = {"setup_ticks": [3e-3] * run.MIN_TICKS, "op_ticks": [1e-3] * run.MIN_TICKS}
    host, op_factors, setup_factors = run.host_factors([few, many, None])
    assert host == pytest.approx((4e-3 + run.MIN_TICKS * 4e-3) / (2 * run.MIN_TICKS + 2)
                                 / run.TICK_REF_S)
    assert op_factors == [host, pytest.approx(1e-3 / run.TICK_REF_S), host]
    assert setup_factors == [host, pytest.approx(3e-3 / run.TICK_REF_S), host]
