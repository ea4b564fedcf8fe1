"""Self-tests of the benchmark harness, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (sets the import path for szegolab and the harness)
from names import WORKLOADS  # noqa: E402

harness = run._import_harness()
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

MCPlan, CLICommand = workloads.MCPlan, workloads.CLICommand

TINY = workloads.Config(
    ladder_points=((2.0, 40), (4.0, 80)),
    mc_plans=(
        MCPlan("ou", 2.0, 20, 200, round_trip=True),
        MCPlan("gauss", 2.0, 20, 200),
        MCPlan("tri", 2.0, 20, 200),
    ),
    cli_commands=(
        CLICommand("dump-gram", ("dump-gram", "--n", "20"), 0),
        CLICommand("usage-error", ("rate", "--no-such-flag"), 2),
    ),
)
SEED = 3
OFF = Tracer("test", enabled=False)


def _failures(passes) -> list[str]:
    return [i for p in passes for r in p.ops + p.probes for i in r.issues]


@pytest.fixture(scope="module")
def traced_tiny():
    """One traced pass of every tiny workload plus an import breakdown."""
    tracer = Tracer("test-traced", enabled=True)
    passes = []
    for name in WORKLOADS:
        wl = workloads.build(name, SEED, TINY, {})
        wl.warmup()
        passes.append(workloads.run_pass(wl, tracer, {}))
    workloads.import_breakdown(tracer)
    return tracer, passes


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_workload_completes_at_tiny_size(name):
    wl = workloads.build(name, SEED, TINY, {})
    wl.warmup()
    passes = workloads.measure(wl, 0.01, OFF, {})
    assert passes[0].complete and len(passes[0].ops) == len(wl.ops)
    assert not passes[-1].complete  # the budget was spent after the first pass
    assert _failures(passes) == []


def test_traced_pass_yields_every_per_layer_metric(traced_tiny):
    tracer, passes = traced_tiny
    assert _failures(passes) == []
    values = layers.layer_values(tracer, TINY, overhead=0.0)
    specs = layers.metric_specs(TINY)
    assert {m.name for m in specs} == set(values)
    assert [name for name, v in values.items() if v is None] == []
    assert all(values[f"{layer}.failed"] == 0 for layer in layers.LAYERS)


def test_module_missing_from_importtime_costs_nothing(traced_tiny):
    tracer, _ = traced_tiny
    modules = dict(next(s for s in tracer.spans if s.name == "import.importtime").attrs["modules"])
    modules.pop("scipy.signal", None)
    modules.pop("szegolab.mc")
    only = Tracer("test-import", enabled=True)
    with only.span("import.importtime") as span:
        span.attrs["modules"] = modules
    values = layers.layer_values(only, TINY, overhead=0.0)
    assert values["import.scipy.signal_s"] == 0.0
    assert values["import.szegolab_s"] > 0.0
    assert values["import.szegolab.mc_s"] is None  # a szegolab module must appear


def test_crashing_cli_process_is_a_failed_operation(tmp_path, monkeypatch):
    fake = tmp_path / "szegolab"
    fake.mkdir()
    (fake / "__init__.py").write_text("")
    (fake / "__main__.py").write_text("raise RuntimeError('crashed')\n")
    monkeypatch.setattr(workloads, "child_env", lambda: {**os.environ, "PYTHONPATH": str(tmp_path)})
    config = workloads.Config(cli_commands=(CLICommand("rate", ("rate",), 0),))
    wl = workloads.build("cli-mix", SEED, config, {})
    result = workloads.run_pass(wl, OFF, {"rate": {"exact": {"targetRate[0]": 0.366}}})
    (op,) = result.ops
    assert any("exit code 1" in issue for issue in op.issues)
    assert "report has no targetRate column" in op.issues
    assert any("targetRate[0]: missing" in issue for issue in op.issues)


def _ladder_with_reference(corrupt: bool):
    wl = workloads.build("study-ladder", SEED, TINY, {})
    reference = workloads.reference_outputs(wl)
    if corrupt:
        key = next(iter(reference))
        reference[key]["exact"]["sampled_rate"] *= 1.0 + 1e-5
    return workloads.build("study-ladder", SEED, TINY, reference), reference


def test_corrupted_reference_value_drives_fail_frac_above_zero():
    clean, reference = _ladder_with_reference(corrupt=False)
    assert _failures(workloads.measure(clean, 0.01, OFF, reference)) == []
    bad, reference = _ladder_with_reference(corrupt=True)
    passes = workloads.measure(bad, 0.01, OFF, reference)
    failed = [r for p in passes for r in p.ops if r.issues]
    assert len(failed) == 1 and "sampled_rate" in failed[0].issues[0]


def test_corrupted_monte_carlo_reference_is_caught():
    wl = workloads.build("mc-paths", SEED, TINY, {})
    reference = workloads.reference_outputs(wl)
    key = next(iter(reference))
    value, se = reference[key]["stat"]["empirical[0]"]
    reference[key]["stat"]["empirical[0]"] = [value + 50 * se, se]
    passes = workloads.measure(wl, 0.01, OFF, reference)
    assert any("empirical[0]" in issue for issue in _failures(passes))


@pytest.mark.parametrize("corrupt", [False, True])
def test_traced_and_untraced_runs_agree_on_correctness(corrupt):
    wl, reference = _ladder_with_reference(corrupt)
    untraced = workloads.run_pass(wl, OFF, reference)
    traced = workloads.run_pass(wl, Tracer("test", enabled=True), reference)
    assert bool(_failures([untraced])) == bool(_failures([traced])) == corrupt


def test_memory_preflight_refuses_oversized_configuration():
    wl = workloads.build("study-ladder", SEED, workloads.Config(), {})
    workloads.preflight([(op.key, op.est_bytes) for op in wl.ops])  # the benchmark fits
    huge = workloads.Config(ladder_points=((1500.0, 30000),))
    wl = workloads.build("study-ladder", SEED, huge, {})
    with pytest.raises(workloads.PreflightError, match="GiB"):
        workloads.preflight([(op.key, op.est_bytes) for op in wl.ops])


def test_benchmark_json_lists_the_per_layer_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    expected = [(m.name, m.unit, m.better) for m in layers.metric_specs(workloads.Config())]
    assert listed == expected
    assert len(listed) <= 128
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_high_percentile_needs_ten_samples_above_it():
    assert harness.high_percentile(list(range(10))) is None
    p, value = harness.high_percentile([float(i) for i in range(20)])
    assert p == 50 and sum(v > value for v in range(20)) == 10


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-paths", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
