"""Tests of the benchmark itself, on the tiny workload sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from reference import Reference  # noqa: E402
from tracing import WRAPPED, Tracer, per_layer_spec  # noqa: E402

END_TO_END = run.END_TO_END
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def bench(*argv, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *argv], cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


@pytest.fixture(scope="module", params=run.WORKLOADS)
def tiny(request):
    name = request.param
    plain = result_of(bench("--workload", name, "--seed", "3", "--seconds",
                            "0.5", "--trace", "0", "--tiny"))
    traced = result_of(bench("--workload", name, "--seed", "3", "--seconds",
                             "1", "--trace", "1", "--tiny"))
    return name, plain["metrics"], {k: v["value"]
                                    for k, v in traced["metrics"].items()}


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == per_layer_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_plain_run_reports_every_end_to_end_metric(tiny):
    _, metrics, _ = tiny
    assert list(metrics) == list(END_TO_END)
    assert all(m["value"] > 0 for m in metrics.values())


def test_traced_run_reports_every_layer_metric(tiny):
    name, _, layers = tiny
    assert list(layers) == [n for n, _, _ in per_layer_spec()]
    assert abs(layers["trace.coverage"] - 1) <= run.COVERAGE_TOLERANCE
    backward = [f"{layer}.{what}" for layer, _, _ in WRAPPED
                for what in ("calls", "s", "self_s")
                if layer.split(".")[0] in ("autodiff", "gradients", "optim")]
    if name != "dg_2x2":
        assert all(layers[k] == 0 for k in backward)


def test_traced_counts_repeat_the_expected_values(tiny):
    name, _, layers = tiny
    if name == "dg_2x2":
        assert layers["optim.adam_step.calls"] == 44
        assert layers["enrich.spectral_edges.calls"] == 6
        assert layers["enrich.spectral_edges.distinct_share"] == 0.5
        assert layers["enrich.spectral_edges.peak_mb"] > 0
    elif name == "citation_eval":
        assert layers["cli.main.calls"] == 1
        assert layers["enrich.spectral_edges.calls"] == 2
        assert layers["enrich.spectral_edges.distinct_share"] == 0.5
        assert layers["enrich.Enricher.sample.edges"] \
            == layers["tasknet.tasknet_forward_var.edges"]
    else:
        assert layers["theory.dual_upper_bound.masks"] == 5 ** 4
        assert layers["theory.dual_upper_bound.calls"] == 1
        assert layers["enrich.spectral_edges.calls"] == 0


def test_full_size_grid_is_the_criterion_4_grid():
    assert workloads.grid_size(4, 0.05) == 194_481


def test_full_size_study_takes_88_adam_steps(tmp_path):
    # 44 Adam steps per epoch of the harness study, at DG_EPOCHS = 2
    case = workloads.setup_dg_2x2(0, False, tmp_path)
    assert case.steps == 88


def test_checks_name_each_failure(tmp_path):
    dg = workloads.setup_dg_2x2(1, True, tmp_path)
    rows = dg.run()
    assert dg.check(rows, rows) == []
    bad = [dict(r) for r in rows]
    bad[0]["micro_f1"] = float("nan")
    failed = dg.check(bad, rows)
    assert "f1_range:original+no-mask:micro_f1" in failed
    assert "rows_differ_from_first_iteration" in failed
    assert dg.check(rows[:3], None) == ["row_count=3"]

    cite = workloads.setup_citation_eval(1, True, tmp_path)
    out = cite.run()
    assert cite.check(out, out) == []
    broken = {"code": 1, "stderr": "Traceback (most recent call last)",
              "metrics": b""}
    assert cite.check(broken, out) == [
        "exit_code=1", "traceback_on_stderr", "metrics_json_unreadable",
        "metrics_json_differs_from_first_iteration"]

    grid = workloads.setup_duality_grid(1, True, tmp_path)
    report = grid.run()
    assert grid.check(report, None) == []
    report.holds[5.0] = False
    assert grid.check(report, None) == ["weak_duality"]


def test_tracer_restores_every_binding(tmp_path):
    from maskdg import gradients, training
    original = gradients.grad_tasknet
    case = workloads.setup_dg_2x2(2, True, tmp_path)
    with Tracer() as tracer:
        assert training.grad_tasknet is not original
        assert training.grad_tasknet.__wrapped__ is original
        tracer.iteration = 0
        case.run()
    assert training.grad_tasknet is original
    assert gradients.grad_tasknet is original
    spans = [s for s in tracer.spans if s[0] == "gradients.grad_tasknet"]
    assert spans and all(s[4] == 0 for s in spans)
    # every grad_tasknet span sits under a descent step
    parents = {tracer.spans[s[3]][0] for s in spans}
    assert parents == {"training.tasknet_descent_step"}


def test_a_coverage_miss_fails_the_traced_iteration(tmp_path, capsys):
    case = workloads.setup_duality_grid(1, True, tmp_path)
    inner = case.run

    def run_with_untraced_work():
        time.sleep(0.2)
        return inner()

    case.run = run_with_untraced_work
    runner = run.Runner("duality_grid", case, Reference())
    runner.iterate(0, Tracer())
    # iteration 0 is the warm-up, iteration 1 runs traced and misses
    # coverage, iteration 2 runs untraced
    assert (runner.attempted, runner.failed) == (3, 1)
    assert len(runner.samples) == len(runner.traced) == 1
    assert re.search(r"FAIL duality_grid iteration 1: trace_coverage=0\.0\d",
                     capsys.readouterr().out)


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "dg_2x2", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_iterations_are_timed_at_nominal_speed():
    from reference import NOMINAL_SECONDS

    class SlowHost:
        """A reference kernel taking twice its nominal time."""

        def seconds(self):
            return 2 * NOMINAL_SECONDS

    class Sleep:
        def run(self):
            time.sleep(0.05)

        def check(self, out, first):
            return []

    runner = run.Runner("sleep", Sleep(), SlowHost())
    runner.iterate(0.3)
    assert runner.attempted == len(runner.samples) + 1  # after a warm-up
    assert all(ref == 2 * NOMINAL_SECONDS for _, _, ref in runner.samples)
    assert 0.025 <= run.nominal_median(runner.samples) < 0.035
