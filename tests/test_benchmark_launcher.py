"""Smoke test of the benchmark: the entry points the launcher wraps by name
must still exist and still step the paths it counts, the node probe of
``perfbench/run.py`` must still run on the package's exports, and the
workloads run at one worker must reproduce their golden ensembles or, for
the verify battery, pass."""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from stochmech import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LAUNCH = PERFBENCH / "launch.py"
PATHS, STEPS = 16, 50


def launch(op_dir, *flags):
    cli_args = ["run", "--scenario", "oscillator-ground", "--paths", str(PATHS),
                "--horizon", "0.05", "--workers", "1", "--dump-paths",
                "--out", str(op_dir / "runs")]
    return subprocess.run([sys.executable, str(LAUNCH), str(op_dir), *flags, "--",
                           *cli_args], capture_output=True, text=True, timeout=120)


def test_traced_run_counts_every_path_step(tmp_path):
    done = launch(tmp_path, "--trace")
    assert done.returncode == 0, done.stderr
    steps = 0
    for trace in tmp_path.glob("trace.*.jsonl"):
        for line in trace.read_text().splitlines():
            steps += json.loads(line)["counts"].get("sde.path_steps", 0)
    # collect steps every path once and --dump-paths steps it again
    assert steps == 2 * PATHS * STEPS


def test_traced_grid_run_never_evaluates_the_interacting_drift(tmp_path):
    # a run reads P from x_F alone, so the kernel steps no x: the interacting
    # drift is never evaluated, and the launcher still counts every path step
    paths, steps = 20, 50
    done = subprocess.run([sys.executable, str(LAUNCH), str(tmp_path), "--trace", "--",
                           "run", "--scenario", "grid-custom", "--paths", str(paths),
                           "--horizon", "0.05", "--workers", "1",
                           "--out", str(tmp_path / "runs")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    records = [json.loads(line) for trace in tmp_path.glob("trace.*.jsonl")
               for line in trace.read_text().splitlines()]
    ledger = {name for record in records for name in record["ledger"]}
    assert "wavefunction.eval_free" in ledger
    assert "wavefunction.eval_interacting" not in ledger
    assert sum(record["counts"].get("sde.path_steps", 0) for record in records) == paths * steps


def test_untraced_run_marks_the_first_step(tmp_path):
    done = launch(tmp_path)
    assert done.returncode == 0, done.stderr
    assert list(tmp_path.glob("first_step.*"))


@pytest.fixture
def bench(monkeypatch):
    """``perfbench/run.py`` as a module, for its workloads and goldens."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)    # its dataclasses look it up
    monkeypatch.setattr(sys, "path", list(sys.path))    # it prepends src/
    spec.loader.exec_module(run)
    return run


def test_traced_verify_counts_the_benchmark_path_steps(bench, tmp_path):
    # the benchmark counts verify's path-steps from its parameters; the
    # closed-form check must step its paths through the batch integrator and
    # the Picard check through the ensemble kernel, both of which the
    # launcher counts
    paths, horizon = 40, 2.0
    done = subprocess.run([sys.executable, str(LAUNCH), str(tmp_path), "--trace", "--",
                           "verify", "--paths", str(paths), "--horizon", repr(horizon),
                           "--workers", "1", "--out", str(tmp_path / "runs")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0 and not done.stderr, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 5 and all(line.startswith("PASS ") for line in lines), done.stdout
    steps = sum(json.loads(line)["counts"].get("sde.path_steps", 0)
                for trace in tmp_path.glob("trace.*.jsonl")
                for line in trace.read_text().splitlines())
    assert steps == bench.verify_path_steps(paths, horizon)


def test_first_node_probe_finds_the_default_grid_node(bench):
    # the free drift of the default grid meets a node at t = 2.47
    assert bench.first_node_t() == 2.47


@pytest.mark.parametrize("workload", ["oscillator-run", "grid-run", "path-dump"])
def test_workload_ensemble_matches_its_golden(bench, tmp_path, workload):
    # the benchmark's config at its golden seed, on one worker, through the CLI:
    # pins the per-path stream contract bit for bit
    seed = bench.GOLDEN["seed"]
    cli_args = bench.WORKLOADS[workload].cli_args(seed, workers=1)
    assert cli.main([*cli_args, "--out", str(tmp_path)]) == 0
    (run_dir,) = tmp_path.iterdir()
    digest = hashlib.sha256((run_dir / "ensemble.tsv").read_bytes()).hexdigest()
    assert digest == bench.GOLDEN["ensemble_sha256"][workload]


def test_verify_battery_passes_at_its_golden_seed(bench, tmp_path, capsys):
    # the seed the benchmark maps the golden seed onto is the tightest of its
    # seeds under the two-route bound; the benchmark wants five PASS lines
    workload = bench.WORKLOADS["verify-battery"]
    seed = workload.cli_seed(bench.GOLDEN["seed"])
    cli_args = workload.cli_args(seed, workers=1)
    assert cli.main([*cli_args, "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and all(line.startswith("PASS ") for line in lines)
