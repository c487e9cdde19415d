"""End-to-end benchmark of the ``stochmech`` CLI, with a traced per-module ledger.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one after another

Load model: a closed loop with one client.  Each operation is one
``stochmech`` invocation in a fresh Python process (``perfbench/launch.py``),
started after the previous one ended, so interpreter start, package import
and worker-pool start are paid as a user pays them.  The worker count is
passed explicitly as the number of usable cores, ``len(sched_getaffinity)``.
Operations repeat for ``--seconds``; every metric is the median over the
operations of the run.  The workload seed is the CLI ``--seed`` of every
operation of the run (verify-battery maps it onto a seed list), so a run
repeats one input and the outputs of its operations must agree bit for bit.

End-to-end metrics (``--trace 0``), per operation:

* ``wall_s``: wall time from spawn to reaped exit.
* ``mpath_steps_per_s``: coupled path-steps per wall second, in millions.
  Path-steps are counted from the workload's parameters: every ``collect``,
  batch and scalar integration the operation triggers (a step of a coupled
  pair counts once; Picard sweeps count none).
* ``cpu_s``: user + sys time of the process and its reaped workers.
* ``setup_s``: spawn to the first call of a path-stepping function in any of
  the operation's processes (import, config validation, scenario build).
* ``peak_rss_mib``: ``ru_maxrss`` of the process and its reaped workers,
  whichever is larger.

Failed operations are the result line's ``failed`` over ``attempted``; an
operation fails on a nonzero exit, a timeout or any failed output check.

``--trace 1`` runs one untraced operation and then traced ones, and reports
the per-layer metrics of ``BENCHMARK.json`` as medians over the traced
operations.  Times are summed over all processes of an operation; ``*_self_s``
and module ``.s`` figures exclude time in nested wrapped calls.  A few
definitions beyond their names:

* ``sde.kernel_self_s``: ``simulate_coupled_ensemble`` minus the drift
  evaluations, ``draw_initial`` and stream seeding (``path_rng``) inside it,
  i.e. RNG fill, transpose and Euler update together.
* ``sde.stream_seed_s``: all ``path_rng`` calls, each a SeedSequence and a
  PCG64 built for one (seed, path, stream).
* ``sde.scalar_steps``: steps of the single-path ``integrate`` and
  ``co_integrate`` loops, each loop counted.
* ``wavefunction.free_eval_reuse``: free-drift calls at a scalar time over
  the distinct times among them; each distinct time needs one slice at most.
* ``momentum.*``: per ``collect`` call, a worker's busy time is the sum of its
  ``drift_fields``, ``initial_sampler`` and kernel spans inside the call;
  ``imbalance`` is slowest over mean busy worker, ``parallel_efficiency`` is
  kernel time over (workers x collect time), ``overhead_s`` is collect time
  minus the slowest worker.  Summed over the ``collect`` calls.
* ``cli.self_s``: operation wall minus the outermost traced calls of the
  main process (interpreter start, imports, argument parsing, run directory).
* ``trace.overhead_s``: median traced minus untraced operation wall.
* ``wavefunction.first_node_t``: first time on a 0.01 mesh up to t0 + 5 at
  which the default-grid free drift raises ``NodeEncountered``; the scan
  limit if none does.  A probe of a known defect, not a failed operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
GOLDEN = json.loads((HERE / "golden.json").read_text())
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKERS = len(os.sched_getaffinity(0))
DT = 1e-3     # the CLI default
RUN_LIMIT_S = 170.0   # a run, operations and checks included, ends within 180 s
MIN_OPS = 3

# verify's fixed sub-checks: closed form on 100 paths and Picard on 20 paths,
# both at horizon 10; autocovariance records up to t = 3.
VERIFY_CLOSED_FORM = (100, 10.0)
VERIFY_PICARD = (20, 10.0)
VERIFY_AUTOCOV_HORIZON = 3.0


def steps(horizon: float, dt: float = DT) -> int:
    return round(horizon / dt)


@dataclass
class Op:
    """One measured CLI invocation and what its checks found."""

    directory: Path
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    exit_code: int
    setup_s: Optional[float] = None
    problems: list = field(default_factory=list)
    digest: Optional[str] = None


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple
    paths: int
    horizon: float
    path_steps: int
    check: Callable
    self_check: bool = False
    workers: Optional[int] = None       # default: all usable cores
    seeds: Optional[tuple] = None

    def cli_seed(self, seed: int) -> int:
        """The CLI seed of the run: the workload seed, or an entry of the
        workload's seed list picked by it."""
        return self.seeds[seed % len(self.seeds)] if self.seeds else seed

    def cli_args(self, seed: int, workers: int = WORKERS) -> list:
        return [*self.args, "--paths", str(self.paths), "--horizon", repr(self.horizon),
                "--dt", repr(DT), "--seed", str(seed), "--workers", str(workers)]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _run_dir(op: Op) -> Path:
    found = list((op.directory / "runs").iterdir())
    if len(found) != 1:
        raise ValueError(f"expected one run directory, found {len(found)}")
    return found[0]


def check_ensemble(wl: Workload, op: Op, seed: int) -> None:
    """M samples and no out-of-domain evaluations; records the SHA-256 of
    ensemble.tsv, which must equal the golden one at the golden seed."""
    run_dir = _run_dir(op)
    summary = json.loads((run_dir / "summary.json").read_text())
    if summary["out_of_domain_evaluations"] != 0:
        op.problems.append(f"{summary['out_of_domain_evaluations']} out-of-domain evaluations")
    if summary["sample_count"] != wl.paths:
        op.problems.append(f"{summary['sample_count']} samples, expected {wl.paths}")
    op.digest = hashlib.sha256((run_dir / "ensemble.tsv").read_bytes()).hexdigest()
    golden = GOLDEN["ensemble_sha256"][wl.name]
    if seed == GOLDEN["seed"] and op.digest != golden:
        op.problems.append(f"ensemble.tsv SHA-256 {op.digest} != golden {golden}")


def check_run(wl: Workload, op: Op, seed: int) -> None:
    """check_ensemble, plus Var(P) within 4 standard errors of the exact
    finite-horizon value (1 + 1/T^2)/2."""
    check_ensemble(wl, op, seed)
    summary = json.loads((_run_dir(op) / "summary.json").read_text())
    target = 0.5 * (1.0 + 1.0 / wl.horizon ** 2)
    gap = abs(summary["variance"] - target)
    if gap > 4.0 * summary["stderr_variance"]:
        op.problems.append(f"Var(P) {summary['variance']:.5f} is {gap:.5f} from {target:.5f}"
                           f" (4 SE = {4.0 * summary['stderr_variance']:.5f})")


def check_dump(wl: Workload, op: Op, seed: int) -> None:
    """check_ensemble, plus: one table per path with steps + 1 rows, whose
    last x_F / T equals that path's P in ensemble.tsv bit for bit.  (Sixteen
    samples are too few for check_run's variance test.)"""
    check_ensemble(wl, op, seed)
    run_dir = _run_dir(op)
    lines = (run_dir / "ensemble.tsv").read_text().splitlines()
    header = lines[0].split("\t")
    p_col = header.index("P")
    momentum = {int(row.split("\t")[0]): float(row.split("\t")[p_col]) for row in lines[1:]}
    n_steps = steps(wl.horizon)
    horizon = n_steps * DT
    mismatched = 0
    for index in range(wl.paths):
        table = (run_dir / "paths" / f"path_{index:05d}.tsv").read_bytes()
        rows = table.count(b"\n") - 1
        if rows != n_steps + 1:
            op.problems.append(f"path {index}: {rows} rows, expected {n_steps + 1}")
            return
        names = table[:table.index(b"\n")].decode().split("\t")
        last = table.rstrip(b"\n").rsplit(b"\n", 1)[1].decode().split("\t")
        if float(last[names.index("x_F")]) / horizon != momentum[index]:
            mismatched += 1
    if mismatched:
        op.problems.append(f"{mismatched}/{wl.paths} dumped x_F(T)/T differ from ensemble P")


def check_verify(wl: Workload, op: Op, seed: int) -> None:
    """Exit code 0 with five PASS lines."""
    lines = (op.directory / "stdout").read_text().splitlines()
    passed = [line for line in lines if line.startswith("PASS ")]
    if len(passed) != 5 or len(lines) != 5:
        op.problems.append("verify printed: " + " | ".join(lines))


def verify_path_steps(paths: int, horizon: float) -> int:
    n_cf, h_cf = VERIFY_CLOSED_FORM
    n_pic, h_pic = VERIFY_PICARD
    return (n_cf * (steps(h_cf) + steps(h_cf, DT / 2)) + n_pic * steps(h_pic)
            + paths * steps(VERIFY_AUTOCOV_HORIZON) + 3 * paths * steps(horizon))


def _workloads() -> dict:
    # Sizes keep each operation at 2-8 s on a 2-core box, so that a run holds
    # 3-12 operations.  Below 2048 paths collect makes one chunk and starts no
    # pool, so verify-battery and path-dump run in one process like grid-run.  oscillator-run keeps M = 10^4 for the 5-chunk split;
    # grid-run keeps M = 10^4 (5 chunks, so every free-drift slice is computed
    # 5 times) and a horizon well below the default grid's node at t = 2.47.
    # verify's statistical checks (two-sample KS at p > 0.01, 3-SE variance
    # bands) fail on a few seeds by design, so its CLI seed is drawn from the
    # seeds whose battery passes at this size; golden.json names the others.
    osc = ("run", "--scenario", "oscillator-ground", "--policy", "ratio")
    grid = ("run", "--scenario", "grid-custom", "--policy", "ratio")
    table = [
        Workload("oscillator-run", osc, paths=10000, horizon=4.0,
                 path_steps=10000 * steps(4.0), check=check_run, self_check=True),
        Workload("grid-run", grid, paths=10000, horizon=0.25,
                 path_steps=10000 * steps(0.25), check=check_run, workers=1),
        Workload("verify-battery", ("verify",), paths=1000, horizon=10.0,
                 path_steps=verify_path_steps(1000, 10.0), check=check_verify,
                 seeds=tuple(GOLDEN["verify_seeds"])),
        Workload("path-dump", osc + ("--dump-paths",), paths=16, horizon=5.0,
                 path_steps=2 * 16 * steps(5.0), check=check_dump),
    ]
    return {wl.name: wl for wl in table}


WORKLOADS = _workloads()


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def kill_group(pgid: int, wait: bool = False) -> None:
    """SIGKILL an operation's process group; with ``wait``, until it is gone."""
    for _ in range(200 if wait else 1):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_op(index: int, cli_args: list, deadline: float, trace: bool = False) -> Op:
    """Spawn one CLI invocation, reap it with its resource usage, and read
    its set-up markers."""
    directory = WORK / f"op{index:03d}"
    directory.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "launch.py"), str(directory)]
    cmd += ["--trace"] if trace else []
    cmd += ["--", *cli_args, "--out", str(directory / "runs")]
    with open(directory / "stdout", "wb") as out, open(directory / "stderr", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                start_new_session=True)
        killer = threading.Timer(max(1.0, deadline - start), kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - start
    if os.WIFSIGNALED(status):
        kill_group(proc.pid, wait=True)
    proc.returncode = os.waitstatus_to_exitcode(status)    # reaped above, not by Popen
    op = Op(directory=directory, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mib=usage.ru_maxrss / 1024.0, exit_code=proc.returncode)
    if op.exit_code != 0:
        tail = (directory / "stderr").read_text(errors="replace").strip().splitlines()[-3:]
        op.problems.append(f"exit code {op.exit_code}: {' | '.join(tail)}")
    marks = [float(p.read_text()) for p in directory.glob("first_step.*")]
    if marks:
        op.setup_s = min(marks) - start
    elif not trace:
        op.problems.append("no path step recorded")
    return op


def checked(wl: Workload, op: Op, seed: int) -> Op:
    if not op.problems:
        try:
            wl.check(wl, op, seed)
        except (OSError, ValueError, KeyError, IndexError) as err:
            op.problems.append(f"output check failed: {err!r}")
    return op


def self_check(wl: Workload, index: int, deadline: float) -> Op:
    """The workload's config at the golden seed on one worker; check_run
    compares its ensemble.tsv with the golden one, recorded on all usable
    cores, so this proves the worker-count invariance of the output."""
    seed = GOLDEN["seed"]
    return checked(wl, run_op(index, wl.cli_args(seed, workers=1), deadline), seed)


# ---------------------------------------------------------------------------
# Traced ledger
# ---------------------------------------------------------------------------

def read_trace(op: Op):
    """Merge the trace files of an operation's processes."""
    ledger = defaultdict(lambda: [0, 0.0, 0.0])
    spans, counts, free_t, main_top_s = [], Counter(), set(), 0.0
    for path in op.directory.glob("trace.*.jsonl"):
        for line in path.read_text().splitlines():
            record = json.loads(line)
            for name, (calls, total, own) in record["ledger"].items():
                entry = ledger[name]
                entry[0] += calls
                entry[1] += total
                entry[2] += own
            spans.extend(record["spans"])
            counts.update(record["counts"])
            free_t.update(record["free_t"])
            if record["main"]:
                main_top_s += record["top_s"]
    return ledger, spans, counts, free_t, main_top_s


CHUNK_WORK = ("scenarios.drift_fields", "scenarios.initial_sampler",
              "sde.simulate_coupled_ensemble")


def collect_balance(spans: list, workers: int) -> dict:
    """Worker busy time, imbalance and overhead summed over collect calls."""
    busy_max = busy_mean = collect_s = kernel_s = 0.0
    for name, _, c_start, c_end in spans:
        if name != "momentum.collect":
            continue
        busy = defaultdict(float)
        for s_name, pid, start, end in spans:
            if s_name in CHUNK_WORK and c_start <= start <= c_end:
                busy[pid] += end - start
                if s_name == "sde.simulate_coupled_ensemble":
                    kernel_s += end - start
        collect_s += c_end - c_start
        if busy:
            busy_max += max(busy.values())
            busy_mean += statistics.fmean(busy.values())
    return {
        "momentum.worker_busy_max_s": busy_max,
        "momentum.imbalance": busy_max / busy_mean if busy_mean else 0.0,
        "momentum.parallel_efficiency": kernel_s / (workers * collect_s) if collect_s else 0.0,
        "momentum.overhead_s": collect_s - busy_max,
    }


def layer_metrics(op: Op, workers: int) -> dict:
    ledger, spans, counts, free_t, main_top_s = read_trace(op)

    def total(*names):
        return sum((ledger[n][1] for n in names if n in ledger), 0.0)

    def module_self(prefix):
        return sum((e[2] for n, e in ledger.items() if n.startswith(prefix + ".")), 0.0)

    kernel = ledger.get("sde.simulate_coupled_ensemble", [0, 0.0, 0.0])
    kernel_steps = counts["sde.kernel_path_steps"]
    values_written = counts["tableio.values_written"]
    free_scalar = counts["wavefunction.free_scalar_calls"]
    metrics = {
        "sde.kernel_s": kernel[1],
        "sde.kernel_self_s": kernel[2],
        "sde.kernel_ns_per_path_step": kernel[1] / kernel_steps * 1e9 if kernel_steps else 0.0,
        "sde.path_steps": counts["sde.path_steps"],
        "sde.draw_initial_s": total("sde.draw_initial"),
        "sde.stream_seed_s": total("sde.path_rng"),
        "sde.streams_seeded": counts["sde.streams_seeded"],
        "sde.scalar_s": total("sde.integrate", "sde.co_integrate"),
        "sde.scalar_steps": counts["sde.scalar_steps"],
        "sde.batch_s": total("sde.integrate_batch", "sde.co_integrate_batch"),
        "sde.picard_s": total("sde.picard_solve"),
        "sde.picard_iterations": counts["sde.picard_iterations"],
        "wavefunction.eval_interacting_s": total("wavefunction.eval_interacting"),
        "wavefunction.eval_free_s": total("wavefunction.eval_free"),
        "wavefunction.eval_calls": sum(ledger[n][0] for n in ("wavefunction.eval_interacting",
                                                              "wavefunction.eval_free")
                                       if n in ledger),
        "wavefunction.free_eval_distinct_t": len(free_t),
        "wavefunction.free_eval_reuse": free_scalar / len(free_t) if free_t else 0.0,
        "momentum.collect_s": total("momentum.collect"),
        "momentum.chunks": counts["momentum.chunks"],
        **collect_balance(spans, workers),
        "scenarios.build_s": total("scenarios.drift_fields", "scenarios.initial_sampler"),
        "scenarios.drift_fields_calls": counts["scenarios.drift_fields_calls"],
        "tableio.write_s": total("tableio.write_table", "tableio.write_json"),
        "tableio.values_written": values_written,
        "tableio.bytes_written": counts["tableio.bytes_written"],
        "tableio.ns_per_value": (total("tableio.write_table") / values_written * 1e9
                                 if values_written else 0.0),
        "oscillator.s": module_self("oscillator"),
        "stats.s": module_self("stats"),
        "verify.closed_form_s": total("verify.check_coupled_closed_form"),
        "verify.picard_s": total("verify.check_picard_equivalence"),
        "verify.autocov_s": total("verify.check_autocovariance"),
        "verify.consistency_s": total("verify.check_momentum_consistency"),
        "verify.nu_invariance_s": total("verify.check_nu_invariance"),
        "verify.checks_failed": counts["verify.checks_failed"],
        "cli.self_s": op.wall_s - main_top_s,
    }
    return metrics


def first_node_t(limit: float = 5.0, mesh: float = 0.01) -> float:
    """Scan the default-grid free drift for the first NodeEncountered."""
    sys.path.insert(0, str(ROOT / "src"))
    from stochmech import NodeEncountered, wavefunction as wf
    evaluator = wf.free_drift_field_from_grid(
        wf.to_grid(wf.harmonic_ground_state()), nu=0.5).evaluator
    for k in range(round(limit / mesh) + 1):
        try:
            evaluator(0.0, k * mesh)
        except NodeEncountered:
            return k * mesh
    return limit


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def environment(workers: int) -> dict:
    import numpy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
                             ).stdout.strip() or None
    except OSError:
        sha = None
    return {"usable_cores": WORKERS, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_sha": sha, "workers_passed": workers,
            "start_method": multiprocessing.get_start_method()}


class BenchError(Exception):
    """No operation of a run succeeded, so the run has no result."""


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    workers = wl.workers or WORKERS
    seed = wl.cli_seed(seed)
    args = wl.cli_args(seed, workers)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    # warm the page cache and byte-code cache; users do not pay these per run
    subprocess.run([sys.executable, str(HERE / "launch.py"), str(WORK), "--", "--help"],
                   cwd=ROOT, stdout=subprocess.DEVNULL, check=True, timeout=60)
    ops, traced = [], []
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    while True:
        tracing = trace and len(ops) > 0
        index = len(ops) + len(traced)
        op = checked(wl, run_op(index, args, deadline, trace=tracing), seed)
        (traced if tracing else ops).append(op)
        done = ops + traced
        if op.exit_code != 0:
            break
        elapsed = time.monotonic() - start
        if len(done) >= MIN_OPS and elapsed + median(o.wall_s for o in done) / 2 > seconds:
            break
    if wl.self_check:
        done.append(self_check(wl, len(done), deadline))
    digests = {o.digest for o in ops + traced if o.digest}
    problems = [f"op {o.directory.name}: {p}" for o in done for p in o.problems]
    failed = sum(1 for o in done if o.problems)
    if len(digests) > 1:
        problems.append(f"ensemble.tsv differs between operations of one run: {sorted(digests)}")
        failed += 1
    for problem in problems:
        print(f"FAILED {problem}")
    print(f"ops_failed {failed}/{len(done)}")
    print("environment " + json.dumps(environment(workers)))

    measured = [o for o in (traced if trace else ops) if o.exit_code == 0]
    if not measured or ops[0].exit_code != 0:
        raise BenchError(f"{wl.name}: no operation succeeded")
    if trace:
        per_op = [layer_metrics(o, workers) for o in measured]
        metrics = {name: statistics.median_low(m[name] for m in per_op)
                   if all(isinstance(m[name], int) for m in per_op)
                   else median(m[name] for m in per_op) for name in per_op[0]}
        metrics["trace.overhead_s"] = median(o.wall_s for o in measured) - ops[0].wall_s
        metrics["wavefunction.first_node_t"] = first_node_t()
        if metrics["sde.path_steps"] != wl.path_steps:
            problems.append(f"traced path-steps {metrics['sde.path_steps']} != {wl.path_steps}")
        print_ledger(measured[0])
    else:
        metrics = {
            "wall_s": median(o.wall_s for o in measured),
            "mpath_steps_per_s": median(wl.path_steps / o.wall_s / 1e6 for o in measured),
            "cpu_s": median(o.cpu_s for o in measured),
            "setup_s": median(o.setup_s for o in measured if o.setup_s is not None),
            "peak_rss_mib": median(o.peak_rss_mib for o in measured),
        }
        print_ops(wl, measured)
    units = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    return {"correct": not problems, "attempted": len(done), "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}}


def print_ops(wl: Workload, ops: list) -> None:
    print(f"{wl.name}: {len(ops)} operations, {wl.path_steps} path-steps each")
    for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mib"):
        values = sorted(getattr(o, name) or 0.0 for o in ops)
        print(f"  {name:14s} median {median(values):.4f}  min {values[0]:.4f}  max {values[-1]:.4f}")


def print_ledger(op: Op) -> None:
    ledger = read_trace(op)[0]
    print(f"{'span':40s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}")
    for name, (calls, total, own) in sorted(ledger.items(), key=lambda kv: -kv[1][2]):
        print(f"{name:40s} {calls:9d} {total:10.4f} {own:10.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "stochmech" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'stochmech'} not found", file=sys.stderr)
        return 2
    seed = args.seed % 2 ** 31
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(WORKLOADS[name], seed, args.seconds, bool(args.trace))
            if len(names) > 1:
                print(f"{name} " + json.dumps(results[name]))
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
