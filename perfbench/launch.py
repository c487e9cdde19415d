"""Run one ``stochmech`` CLI invocation for the benchmark, optionally traced.

    python3 perfbench/launch.py OP_DIR [--trace] -- CLI_ARGS...

The package is imported from ``src/`` of the checkout this file sits in.
Without ``--trace`` the only hook marks the first path step: each process
that enters a path-stepping function writes ``first_step.<pid>`` holding its
``time.monotonic()`` to OP_DIR.  With ``--trace`` the public functions of the
package are replaced, on their modules and classes, by timing wrappers before
any worker pool forks.  Each process keeps its ledger and spans in memory and
appends them to ``OP_DIR/trace.<pid>.jsonl``: pool workers when their
outermost span ends, the main process when the CLI returns.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Entry points that advance paths; the first call to any of them ends set-up.
STEPPING = ("simulate_coupled_ensemble", "integrate", "integrate_batch")


def import_stochmech():
    """Import the package from this checkout's ``src``; never an installed copy."""
    src = ROOT / "src"
    if not (src / "stochmech" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {src / 'stochmech'} not found")
    sys.path.insert(0, str(src))
    import stochmech
    if Path(stochmech.__file__).resolve().parent != src / "stochmech":
        raise SystemExit(f"perfbench: imported stochmech from {stochmech.__file__}")
    return stochmech


def mark_first_step(op_dir: str) -> None:
    from stochmech import sde

    marked = set()

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            pid = os.getpid()
            if pid not in marked:
                marked.add(pid)
                with open(os.path.join(op_dir, f"first_step.{pid}"), "w") as fh:
                    fh.write(repr(time.monotonic()))
            return fn(*args, **kwargs)
        return inner

    for name in STEPPING:
        setattr(sde, name, wrap(getattr(sde, name)))


def _params(args, kwargs):
    """The SimParams argument of ``simulate_coupled_ensemble``."""
    return args[3] if len(args) > 3 else kwargs["params"]


class Tracer:
    """Per-process ledger of (calls, total s, self s) by name, spans of the
    coarse calls, counters, and the distinct scalar times of free-drift calls.

    A span's self time is its duration minus the durations of the wrapped
    calls made inside it.  ``perf_counter`` is the system-wide monotonic
    clock, so spans of different processes share one time axis.
    """

    def __init__(self, op_dir: str):
        self.op_dir = op_dir
        self.main_pid = os.getpid()
        self.stack = []
        self._clear()
        os.register_at_fork(after_in_child=self._forked)

    def _clear(self):
        self.top_s = 0.0
        self.ledger = {}
        self.spans = []
        self.counts = Counter()
        self.free_t = set()

    def _forked(self):
        self.stack = []
        self._clear()

    def flush(self):
        record = {"pid": os.getpid(), "main": os.getpid() == self.main_pid,
                  "top_s": self.top_s, "ledger": self.ledger, "spans": self.spans,
                  "counts": self.counts, "free_t": sorted(self.free_t)}
        with open(os.path.join(self.op_dir, f"trace.{os.getpid()}.jsonl"), "a") as fh:
            fh.write(json.dumps(record) + "\n")
        self._clear()

    def _enter(self):
        frame = [0.0]
        self.stack.append(frame)
        return frame, time.perf_counter()

    def _exit(self, name, frame, start, keep_span):
        end = time.perf_counter()
        self.stack.pop()
        duration = end - start
        entry = self.ledger.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[0]
        if self.stack:
            self.stack[-1][0] += duration
        else:
            self.top_s += duration
        if keep_span:
            self.spans.append((name, os.getpid(), start, end))

    def wrap(self, name, fn, count=None, keep_span=True):
        """Timed replacement for ``fn``; ``count(result, *args, **kwargs)``
        returns counter increments for the call."""
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            frame, start = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame, start, keep_span)
            if count is not None:
                self.counts.update(count(result, *args, **kwargs))
            if not self.stack and os.getpid() != self.main_pid:
                self.flush()
            return result
        return inner

    def timed_field(self, field, side):
        """The same DriftField with its evaluator timed under ``side``."""
        evaluator = field.evaluator
        name = f"wavefunction.eval_{side}"
        free_t = side == "free"

        def timed(x, t):
            frame, start = self._enter()
            try:
                return evaluator(x, t)
            finally:
                self._exit(name, frame, start, False)
                if free_t and not hasattr(t, "__len__"):
                    self.free_t.add(float(t))
                    self.counts["wavefunction.free_scalar_calls"] += 1

        return dataclasses.replace(field, evaluator=timed)

    def install(self):
        from stochmech import (momentum, oscillator, scenarios, sde, stats,
                               tableio, verify)

        def patch(module, attr, count=None, keep_span=True):
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            setattr(module, attr, self.wrap(name, getattr(module, attr), count, keep_span))

        patch(sde, "simulate_coupled_ensemble", lambda r, *a, **k: {
            "sde.path_steps": len(r.path_indices) * _params(a, k).steps,
            "sde.kernel_path_steps": len(r.path_indices) * _params(a, k).steps,
            "momentum.chunks": 1})
        patch(sde, "integrate", lambda r, *a, **k: {
            "sde.path_steps": len(r.increments), "sde.scalar_steps": len(r.increments)})
        patch(sde, "co_integrate", lambda r, *a, **k: {
            "sde.scalar_steps": len(r.base.increments)})
        patch(sde, "integrate_batch", lambda r, *a, **k: {
            "sde.path_steps": (r.shape[0] - 1) * r.shape[1]})
        patch(sde, "co_integrate_batch")
        patch(sde, "picard_solve", lambda r, *a, **k: {"sde.picard_iterations": r[1]})
        patch(sde, "draw_initial", keep_span=False)
        patch(sde, "path_rng", lambda r, *a, **k: {"sde.streams_seeded": 1}, keep_span=False)
        patch(momentum, "collect")
        patch(tableio, "write_table", lambda r, path, columns: {
            "tableio.values_written": len(columns) * len(next(iter(columns.values()))),
            "tableio.bytes_written": os.path.getsize(path)})
        patch(tableio, "write_json", lambda r, path, payload: {
            "tableio.bytes_written": os.path.getsize(path)})
        for attr in ("check_coupled_closed_form", "check_picard_equivalence",
                     "check_autocovariance", "check_momentum_consistency",
                     "check_nu_invariance"):
            patch(verify, attr, lambda r, *a, **k: {"verify.checks_failed": int(not r.passed)})
        for module in (oscillator, stats):
            for attr, fn in vars(module).copy().items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    patch(module, attr, keep_span=False)
        histogram = stats.Histogram
        histogram.from_samples = classmethod(self.wrap(
            "stats.Histogram.from_samples", histogram.from_samples.__func__, keep_span=False))

        scenario_cls = scenarios.Scenario
        drift_fields = scenario_cls.drift_fields

        def timed_drift_fields(scenario):
            interacting, free = drift_fields(scenario)
            return self.timed_field(interacting, "interacting"), self.timed_field(free, "free")

        scenario_cls.drift_fields = self.wrap("scenarios.drift_fields", timed_drift_fields,
                                              lambda r, *a, **k: {"scenarios.drift_fields_calls": 1})
        scenario_cls.initial_sampler = self.wrap("scenarios.initial_sampler",
                                                 scenario_cls.initial_sampler)
        scenario_cls.target_density = self.wrap("scenarios.target_density",
                                                scenario_cls.target_density)


def main(argv) -> int:
    if "--" not in argv:
        raise SystemExit("usage: launch.py OP_DIR [--trace] -- CLI_ARGS...")
    split = argv.index("--")
    op_dir, flags, cli_args = argv[0], argv[1:split], argv[split + 1:]
    import_stochmech()
    from stochmech import cli
    if "--trace" not in flags:
        mark_first_step(op_dir)
        return cli.main(cli_args)
    import multiprocessing
    if multiprocessing.get_start_method() != "fork":
        raise SystemExit("perfbench: tracing pool workers needs the fork start method")
    tracer = Tracer(op_dir)
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
