"""Command-line entry point: configured ensemble runs, oracle verification,
and target-density dumps.

A run is configured by one JSON file plus flag overrides (flags win) and
writes one directory named scenario + seed + timestamp containing, in order:
manifest.json (config echo + tool version), ensemble.tsv, density.tsv,
summary.json, and optional per-path dumps.  The directory takes that name
only when the run succeeds; a failed run leaves none.  Ensemble tables are
byte-stable under re-runs of the same configuration for any worker count.
"""

from __future__ import annotations

import argparse
import atexit
import dataclasses
import gc
import json
import math
import os
import shutil
import sys
import time
from dataclasses import dataclass
from typing import Optional, Tuple, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__, momentum, sde, stats, tableio
from . import wavefunction as wf
from .errors import ConfigError, StochmechError
from .scenarios import SCENARIO_KINDS, Scenario

# Paths that --dump-paths steps together.  A batch holds one block of BLOCK
# rows of dW, x and x_F per path, 6 MiB at 1,024 paths, whatever the horizon.
# Each batch rebuilds a grid state's free slices past the 512 its evaluator
# caches, and steps its paths in one integrator call per step, so fewer,
# larger batches cost less per path.
DUMP_BATCH = 1024
# Largest --dump-paths output accepted, in table rows (about 78 bytes each).
DUMP_ROW_LIMIT = 20_000_000
# The one momentum reduction, x_F(T) / T; ``policy`` still names it so
# that existing configs and command lines keep working.
POLICIES = ("ratio",)


def _fits(value, hint) -> bool:
    """Whether a value read from a JSON config has the field type ``hint``;
    a float must be finite, and a bool is not a number."""
    args = get_args(hint)
    if type(None) in args:                              # Optional[X]
        return value is None or _fits(value, args[0])
    if get_origin(hint) is tuple:
        return type(value) is list and len(value) == len(args) and all(map(_fits, value, args))
    if hint is float:
        return type(value) in (int, float) and math.isfinite(value)
    return type(value) is hint


@dataclass
class ScenarioConfig:
    scenario: str = "oscillator-ground"
    nu: float = 0.5
    dt: float = 1e-3
    horizon: float = 50.0
    paths: int = 10000
    seed: int = 42
    policy: str = "ratio"
    grid_extent: Tuple[float, float] = wf.DEFAULT_EXTENT
    grid_points: int = wf.DEFAULT_POINTS
    state_file: Optional[str] = None
    out: str = "runs"
    dump_paths: bool = False
    workers: Optional[int] = None

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except OSError as err:
            raise ConfigError(f"config: cannot read {str(path)!r}: {err.strerror}") from err
        except ValueError as err:           # JSON syntax or text encoding
            raise ConfigError(f"config: invalid JSON ({err})") from err
        if not isinstance(payload, dict):
            raise ConfigError("config: top level must be an object")
        hints = get_type_hints(cls)
        unknown = set(payload) - set(hints)
        if unknown:
            raise ConfigError(f"config: unknown fields {sorted(unknown)}")
        for name, value in payload.items():
            if not _fits(value, hints[name]):
                raise ConfigError(f"{name}: expected {cls.__annotations__[name]}, "
                                  f"got {value!r}")
        if payload.get("state_file") is not None:
            for name in ("grid_points", "grid_extent"):
                if name in payload:
                    raise ConfigError(f"{name}: a state file sets its own grid")
        if "grid_extent" in payload:
            payload["grid_extent"] = tuple(payload["grid_extent"])
        return cls(**payload)

    def validate(self) -> "ScenarioConfig":
        try:
            params = self.sim_params()
        except ValueError as err:
            raise ConfigError(str(err)) from err
        self.scenario_obj()                 # a Scenario checks its own fields
        if self.paths < stats.MIN_KS_SAMPLES:
            raise ConfigError(f"paths: must be >= {stats.MIN_KS_SAMPLES}, "
                              f"the fewest samples the KS test accepts")
        if self.paths > np.iinfo(np.intp).max:
            raise ConfigError(f"paths: must be <= {np.iinfo(np.intp).max}, "
                              f"the most numpy can index")
        if self.policy not in POLICIES:
            raise ConfigError(f"policy: {self.policy!r} is not one of {POLICIES}")
        if self.workers is not None and self.workers < 1:
            raise ConfigError("workers: must be >= 1")
        if self.dump_paths and self.paths * (params.steps + 1) > DUMP_ROW_LIMIT:
            raise ConfigError(f"dump_paths: {self.paths} paths x {params.steps + 1} rows "
                              f"exceeds the limit of {DUMP_ROW_LIMIT} rows")
        return self

    def check_state(self) -> "ScenarioConfig":
        """Refuse a t = 0 state that cannot be put on its grid, where every
        momentum density is computed: ``run`` and ``density`` check it, and
        ``verify``, which never reads it, does not.  An overflowing extent is
        reported by the error, not by warnings."""
        try:
            with np.errstate(all="ignore"):
                self.scenario_obj().grid_state()
        except OSError as err:
            raise ConfigError(f"state_file: cannot read {self.state_file!r}: "
                              f"{err.strerror}") from err
        except KeyError as err:
            raise ConfigError(f"state_file: {self.state_file!r} has no {err} column") from err
        except ValueError as err:
            if self.state_file is not None:
                raise ConfigError(f"state_file: {self.state_file!r}: {err}") from err
            raise ConfigError(f"grid_extent: {list(self.grid_extent)} with "
                              f"{self.grid_points} points: {err}") from err
        return self

    def sim_params(self) -> sde.SimParams:
        return sde.SimParams(nu=self.nu, dt=self.dt, horizon=self.horizon, seed=self.seed)

    def scenario_obj(self) -> Scenario:
        return Scenario(kind=self.scenario, nu=self.nu, grid_extent=self.grid_extent,
                        grid_points=self.grid_points, state_file=self.state_file)

    def effective_workers(self) -> int:
        """``workers``, capped at the CPUs the process may run on (its
        affinity mask); all of them when ``workers`` is unset."""
        try:
            usable = len(os.sched_getaffinity(0))
        except AttributeError:          # no affinity mask on this platform
            usable = os.cpu_count() or 1
        return usable if self.workers is None else min(self.workers, usable)

    def to_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["grid_extent"] = list(self.grid_extent)
        if self.state_file is not None:
            # the file sets the grid, and ``from_file`` refuses these beside it
            del payload["grid_extent"], payload["grid_points"]
        return payload


def load_config(args: argparse.Namespace) -> ScenarioConfig:
    """The ``--config`` file's config, or the default one, with each flag
    given setting the field of the same name (flags left out are not in ``args``)."""
    config = ScenarioConfig.from_file(args.config) if args.config else ScenarioConfig()
    names = {field.name for field in dataclasses.fields(ScenarioConfig)}
    return dataclasses.replace(config, **{name: value for name, value in vars(args).items()
                                          if name in names}).validate()


def _unused_path(base: str) -> str:
    """``base``, or the first of ``base-1``, ``base-2``, ... that does not exist."""
    candidate = base
    suffix = 1
    while os.path.exists(candidate):
        candidate = f"{base}-{suffix}"
        suffix += 1
    return candidate


def _write_manifest(run_dir: str, config: ScenarioConfig) -> None:
    tableio.write_json(os.path.join(run_dir, "manifest.json"), {
        "tool": "stochmech",
        "version": __version__,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": config.to_dict(),
    })


def _dump_paths(run_dir: str, config: ScenarioConfig) -> None:
    """One t/x/x_F/dW table per path, written as the paths are stepped:
    DUMP_BATCH paths at a time walk the noise blocks of ``sde._noise_blocks``
    through the batch integrators, and each block's rows go to the paths'
    tables before the next block is drawn.  dW is the path's own increment
    stream; the last block also writes the final row, whose dW is 0."""
    scenario = config.scenario_obj()
    interacting, free = scenario.drift_fields()
    sampler = scenario.initial_sampler()
    params = config.sim_params()
    dump_dir = tableio.ensure_dir(os.path.join(run_dir, "paths"))
    for first in range(0, config.paths, DUMP_BATCH):
        idx = np.arange(first, min(first + DUMP_BATCH, config.paths))
        tables = [os.path.join(dump_dir, f"path_{i:05d}.tsv") for i in idx]
        x = xf = sde.initial_positions(params.seed, idx, sampler)
        for k, dw in sde._noise_blocks(params, idx):
            m = len(dw)
            xs = sde.integrate_batch(interacting, x, params, dw, start=k)
            xfs = sde.co_integrate_batch(free, xf, params, dw, start=k)
            pad = [0.0] if k + m == params.steps else []
            t = params.times(k, k + m + len(pad))
            write = tableio.append_rows if k else tableio.write_table
            for j, table in enumerate(tables):
                write(table, {"t": t, "x": xs[:len(t), j], "x_F": xfs[:len(t), j],
                              "dW": np.concatenate((dw[:, j], pad))})
            x, xf = xs[m], xfs[m]


def _missing_dirs(path: str) -> list:
    """``path`` and those of its ancestors that do not exist, deepest first."""
    missing = []
    path = os.path.abspath(path)
    while not os.path.exists(path):
        missing.append(path)
        path = os.path.dirname(path)
    return missing


def cmd_run(args: argparse.Namespace) -> int:
    """Build the run under a hidden ``.<name>.partial`` sibling and rename it
    to ``<scenario>-seed<seed>-<stamp>`` only once every artifact is written,
    so a failed run leaves no run directory behind, nor the ``--out``
    directories it created."""
    config = load_config(args).check_state()
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    name = f"{config.scenario}-seed{config.seed}-{stamp}"
    staging = _unused_path(os.path.join(config.out, f".{name}.partial"))
    created = _missing_dirs(config.out)
    try:
        try:
            os.makedirs(staging)
        except OSError as err:
            raise ConfigError(f"out: cannot create a run directory in "
                              f"{config.out!r}: {err.strerror}") from err
        report = _write_run(staging, config)
        run_dir = _unused_path(os.path.join(config.out, name))
        os.rename(staging, run_dir)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        for path in created:
            try:
                os.rmdir(path)
            except OSError:
                break
        raise
    print(f"run directory: {run_dir}")
    print(report)
    return 0


def _write_run(run_dir: str, config: ScenarioConfig) -> str:
    """Every artifact of one run into ``run_dir``; returns the report lines."""
    scenario = config.scenario_obj()
    params = config.sim_params()
    _write_manifest(run_dir, config)

    # an overflowing path ends in the error below, not in numpy's warnings;
    # pool workers fork inside this context and inherit it
    with np.errstate(over="ignore", invalid="ignore"):
        ensemble = momentum.collect(scenario, params, config.paths,
                                    workers=config.effective_workers())
    bad = np.flatnonzero(~np.isfinite(ensemble.values))
    if len(bad):
        raise StochmechError(f"{len(bad)} of {len(ensemble)} momentum samples are not "
                             f"finite, the first at path {ensemble.path_indices[bad[0]]}")
    tableio.write_table(os.path.join(run_dir, "ensemble.tsv"), {
        "path_index": ensemble.path_indices,
        "P": ensemble.values,
        "T_used": np.full(len(ensemble), params.span),
    })

    density = scenario.target_density()
    wf.write_density(density, os.path.join(run_dir, "density.tsv"))

    hist = stats.Histogram.from_samples(ensemble.values, bins=64)
    tableio.write_table(os.path.join(run_dir, "histogram.tsv"), {
        "left_edge": hist.edges[:-1],
        "right_edge": hist.edges[1:],
        "count": hist.counts,
        "density": hist.density,
    })

    mom = stats.moments(ensemble.values)
    ks = stats.ks_against_density(ensemble.values, density)
    # one count per path stepped; a plain collect steps x_F alone
    ood = {side: int(ensemble.extras[f"out_of_domain_{side}"].sum())
           for side in ("free", "interacting") if f"out_of_domain_{side}" in ensemble.extras}
    summary = {
        "sample_count": mom.n,
        "mean": mom.mean,
        "variance": mom.variance,
        "stderr_mean": mom.stderr_mean,
        "stderr_variance": mom.stderr_variance,
        "ks_statistic": ks.statistic,
        "ks_pvalue": ks.pvalue,
        "out_of_domain_evaluations": sum(ood.values()),
        "out_of_domain_by_side": ood,
        "provenance": ensemble.provenance,
    }
    tableio.write_json(os.path.join(run_dir, "summary.json"), summary)

    if config.dump_paths:
        _dump_paths(run_dir, config)

    return (f"momentum samples: {mom.n}\n"
            f"mean(P) = {mom.mean:.5f} +- {mom.stderr_mean:.5f}\n"
            f"var(P)  = {mom.variance:.5f} +- {mom.stderr_variance:.5f}\n"
            f"KS vs quantum momentum density: D = {ks.statistic:.5f}, p = {ks.pvalue:.4f}")


def cmd_verify(args: argparse.Namespace) -> int:
    # imported here, so that run and density never load the oracle modules
    from . import verify
    config = load_config(args)
    if config.scenario != "oscillator-ground":
        raise ConfigError("scenario: verify requires the oscillator-ground scenario")
    # the battery records x every AUTOCOV_SPACING and runs its meshes to
    # multiples of it, so each must be a whole number of steps
    spacing = verify.AUTOCOV_SPACING
    steps = round(spacing / config.dt)
    if steps < 1 or abs(steps * config.dt - spacing) > 1e-9 * spacing:
        raise ConfigError(f"dt: verify needs {spacing:g} / dt to be a whole number")
    # an overflowing path fails its check, not in numpy's warnings; pool
    # workers fork inside this context and inherit it
    with np.errstate(over="ignore", invalid="ignore"):
        results = verify.run_verification(nu=config.nu, dt=config.dt,
                                          horizon=config.horizon, m=config.paths,
                                          seed=config.seed,
                                          workers=config.effective_workers())
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else 1


def cmd_density(args: argparse.Namespace) -> int:
    config = load_config(args).check_state()
    density = config.scenario_obj().target_density()
    if "out" in vars(args):
        try:
            out_dir = tableio.ensure_dir(config.out)
        except OSError as err:
            raise ConfigError(f"out: cannot create the directory "
                              f"{config.out!r}: {err.strerror}") from err
        path = os.path.join(out_dir, "density.tsv")
        wf.write_density(density, path)
        print(f"wrote {path}")
    else:
        sys.stdout.write("p\trho\n")
        sys.stdout.writelines(tableio.format_rows([density.p, density.density]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochmech",
        description="Monte Carlo momentum sampling on coupled quantum diffusions")
    sub = parser.add_subparsers(dest="command", required=True)

    # a flag left out is absent from the parsed arguments
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", default=None, help="JSON config file; flags override it")
    common.add_argument("--scenario", choices=SCENARIO_KINDS)
    common.add_argument("--nu", type=float, help="diffusion parameter")
    common.add_argument("--dt", type=float, help="time step")
    common.add_argument("--horizon", type=float, help="simulated horizon T")
    common.add_argument("--paths", type=int, help="ensemble size M")
    common.add_argument("--seed", type=int, help="master seed")
    common.add_argument("--policy", choices=POLICIES, help="momentum reduction, x_F(T) / T")
    common.add_argument("--out", help="output directory")
    common.add_argument("--workers", type=int, help="worker processes")

    run_parser = sub.add_parser("run", parents=[common],
                                help="simulate an ensemble and write artifacts")
    run_parser.add_argument("--dump-paths", action="store_true", default=argparse.SUPPRESS,
                            help="write one t/x/x_F/dW table per path (large)")
    run_parser.set_defaults(func=cmd_run)

    verify_parser = sub.add_parser("verify", parents=[common],
                                   help="run the closed-form oracle cross-checks")
    verify_parser.set_defaults(func=cmd_verify)

    density_parser = sub.add_parser("density", parents=[common],
                                    help="emit the quantum momentum density")
    density_parser.set_defaults(func=cmd_density)
    return parser


def main(argv=None) -> int:
    # At exit the interpreter collects the cycles of every module it tears
    # down, most of a run's teardown; freezing what is alive then skips them.
    # Refcount cleanup, stream flushing and other atexit handlers still run.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except StochmechError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the stream
        sys.stderr.close()
        return 141


if __name__ == "__main__":
    sys.exit(main())
