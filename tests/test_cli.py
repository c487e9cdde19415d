"""Configuration handling, run artifacts, determinism, and the verify battery."""

import argparse
import concurrent.futures
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from stochmech import cli, momentum, oscillator, scenarios, sde, tableio, verify
from stochmech.errors import ConfigError, StochmechError
from stochmech.scenarios import Scenario


def run_main(*argv):
    return cli.main(list(argv))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_default_config_is_valid():
    cli.ScenarioConfig().validate()


# grids the config describes but the state cannot be built on; before, each
# crashed every run and density with a traceback
DEGENERATE_GRIDS = {
    "subnormal-spacing": {"grid_extent": (0.0, 1e-320)},
    "overflowing-spacing": {"grid_extent": (-1e308, 1e308)},
    "all-zero-amplitude": {"grid_extent": (1e3, 1e4)},
    "too-many-points": {"grid_points": 5_000_000_000},
}


def test_config_rejects_bad_fields(tmp_path):
    with pytest.raises(ConfigError, match="paths"):
        cli.ScenarioConfig(paths=0).validate()
    with pytest.raises(ConfigError, match="paths: must be >= 10"):
        cli.ScenarioConfig(paths=9).validate()      # the KS test needs 10
    cli.ScenarioConfig(paths=10).validate()
    with pytest.raises(ConfigError, match="policy"):
        cli.ScenarioConfig(policy="midpoint").validate()
    with pytest.raises(ConfigError, match="scenario"):
        cli.ScenarioConfig(scenario="double-well").validate()
    with pytest.raises(ConfigError, match="horizon/dt"):
        cli.ScenarioConfig(horizon=1.0005, dt=1e-3).validate()
    with pytest.raises(ConfigError, match="nu"):
        cli.ScenarioConfig(nu=-1.0).validate()
    with pytest.raises(ConfigError, match="^seed: must be non-negative$"):
        cli.ScenarioConfig(seed=-1).validate()
    with pytest.raises(ConfigError, match="state_file"):
        cli.ScenarioConfig(scenario="grid-custom",
                           state_file=str(tmp_path / "missing.tsv")).validate().check_state()
    for grid in DEGENERATE_GRIDS.values():
        with pytest.raises(ConfigError, match=f"^{next(iter(grid))}: "):
            cli.ScenarioConfig(**grid).validate().check_state()
    cli.ScenarioConfig(grid_points=scenarios.GRID_POINT_LIMIT).validate().check_state()


@pytest.mark.parametrize("field, value", [
    ("nu", math.nan), ("nu", math.inf), ("nu", 0.0), ("nu", -1.0), ("nu", -math.inf),
    ("grid_points", 15), ("grid_points", 2 ** 20 + 1), ("grid_extent", (1.0, 1.0)),
])
def test_scenario_checks_its_own_fields(field, value):
    # library callers build a Scenario without a ScenarioConfig; before, a
    # NaN or infinite nu built one whose drifts returned NaN
    with pytest.raises(ConfigError, match=f"^{field}: "):
        Scenario(**{"kind": "oscillator-ground", "nu": 0.5, field: value})


@pytest.mark.parametrize("case", list(DEGENERATE_GRIDS))
@pytest.mark.parametrize("command", ["run", "density"])
def test_degenerate_grid_is_a_config_error(tmp_path, capsys, command, case):
    out = tmp_path / "runs"
    cfg_path = tmp_path / "config.json"
    grid = {name: list(value) if isinstance(value, tuple) else value
            for name, value in DEGENERATE_GRIDS[case].items()}
    cfg_path.write_text(json.dumps({"paths": 10, "horizon": 0.1, "workers": 1,
                                    "out": str(out), **grid}))
    assert run_main(command, "--config", str(cfg_path)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"configuration error: {next(iter(grid))}: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "density", "verify"])
def test_only_the_commands_that_read_the_default_grid_check_it(tmp_path, capsys, command):
    # verify never reads the config's grid; before, it refused this one too
    out = tmp_path / "runs"
    cfg_path = tmp_path / "g.json"
    cfg_path.write_text(json.dumps({"grid_extent": [100.0, 200.0]}))
    code = run_main(command, "--config", str(cfg_path), "--paths", "20", "--horizon", "1",
                    "--workers", "1", "--out", str(out))
    captured = capsys.readouterr()
    if command == "verify":
        lines = captured.out.splitlines()
        assert code == 0, captured
        assert len(lines) == 5 and all(line.startswith("PASS ") for line in lines), lines
    else:
        assert code == 2
        assert captured.err == ("configuration error: grid_extent: [100.0, 200.0] with 4096 "
                                "points: cannot normalize a zero amplitude\n")
        assert not out.exists()


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("horizon, dt", [("1", "1e-300"), ("1e300", "1"), ("1e300", "1e-300")])
def test_more_steps_than_numpy_can_index_is_a_config_error(tmp_path, capsys, command,
                                                           horizon, dt):
    # before, run failed after staging its directory and verify printed a
    # traceback
    out = tmp_path / "runs"
    code = run_main(command, "--horizon", horizon, "--dt", dt, "--paths", "10",
                    "--workers", "1", "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: horizon/dt: horizon / dt must be at most")
    assert "Traceback" not in err
    assert not out.exists()


# each run flag with a value unlike the config file's below, and the field
# value it stands for
FLAG_OVERRIDES = {
    "--scenario": ("oscillator-ground", "oscillator-ground"),
    "--nu": ("1.0", 1.0),
    "--dt": ("0.01", 0.01),
    "--horizon": ("2.0", 2.0),
    "--paths": ("30", 30),
    "--seed": ("7", 7),
    "--policy": ("ratio", "ratio"),      # its one legal value
    "--out": ("elsewhere", "elsewhere"),
    "--workers": ("3", 3),
    "--dump-paths": (None, True),
}


def _option_actions(command):
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return [action for action in sub.choices[command]._actions
            if action.option_strings and not isinstance(action, argparse._HelpAction)]


@pytest.mark.parametrize("command", ["run", "verify", "density"])
def test_every_flag_sets_the_config_field_of_its_dest(command):
    # a flag whose dest names no field would be dropped without a word
    fields = {field.name for field in dataclasses.fields(cli.ScenarioConfig)}
    dests = {action.dest for action in _option_actions(command)} - {"config"}
    assert dests <= fields
    if command == "run":
        assert {action.option_strings[0] for action in _option_actions("run")} == \
            {"--config", *FLAG_OVERRIDES}


@pytest.mark.parametrize("flag", list(FLAG_OVERRIDES))
def test_config_file_with_flag_overrides(tmp_path, flag):
    # a flag wins over the file, and sets its own field alone
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"scenario": "free-gaussian", "nu": 0.25,
                                    "paths": 20, "horizon": 1.0}))
    text, value = FLAG_OVERRIDES[flag]
    argv = ["run", "--config", str(cfg_path), flag] + ([text] if text is not None else [])
    config = cli.load_config(cli.build_parser().parse_args(argv))
    dest = flag[2:].replace("-", "_")
    assert config == dataclasses.replace(cli.ScenarioConfig.from_file(cfg_path),
                                         **{dest: value})


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"ensemble": 10}))
    with pytest.raises(ConfigError, match="unknown fields"):
        cli.ScenarioConfig.from_file(cfg_path)


@pytest.mark.parametrize("payload,field", [
    (None, "config"),                           # no such file
    ({"paths": "ten"}, "paths"),
    ({"grid_extent": [1]}, "grid_extent"),
    ({"seed": 1.5}, "seed"),
    ({"seed": True}, "seed"),
    ({"nu": "0.5"}, "nu"),
    ({"horizon": float("nan")}, "horizon"),
    ({"dump_paths": "yes"}, "dump_paths"),
    ({"state_file": 3}, "state_file"),
])
def test_config_file_values_are_type_checked(tmp_path, capsys, payload, field):
    cfg_path = tmp_path / "config.json"
    if payload is not None:
        cfg_path.write_text(json.dumps(payload))
    out = tmp_path / "runs"
    code = run_main("run", "--config", str(cfg_path), "--paths", "10", "--horizon", "0.1",
                    "--workers", "1", "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {field}: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_config_file_accepts_its_own_echo(tmp_path):
    # the manifest's config echo, null workers included, reads back as is;
    # with a state file it leaves out the grid the file sets
    cfg_path = tmp_path / "config.json"
    for config in (cli.ScenarioConfig(grid_extent=(-10, 10.5), state_file=None, workers=None),
                   cli.ScenarioConfig(scenario="grid-custom", state_file="state.tsv")):
        cfg_path.write_text(json.dumps(config.to_dict()))
        assert cli.ScenarioConfig.from_file(cfg_path) == config


@pytest.mark.parametrize("command", ["run", "verify", "density"])
def test_a_config_naming_t0_is_refused(tmp_path, capsys, command):
    # every run starts at t = 0; t0 is no config field
    out = tmp_path / "runs"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"t0": 0.0, "paths": 10, "horizon": 0.1, "workers": 1,
                                    "out": str(out)}))
    assert run_main(command, "--config", str(cfg_path)) == 2
    captured = capsys.readouterr()
    assert captured.err == "configuration error: config: unknown fields ['t0']\n"
    assert captured.out == ""
    assert not out.exists()


def _state_table(x, re_psi, im_psi=None):
    im_psi = np.zeros(len(x)) if im_psi is None else im_psi
    return "x\tre_psi\tim_psi\n" + "".join(f"{a}\t{b}\t{c}\n" for a, b, c in zip(x, re_psi, im_psi))


def _far_grid(center, stretch=0.0):
    """np.linspace(center - 20, center + 20, 4096), with interval 2048
    longer by ``stretch`` times the spacing."""
    x = np.linspace(center - 20.0, center + 20.0, 4096)
    x[2049:] += stretch * (x[1] - x[0])
    return x


# the ground state on the far grid, from offsets that are exact
FAR_PSI = np.exp(-0.5 * np.linspace(-20.0, 20.0, 4096) ** 2)

GRID = np.linspace(-4.0, 4.0, 16)
PSI = np.exp(-0.5 * GRID * GRID)
BAD_STATE_FILES = {
    "no-im_psi-column": "x\tre_psi\n" + "".join(f"{a}\t{b}\n" for a, b in zip(GRID, PSI)),
    "non-numeric-cell": _state_table(GRID, PSI, ["abc"] + [0.0] * 15),
    "short-row": _state_table(GRID, PSI).replace("\t0.0\n", "\n", 1),
    "short-rows": _state_table(GRID, PSI).replace("\t0.0\n", "\n"),
    "nan-amplitude": _state_table(GRID, np.where(GRID > 0, np.nan, PSI)),
    "inf-grid-point": _state_table(np.append(GRID[:-1], np.inf), PSI),
    "non-uniform-grid": _state_table(GRID ** 3, PSI),
    "decreasing-grid": _state_table(GRID[::-1], PSI),
    "three-rows": _state_table(GRID[:3], PSI[:3]),
    "zero-amplitude": _state_table(GRID, np.zeros(16)),
    # the last of two re_psi columns used to win: all 1.0, and Var(P) read 2186
    "duplicate-column": "x\tre_psi\tim_psi\tre_psi\n"
                        + "".join(f"{a}\t{b}\t0.0\t1.0\n" for a, b in zip(GRID, PSI)),
    # uniform but for one interval longer by 1e-6 h, away from the origin
    **{f"long-interval-at-{center:g}": _state_table(_far_grid(center, 1e-6), FAR_PSI)
       for center in (1e5, 1e6)},
}


@pytest.mark.parametrize("case", list(BAD_STATE_FILES))
@pytest.mark.parametrize("command", ["run", "density"])
def test_bad_state_file_is_a_config_error(tmp_path, capsys, command, case):
    state_path = tmp_path / "state.tsv"
    state_path.write_text(BAD_STATE_FILES[case])
    out = tmp_path / "runs"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"scenario": "grid-custom", "state_file": str(state_path),
                                    "paths": 10, "horizon": 0.1, "workers": 1,
                                    "out": str(out)}))
    assert run_main(command, "--config", str(cfg_path)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: state_file: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("center", [1e5, 1e6])
def test_uniform_state_file_far_from_the_origin_runs(tmp_path, center):
    # its coordinates round to an ulp of 1e5 (1.5e-11) or 1e6, which an
    # absolute tolerance of 1e-12 refused as a non-uniform grid
    state_path = tmp_path / "state.tsv"
    state_path.write_text(_state_table(_far_grid(center), FAR_PSI))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"scenario": "grid-custom", "state_file": str(state_path),
                                    "paths": 10, "horizon": 0.1, "workers": 1,
                                    "out": str(tmp_path / "runs")}))
    assert run_main("run", "--config", str(cfg_path)) == 0


def test_invalid_paths_leaves_no_artifacts(tmp_path):
    out = tmp_path / "runs"
    code = run_main("run", "--paths", "0", "--out", str(out))
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "verify"])
def test_paths_beyond_what_numpy_can_index_is_a_config_error(tmp_path, capsys, command):
    # before, both ended in momentum.chunk_indices with a ValueError traceback
    out = tmp_path / "runs"
    assert run_main(command, "--paths", str(10 ** 20), "--out", str(out)) == 2
    limit = np.iinfo(np.intp).max
    assert capsys.readouterr().err == (f"configuration error: paths: must be <= {limit}, "
                                       f"the most numpy can index\n")
    assert not out.exists()
    cli.ScenarioConfig(paths=limit).validate()


@pytest.mark.parametrize("scenario", ["oscillator-ground", "free-gaussian", "grid-custom"])
def test_non_finite_momentum_samples_are_an_error(tmp_path, capsys, scenario):
    # nu = 1e300 overflows x_F to NaN; before, the histogram of the samples
    # ended the run in a ValueError traceback
    out = tmp_path / "runs"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = run_main("run", "--scenario", scenario, "--nu", "1e300", "--horizon", "0.01",
                        "--paths", "10", "--workers", "1", "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err == ("error: 10 of 10 momentum samples are not finite, "
                                       "the first at path 0\n")
    assert not out.exists()


@pytest.mark.parametrize("paths, workers", [(10, 1), (2100, 2)])
def test_overflowing_run_prints_only_its_error(tmp_path, paths, workers):
    # before, numpy's overflow and invalid-value warnings, with their source
    # lines, came first: from this process, or from each of two pool workers
    out = tmp_path / "runs"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "stochmech", "run", "--nu", "1e300", "--horizon", "0.01",
         "--paths", str(paths), "--workers", str(workers), "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 1
    assert proc.stderr == (f"error: {paths} of {paths} momentum samples are not finite, "
                           f"the first at path 0\n")
    assert proc.stdout == ""
    assert not out.exists()


def test_non_finite_samples_are_counted_from_the_first_bad_path(tmp_path, capsys, monkeypatch):
    collect = momentum.collect

    def spoiled(*args, **kwargs):
        ensemble = collect(*args, **kwargs)
        ensemble.values[[3, 7]] = [np.inf, np.nan]
        return ensemble

    monkeypatch.setattr(momentum, "collect", spoiled)
    out = tmp_path / "runs"
    assert run_main("run", "--paths", "10", "--horizon", "0.1", "--workers", "1",
                    "--out", str(out)) == 1
    assert capsys.readouterr().err == ("error: 2 of 10 momentum samples are not finite, "
                                       "the first at path 3\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("flag, value", [
    ("--nu", "inf"), ("--dt", "inf"), ("--horizon", "inf"), ("--dt", "nan")])
def test_non_finite_float_flags_are_config_errors(tmp_path, capsys, command, flag, value):
    # argparse's float() accepts inf and nan; without the check --horizon inf
    # overflowed in SimParams and --nu inf simulated a whole ensemble first
    out = tmp_path / "runs"
    args = {"--nu": "0.5", "--dt": "0.001", "--horizon": "0.1", flag: value}
    code = run_main(command, "--paths", "10", "--workers", "1", "--out", str(out),
                    *(item for pair in args.items() for item in pair))
    assert code == 2
    assert f"{flag[2:]}: must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_uncreatable_out_is_a_config_error(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    code = run_main("run", "--paths", "10", "--horizon", "0.1", "--workers", "1",
                    "--out", str(afile))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: out: ")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [afile]


def test_failed_run_keeps_an_existing_out_directory(tmp_path, monkeypatch):
    def fail(run_dir, config):
        raise StochmechError("boom")

    monkeypatch.setattr(cli, "_write_run", fail)
    out = tmp_path / "runs"
    out.mkdir()
    assert run_main("run", "--out", str(out / "a" / "b")) == 1
    # the run created a/b and removes both; runs was there before and stays
    assert out.is_dir() and not any(out.iterdir())


def test_oversized_dump_is_refused_before_any_artifact(tmp_path, capsys):
    # the default scale would dump 10^4 x 50,001 rows
    out = tmp_path / "runs"
    code = run_main("run", "--dump-paths", "--out", str(out))
    assert code == 2
    assert not out.exists()
    assert "dump_paths:" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="dump_paths"):
        cli.ScenarioConfig(paths=400, dump_paths=True).validate()
    cli.ScenarioConfig(paths=399, dump_paths=True).validate()   # 19,950,399 rows
    cli.ScenarioConfig(paths=400).validate()                     # no dump, no limit


def test_default_workers_follow_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert cli.ScenarioConfig().effective_workers() == 3
    assert cli.ScenarioConfig(workers=7).effective_workers() == 3
    assert cli.ScenarioConfig(workers=2).effective_workers() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli.ScenarioConfig().effective_workers() == 64


def test_workers_beyond_the_usable_cpus_start_no_pool(tmp_path, monkeypatch):
    # 2,100 paths make two chunks, which --workers 1000 would put on a pool
    # of two processes; on one usable CPU they run in this process
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    # momentum imports the pool class from here only when it starts a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert run_main("run", "--paths", "2100", "--horizon", "0.01", "--workers", "1000",
                    "--out", str(tmp_path)) == 0


def test_policy_accepts_only_ratio(tmp_path, capsys):
    # x_F(T) / T is the one momentum reduction; --policy and the config key
    # stay for configs that name it
    with pytest.raises(SystemExit) as exit_:
        run_main("run", "--policy", "extrapolated", "--out", str(tmp_path / "flag"))
    assert exit_.value.code == 2
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"policy": "extrapolated"}))
    assert run_main("run", "--config", str(cfg_path), "--out", str(tmp_path / "file")) == 2
    assert "policy: 'extrapolated'" in capsys.readouterr().err
    assert not (tmp_path / "flag").exists() and not (tmp_path / "file").exists()
    assert run_main("run", "--policy", "ratio", "--horizon", "0.001", "--dt", "0.001",
                    "--paths", "10", "--workers", "1", "--out", str(tmp_path / "ratio")) == 0


# ---------------------------------------------------------------------------
# run artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    code = run_main("run", "--paths", "40", "--horizon", "2.0", "--seed", "5",
                    "--out", str(out), "--workers", "1", "--dump-paths")
    assert code == 0
    (run_dir,) = out.iterdir()
    return run_dir


def test_run_writes_expected_artifacts(small_run):
    names = {p.name for p in small_run.iterdir()}
    assert {"manifest.json", "ensemble.tsv", "density.tsv", "histogram.tsv",
            "summary.json", "paths"} <= names
    hist = tableio.read_table(small_run / "histogram.tsv")
    widths = hist["right_edge"] - hist["left_edge"]
    assert abs(float(np.sum(hist["density"] * widths)) - 1.0) < 1e-12
    manifest = json.loads((small_run / "manifest.json").read_text())
    assert manifest["version"]
    assert manifest["config"]["paths"] == 40
    assert manifest["config"]["seed"] == 5
    summary = json.loads((small_run / "summary.json").read_text())
    assert summary["sample_count"] == 40
    assert summary["provenance"]["scenario"] == "oscillator-ground"
    assert 0.0 <= summary["ks_pvalue"] <= 1.0


def test_run_ensemble_table_layout(small_run):
    cols = tableio.read_table(small_run / "ensemble.tsv")
    assert list(cols) == ["path_index", "P", "T_used"]
    assert len(cols["P"]) == 40
    assert np.array_equal(cols["path_index"], np.arange(40))
    assert np.all(cols["T_used"] == 2.0)


def test_t_used_is_the_time_p_is_divided_by(tmp_path):
    # 3 steps of 0.1 span 0.30000000000000004; before, T_used read the
    # configured horizon, 0.29999999999999999
    out = tmp_path / "runs"
    assert run_main("run", "--paths", "12", "--horizon", "0.3", "--dt", "0.1",
                    "--workers", "1", "--out", str(out)) == 0
    (run_dir,) = out.iterdir()
    cols = tableio.read_table(run_dir / "ensemble.tsv")
    assert 3 * 0.1 != 0.3
    assert np.all(cols["T_used"] == 3 * 0.1)


def test_dumped_path_satisfies_recursion(small_run):
    cols = tableio.read_table(small_run / "paths" / "path_00003.tsv")
    assert list(cols) == ["t", "x", "x_F", "dW"]
    x, dw, t = cols["x"], cols["dW"], cols["t"]
    dt = t[1] - t[0]
    nu = 0.5
    rebuilt = x[:-1] + (-2.0 * nu * x[:-1]) * dt + dw[:-1]
    assert np.array_equal(x[1:], rebuilt)          # %.17g round-trips exactly


def test_reruns_are_byte_identical(tmp_path, monkeypatch):
    # every data artifact (manifest carries a timestamp) is byte-stable
    # across re-runs, worker counts and the dump's batch and block sizes:
    # batches of 8 paths and blocks of 200 steps make the 30 dumped paths
    # span 4 batches of 5 noise blocks each
    artifacts = ("ensemble.tsv", "density.tsv", "histogram.tsv", "summary.json")
    outs = []
    for sub, workers, batch, block in (("a", "1", 8, 200), ("b", "2", 8, 200),
                                       ("c", "1", cli.DUMP_BATCH, sde.BLOCK)):
        monkeypatch.setattr(cli, "DUMP_BATCH", batch)
        monkeypatch.setattr(sde, "BLOCK", block)
        out = tmp_path / sub
        code = run_main("run", "--paths", "30", "--horizon", "1.0", "--seed", "11",
                        "--out", str(out), "--workers", workers, "--dump-paths")
        assert code == 0
        (run_dir,) = out.iterdir()
        dumps = sorted((run_dir / "paths").iterdir())
        assert len(dumps) == 30
        outs.append(tuple((run_dir / name).read_bytes() for name in artifacts)
                    + tuple((p.name, p.read_bytes()) for p in dumps))
    assert outs[0] == outs[1] == outs[2]


# SHA-256 of the concatenated paths/*.tsv, in name order, of a 12-path dump
# at T = 1.2 (three noise blocks), seed 5, one worker, and of its density.tsv
DUMP_DIGESTS = {
    "oscillator-ground": "1cc7ba38f7737fd92cdb500ec990590f1dd4c8f56c513b9072caddea0ad58ab4",
    "free-gaussian": "82ca9a65396a8d94cd1447264115e5ef0a4ad1cacc28ffc7348450c9419037c0",
    "grid-custom": "dfc9777c71e489478cdd9c05d83b052585ff0a4212df097164f5447d3e4b3ed7",
}
DENSITY_DIGEST = "d894e7c401cf883bf5d66773c05fd03e501699456372f29df910ba75bb520c9f"


@pytest.mark.parametrize("scenario", sorted(DUMP_DIGESTS))
def test_dump_and_density_bytes_are_pinned(tmp_path, scenario):
    assert run_main("run", "--scenario", scenario, "--paths", "12", "--horizon", "1.2",
                    "--seed", "5", "--workers", "1", "--dump-paths",
                    "--out", str(tmp_path)) == 0
    (run_dir,) = tmp_path.iterdir()
    dumps = sorted((run_dir / "paths").iterdir())
    assert len(dumps) == 12
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in dumps)).hexdigest()
    assert digest == DUMP_DIGESTS[scenario]
    assert hashlib.sha256((run_dir / "density.tsv").read_bytes()).hexdigest() == DENSITY_DIGEST


def test_dump_rebuilds_uncached_free_slices_once_per_batch(tmp_path, monkeypatch):
    # 600 steps: each batch builds the 88 free slices past the evaluator's
    # 512-entry cache again, so 40 paths in one default batch build every
    # slice once, and in batches of 16 build the 88 three times
    from stochmech import wavefunction as wf
    drift = wf.drift
    slices = []

    def counting_drift(state, nu):
        slices.append(nu)
        return drift(state, nu)

    monkeypatch.setattr(wf, "drift", counting_drift)
    config = cli.ScenarioConfig(scenario="grid-custom", paths=40, horizon=0.6, seed=47,
                                grid_extent=(-30.0, 30.0), grid_points=1024)
    assert config.paths <= cli.DUMP_BATCH
    built = []
    for batch in (cli.DUMP_BATCH, 16):
        monkeypatch.setattr(cli, "DUMP_BATCH", batch)
        run_dir = tmp_path / f"batch{batch}"
        run_dir.mkdir()
        slices.clear()
        cli._dump_paths(str(run_dir), config)
        built.append(len(slices))
    # one interacting drift, then the free slices
    assert built == [1 + 600, 1 + 600 + 2 * (600 - 512)]


def test_dump_memory_does_not_grow_with_the_horizon(tmp_path):
    # the dump writes each block of rows before it draws the next, so its
    # peak at T = 8 is its peak at T = 2; holding whole paths, it grew by
    # about 1.7 MB.  An untraced first dump fills what any first call fills
    def dump(horizon):
        run_dir = tmp_path / f"T{horizon}"
        run_dir.mkdir()
        cli._dump_paths(str(run_dir), cli.ScenarioConfig(paths=16, horizon=horizon, seed=5))

    dump(0.1)
    peaks = []
    for horizon in (2.0, 8.0):
        tracemalloc.start()
        try:
            dump(horizon)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 64 * 1024, peaks


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_failed_dump_leaves_no_run_directory_and_no_open_file(tmp_path, monkeypatch, capsys):
    co_integrate_batch = sde.co_integrate_batch
    calls = []

    def fail_in_the_second_block(*args, **kwargs):
        calls.append(kwargs["start"])
        if len(calls) == 2:
            raise StochmechError("boom")
        return co_integrate_batch(*args, **kwargs)

    monkeypatch.setattr(sde, "co_integrate_batch", fail_in_the_second_block)
    fds = sorted(os.listdir("/proc/self/fd"))
    out = tmp_path / "runs"
    code = run_main("run", "--paths", "10", "--horizon", "1.2", "--workers", "1",
                    "--dump-paths", "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err == "error: boom\n"
    assert calls == [0, sde.BLOCK]
    assert not out.exists()
    assert sorted(os.listdir("/proc/self/fd")) == fds


def test_dumped_paths_match_single_path_integration(small_run):
    # the batched dump reproduces the single-path integrators bit for bit
    config = cli.ScenarioConfig(paths=40, horizon=2.0, seed=5)
    interacting, free = config.scenario_obj().drift_fields()
    sampler = config.scenario_obj().initial_sampler()
    for index in (0, 7, 8, 39):
        params = config.sim_params().with_path_index(index)
        path = sde.integrate(interacting, sde.draw_initial(params, sampler), params)
        pair = sde.co_integrate((interacting, free), path)
        cols = tableio.read_table(small_run / "paths" / f"path_{index:05d}.tsv")
        assert np.array_equal(cols["t"], path.times)
        assert np.array_equal(cols["x"], path.positions)
        assert np.array_equal(cols["x_F"], pair.free_positions)
        assert np.array_equal(cols["dW"], np.append(path.increments, 0.0))


# ---------------------------------------------------------------------------
# density subcommand
# ---------------------------------------------------------------------------

def test_density_to_stdout(capsys):
    assert run_main("density", "--scenario", "free-gaussian") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "p\trho"
    values = np.array([line.split("\t") for line in lines[1:]], dtype=float)
    p, rho = values[:, 0], values[:, 1]
    widths = np.diff(p)
    integral = float(np.sum(0.5 * (rho[1:] + rho[:-1]) * widths))
    assert abs(integral - 1.0) < 1e-6


def test_density_to_file(tmp_path):
    out = tmp_path / "density_out"
    assert run_main("density", "--out", str(out)) == 0
    cols = tableio.read_table(out / "density.tsv")
    assert list(cols) == ["p", "rho"]


def test_density_out_onto_a_file_is_a_config_error(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    assert run_main("density", "--out", str(afile)) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: out: ")
    assert "Traceback" not in err
    assert afile.read_text() == ""


# ---------------------------------------------------------------------------
# verify battery (reduced scale; acceptance runs the stated sizes)
# ---------------------------------------------------------------------------

_CLOSED_FORM_CHECK = verify.check_coupled_closed_form


def _closed_form_check_on_40_paths(**kwargs):
    # a module function, unlike a partial of the patched-over check, so that
    # pool workers unpickle it by name
    return _CLOSED_FORM_CHECK(**kwargs, n_paths=40)


def test_verify_checks_pass_at_reduced_scale(monkeypatch):
    scale = dict(nu=0.5, dt=2e-3, horizon=10.0, m=400, seed=99)
    monkeypatch.setattr(verify, "check_coupled_closed_form", _closed_form_check_on_40_paths)
    pooled = verify.run_verification(**scale, workers=2)
    # one worker runs every job in process: wrappers on the module's check_*
    # attributes, as perfbench installs them, see all five checks
    checks = ("check_coupled_closed_form", "check_picard_equivalence",
              "check_autocovariance", "check_momentum_consistency",
              "check_nu_invariance")
    calls = []
    for name in checks:
        def counted(*args, _check=getattr(verify, name), _name=name, **kwargs):
            calls.append(_name)
            return _check(*args, **kwargs)
        monkeypatch.setattr(verify, name, counted)
    results = verify.run_verification(**scale, workers=1)
    assert sorted(calls) == sorted(checks)
    for result in results:
        assert result.passed, result.line()
    assert len(results) == 5
    assert [r.line() for r in pooled] == [r.line() for r in results]
    assert [r.data for r in pooled] == [r.data for r in results]


def test_verify_closed_form_check_scales_with_coarse_dt():
    fine = verify.check_coupled_closed_form(dt=1e-3, n_paths=20, seed=7)
    coarse = verify.check_coupled_closed_form(dt=0.1, n_paths=20, seed=7)
    assert coarse.passed                      # threshold scales with dt
    assert coarse.data["devs"][0.1] > 10.0 * fine.data["devs"][1e-3]


def _closed_form_devs_on_whole_meshes(nu, dt, horizon, n_paths, seed):
    """The closed-form check's ``devs`` from whole-mesh arrays: all of every
    path's increments drawn at once, each mesh stepped in one call."""
    scenario = Scenario(kind="oscillator-ground", nu=nu)
    interacting, free = scenario.drift_fields()
    sampler = scenario.initial_sampler()
    fine = sde.SimParams(nu=nu, dt=0.5 * dt, horizon=horizon, seed=seed)
    coarse = sde.SimParams(nu=nu, dt=dt, horizon=horizon, seed=seed)
    dw = np.stack([rng.standard_normal(fine.steps)
                   for rng in sde.path_rngs(seed, range(n_paths), sde.STREAM_NOISE)], axis=1)
    dw *= fine.noise_scale
    x0 = sampler(sde.path_rngs(seed, range(n_paths), sde.STREAM_INITIAL))
    devs = {}
    for params, incs in ((fine, dw), (coarse, dw[0::2] + dw[1::2])):
        x = sde.integrate_batch(interacting, x0, params, incs)
        xf = sde.co_integrate_batch(free, x0, params, incs)
        cf, _ = oscillator.coupled_path_closed_form(params.times(), x, nu)
        devs[params.dt] = float(np.mean(np.max(np.abs(xf - cf), axis=0)))
    return devs


@pytest.mark.parametrize("n_paths", [1, 7])
@pytest.mark.parametrize("fine_steps", [200, sde.BLOCK, sde.BLOCK + 2, 2 * sde.BLOCK,
                                        2 * sde.BLOCK + 2, 1300])
def test_streamed_closed_form_check_matches_whole_meshes(fine_steps, n_paths):
    # dt/2 meshes shorter than one noise block, one and two blocks, each of
    # them and a pair, and several blocks with a short last one; the check
    # holds no whole mesh
    assert sde.BLOCK % 2 == 0 and 200 < sde.BLOCK < 1300 and 1300 % sde.BLOCK
    dt = 1e-3
    horizon = fine_steps * 0.5 * dt
    result = verify.check_coupled_closed_form(dt=dt, horizon=horizon, n_paths=n_paths, seed=5)
    expected = _closed_form_devs_on_whole_meshes(0.5, dt, horizon, n_paths, 5)
    assert {k: v.hex() for k, v in result.data["devs"].items()} == \
        {k: v.hex() for k, v in expected.items()}


def test_closed_form_check_holds_one_mesh_at_a_time():
    # the check streams its dt/2 mesh in blocks, so its peak does not grow
    # with the horizon: below a quarter of one (steps + 1) x 100 array of
    # that mesh at T = 10 (20,001 rows) and at T = 20
    for horizon in (10.0, 20.0):
        tracemalloc.start()
        try:
            result = verify.check_coupled_closed_form(n_paths=100, horizon=horizon)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.passed
        assert peak < 0.25 * (round(horizon / 5e-4) + 1) * 100 * 8, (horizon, peak)


def test_verify_negative_control_flipped_gamma(monkeypatch):
    def tampered(t, nu):
        t = np.asarray(t, dtype=float)
        return -2.0 * nu * np.arctan(t) - 0.5 * np.log1p(t * t)

    good = verify.check_coupled_closed_form(n_paths=10, seed=7)
    monkeypatch.setattr(oscillator, "gamma", tampered)
    bad = verify.check_coupled_closed_form(n_paths=10, seed=7)
    assert good.passed
    assert not bad.passed


def _momentum_ensemble(values, horizon, dt=1e-3):
    return momentum.MomentumEnsemble(values=values, path_indices=np.arange(len(values)),
                                     provenance={"nu": 0.5, "horizon": horizon, "dt": dt})


def test_autocovariance_check_fails_on_a_nan_record():
    # before, max() dropped the NaN and an all-NaN record passed at 0.00
    # standard errors
    ensemble = _momentum_ensemble(np.zeros(20), 2.0)
    ensemble.extras["recorded_x"] = np.full((20, 5), np.nan)
    result = verify.check_autocovariance(ensemble)
    assert not result.passed, result.line()


def test_autocovariance_check_fails_on_a_record_with_no_spread():
    # before, a zero standard error raised ZeroDivisionError
    ensemble = _momentum_ensemble(np.zeros(20), 2.0)
    ensemble.extras["recorded_x"] = np.zeros((20, 5))
    with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        result = verify.check_autocovariance(ensemble)
    assert not result.passed, result.line()


def test_nu_invariance_ks_fails_on_nan_ensembles():
    # before, two-sample KS ordered NaN as equal values: all-NaN ensembles
    # read p = 1.000
    nan = _momentum_ensemble(np.full(20, np.nan), 1.0)
    result = verify.check_nu_invariance(nan, {0.25: nan, 1.0: nan})
    assert not result.passed
    assert all(math.isnan(p) for p in result.data["pvalues"].values()), result.line()


def test_verify_fails_the_picard_check_where_its_sweeps_diverge():
    # at nu 250 the Picard sweeps overflow; before, NoConvergence ended the
    # battery with no line printed, after numpy's overflow warnings
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "stochmech", "verify", "--nu", "250", "--paths", "12",
         "--horizon", "1", "--workers", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    lines = proc.stdout.splitlines()
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert len(lines) == 5, lines
    assert lines[1].startswith("FAIL picard equivalence: path 0: no convergence after "
                               "200 iterations (last residual "), lines


@pytest.mark.parametrize("variance,passes", [("euler", True), (0.5, False)])
def test_nu_invariance_band_is_centred_on_the_finite_horizon_variance(variance, passes):
    # at T = 1, Var(P) of the Euler scheme is 0.9997, not the T -> inf value 1/2
    horizon = 1.0
    if variance == "euler":
        variance = oscillator.euler_covariance(horizon, 0.5, 1e-3)[2, 2] / horizon ** 2
    z = np.random.default_rng(3).standard_normal(1000)
    values = math.sqrt(variance) * (z - z.mean()) / z.std(ddof=1)
    others = {nu: _momentum_ensemble(values.copy(), horizon) for nu in (0.25, 1.0)}
    result = verify.check_nu_invariance(_momentum_ensemble(values, horizon), others)
    assert result.passed is passes, result.line()


def test_verify_cli_passes_at_a_short_horizon(capsys):
    code = run_main("verify", "--paths", "40", "--horizon", "1", "--workers", "1")
    lines = capsys.readouterr().out.splitlines()
    assert code == 0, lines
    assert len(lines) == 5 and all(line.startswith("PASS ") for line in lines), lines


def test_batched_picard_check_matches_the_scalar_route():
    # the check steps its paths in one ensemble kernel run; one path at a
    # time through the single-path integrators gives the same worst gap and
    # ratio bit for bit
    nu, dt, horizon, n_paths, seed = 0.5, 1e-3, 1.0, 4, 2000
    result = verify.check_picard_equivalence(nu=nu, dt=dt, horizon=horizon,
                                             n_paths=n_paths, seed=seed)
    scenario = Scenario(kind="oscillator-ground", nu=nu)
    fields = scenario.drift_fields()
    sampler = scenario.initial_sampler()
    params = sde.SimParams(nu=nu, dt=dt, horizon=horizon, seed=seed)
    gap = ratio = 0.0
    for i in range(n_paths):
        p = params.with_path_index(i)
        path = sde.integrate(fields[0], sde.draw_initial(p, sampler), p)
        direct = sde.co_integrate(fields, path)
        xf, _, history = sde.picard_solve(fields, path.positions, path.times, dt)
        gap = max(gap, float(np.max(np.abs(xf - direct.free_positions))))
        ratios = np.array(history[1:]) / np.array(history[:-1])
        if len(ratios) > 1:
            ratio = max(ratio, float(ratios[1:].max()))
    assert ratio > 0.0
    assert result.data["gap"] == gap
    assert result.data["ratio"] == ratio


def test_verify_cli_requires_oscillator():
    assert run_main("verify", "--scenario", "free-gaussian") == 2


@pytest.mark.parametrize("state", ["missing", "valid"])
def test_verify_never_reads_the_state_file(tmp_path, capsys, monkeypatch, state):
    # verify runs the oscillator battery only; before, it read the state file
    # first, and reported a missing one in place of the scenario
    from stochmech import wavefunction as wf
    state_path = tmp_path / "state.tsv"
    if state == "valid":
        wf.write_state(wf.to_grid(wf.harmonic_ground_state(), points=64), state_path)
    reads = []
    monkeypatch.setattr(wf, "read_state", reads.append)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"scenario": "grid-custom", "state_file": str(state_path)}))
    assert run_main("verify", "--config", str(cfg_path)) == 2
    assert capsys.readouterr().err == ("configuration error: scenario: verify requires "
                                       "the oscillator-ground scenario\n")
    assert reads == []


@pytest.mark.parametrize("dt, horizon", [("0.003", "0.9"), ("0.4", "2.0"), ("0.2", "2.0")])
def test_verify_cli_refuses_a_dt_off_its_record_spacing(capsys, dt, horizon):
    # the battery records x every 0.5; before, the first two ended in a
    # traceback and 0.2 moved the record times onto the mesh without a word
    code = run_main("verify", "--dt", dt, "--horizon", horizon, "--paths", "20",
                    "--workers", "1")
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "configuration error: dt: verify needs 0.5 / dt to be a whole number\n"
    assert captured.out == ""


def test_verify_cli_nu_invariance_compares_three_distinct_nu(capsys):
    # the variants are at nu / 2 and 2 nu; before, --nu 0.25 replaced the
    # base ensemble by its 0.25 variant and compared two ensembles
    assert run_main("verify", "--nu", "0.25", "--paths", "40", "--horizon", "1",
                    "--workers", "1") == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert line.startswith("PASS nu invariance: Var(P) by nu: 0.125: "), line
    assert ", 0.25: " in line and ", 0.5: " in line and "KS p: 0.125: " in line, line


def test_verify_cli_small(capsys):
    code = run_main("verify", "--paths", "300", "--horizon", "10.0",
                    "--dt", "2e-3", "--seed", "21", "--workers", "1")
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(lines) == 5
    assert all(line.startswith("PASS") for line in lines)


# ---------------------------------------------------------------------------
# grid-custom via state file (exercises the tabular state interface)
# ---------------------------------------------------------------------------

def test_grid_custom_failure_is_reported_without_traceback(tmp_path, capsys):
    # the default grid's free drift meets a node near t = 2.47
    out = tmp_path / "new" / "runs"
    code = run_main("run", "--scenario", "grid-custom", "--horizon", "3",
                    "--paths", "10", "--workers", "1", "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: simulation failed in paths 0..9: ")
    assert "Traceback" not in err
    # not the hidden directory the run was built in, nor the --out
    # directories the run created on the way
    assert not (tmp_path / "new").exists()


def test_path_simulation_error_survives_pickling():
    # pool workers hand failures back to the parent by pickling them
    import pickle
    from stochmech.momentum import PathSimulationError
    err = PathSimulationError([4, 5, 6], ValueError("node"))
    back = pickle.loads(pickle.dumps(err))
    assert isinstance(back, StochmechError)
    assert back.path_indices == (4, 6)
    assert str(back) == str(err) == "simulation failed in paths 4..6: node"


@pytest.mark.parametrize("scenario", ["oscillator-ground", "free-gaussian"])
def test_state_file_of_an_analytic_scenario_is_a_config_error(tmp_path, capsys, scenario):
    state_path = tmp_path / "state.tsv"
    state_path.write_text(_state_table(GRID, PSI))
    out = tmp_path / "runs"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"scenario": scenario, "state_file": str(state_path),
                                    "paths": 10, "horizon": 0.1, "workers": 1,
                                    "out": str(out)}))
    assert run_main("run", "--config", str(cfg_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: state_file: ")
    assert not out.exists()
    with pytest.raises(ConfigError, match="^state_file: "):
        Scenario(kind=scenario, nu=0.5, state_file="s.tsv")


@pytest.mark.parametrize("field, value", [("grid_points", 64), ("grid_extent", [-1.0, 1.0])])
def test_state_file_beside_a_grid_field_is_a_config_error(tmp_path, capsys, field, value):
    # before, the run used the file's grid and the manifest echoed this one
    state_path = tmp_path / "state.tsv"
    state_path.write_text(_state_table(GRID, PSI))
    out = tmp_path / "runs"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"scenario": "grid-custom", "state_file": str(state_path),
                                    field: value, "paths": 10, "horizon": 0.1,
                                    "workers": 1, "out": str(out)}))
    assert run_main("run", "--config", str(cfg_path)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"configuration error: {field}: a state file sets its own grid\n"
    assert captured.out == ""
    assert not out.exists()


def test_grid_custom_run_reads_its_state_file_once(tmp_path, monkeypatch):
    from stochmech import wavefunction as wf
    state_path = tmp_path / "state.tsv"
    wf.write_state(wf.to_grid(wf.harmonic_ground_state(), extent=(-25.0, 25.0), points=512),
                   state_path)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "scenario": "grid-custom", "state_file": str(state_path),
        "paths": 10, "horizon": 0.2, "workers": 1, "out": str(tmp_path / "runs"),
    }))
    reads = []
    read_table = tableio.read_table

    def counted(path):
        reads.append(path)
        return read_table(path)

    monkeypatch.setattr(tableio, "read_table", counted)
    assert run_main("run", "--config", str(cfg_path), "--dump-paths") == 0
    assert reads == [str(state_path)]


def test_grid_custom_run_from_state_file(tmp_path):
    from stochmech import wavefunction as wf
    state = wf.to_grid(wf.harmonic_ground_state(), extent=(-25.0, 25.0), points=2048)
    state_path = tmp_path / "state.tsv"
    wf.write_state(state, state_path)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "scenario": "grid-custom",
        "state_file": str(state_path),
        "paths": 10, "horizon": 0.5, "dt": 1e-3, "seed": 3,
        "out": str(tmp_path / "runs"), "workers": 1,
    }))
    assert run_main("run", "--config", str(cfg_path)) == 0
    (run_dir,) = (tmp_path / "runs").iterdir()
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["sample_count"] == 10


@pytest.fixture
def interacting_calls(monkeypatch):
    """Times at which the interacting drift of any scenario is evaluated."""
    calls = []
    drift_fields = Scenario.drift_fields

    def spied(scenario):
        interacting, free = drift_fields(scenario)

        def evaluator(x, t):
            calls.append(t)
            return interacting.evaluator(x, t)

        return dataclasses.replace(interacting, evaluator=evaluator), free

    monkeypatch.setattr(Scenario, "drift_fields", spied)
    return calls


@pytest.mark.parametrize("reads, steps_x", [
    ({}, False),
    ({"record_times": [0.05]}, True),
    ({"time_weights": np.ones(51)}, True),
])
def test_collect_steps_x_only_for_what_reads_it(interacting_calls, reads, steps_x):
    params = sde.SimParams(nu=0.5, dt=1e-3, horizon=0.05, seed=79)
    scenario = Scenario(kind="oscillator-ground", nu=0.5)
    momentum.collect(scenario, params, 10, **reads)
    assert bool(interacting_calls) == steps_x


@pytest.mark.parametrize("flags, steps_x", [((), False), (("--dump-paths",), True)])
def test_run_steps_x_only_to_dump_it(tmp_path, interacting_calls, flags, steps_x):
    assert run_main("run", "--paths", "10", "--horizon", "0.05", "--workers", "1",
                    "--out", str(tmp_path), *flags) == 0
    # --dump-paths steps x through the batch integrator, once per step
    assert len(interacting_calls) == (50 if steps_x else 0)


def test_summary_counts_out_of_domain_excursions_of_the_paths_stepped(tmp_path):
    # on +-1.5 the free paths leave the grid; a run steps x_F alone
    config = cli.ScenarioConfig(scenario="grid-custom", grid_extent=(-1.5, 1.5),
                                grid_points=256, paths=20, horizon=0.1, seed=83, workers=1)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**config.to_dict(), "out": str(tmp_path / "runs")}))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run_main("run", "--config", str(cfg_path)) == 0
        scenario = config.scenario_obj()
        interacting, free = scenario.drift_fields()
        chunk = sde.simulate_coupled_ensemble(interacting, free, scenario.initial_sampler(),
                                              config.sim_params(), range(20))
    (run_dir,) = (tmp_path / "runs").iterdir()
    summary = json.loads((run_dir / "summary.json").read_text())
    assert chunk.ood_free.sum() > 0
    assert summary["out_of_domain_by_side"] == {"free": int(chunk.ood_free.sum())}
    assert summary["out_of_domain_evaluations"] == int(chunk.ood_free.sum())
