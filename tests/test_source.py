"""Source hygiene: every imported name is read, every ``ConfigError`` message
names its field, the oscillator closed forms import nothing from the package,
``stochmech.cli`` loads no process-pool machinery until a pool starts, nor
the oracle modules until ``verify`` runs, the package makes no BLAS call
and loads numpy with one BLAS thread, and only the package's edges touch the
garbage collector."""

import ast
import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stochmech

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(Path(stochmech.__file__).parent.glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


def unused_imports(path: Path) -> list:
    """Names that ``path`` imports and never reads (``__future__`` features
    and the package ``__init__``'s re-exports aside)."""
    if path.name == "__init__.py":
        return []
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_read(path):
    assert unused_imports(path) == []


def imported_modules(path: Path) -> list:
    """The module each import statement of ``path`` names, a relative one
    with its leading dots."""
    modules = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
    return modules


def test_the_oscillator_closed_forms_import_only_the_standard_library_and_numpy():
    # they are the independent ground truth the pipeline is checked against,
    # so they must not depend on the code they check
    modules = imported_modules(Path(stochmech.__file__).parent / "oscillator.py")
    assert "numpy" in modules
    assert [m for m in modules if m != "numpy"
            and m.split(".")[0] not in sys.stdlib_module_names] == []


def config_error_messages(path: Path) -> list:
    """The message of each ``ConfigError(...)`` call in ``path`` that is a
    string literal or an f-string, an f-string's plain ``{name}`` fields read
    as their name and any other field (``{value!r}``, ``{a.b}``) as ``{}``."""
    messages = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "ConfigError" and node.args):
            continue
        message = node.args[0]
        parts = message.values if isinstance(message, ast.JoinedStr) else [message]
        if isinstance(message, (ast.JoinedStr, ast.Constant)):
            messages.append("".join(
                part.value if isinstance(part, ast.Constant)
                else part.value.id if isinstance(part.value, ast.Name)
                and part.conversion == -1 and part.format_spec is None else "{}"
                for part in parts))
    return messages


def test_every_config_error_message_begins_with_its_field():
    # a failure names the field to fix: "<field>: ...", checked at the source
    # so that it holds wherever a check moves
    messages = [m for path in SOURCES if path.parent.name == "stochmech"
                for m in config_error_messages(path)]
    assert messages
    assert [m for m in messages if not re.match(r"\w+: ", m)] == []


def test_importing_the_cli_loads_no_process_pool():
    # in-process runs (one worker, --dump-paths, density) never start a pool,
    # and only verify needs the oracle modules
    modules = ["multiprocessing", "stochmech.verify", "stochmech.oscillator"]
    probe = f"import sys, stochmech.cli; print([m in sys.modules for m in {modules}])"
    src = str(Path(stochmech.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == str([False] * len(modules))


def called_names(path: Path) -> set:
    """The name of each function ``path`` calls, ``f`` of both ``f(...)`` and
    ``module.f(...)``."""
    return {node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name))}


def test_only_the_scenario_puts_a_state_on_a_grid():
    # Scenario.grid_state is the one owner of a t = 0 state on its grid, and
    # every other module takes the grid state as it is; checked at the source
    # so that it holds wherever code moves
    callers = [path.name for path in SOURCES if path.parent.name == "stochmech"
               and "to_grid" in called_names(path)]
    assert callers == ["scenarios.py"]


SCALAR_API = {"SamplePath", "CoupledPair", "integrate", "co_integrate", "wiener_increments",
              "draw_initial", "path_rng", "with_path_index"}


def test_only_sde_calls_the_single_path_api():
    # the library runs every path through the ensemble kernel or the batch
    # integrators, so the single-path API serves only sde itself and the
    # tests, and deleting it touches nothing else in src
    callers = {path.name: sorted(SCALAR_API & called_names(path)) for path in SOURCES
               if path.parent.name == "stochmech" and path.name != "sde.py"}
    assert {name: called for name, called in callers.items() if called} == {}


BLAS_NAMES = {"dot", "vdot", "matmul", "inner", "tensordot", "linalg"}


def blas_uses(path: Path) -> list:
    """Each ``@``, BLAS-backed numpy name (``np.dot``, ``x.dot``, ``np.linalg``
    and the like) and ``einsum(..., optimize=...)`` in ``path``, by line."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            uses.append(f"@ (line {node.lineno})")
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            uses.append(f"{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            uses += [f"{alias.name} (line {node.lineno})" for alias in node.names
                     if alias.name in BLAS_NAMES or "linalg" in node.module]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "einsum"
              and any(kw.arg == "optimize" for kw in node.keywords)):
            uses.append(f"einsum optimize (line {node.lineno})")
    return uses


def test_the_package_makes_no_blas_call():
    # numpy loads with one BLAS thread (stochmech/__init__), which costs
    # nothing only while no result depends on BLAS; its sums then also keep
    # their last bits under any BLAS thread count a user sets
    uses = {path.name: blas_uses(path) for path in SOURCES if path.parent.name == "stochmech"}
    assert {name: found for name, found in uses.items() if found} == {}


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def threads_after_import(**env) -> list:
    """[threads, the three thread variables] of a fresh interpreter after
    ``import stochmech`` and a small matrix product, with only ``env`` of
    the three variables set."""
    probe = ("import json, os, stochmech, numpy; numpy.ones((300, 300)) @ numpy.ones((300, 300)); "
             "print(json.dumps([len(os.listdir('/proc/self/task')), "
             f"[os.environ.get(k) for k in {BLAS_THREAD_VARIABLES}]]))")
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    src = str(Path(stochmech.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**base, **env, "PYTHONPATH": src})
    return json.loads(out.stdout)


needs_openblas_threads = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir() or len(os.sched_getaffinity(0)) < 2
    or "openblas" not in np.__config__.CONFIG["Build Dependencies"]["blas"]["name"],
    reason="needs /proc, two cores and numpy on OpenBLAS")


@needs_openblas_threads
def test_importing_stochmech_loads_one_blas_thread_and_leaves_no_variable():
    # OpenBLAS would start a thread per core; the --workers pool is the only
    # parallelism, and processes the user starts inherit nothing
    assert threads_after_import() == [1, [None, None, None]]


@needs_openblas_threads
@pytest.mark.parametrize("variable", BLAS_THREAD_VARIABLES)
def test_a_users_blas_thread_count_wins(variable):
    expected = [None if k != variable else "2" for k in BLAS_THREAD_VARIABLES]
    assert threads_after_import(**{variable: "2"}) == [2, expected]


def collector_after_import(before: str = "") -> list:
    """[collections, ``gc.isenabled()``, objects in the two young generations,
    ``gc.get_freeze_count()``] of a fresh interpreter that runs ``before`` and
    then ``import stochmech``, the collections counted by ``gc.callbacks``
    during the import."""
    probe = ("import gc, json\n" + before +
             "starts = []\n"
             "gc.callbacks.append(lambda phase, info: starts.append(phase == 'start'))\n"
             "import stochmech\n"
             "gc.callbacks.clear()\n"
             "print(json.dumps([sum(starts), gc.isenabled(),\n"
             "                  len(gc.get_objects(0)) + len(gc.get_objects(1)),\n"
             "                  gc.get_freeze_count()]))")
    src = str(Path(stochmech.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    return json.loads(out.stdout)


def test_importing_stochmech_pauses_the_collector():
    # numpy and the package create objects that live as long as the process;
    # collecting them as they load (34 times) freed nothing worth its time,
    # and leaving them young made the first collection after the import
    # traverse them all
    collections, enabled, young, frozen = collector_after_import()
    assert collections <= 1
    assert enabled
    assert young < gc.get_threshold()[0]
    assert frozen == 0


def test_a_callers_paused_collector_stays_paused():
    assert collector_after_import("gc.disable()\n")[:2] == [0, False]


def test_a_callers_frozen_objects_stay_frozen():
    # promoting what loaded unfreezes every frozen object, so it is left out
    _, enabled, _, frozen = collector_after_import("gc.freeze()\n")
    assert enabled
    assert frozen > 0


def test_only_the_package_edges_use_the_collector():
    # the import pauses it and the CLI freezes it at exit; no kernel, drift
    # or pool code pauses or freezes it mid-run
    users = [path.name for path in SOURCES if path.parent.name == "stochmech"
             and "gc" in imported_modules(path)]
    assert users == ["__init__.py", "cli.py"]
