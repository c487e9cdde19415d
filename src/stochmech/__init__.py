"""Monte Carlo momentum sampling for diffusion-process quantum mechanics."""

import gc
import os

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    GridTooNarrowWarning,
    NoConvergence,
    NodeEncountered,
    StochmechError,
    TooFewSamples,
)

# The package makes no BLAS call, so numpy loads OpenBLAS with one thread
# unless the user set a count: the --workers pool is the only parallelism.
# OpenBLAS reads the variable once, at load; no process the user starts
# inherits it.
#
# What numpy and the package create at load lives as long as the process.
# The cyclic collector, which ran 34 times over it, pauses while they load
# and resumes after, unless the caller had paused it.  What loaded goes
# straight to the oldest generation, so that no young collection traverses
# it, unless the caller froze objects of their own: those stay frozen.
_COLLECTING = gc.isenabled()
_ONE_BLAS_THREAD = not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                        "OMP_NUM_THREADS"} & os.environ.keys()
if _ONE_BLAS_THREAD:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    gc.disable()
    from .sde import SimParams
    from .scenarios import Scenario
    from .momentum import MomentumEnsemble, PathSimulationError, collect
finally:
    if not gc.get_freeze_count():
        gc.freeze()
        gc.unfreeze()
    if _COLLECTING:
        gc.enable()
    if _ONE_BLAS_THREAD:
        del os.environ["OPENBLAS_NUM_THREADS"]

__all__ = [
    "ConfigError", "GridTooNarrowWarning", "NoConvergence", "NodeEncountered",
    "StochmechError", "TooFewSamples",
    "SimParams", "Scenario",
    "MomentumEnsemble", "PathSimulationError", "collect",
]
