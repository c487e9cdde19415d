"""Monte Carlo momentum sampling for diffusion-process quantum mechanics."""

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
_ONE_BLAS_THREAD = not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                        "OMP_NUM_THREADS"} & os.environ.keys()
if _ONE_BLAS_THREAD:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    from .sde import SimParams
    from .scenarios import Scenario
    from .momentum import MomentumEnsemble, PathSimulationError, collect
finally:
    if _ONE_BLAS_THREAD:
        del os.environ["OPENBLAS_NUM_THREADS"]

__all__ = [
    "ConfigError", "GridTooNarrowWarning", "NoConvergence", "NodeEncountered",
    "StochmechError", "TooFewSamples",
    "SimParams", "Scenario",
    "MomentumEnsemble", "PathSimulationError", "collect",
]
