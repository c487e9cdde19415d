"""Monte Carlo momentum sampling for diffusion-process quantum mechanics."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    GridTooNarrowWarning,
    NoConvergence,
    NodeEncountered,
    StochmechError,
    TooFewSamples,
)
from .sde import SimParams
from .scenarios import Scenario
from .momentum import (
    MomentumEnsemble,
    PathSimulationError,
    collect,
)

__all__ = [
    "ConfigError", "GridTooNarrowWarning", "NoConvergence", "NodeEncountered",
    "StochmechError", "TooFewSamples",
    "SimParams", "Scenario",
    "MomentumEnsemble", "PathSimulationError", "collect",
]
