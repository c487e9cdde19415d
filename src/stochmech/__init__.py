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
from .wavefunction import (
    DriftField,
    MomentumDensity,
    WaveState,
    decompose,
    drift,
    free_gaussian_state,
    harmonic_ground_state,
    momentum_density,
    propagate_free,
)
from .sde import (
    CoupledPair,
    SamplePath,
    SimParams,
    co_integrate,
    integrate,
    picard_solve,
    wiener_increments,
)
from .oscillator import OscillatorScenario
from .scenarios import Scenario
from .momentum import (
    MomentumEnsemble,
    PathSimulationError,
    collect,
)

__all__ = [
    "ConfigError", "GridTooNarrowWarning", "NoConvergence", "NodeEncountered",
    "StochmechError", "TooFewSamples",
    "DriftField", "MomentumDensity", "WaveState", "decompose", "drift",
    "free_gaussian_state", "harmonic_ground_state",
    "momentum_density", "propagate_free",
    "CoupledPair", "SamplePath", "SimParams", "co_integrate", "integrate",
    "picard_solve", "wiener_increments",
    "OscillatorScenario", "Scenario",
    "MomentumEnsemble", "PathSimulationError", "collect",
]
