"""Exception and warning types shared across the package."""


class StochmechError(Exception):
    """Base class for package errors."""


class NodeEncountered(StochmechError):
    """The wave amplitude fell below the node threshold inside the evaluation region."""


class NoConvergence(StochmechError):
    """Fixed-point iteration did not reach the requested tolerance."""

    def __init__(self, max_iter, last_residual):
        super().__init__(
            f"no convergence after {max_iter} iterations "
            f"(last residual {last_residual:.3e})"
        )
        self.max_iter = max_iter
        self.last_residual = last_residual


class TooFewSamples(StochmechError):
    """Statistic requested on a sample too small to be meaningful."""


class ConfigError(StochmechError):
    """Invalid run configuration; message names the offending field."""


class GridTooNarrowWarning(UserWarning):
    """Non-negligible amplitude reached the grid boundary."""
