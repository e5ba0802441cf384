"""Shared exception types."""


class ConfigError(ValueError):
    """Invalid configuration value or malformed config document."""


class DomainError(ValueError):
    """Argument outside its mathematical domain (e.g. t not in [0, 1])."""


class ShapeError(ValueError):
    """Mismatched array dimensions."""


class DegenerateTrajectoryError(ValueError):
    """Trajectory speed vanishes; curvature is undefined."""


class DivergenceError(RuntimeError):
    """A numerical process produced a non-finite value.

    Carries the step index at which the divergence occurred and, for
    training, the last valid state so callers can persist it.
    """

    def __init__(self, message, step=None, params=None, history=None):
        super().__init__(message)
        self.step = step
        self.params = params
        self.history = history


class CheckpointError(ValueError):
    """Malformed or version-incompatible checkpoint/config document."""
