"""Shared exception types; ``cli.main`` maps each to an exit status."""


class ConfigError(ValueError):
    """Invalid input: a config value, a malformed config document, or a
    checkpoint that cannot be read or does not fit its config."""


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
