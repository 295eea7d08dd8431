"""Exception types shared across the solver stack."""


class OrbitUseError(Exception):
    """Base class for every error raised by this package."""


class ScenarioValidationError(OrbitUseError):
    """A scenario or tax schedule violates its declared constraints."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ScenarioShapeError(OrbitUseError, ValueError):
    """Tax matrix shape does not match the scenario dimensions."""

    def __init__(self, scenario, shape):
        super().__init__(
            f"tax matrix shape {shape} does not match scenario "
            f"({scenario.n_sectors} sectors x {scenario.n_markets} markets)"
        )


class ScenarioParseError(OrbitUseError):
    """A scenario file could not be read or decoded."""


class OverrideError(OrbitUseError):
    """A --set override names an unknown key or carries an unusable value."""


class SingularSystemError(OrbitUseError):
    """The dense oracle's fleet system is numerically singular (|det| <= 1e-12)."""


class NoValidEquilibriumError(OrbitUseError):
    """The oracle's pivoting solve cycled without a complementary solution."""


class PhysicallyInvalidError(OrbitUseError):
    """The solution implies a survival probability outside [0, 1]."""

    def __init__(self, message, debris=None):
        self.debris = debris
        super().__init__(message)


class ActiveSetChangeError(OrbitUseError):
    """A sector activates or deactivates inside a derivative stencil."""


class NoConvergenceError(OrbitUseError):
    """Fixed-point iteration hit its iteration cap; carries the last iterate."""

    def __init__(self, message, last_iterate=None, update_norm=None):
        self.last_iterate = last_iterate
        self.update_norm = update_norm
        super().__init__(message)


class BudgetExceededError(OrbitUseError):
    """A brute-force grid or candidate set would exceed its evaluation budget."""
