"""Exception hierarchy shared across the package."""


class ZRBRError(Exception):
    """Base class for all package errors."""


class ContractViolationError(ZRBRError):
    """An operation was called with inputs that break its contract."""


class ConfigurationError(ZRBRError):
    """Invalid configuration value (unknown name, out-of-range parameter)."""


class PreconditionError(ZRBRError):
    """A stated hypothesis of an estimate or lemma check is violated."""


class SingularityError(ZRBRError):
    """A formula is evaluated at a point where it is singular."""


class DivergenceError(ZRBRError):
    """A simulation produced non-finite or runaway values.

    Carries the last good time and, when available, the partial trajectory,
    the field that diverged and its sup-norm growth factor over the initial
    value (None for a field that turned non-finite).
    """

    def __init__(self, message, time=None, trajectory=None, field=None, growth=None):
        super().__init__(message)
        self.time = time
        self.trajectory = trajectory
        self.field = field
        self.growth = growth
