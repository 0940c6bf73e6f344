"""Exception types shared across the package."""


class MultiArmError(Exception):
    """Base class for errors raised by this package."""


class DimensionMismatch(MultiArmError):
    """A joint vector does not match the robot model's joint count."""


class JointLimitViolation(MultiArmError):
    """A joint position lies outside its closed limit interval."""


class NegativeTime(MultiArmError):
    """A trajectory was queried at a negative time."""


class NonPositiveStep(MultiArmError):
    """A discretization step must be strictly positive."""


class UnknownGroup(MultiArmError):
    """Referenced robot group is not part of the scene."""


class UnknownHandle(MultiArmError):
    """Referenced execution handle was never issued by this manager."""


class MissingGroupState(MultiArmError):
    """A composite check needs one joint state per robot group."""


class ScenarioInvalid(MultiArmError):
    """Scenario file failed structural or semantic validation."""


class LogInvalid(MultiArmError):
    """An event-log line does not follow the event schema."""


class TickBudgetExceeded(MultiArmError, RuntimeError):
    """A run did not reach a quiescent state within its tick budget."""


class ValidationFailed(MultiArmError):
    """A trajectory failed validation at submission.

    Carries the list of violations reported by trajectory validation.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))
