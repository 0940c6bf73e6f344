"""Asynchronous multi-arm trajectory execution with collision-gated admission."""

from .collision import (
    CheckParams,
    CollisionReport,
    RunningRecord,
    Scene,
    Timeline,
    candidate_sweep,
    composite_state_check,
    pair_clearances,
    required_margin,
)
from .errors import (
    DimensionMismatch,
    JointLimitViolation,
    LogInvalid,
    MissingGroupState,
    MultiArmError,
    NegativeTime,
    NonPositiveStep,
    ScenarioInvalid,
    TickBudgetExceeded,
    UnknownGroup,
    UnknownHandle,
    ValidationFailed,
)
from .executor import EVENT_KINDS, Event, ExecHandle, ExecStatus, ExecutionManager, StatusKind
from .geometry import Capsule, PlacedPrimitive, Sphere
from .harness import (
    Metrics,
    RunParams,
    RunResult,
    Scenario,
    Task,
    fixture_path,
    load_scenario,
    metrics_from_events,
    plan_joint_line,
    replay_min_clearance,
    run,
    write_metrics,
)
from .kinematics import (
    JointSpec,
    JointState,
    LinkGeometry,
    RobotModel,
    pose,
    within_limits,
)
from .trajectory import (
    JointTrajectory,
    Violation,
    time_grid,
    validate,
)

__version__ = "0.1.0"
