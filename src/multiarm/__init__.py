"""Asynchronous multi-arm trajectory execution with collision-gated admission."""

from .collision import (
    CheckParams,
    CollisionReport,
    RunningRecord,
    Scene,
    candidate_sweep,
    composite_state_check,
    pair_clearances,
    required_margin,
)
from .errors import (
    DimensionMismatch,
    JointLimitViolation,
    MissingGroupState,
    MultiArmError,
    NegativeTime,
    NonFiniteInput,
    NonPositiveStep,
    ScenarioInvalid,
    TickBudgetExceeded,
    UnknownGroup,
    UnknownHandle,
    ValidationFailed,
)
from .executor import EVENT_KINDS, Event, ExecHandle, ExecStatus, ExecutionManager, StatusKind
from .geometry import (
    Capsule,
    Clearance,
    PlacedPrimitive,
    Sphere,
    primitive_clearance,
    segment_segment_distance,
)
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
    forward_kinematics,
    pose,
    within_limits,
)
from .trajectory import (
    JointTrajectory,
    Violation,
    state_at,
    time_grid,
    validate,
)

__version__ = "0.1.0"
