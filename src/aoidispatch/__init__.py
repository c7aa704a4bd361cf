"""Multi-dispatcher job dispatching with costly server queries and stale,
age-tracked knowledge: a discrete-time simulator, query baselines, a MAPPO
training stack built on a minimal numpy network core, and a sweep CLI."""

from .config import EnvConfig, TrainConfig
from .env import (
    DispatchEnv,
    FeedbackEvent,
    JointAction,
    Job,
    Knowledge,
    KnowledgeSnapshot,
    StepOutcome,
    WorldState,
    stationary_distribution,
)
from .baselines import (
    BaselineKind,
    BaselinePolicy,
    baseline_dispatch,
    baseline_queries,
    least_loaded_dispatch,
    parse_policy_spec,
)
from .errors import AccountingError, ConfigError, ContractViolation
from .mappo import (
    ActorGroup,
    EvalStats,
    MappoPolicy,
    RolloutBuffer,
    Trainer,
    clipped_surrogate,
    collect_rollout,
    compute_gae,
    evaluate,
    load_checkpoint,
    load_policy,
    mappo_update,
    save_checkpoint,
    value_loss,
)
from .nn import Adam, DenseNet, PolicyHeads, finite_difference_gradients
from .sweep import ResultRow, SweepSpec, default_config, emit_report, run_sweep

__version__ = "0.1.0"

__all__ = [
    "AccountingError",
    "ActorGroup",
    "Adam",
    "BaselineKind",
    "BaselinePolicy",
    "ConfigError",
    "ContractViolation",
    "DenseNet",
    "DispatchEnv",
    "EnvConfig",
    "EvalStats",
    "FeedbackEvent",
    "Job",
    "JointAction",
    "Knowledge",
    "KnowledgeSnapshot",
    "MappoPolicy",
    "PolicyHeads",
    "ResultRow",
    "RolloutBuffer",
    "StepOutcome",
    "SweepSpec",
    "Trainer",
    "TrainConfig",
    "WorldState",
    "baseline_dispatch",
    "baseline_queries",
    "clipped_surrogate",
    "collect_rollout",
    "compute_gae",
    "default_config",
    "emit_report",
    "evaluate",
    "finite_difference_gradients",
    "least_loaded_dispatch",
    "load_checkpoint",
    "load_policy",
    "mappo_update",
    "parse_policy_spec",
    "run_sweep",
    "save_checkpoint",
    "stationary_distribution",
    "value_loss",
]
