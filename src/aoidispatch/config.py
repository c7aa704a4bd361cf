"""Static configuration for the environment and the training loop.

Configs are frozen dataclasses. Scalar probability/capacity fields broadcast
to per-entity tuples, so ``EnvConfig(stay_available=0.9)`` and
``EnvConfig(stay_available=(0.9, 0.5))`` are both valid. Config files are
either ``key = value`` text (lists comma-separated, ``#`` comments) or JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Sequence

from .errors import ConfigError


def _as_float(value: Any, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _as_int(value: Any, name: str) -> int:
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, float):
        if not value.is_integer():
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _as_bool(value: Any, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _per_entity(value: Any, count: int, name: str, conv) -> tuple:
    """Broadcast a scalar or check a per-entity sequence against ``count``."""
    if isinstance(value, (list, tuple)):
        if len(value) != count:
            raise ConfigError(f"{name} needs 1 or {count} entries, got {len(value)}")
        return tuple(conv(v, name) for v in value)
    return (conv(value, name),) * count


@dataclass(frozen=True)
class EnvConfig:
    """All static parameters of the dispatching environment.

    ``arrival_prob`` is per dispatcher; ``stay_available``, ``stay_unavailable``
    and ``queue_capacity`` are per server. ``stay_available`` / ``stay_unavailable``
    may sit on the closed boundary {0, 1} (except both 1 for the same server)
    so that deterministic degenerate instances can be built for tests; the
    ergodic closed-form initial distribution extends continuously there.
    """

    n_dispatchers: int = 5
    n_servers: int = 5
    arrival_prob: float | Sequence[float] = 0.8
    stay_available: float | Sequence[float] = 0.9
    stay_unavailable: float | Sequence[float] = 0.5
    queue_capacity: int | Sequence[int] = 3
    query_cost: float = 0.005
    horizon: int = 512
    seed: int = 0
    aoi_cap: int = 64
    # Feedback normally reports the queue length at the start of the slot;
    # this switches reports to the post-service length for sensitivity studies.
    report_post_service: bool = False
    # Overflow normally evicts the queue head; this rejects the incoming job.
    drop_newest: bool = False

    def __post_init__(self) -> None:
        set_ = object.__setattr__
        set_(self, "n_dispatchers", _as_int(self.n_dispatchers, "n_dispatchers"))
        set_(self, "n_servers", _as_int(self.n_servers, "n_servers"))
        if self.n_dispatchers < 1:
            raise ConfigError("n_dispatchers must be >= 1")
        if self.n_servers < 1:
            raise ConfigError("n_servers must be >= 1")
        n, k = self.n_dispatchers, self.n_servers

        set_(self, "arrival_prob", _per_entity(self.arrival_prob, n, "arrival_prob", _as_float))
        set_(self, "stay_available", _per_entity(self.stay_available, k, "stay_available", _as_float))
        set_(self, "stay_unavailable", _per_entity(self.stay_unavailable, k, "stay_unavailable", _as_float))
        set_(self, "queue_capacity", _per_entity(self.queue_capacity, k, "queue_capacity", _as_int))
        set_(self, "query_cost", _as_float(self.query_cost, "query_cost"))
        set_(self, "horizon", _as_int(self.horizon, "horizon"))
        set_(self, "seed", _as_int(self.seed, "seed"))
        set_(self, "aoi_cap", _as_int(self.aoi_cap, "aoi_cap"))
        set_(self, "report_post_service", _as_bool(self.report_post_service, "report_post_service"))
        set_(self, "drop_newest", _as_bool(self.drop_newest, "drop_newest"))

        for lam in self.arrival_prob:
            if not 0.0 <= lam <= 1.0:
                raise ConfigError(f"arrival_prob must lie in [0, 1], got {lam}")
        for phi, psi in zip(self.stay_available, self.stay_unavailable):
            if not 0.0 <= phi <= 1.0 or not 0.0 <= psi <= 1.0:
                raise ConfigError("stay probabilities must lie in [0, 1]")
            if phi == 1.0 and psi == 1.0:
                raise ConfigError("stay_available and stay_unavailable cannot both be 1")
        for cap in self.queue_capacity:
            if cap < 1:
                raise ConfigError("queue_capacity must be >= 1")
        if self.query_cost < 0.0:
            raise ConfigError("query_cost must be >= 0")
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if self.aoi_cap < 1:
            raise ConfigError("aoi_cap must be >= 1")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the PPO/MAPPO update loop.

    The training discount is a credit-assignment knob, deliberately short:
    queue-level consequences of a dispatch or query play out within roughly
    capacity/service-rate slots, and longer horizons drown that signal in
    return noise.
    """

    clip_epsilon: float = 0.2
    value_coef: float = 0.5
    entropy_coef: float = 0.003
    gae_lambda: float = 0.95
    discount: float = 0.9
    rollout_length: int = 256
    epochs_per_update: int = 4
    minibatch_count: int = 4
    total_updates: int = 500
    learning_rate: float = 1e-3
    parameter_sharing: bool = True
    eval_interval: int = 50
    eval_episodes: int = 4
    hidden_sizes: Sequence[int] = (64, 64)
    max_grad_norm: float = 0.5
    normalize_advantages: bool = True
    normalize_values: bool = True
    # Condition the dispatch head on the observation refreshed with this
    # slot's own query responses (queries return within the slot). Default
    # keeps both heads on the pre-query observation.
    two_phase_policy: bool = False

    def __post_init__(self) -> None:
        set_ = object.__setattr__
        for f in fields(self):  # annotations are strings under postponed evaluation
            conv = {"float": _as_float, "int": _as_int, "bool": _as_bool}.get(f.type)
            if conv is not None:
                set_(self, f.name, conv(getattr(self, f.name), f.name))
        set_(self, "hidden_sizes", tuple(_as_int(h, "hidden_sizes") for h in self.hidden_sizes))
        if self.clip_epsilon <= 0.0:
            raise ConfigError("clip_epsilon must be > 0")
        if self.value_coef <= 0.0 or self.entropy_coef <= 0.0:
            raise ConfigError("value_coef and entropy_coef must be > 0")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ConfigError("gae_lambda must lie in [0, 1]")
        if not 0.0 <= self.discount < 1.0:
            raise ConfigError("discount must lie in [0, 1)")
        if self.learning_rate <= 0.0:
            raise ConfigError("learning_rate must be > 0")
        for name in ("rollout_length", "epochs_per_update", "minibatch_count",
                     "total_updates", "eval_interval", "eval_episodes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ConfigError("hidden_sizes must be a nonempty tuple of positive ints")
        if self.max_grad_norm <= 0.0:
            raise ConfigError("max_grad_norm must be > 0")


ENV_FIELDS = frozenset(f.name for f in fields(EnvConfig))
TRAIN_FIELDS = frozenset(f.name for f in fields(TrainConfig))


def parse_scalar(text: str) -> Any:
    """Parse one config token: bool, int, float, or bare string."""
    low = text.strip().lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    for conv in (int, float):
        try:
            return conv(text)
        except ValueError:
            pass
    return text.strip()


def parse_value(text: str) -> Any:
    """Parse a config value; comma-separated tokens become a list."""
    text = text.strip()
    if "," in text:
        return [parse_scalar(tok) for tok in text.split(",") if tok.strip()]
    return parse_scalar(text)


def parse_config_text(text: str) -> dict[str, Any]:
    """Parse ``key = value`` lines into a dict. '#' starts a comment."""
    result: dict[str, Any] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        result[key] = parse_value(value)
    return result


def load_config_dict(path: str | Path) -> dict[str, Any]:
    """Load a config file (JSON if the suffix is .json, else key = value text)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if path.suffix.lower() == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        return data
    return parse_config_text(text)


def apply_overrides(base: dict[str, Any], assignments: Sequence[str]) -> dict[str, Any]:
    """Apply ``key=value`` command-line overrides on top of a config dict."""
    merged = dict(base)
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, _, value = item.partition("=")
        merged[key.strip()] = parse_value(value)
    return merged


def split_config_dict(data: dict[str, Any]) -> tuple[dict[str, Any], dict[str, Any]]:
    """Split a flat config dict into EnvConfig / TrainConfig kwargs.

    Unknown keys raise, so typos do not silently fall back to defaults.
    """
    env_kwargs: dict[str, Any] = {}
    train_kwargs: dict[str, Any] = {}
    for key, value in data.items():
        if key in ENV_FIELDS:
            env_kwargs[key] = value
        elif key in TRAIN_FIELDS:
            train_kwargs[key] = value
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return env_kwargs, train_kwargs


def env_config_from_dict(data: dict[str, Any]) -> EnvConfig:
    """EnvConfig from a flat dict; training keys, which it would drop, raise."""
    env_kwargs, train_kwargs = split_config_dict(data)
    if train_kwargs:
        raise ConfigError(f"training keys have no effect here: {', '.join(sorted(train_kwargs))}")
    return EnvConfig(**env_kwargs)


def train_config_from_dict(data: dict[str, Any]) -> TrainConfig:
    _, train_kwargs = split_config_dict(data)
    return TrainConfig(**train_kwargs)


def config_as_dict(config: EnvConfig | TrainConfig) -> dict[str, Any]:
    """Flatten a config dataclass to plain JSON-serializable values."""
    out: dict[str, Any] = {}
    for f in fields(config):
        value = getattr(config, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out
