"""Non-learning query policies and the shared least-loaded dispatch rule.

Three query strategies: never query, query each server independently with a
fixed probability, or query every server every slot. All of them dispatch to
the least-loaded server according to the knowledge
:meth:`~aoidispatch.env.DispatchEnv.process_queries` returns for their bits:
queries return within the slot, so a dispatcher that just paid for fresh
state gets to use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .env import DispatchEnv, JointAction, Knowledge
from .errors import ConfigError

NEVER = "never"
RANDOM = "random"
ALWAYS = "always"


@dataclass(frozen=True)
class BaselineKind:
    """Query strategy tag: never, random (with probability p), or always."""

    variant: str
    p: float = 0.5

    def __post_init__(self) -> None:
        if self.variant not in (NEVER, RANDOM, ALWAYS):
            raise ConfigError(f"unknown baseline variant {self.variant!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError("query probability must lie in [0, 1]")


def baseline_queries(
    kind: BaselineKind, n_dispatchers: int, n_servers: int, rng: np.random.Generator
) -> np.ndarray:
    """(n_dispatchers, n_servers) query bits for one slot. Only ``random``
    draws: one uniform per bit, row-major. ``never`` and ``always`` return
    one shared read-only array per shape."""
    if kind.variant == RANDOM:
        return rng.random((n_dispatchers, n_servers)) < kind.p
    return _constant_bits(kind.variant == ALWAYS, n_dispatchers, n_servers)


@lru_cache(maxsize=64)
def _constant_bits(value: bool, n_dispatchers: int, n_servers: int) -> np.ndarray:
    bits = np.full((n_dispatchers, n_servers), value)
    bits.flags.writeable = False
    return bits


def least_loaded_dispatch(seen_queue, seen_available) -> np.ndarray:
    """Server with the smallest believed queue, along the last axis.

    Ties prefer believed-available servers, then the lowest index: the
    score is twice the queue, minus one if available. Pure function of its
    inputs.
    """
    return (2 * np.asarray(seen_queue) - np.asarray(seen_available)).argmin(axis=-1)


def baseline_dispatch(knowledge: Knowledge, arrivals) -> tuple[Optional[int], ...]:
    """Least-loaded target, on ``knowledge``, of every dispatcher with an
    arrival."""
    targets = least_loaded_dispatch(knowledge.seen_queue, knowledge.seen_available).tolist()
    return tuple([t if a else None for t, a in zip(targets, np.asarray(arrivals).tolist())])


class BaselinePolicy:
    """Decentralized baseline controller usable by the episode runner.

    Each slot it draws every dispatcher's query bits and dispatches
    least-loaded on the knowledge overlaid with their same-slot answers.
    """

    def __init__(self, kind: BaselineKind):
        self.kind = kind
        self._rng = np.random.default_rng(0)

    def begin_episode(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def act(self, env: DispatchEnv) -> JointAction:
        cfg = env.config
        queries = baseline_queries(self.kind, cfg.n_dispatchers, cfg.n_servers, self._rng)
        knowledge = env.knowledge if self.kind.variant == NEVER else env.process_queries(queries)
        return JointAction(queries, baseline_dispatch(knowledge, env.arrivals))


def parse_policy_spec(spec: str) -> BaselineKind | str:
    """Parse a policy CLI spec.

    ``never`` / ``always`` / ``random:<p>`` give a :class:`BaselineKind`;
    ``mappo:<checkpoint-path-or-'train'>`` returns the raw argument string
    for the caller to resolve.
    """
    spec = spec.strip()
    if spec == NEVER:
        return BaselineKind(NEVER)
    if spec == ALWAYS:
        return BaselineKind(ALWAYS)
    if spec == RANDOM:
        return BaselineKind(RANDOM, 0.5)
    if spec.startswith("random:"):
        try:
            p = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad query probability in {spec!r}") from exc
        return BaselineKind(RANDOM, p)
    if spec.startswith("mappo:"):
        arg = spec.split(":", 1)[1]
        if not arg:
            raise ConfigError("mappo policy needs a checkpoint path or 'train'")
        return arg
    raise ConfigError(
        f"unknown policy {spec!r}; expected never | random:<p> | always | mappo:<checkpoint>"
    )
