"""Non-learning query policies and the shared least-loaded dispatch rule.

Three query strategies: never query, query each server independently with a
fixed probability, or query every server every slot. All of them dispatch to
the least-loaded server according to the dispatcher's knowledge, overlaid
with whatever query responses came back this slot (queries return within the
slot, so a dispatcher that just paid for fresh state gets to use it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .env import DispatchEnv, JointAction, Knowledge, QueryResponses, dispatch_targets
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

    @property
    def name(self) -> str:
        if self.variant == RANDOM:
            return f"random:{self.p:g}"
        return self.variant


def baseline_queries(
    kind: BaselineKind, n_dispatchers: int, n_servers: int, rng: np.random.Generator
) -> np.ndarray:
    """(n_dispatchers, n_servers) query bits for one slot. Only ``random``
    draws: one uniform per bit, row-major."""
    if kind.variant == RANDOM:
        return rng.random((n_dispatchers, n_servers)) < kind.p
    return np.full((n_dispatchers, n_servers), kind.variant == ALWAYS)


def least_loaded_dispatch(seen_queue, seen_available) -> np.ndarray:
    """Server with the smallest believed queue, along the last axis.

    Ties prefer believed-available servers, then the lowest index. Pure
    function of its inputs.
    """
    return np.argmin(2 * np.asarray(seen_queue) - np.asarray(seen_available), axis=-1)


def baseline_dispatch(
    knowledge: Knowledge, responses: QueryResponses, arrivals
) -> tuple[Optional[int], ...]:
    """Least-loaded target of every dispatcher with an arrival.

    This slot's query ``responses`` overlay the stale ``knowledge`` before
    the choice (queries return within the slot).
    """
    asked = responses.queue_length >= 0
    targets = least_loaded_dispatch(
        np.where(asked, responses.queue_length, knowledge.seen_queue),
        np.where(asked, responses.available, knowledge.seen_available),
    )
    return dispatch_targets(np.where(arrivals, targets, -1))


class BaselinePolicy:
    """Decentralized baseline controller usable by the episode runner.

    Each slot it draws every dispatcher's query bits, reads the same-slot
    responses from the environment, and dispatches least-loaded on the
    overlaid knowledge.
    """

    def __init__(self, kind: BaselineKind):
        self.kind = kind
        self._rng: Optional[np.random.Generator] = None

    @property
    def name(self) -> str:
        return self.kind.name

    def begin_episode(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def act(self, env: DispatchEnv) -> JointAction:
        if self._rng is None:
            self._rng = np.random.default_rng(0)
        cfg = env.config
        queries = baseline_queries(self.kind, cfg.n_dispatchers, cfg.n_servers, self._rng)
        dispatch = baseline_dispatch(env.knowledge, env.process_queries(queries), env.arrivals)
        return JointAction(queries=queries, dispatch=dispatch)


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
