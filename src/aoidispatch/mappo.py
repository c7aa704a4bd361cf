"""MAPPO training loop: centralized critic, decentralized actors.

During training one critic sees the full world state (true availabilities,
true queue lengths, and the whole age matrix) while each dispatcher's actor
sees only its own stale knowledge snapshot. All actors learn from the team
reward. Execution is fully decentralized: a trained policy acts from
snapshots alone.

Actors share one network by default, with a one-hot dispatcher id appended
to the observation; set ``parameter_sharing=False`` for per-dispatcher
networks. Both heads are conditioned on the pre-query observation: a query
issued this slot refreshes what the actor sees from the next slot on.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .config import EnvConfig, TrainConfig, config_as_dict
from .env import DispatchEnv, JointAction, Knowledge, QueryResponses, WorldState, dispatch_targets
from .errors import ConfigError, ContractViolation
from .nn import Adam, DenseNet, PolicyHeads

CHECKPOINT_FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# observation / state encodings


def actor_obs_dim(config: EnvConfig, parameter_sharing: bool) -> int:
    return 3 * config.n_servers + (config.n_dispatchers if parameter_sharing else 0)


def critic_state_dim(config: EnvConfig) -> int:
    return 2 * config.n_servers + config.n_dispatchers * config.n_servers


def encode_actor_batch(
    knowledge: Knowledge, config: EnvConfig, parameter_sharing: bool
) -> np.ndarray:
    """(n_dispatchers, obs_dim) actor inputs, one row per dispatcher: per
    server the triple (seen availability, seen queue / capacity, capped
    normalized age), then the one-hot dispatcher id under parameter
    sharing."""
    n, k = config.n_dispatchers, config.n_servers
    out = np.zeros((n, actor_obs_dim(config, parameter_sharing)))
    out[:, 0 : 3 * k : 3] = knowledge.seen_available
    out[:, 1 : 3 * k : 3] = knowledge.seen_queue / config.queue_capacity
    out[:, 2 : 3 * k : 3] = np.minimum(knowledge.aoi, config.aoi_cap) / float(config.aoi_cap)
    if parameter_sharing:
        out[:, 3 * k :] = np.eye(n)
    return out


def encode_critic_state(world: WorldState, config: EnvConfig) -> np.ndarray:
    """Full-state critic input: true availabilities, true normalized queue
    lengths, and the normalized age matrix of every dispatcher."""
    cap = config.aoi_cap
    return np.concatenate((
        world.available,
        world.length / config.queue_capacity,
        (np.minimum(world.knowledge.aoi, cap) / float(cap)).ravel(),
    ))


def refresh_encoded_obs(obs: np.ndarray, responses: QueryResponses, config: EnvConfig) -> np.ndarray:
    """Encoded observations with queried entries replaced by this slot's
    responses (age encoded as 0: fresher than any stored knowledge)."""
    k = config.n_servers
    asked = responses.queue_length >= 0
    out = obs.copy()
    out[:, 0 : 3 * k : 3][asked] = responses.available[asked]
    out[:, 1 : 3 * k : 3][asked] = (responses.queue_length / config.queue_capacity)[asked]
    out[:, 2 : 3 * k : 3][asked] = 0.0
    return out


# ---------------------------------------------------------------------------
# actor container


class ActorGroup:
    """The dispatcher policies: one net whose members are either a single
    actor shared by all dispatchers or one actor per dispatcher."""

    def __init__(self, env_config: EnvConfig, train_config: TrainConfig, rng: np.random.Generator):
        self.env_config = env_config
        self.shared = train_config.parameter_sharing
        self.obs_dim = actor_obs_dim(env_config, self.shared)
        out_dim = 2 * env_config.n_servers
        sizes = (self.obs_dim, *train_config.hidden_sizes, out_dim)
        members = 1 if self.shared else env_config.n_dispatchers
        self.net = DenseNet(sizes, rng, out_gain=0.01, members=members)

    @property
    def nets(self) -> tuple[DenseNet]:
        # read-only view for perfbench/workloads.py, which iterates `nets`
        return (self.net,)

    def heads(self, obs: np.ndarray) -> PolicyHeads:
        """Distribution over actions for a (n_dispatchers, obs_dim) batch."""
        return PolicyHeads(self.net.forward(obs), self.env_config.n_servers)


def select_actions(
    actors: ActorGroup,
    env: DispatchEnv,
    obs: np.ndarray,
    two_phase: bool,
    rng: Optional[np.random.Generator] = None,
) -> tuple[np.ndarray, np.ndarray, PolicyHeads, PolicyHeads, np.ndarray]:
    """One decentralized decision per dispatcher: query bits, then dispatch.

    Samples with ``rng``, or takes each head's mode when ``rng`` is None.
    A two-phase policy issues its queries on ``env`` and conditions the
    dispatch head on ``obs`` refreshed with the responses; otherwise the
    dispatch head is the query head. Returns ``(bits, dispatch, heads,
    dispatch_heads, dispatch_obs)``.
    """
    heads = actors.heads(obs)
    bits = heads.greedy_queries() if rng is None else heads.sample_queries(rng)
    dispatch_heads, dispatch_obs = heads, obs
    if two_phase:
        responses = env.process_queries(bits)
        dispatch_obs = refresh_encoded_obs(obs, responses, env.config)
        dispatch_heads = actors.heads(dispatch_obs)
    if rng is None:
        disp = dispatch_heads.greedy_dispatch(env.arrivals)
    else:
        disp = dispatch_heads.sample_dispatch(rng, env.arrivals)
    return bits, disp, heads, dispatch_heads, dispatch_obs


class MappoPolicy:
    """Decentralized execution of trained actors (the critic is not used).

    Actions are sampled from the stochastic policy as trained; ``greedy``
    takes each head's mode instead.
    """

    def __init__(
        self,
        actors: ActorGroup,
        env_config: EnvConfig,
        greedy: bool = False,
        two_phase: bool = False,
    ):
        self.actors = actors
        self.env_config = env_config
        self.greedy = greedy
        self.two_phase = two_phase
        self.name = "mappo"
        self._rng = np.random.default_rng(0)

    def begin_episode(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def act(self, env: DispatchEnv) -> JointAction:
        cfg = env.config
        if cfg.n_dispatchers != self.env_config.n_dispatchers or cfg.n_servers != self.env_config.n_servers:
            raise ConfigError(
                "environment dimensions do not match the dimensions this policy was trained for"
            )
        obs = encode_actor_batch(env.knowledge, cfg, self.actors.shared)
        rng = None if self.greedy else self._rng
        bits, disp, *_ = select_actions(self.actors, env, obs, self.two_phase, rng)
        return JointAction(bits, dispatch_targets(disp))


# ---------------------------------------------------------------------------
# rollouts and advantage estimation


@dataclass
class RolloutBuffer:
    """One rollout of trajectories for a MAPPO update.

    Per slot: critic state, team reward, critic value. Per slot and
    dispatcher: encoded observation, sampled action, behavior log-prob.
    Episode truncations inside the rollout carry their own bootstrap values;
    ``bootstrap_value`` bootstraps the final slot. Advantages and return
    targets are filled in by :func:`compute_gae`.
    """

    actor_obs: np.ndarray
    query_bits: np.ndarray
    dispatch: np.ndarray
    log_probs: np.ndarray
    states: np.ndarray
    rewards: np.ndarray
    values: np.ndarray
    episode_ends: np.ndarray
    end_values: dict[int, float] = field(default_factory=dict)
    bootstrap_value: Optional[float] = None
    advantages: Optional[np.ndarray] = None
    returns: Optional[np.ndarray] = None
    # two-phase policies: the observation the dispatch head conditioned on
    # (pre-query observation refreshed with the slot's query responses)
    actor_obs_refreshed: Optional[np.ndarray] = None

    @property
    def length(self) -> int:
        return self.rewards.shape[0]

    @property
    def n_agents(self) -> int:
        return self.actor_obs.shape[1]


class ValueNormalizer:
    """Debiased exponential moving estimate of return mean/std.

    Return targets scale like reward/(1-discount), far from the critic's
    unit-scale initialization; training the critic in normalized space keeps
    one learning rate workable across configs. Before the first update the
    transform is the identity.
    """

    def __init__(self, rate: float = 0.99):
        self.rate = rate
        self.mean = 0.0
        self.sq = 0.0
        self.weight = 0.0

    def update(self, targets: np.ndarray) -> None:
        self.mean = self.rate * self.mean + (1.0 - self.rate) * float(np.mean(targets))
        self.sq = self.rate * self.sq + (1.0 - self.rate) * float(np.mean(targets**2))
        self.weight = self.rate * self.weight + (1.0 - self.rate)

    def _stats(self) -> tuple[float, float]:
        if self.weight == 0.0:
            return 0.0, 1.0
        mean = self.mean / self.weight
        var = max(self.sq / self.weight - mean * mean, 1e-8)
        return mean, float(np.sqrt(var))

    def normalize(self, x: np.ndarray) -> np.ndarray:
        mean, std = self._stats()
        return (x - mean) / std

    def denormalize(self, x: np.ndarray) -> np.ndarray:
        mean, std = self._stats()
        return mean + std * x

    def state_arrays(self, prefix: str) -> dict[str, np.ndarray]:
        return {f"{prefix}stats": np.array([self.mean, self.sq, self.weight, self.rate])}

    def load_state_arrays(self, prefix: str, arrays) -> None:
        self.mean, self.sq, self.weight, self.rate = (float(v) for v in arrays[f"{prefix}stats"])


def _critic_values(critic: DenseNet, states: np.ndarray, normalizer: Optional[ValueNormalizer]) -> np.ndarray:
    raw = critic.forward(states)[:, 0]
    return normalizer.denormalize(raw) if normalizer is not None else raw


def collect_rollout(
    env: DispatchEnv,
    actors: ActorGroup,
    critic: DenseNet,
    train_config: TrainConfig,
    rng: np.random.Generator,
    normalizer: Optional[ValueNormalizer] = None,
) -> RolloutBuffer:
    """Run the envs for ``rollout_length`` slots, sampling from the actors.

    Episodes that hit the horizon inside the rollout are bootstrapped with
    the critic's value of the truncated state and the env is reset in place.
    """
    cfg = env.config
    two_phase = train_config.two_phase_policy
    length, n, k = train_config.rollout_length, cfg.n_dispatchers, cfg.n_servers
    actor_obs = np.empty((length, n, actors.obs_dim))
    actor_obs_refreshed = np.empty((length, n, actors.obs_dim)) if two_phase else None
    query_bits = np.empty((length, n, k), dtype=np.int8)
    dispatch = np.empty((length, n), dtype=np.int64)
    log_probs = np.empty((length, n))
    states = np.empty((length, critic_state_dim(cfg)))
    rewards = np.empty(length)
    episode_ends = np.zeros(length, dtype=bool)
    end_states: list[tuple[int, np.ndarray]] = []

    for t in range(length):
        obs = encode_actor_batch(env.knowledge, cfg, actors.shared)
        state = encode_critic_state(env.world, cfg)
        bits, disp, heads, dispatch_heads, dispatch_obs = select_actions(
            actors, env, obs, two_phase, rng
        )
        log_probs[t] = heads.log_prob_queries(bits) + dispatch_heads.log_prob_dispatch(disp)
        outcome = env.step(JointAction(bits, dispatch_targets(disp)))

        actor_obs[t] = obs
        if two_phase:
            actor_obs_refreshed[t] = dispatch_obs
        query_bits[t] = bits
        dispatch[t] = disp
        states[t] = state
        rewards[t] = outcome.team_reward
        if env.done:
            episode_ends[t] = True
            end_states.append((t, encode_critic_state(env.world, cfg)))
            env.reset()

    tail = encode_critic_state(env.world, cfg)
    extra = np.vstack([s for _, s in end_states] + [tail])
    all_values = _critic_values(critic, np.vstack([states, extra]), normalizer)
    values = all_values[:length]
    end_values = {
        t: float(v) for (t, _), v in zip(end_states, all_values[length:])
    }
    bootstrap = float(all_values[-1])

    return RolloutBuffer(
        actor_obs=actor_obs,
        query_bits=query_bits,
        dispatch=dispatch,
        log_probs=log_probs,
        states=states,
        rewards=rewards,
        values=values,
        episode_ends=episode_ends,
        end_values=end_values,
        bootstrap_value=bootstrap,
        actor_obs_refreshed=actor_obs_refreshed,
    )


def compute_gae(
    buffer: RolloutBuffer, discount: float, gae_lambda: float
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimates and return targets for a rollout.

    One-step TD errors ``reward + discount * V(next) - V(current)`` are
    accumulated backwards with weight ``discount * gae_lambda``, restarting
    at episode boundaries; return targets are advantages plus values. With
    ``gae_lambda=0`` this reduces to the one-step advantage, with
    ``gae_lambda=1`` to discounted reward sums around the value baseline.
    """
    if buffer.bootstrap_value is None:
        raise ContractViolation("rollout buffer is missing its terminal bootstrap value")
    length = buffer.length
    next_values = np.empty(length)
    for t in range(length):
        if buffer.episode_ends[t]:
            if t not in buffer.end_values:
                raise ContractViolation(f"episode boundary at slot {t} has no bootstrap value")
            next_values[t] = buffer.end_values[t]
        elif t + 1 < length:
            next_values[t] = buffer.values[t + 1]
        else:
            next_values[t] = buffer.bootstrap_value

    advantages = np.empty(length)
    carry = 0.0
    for t in range(length - 1, -1, -1):
        delta = buffer.rewards[t] + discount * next_values[t] - buffer.values[t]
        if buffer.episode_ends[t]:
            carry = 0.0
        carry = delta + discount * gae_lambda * carry
        advantages[t] = carry
    returns = advantages + buffer.values
    buffer.advantages = advantages
    buffer.returns = returns
    return advantages, returns


# ---------------------------------------------------------------------------
# losses


@dataclass(frozen=True)
class SurrogateResult:
    """One value per batch: scalars for a 1-D batch, one per member for a
    ``(members, samples)`` batch."""

    objective: np.ndarray
    mean_ratio: np.ndarray
    clip_fraction: np.ndarray
    n_excluded: np.ndarray
    # d(objective)/d(new log-prob) per sample
    grad_coeff: np.ndarray


def clipped_surrogate(
    new_log_probs: np.ndarray,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    clip_epsilon: float,
) -> SurrogateResult:
    """Clipped-ratio policy objective (to be maximized) of the samples along
    the last axis; leading axes hold independent batches.

    Per sample the contribution is ``min(ratio * adv, clip(ratio) * adv)``
    with the ratio of new to old action probability. Samples with a
    non-finite ratio are excluded and counted. ``grad_coeff`` is the
    objective's derivative in each new log-prob: ``ratio * adv / n_used``
    where the unclipped term is the minimum, zero where it is clipped or
    excluded.
    """
    new_log_probs = np.asarray(new_log_probs, dtype=np.float64)
    old_log_probs = np.asarray(old_log_probs, dtype=np.float64)
    advantages = np.asarray(advantages, dtype=np.float64)
    if not new_log_probs.shape == old_log_probs.shape == advantages.shape:
        raise ValueError("log-prob and advantage vectors must have identical shapes")
    with np.errstate(over="ignore"):  # overflow -> inf -> excluded below
        ratio = np.exp(new_log_probs - old_log_probs)
    finite = np.isfinite(ratio)
    n_finite = finite.sum(axis=-1)
    safe_ratio = np.where(finite, ratio, 1.0)
    unclipped = safe_ratio * advantages
    clipped = np.clip(safe_ratio, 1.0 - clip_epsilon, 1.0 + clip_epsilon) * advantages
    per_sample = np.where(finite, np.minimum(unclipped, clipped), 0.0)
    n_used = np.maximum(n_finite, 1)
    objective = per_sample.sum(axis=-1) / n_used
    with np.errstate(invalid="ignore"):  # no finite sample: the mean ratio is nan
        mean_ratio = np.where(finite, safe_ratio, 0.0).sum(axis=-1) / n_finite
    clip_fraction = ((np.abs(safe_ratio - 1.0) > clip_epsilon) & finite).sum(axis=-1) / n_used
    grad_coeff = np.where(finite & (unclipped <= clipped), unclipped, 0.0) / n_used[..., None]
    n_excluded = advantages.shape[-1] - n_finite
    return SurrogateResult(objective, mean_ratio, clip_fraction, n_excluded, grad_coeff)


def value_loss(values: np.ndarray, targets: np.ndarray) -> float:
    """Mean squared error between predicted values and return targets."""
    values = np.asarray(values, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if values.shape != targets.shape:
        raise ValueError("values and targets must have identical shapes")
    return float(np.mean((values - targets) ** 2))


def total_loss(
    policy_term: float,
    value_term: float,
    entropy_term: float,
    value_coef: float,
    entropy_coef: float,
) -> float:
    """Scalar training loss: minimizing it maximizes the policy objective and
    the entropy bonus while fitting the critic."""
    return -policy_term + value_coef * value_term - entropy_coef * entropy_term


# ---------------------------------------------------------------------------
# the update


@dataclass
class UpdateStats:
    surrogate: float
    value_loss: float
    entropy: float
    mean_ratio: float
    clip_fraction: float
    first_minibatch_mean_ratio: float
    aborted_minibatches: int
    adv_mean: float
    adv_std: float

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def normalize_advantages(advantages: np.ndarray) -> np.ndarray:
    """Standardize one update batch of advantages to mean 0, std 1."""
    advantages = np.asarray(advantages, dtype=np.float64)
    return (advantages - advantages.mean()) / (advantages.std() + 1e-8)


def _minibatches(pools: np.ndarray, count: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Up to ``count`` shuffled ``(members, size)`` blocks of sample indices
    that together cover each member's row of ``pools`` once. The members'
    permutations are drawn in member order."""
    perms = np.stack([pool[rng.permutation(pool.size)] for pool in pools])
    return np.array_split(perms, min(count, pools.shape[1]), axis=1)


def mappo_update(
    buffer: RolloutBuffer,
    actors: ActorGroup,
    critic: DenseNet,
    train_config: TrainConfig,
    actor_opt: Adam,
    critic_opt: Adam,
    rng: np.random.Generator,
    normalizer: Optional[ValueNormalizer] = None,
) -> UpdateStats:
    """One MAPPO update: several epochs of shuffled minibatches.

    Actors minimize the negated clipped surrogate minus the entropy bonus on
    their own observation/action samples (every agent sees the shared team
    advantage); the critic fits the return targets on full-state inputs.
    Each actor minibatch holds one block of samples per actor member and
    takes one forward, backward and optimizer step for all of them. A
    member's minibatch whose loss or gradients go non-finite is skipped and
    counted.
    """
    if buffer.advantages is None or buffer.returns is None:
        raise ContractViolation("compute_gae must run before mappo_update")
    cfg = train_config
    two_phase = cfg.two_phase_policy
    if two_phase and buffer.actor_obs_refreshed is None:
        raise ContractViolation("two-phase update needs the refreshed observations in the buffer")
    length, n_agents = buffer.length, buffer.n_agents
    k = actors.env_config.n_servers
    net, members = actors.net, actors.net.members

    adv = buffer.advantages
    adv_mean, adv_std = float(adv.mean()), float(adv.std())
    if cfg.normalize_advantages:
        adv = normalize_advantages(adv)

    flat_obs = buffer.actor_obs.reshape(length * n_agents, -1)
    flat_obs2 = (
        buffer.actor_obs_refreshed.reshape(length * n_agents, -1) if two_phase else None
    )
    flat_bits = buffer.query_bits.reshape(length * n_agents, k)
    flat_disp = buffer.dispatch.reshape(length * n_agents)
    flat_old_lp = buffer.log_probs.reshape(length * n_agents)
    flat_adv = np.repeat(adv, n_agents)
    # each member's samples (index t * n_agents + agent): every sample for a
    # shared actor, its own agent's for per-dispatcher actors
    pools = np.arange(length * n_agents).reshape(-1, members).T

    targets = buffer.returns
    if normalizer is not None:
        normalizer.update(targets)
        targets = normalizer.normalize(targets)

    # per actor minibatch and member: stepped, surrogate, entropy, ratio, clip fraction
    records: list[np.ndarray] = []
    vlosses: list[float] = []
    aborted = 0

    for _ in range(cfg.epochs_per_update):
        for idx in _minibatches(pools, cfg.minibatch_count, rng):
            rows = idx.ravel()
            bits, disp = flat_bits[rows], flat_disp[rows]
            has_disp = disp >= 0
            heads_q = PolicyHeads(net.forward(flat_obs[rows]), k)
            heads_d = PolicyHeads(net.forward(flat_obs2[rows]), k) if two_phase else heads_q
            new_lp = heads_q.log_prob_queries(bits) + heads_d.log_prob_dispatch(disp)
            entropy = heads_q.entropy_queries() + heads_d.entropy_dispatch(has_disp)
            surr = clipped_surrogate(
                new_lp.reshape(idx.shape), flat_old_lp[idx], flat_adv[idx], cfg.clip_epsilon
            )
            ent_mean = entropy.reshape(idx.shape).mean(axis=1)

            # a member whose loss is not finite must not step: its NaN
            # gradients make the optimizer skip it
            finite = np.isfinite(surr.objective) & np.isfinite(ent_mean)
            coeff = np.where(finite[:, None], surr.grad_coeff, np.nan).reshape(-1, 1)
            ent_scale = cfg.entropy_coef / idx.shape[1]
            g_q = (
                -coeff * heads_q.grad_log_prob_queries(bits)
                - ent_scale * heads_q.grad_entropy_queries()
            )
            g_d = (
                -coeff * heads_d.grad_log_prob_dispatch(disp)
                - ent_scale * heads_d.grad_entropy_dispatch(has_disp)
            )
            if two_phase:
                # the cache holds the dispatch forward: backprop it, then
                # rerun the query forward and backprop the query terms
                grads = net.backward(g_d)
                net.forward(flat_obs[rows])
                grads = [a + b for a, b in zip(grads, net.backward(g_q))]
            else:
                grads = net.backward(g_q + g_d)
            stepped = actor_opt.step(net.params, grads)
            aborted += members - int(stepped.sum())
            records.append(
                np.stack([stepped, surr.objective, ent_mean, surr.mean_ratio, surr.clip_fraction])
            )

        for (mb,) in _minibatches(np.arange(length)[None], cfg.minibatch_count, rng):
            pred = critic.forward(buffer.states[mb])[:, 0]
            vloss = value_loss(pred, targets[mb])
            if not np.isfinite(vloss):
                aborted += 1
                continue
            dpred = cfg.value_coef * 2.0 * (pred - targets[mb]) / mb.size
            if not critic_opt.step(critic.params, critic.backward(dpred[:, None])).all():
                aborted += 1
                continue
            vlosses.append(vloss)

    # stepped members' values in epoch, member, minibatch order
    table = np.array(records).reshape(cfg.epochs_per_update, -1, 5, members)
    stepped, *metrics = table.transpose(2, 0, 3, 1).reshape(5, -1)
    surrogate, entropy, ratio, clip_fraction = (m[stepped > 0] for m in metrics)

    def _mean(xs) -> float:
        return float(np.mean(xs)) if len(xs) else float("nan")

    return UpdateStats(
        surrogate=_mean(surrogate),
        value_loss=_mean(vlosses),
        entropy=_mean(entropy),
        mean_ratio=_mean(ratio),
        clip_fraction=_mean(clip_fraction),
        first_minibatch_mean_ratio=float(records[0][3, 0]),
        aborted_minibatches=aborted,
        adv_mean=adv_mean,
        adv_std=adv_std,
    )


# ---------------------------------------------------------------------------
# evaluation


@dataclass(frozen=True)
class EvalStats:
    """Decentralized evaluation metrics, averaged per slot.

    ``reward_per_slot`` is the team reward (sum over dispatchers) averaged
    over every slot of every episode; it equals
    ``throughput_per_slot - query_cost * queries_per_slot`` exactly.
    """

    episodes: int
    slots: int
    reward_per_slot: float
    throughput_per_slot: float
    queries_per_slot: float
    drops_per_slot: float
    episode_rewards: tuple[float, ...]

    @property
    def reward_se(self) -> float:
        """Standard error of the per-episode reward means."""
        if self.episodes < 2:
            return 0.0
        return float(np.std(self.episode_rewards, ddof=1) / np.sqrt(self.episodes))


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(tuple(parts)).generate_state(1, np.uint64)[0])


def evaluate(policy, env_config: EnvConfig, episodes: int, seed: int) -> EvalStats:
    """Run full decentralized episodes and average the team reward per slot.

    Works for any policy exposing ``begin_episode(rng)`` and ``act(env)``;
    the critic plays no role here. Episode seeds derive from ``seed`` so a
    rerun reproduces results exactly.
    """
    if episodes < 1:
        raise ConfigError("episodes must be >= 1")
    beta = env_config.query_cost
    total_acks = total_naks = total_queries = 0
    episode_rewards = []
    for ep in range(episodes):
        env = DispatchEnv(replace(env_config, seed=_derived_seed(seed, ep, 0)))
        policy.begin_episode(np.random.default_rng(np.random.SeedSequence((seed, ep, 1))))
        acks = naks = queries = 0
        for _ in range(env_config.horizon):
            outcome = env.step(policy.act(env))
            acks += sum(outcome.completions)
            naks += sum(outcome.drops)
            queries += sum(outcome.queries_issued)
        total_acks += acks
        total_naks += naks
        total_queries += queries
        episode_rewards.append((acks - beta * queries) / env_config.horizon)
    slots = episodes * env_config.horizon
    return EvalStats(
        episodes=episodes,
        slots=slots,
        reward_per_slot=(total_acks - beta * total_queries) / slots,
        throughput_per_slot=total_acks / slots,
        queries_per_slot=total_queries / slots,
        drops_per_slot=total_naks / slots,
        episode_rewards=tuple(episode_rewards),
    )


# ---------------------------------------------------------------------------
# checkpoints


@contextmanager
def atomic_write(path: Path, mode: str = "w", **open_kwargs):
    """File object that writes ``path`` whole or not at all: a temporary
    file in the same directory replaces ``path`` in one rename when the
    block completes, and is removed if the block raises."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_checkpoint(
    path: str | Path,
    actors: ActorGroup,
    critic: DenseNet,
    env_config: EnvConfig,
    train_config: TrainConfig,
    update_index: int,
    seed: int,
    actor_opt: Optional[Adam] = None,
    critic_opt: Optional[Adam] = None,
    normalizer: Optional[ValueNormalizer] = None,
) -> Path:
    """Versioned binary dump of networks, optimizer state, and configs; actor
    member ``i`` under ``actor{i}_`` keys."""
    path = Path(path)
    meta = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "env_config": config_as_dict(env_config),
        "train_config": config_as_dict(train_config),
        "update_index": update_index,
        "seed": seed,
        "n_actor_nets": actors.net.members,
        "actor_layer_sizes": list(actors.net.layer_sizes),
        "critic_layer_sizes": list(critic.layer_sizes),
        "has_optimizer": actor_opt is not None and critic_opt is not None,
        "has_normalizer": normalizer is not None,
    }
    arrays = {**actors.net.state_arrays("actor{}_"), **critic.state_arrays("critic_")}
    if actor_opt is not None and critic_opt is not None:
        arrays.update(actor_opt.state_arrays("actor{}_opt_"))
        arrays.update(critic_opt.state_arrays("critic_opt_"))
    if normalizer is not None:
        arrays.update(normalizer.state_arrays("vnorm_"))
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path, "wb") as fh:
        np.savez_compressed(fh, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)
    return path


@dataclass
class CheckpointBundle:
    env_config: EnvConfig
    train_config: TrainConfig
    update_index: int
    seed: int
    actors: ActorGroup
    critic: DenseNet
    actor_opt: Optional[Adam]
    critic_opt: Optional[Adam]
    normalizer: Optional[ValueNormalizer]


def _optimizers(actor: DenseNet, critic: DenseNet, train_config: TrainConfig) -> tuple[Adam, Adam]:
    lr, clip = train_config.learning_rate, train_config.max_grad_norm
    return (
        Adam(actor.params, lr, max_grad_norm=clip, members=actor.members),
        Adam(critic.params, lr, max_grad_norm=clip),
    )


def load_checkpoint(path: str | Path) -> CheckpointBundle:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"checkpoint {path} does not exist")
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    meta = json.loads(bytes(arrays.pop("meta")).decode())
    if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ConfigError(
            f"checkpoint {path} has format version {meta.get('format_version')}, "
            f"expected {CHECKPOINT_FORMAT_VERSION}"
        )
    for section, retired in (("env_config", "discount"), ("train_config", "greedy_eval")):
        meta[section].pop(retired, None)  # removed fields that older checkpoints carry
    env_config = EnvConfig(**meta["env_config"])
    train_config = TrainConfig(**meta["train_config"])
    rng = np.random.default_rng(0)
    actors = ActorGroup(env_config, train_config, rng)
    actors.net.load_state_arrays("actor{}_", arrays)
    critic = DenseNet(tuple(meta["critic_layer_sizes"]), rng)
    critic.load_state_arrays("critic_", arrays)
    actor_opt = critic_opt = None
    if meta.get("has_optimizer"):
        actor_opt, critic_opt = _optimizers(actors.net, critic, train_config)
        actor_opt.load_state_arrays("actor{}_opt_", arrays)
        critic_opt.load_state_arrays("critic_opt_", arrays)
    normalizer = None
    if meta.get("has_normalizer"):
        normalizer = ValueNormalizer()
        normalizer.load_state_arrays("vnorm_", arrays)
    return CheckpointBundle(
        env_config=env_config,
        train_config=train_config,
        update_index=int(meta["update_index"]),
        seed=int(meta["seed"]),
        actors=actors,
        critic=critic,
        actor_opt=actor_opt,
        critic_opt=critic_opt,
        normalizer=normalizer,
    )


def load_policy(path: str | Path, greedy: bool = False) -> tuple[MappoPolicy, EnvConfig]:
    """Evaluation-only load: actors plus the env config they were trained on."""
    bundle = load_checkpoint(path)
    policy = MappoPolicy(
        bundle.actors,
        bundle.env_config,
        greedy=greedy,
        two_phase=bundle.train_config.two_phase_policy,
    )
    return policy, bundle.env_config


# ---------------------------------------------------------------------------
# trainer


class Trainer:
    """Owns the training state and runs the update loop.

    Emits one JSON line per update when given a progress path and writes a
    checkpoint every ``eval_interval`` updates plus a final one. Resuming
    restores networks, optimizers, and the value normalizer; environment
    episodes restart fresh (the world itself is not serialized).
    """

    def __init__(
        self,
        env_config: EnvConfig,
        train_config: TrainConfig,
        seed: int = 0,
        out_dir: Optional[str | Path] = None,
    ):
        self.env_config = env_config
        self.train_config = train_config
        self.seed = seed
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.update_index = 0

        init_rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
        self.actors = ActorGroup(env_config, train_config, init_rng)
        critic_sizes = (critic_state_dim(env_config), *train_config.hidden_sizes, 1)
        self.critic = DenseNet(critic_sizes, init_rng, out_gain=1.0)
        self._check_dimensions()

        self.actor_opt, self.critic_opt = _optimizers(self.actors.net, self.critic, train_config)
        self.normalizer = ValueNormalizer() if train_config.normalize_values else None

        self.env = DispatchEnv(replace(env_config, seed=_derived_seed(seed, 0)))
        self._sample_rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
        self._shuffle_rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
        self._eval_seed = _derived_seed(seed, 4)
        self.history: list[dict] = []

    def _check_dimensions(self) -> None:
        expected_actor = actor_obs_dim(self.env_config, self.train_config.parameter_sharing)
        expected_critic = critic_state_dim(self.env_config)
        if self.actors.net.layer_sizes[0] != expected_actor:
            raise ConfigError(
                f"actor input size {self.actors.net.layer_sizes[0]} != "
                f"local observation size {expected_actor}"
            )
        if self.critic.layer_sizes[0] != expected_critic:
            raise ConfigError(
                f"critic input size {self.critic.layer_sizes[0]} != full state size {expected_critic}"
            )

    @classmethod
    def from_checkpoint(
        cls, path: str | Path, out_dir: Optional[str | Path] = None
    ) -> "Trainer":
        bundle = load_checkpoint(path)
        if bundle.actor_opt is None or bundle.critic_opt is None:
            raise ConfigError(f"checkpoint {path} has no optimizer state; cannot resume")
        trainer = cls(bundle.env_config, bundle.train_config, seed=bundle.seed, out_dir=out_dir)
        trainer.actors = bundle.actors
        trainer.critic = bundle.critic
        trainer.actor_opt = bundle.actor_opt
        trainer.critic_opt = bundle.critic_opt
        trainer.normalizer = bundle.normalizer
        trainer.update_index = bundle.update_index
        return trainer

    def policy(self, greedy: bool = False) -> MappoPolicy:
        return MappoPolicy(
            self.actors,
            self.env_config,
            greedy=greedy,
            two_phase=self.train_config.two_phase_policy,
        )

    def save(self, path: str | Path) -> Path:
        return save_checkpoint(
            path,
            self.actors,
            self.critic,
            self.env_config,
            self.train_config,
            self.update_index,
            self.seed,
            actor_opt=self.actor_opt,
            critic_opt=self.critic_opt,
            normalizer=self.normalizer,
        )

    def run_update(self) -> UpdateStats:
        buffer = collect_rollout(
            self.env, self.actors, self.critic, self.train_config, self._sample_rng, self.normalizer
        )
        compute_gae(buffer, self.train_config.discount, self.train_config.gae_lambda)
        stats = mappo_update(
            buffer,
            self.actors,
            self.critic,
            self.train_config,
            self.actor_opt,
            self.critic_opt,
            self._shuffle_rng,
            self.normalizer,
        )
        self.update_index += 1
        return stats

    def train(
        self,
        n_updates: Optional[int] = None,
        progress_path: Optional[str | Path] = None,
        log: Optional[Callable[[str], None]] = None,
        on_record: Optional[Callable[[dict], None]] = None,
    ) -> list[dict]:
        """Run updates until ``total_updates``; returns per-update records."""
        cfg = self.train_config
        target = self.update_index + n_updates if n_updates is not None else cfg.total_updates
        progress_fh = None
        if progress_path is not None:
            Path(progress_path).parent.mkdir(parents=True, exist_ok=True)
            progress_fh = open(progress_path, "a")
        try:
            while self.update_index < target:
                start = time.perf_counter()
                stats = self.run_update()
                record = {"update": self.update_index, **stats.as_dict()}
                record["seconds"] = round(time.perf_counter() - start, 4)
                if self.update_index % cfg.eval_interval == 0 or self.update_index == target:
                    eval_stats = evaluate(
                        self.policy(), self.env_config, cfg.eval_episodes, self._eval_seed
                    )
                    record["eval_reward_per_slot"] = eval_stats.reward_per_slot
                    record["eval_queries_per_slot"] = eval_stats.queries_per_slot
                    if self.out_dir is not None:
                        self.save(self.out_dir / f"checkpoint_{self.update_index:06d}.npz")
                self.history.append(record)
                if progress_fh is not None:
                    progress_fh.write(json.dumps(record, sort_keys=True) + "\n")
                    progress_fh.flush()
                if on_record is not None:
                    on_record(record)
                if log is not None:
                    log(
                        f"update {record['update']}: surrogate={stats.surrogate:.4f} "
                        f"value_loss={stats.value_loss:.4f} entropy={stats.entropy:.3f}"
                        + (
                            f" eval_reward={record['eval_reward_per_slot']:.4f}"
                            if "eval_reward_per_slot" in record
                            else ""
                        )
                    )
            if self.out_dir is not None:
                self.save(self.out_dir / "checkpoint_final.npz")
        finally:
            if progress_fh is not None:
                progress_fh.close()
        return self.history
