"""MAPPO training loop: centralized critic, decentralized actors.

During training one critic sees the full world state (true availabilities,
true queue lengths, and the whole age matrix) while each dispatcher's actor
sees only its own stale knowledge snapshot. All actors learn from the team
reward. Execution is fully decentralized: a trained policy acts from
snapshots alone.

Actors share one network by default, with a one-hot dispatcher id appended
to the observation; set ``parameter_sharing=False`` for per-dispatcher
networks. The query head is conditioned on the pre-query observation. By
default so is the dispatch head, and a query issued this slot refreshes what
the actor sees from the next slot on; with ``two_phase_policy`` the dispatch
head instead sees the observation overlaid with this slot's query answers.
"""

from __future__ import annotations

import json
import time
import zipfile
from contextlib import ExitStack
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .config import EnvConfig, TrainConfig, _as_int, config_as_dict, config_from_section
from .env import DispatchEnv, JointAction, Knowledge, WorldState, dispatch_targets
from .errors import ConfigError, ContractViolation
from .nn import Adam, DenseNet, PolicyHeads, one_blas_thread
from .records import RecordWriter, atomic_write

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
    out = np.empty((config.n_dispatchers, actor_obs_dim(config, parameter_sharing)))
    _encode_ids(out, config, parameter_sharing)
    _encode_servers(out, knowledge, config)
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


def _encode_ids(out: np.ndarray, config: EnvConfig, parameter_sharing: bool) -> None:
    """Write the one-hot dispatcher ids into the last axis of ``out`` (one
    or more stacked ``(n_dispatchers, obs_dim)`` batches)."""
    if parameter_sharing:
        out[..., 3 * config.n_servers :] = np.eye(config.n_dispatchers)


def _encode_servers(out: np.ndarray, knowledge: Knowledge, config: EnvConfig) -> None:
    """Write the per-server triples of :func:`encode_actor_batch` into ``out``."""
    k3 = 3 * config.n_servers
    out[:, 0:k3:3] = knowledge.seen_available
    np.divide(knowledge.seen_queue, config.queue_capacity, out=out[:, 1:k3:3])
    np.divide(np.minimum(knowledge.aoi, config.aoi_cap), float(config.aoi_cap), out=out[:, 2:k3:3])


# ---------------------------------------------------------------------------
# actor container


class ActorGroup:
    """The dispatcher policies: one net whose members are either a single
    actor shared by all dispatchers or one actor per dispatcher. ``rng`` None
    leaves the net at zero for a checkpoint to fill (see :class:`DenseNet`).
    ``two_phase`` is ``train_config.two_phase_policy``: the dispatch head
    conditions on the knowledge overlaid with the slot's query answers."""

    def __init__(
        self, env_config: EnvConfig, train_config: TrainConfig, rng: Optional[np.random.Generator]
    ):
        self.env_config = env_config
        self.shared = train_config.parameter_sharing
        self.two_phase = train_config.two_phase_policy
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
    dispatch_obs: Optional[np.ndarray],
    rng: Optional[np.random.Generator] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One decentralized decision per dispatcher: query bits, then dispatch.

    Samples with ``rng`` (the query bits' uniforms, then one per arrival),
    or takes each head's mode when ``rng`` is None. With ``dispatch_obs``
    None the dispatch head is the query head. Otherwise the policy is
    two-phase: it issues its queries on ``env``, writes the knowledge
    overlaid with their answers (age 0 encodes as 0.0, fresher than any
    stored knowledge) into the server columns of ``dispatch_obs``, whose
    dispatcher-id columns the caller has set, and conditions the dispatch
    head on it. Returns ``(bits, dispatch, logits, dispatch_logits)``, the
    logits being the actor outputs the two heads sampled from.
    """
    heads = actors.heads(obs)
    bits = heads.greedy_queries() if rng is None else heads.sample_queries(rng)
    dispatch_heads = heads
    if dispatch_obs is not None:
        _encode_servers(dispatch_obs, env.process_queries(bits), env.config)
        dispatch_heads = actors.heads(dispatch_obs)
    if rng is None:
        disp = dispatch_heads.greedy_dispatch(env.arrivals)
    else:
        disp = dispatch_heads.sample_dispatch(rng, env.arrivals)
    return bits, disp, heads.raw, dispatch_heads.raw


class MappoPolicy:
    """Decentralized execution of trained actors (the critic is not used).

    Actions are sampled from the stochastic policy as trained; ``greedy``
    takes each head's mode instead. The env dimensions and the phase come
    from ``actors``. :meth:`act` encodes into observation arrays the policy
    keeps per env config, so one instance serves one caller at a time.
    """

    def __init__(self, actors: ActorGroup, greedy: bool = False):
        self.actors = actors
        self.greedy = greedy
        self._rng = np.random.default_rng(0)
        # the env config the observation buffers were set up for
        self._config: Optional[EnvConfig] = None
        self._obs = self._dispatch_obs = None

    def begin_episode(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def act(self, env: DispatchEnv) -> JointAction:
        cfg = env.config
        if cfg is not self._config:
            check_dimensions("this policy", self.actors.env_config, cfg)
            self._obs = np.empty((cfg.n_dispatchers, self.actors.obs_dim))
            _encode_ids(self._obs, cfg, self.actors.shared)
            self._dispatch_obs = self._obs.copy() if self.actors.two_phase else None
            self._config = cfg
        _encode_servers(self._obs, env.knowledge, cfg)
        rng = None if self.greedy else self._rng
        bits, disp, _, _ = select_actions(self.actors, env, self._obs, self._dispatch_obs, rng)
        return JointAction(bits, dispatch_targets(disp))


# ---------------------------------------------------------------------------
# rollouts and advantage estimation


@dataclass
class RolloutBuffer:
    """One rollout of trajectories for a MAPPO update.

    Per slot: critic state, team reward, critic value, and ``next_values``,
    the critic value of the state the slot leads to: the next slot's value,
    the truncated state's where an episode ends at the slot, and the final
    state's at the last slot. Per slot and dispatcher: encoded observation,
    sampled action, behavior log-prob. :func:`compute_gae` turns a buffer
    into advantages and return targets.
    """

    actor_obs: np.ndarray
    query_bits: np.ndarray
    dispatch: np.ndarray
    log_probs: np.ndarray
    states: np.ndarray
    rewards: np.ndarray
    values: np.ndarray
    next_values: np.ndarray
    episode_ends: np.ndarray
    # two-phase policies: the observation the dispatch head conditioned on
    # (the encoded knowledge overlaid with the slot's query answers)
    actor_obs_refreshed: Optional[np.ndarray] = None

    @property
    def length(self) -> int:
        return self.rewards.shape[0]


class ValueNormalizer:
    """Debiased exponential moving estimate of return mean/std.

    Return targets scale like reward/(1-discount), far from the critic's
    unit-scale initialization; training the critic in normalized space keeps
    one learning rate workable across configs. Before the first update the
    transform is the identity.
    """

    rate = 0.99  # fixed; checkpoints store it, and one with another rate does not load

    def __init__(self):
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
        self.mean, self.sq, self.weight, rate = (float(v) for v in arrays[f"{prefix}stats"])
        if rate != self.rate:
            raise ValueError(f"{prefix}stats holds the rate {rate!r}, not {self.rate!r}")


def collect_rollout(
    env: DispatchEnv,
    actors: ActorGroup,
    critic: DenseNet,
    train_config: TrainConfig,
    rng: np.random.Generator,
    normalizer: Optional[ValueNormalizer] = None,
) -> RolloutBuffer:
    """Run ``env`` for ``rollout_length`` slots, sampling from the actors.

    Episodes that hit the horizon inside the rollout are bootstrapped with
    the critic's value of the truncated state and the env is reset in place.
    Each slot encodes the actor observations straight into the buffer and
    keeps the actor logits (two-phase: also the dispatch-phase logits). The
    critic states and the behavior log-probs, which no slot reads, are
    completed once, after the last slot, and one critic pass over the slots'
    states, the truncated states and the final state gives ``values`` and
    ``next_values``.
    """
    cfg = env.config
    two_phase = actors.two_phase
    length, n, k = train_config.rollout_length, cfg.n_dispatchers, cfg.n_servers
    actor_obs = np.empty((length, n, actors.obs_dim))
    _encode_ids(actor_obs, cfg, actors.shared)
    actor_obs_refreshed = actor_obs.copy() if two_phase else None
    logits = np.empty((length, n, 2 * k))
    dispatch_logits = np.empty((length, n, 2 * k)) if two_phase else None
    query_bits = np.empty((length, n, k), dtype=np.int8)
    dispatch = np.empty((length, n), dtype=np.int64)
    states = np.empty((length, critic_state_dim(cfg)))
    rewards = np.empty(length)
    episode_ends = np.zeros(length, dtype=bool)
    end_states: list[np.ndarray] = []

    for t in range(length):
        _encode_servers(actor_obs[t], env.knowledge, cfg)
        states[t, :k] = env.world.available
        states[t, k : 2 * k] = env.world.length  # normalized after the loop
        bits, disp, slot_logits, slot_dispatch_logits = select_actions(
            actors, env, actor_obs[t], actor_obs_refreshed[t] if two_phase else None, rng
        )
        logits[t] = slot_logits
        if two_phase:
            dispatch_logits[t] = slot_dispatch_logits
        query_bits[t] = bits
        dispatch[t] = disp
        rewards[t] = env.step(JointAction(bits, dispatch_targets(disp))).team_reward
        if env.done:
            episode_ends[t] = True
            end_states.append(encode_critic_state(env.world, cfg))
            env.reset()

    # the rest of the critic state of every slot: queue fill, and the ages
    # the actors saw
    states[:, k : 2 * k] /= cfg.queue_capacity
    states[:, 2 * k :] = actor_obs[:, :, 2 : 3 * k : 3].reshape(length, n * k)

    query_heads = PolicyHeads(logits.reshape(length * n, 2 * k), k)
    dispatch_heads = (
        PolicyHeads(dispatch_logits.reshape(length * n, 2 * k), k) if two_phase else query_heads
    )
    log_probs = (
        query_heads.log_prob_queries(query_bits.reshape(length * n, k))
        + dispatch_heads.log_prob_dispatch(dispatch.reshape(length * n))
    ).reshape(length, n)

    critic_in = np.vstack([states, *end_states, encode_critic_state(env.world, cfg)])
    all_values = critic.forward(critic_in)[:, 0]
    if normalizer is not None:
        all_values = normalizer.denormalize(all_values)
    values = all_values[:length]
    next_values = np.append(values[1:], all_values[-1])
    next_values[episode_ends] = all_values[length:-1]

    return RolloutBuffer(
        actor_obs=actor_obs,
        query_bits=query_bits,
        dispatch=dispatch,
        log_probs=log_probs,
        states=states,
        rewards=rewards,
        values=values,
        next_values=next_values,
        episode_ends=episode_ends,
        actor_obs_refreshed=actor_obs_refreshed,
    )


def compute_gae(
    buffer: RolloutBuffer, discount: float, gae_lambda: float
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimates and return targets ``(advantages,
    returns)`` for a rollout; the buffer is only read.

    One-step TD errors ``reward + discount * next_value - value`` are
    accumulated backwards with weight ``discount * gae_lambda``, restarting
    at episode boundaries; return targets are advantages plus values. With
    ``gae_lambda=0`` this reduces to the one-step advantage, with
    ``gae_lambda=1`` to discounted reward sums around the value baseline.
    """
    deltas = buffer.rewards + discount * buffer.next_values - buffer.values
    advantages = np.empty(buffer.length)
    carry = 0.0
    for t in range(buffer.length - 1, -1, -1):
        if buffer.episode_ends[t]:
            carry = 0.0
        carry = deltas[t] + discount * gae_lambda * carry
        advantages[t] = carry
    return advantages, advantages + buffer.values


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


PROGRESS_FIELDS = [
    "update", *(f.name for f in fields(UpdateStats)),
    "seconds", "eval_reward_per_slot", "eval_queries_per_slot",
]


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
    advantages: np.ndarray,
    returns: np.ndarray,
    actors: ActorGroup,
    critic: DenseNet,
    train_config: TrainConfig,
    actor_opt: Adam,
    critic_opt: Adam,
    rng: np.random.Generator,
    normalizer: Optional[ValueNormalizer] = None,
) -> UpdateStats:
    """One MAPPO update on a rollout and its :func:`compute_gae` advantages
    and return targets: several epochs of shuffled minibatches.

    Actors minimize the negated clipped surrogate minus the entropy bonus on
    their own observation/action samples (every agent sees the shared team
    advantage); the critic fits the return targets on full-state inputs.
    Each actor minibatch holds one block of samples per actor member and
    takes one forward, backward and optimizer step for all of them. A
    member's minibatch whose loss or gradients go non-finite is skipped and
    counted.
    """
    cfg = train_config
    two_phase = actors.two_phase
    if two_phase and buffer.actor_obs_refreshed is None:
        raise ContractViolation("two-phase update needs the refreshed observations in the buffer")
    length, n_agents = buffer.log_probs.shape
    k = actors.env_config.n_servers
    net, members = actors.net, actors.net.members

    adv_mean, adv_std = float(advantages.mean()), float(advantages.std())
    if cfg.normalize_advantages:
        advantages = normalize_advantages(advantages)

    flat_obs = buffer.actor_obs.reshape(length * n_agents, -1)
    flat_obs2 = (
        buffer.actor_obs_refreshed.reshape(length * n_agents, -1) if two_phase else None
    )
    flat_bits = buffer.query_bits.reshape(length * n_agents, k)
    flat_disp = buffer.dispatch.reshape(length * n_agents)
    flat_old_lp = buffer.log_probs.reshape(length * n_agents)
    flat_adv = np.repeat(advantages, n_agents)
    # each member's samples (index t * n_agents + agent): every sample for a
    # shared actor, its own agent's for per-dispatcher actors
    pools = np.arange(length * n_agents).reshape(-1, members).T

    targets = returns
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
    the critic plays no role here. Every episode's env seed and policy
    stream derive from ``seed`` (``env_config.seed`` is not read), so a
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
            acks += len(outcome.acks)
            naks += len(outcome.naks)
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


@dataclass
class CheckpointBundle:
    """A training state: what a checkpoint stores, and what a
    :class:`Trainer` is."""

    env_config: EnvConfig
    train_config: TrainConfig
    update_index: int
    seed: int
    actors: ActorGroup
    critic: DenseNet
    actor_opt: Adam
    critic_opt: Adam
    normalizer: Optional[ValueNormalizer]


def _new_state(
    env_config: EnvConfig, train_config: TrainConfig, seed: int, rng: Optional[np.random.Generator]
) -> CheckpointBundle:
    """The state at update 0: actors, then the critic, drawn from ``rng``
    (at zero with ``rng`` None, for a checkpoint's arrays to fill), fresh
    optimizers, and a value normalizer if ``normalize_values``."""
    actors = ActorGroup(env_config, train_config, rng)
    critic_sizes = (critic_state_dim(env_config), *train_config.hidden_sizes, 1)
    critic = DenseNet(critic_sizes, rng, out_gain=1.0)
    lr, clip = train_config.learning_rate, train_config.max_grad_norm
    return CheckpointBundle(
        env_config=env_config,
        train_config=train_config,
        update_index=0,
        seed=seed,
        actors=actors,
        critic=critic,
        actor_opt=Adam(actors.net.params, lr, max_grad_norm=clip, members=actors.net.members),
        critic_opt=Adam(critic.params, lr, max_grad_norm=clip),
        normalizer=ValueNormalizer() if train_config.normalize_values else None,
    )


def _stored_parts(state: CheckpointBundle) -> list[tuple[str, object]]:
    """The parts of ``state`` a checkpoint stores, in order, each with the
    key prefix of its arrays; ``{}`` in a prefix is the actor member."""
    parts = [("actor{}_", state.actors.net), ("critic_", state.critic),
             ("actor{}_opt_", state.actor_opt), ("critic_opt_", state.critic_opt)]
    if state.normalizer is not None:
        parts.append(("vnorm_", state.normalizer))
    return parts


def save_checkpoint(path: str | Path, state: CheckpointBundle) -> Path:
    """Versioned binary dump of configs and the :func:`_stored_parts` of
    ``state``."""
    path = Path(path)
    meta = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "env_config": config_as_dict(state.env_config),
        "train_config": config_as_dict(state.train_config),
        "update_index": state.update_index,
        "seed": state.seed,
        "n_actor_nets": state.actors.net.members,
        "actor_layer_sizes": list(state.actors.net.layer_sizes),
        "critic_layer_sizes": list(state.critic.layer_sizes),
        "has_optimizer": True,
        "has_normalizer": state.normalizer is not None,
    }
    arrays = {k: a for prefix, part in _stored_parts(state) for k, a in part.state_arrays(prefix).items()}
    with atomic_write(path, "wb") as fh:
        np.savez_compressed(fh, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)
    return path


def _stored_config(meta: dict, section: str, cls, retired: str):
    """The ``cls`` config stored under ``meta[section]``, less the
    ``retired`` field older checkpoints carry."""
    data = meta.get(section)
    if isinstance(data, dict):
        data.pop(retired, None)
    return config_from_section(cls, data, section)


def load_checkpoint(path: str | Path) -> CheckpointBundle:
    """The training state :func:`save_checkpoint` wrote to ``path``. The
    nets are built from the stored configs with no initialization draw, and
    every stored array must have the shape its net or optimizer expects.
    Anything else raises a :class:`ConfigError` naming the file."""
    path = Path(path)
    try:
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        meta = json.loads(bytes(arrays.pop("meta")).decode())
    except (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        # a missing, text, empty, .npy or broken zip file, or an npz without checkpoint metadata
        raise ConfigError(f"cannot load checkpoint {path}: {type(exc).__name__}: {exc}") from exc
    version = meta.get("format_version") if isinstance(meta, dict) else None
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ConfigError(
            f"checkpoint {path} has format version {version}, expected {CHECKPOINT_FORMAT_VERSION}"
        )
    try:
        state = _new_state(
            _stored_config(meta, "env_config", EnvConfig, "discount"),
            _stored_config(meta, "train_config", TrainConfig, "greedy_eval"),
            _as_int(meta["seed"], "seed"),
            None,
        )
        state.update_index = _as_int(meta["update_index"], "update_index")
        for prefix, part in _stored_parts(state):
            part.load_state_arrays(prefix, arrays)
    except (ConfigError, KeyError, ValueError) as exc:
        # a missing array or meta key, a bad config section, or a shape mismatch
        raise ConfigError(f"malformed checkpoint {path}: {type(exc).__name__}: {exc}") from exc
    return state


def load_policy(path: str | Path, greedy: bool = False) -> tuple[MappoPolicy, EnvConfig]:
    """Evaluation-only load: actors plus the env config they were trained on."""
    bundle = load_checkpoint(path)
    return MappoPolicy(bundle.actors, greedy=greedy), bundle.env_config


def check_dimensions(source: str, trained_on: EnvConfig, requested: EnvConfig) -> None:
    """Reject ``requested`` unless it has the dispatcher and server counts of
    ``trained_on``, the env config ``source`` (a policy or checkpoint, as the
    message names it) was trained on."""
    if (requested.n_dispatchers, requested.n_servers) != (trained_on.n_dispatchers, trained_on.n_servers):
        raise ConfigError(
            f"{source} was trained for {trained_on.n_dispatchers} dispatchers x "
            f"{trained_on.n_servers} servers, not the requested "
            f"{requested.n_dispatchers} x {requested.n_servers}"
        )


# ---------------------------------------------------------------------------
# trainer


class Trainer(CheckpointBundle):
    """A training state that runs the update loop.

    Writes one progress record per update when given a progress path (see
    :meth:`train`) and a checkpoint every ``eval_interval`` updates plus a
    final one. Resuming restores networks, optimizers, and the value
    normalizer; environment episodes restart fresh (the world itself is not
    serialized). The initialization draw, the env seed, and the sampling,
    shuffling and evaluation streams all derive from ``seed``;
    ``env_config.seed`` is not read.

    Each update (rollout, GAE and PPO epochs) runs with every loaded OpenBLAS
    on one thread, and the caller's thread counts are back in place when
    :meth:`run_update` returns or raises; evaluation and checkpoint writes
    run on the caller's counts.
    """

    def __init__(
        self,
        env_config: EnvConfig,
        train_config: TrainConfig,
        seed: int = 0,
        out_dir: Optional[str | Path] = None,
    ):
        init_rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
        self._start(_new_state(env_config, train_config, seed, init_rng), out_dir)

    def _start(self, state: CheckpointBundle, out_dir: Optional[str | Path]) -> None:
        """Take over ``state`` and start a fresh environment and the seed's
        sampling streams."""
        vars(self).update(vars(state))
        seed = self.seed
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.env = DispatchEnv(replace(self.env_config, seed=_derived_seed(seed, 0)))
        self._sample_rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
        self._shuffle_rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
        self._eval_seed = _derived_seed(seed, 4)
        self.history: list[dict] = []

    @classmethod
    def from_checkpoint(
        cls, path: str | Path, out_dir: Optional[str | Path] = None
    ) -> "Trainer":
        trainer = cls.__new__(cls)  # no fresh networks: the checkpoint's replace them
        trainer._start(load_checkpoint(path), out_dir)
        return trainer

    def policy(self, greedy: bool = False) -> MappoPolicy:
        return MappoPolicy(self.actors, greedy=greedy)

    def save(self, path: str | Path) -> Path:
        return save_checkpoint(path, self)

    def run_update(self) -> UpdateStats:
        """One rollout, GAE and PPO update, on one BLAS thread (see
        :func:`one_blas_thread`)."""
        with one_blas_thread():
            buffer = collect_rollout(
                self.env, self.actors, self.critic, self.train_config, self._sample_rng, self.normalizer
            )
            advantages, returns = compute_gae(buffer, self.train_config.discount, self.train_config.gae_lambda)
            stats = mappo_update(
                buffer,
                advantages,
                returns,
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
        """Run updates until ``total_updates``; returns per-update records.

        With ``progress_path``, each record (:data:`PROGRESS_FIELDS`) also
        goes to that file, as csv for a ``.csv`` suffix and jsonl otherwise.
        A trainer at update 0 starts the file over; any other appends to it.
        """
        cfg = self.train_config
        target = self.update_index + n_updates if n_updates is not None else cfg.total_updates
        with ExitStack() as files:
            progress = None
            if progress_path is not None:
                progress_path = Path(progress_path)
                progress_path.parent.mkdir(parents=True, exist_ok=True)
                progress_fh = files.enter_context(
                    open(progress_path, "w" if self.update_index == 0 else "a", newline="")
                )
                fmt = "csv" if progress_path.suffix == ".csv" else "jsonl"
                progress = RecordWriter(progress_fh, fmt, PROGRESS_FIELDS)
            while self.update_index < target:
                start = time.perf_counter()
                stats = self.run_update()
                record = {"update": self.update_index, **vars(stats)}
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
                if progress is not None:
                    progress.write(record)
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
        return self.history
