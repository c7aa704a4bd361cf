"""Trainer stack tests: GAE, losses, the update, evaluation, checkpoints."""

import json
from dataclasses import replace

import numpy as np
import pytest

from aoidispatch import (
    ActorGroup,
    ConfigError,
    ContractViolation,
    EnvConfig,
    MappoPolicy,
    Trainer,
    TrainConfig,
    clipped_surrogate,
    evaluate,
    load_checkpoint,
    load_policy,
    total_loss,
    value_loss,
)
from aoidispatch.env import DispatchEnv, JointAction
from aoidispatch.mappo import (
    RolloutBuffer,
    ValueNormalizer,
    actor_obs_dim,
    collect_rollout,
    compute_gae,
    critic_state_dim,
    encode_actor_batch,
    encode_critic_state,
    mappo_update,
    normalize_advantages,
)
from aoidispatch.nn import Adam, DenseNet, PolicyHeads


def make_buffer(rewards, values, bootstrap, episode_ends=None, end_values=None):
    length = len(rewards)
    return RolloutBuffer(
        actor_obs=np.zeros((length, 1, 1)),
        query_bits=np.zeros((length, 1, 1), dtype=np.int8),
        dispatch=np.full((length, 1), -1, dtype=np.int64),
        log_probs=np.zeros((length, 1)),
        states=np.zeros((length, 1)),
        rewards=np.asarray(rewards, dtype=np.float64),
        values=np.asarray(values, dtype=np.float64),
        episode_ends=np.asarray(
            episode_ends if episode_ends is not None else [False] * length
        ),
        end_values=end_values or {},
        bootstrap_value=bootstrap,
    )


class TestComputeGae:
    def test_zero_rewards_zero_values(self):
        buf = make_buffer([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], bootstrap=0.0)
        adv, ret = compute_gae(buf, 0.9, 0.95)
        assert np.allclose(adv, 0.0) and np.allclose(ret, 0.0)

    def test_monte_carlo_returns(self):
        # lambda=1, discount 0.9, unit rewards, zero values: returns are the
        # discounted sums 1 + 0.9 * (1 + 0.9 * 1) = 2.71, 1.9, 1
        buf = make_buffer([1.0, 1.0, 1.0], [0.0, 0.0, 0.0], bootstrap=0.0)
        adv, ret = compute_gae(buf, 0.9, 1.0)
        assert np.allclose(ret, [2.71, 1.9, 1.0], atol=1e-12)
        assert np.allclose(adv, ret)

    def test_lambda_zero_is_one_step(self):
        rng = np.random.default_rng(0)
        rewards = rng.standard_normal(6)
        values = rng.standard_normal(6)
        bootstrap = float(rng.standard_normal())
        buf = make_buffer(rewards, values, bootstrap)
        adv, _ = compute_gae(buf, 0.95, 0.0)
        next_values = np.append(values[1:], bootstrap)
        expected = rewards + 0.95 * next_values - values
        assert np.allclose(adv, expected, atol=1e-12)

    def test_telescoping_with_exact_discounted_sums(self):
        # oracle: brute-force discounted reward sums per episode segment
        rng = np.random.default_rng(1)
        rewards = rng.standard_normal(10)
        ends = np.zeros(10, dtype=bool)
        ends[3] = True  # episode boundary inside the rollout
        buf = make_buffer(rewards, np.zeros(10), bootstrap=0.0,
                          episode_ends=ends, end_values={3: 0.0})
        _, ret = compute_gae(buf, 0.9, 1.0)
        expected = np.zeros(10)
        for start, stop in ((0, 4), (4, 10)):
            for t in range(start, stop):
                expected[t] = sum(0.9 ** (l - t) * rewards[l] for l in range(t, stop))
        assert np.allclose(ret, expected, atol=1e-12)

    def test_boundary_blocks_leakage(self):
        # reward after the boundary must not influence advantages before it
        base = make_buffer([0.0, 0.0, 5.0], [0.0, 0.0, 0.0], bootstrap=0.0,
                           episode_ends=np.array([False, True, False]), end_values={1: 0.0})
        adv, _ = compute_gae(base, 0.9, 1.0)
        assert adv[0] == 0.0 and adv[1] == 0.0 and adv[2] == pytest.approx(5.0)

    def test_missing_bootstrap_is_contract_error(self):
        buf = make_buffer([1.0], [0.0], bootstrap=None)
        with pytest.raises(ContractViolation):
            compute_gae(buf, 0.9, 0.95)


class TestClippedSurrogate:
    def test_identity_ratio(self):
        lp = np.array([-1.0, -2.0, -0.5])
        adv = np.array([1.0, -1.0, 0.25])
        result = clipped_surrogate(lp, lp, adv, 0.2)
        assert result.objective == pytest.approx(adv.mean(), abs=1e-12)
        assert result.mean_ratio == pytest.approx(1.0, abs=1e-12)
        assert result.clip_fraction == 0.0

    def test_positive_advantage_clipped_above(self):
        # ratio 1.5, clip 0.2, advantage 1: min(1.5, 1.2) = 1.2
        new = np.array([np.log(1.5)])
        old = np.array([0.0])
        result = clipped_surrogate(new, old, np.array([1.0]), 0.2)
        assert result.objective == pytest.approx(1.2, abs=1e-12)
        assert result.clip_fraction == 1.0

    def test_negative_advantage_small_ratio_takes_clipped_branch(self):
        # ratio 0.5, clip 0.2, advantage -1: min(-0.5, 0.8 * -1) = -0.8.
        # The clipped branch is the minimum, so its (zero) gradient stops the
        # ratio from being pushed further down.
        new = np.array([np.log(0.5)])
        old = np.array([0.0])
        result = clipped_surrogate(new, old, np.array([-1.0]), 0.2)
        assert result.objective == pytest.approx(-0.8, abs=1e-12)

    def test_non_finite_ratio_excluded(self):
        new = np.array([0.0, 1000.0])
        old = np.array([0.0, -1000.0])
        result = clipped_surrogate(new, old, np.array([1.0, 1.0]), 0.2)
        assert result.n_excluded == 1
        assert result.objective == pytest.approx(1.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            clipped_surrogate(np.zeros(2), np.zeros(3), np.zeros(2), 0.2)

    def test_grad_coeff_matches_finite_differences(self):
        # ratios 1.05 (unclipped), 1.5 / 0.5 (clipped either side), inf (excluded)
        old = np.zeros(5)
        new = np.log([1.05, 1.5, 0.5, 0.9, 1.0]) + np.array([0, 0, 0, 0, 1000.0])
        adv = np.array([1.0, 1.0, -1.0, -0.5, 1.0])
        result = clipped_surrogate(new, old, adv, 0.2)
        assert result.n_excluded == 1
        h = 1e-6
        for i in range(5):
            bump = np.zeros(5)
            bump[i] = h
            up = clipped_surrogate(new + bump, old, adv, 0.2).objective
            down = clipped_surrogate(new - bump, old, adv, 0.2).objective
            assert result.grad_coeff[i] == pytest.approx((up - down) / (2 * h), abs=1e-8)
        assert result.grad_coeff[1] == result.grad_coeff[2] == result.grad_coeff[4] == 0.0


class TestValueAndTotalLoss:
    def test_perfect_fit(self):
        assert value_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_mse_example(self):
        assert value_loss(np.array([0.0, 0.0]), np.array([1.0, 3.0])) == pytest.approx(5.0)

    def test_quadratic_homogeneity(self):
        v = np.array([0.5, -1.0, 2.0])
        t = np.array([1.0, 1.0, 1.0])
        base = value_loss(v, t)
        assert value_loss(t + 2 * (v - t), t) == pytest.approx(4 * base, abs=1e-12)

    def test_total_loss_pure_policy(self):
        assert total_loss(1.0, 0.0, 0.0, 0.5, 0.01) == -1.0

    def test_total_loss_example(self):
        assert total_loss(0.5, 0.2, 0.1, 0.5, 0.01) == pytest.approx(-0.401, abs=1e-12)

    def test_entropy_weight_monotonicity(self):
        lo = total_loss(0.5, 0.2, 1.0, 0.5, 0.01)
        hi = total_loss(0.5, 0.2, 1.0, 0.5, 0.1)
        assert hi < lo


class TestAdvantageNormalization:
    def test_standardizes_batch(self):
        rng = np.random.default_rng(0)
        adv = rng.normal(5.0, 3.0, size=1000)
        norm = normalize_advantages(adv)
        assert abs(norm.mean()) < 1e-6
        assert norm.std() == pytest.approx(1.0, abs=1e-3)


def small_setup(seed=0, sharing=True, n=2, k=2, horizon=64, rollout=32):
    env_cfg = EnvConfig(n_dispatchers=n, n_servers=k, horizon=horizon, seed=seed)
    train_cfg = TrainConfig(
        rollout_length=rollout, total_updates=2, eval_interval=100,
        parameter_sharing=sharing, hidden_sizes=(16, 16),
    )
    return env_cfg, train_cfg


class TestCollectRollout:
    def test_buffer_cardinality(self):
        env_cfg, train_cfg = small_setup()
        trainer = Trainer(env_cfg, train_cfg, seed=3)
        buf = collect_rollout(
            trainer.env, trainer.actors, trainer.critic, train_cfg,
            np.random.default_rng(0), trainer.normalizer,
        )
        assert buf.actor_obs.shape == (32, 2, actor_obs_dim(env_cfg, True))
        assert buf.states.shape == (32, critic_state_dim(env_cfg))
        assert buf.log_probs.shape == (32, 2)
        assert buf.rewards.shape == (32,)
        assert buf.bootstrap_value is not None

    def test_stored_log_probs_match_recomputation(self):
        env_cfg, train_cfg = small_setup()
        trainer = Trainer(env_cfg, train_cfg, seed=5)
        buf = collect_rollout(
            trainer.env, trainer.actors, trainer.critic, train_cfg,
            np.random.default_rng(1), trainer.normalizer,
        )
        k = env_cfg.n_servers
        for t in range(buf.length):
            heads = trainer.actors.heads(buf.actor_obs[t])
            lp = heads.log_prob(buf.query_bits[t], buf.dispatch[t])
            assert np.allclose(lp, buf.log_probs[t], atol=0.0)

    def test_fixed_seeds_identical_buffers(self):
        env_cfg, train_cfg = small_setup()
        buffers = []
        for _ in range(2):
            trainer = Trainer(env_cfg, train_cfg, seed=7)
            buffers.append(
                collect_rollout(
                    trainer.env, trainer.actors, trainer.critic, train_cfg,
                    np.random.default_rng(2), trainer.normalizer,
                )
            )
        a, b = buffers
        assert np.array_equal(a.actor_obs, b.actor_obs)
        assert np.array_equal(a.query_bits, b.query_bits)
        assert np.array_equal(a.dispatch, b.dispatch)
        assert np.array_equal(a.rewards, b.rewards)
        assert np.array_equal(a.values, b.values)

    def test_episode_boundaries_recorded(self):
        env_cfg, train_cfg = small_setup(horizon=16, rollout=40)
        trainer = Trainer(env_cfg, train_cfg, seed=9)
        buf = collect_rollout(
            trainer.env, trainer.actors, trainer.critic, train_cfg,
            np.random.default_rng(3), trainer.normalizer,
        )
        ends = np.nonzero(buf.episode_ends)[0]
        assert list(ends) == [15, 31]  # horizon 16 inside a 40-slot rollout
        assert set(buf.end_values) == {15, 31}


class TestMappoUpdate:
    def _run_update(self, sharing):
        env_cfg, train_cfg = small_setup(sharing=sharing)
        trainer = Trainer(env_cfg, train_cfg, seed=11)
        return trainer.run_update()

    @pytest.mark.parametrize("sharing", [True, False])
    def test_first_minibatch_ratio_identity(self, sharing):
        stats = self._run_update(sharing)
        assert stats.first_minibatch_mean_ratio == pytest.approx(1.0, abs=1e-6)

    def test_clip_fraction_bounded(self):
        env_cfg, train_cfg = small_setup()
        trainer = Trainer(env_cfg, train_cfg, seed=13)
        for _ in range(3):
            stats = trainer.run_update()
            assert 0.0 <= stats.clip_fraction <= 1.0
            assert stats.aborted_minibatches == 0

    def test_positive_advantage_increases_action_probability(self):
        # single-state bandit: constant observation, one action rewarded
        env_cfg = EnvConfig(n_dispatchers=1, n_servers=2, horizon=64, seed=0)
        train_cfg = TrainConfig(
            rollout_length=8, epochs_per_update=4, minibatch_count=1,
            hidden_sizes=(8,), learning_rate=0.05, entropy_coef=1e-6,
            normalize_advantages=False, normalize_values=False,
        )
        rng = np.random.default_rng(21)
        actors = ActorGroup(env_cfg, train_cfg, rng)
        critic = DenseNet((critic_state_dim(env_cfg), 8, 1), rng)
        obs = np.tile(np.linspace(0.1, 0.9, actors.obs_dim), (8, 1, 1))
        bits = np.ones((8, 1, 2), dtype=np.int8)  # always queried both
        disp = np.zeros((8, 1), dtype=np.int64)  # always dispatched to server 0
        heads = actors.heads(obs[0])
        lp0 = heads.log_prob(bits[0], disp[0])
        prob_before = heads.dispatch_probs[0, 0]
        q_before = heads.query_probs[0].copy()
        buf = RolloutBuffer(
            actor_obs=obs,
            query_bits=bits,
            dispatch=disp,
            log_probs=np.tile(lp0, (8, 1)),
            states=np.zeros((8, critic_state_dim(env_cfg))),
            rewards=np.ones(8),
            values=np.zeros(8),
            episode_ends=np.zeros(8, dtype=bool),
            bootstrap_value=0.0,
        )
        buf.advantages = np.ones(8)
        buf.returns = np.ones(8)
        opt = Adam(actors.net.params, 0.05, members=actors.net.members)
        copt = Adam(critic.params, 0.05)
        mappo_update(buf, actors, critic, train_cfg, opt, copt, np.random.default_rng(0))
        heads_after = actors.heads(obs[0])
        assert heads_after.dispatch_probs[0, 0] > prob_before
        assert (heads_after.query_probs[0] > q_before).all()

    def test_update_without_gae_is_contract_error(self):
        env_cfg, train_cfg = small_setup()
        trainer = Trainer(env_cfg, train_cfg, seed=15)
        buf = collect_rollout(
            trainer.env, trainer.actors, trainer.critic, train_cfg,
            np.random.default_rng(0), trainer.normalizer,
        )
        with pytest.raises(ContractViolation):
            mappo_update(
                buf, trainer.actors, trainer.critic, train_cfg,
                trainer.actor_opt, trainer.critic_opt, np.random.default_rng(0),
            )


class TestDimensionalityChecks:
    def test_actor_uses_local_observation_size(self):
        env_cfg, train_cfg = small_setup()
        trainer = Trainer(env_cfg, train_cfg, seed=0)
        assert trainer.actors.net.layer_sizes[0] == actor_obs_dim(env_cfg, True)

    def test_critic_uses_full_state_size(self):
        env_cfg, train_cfg = small_setup()
        trainer = Trainer(env_cfg, train_cfg, seed=0)
        expected = 2 * env_cfg.n_servers + env_cfg.n_dispatchers * env_cfg.n_servers
        assert trainer.critic.layer_sizes[0] == expected

    def test_mismatched_critic_rejected(self):
        env_cfg, train_cfg = small_setup()
        trainer = Trainer(env_cfg, train_cfg, seed=0)
        trainer.critic = DenseNet((3, 4, 1), np.random.default_rng(0))
        with pytest.raises(ConfigError):
            trainer._check_dimensions()

    def test_policy_rejects_wrong_environment(self):
        env_cfg, train_cfg = small_setup()
        trainer = Trainer(env_cfg, train_cfg, seed=0)
        policy = trainer.policy()
        other = DispatchEnv(EnvConfig(n_dispatchers=4, n_servers=2))
        with pytest.raises(ConfigError):
            policy.act(other)

    def test_encodings_have_consistent_dims(self):
        env_cfg = EnvConfig(n_dispatchers=3, n_servers=4)
        env = DispatchEnv(env_cfg)
        obs = encode_actor_batch(env.knowledge, env_cfg, parameter_sharing=True)
        assert obs.shape == (3, actor_obs_dim(env_cfg, True))
        state = encode_critic_state(env.world, env_cfg)
        assert state.shape == (critic_state_dim(env_cfg),)

    def test_actor_encoding_matches_per_server_loop(self):
        env_cfg = EnvConfig(n_dispatchers=3, n_servers=4, queue_capacity=(1, 2, 3, 4), aoi_cap=5)
        env = DispatchEnv(env_cfg)
        rng = np.random.default_rng(0)
        for _ in range(20):
            dispatch = tuple(int(rng.integers(4)) if a else None for a in env.arrivals.tolist())
            env.step(JointAction(rng.random((3, 4)) < 0.3, dispatch))
        # reference: the per-dispatcher, per-server feature loop
        expected = []
        for n in range(3):
            snap = env.observe(n)
            row = []
            for k in range(4):
                row.append(1.0 if snap.seen_available[k] else 0.0)
                row.append(snap.seen_queue[k] / env_cfg.queue_capacity[k])
                row.append(min(snap.aoi[k], env_cfg.aoi_cap) / float(env_cfg.aoi_cap))
            row.extend(1.0 if i == n else 0.0 for i in range(3))
            expected.append(row)
        obs = encode_actor_batch(env.knowledge, env_cfg, parameter_sharing=True)
        assert obs.tolist() == expected


class TestValueNormalizer:
    def test_identity_before_updates(self):
        norm = ValueNormalizer()
        x = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(norm.normalize(x), x)
        assert np.array_equal(norm.denormalize(x), x)

    def test_roundtrip_after_updates(self):
        norm = ValueNormalizer()
        rng = np.random.default_rng(0)
        for _ in range(20):
            norm.update(rng.normal(50.0, 10.0, size=64))
        x = rng.normal(50.0, 10.0, size=16)
        assert np.allclose(norm.denormalize(norm.normalize(x)), x, atol=1e-9)
        z = norm.normalize(x)
        assert abs(z.mean()) < 1.0  # roughly centered after adaptation


class TestEvaluate:
    def test_deterministic_given_seed(self):
        env_cfg, train_cfg = small_setup()
        trainer = Trainer(env_cfg, train_cfg, seed=17)
        r1 = evaluate(trainer.policy(greedy=True), env_cfg, episodes=3, seed=33)
        r2 = evaluate(trainer.policy(greedy=True), env_cfg, episodes=3, seed=33)
        assert r1 == r2

    def _forced_query_policy(self, env_cfg, bias):
        train_cfg = TrainConfig(hidden_sizes=(8,), parameter_sharing=True)
        actors = ActorGroup(env_cfg, train_cfg, np.random.default_rng(0))
        net = actors.net
        net.weights[-1][:] = 0.0
        net.biases[-1][..., : env_cfg.n_servers] = bias  # query logits
        net.biases[-1][..., env_cfg.n_servers :] = 0.0
        return MappoPolicy(actors, env_cfg, greedy=False)

    def test_never_querying_actor_invariant_to_query_cost(self):
        base = EnvConfig(n_dispatchers=2, n_servers=2, horizon=64, seed=0)
        rewards = []
        for beta in (0.0, 0.1):
            cfg = replace(base, query_cost=beta)
            policy = self._forced_query_policy(cfg, bias=-30.0)
            stats = evaluate(policy, cfg, episodes=3, seed=44)
            assert stats.queries_per_slot == 0.0
            rewards.append(stats.reward_per_slot)
        assert rewards[0] == rewards[1]

    def test_no_arrivals_reward_is_query_cost_only(self):
        cfg = EnvConfig(
            n_dispatchers=1, n_servers=1, arrival_prob=0.0, horizon=128,
            query_cost=0.07, seed=0,
        )
        policy = self._forced_query_policy(cfg, bias=30.0)  # always queries
        stats = evaluate(policy, cfg, episodes=2, seed=55)
        assert stats.throughput_per_slot == 0.0
        assert stats.queries_per_slot == pytest.approx(1.0)
        assert stats.reward_per_slot == pytest.approx(-0.07, abs=1e-12)

    def test_greedy_and_sampled_modes_both_run(self):
        env_cfg, train_cfg = small_setup()
        trainer = Trainer(env_cfg, train_cfg, seed=19)
        g = evaluate(trainer.policy(greedy=True), env_cfg, episodes=2, seed=66)
        s = evaluate(trainer.policy(greedy=False), env_cfg, episodes=2, seed=66)
        assert g.slots == s.slots == 128


class TestCheckpoints:
    def test_roundtrip_preserves_parameters(self, tmp_path):
        env_cfg, train_cfg = small_setup()
        trainer = Trainer(env_cfg, train_cfg, seed=23)
        trainer.run_update()
        path = trainer.save(tmp_path / "ckpt.npz")
        bundle = load_checkpoint(path)
        assert bundle.update_index == 1
        for a, b in zip(trainer.actors.net.params, bundle.actors.net.params):
            assert np.array_equal(a, b)
        for a, b in zip(trainer.critic.params, bundle.critic.params):
            assert np.array_equal(a, b)
        assert bundle.env_config == env_cfg
        assert bundle.train_config == train_cfg

    def test_loaded_policy_acts_identically(self, tmp_path):
        env_cfg, train_cfg = small_setup()
        trainer = Trainer(env_cfg, train_cfg, seed=29)
        trainer.run_update()
        path = trainer.save(tmp_path / "ckpt.npz")
        policy, loaded_cfg = load_policy(path, greedy=True)
        assert loaded_cfg == env_cfg
        r1 = evaluate(trainer.policy(greedy=True), env_cfg, episodes=2, seed=77)
        r2 = evaluate(policy, env_cfg, episodes=2, seed=77)
        assert r1.reward_per_slot == r2.reward_per_slot

    def test_resume_continues_update_count(self, tmp_path):
        env_cfg, train_cfg = small_setup()
        trainer = Trainer(env_cfg, train_cfg, seed=31, out_dir=tmp_path)
        trainer.train()  # 2 updates per small_setup
        resumed = Trainer.from_checkpoint(tmp_path / "checkpoint_final.npz")
        assert resumed.update_index == 2
        resumed.train(n_updates=1)
        assert resumed.update_index == 3

    def test_checkpoint_with_retired_keys_loads(self, tmp_path):
        env_cfg, train_cfg = small_setup()
        trainer = Trainer(env_cfg, train_cfg, seed=47)
        trainer.run_update()
        path = trainer.save(tmp_path / "ckpt.npz")
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        meta = json.loads(bytes(arrays.pop("meta")).decode())
        meta["env_config"]["discount"] = 0.99
        meta["train_config"]["greedy_eval"] = False
        old = tmp_path / "old.npz"
        np.savez_compressed(old, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)
        bundle = load_checkpoint(old)
        assert bundle.env_config == env_cfg and bundle.train_config == train_cfg
        policy, _ = load_policy(old)
        r1 = evaluate(trainer.policy(), env_cfg, episodes=2, seed=79)
        r2 = evaluate(policy, env_cfg, episodes=2, seed=79)
        assert r1 == r2

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        env_cfg, train_cfg = small_setup()
        trainer = Trainer(env_cfg, train_cfg, seed=23)
        path = trainer.save(tmp_path / "ckpt.npz")
        before = path.read_bytes()
        trainer.run_update()

        def write_then_fail(fh, **arrays):
            fh.write(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez_compressed", write_then_fail)
        with pytest.raises(OSError):
            trainer.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.npz"]

    def test_missing_checkpoint_rejected(self):
        with pytest.raises(ConfigError):
            load_checkpoint("/nonexistent/path.npz")

    def test_optimizer_state_restored(self, tmp_path):
        env_cfg, train_cfg = small_setup()
        trainer = Trainer(env_cfg, train_cfg, seed=37)
        trainer.run_update()
        t_before = trainer.actor_opt.t.copy()
        path = trainer.save(tmp_path / "ckpt.npz")
        bundle = load_checkpoint(path)
        assert np.array_equal(bundle.actor_opt.t, t_before)
        assert np.array_equal(bundle.actor_opt.m[0], trainer.actor_opt.m[0])


class TestTrainerLoop:
    def test_history_and_progress_records(self, tmp_path):
        env_cfg, train_cfg = small_setup()
        trainer = Trainer(env_cfg, train_cfg, seed=41, out_dir=tmp_path)
        records = trainer.train(progress_path=tmp_path / "progress.jsonl")
        assert len(records) == 2
        assert (tmp_path / "progress.jsonl").exists()
        import json

        lines = (tmp_path / "progress.jsonl").read_text().splitlines()
        assert len(lines) == 2
        parsed = json.loads(lines[0])
        assert {"update", "surrogate", "value_loss", "entropy", "clip_fraction"} <= set(parsed)

    def test_non_sharing_trains(self):
        env_cfg, train_cfg = small_setup(sharing=False)
        trainer = Trainer(env_cfg, train_cfg, seed=43)
        assert trainer.actors.net.members == env_cfg.n_dispatchers
        stats = trainer.run_update()
        assert np.isfinite(stats.surrogate)
