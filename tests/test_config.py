"""Config dataclasses, file parsing, and overrides."""

import pytest

from aoidispatch import ConfigError, EnvConfig, TrainConfig
from aoidispatch.config import (
    apply_overrides,
    config_as_dict,
    env_config_from_dict,
    load_config_dict,
    parse_config_text,
    split_config_dict,
    train_config_from_dict,
)


class TestEnvConfig:
    def test_scalar_broadcasting(self):
        cfg = EnvConfig(n_dispatchers=3, n_servers=2, arrival_prob=0.4, queue_capacity=5)
        assert cfg.arrival_prob == (0.4, 0.4, 0.4)
        assert cfg.queue_capacity == (5, 5)
        assert cfg.stay_available == (0.9, 0.9)

    def test_per_entity_sequences(self):
        cfg = EnvConfig(
            n_dispatchers=2, n_servers=3,
            arrival_prob=[0.1, 0.9],
            stay_available=(0.95, 0.5, 0.95),
            stay_unavailable=[0.5, 0.95, 0.5],
            queue_capacity=[1, 2, 3],
        )
        assert cfg.arrival_prob == (0.1, 0.9)
        assert cfg.queue_capacity == (1, 2, 3)

    def test_wrong_length_rejected(self):
        with pytest.raises(ConfigError):
            EnvConfig(n_dispatchers=2, n_servers=3, stay_available=[0.9, 0.9])

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(arrival_prob=1.2),
            dict(arrival_prob=-0.1),
            dict(stay_available=1.5),
            dict(stay_available=1.0, stay_unavailable=1.0),
            dict(queue_capacity=0),
            dict(query_cost=-0.01),
            dict(query_cost="cheap"),
            dict(horizon=0),
            dict(n_dispatchers=0),
            dict(aoi_cap=0),
            dict(queue_capacity=2.5),
            dict(drop_newest="false"),
            dict(report_post_service=1),
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            EnvConfig(**kwargs)

    def test_degenerate_chains_allowed_individually(self):
        cfg = EnvConfig(n_servers=2, stay_available=(1.0, 0.5), stay_unavailable=(0.5, 1.0))
        assert cfg.stay_available == (1.0, 0.5)

    def test_frozen(self):
        cfg = EnvConfig()
        with pytest.raises(AttributeError):
            cfg.query_cost = 1.0

    def test_as_dict_roundtrip(self):
        cfg = EnvConfig(n_dispatchers=2, n_servers=2, arrival_prob=[0.2, 0.8])
        assert EnvConfig(**config_as_dict(cfg)) == cfg


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(clip_epsilon=0.0),
            dict(value_coef=0.0),
            dict(entropy_coef=-0.1),
            dict(gae_lambda=1.5),
            dict(discount=1.0),
            dict(learning_rate=0.0),
            dict(rollout_length=0),
            dict(minibatch_count=0),
            dict(hidden_sizes=()),
            dict(max_grad_norm=0.0),
            dict(clip_epsilon="x"),
            dict(learning_rate=None),
            dict(discount=True),
            dict(rollout_length=2.5),
            dict(total_updates="10"),
            dict(two_phase_policy="no thanks"),
            dict(parameter_sharing=1),
            dict(normalize_advantages="yes"),
            dict(normalize_values=None),
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    def test_numbers_coerced(self):
        cfg = TrainConfig(clip_epsilon=1, rollout_length=64.0)
        assert type(cfg.clip_epsilon) is float and cfg.clip_epsilon == 1.0
        assert type(cfg.rollout_length) is int and cfg.rollout_length == 64

    def test_bools_kept(self):
        cfg = TrainConfig(parameter_sharing=False, two_phase_policy=True)
        assert cfg.parameter_sharing is False and cfg.two_phase_policy is True

    def test_hidden_sizes_normalized(self):
        assert TrainConfig(hidden_sizes=[32, 16]).hidden_sizes == (32, 16)

    def test_as_dict_roundtrip(self):
        cfg = TrainConfig(hidden_sizes=(8,), total_updates=3)
        assert TrainConfig(**config_as_dict(cfg)) == cfg


class TestConfigText:
    def test_key_value_lines(self):
        text = """
        # reference setup
        n_dispatchers = 3
        n_servers = 2
        arrival_prob = 0.25          # heavy tail comment
        stay_available = 0.95, 0.5
        report_post_service = true
        """
        data = parse_config_text(text)
        assert data == {
            "n_dispatchers": 3,
            "n_servers": 2,
            "arrival_prob": 0.25,
            "stay_available": [0.95, 0.5],
            "report_post_service": True,
        }

    def test_malformed_line(self):
        with pytest.raises(ConfigError):
            parse_config_text("n_servers 4")

    def test_empty_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("= 4")

    def test_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"n_servers": 4, "query_cost": 0.01}')
        assert load_config_dict(path) == {"n_servers": 4, "query_cost": 0.01}

    def test_text_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("n_servers = 4\nquery_cost = 0.01\n")
        data = load_config_dict(path)
        assert data["n_servers"] == 4

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config_dict("/nope/missing.cfg")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config_dict(path)


class TestOverridesAndSplit:
    def test_overrides_win(self):
        merged = apply_overrides({"query_cost": 0.005}, ["query_cost=0.1", "horizon=32"])
        assert merged == {"query_cost": 0.1, "horizon": 32}

    def test_override_syntax(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["query_cost"])

    def test_split_routes_keys(self):
        env_kwargs, train_kwargs = split_config_dict(
            {"n_servers": 3, "learning_rate": 0.001, "discount": 0.9}
        )
        assert env_kwargs == {"n_servers": 3}
        assert train_kwargs == {"learning_rate": 0.001, "discount": 0.9}

    def test_discount_routes_to_training_only(self):
        assert split_config_dict({"discount": 0.99}) == ({}, {"discount": 0.99})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            split_config_dict({"n_serverz": 3})

    def test_env_builder_rejects_training_keys(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            env_config_from_dict({"n_servers": 2, "learning_rate": 5})

    def test_from_dict_builders(self):
        env = env_config_from_dict({"n_servers": 2, "n_dispatchers": 2})
        assert env.n_servers == 2
        train = train_config_from_dict({"learning_rate": 0.01})
        assert train.learning_rate == 0.01
