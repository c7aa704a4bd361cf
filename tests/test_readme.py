"""README and code agree."""

import re
import shlex
from dataclasses import fields
from pathlib import Path

from aoidispatch import EnvConfig, TrainConfig, default_config
from aoidispatch.cli import build_parser
from aoidispatch.config import parse_config_text, split_config_dict

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def section(title: str) -> str:
    """The README text from heading ``## title`` to the next ``## `` heading."""
    return README.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_layout_names_every_module():
    layout = section("Layout").split("```")[1]
    named = re.findall(r"^  (\w+\.py) ", layout, re.MULTILINE)
    modules = [p.name for p in (ROOT / "src" / "aoidispatch").glob("*.py") if p.name != "__init__.py"]
    assert sorted(named) == sorted(modules)


def test_quick_start_commands_parse():
    commands = [line for line in section("Quick start").splitlines() if line.startswith("aoidispatch ")]
    assert commands
    parser = build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command)[1:])  # argparse exits on a bad line


def test_env_cfg_block_is_the_reference_config():
    block = next(b for b in README.split("```")[1::2] if b.startswith("\n# env.cfg"))
    env_kwargs, train_kwargs = split_config_dict(parse_config_text(block))
    assert train_kwargs == {}
    assert EnvConfig(**env_kwargs) == default_config()


def test_tuning_table_names_training_fields():
    rows = [line for line in section("Defaults and tuning notes").splitlines() if line.startswith("| `")]
    assert rows
    for row in rows:
        named = re.findall(r"`(\w+)`", row.split("|")[1])
        assert named and set(named) <= {f.name for f in fields(TrainConfig)}, row
