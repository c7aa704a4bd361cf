"""README and code agree."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_layout_names_every_module():
    layout = (ROOT / "README.md").read_text().split("## Layout", 1)[1].split("```")[1]
    named = re.findall(r"^  (\w+\.py) ", layout, re.MULTILINE)
    modules = [p.name for p in (ROOT / "src" / "aoidispatch").glob("*.py") if p.name != "__init__.py"]
    assert sorted(named) == sorted(modules)
