"""README and shipped files stay in step.

The README is the user's map of the configs, scripts and modules; a path
it names that no longer exists, or a shipped config or module it never
mentions, is rot.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
NAMED = set(re.findall(r"\b(?:configs/[\w.-]+\.cfg|scripts/[\w.-]+\.py)\b", README))


def test_readme_paths_exist():
    assert NAMED
    assert sorted(p for p in NAMED if not (ROOT / p).is_file()) == []


def test_every_config_is_in_readme():
    shipped = {f"configs/{f.name}" for f in (ROOT / "configs").iterdir()}
    assert sorted(shipped - NAMED) == []


def test_layout_names_every_module():
    layout = README.split("## Layout", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"\b\w+\.py\b", layout))
    modules = {f.name for f in (ROOT / "src" / "towerlab").glob("*.py")
               if not f.name.startswith("__")}
    assert modules and sorted(modules - named) == []
