"""README and shipped files stay in step.

The README is the user's map of the configs, scripts, modules and config
keys; a path or key it names that no longer exists, or a shipped config,
module or accepted key it never mentions, is rot.
"""

import re
from pathlib import Path

from towerlab.cli import MODES, _MODE_KEYS

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


def test_config_key_table_matches_load_config():
    table = README.split("## Config keys", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \|", table, flags=re.M)
    solving = {"solve", "flux-report", "compare"}
    documented = {}
    for key, modes in rows:
        named = set()
        for m in modes.split(","):
            m = m.strip().strip("`")
            named |= set(MODES) if m == "all" else solving if m == "solving modes" else {m}
        documented[key] = named
    accepted = {}
    for mode, keys in _MODE_KEYS.items():
        for key in keys:
            accepted.setdefault(key, set()).add(mode)
    assert documented == accepted
