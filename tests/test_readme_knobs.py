"""README's environment-variable tables name exactly the variables the code reads."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _source_knobs():
    """Every quoted ``"REPRO_..."`` literal under ``src/repro``."""
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        names.update(re.findall(r"[\"'](REPRO_[A-Z0-9_]+)[\"']", text))
    return names


def _readme_knobs():
    """The names in the first column of every README row that starts with one."""
    names = set()
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("| `REPRO_"):
            first_column = line.split("|")[1]
            names.update(re.findall(r"`(REPRO_[A-Z0-9_]+)`", first_column))
    return names


def test_readme_tables_name_exactly_the_source_knobs():
    assert _readme_knobs() == _source_knobs()
