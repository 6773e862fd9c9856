"""What README promises about the source, read from the source itself."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "bdivkit").glob("*.py"))

# caps whose names do not end in _CAP
OTHER_CAPS = {"MAX_DIM", "MAX_SET_DEPTH"}


def _caps():
    """module:name of every module-level cap the package assigns."""
    for path in MODULES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for target in getattr(node, "targets", ()):
                name = getattr(target, "id", "")
                if name.endswith("_CAP") or name in OTHER_CAPS:
                    yield path.stem, name


def test_every_cap_is_named_in_the_readme():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    caps = list(_caps())
    assert {name for _, name in caps} >= OTHER_CAPS
    assert [cap for cap in caps if not re.search(rf"\b{cap[1]}\b", readme)] == []
