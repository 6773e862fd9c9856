"""How the package's modules import each other, read from their source.

A module uses only the public names of its siblings, so a private helper can
change without a caller elsewhere, and imports sit in the module's import
block, not inside functions.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bdivkit"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_from_sibling_modules(path):
    private = [
        f"line {node.lineno}: {alias.name} from {'.' * node.level}{node.module or ''}"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("bdivkit"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_at_module_level(path):
    tree = _tree(path)
    top = {id(node) for node in tree.body}
    nested = [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]
    assert nested == []


def test_package_root_imports_no_names_from_its_modules():
    # the root holds the docstring and the version; callers import from the modules
    imported = [
        f"line {node.lineno}: {', '.join(a.name for a in node.names)}"
        for node in ast.walk(_tree(SRC / "__init__.py"))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("bdivkit"))
    ]
    assert imported == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dataclasses_and_no_generated_code(path):
    # records come from exact.record, which compiles nothing
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "dataclasses"]
        elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            found.append(f"line {node.lineno}: from dataclasses")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("exec", "eval", "compile")):
            found.append(f"line {node.lineno}: {node.func.id}()")
    assert found == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC.parent)!r})\n"
        "import bdivkit.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == "[]"


def _record_classes():
    """name -> (record fields, cached properties) of every ``record`` class."""
    out = {}
    for path in MODULES:
        for node in _tree(path).body:
            if isinstance(node, ast.ClassDef) and any(
                isinstance(d, ast.Name) and d.id == "record" for d in node.decorator_list
            ):
                fields = {s.target.id for s in node.body if isinstance(s, ast.AnnAssign)}
                cached = {
                    s.name for s in node.body
                    if isinstance(s, ast.FunctionDef)
                    and any(isinstance(d, ast.Name) and d.id == "cached_property"
                            for d in s.decorator_list)
                }
                out[node.name] = fields, cached
    return out


def test_trusted_seeds_every_field_and_only_cached_properties():
    # trusted() checks nothing, so a seed that names no field or cached
    # property, such as one a deletion left behind, would pass unnoticed
    classes = _record_classes()
    found, calls = [], 0
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "trusted"):
                continue
            calls += 1
            where = f"{path.name} line {node.lineno}"
            cls = node.args[0].id if node.args and isinstance(node.args[0], ast.Name) else None
            if cls not in classes or len(node.args) != 1:
                found.append(f"{where}: not trusted(RecordClass, **seeds)")
                continue
            fields, cached = classes[cls]
            given = {k.arg for k in node.keywords}
            if None in given:
                found.append(f"{where}: a ** seed that cannot be read")
            if fields - given:
                found.append(f"{where}: {cls} fields not seeded: {sorted(fields - given)}")
            if given - fields - cached - {None}:
                found.append(f"{where}: {cls} has no field or cached property "
                             f"{sorted(given - fields - cached - {None})}")
    assert calls and found == []
