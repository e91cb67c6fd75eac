import ast
import re
import types
from pathlib import Path

import qcliff

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(__file__).resolve().parent.parent / "src" / "qcliff"


def parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_public_name_resolves():
    missing = [name for name in qcliff.__all__ if not hasattr(qcliff, name)]
    assert missing == []
    assert len(set(qcliff.__all__)) == len(qcliff.__all__)


def test_every_public_name_is_documented():
    # the package surface grows only together with README.md
    text = README.read_text(encoding="utf-8")
    undocumented = [name for name in qcliff.__all__ if not re.search(rf"`{name}`", text)]
    assert undocumented == []


def test_submodule_names_are_modules():
    # so that monkeypatch can reach module attributes by dotted path
    assert isinstance(qcliff.solve, types.ModuleType)
    assert isinstance(qcliff.decompose, types.ModuleType)


def test_no_module_reaches_into_serialize():
    # serialize alone knows the output bytes; the others use its public names
    reached = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(parsed(path)):
            if isinstance(node, ast.ImportFrom) and node.module and (
                    node.module.split(".")[-1] == "serialize"):
                reached += [(path.name, a.name) for a in node.names if a.name.startswith("_")]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "serialize" and node.attr.startswith("_")):
                reached.append((path.name, node.attr))
    assert reached == []


def test_cli_formats_no_json():
    # the command line parses, runs and maps errors; serialize writes
    imported = set()
    for node in ast.walk(parsed(SRC / "cli.py")):
        if isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported |= {node.module} | {f"{node.module}.{a.name}" for a in node.names}
    assert {name for name in imported
            if name.split(".")[0] == "numpy" or name.startswith("json.encoder")} == set()
