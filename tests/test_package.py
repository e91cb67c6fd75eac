import re
import types
from pathlib import Path

import qcliff

README = Path(__file__).resolve().parent.parent / "README.md"


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
