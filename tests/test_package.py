import types

import qcliff


def test_every_public_name_resolves():
    missing = [name for name in qcliff.__all__ if not hasattr(qcliff, name)]
    assert missing == []
    assert len(set(qcliff.__all__)) == len(qcliff.__all__)


def test_submodule_names_are_modules():
    # so that monkeypatch can reach module attributes by dotted path
    assert isinstance(qcliff.solve, types.ModuleType)
    assert isinstance(qcliff.decompose, types.ModuleType)
