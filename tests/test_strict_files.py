"""Malformed input files end in exit code 1 or 2, never in a traceback.

Every file-reading subcommand parses strictly: a field of the wrong JSON
kind, an unknown key or a file that is not an object is a ``ValueError``
naming what is wrong, which ``main`` turns into exit code 1.  The
hypothesis tests change one node of a valid file to a value of another
JSON kind, or add an unknown key to one object, so every generated file
is malformed.
"""

from __future__ import annotations

import copy
import json
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qcliff import complete
from qcliff.cli import main
from qcliff.decompose import MAX_M
from qcliff.hadamard import TransversalSpec, lambda_of_transversal, transversal
from qcliff.serialize import bundle_from_dict, bundle_to_dict, lambda_to_dict
from qcliff.solve import _minimal_kappa

PRESENTATION = {"m": 3, "kappa": [1, -1, -1], "delta": [[1, 2, 1], [1, 3, 1]]}
LAMBDA = {"n": 4, "entries": [[j, k, -1] for j in range(1, 5) for k in range(j + 1, 5)]}
BUNDLE = bundle_to_dict(complete(1))

# (valid document, subcommands that read it)
FORMATS = {
    "presentation": (PRESENTATION, ("classify", "decompose", "represent")),
    "lambda": (LAMBDA, ("solve",)),
    "bundle": (BUNDLE, ("verify",)),
}


def write(path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command, field", [
    ("classify", "delta"), ("represent", "delta"), ("solve", "entries"),
    ("verify", "A"), ("verify", "D"), ("verify", "B"), ("verify", "H"),
])
def test_non_list_field_names_the_field(tmp_path, capsys, command, field):
    doc = next(doc for doc, commands in FORMATS.values() if command in commands)
    path = write(tmp_path / "bad.json", {**doc, field: 5})
    assert main([command, path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err and "must be a list" in err


def test_non_string_sign_row_fails_with_code_1(tmp_path, capsys):
    path = write(tmp_path / "bad.json", {**BUNDLE, "H": [5, *BUNDLE["H"][1:]]})
    assert main(["verify", path]) == 1
    assert "sign row must be a string" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["+x", "+\u2212", " +"], ids=["ascii", "non-ascii", "space"])
def test_sign_row_with_another_character_fails_with_code_1(tmp_path, capsys, row):
    path = write(tmp_path / "bad.json", {**BUNDLE, "H": [*BUNDLE["H"][:-1], row]})
    assert main(["verify", path]) == 1
    assert f"sign row may only contain '+' and '-': {row!r}" in capsys.readouterr().err


@pytest.mark.parametrize("cut", [1, -1], ids=["short-first", "short-last"])
def test_ragged_sign_rows_fail_with_code_1(tmp_path, capsys, cut):
    rows = list(BUNDLE["H"])
    rows[0 if cut == 1 else -1] = rows[0][1:]
    path = write(tmp_path / "bad.json", {**BUNDLE, "H": rows})
    assert main(["verify", path]) == 1
    assert "sign rows must all have the same length" in capsys.readouterr().err


@pytest.mark.parametrize("field, index, key", [
    ("A", 0, "perm"), ("A", -1, "signs"), ("D", -1, "perm"), ("D", 0, "signs"),
    ("S", None, None), ("B", -1, None),
])
def test_ragged_array_names_the_field(tmp_path, capsys, field, index, key):
    # numpy's own message for a ragged list names no field; the bundle
    # reader names the member, 0-based, and a monomial member's key
    doc = copy.deepcopy(BUNDLE)
    array = doc[field] if index is None else doc[field][index]
    if key is None:
        array[0].pop()
    else:
        array[key][0] = [array[key][0]]
    assert main(["verify", write(tmp_path / "bad.json", doc)]) == 1
    err = capsys.readouterr().err
    member = field if index is None else f"{field}_{index % BUNDLE['n']}"
    if key is None:
        want = "must have shape (2, 2): got a list of 1 where a list of 2 belongs"
        assert err == f"error: {member} {want}\n"
    else:
        value = BUNDLE[field][index][key][0]
        assert err == f"error: {member} {key} must hold 64-bit integers only, got [{value}]\n"


@pytest.mark.parametrize("header", [{"b": 2**40}, {"n": 2048}], ids=["b", "n"])
def test_bundle_header_sizes_allocate_nothing_the_file_does_not_hold(tmp_path, capsys, header):
    doc = {**BUNDLE, **header}
    assert main(["verify", write(tmp_path / "big.json", doc)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            bundle_from_dict(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_lambda_order_is_bounded_by_its_entries(tmp_path, capsys):
    # an n x n table would be allocated before the missing pairs showed;
    # past MAX_M the cap refuses n first (test_cli.py)
    path = write(tmp_path / "big.json", {"n": MAX_M, "entries": [[1, 2, 1]]})
    assert main(["solve", path]) == 1
    assert f"cannot cover the pairs of n={MAX_M}" in capsys.readouterr().err


def _paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, dict):
        children = obj.items()
    else:
        children = enumerate(obj) if isinstance(obj, list) else ()
    for key, value in children:
        yield from _paths(value, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    out = json.loads(json.dumps(doc))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def malformed(draw):
    """A format, a subcommand that reads it, and a malformed document of it."""
    doc, commands = FORMATS[draw(st.sampled_from(sorted(FORMATS)))]
    command = draw(st.sampled_from(commands))
    paths = list(_paths(doc))
    path = draw(st.sampled_from(paths))
    node = doc
    for key in path:
        node = node[key]
    if isinstance(node, dict) and draw(st.booleans()):
        extra = draw(st.text(max_size=4).filter(lambda k: k not in node))
        return command, _replaced(doc, path, {**node, extra: draw(json_values)})
    value = draw(json_values.filter(lambda v: type(v) is not type(node)))
    return command, _replaced(doc, path, value)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=malformed())
def test_malformed_files_exit_1_or_2(tmp_path, case):
    command, doc = case
    path = write(tmp_path / "fuzz.json", doc)
    assert main([command, path]) in (1, 2)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=st.binary(max_size=16) | st.text(max_size=16).map(str.encode))
def test_non_json_files_exit_1(tmp_path, raw):
    path = tmp_path / "raw.json"
    path.write_bytes(raw)
    assert main(["classify", str(path)]) == 1


class TestSolveOrderCap:
    @pytest.fixture(scope="class")
    def m6_transversal(self, tmp_path_factory):
        lam = lambda_of_transversal(transversal(TransversalSpec.default(6)))
        return write(tmp_path_factory.mktemp("m6") / "lam.json", lambda_to_dict(lam))

    def test_m6_transversal_exits_2_before_the_sweep(self, m6_transversal, capsys, monkeypatch):
        # b = 2^31 at n = 64; without the cap this run built images until
        # it was killed for memory
        calls = []

        def counting(lam, *cap):
            calls.append(lam)
            return _minimal_kappa(lam, *cap)

        def refuse(*args, **kwargs):
            raise AssertionError("images started above the order cap")

        monkeypatch.setattr("qcliff.solve._minimal_kappa", counting)
        monkeypatch.setattr("qcliff.solve._realize", refuse)
        monkeypatch.setattr("qcliff.solve.minimal_images", refuse)
        start = time.perf_counter()
        assert main(["solve", m6_transversal]) == 2
        assert time.perf_counter() - start < 10
        assert len(calls) == 1
        assert "irreducible order 2147483648 exceeds the cap 1048576" in capsys.readouterr().err

    def test_flag_and_environment(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path / "lam.json", LAMBDA)  # all -1 at n = 4: b = 4
        assert main(["solve", path, "--max-order", "2"]) == 2
        assert "irreducible order 4 exceeds the cap 2" in capsys.readouterr().err
        assert main(["solve", path, "--max-order", "4"]) == 0
        capsys.readouterr()
        monkeypatch.setenv("QCLIFF_MAX_ORDER", "3")
        assert main(["solve", path]) == 2
