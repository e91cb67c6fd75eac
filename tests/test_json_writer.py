"""The JSON writer against ``json.dumps(obj, indent=2) + "\\n"``.

``cli._write_json`` formats every JSON result of the command line.  Its
bytes must equal the standard library's indented encoding, on generated
documents and on the output of every subcommand that writes JSON.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcliff import complete
from qcliff.cli import _write_json, main
from qcliff.serialize import bundle_to_dict


def written(obj) -> str:
    fh = io.StringIO()
    _write_json(fh, obj)
    return fh.getvalue()


def reference(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


texts = st.text(alphabet=st.characters(codec="utf-8"), max_size=8) | st.sampled_from(
    ["", '"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é", "✓", "\U0001f600", "\ud800"]
)
ints = st.integers() | st.sampled_from([-1, 0, 1, 2**63, -(2**63) - 1, 10**40, -(10**40)])
scalars = st.none() | st.booleans() | ints | st.floats() | texts
# int lists with the occasional bool: bools must not take the int fast path
int_lists = st.lists(ints | st.booleans(), max_size=12)
documents = st.recursive(
    scalars | int_lists,
    lambda inner: st.lists(inner, max_size=5)
    | st.tuples(inner, inner)
    | st.dictionaries(texts, inner, max_size=5),
    max_leaves=40,
)


class TestAgainstJsonDumps:
    @settings(max_examples=200, deadline=None)
    @given(documents)
    def test_generated_documents(self, obj):
        assert written(obj) == reference(obj)

    @pytest.mark.parametrize("obj", [
        {}, [], {"a": []}, {"a": {}}, [[], {}], [[[]]], "", 0, None, True, 1.5,
        [True, 1, 0], [False], [1, True], [-5, 2**70, -(2**70)],
        {"perm": list(range(6)), "signs": [1, -1, -1, 1]},
        {"nan": float("nan"), "inf": [float("inf"), float("-inf")]},
        {"é\n\"": ["\\", "✓", "\U0001f600"]},
        (1, 2, (3, [4])),
    ])
    def test_edge_cases(self, obj):
        assert written(obj) == reference(obj)

    @pytest.mark.parametrize("obj", [
        {"a": np.int64(1)},
        [np.arange(3)],
        {"a": {1, 2}},
        [b"bytes"],
        [1, 2, object()],
    ])
    def test_refuses_what_json_dumps_refuses(self, obj):
        with pytest.raises(TypeError) as want:
            reference(obj)
        with pytest.raises(TypeError) as got:
            written(obj)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("key", [1, 2.5, None, False, (1, 2)])
    def test_keys_must_be_strings(self, key):
        with pytest.raises(TypeError, match="keys must be str"):
            written({key: 0})


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("json-writer")
    inputs = {
        "pres": {"m": 3, "kappa": [1, -1, -1], "delta": [[1, 2, 1], [1, 3, 1]]},
        "lam": {"n": 4, "entries": [[j, k, -1] for j in range(1, 5) for k in range(j + 1, 5)]},
        "bundle": bundle_to_dict(complete(2)),
    }
    paths = {}
    for name, obj in inputs.items():
        paths[name] = str(root / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    paths["out"] = str(root / "out.json")
    return paths


@pytest.mark.parametrize("argv", [
    ["classify", "{pres}"],
    ["decompose", "{pres}"],
    ["represent", "{pres}"],
    ["represent", "{pres}", "--character", "1"],
    ["solve", "{lam}"],
    ["rho", "96"],
    ["verify", "{bundle}"],
    ["hadamard", "2"],
    ["hadamard", "2", "--output", "{out}"],
], ids=lambda argv: "-".join(a.strip("{}") for a in argv))
def test_subcommand_json_matches_json_dumps(files, capsys, argv):
    assert main([a.format(**files) for a in argv] + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == reference(json.loads(out))
    if "--output" in argv:
        with open(files["out"], encoding="utf-8") as fh:
            text = fh.read()
        assert text == reference(json.loads(text))
