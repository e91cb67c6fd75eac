"""The JSON writer against ``json.dumps(obj, indent=2) + "\\n"``.

``serialize.write_json`` formats every JSON result of the command line.
Its bytes must equal the standard library's indented encoding, on
generated documents, on integer arrays given as one-block
``serialize._KronRow`` rows (formatted from numpy from
``serialize.INT_ARRAY_KERNEL_MIN`` entries on), on representations
written from their Kronecker factors and on the output of every
subcommand that writes JSON.  The public ``*_to_dict`` forms hold plain
lists in place of those arrays.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcliff import complete, minimal_images, serialize
from qcliff.cli import main
from qcliff.decompose import decompose
from qcliff.represent import character_length
from qcliff.serialize import (
    INT_ARRAY_KERNEL_MIN,
    _KronRow,
    bundle_to_dict,
    presentation_from_dict,
    representation_to_dict,
    representation_tree,
    solve_result_to_dict,
    solve_result_tree,
    write_json,
)
from qcliff.solve import solve
from qcliff.structure import classify

from helpers import constant_pattern, fixed_type_presentation, quaternion_presentation


def written(obj) -> str:
    fh = io.StringIO()
    write_json(fh, obj)
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
        [[1, 2], [3, 4]], [[-1]], [[[1, -2], [3, 4]], [[5, 6], [7, 8]]],
        [[[[-(2**70), 10**40]]]], {"rows": [[1, -1], [-1, 1]], "after": [[0]]},
        [[1], [2, 3]], [[1, [2]]], [[[1]], [2]], [[], [1]], [[1], []], [[[]]],
        [[1, True]], [[True]], [[1, 2], (3, 4)], [(1, 2)], [["a"], [1]], [[1.0]],
        ["a", "b\n\"", "é", "\ud800"], ["a", 1], ["a", None], [""],
    ])
    def test_int_tables_and_string_rows(self, obj):
        # the paths that format a table of ints with one repr, and a list
        # of strings with one join
        assert written(obj) == reference(obj)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.integers(0, 2**32))
    def test_generated_int_tables(self, shape, seed):
        values = np.random.default_rng(seed).integers(-10**6, 10**6, size=shape)
        for obj in (values.tolist(), {"table": values.tolist()}, [values.tolist(), "x"]):
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


# 20 anticommuting generators squaring to +1: irrep order 2048
PRES_20 = {"m": 20, "kappa": [1] * 20,
           "delta": [[i, j, 1] for i in range(1, 21) for j in range(i + 1, 21)]}


def nest(leaf, depth: int):
    """``leaf`` inside ``depth`` containers, lists and dicts in turn."""
    for level in range(depth):
        leaf = {"key": leaf, "after": 0} if level % 2 else [0, leaf]
    return leaf


def matches_the_list(arr: np.ndarray, depth: int) -> bool:
    return written(nest(_KronRow(None, [arr]), depth)) == reference(nest(arr.tolist(), depth))


INT64 = np.iinfo(np.int64)
# every decimal width, at the edges of each, with both signs
EDGES = sorted({0, 1, -1, INT64.min, INT64.max, INT64.min + 1, INT64.max - 1}
               | {s * v for k in range(1, 19) for v in (10**k - 1, 10**k) for s in (1, -1)})


class TestIntArrays:
    @pytest.mark.parametrize("depth", range(5))
    @pytest.mark.parametrize("length", [0, 1, 511, 512, 513, 8192])
    def test_lengths(self, length, depth):
        arr = np.random.default_rng(length).integers(-(10**6), 10**6, size=length)
        assert matches_the_list(arr, depth)

    @pytest.mark.parametrize("depth", range(5))
    @pytest.mark.parametrize("length", [1, 511, 512, 8192])
    def test_edge_values(self, length, depth):
        arr = np.resize(np.array(EDGES, dtype=np.int64), length)
        np.random.default_rng(length).shuffle(arr)
        assert matches_the_list(arr, depth)

    @pytest.mark.parametrize("value", [0, 1, -1, 9, -9, 10, -10, (1 << 32) - 1, 1 << 32,
                                       -(1 << 32), INT64.min, INT64.max])
    def test_constant_arrays(self, value):
        assert matches_the_list(np.full(INT_ARRAY_KERNEL_MIN, value, dtype=np.int64), 2)

    @pytest.mark.parametrize("power", [31, 32, 33, 53, 62])
    def test_magnitudes_around_a_power_of_two(self, power):
        arr = np.random.default_rng(power).integers(-3, 4, size=600) + (1 << power)
        arr[::2] *= -1
        assert matches_the_list(arr, 1)

    def test_permutation_and_signs(self):
        rng = np.random.default_rng(5)
        tree = {"perm": _KronRow(None, [rng.permutation(4096)]),
                "signs": _KronRow(None, [rng.choice([-1, 1], size=4096)])}
        plain = {name: value.array.tolist() for name, value in tree.items()}
        assert written([tree]) == reference([plain])

    def test_digit_rows_are_kept_per_indent(self):
        # one range at two nestings in one write: the rows carry the indent
        rng = np.random.default_rng(9)
        perms = [rng.permutation(INT_ARRAY_KERNEL_MIN) for _ in range(3)]
        tree = {"a": _KronRow(None, [perms[0]]), "b": [{"c": _KronRow(None, [perms[1]])}],
                "d": _KronRow(None, [perms[2]])}
        plain = {"a": perms[0].tolist(), "b": [{"c": perms[1].tolist()}],
                 "d": perms[2].tolist()}
        assert written(tree) == reference(plain)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), length=st.integers(0, 1100),
           bits=st.integers(1, 64), depth=st.integers(0, 4))
    def test_seeded_arrays(self, seed, length, bits, depth):
        bound = 1 << (bits - 1)
        arr = np.random.default_rng(seed).integers(-bound, bound, size=length, dtype=np.int64)
        assert matches_the_list(arr, depth)


def expanded_dict(rep) -> dict:
    """``representation_to_dict`` from the order-b images ``stacked_kron`` forms."""
    return {"order": rep.order,
            "images": [{"order": rep.order, "perm": img.perm.tolist(),
                        "signs": img.signs.tolist()} for img in rep.generator_images],
            "character": list(rep.character)}


class TestFactoredImages:
    """A representation's JSON from its Kronecker factors, with no expansion."""

    @pytest.mark.parametrize("case, r, s, order", [
        # 2**9 is the shortest length formatted from numpy
        ("real", 2, 9, INT_ARRAY_KERNEL_MIN), ("real", 3, 13, 2**13),
        ("complex", 3, 8, 2**9), ("complex", 2, 12, 2**13),
        ("quaternion", 2, 8, 2**9), ("quaternion", 1, 12, 2**13),
        ("real", 2, 8, INT_ARRAY_KERNEL_MIN // 2),
        # no pairs: every image is its sign times one 1x1 block
        ("real", 3, 0, 1),
    ])
    def test_matches_the_expanded_images(self, case, r, s, order):
        rng = np.random.default_rng([r, s, order])
        P = fixed_type_presentation(rng, case, r, s)
        D = decompose(P)
        assert classify(D).case.value == case
        character = [int(b) for b in rng.integers(0, 2, size=character_length(D))]
        character[0] = 1
        rep = minimal_images(P, character, D)
        assert rep.order == order
        assert (rep.sign < 0).any()  # both image signs reach the writer
        want = expanded_dict(rep)
        assert representation_to_dict(rep) == want
        assert written(representation_tree(rep)) == reference(want)

    @pytest.mark.parametrize("n, value", [(2, 1), (4, -1), (13, -1), (18, -1)])
    def test_solve_result_matches_the_expanded_images(self, n, value):
        # b = 1, 4, 128 and 512: the scalar case, a short list, and both
        # sides of INT_ARRAY_KERNEL_MIN
        lam = constant_pattern(n, value)
        result = solve(lam)
        want = solve_result_to_dict(lam, result)
        assert want["D"] == [{"order": result.b, "perm": d.perm.tolist(),
                              "signs": d.signs.tolist()} for d in result.D]
        assert written(solve_result_tree(lam, result)) == reference(want)


def assert_plain(tree) -> None:
    """Only exact dicts, lists, ints, bools and strs: what ``json.loads`` gives."""
    if type(tree) is dict:
        for key, value in tree.items():
            assert type(key) is str
            assert_plain(value)
    elif type(tree) is list:
        for value in tree:
            assert_plain(value)
    else:
        assert type(tree) in (int, bool, str), type(tree)


def assert_monomials_plain(monomials: list) -> None:
    for d in monomials:
        for name in ("perm", "signs"):
            assert type(d[name]) is list and {type(v) for v in d[name]} == {int}


class TestPublicFormsArePlain:
    def test_representation(self):
        for P in (quaternion_presentation(), presentation_from_dict(PRES_20)):
            d = representation_to_dict(minimal_images(P))
            assert_plain(d)
            assert_monomials_plain(d["images"])
            assert json.loads(json.dumps(d)) == d

    @pytest.mark.parametrize("n", [4, 18])
    def test_solve(self, n):
        lam = constant_pattern(n, -1)
        d = solve_result_to_dict(lam, solve(lam))
        assert_plain(d)
        assert_monomials_plain(d["D"])
        assert len(d["D"][0]["perm"]) == (4 if n == 4 else INT_ARRAY_KERNEL_MIN)

    def test_hadamard(self):
        bundle = complete(2)
        d = bundle_to_dict(bundle)
        assert_plain(d)
        assert_monomials_plain(d["A"] + d["D"])
        d["D"][0]["signs"][0] *= -1  # lists are the caller's to change
        assert bundle_to_dict(bundle)["D"][0]["signs"][0] == -d["D"][0]["signs"][0]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("json-writer")
    inputs = {
        "pres": {"m": 3, "kappa": [1, -1, -1], "delta": [[1, 2, 1], [1, 3, 1]]},
        "lam": {"n": 4, "entries": [[j, k, -1] for j in range(1, 5) for k in range(j + 1, 5)]},
        # irrep order 2048 and b = 512: their arrays are formatted from numpy
        "pres20": PRES_20,
        "lam18": {"n": 18,
                  "entries": [[j, k, -1] for j in range(1, 19) for k in range(j + 1, 19)]},
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
    ["represent", "{pres20}"],
    ["solve", "{lam}"],
    ["solve", "{lam18}"],
    ["rho", "96"],
    ["verify", "{bundle}"],
    ["hadamard", "2"],
    ["hadamard", "2", "--output", "{out}"],
], ids=lambda argv: "-".join(a.strip("{}") for a in argv))
def test_subcommand_json_matches_json_dumps(files, capsys, monkeypatch, argv):
    calls = []
    kernel = serialize._int_array_text
    monkeypatch.setattr(serialize, "_int_array_text", lambda *a: calls.append(1) or kernel(*a))
    assert main([a.format(**files) for a in argv] + ["--format", "json"]) == 0
    # only the large irrep and the b = 512 family reach the numpy formatter
    assert bool(calls) == any(a in ("{pres20}", "{lam18}") for a in argv)
    out = capsys.readouterr().out
    assert out == reference(json.loads(out))
    if "--output" in argv:
        with open(files["out"], encoding="utf-8") as fh:
            text = fh.read()
        assert text == reference(json.loads(text))
