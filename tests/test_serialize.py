import copy

import numpy as np
import pytest

from qcliff import AlgebraPresentation, LambdaPattern, MonomialMatrix, complete
from qcliff import serialize
from qcliff.matrices import DenseSignMatrix, sylvester
from qcliff.serialize import (
    bundle_from_dict,
    bundle_to_dict,
    dense_from_rows,
    dense_to_rows,
    lambda_from_dict,
    lambda_to_dict,
    monomial_from_dict,
    presentation_from_dict,
    presentation_to_dict,
    sign_matrix_from_text_rows,
    sign_text_rows,
)

from helpers import outcome as member_outcome
from helpers import (
    pattern_from_pairs,
    quaternion_presentation,
    reference_bundle_from_dict,
    reference_lambda_from_dict,
    reference_presentation_from_dict,
)


def outcome(reader, obj):
    """What ``reader`` makes of ``obj``: the presentation, or the error text."""
    try:
        return reader(obj)
    except ValueError as exc:
        return f"error: {exc}"


def bad_triple(rng, m):
    """A seeded ``[i, j, bit]`` entry that breaks exactly one rule."""
    kind = int(rng.integers(14))
    i = int(rng.integers(1, m))
    j = int(rng.integers(i + 1, m + 1))
    slot = int(rng.integers(3))
    if kind < 5:
        # a non-integer in one slot: a boolean, a float, a string, a nested
        # list, or an integer past int64
        value = (True, float(i), str(i), [i], 2**70)[kind]
        return [value if s == slot else v for s, v in enumerate((i, j, 1))]
    return (
        [i, j], [i, j, 1, 0], i, {"i": i}, "1 2 1",  # ragged or not a list
        [j, i, 1], [i, i, 0], [0, j, 1], [i, m + 1, 1],  # i >= j, index 0, j > m
        [i, j, 2 if slot else -1],  # bit 2 or -1
    )[kind - 5]


def delta_mutants(rng, m, delta):
    """Seeded variants of a valid ``delta``: one bad triple, several bad
    triples, agreeing and conflicting repeats of a pair."""
    for _ in range(12):
        out = list(delta)
        out.insert(int(rng.integers(len(out) + 1)), bad_triple(rng, m))
        yield out
    for _ in range(3):
        out = list(delta)
        for _ in range(int(rng.integers(2, 5))):
            out.insert(int(rng.integers(len(out) + 1)), bad_triple(rng, m))
        yield out
    if delta:
        for flip in (0, 1):
            i, j, bit = delta[int(rng.integers(len(delta)))]
            out = list(delta)
            out.insert(int(rng.integers(len(out) + 1)), [i, j, bit ^ flip])
            yield out


def bad_lambda_triple(rng, n):
    """A seeded ``[j, k, value]`` entry that breaks exactly one rule."""
    kind = int(rng.integers(14))
    j, k = (int(x) + 1 for x in rng.choice(n, size=2, replace=False))
    slot = int(rng.integers(3))
    if kind < 5:
        # a non-integer in one slot: a boolean, a float, a string, a nested
        # list, or an integer past int64
        value = (True, float(j), str(j), [j], 2**70)[kind]
        return [value if s == slot else v for s, v in enumerate((j, k, -1))]
    return (
        [j, k], [j, k, 1, 1], j, {"j": j}, "1 2 1",  # ragged or not a list
        [j, j, 1], [0, k, 1], [j, n + 1, -1], [-j, k, 1],  # j == k, index 0, > n, < 0
        [j, k, 0 if slot else 2],  # value 0 or 2
    )[kind - 5]


def lambda_mutants(rng, n, entries):
    """Seeded variants of a valid ``entries``: one bad triple, several bad
    triples, agreeing and conflicting repeats of a pair in either order,
    a pair replaced by a repeat (missing) and a pair dropped (count)."""
    for _ in range(12):
        out = list(entries)
        out.insert(int(rng.integers(len(out) + 1)), bad_lambda_triple(rng, n))
        yield out
    for _ in range(3):
        out = list(entries)
        for _ in range(int(rng.integers(2, 5))):
            out.insert(int(rng.integers(len(out) + 1)), bad_lambda_triple(rng, n))
        yield out
    for flip in (1, -1, 1, -1):
        j, k, value = entries[int(rng.integers(len(entries)))]
        if rng.integers(2):
            j, k = k, j
        out = list(entries)
        out.insert(int(rng.integers(len(out) + 1)), [j, k, value * flip])
        yield out
    out = list(entries)
    out[int(rng.integers(len(out)))] = list(out[int(rng.integers(len(out)))])
    yield out
    yield entries[:-1]


class TestPresentationFormat:
    def test_round_trip(self):
        P = AlgebraPresentation((1, -1, -1), [(0, 2), (1, 2)])
        again = presentation_from_dict(presentation_to_dict(P))
        assert again == P

    def test_canonical_output_is_stable(self):
        P = quaternion_presentation()
        d = presentation_to_dict(P)
        assert d == {"m": 2, "kappa": [-1, -1], "delta": [[1, 2, 1]]}
        assert presentation_to_dict(presentation_from_dict(d)) == d

    def test_omitted_pairs_commute(self):
        P = presentation_from_dict({"m": 3, "kappa": [1, 1, 1]})
        assert P.anticommuting_pairs() == []

    def test_explicit_zero_bits_allowed(self):
        P = presentation_from_dict(
            {"m": 2, "kappa": [1, 1], "delta": [[1, 2, 0]]}
        )
        assert P.anticommuting_pairs() == []

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            presentation_from_dict({"m": 1, "kappa": [1], "extra": 0})

    def test_bad_kappa_value(self):
        with pytest.raises(ValueError):
            presentation_from_dict({"m": 1, "kappa": [2]})

    def test_indices_one_based_and_ordered(self):
        with pytest.raises(ValueError):
            presentation_from_dict({"m": 2, "kappa": [1, 1], "delta": [[2, 1, 1]]})
        with pytest.raises(ValueError):
            presentation_from_dict({"m": 2, "kappa": [1, 1], "delta": [[0, 1, 1]]})

    def test_conflicting_delta_rejected(self):
        with pytest.raises(ValueError):
            presentation_from_dict(
                {"m": 2, "kappa": [1, 1], "delta": [[1, 2, 1], [1, 2, 0]]}
            )


class TestDeltaReader:
    def test_seeded_mutations_match_the_per_triple_reference(self):
        rng = np.random.default_rng(53)
        outcomes = []
        for m in (2, 3, 5, 9, 17):
            for _ in range(4):
                kappa = [int(k) for k in rng.choice([-1, 1], size=m)]
                delta = [[i + 1, j + 1, int(rng.integers(2))]
                         for i in range(m) for j in range(i + 1, m) if rng.integers(3)]
                docs = [{"m": m, "kappa": kappa, "delta": d}
                        for d in (delta, [], *delta_mutants(rng, m, delta))]
                docs.append({"m": m, "kappa": kappa})
                for obj in docs:
                    got = outcome(presentation_from_dict, obj)
                    assert got == outcome(reference_presentation_from_dict, obj)
                    outcomes.append(got if isinstance(got, str) else "ok")
        # every message, and the repeat that agrees, is reached
        for start in ("ok", "error: delta entries", "error: delta pair",
                      "error: delta bit", "error: conflicting"):
            assert sum(o.startswith(start) for o in outcomes) >= 5, start

    def test_first_offending_triple_is_named(self):
        obj = {"m": 3, "kappa": [1, 1, 1],
               "delta": [[1, 2, 1], [1, 3, 1], [1, 2, 0], [3, 1, 1], [1, 2]]}
        with pytest.raises(ValueError, match=r"conflicting delta entries for pair \(1, 2\)"):
            presentation_from_dict(obj)
        # of two conflicting pairs, the one whose second listing comes first
        two = {"m": 3, "kappa": [1, 1, 1],
               "delta": [[1, 2, 1], [1, 3, 0], [1, 3, 1], [1, 2, 0]]}
        with pytest.raises(ValueError, match=r"conflicting delta entries for pair \(1, 3\)"):
            presentation_from_dict(two)
        obj["delta"][2] = [1, 2, 1]
        with pytest.raises(ValueError, match=r"delta pair \(3, 1\)"):
            presentation_from_dict(obj)
        obj["delta"][3] = [2, 3, 1]
        with pytest.raises(ValueError, match=r"triples, got \[1, 2\]"):
            presentation_from_dict(obj)


class TestMatrixFormats:
    def test_monomial_round_trip(self):
        mat = MonomialMatrix([2, 0, 1], [1, -1, 1])
        obj = {"order": 3, "perm": [2, 0, 1], "signs": [1, -1, 1]}
        assert monomial_from_dict(obj) == mat

    def test_monomial_order_checked(self):
        with pytest.raises(ValueError):
            monomial_from_dict({"order": 4, "perm": [0, 1], "signs": [1, 1]})

    def test_dense_round_trip(self):
        s = sylvester(4)
        assert dense_from_rows(dense_to_rows(s)) == s

    def test_sign_text_round_trip(self):
        s = sylvester(4)
        rows = sign_text_rows(s)
        assert rows[0] == "++++"
        assert sign_matrix_from_text_rows(rows) == s

    def test_bad_sign_text(self):
        with pytest.raises(ValueError):
            sign_matrix_from_text_rows(["+x"])

    @pytest.mark.parametrize("order", [1, 2, 7, 64])
    def test_sign_text_matches_the_entrywise_form(self, order):
        arr = np.random.default_rng(order).choice([-1, 1], size=(order, order))
        rows = sign_text_rows(DenseSignMatrix(arr))
        assert rows == ["".join("+" if v > 0 else "-" for v in row) for row in arr.tolist()]
        assert np.array_equal(sign_matrix_from_text_rows(rows).array, arr)

    def test_non_square_sign_text_is_refused(self):
        with pytest.raises(ValueError, match="square"):
            sign_matrix_from_text_rows(["++-", "+-+"])


class TestLambdaReader:
    def test_seeded_mutations_match_the_per_triple_reference(self):
        rng = np.random.default_rng(59)
        outcomes = []
        for n in (2, 3, 5, 9, 17):
            for _ in range(4):
                entries = [[j + 1, k + 1, int(rng.choice([-1, 1]))]
                           for j in range(n) for k in range(j + 1, n)]
                entries = [[k, j, v] if rng.integers(2) else [j, k, v] for j, k, v in entries]
                entries = [entries[t] for t in rng.permutation(len(entries))]
                for e in (entries, *lambda_mutants(rng, n, entries)):
                    obj = {"n": n, "entries": e}
                    got = outcome(lambda_from_dict, obj)
                    assert got == outcome(reference_lambda_from_dict, obj)
                    outcomes.append(got if isinstance(got, str) else "ok")
        # every message is reached
        for part in ("ok", "entries must be", "bad pair", "lambda[", "conflicting",
                     "cannot cover", "missing lambda pair"):
            assert sum(part in o for o in outcomes) >= 5, part

    def test_first_offending_triple_is_named(self):
        obj = {"n": 3, "entries": [[2, 1, 1], [1, 3, 1], [1, 2, -1], [3, 3, 1], [1, 2]]}
        with pytest.raises(ValueError, match=r"conflicting lambda values for pair \(1, 2\)"):
            lambda_from_dict(obj)
        obj["entries"][2] = [1, 2, 1]
        with pytest.raises(ValueError, match=r"bad pair indices \(3, 3\) for n=3"):
            lambda_from_dict(obj)
        obj["entries"][3] = [2, 3, 0]
        with pytest.raises(ValueError, match=r"lambda\[2\]\[3\] must be \+1 or -1, got 0"):
            lambda_from_dict(obj)
        obj["entries"][3] = [3, 2, -1]
        with pytest.raises(ValueError, match=r"triples, got \[1, 2\]"):
            lambda_from_dict(obj)


class TestLambdaFormat:
    def test_round_trip(self):
        lam = pattern_from_pairs(3, {(0, 1): -1, (0, 2): 1, (1, 2): -1})
        assert lambda_from_dict(lambda_to_dict(lam)) == lam

    def test_symmetric_completion(self):
        lam = lambda_from_dict({"n": 2, "entries": [[2, 1, -1]]})
        assert lam.get(0, 1) == -1

    def test_missing_pairs_rejected(self):
        with pytest.raises(ValueError):
            lambda_from_dict({"n": 3, "entries": [[1, 2, -1]]})

    def test_first_missing_pair_is_named_one_based(self):
        with pytest.raises(ValueError) as info:
            lambda_from_dict({"n": 4, "entries": [[1, 2, 1]] * 6})
        assert str(info.value) == "missing lambda pair (1, 3)"
        entries = [[j, k, 1] for j in range(1, 5) for k in range(j + 1, 5) if (j, k) != (2, 4)]
        with pytest.raises(ValueError) as info:
            lambda_from_dict({"n": 4, "entries": entries + [[4, 3, 1]]})
        assert str(info.value) == "missing lambda pair (2, 4)"

    def test_missing_pair_message_does_not_grow_with_n(self):
        # before, every missing pair was listed: 2,090,524 characters here
        n = 600
        with pytest.raises(ValueError) as info:
            lambda_from_dict({"n": n, "entries": [[1, 2, 1]] * (n * (n - 1) // 2)})
        assert str(info.value) == "missing lambda pair (1, 3)"

    def test_conflicting_entries_rejected(self):
        with pytest.raises(ValueError):
            lambda_from_dict({"n": 2, "entries": [[1, 2, -1], [2, 1, 1]]})

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            lambda_from_dict({"n": 2, "entries": [[1, 2, 1]], "note": "hi"})


class TestStrictNumbers:
    # JSON floats and booleans are never read as integers
    def test_sign_rejects_floats_and_bools(self):
        for kappa in ([1.0], [True], [-1.0]):
            with pytest.raises(ValueError):
                presentation_from_dict({"m": 1, "kappa": kappa})
        with pytest.raises(ValueError):
            lambda_from_dict({"n": 2, "entries": [[1, 2, -1.0]]})

    def test_sizes_and_indices_reject_floats_and_bools(self):
        with pytest.raises(ValueError):
            presentation_from_dict({"m": True, "kappa": [1]})
        with pytest.raises(ValueError):
            presentation_from_dict({"m": 2.0, "kappa": [1, 1]})
        with pytest.raises(ValueError):
            presentation_from_dict({"m": 2, "kappa": [1, 1], "delta": [[True, 2, 1]]})
        with pytest.raises(ValueError):
            presentation_from_dict({"m": 2, "kappa": [1, 1], "delta": [[1, 2, True]]})
        with pytest.raises(ValueError):
            lambda_from_dict({"n": True, "entries": []})
        with pytest.raises(ValueError):
            lambda_from_dict({"n": 2, "entries": [[1.0, 2, 1]]})

    def test_monomial_rejects_floats_and_bools(self):
        good = {"order": 2, "perm": [1, 0], "signs": [1, -1]}
        assert monomial_from_dict(good) == MonomialMatrix([1, 0], [1, -1])
        for key, bad in (
            ("perm", [0.9, 1.2]),
            ("perm", [1.0, 0.0]),
            ("signs", [1.0, -1.4]),
            ("signs", [True, True]),
            ("order", 2.0),
            ("order", True),
        ):
            with pytest.raises(ValueError):
                monomial_from_dict({**good, key: bad})

    def test_dense_rejects_floats_and_bools(self):
        with pytest.raises(ValueError):
            dense_from_rows([[1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(ValueError):
            dense_from_rows([[1, 1], [1, -1.5]])
        with pytest.raises(ValueError):
            dense_from_rows([[True, True], [True, True]])

    def test_booleans_mixed_with_integers_rejected(self):
        # NumPy reads such a list as int64, so the dtype alone misses it
        good = {"order": 2, "perm": [1, 0], "signs": [1, -1]}
        for key, bad in (("perm", [True, 0]), ("perm", [1, False]), ("signs", [1, True])):
            with pytest.raises(ValueError, match="boolean"):
                monomial_from_dict({**good, key: bad})
        with pytest.raises(ValueError, match="boolean"):
            dense_from_rows([[1, 1], [True, -1]])

    def test_bundle_header_rejects_floats_and_bools(self):
        d = bundle_to_dict(complete(1))
        assert bundle_from_dict(d).n == 2
        for key in ("n", "b"):
            for bad in (float(d[key]), True):
                with pytest.raises(ValueError):
                    bundle_from_dict({**d, key: bad})

    def test_report_rejects_non_integer_sizes_and_non_boolean_checks(self):
        d = bundle_to_dict(complete(1))
        report = d["report"]
        for key in ("n", "b", "order"):
            with pytest.raises(ValueError, match=key):
                bundle_from_dict({**d, "report": {**report, key: float(report[key])}})
        for bad in ("no", 1, 0, None):
            checks = {**report["checks"], "hadamard": bad}
            with pytest.raises(ValueError, match="hadamard"):
                bundle_from_dict({**d, "report": {**report, "checks": checks}})
            with pytest.raises(ValueError, match="passed"):
                bundle_from_dict({**d, "report": {**report, "passed": bad}})


class TestBundleFormat:
    def test_round_trip_and_reverify(self):
        bundle = complete(2)
        d = bundle_to_dict(bundle)
        again = bundle_from_dict(d)
        assert again.H == bundle.H
        assert again.lam == bundle.lam
        assert all(a == b for a, b in zip(again.A, bundle.A))
        assert all(a == b for a, b in zip(again.B, bundle.B))
        assert bundle_to_dict(again) == d

    def test_inconsistent_sizes_rejected(self):
        bundle = complete(1)
        d = bundle_to_dict(bundle)
        with pytest.raises(ValueError):
            bundle_from_dict({**d, "n": 3})
        with pytest.raises(ValueError, match="family sizes"):
            bundle_from_dict({**d, "D": d["D"][:1]})
        wrong_order = {"order": 3, "perm": [0, 1, 2], "signs": [1, 1, 1]}
        with pytest.raises(ValueError, match=r"outer orders \[2, 3\]"):
            bundle_from_dict({**d, "A": [d["A"][0], wrong_order]})
        with pytest.raises(ValueError, match=r"D orders \[2, 3\]"):
            bundle_from_dict({**d, "D": [d["D"][0], wrong_order]})


def _set(key, i, value):
    def mutate(member):
        member[key][i] = value(member[key][i]) if callable(value) else value
    return mutate


# Mutations of one monomial member dict, each refused by monomial_from_dict.
MONOMIAL_MUTATIONS = {
    "boolean perm entry": _set("perm", 0, True),
    "boolean sign": _set("signs", -1, True),
    "float perm entry": _set("perm", 0, float),
    "float sign": _set("signs", 0, float),
    "short perm": lambda member: member["perm"].pop(),
    "short signs": lambda member: member["signs"].pop(),
    "short perm and signs": lambda member: (member["perm"].pop(), member["signs"].pop()),
    "perm not a permutation": lambda member: member["perm"].__setitem__(0, member["perm"][1]),
    "sign of 2": _set("signs", 0, 2),
    "missing key": lambda member: member.pop("signs"),
    "unknown key": lambda member: member.__setitem__("extra", 1),
    "wrong order": lambda member: member.__setitem__("order", member["order"] + 1),
    "boolean order": lambda member: member.__setitem__("order", True),
    "float order": lambda member: member.__setitem__("order", float(member["order"])),
}

# Mutations of one dense member (a list of rows), each refused by dense_from_rows.
DENSE_MUTATIONS = {
    "boolean entry": lambda rows: rows[0].__setitem__(0, True),
    "float entry": lambda rows: rows[-1].__setitem__(-1, float(rows[-1][-1])),
    "short row": lambda rows: rows[0].pop(),
    "missing row": lambda rows: rows.pop(),
    "sign of 2": lambda rows: rows[0].__setitem__(1, 2),
    "nested entry": lambda rows: rows[1].__setitem__(0, [1]),
}


class TestBundleFamilyReader:
    """``bundle_from_dict`` validates A, D and B as stacks; a bad member
    raises what the per-member reader raises for it."""

    @pytest.fixture(scope="class")
    def good(self):
        return bundle_to_dict(complete(2))

    def assert_parity(self, good, family, index, mutate, member_reader):
        # index "all" mutates every member alike, so the family still stacks
        obj = copy.deepcopy(good)
        for member in obj[family] if index == "all" else [obj[family][index]]:
            mutate(member)
        got = member_outcome(bundle_from_dict, obj)
        assert got == member_outcome(reference_bundle_from_dict, obj)
        assert got[0] == "raise"
        assert got == member_outcome(member_reader, obj[family][0 if index == "all" else index])

    @pytest.mark.parametrize("name", MONOMIAL_MUTATIONS)
    @pytest.mark.parametrize("family", ["A", "D"])
    @pytest.mark.parametrize("index", [0, -1, "all"])
    def test_monomial_members(self, good, family, index, name):
        self.assert_parity(good, family, index, MONOMIAL_MUTATIONS[name], monomial_from_dict)

    @pytest.mark.parametrize("name", DENSE_MUTATIONS)
    @pytest.mark.parametrize("index", [0, -1, "all"])
    def test_dense_members(self, good, index, name):
        self.assert_parity(good, "B", index, DENSE_MUTATIONS[name], dense_from_rows)

    @pytest.mark.parametrize("index", [0, -1])
    def test_members_of_another_order(self, good, index):
        wide = {"order": 8, "perm": list(range(8)), "signs": [1] * 8}
        for family, member in (("A", wide), ("D", wide), ("B", dense_to_rows(sylvester(8)))):
            def mutate(members, member=member):
                members[index] = member
            obj = copy.deepcopy(good)
            mutate(obj[family])
            got = member_outcome(bundle_from_dict, obj)
            assert got == member_outcome(reference_bundle_from_dict, obj)
            assert got[0] == "raise" and "orders" in got[2], (family, got)

    @pytest.mark.parametrize("family", ["A", "D", "B"])
    def test_members_that_are_not_objects_or_rows(self, good, family):
        for bad in ("perm", 3, None, [], {"perm": [0, 1]}):
            obj = copy.deepcopy(good)
            obj[family][-1] = bad
            got = member_outcome(bundle_from_dict, obj)
            assert got == member_outcome(reference_bundle_from_dict, obj)
            assert got[0] == "raise"

    def test_well_formed_bundles_read_no_member_alone(self, monkeypatch):
        objs = [bundle_to_dict(complete(m)) for m in (1, 2, 3)]
        want = [reference_bundle_from_dict(obj) for obj in objs]
        calls = []
        for name in ("monomial_from_dict", "dense_from_rows"):
            real = getattr(serialize, name)
            monkeypatch.setattr(serialize, name,
                                lambda *a, real=real, name=name: calls.append(name) or real(*a))
        assert [bundle_from_dict(obj) for obj in objs] == want
        assert calls == ["dense_from_rows"] * 3  # S, once per bundle
