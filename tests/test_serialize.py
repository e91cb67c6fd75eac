import pytest

from qcliff import (
    AlgebraPresentation,
    LambdaPattern,
    MonomialMatrix,
    complete,
    quaternion_presentation,
    sylvester,
)
from qcliff.serialize import (
    bundle_from_dict,
    bundle_to_dict,
    dense_from_rows,
    dense_to_rows,
    lambda_from_dict,
    lambda_to_dict,
    monomial_from_dict,
    monomial_to_dict,
    presentation_from_dict,
    presentation_to_dict,
    sign_matrix_from_text_rows,
    sign_text_rows,
)


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
        assert P.delta(0, 1) == 0

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


class TestMatrixFormats:
    def test_monomial_round_trip(self):
        mat = MonomialMatrix([2, 0, 1], [1, -1, 1])
        assert monomial_from_dict(monomial_to_dict(mat)) == mat

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


class TestLambdaFormat:
    def test_round_trip(self):
        lam = LambdaPattern.from_pairs(3, {(0, 1): -1, (0, 2): 1, (1, 2): -1})
        assert lambda_from_dict(lambda_to_dict(lam)) == lam

    def test_symmetric_completion(self):
        lam = lambda_from_dict({"n": 2, "entries": [[2, 1, -1]]})
        assert lam.get(0, 1) == -1

    def test_missing_pairs_rejected(self):
        with pytest.raises(ValueError):
            lambda_from_dict({"n": 3, "entries": [[1, 2, -1]]})

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
