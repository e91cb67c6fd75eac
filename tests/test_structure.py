import pytest

from qcliff import AlgebraPresentation, classify_presentation
from qcliff.decompose import decompose
from qcliff.structure import (
    StructureCase,
    classify,
    compact_label,
    table_entry,
    tensor_presentation,
)

from helpers import all_presentations, bott_label, clifford_presentation, quaternion_presentation


class TestClassify:
    def test_quaternions(self):
        wt = classify(decompose(quaternion_presentation()))
        assert wt.case is StructureCase.QUATERNION
        assert (wt.r, wt.s) == (0, 1)
        assert (wt.num_irreps, wt.irrep_order) == (1, 4)
        assert wt.label == "^1 H(1)"

    def test_single_minus_generator(self):
        wt = classify_presentation(AlgebraPresentation((-1,)))
        assert wt.case is StructureCase.COMPLEX
        assert (wt.r, wt.s) == (1, 0)
        assert (wt.num_irreps, wt.irrep_order) == (1, 2)

    def test_single_plus_generator(self):
        wt = classify_presentation(AlgebraPresentation((1,)))
        assert wt.case is StructureCase.REAL
        assert (wt.num_irreps, wt.irrep_order) == (2, 1)

    @pytest.mark.parametrize("squares", [(1, 1), (1, -1), (-1, 1)])
    def test_non_quaternionic_pairs_are_two_by_two_real(self, squares):
        wt = classify_presentation(AlgebraPresentation(squares, [(0, 1)]))
        assert wt.case is StructureCase.REAL
        assert (wt.num_irreps, wt.irrep_order) == (1, 2)
        assert wt.label == "^1 R(2)"

    def test_dimension_identity_exhaustively(self):
        for m in range(1, 5):
            for P in all_presentations(m):
                assert classify_presentation(P).total_dimension() == 2**m

    def test_fully_anticommuting_presentations_have_small_centre(self):
        # all-anticommuting tables give centre dimension 2^r with r <= 1
        import itertools

        for m in range(1, 5):
            anti = [(i, j) for i in range(m) for j in range(i + 1, m)]
            for kappa in itertools.product((1, -1), repeat=m):
                wt = classify_presentation(AlgebraPresentation(kappa, anti))
                assert wt.r <= 1


class TestBottPeriodicity:
    """``classify`` on Clifford presentations against ``helpers.BOTT_TABLE``,
    the (p - q) mod 8 table, which uses no qcliff code."""

    def test_every_clifford_algebra_up_to_16_generators(self):
        for n in range(1, 17):
            for p in range(n + 1):
                P = clifford_presentation(p, n - p)
                assert classify_presentation(P).label == bott_label(p, n - p), (p, n - p)

    @pytest.mark.parametrize("residue", range(8))
    def test_near_300_generators(self, residue):
        n = 300 + residue % 2
        p, q = (n + residue) // 2, (n - residue) // 2
        assert classify_presentation(clifford_presentation(p, q)).label == bott_label(p, q)


class TestTensorPresentation:
    def test_two_plus(self):
        P = tensor_presentation(2, 0)
        assert P.kappa == (1, 1) and P.anticommuting_pairs() == [(0, 1)]

    def test_mixed(self):
        P = tensor_presentation(1, 1)
        assert P.kappa == (1, -1) and P.anticommuting_pairs() == []

    def test_two_minus(self):
        P = tensor_presentation(0, 2)
        assert P.kappa == (-1, -1) and P.anticommuting_pairs() == [(0, 1)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tensor_presentation(0, 0)


class TestTableEntry:
    @pytest.mark.parametrize(
        "p,q,label,order",
        [
            (1, 1, "²C", 2),
            (1, 3, "⁴H", 4),
            (5, 3, "⁴R(8)", 8),
            (0, 0 + 2, "H", 4),
            (4, 4, "R(16)", 16),
            (3, 1, "²C(2)", 4),
        ],
    )
    def test_entries(self, p, q, label, order):
        assert table_entry(p, q) == (label, order)


class TestCompactLabel:
    @pytest.mark.parametrize(
        "label,compact",
        [
            ("^1 H(1)", "H"),
            ("^2 C(1)", "²C"),
            ("^4 R(8)", "⁴R(8)"),
            ("^1 R(16)", "R(16)"),
            ("^16 R(2)", "¹⁶R(2)"),
        ],
    )
    def test_rendering(self, label, compact):
        assert compact_label(label) == compact
