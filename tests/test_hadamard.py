import itertools

import numpy as np
import pytest

from qcliff import (
    CapExceeded,
    DenseSignMatrix,
    MonomialMatrix,
    TransversalSpec,
    VerificationError,
    complete,
    lambda_of_pair,
    lambda_of_transversal,
    plug_in,
    sylvester,
    transversal,
    verify_bundle,
)
from qcliff.matrices import ident2, x2, y2, z2


class TestTransversal:
    def test_depth_one_identity_swap(self):
        A = transversal(TransversalSpec.from_strings("I", "X"))
        assert A == [ident2(), x2()]
        total = A[0].to_dense() + A[1].to_dense()
        assert np.all(total == 1)

    def test_depth_one_z_y(self):
        A = transversal(TransversalSpec.from_strings("Z", "Y"))
        total = A[0].to_dense() + A[1].to_dense()
        assert np.array_equal(total, z2().to_dense() + y2().to_dense())
        assert np.all(np.abs(total) == 1)

    def test_depth_two_supports_partition(self):
        A = transversal(TransversalSpec.from_strings("II", "XX"))
        assert len(A) == 4 and all(a.order == 4 for a in A)
        total = sum(a.to_dense() for a in A)
        assert np.all(total == 1)

    def test_every_member_is_symmetric_or_skew(self):
        for diag in itertools.product("IZ", repeat=2):
            for off in itertools.product("XY", repeat=2):
                spec = TransversalSpec(tuple(diag), tuple(off))
                for a in transversal(spec):
                    assert a.is_symmetric() or a.is_skew()

    def test_index_bits_drive_positions_msb_first(self):
        A = transversal(TransversalSpec.from_strings("IZ", "XY"))
        assert A[0] == ident2().tensor(z2())
        assert A[1] == ident2().tensor(y2())
        assert A[2] == x2().tensor(z2())
        assert A[3] == x2().tensor(y2())

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            TransversalSpec.from_strings("A", "X")
        with pytest.raises(ValueError):
            TransversalSpec.from_strings("I", "XY")
        with pytest.raises(ValueError):
            TransversalSpec.default(0)


class TestLambdaOfTransversal:
    def test_identity_swap(self):
        A = transversal(TransversalSpec.from_strings("I", "X"))
        assert lambda_of_transversal(A).get(0, 1) == -1

    def test_identity_signed_swap(self):
        A = transversal(TransversalSpec.from_strings("I", "Y"))
        assert lambda_of_transversal(A).get(0, 1) == 1

    def test_invalid_family_rejected(self):
        shift = MonomialMatrix([1, 2, 0], [1, 1, 1])
        with pytest.raises(ValueError):
            lambda_of_transversal([MonomialMatrix.identity(3), shift])


class TestPlugIn:
    def test_single_term(self):
        b = sylvester(2)
        H = plug_in([MonomialMatrix.identity(1)], [b])
        assert H == b

    def test_depth_one_pipeline_is_hadamard(self):
        bundle = complete(1)
        H = bundle.H
        assert H.order == 4
        assert np.array_equal(H.array @ H.array.T, 4 * np.eye(4, dtype=np.int64))

    def test_overlapping_supports_rejected(self):
        b = sylvester(2)
        with pytest.raises(ValueError):
            plug_in([ident2(), z2()], [b, b])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            plug_in([ident2(), x2()], [sylvester(2)])
        with pytest.raises(ValueError):
            plug_in([ident2(), x2()], [sylvester(2), sylvester(4)])


class TestComplete:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_default_specs_verify(self, m):
        bundle = complete(m)
        assert bundle.report.passed
        assert bundle.n == 2**m
        assert bundle.H.order == bundle.n * bundle.b

    def test_all_small_specs_verify(self):
        for m in (1, 2):
            for diag in itertools.product("IZ", repeat=m):
                for off in itertools.product("XY", repeat=m):
                    bundle = complete(m, TransversalSpec(tuple(diag), tuple(off)))
                    assert bundle.report.passed

    def test_sampled_depth_three_specs_verify(self):
        rng = np.random.default_rng(89)
        for _ in range(6):
            diag = tuple(rng.choice(list("IZ"), size=3))
            off = tuple(rng.choice(list("XY"), size=3))
            bundle = complete(3, TransversalSpec(diag, off))
            assert bundle.report.passed

    def test_non_default_depth_four_spec_verifies(self):
        bundle = complete(4, TransversalSpec.from_strings("IZIZ", "XYXY"))
        assert bundle.report.passed
        assert bundle.H.order == bundle.n * bundle.b

    def test_densified_family_keeps_the_pattern(self):
        bundle = complete(3)
        for j in range(bundle.n):
            for k in range(j + 1, bundle.n):
                lam_mono = lambda_of_pair(bundle.D[j], bundle.D[k], side="B")
                lam_dense = lambda_of_pair(bundle.B[j].array, bundle.B[k].array, side="B")
                assert lam_mono == lam_dense == bundle.lam.get(j, k)

    def test_b_gram_sum(self):
        bundle = complete(2)
        total = sum(bk.array @ bk.array.T for bk in bundle.B)
        assert np.array_equal(total, bundle.n * bundle.b * np.eye(bundle.b, dtype=np.int64))

    def test_depth_mismatch_rejected(self):
        with pytest.raises(ValueError):
            complete(2, TransversalSpec.default(3))

    def test_order_cap(self):
        with pytest.raises(CapExceeded):
            complete(3, max_order=32)

    def test_verify_bundle_detects_corruption(self):
        bundle = complete(1)
        bad_h = bundle.H.array.copy()
        bad_h[0, 0] = -bad_h[0, 0]
        import dataclasses

        broken = dataclasses.replace(bundle, H=DenseSignMatrix(bad_h))
        assert not verify_bundle(broken).report.passed

    def test_verify_bundle_passes_on_good_data(self):
        bundle = complete(2)
        assert verify_bundle(bundle).report.passed

    def test_verify_bundle_checks_d_and_s_against_b(self):
        import dataclasses

        bundle = complete(2)
        d = bundle.D[1]
        signs = d.signs.copy()
        signs[0] = -signs[0]
        D = bundle.D[:1] + (MonomialMatrix(d.perm, signs),) + bundle.D[2:]
        with pytest.raises(VerificationError, match="B_1"):
            verify_bundle(dataclasses.replace(bundle, D=D))
        ones = DenseSignMatrix(np.ones((bundle.b, bundle.b), dtype=np.int64))
        with pytest.raises(VerificationError, match="S S"):
            verify_bundle(dataclasses.replace(bundle, S=ones))
        with pytest.raises(ValueError):
            verify_bundle(dataclasses.replace(bundle, D=bundle.D[:2]))

    def test_verify_bundle_compares_the_stored_report(self):
        import dataclasses

        bundle = complete(2)
        for field, value in (("hadamard", False), ("b_lambda", False), ("order", 7)):
            stored = dataclasses.replace(bundle.report, **{field: value})
            with pytest.raises(VerificationError, match=field):
                verify_bundle(dataclasses.replace(bundle, report=stored))
