import itertools
from dataclasses import replace

import numpy as np
import pytest

from qcliff import (
    CapExceeded,
    LambdaPattern,
    MonomialMatrix,
    VerificationError,
    complete,
    verify_bundle,
)
from qcliff.hadamard import (
    TransversalSpec,
    lambda_of_transversal,
    plug_in,
    run_checks,
    transversal,
)
from qcliff.matrices import DenseSignMatrix, ident2, pair_lambdas, sylvester, x2, y2, z2
from qcliff.solve import _minimal_kappa

from helpers import (
    dense,
    dense_lambda,
    outcome,
    random_monomial_matrix,
    reference_plug_in,
    reference_run_checks,
    reference_verify_bundle,
    tensor,
    transversal_lambda,
)


class TestTransversal:
    def test_depth_one_identity_swap(self):
        A = transversal(TransversalSpec.from_strings("I", "X"))
        assert A == [ident2(), x2()]
        total = dense(A[0]) + dense(A[1])
        assert np.all(total == 1)

    def test_depth_one_z_y(self):
        A = transversal(TransversalSpec.from_strings("Z", "Y"))
        total = dense(A[0]) + dense(A[1])
        assert np.array_equal(total, dense(z2()) + dense(y2()))
        assert np.all(np.abs(total) == 1)

    def test_depth_two_supports_partition(self):
        A = transversal(TransversalSpec.from_strings("II", "XX"))
        assert len(A) == 4 and all(a.order == 4 for a in A)
        total = sum(dense(a) for a in A)
        assert np.all(total == 1)

    def test_every_member_is_symmetric_or_skew(self):
        for diag in itertools.product("IZ", repeat=2):
            for off in itertools.product("XY", repeat=2):
                spec = TransversalSpec(tuple(diag), tuple(off))
                for a in transversal(spec):
                    assert a.transpose() in (a, -a)

    def test_index_bits_drive_positions_msb_first(self):
        A = transversal(TransversalSpec.from_strings("IZ", "XY"))
        assert A[0] == tensor(ident2(), z2())
        assert A[1] == tensor(ident2(), y2())
        assert A[2] == tensor(x2(), z2())
        assert A[3] == tensor(x2(), y2())

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

    def test_matches_the_closed_form_for_every_spec_up_to_depth_four(self):
        specs = 0
        for m in range(1, 5):
            for diag in itertools.product("IZ", repeat=m):
                for off in itertools.product("XY", repeat=m):
                    spec = TransversalSpec(diag, off)
                    assert lambda_of_transversal(transversal(spec)) == transversal_lambda(spec)
                    specs += 1
        assert specs == 340


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
        got = pair_lambdas(bundle.D)
        for j in range(bundle.n):
            for k in range(j + 1, bundle.n):
                lam_mono = got[j, k]
                lam_dense = dense_lambda(bundle.B[j].array, bundle.B[k].array)
                assert lam_mono == lam_dense == bundle.lam.get(j, k)

    def test_transversal_sum_matches_the_dense_sum(self):
        bundle = complete(2)
        n = bundle.n
        rng = np.random.default_rng(71)
        seen = set()
        for _ in range(120):
            # a Latin-square family covers every cell once; then maybe
            # swap in random members, which usually breaks the cover
            shift, cols = rng.permutation(n), rng.permutation(n)
            A = [
                MonomialMatrix(cols[(shift + k) % n], rng.choice([-1, 1], size=n))
                for k in range(n)
            ]
            for _ in range(int(rng.integers(0, 3))):
                A[int(rng.integers(n))] = random_monomial_matrix(rng, n)
            total = sum(dense(a) for a in A)
            expected = bool(np.all(np.abs(total) == 1))
            got = run_checks(A, bundle.lam, bundle.B, bundle.H).transversal_sum
            assert got is expected
            seen.add(got)
        assert seen == {True, False}

    def test_a_flipped_lambda_pair_fails_both_lambda_checks(self):
        bundle = complete(2)
        neg = bundle.lam.neg
        for j, k in itertools.combinations(range(bundle.n), 2):
            flip = list(neg)
            flip[j] ^= 1 << k
            flip[k] ^= 1 << j
            lam = LambdaPattern(bundle.n, tuple(flip))
            report = run_checks(bundle.A, lam, bundle.B, bundle.H)
            assert report.failures() == ["a_lambda", "b_lambda"], (j, k)

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

    def test_order_floor_is_computed_once(self, monkeypatch):
        calls = []

        def counting(lam, *cap):
            calls.append(lam)
            return _minimal_kappa(lam, *cap)

        monkeypatch.setattr("qcliff.solve._minimal_kappa", counting)
        monkeypatch.setattr("qcliff.hadamard._minimal_kappa", counting)
        bundle = complete(2)
        assert len(calls) == 1
        assert (bundle.b, bundle.lam) == (_minimal_kappa(calls[0])[1], calls[0])

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


def plug_in_reference(A, B, H):
    """``h_matches_terms`` by assembling the plug-in sum block by block."""
    try:
        return reference_plug_in(A, B) == H
    except ValueError:
        return False


def mutated_terms(rng, bundle, count):
    """``count`` (A, B, H) triples, each with one flipped B entry, two
    swapped A members or one flipped H entry."""
    for t in range(count):
        A, B, H = list(bundle.A), list(bundle.B), bundle.H
        if t % 3 == 0:
            k = int(rng.integers(len(B)))
            x = B[k].array.copy()
            i, j = rng.integers(bundle.b, size=2)
            x[i, j] = -x[i, j]
            B[k] = DenseSignMatrix(x)
        elif t % 3 == 1:
            j, k = rng.choice(len(A), size=2, replace=False)
            A[j], A[k] = A[k], A[j]
        else:
            x = H.array.copy()
            i, j = rng.integers(H.order, size=2)
            x[i, j] = -x[i, j]
            H = DenseSignMatrix(x)
        yield A, B, H


class TestHMatchesTerms:
    def test_complete_assembles_h_once(self, monkeypatch):
        calls = []

        def counting(A, B):
            calls.append(len(A))
            return plug_in(A, B)

        monkeypatch.setattr("qcliff.hadamard.plug_in", counting)
        for m in (1, 2, 3):
            bundle = complete(m)
            assert calls == [bundle.n]
            calls.clear()
            assert run_checks(bundle.A, bundle.lam, bundle.B, bundle.H).h_matches_terms
            assert verify_bundle(bundle).report.passed
            assert calls == []

    @pytest.mark.parametrize("m, count", [(1, 20), (2, 20), (3, 40), (4, 3)])
    def test_matches_the_plug_in_reference(self, m, count):
        bundle = complete(m)
        assert run_checks(bundle.A, bundle.lam, bundle.B, bundle.H).h_matches_terms
        assert plug_in_reference(bundle.A, bundle.B, bundle.H)
        rng = np.random.default_rng(100 + m)
        for A, B, H in mutated_terms(rng, bundle, count):
            got = run_checks(A, bundle.lam, B, H).h_matches_terms
            assert got == plug_in_reference(A, B, H)
            assert not got  # every mutation changes H or one of its terms

    def test_h_of_another_order_fails_the_check(self):
        bundle = complete(2)
        for order in (bundle.n, bundle.n * bundle.b * 2):
            H = DenseSignMatrix(np.ones((order, order), dtype=np.int64))
            assert not run_checks(bundle.A, bundle.lam, bundle.B, H).h_matches_terms


def every_spec(max_m):
    for m in range(1, max_m + 1):
        for diag in itertools.product("IZ", repeat=m):
            for off in itertools.product("XY", repeat=m):
                yield m, TransversalSpec(diag, off)


def mutated_bundles(rng, bundle, m):
    """``(name, bundle)`` for the bundle itself and one of each mutation."""
    n, b = bundle.n, bundle.b
    j, k = (int(v) for v in rng.choice(n, size=2, replace=False))
    yield "as built", bundle
    x = bundle.B[k].array.copy()
    r, c = rng.integers(b, size=2)
    x[r, c] = -x[r, c]
    B = list(bundle.B)
    B[k] = DenseSignMatrix(x)
    yield "one flipped B entry", replace(bundle, B=tuple(B))
    A = list(bundle.A)
    A[j], A[k] = A[k], A[j]
    yield "two swapped A members", replace(bundle, A=tuple(A))
    A = list(bundle.A)
    A[k] = A[j]
    yield "A_k replaced by A_j", replace(bundle, A=tuple(A))
    neg = list(bundle.lam.neg)
    neg[j] ^= 1 << k
    neg[k] ^= 1 << j
    yield "one flipped lambda pair", replace(bundle, lam=LambdaPattern(n, tuple(neg)))
    h = bundle.H.array.copy()
    r, c = rng.integers(n, size=2)
    h[r * b:(r + 1) * b, c * b:(c + 1) * b] *= -1
    yield "one H block with its sign flipped", replace(bundle, H=DenseSignMatrix(h))
    B = list(bundle.B)
    B[k] = sylvester(2 * b)
    yield "a B of another order", replace(bundle, B=tuple(B))
    wide = transversal(TransversalSpec.default(m + 1))[:n]
    yield "outer members of another order", replace(bundle, A=tuple(wide))


def same_outcome(got, want):
    """Outcomes of ``helpers.outcome`` with equal values or equal errors."""
    if got[0] == want[0] == "ok":
        value, ref = got[1], want[1]
        if hasattr(value, "report"):
            value, ref = value.report, ref.report
        return value == ref
    return got == want


def assert_stacked_checks_match(bundle, m, rng):
    for name, mutant in mutated_bundles(rng, bundle, m) if rng else [("as built", bundle)]:
        A, lam, B, H = mutant.A, mutant.lam, mutant.B, mutant.H
        for got, want in (
            (outcome(plug_in, A, B), outcome(reference_plug_in, A, B)),
            (outcome(run_checks, A, lam, B, H), outcome(reference_run_checks, A, lam, B, H)),
            (outcome(verify_bundle, mutant), outcome(reference_verify_bundle, mutant)),
        ):
            assert same_outcome(got, want), (m, name, got, want)
        if name == "A_k replaced by A_j":
            assert outcome(plug_in, A, B)[:2] == ("raise", ValueError)


class TestStackedChecksAgainstTheMemberReferences:
    """``plug_in``, ``run_checks`` and ``verify_bundle`` on their stacked
    families give the reports and raise the errors of the per-member
    references in ``helpers``, on every spec up to m = 3, on the default
    m = 4 and on mutated bundles."""

    @pytest.mark.parametrize("gram_batch", [None, 1])
    def test_every_spec_up_to_depth_three_and_its_mutations(self, monkeypatch, gram_batch):
        if gram_batch is not None:
            # one row of B grams per batch, the path of larger bundles
            monkeypatch.setattr("qcliff.hadamard._GRAM_BATCH", gram_batch)
        rng = np.random.default_rng(24)
        specs = 0
        for m, spec in every_spec(3):
            assert_stacked_checks_match(complete(m, spec), m, rng)
            specs += 1
        assert specs == 84

    def test_default_depth_four(self):
        assert_stacked_checks_match(complete(4), 4, None)

    def test_mutations_change_the_outcome(self):
        rng = np.random.default_rng(3)
        bundle = complete(3)
        for name, mutant in mutated_bundles(rng, bundle, 3):
            if name == "as built":
                assert verify_bundle(mutant).report.passed
                continue
            got = outcome(verify_bundle, mutant)
            assert got[0] == "raise" or not got[1].report.passed, name
