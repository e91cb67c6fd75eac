import itertools

import numpy as np
import pytest

from qcliff import (
    CapExceeded,
    LambdaPattern,
    TransversalSpec,
    check_hr_bound,
    classify_presentation,
    lambda_of_pair,
    lambda_of_transversal,
    minimal_images,
    presentation_from,
    rho,
    solve,
    tensor_presentation,
    transversal,
    verify_solution,
)
from qcliff.matrices import ident2, j2, z2
from qcliff.solve import _irrep_order_masks, _order_floor

from helpers import random_monomial_matrix


def random_pattern(rng, n):
    return LambdaPattern.from_pairs(
        n,
        {
            (j, k): int(rng.choice([-1, 1]))
            for j in range(n)
            for k in range(j + 1, n)
        },
    )


class TestLambdaPattern:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            LambdaPattern(2, ((0, 1), (-1, 0)))

    def test_missing_pairs_rejected(self):
        with pytest.raises(ValueError):
            LambdaPattern.from_pairs(3, {(0, 1): 1})

    def test_diagonal_never_defined(self):
        lam = LambdaPattern.constant(3, -1)
        with pytest.raises(ValueError):
            lam.get(1, 1)


class TestPresentationFrom:
    def test_all_anti_all_plus_gives_full_anticommutation(self):
        lam = LambdaPattern.constant(4, -1)
        P = presentation_from(lam, (1, 1, 1, 1))
        assert P.kappa == (1, 1, 1, 1)
        assert len(P.anticommuting_pairs()) == 6

    def test_all_anti_split_signs_gives_the_tensor_presentation(self):
        lam = LambdaPattern.constant(5, -1)
        P = presentation_from(lam, (1, 1, -1, -1, -1))
        assert P == tensor_presentation(2, 3)

    def test_amicable_plus_pair_commutes(self):
        lam = LambdaPattern.constant(2, 1)
        P = presentation_from(lam, (1, 1))
        assert P.delta(0, 1) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            presentation_from(LambdaPattern.constant(3, -1), (1, 1))

    def test_round_trip_through_generator_images(self):
        # realized pattern of the generator images must reproduce lambda,
        # for every sign assignment
        rng = np.random.default_rng(61)
        for n in (2, 3, 4, 5, 6):
            for _ in range(2):
                lam = random_pattern(rng, n)
                for bits in range(1 << n):
                    kappa = tuple(1 if (bits >> i) & 1 == 0 else -1 for i in range(n))
                    rep = minimal_images(presentation_from(lam, kappa))
                    D = rep.generator_images
                    for j in range(n):
                        for k in range(j + 1, n):
                            assert lambda_of_pair(D[j], D[k], side="B") == lam.get(j, k)

    def test_global_flip_leaves_the_table_unchanged(self):
        rng = np.random.default_rng(67)
        for n in (2, 3, 4, 5):
            lam = random_pattern(rng, n)
            for bits in range(1 << n):
                kappa = tuple(1 if (bits >> i) & 1 == 0 else -1 for i in range(n))
                flipped = tuple(-k for k in kappa)
                a = presentation_from(lam, kappa)
                b = presentation_from(lam, flipped)
                assert a.anticommuting_pairs() == b.anticommuting_pairs()

    def test_half_sweep_reaches_the_global_minimum(self):
        # the sweep fixes the first square at +1; a family with first
        # square -1 transforms into one with first member the identity
        # (E_j = D_1^T D_j) at the same order and pattern, so nothing is
        # lost -- checked here against the unrestricted sweep
        rng = np.random.default_rng(97)
        for n in (2, 3, 4):
            for _ in range(4):
                lam = random_pattern(rng, n)
                orders = {}
                for bits in range(1 << n):
                    kappa = tuple(1 if (bits >> i) & 1 == 0 else -1 for i in range(n))
                    orders[kappa] = classify_presentation(
                        presentation_from(lam, kappa)
                    ).irrep_order
                gmin = min(orders.values())
                hmin = min(v for k, v in orders.items() if k[0] == 1)
                assert gmin == hmin


class TestCandidateOrder:
    def test_matches_full_classification_for_every_kappa(self):
        # the sweep's per-candidate order against the object-level
        # classify(decompose(...)) reference, over all of {+-1}^n
        rng = np.random.default_rng(89)
        for n in range(2, 7):
            patterns = [LambdaPattern.constant(n, -1), LambdaPattern.constant(n, 1)]
            patterns += [random_pattern(rng, n) for _ in range(3)]
            for lam in patterns:
                neg_rows = lam.neg_masks()
                for bits in range(1 << n):
                    kappa = tuple(-1 if (bits >> i) & 1 else 1 for i in range(n))
                    want = classify_presentation(presentation_from(lam, kappa)).irrep_order
                    assert _irrep_order_masks(neg_rows, n, bits) == want, (lam, kappa)


def full_sweep_reference(lam):
    """The sweep without a floor: every kappa with kappa_0 = +1, first minimiser kept."""
    n = lam.n
    neg_rows = lam.neg_masks()
    best_order, best_mask = None, 0
    for c in range(1 << (n - 1)):
        kappa_mask = sum(1 << i for i in range(1, n) if (c >> (n - 1 - i)) & 1)
        order = _irrep_order_masks(neg_rows, n, kappa_mask)
        if best_order is None or order < best_order:
            best_order, best_mask = order, kappa_mask
    return tuple(-1 if (best_mask >> i) & 1 else 1 for i in range(n)), best_order


def all_patterns(n):
    pairs = list(itertools.combinations(range(n), 2))
    for values in itertools.product((1, -1), repeat=len(pairs)):
        yield LambdaPattern.from_pairs(n, dict(zip(pairs, values)))


class TestOrderFloor:
    @staticmethod
    def assert_floor_is_the_minimum(lam):
        neg_rows = lam.neg_masks()
        orders = [_irrep_order_masks(neg_rows, lam.n, bits) for bits in range(1 << lam.n)]
        # bit 0 clear is kappa_0 = +1, the half the solver sweeps
        assert _order_floor(lam) == min(orders) == min(orders[0::2]), lam

    def test_floor_is_the_minimum_for_every_pattern_up_to_n5(self):
        for n in range(2, 6):
            for lam in all_patterns(n):
                self.assert_floor_is_the_minimum(lam)

    def test_floor_is_the_minimum_on_seeded_patterns(self):
        rng = np.random.default_rng(101)
        for n in range(6, 11):
            for _ in range(6):
                self.assert_floor_is_the_minimum(random_pattern(rng, n))

    def test_solve_matches_the_full_sweep_reference(self):
        rng = np.random.default_rng(103)
        patterns = [random_pattern(rng, n) for n in range(2, 13) for _ in range(3)]
        patterns += [LambdaPattern.constant(n, v) for n in (2, 5, 9, 12) for v in (1, -1)]
        patterns += [
            lambda_of_transversal(transversal(TransversalSpec.default(m))) for m in (1, 2, 3)
        ]
        for lam in patterns:
            kappa, order = full_sweep_reference(lam)
            result = solve(lam)
            assert (result.kappa, result.b) == (kappa, order), lam


class TestSolve:
    def test_all_anti_n4(self):
        result = solve(LambdaPattern.constant(4, -1))
        assert result.b == 4
        verify_solution(LambdaPattern.constant(4, -1), result)

    def test_all_anti_n8(self):
        result = solve(LambdaPattern.constant(8, -1))
        assert result.b == 8

    def test_two_anti_amicable(self):
        result = solve(LambdaPattern.constant(2, -1))
        assert result.b == 2
        assert result.kappa == (1, 1)

    def test_minimum_certified_by_unquotiented_sweep(self):
        rng = np.random.default_rng(71)
        patterns = [LambdaPattern.constant(n, -1) for n in (2, 3, 4)]
        patterns += [random_pattern(rng, n) for n in (2, 3, 4) for _ in range(3)]
        for lam in patterns:
            best = min(
                classify_presentation(
                    presentation_from(
                        lam,
                        tuple(1 if (bits >> i) & 1 == 0 else -1 for i in range(lam.n)),
                    )
                ).irrep_order
                for bits in range(1 << lam.n)
            )
            assert solve(lam).b == best

    def test_deterministic(self):
        rng = np.random.default_rng(73)
        lam = random_pattern(rng, 5)
        a, b = solve(lam), solve(lam)
        assert a.kappa == b.kappa and a.b == b.b
        assert all(x == y for x, y in zip(a.D, b.D))

    def test_cap(self):
        with pytest.raises(CapExceeded):
            solve(LambdaPattern.constant(6, -1), max_n=4)

    def test_too_small(self):
        with pytest.raises(ValueError):
            solve(LambdaPattern.constant(1, -1))


class TestRho:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, 1), (2, 2), (4, 4), (8, 8), (16, 9), (32, 10), (64, 12), (128, 16), (256, 17), (3, 1), (24, 8)],
    )
    def test_values(self, n, expected):
        assert rho(n) == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            rho(0)


class TestHurwitzRadonBound:
    def test_solver_family_meets_the_bound_with_equality(self):
        result = solve(LambdaPattern.constant(8, -1))
        report = check_hr_bound(result.D)
        assert report.passed
        assert report.size == report.rho == 8

    def test_single_matrix(self):
        rng = np.random.default_rng(79)
        report = check_hr_bound([random_monomial_matrix(rng, 6)])
        assert report.passed and report.size == 1

    def test_identity_rotation_family(self):
        report = check_hr_bound([ident2(), j2()])
        assert report.passed
        assert report.size == rho(2) == 2

    def test_mixed_orders_rejected(self):
        rng = np.random.default_rng(83)
        with pytest.raises(ValueError):
            check_hr_bound([random_monomial_matrix(rng, 2), random_monomial_matrix(rng, 4)])

    def test_non_anti_amicable_family_reported(self):
        report = check_hr_bound([ident2(), z2()])
        assert not report.mutually_anti_amicable
