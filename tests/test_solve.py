import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcliff import (
    AlgebraPresentation,
    CapExceeded,
    LambdaPattern,
    VerificationError,
    classify_presentation,
    minimal_images,
    rho,
)
from qcliff.hadamard import TransversalSpec, complete, lambda_of_transversal, transversal
from qcliff.matrices import ident2, j2, pair_lambdas, z2
from qcliff.solve import (
    _even_presentation,
    _lex_first,
    _minimal_kappa,
    presentation_from,
    solve,
    verify_solution,
)
from qcliff.structure import tensor_presentation

from helpers import (
    check_hr_bound,
    commute_sign,
    constant_pattern,
    pattern_from_pairs,
    random_monomial_matrix,
    reference_lex_first,
    square_sign,
    tensor_with_identity,
)


def random_pattern(rng, n):
    return pattern_from_pairs(
        n,
        {
            (j, k): int(rng.choice([-1, 1]))
            for j in range(n)
            for k in range(j + 1, n)
        },
    )


class TestLambdaPattern:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError, match=r"not symmetric at \(0, 1\)"):
            LambdaPattern(2, (0b10, 0))

    def test_missing_pairs_rejected(self):
        with pytest.raises(ValueError, match="row masks"):
            LambdaPattern(3, (0b110, 0b001))

    def test_masks_must_be_a_table(self):
        for neg in ((0b1000, 0, 0), (-1, 0, 0)):
            with pytest.raises(ValueError, match="below 2"):
                LambdaPattern(3, neg)
        with pytest.raises(ValueError, match="diagonal"):
            LambdaPattern(3, (0b001, 0, 0))

    def test_diagonal_never_defined(self):
        lam = constant_pattern(3, -1)
        with pytest.raises(ValueError):
            lam.get(1, 1)


class TestPresentationFrom:
    def test_all_anti_all_plus_gives_full_anticommutation(self):
        lam = constant_pattern(4, -1)
        P = presentation_from(lam, (1, 1, 1, 1))
        assert P.kappa == (1, 1, 1, 1)
        assert len(P.anticommuting_pairs()) == 6

    def test_all_anti_split_signs_gives_the_tensor_presentation(self):
        lam = constant_pattern(5, -1)
        P = presentation_from(lam, (1, 1, -1, -1, -1))
        assert P == tensor_presentation(2, 3)

    def test_amicable_plus_pair_commutes(self):
        lam = constant_pattern(2, 1)
        P = presentation_from(lam, (1, 1))
        assert P.anticommuting_pairs() == []

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            presentation_from(constant_pattern(3, -1), (1, 1))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_row_xors_match_the_pairwise_definition(self, data):
        n = data.draw(st.integers(2, 40))
        pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
        values = data.draw(st.lists(st.sampled_from((1, -1)), min_size=len(pairs),
                                    max_size=len(pairs)))
        kappa = data.draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
        lam = pattern_from_pairs(n, dict(zip(pairs, values)))
        P = presentation_from(lam, kappa)
        assert P.kappa == tuple(kappa)
        assert P.anticommuting_pairs() == [
            (j, k) for j, k in pairs if lam.get(j, k) * kappa[j] * kappa[k] == -1
        ]
        E = _even_presentation(lam)
        assert E.kappa == tuple(lam.get(0, i) for i in range(1, n))
        assert E.anticommuting_pairs() == [
            (i - 1, j - 1) for i, j in pairs
            if i > 0 and lam.get(0, i) * lam.get(0, j) * lam.get(i, j) == -1
        ]

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
                    got = pair_lambdas(rep.generator_images)
                    for j in range(n):
                        for k in range(j + 1, n):
                            assert got[j, k] == lam.get(j, k)

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


def full_sweep_reference(lam):
    """Every kappa with kappa_0 = +1, kappa_1 most significant and +1 before
    -1, classified object by object; the first minimiser is kept."""
    best = None
    for signs in itertools.product((1, -1), repeat=lam.n - 1):
        kappa = (1,) + signs
        order = classify_presentation(presentation_from(lam, kappa)).irrep_order
        if best is None or order < best[1]:
            best = (kappa, order)
    return best


def all_patterns(n):
    pairs = list(itertools.combinations(range(n), 2))
    for values in itertools.product((1, -1), repeat=len(pairs)):
        yield pattern_from_pairs(n, dict(zip(pairs, values)))


def biased_pattern(rng, n):
    p = rng.uniform(0.05, 0.95)
    return pattern_from_pairs(
        n, {(j, k): -1 if rng.random() < p else 1 for j in range(n) for k in range(j + 1, n)}
    )


def minimal_kappa(lam):
    """``_minimal_kappa``'s kappa and b, after checking the decomposition
    it hands on, when it has one, is of ``presentation_from(lam, kappa)``."""
    kappa, b, D = _minimal_kappa(lam)
    assert D is None or D.presentation == presentation_from(lam, kappa)
    return kappa, b


class TestOrderFloor:
    def test_floor_is_the_minimum_for_every_pattern_up_to_n5(self):
        for n in range(2, 6):
            for lam in all_patterns(n):
                assert minimal_kappa(lam) == full_sweep_reference(lam), lam

    def test_b_is_the_even_order_and_the_first_row_reaches_it(self):
        # pins the _minimal_kappa docstring: b is always the irrep order of
        # the even subalgebra E spanned by x_i = a_0 a_i, and
        # kappa = (1, lam_01, ..., lam_0,n-1) always reaches it
        for n in range(2, 6):
            x = [1 | 1 << i for i in range(1, n)]
            for lam in all_patterns(n):
                P = presentation_from(lam, (1,) * n)
                even = AlgebraPresentation(
                    [square_sign(P, v) for v in x],
                    [(i, j) for i, j in itertools.combinations(range(n - 1), 2)
                     if commute_sign(P, x[i], x[j]) == -1],
                )
                kappa, b = minimal_kappa(lam)
                assert b == classify_presentation(even).irrep_order, lam
                first_row = (1,) + tuple(lam.get(0, i) for i in range(1, n))
                assert classify_presentation(presentation_from(lam, first_row)).irrep_order == b

    def test_floor_is_the_minimum_on_seeded_patterns(self):
        # sparse and dense -1 patterns reach every Wedderburn case of E
        rng = np.random.default_rng(101)
        for n in range(6, 11):
            for _ in range(6):
                lam = biased_pattern(rng, n)
                assert minimal_kappa(lam) == full_sweep_reference(lam), lam

    def test_quadratic_term_of_the_feasibility_test_decides(self):
        # only the B(w, w') term of the feasibility test shows that
        # kappa_4 = +1 can be kept; a test without it returns
        # (1, 1, 1, 1, -1, 1, 1), also of order 8
        neg = {(0, 1), (0, 4), (0, 5), (1, 4), (1, 5), (1, 6), (2, 3), (2, 6), (5, 6)}
        lam = pattern_from_pairs(
            7, {(j, k): -1 if (j, k) in neg else 1 for j in range(7) for k in range(j + 1, 7)}
        )
        want = ((1, 1, 1, 1, 1, -1, 1), 8)
        assert minimal_kappa(lam) == full_sweep_reference(lam) == want

    def test_bit_fixing_matches_the_set_bit_reference(self, monkeypatch):
        # every _lex_first call against the bit fixing that forms each sign
        # by a set-bit walk, on seeded patterns up to n = 64 and the default
        # transversals for m <= 6
        rng = np.random.default_rng(107)
        patterns = [biased_pattern(rng, n) for n in (*range(3, 40), 48, 64) for _ in range(4)]
        patterns += [lambda_of_transversal(transversal(TransversalSpec.default(m)))
                     for m in range(1, 7)]
        calls = []

        def compared(D, h, a):
            got = _lex_first(D, h, a)
            assert got == reference_lex_first(D.presentation, D.masks[D.r:], h, a)
            calls.append(a)
            return got

        monkeypatch.setattr("qcliff.solve._lex_first", compared)
        for lam in patterns:
            _minimal_kappa(lam)
        # every kind of piece: no condition, q(u) = 0 and q(u) = 1
        assert len(calls) > 50 and {None, 0, 1} <= set(calls)

    def test_solve_matches_the_full_sweep_reference(self):
        rng = np.random.default_rng(103)
        patterns = [random_pattern(rng, n) for n in range(2, 13) for _ in range(3)]
        patterns += [constant_pattern(n, v) for n in (2, 5, 9, 12) for v in (1, -1)]
        patterns += [
            lambda_of_transversal(transversal(TransversalSpec.default(m))) for m in (1, 2, 3)
        ]
        for lam in patterns:
            kappa, order = full_sweep_reference(lam)
            result = solve(lam)
            assert (result.kappa, result.b) == (kappa, order), lam


class TestSolve:
    def test_all_anti_n4(self):
        result = solve(constant_pattern(4, -1))
        assert result.b == 4
        verify_solution(constant_pattern(4, -1), result)

    def test_verify_solution_refuses_a_record_of_another_shape(self):
        lam = constant_pattern(4, -1)
        result = solve(lam)
        with pytest.raises(VerificationError, match="expected 4 matrices, got 5"):
            verify_solution(lam, replace(result, rep=solve(constant_pattern(5, -1)).rep))
        # twice the recorded order, or a valid family of twice the order:
        # every pair still realizes lam
        for bad in (replace(result, b=2 * result.b),
                    replace(result, rep=tensor_with_identity(result.rep, 2))):
            with pytest.raises(VerificationError, match="recorded order differs"):
                verify_solution(lam, bad)

    def test_all_anti_n8(self):
        result = solve(constant_pattern(8, -1))
        assert result.b == 8

    def test_two_anti_amicable(self):
        result = solve(constant_pattern(2, -1))
        assert result.b == 2
        assert result.kappa == (1, 1)

    def test_minimum_certified_by_unquotiented_sweep(self):
        rng = np.random.default_rng(71)
        patterns = [constant_pattern(n, -1) for n in (2, 3, 4)]
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
        # all -1 at n = 6 needs b = 8
        with pytest.raises(CapExceeded):
            solve(constant_pattern(6, -1), max_order=4)

    def test_cap_comes_before_the_bit_fixing(self, monkeypatch):
        # this pattern (b = 16) and the default m = 3 transversal (n b = 64)
        # both reach _lex_first when nothing caps them
        lam = random_pattern(np.random.default_rng(2), 9)
        transversal_lam = lambda_of_transversal(transversal(TransversalSpec.default(3)))
        calls = []

        def counting(*args):
            calls.append(args)
            return _lex_first(*args)

        monkeypatch.setattr("qcliff.solve._lex_first", counting)
        assert solve(lam).b == 16 and calls
        calls.clear()
        assert _minimal_kappa(transversal_lam)[1] == 8 and calls

        def refuse(*args):
            raise AssertionError("the bit fixing ran above the order cap")

        monkeypatch.setattr("qcliff.solve._lex_first", refuse)
        with pytest.raises(CapExceeded, match="irreducible order 16 exceeds the cap 8"):
            solve(lam, max_order=8)
        with pytest.raises(CapExceeded, match="assembled order 64 exceeds the cap 32"):
            complete(3, max_order=32)

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_long_sweep_family(self, n):
        # lam_0j = -1 for j >= 3 and lam_12 = -1: the first minimiser is
        # candidate 2^(n-3), beyond any sign sweep at these n
        pairs = {(j, k): 1 for j in range(n) for k in range(j + 1, n)}
        pairs.update({(0, j): -1 for j in range(3, n)})
        pairs[(1, 2)] = -1
        result = solve(pattern_from_pairs(n, pairs))
        assert result.kappa == (1, 1, 1) + (-1,) * (n - 3)
        assert result.b == 2

    def test_too_small(self):
        with pytest.raises(ValueError):
            solve(constant_pattern(1, -1))

    def test_a_mistranslated_lambda_is_refused(self, monkeypatch):
        # one anticommutation bit of the lambda -> presentation translation
        # flipped: the order certificate misses some of these, and only
        # verify_solution, which compares the images with lambda, sees them
        original = presentation_from
        rng = np.random.default_rng(79)
        patterns = []
        for _ in range(40):
            n = int(rng.integers(3, 9))
            j, k = sorted(int(i) for i in rng.choice(n, size=2, replace=False))
            patterns.append((random_pattern(rng, n), (j, k)))

        def flip(pair):
            def translate(lam, kappa):
                P = original(lam, kappa)
                return AlgebraPresentation(P.kappa, set(P.anticommuting_pairs()) ^ {pair})
            return translate

        by_lambda = 0
        for lam, pair in patterns:
            monkeypatch.setattr("qcliff.solve.presentation_from", flip(pair))
            with pytest.raises(VerificationError) as info:
                solve(lam)
            by_lambda += "realizes lambda" in str(info.value)
        assert by_lambda > 0
        monkeypatch.setattr("qcliff.solve.verify_solution", lambda lam, result: None)
        passed = 0
        for lam, pair in patterns:
            monkeypatch.setattr("qcliff.solve.presentation_from", flip(pair))
            try:
                solve(lam)
                passed += 1
            except VerificationError:
                pass
        assert passed == by_lambda


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
        result = solve(constant_pattern(8, -1))
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
