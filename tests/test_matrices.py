import numpy as np
import pytest

from qcliff import (
    DenseSignMatrix,
    MonomialMatrix,
    TransversalSpec,
    check_hr_bound,
    complete,
    lambda_of_pair,
    lambda_of_transversal,
    sylvester,
    transversal,
    verify_solution,
)
from qcliff.hadamard import run_checks
from qcliff.matrices import ident2, j2, x2, y2, z2
from qcliff.solve import solve

from helpers import (
    dense_lambda,
    grow_anti_amicable_family,
    random_block_word,
    random_monomial_matrix,
    random_sym_or_skew_monomial,
)


class TestBasics:
    def test_fixed_blocks_have_the_documented_dense_forms(self):
        assert z2().to_dense().tolist() == [[1, 0], [0, -1]]
        assert x2().to_dense().tolist() == [[0, 1], [1, 0]]
        assert j2().to_dense().tolist() == [[0, -1], [1, 0]]
        assert y2().to_dense().tolist() == [[0, 1], [-1, 0]]
        assert (z2() @ x2()) == y2()
        assert np.all(ident2().perm != x2().perm)

    def test_rotation_squares_to_minus_identity(self):
        assert (j2() @ j2()) == -ident2()

    def test_rotation_is_skew(self):
        assert j2().transpose() == -j2()
        assert j2().transpose() != j2()

    def test_invalid_perm_rejected(self):
        with pytest.raises(ValueError):
            MonomialMatrix([0, 0], [1, 1])
        with pytest.raises(ValueError):
            MonomialMatrix([0, 1], [1, 2])

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ident2() @ MonomialMatrix.identity(3)

    def test_constructor_copies_the_callers_buffer(self):
        base = np.array([[0, 1, 2, 3]])
        m = MonomialMatrix(base[0], [1] * 4)
        base[0, 0] = 3
        assert m.perm.tolist() == [0, 1, 2, 3]

    def test_constructor_leaves_the_callers_arrays_writeable(self):
        p, s = np.arange(4, dtype=np.int64), np.ones(4, dtype=np.int64)
        m = MonomialMatrix(p, s)
        assert p.flags.writeable and s.flags.writeable
        assert not m.perm.flags.writeable and not m.signs.flags.writeable


class TestDenseAgreement:
    def test_mul_transpose_neg_match_dense_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(1, 65))
            x, y = random_monomial_matrix(rng, n), random_monomial_matrix(rng, n)
            assert np.array_equal((x @ y).to_dense(), x.to_dense() @ y.to_dense())
            assert np.array_equal(x.transpose().to_dense(), x.to_dense().T)
            assert np.array_equal((-x).to_dense(), -x.to_dense())

    def test_tensor_matches_kronecker_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            n1, n2 = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            x = random_monomial_matrix(rng, n1)
            y = random_monomial_matrix(rng, n2)
            assert np.array_equal(x.tensor(y).to_dense(), np.kron(x.to_dense(), y.to_dense()))

    def test_tensor_example_diag_times_rotation(self):
        z, j = z2(), j2()
        t = z.tensor(j)
        assert t.perm.tolist() == [1, 0, 3, 2]
        assert t.signs.tolist() == [-1, 1, 1, -1]
        assert np.array_equal(t.to_dense(), np.kron(z.to_dense(), j.to_dense()))

    def test_tensor_is_associative(self):
        rng = np.random.default_rng(39)
        for _ in range(30):
            x = random_monomial_matrix(rng, int(rng.integers(1, 5)))
            y = random_monomial_matrix(rng, int(rng.integers(1, 5)))
            z = random_monomial_matrix(rng, int(rng.integers(1, 5)))
            assert x.tensor(y).tensor(z) == x.tensor(y.tensor(z))

    def test_mixed_product_rule(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            n1, n2 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            x, xp = (random_monomial_matrix(rng, n1) for _ in range(2))
            y, yp = (random_monomial_matrix(rng, n2) for _ in range(2))
            assert x.tensor(y) @ xp.tensor(yp) == (x @ xp).tensor(y @ yp)

    def test_monomials_are_orthogonal(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            n = int(rng.integers(1, 65))
            x = random_monomial_matrix(rng, n)
            assert x @ x.transpose() == MonomialMatrix.identity(n)

    def test_mul_dense(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            n = int(rng.integers(1, 33))
            x = random_monomial_matrix(rng, n)
            dense = rng.integers(-5, 6, size=(n, n))
            assert np.array_equal(x.mul_dense(dense), x.to_dense() @ dense)


class TestLambdaOfPair:
    def test_identity_vs_rotation_b_side(self):
        assert lambda_of_pair(ident2(), j2(), side="B") == -1

    def test_anticommuting_symmetric_pair_b_side(self):
        assert lambda_of_pair(z2(), x2(), side="B") == -1

    def test_identity_vs_swap_a_side(self):
        assert lambda_of_pair(ident2(), x2(), side="A") == -1

    def test_sides_are_opposite(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            n = int(rng.integers(1, 17))
            x, y = random_monomial_matrix(rng, n), random_monomial_matrix(rng, n)
            a = lambda_of_pair(x, y, side="A")
            b = lambda_of_pair(x, y, side="B")
            if a is None:
                assert b is None
            else:
                assert a == -b

    def test_none_when_no_sign_fits(self):
        shift = MonomialMatrix([1, 2, 0], [1, 1, 1])
        assert lambda_of_pair(MonomialMatrix.identity(3), shift, side="B") is None

    def test_defined_for_sym_or_skew_pairs_that_commute_or_anticommute(self):
        # pairs drawn from the 2x2 blocks and their tensor squares always
        # satisfy the hypothesis, so the answer must never be None
        blocks = [ident2(), z2(), x2(), j2(), y2()]
        candidates = blocks + [a.tensor(b) for a in blocks for b in blocks]
        for x in candidates:
            assert x.transpose() in (x, -x)
        for x in candidates:
            for y in candidates:
                if x.order != y.order or x == y:
                    continue
                xy, yx = (x @ y).to_dense(), (y @ x).to_dense()
                if np.array_equal(xy, yx) or np.array_equal(xy, -yx):
                    assert lambda_of_pair(x, y, side="A") is not None

    def test_dense_and_monomial_paths_agree(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            x, y = random_monomial_matrix(rng, n), random_monomial_matrix(rng, n)
            via_dense = dense_lambda(x.to_dense(), y.to_dense(), side="B")
            assert lambda_of_pair(x, y, side="B") == via_dense
        # seeded pairs from each sampler, both sides; every outcome occurs
        seen = set()
        samplers = [random_monomial_matrix, random_sym_or_skew_monomial, random_block_word]
        for sampler in samplers:
            for _ in range(60):
                n = 1 << int(rng.integers(0, 5))
                x, y = sampler(rng, n), sampler(rng, n)
                for side in ("A", "B"):
                    lam = lambda_of_pair(x, y, side=side)
                    assert lam == dense_lambda(x.to_dense(), y.to_dense(), side=side)
                    seen.add((side, lam))
        assert seen == {(side, lam) for side in ("A", "B") for lam in (1, -1, None)}

    def test_dense_arguments_raise_type_error(self):
        with pytest.raises(TypeError):
            lambda_of_pair(ident2().to_dense(), x2().to_dense(), side="B")
        with pytest.raises(TypeError):
            lambda_of_pair(ident2(), sylvester(2), side="A")

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lambda_of_pair(ident2(), MonomialMatrix.identity(3), side="B")

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError):
            lambda_of_pair(ident2(), x2(), side="C")


class TestMonomialCore:
    def test_closed_operations_yield_valid_signed_permutations(self):
        rng = np.random.default_rng(61)
        for _ in range(60):
            x = random_monomial_matrix(rng, int(rng.integers(1, 65)))
            y = random_monomial_matrix(rng, x.order)
            z = random_monomial_matrix(rng, int(rng.integers(1, 65)))
            for r in (x @ y, x.T, -x, x.tensor(z)):
                assert MonomialMatrix(r.perm, r.signs) == r
                assert r.perm.dtype == r.signs.dtype == np.int64
                assert not r.perm.flags.writeable and not r.signs.flags.writeable

    def test_no_dense_detour(self, monkeypatch):
        def refuse(self):
            raise AssertionError("to_dense called")

        monkeypatch.setattr(MonomialMatrix, "to_dense", refuse)
        assert lambda_of_pair(z2(), x2(), side="B") == -1
        lam = lambda_of_transversal(transversal(TransversalSpec.default(3)))
        verify_solution(lam, solve(lam))
        rng = np.random.default_rng(67)
        family = grow_anti_amicable_family(rng, 16, random_block_word)
        assert check_hr_bound(family).passed
        bundle = complete(2)
        assert run_checks(bundle.A, bundle.lam, bundle.B, bundle.H).passed


class TestSylvester:
    def test_order_one(self):
        assert sylvester(1).array.tolist() == [[1]]

    def test_order_two(self):
        assert sylvester(2).array.tolist() == [[1, 1], [1, -1]]

    @pytest.mark.parametrize("b", [1, 2, 4, 8, 16])
    def test_hadamard_identity(self, b):
        s = sylvester(b)
        assert np.array_equal(s.array @ s.array.T, b * np.eye(b, dtype=np.int64))

    @pytest.mark.parametrize("b", [0, 3, 6, 12])
    def test_non_powers_rejected(self, b):
        with pytest.raises(ValueError):
            sylvester(b)


class TestDenseSignMatrix:
    def test_entry_bounds_enforced(self):
        with pytest.raises(ValueError):
            DenseSignMatrix([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            DenseSignMatrix([[1, 1, 1], [1, 1, -1]])

    def test_immutable(self):
        s = sylvester(2)
        with pytest.raises(ValueError):
            s.array[0, 0] = -1

    def test_neg_and_tensor(self):
        s = sylvester(2)
        assert np.array_equal((-s).array, -s.array)
        big = s.tensor(s)
        assert big == sylvester(4)
        assert np.array_equal(big.array, np.kron(s.array, s.array))
