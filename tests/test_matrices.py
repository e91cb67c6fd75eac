from functools import reduce
from math import prod

import numpy as np
import pytest

from qcliff import MonomialMatrix
from qcliff.hadamard import lambda_of_transversal
from qcliff.matrices import (
    DenseSignMatrix,
    ident2,
    j2,
    pair_lambdas,
    sign_product,
    stacked_kron,
    sylvester,
    x2,
    y2,
    z2,
)

from helpers import (
    dense,
    dense_lambda,
    popcount_gram,
    random_block_word,
    reference_sylvester,
    random_monomial_matrix,
    random_sym_or_skew_monomial,
    tensor,
)


class TestBasics:
    def test_fixed_blocks_have_the_documented_dense_forms(self):
        assert dense(z2()).tolist() == [[1, 0], [0, -1]]
        assert dense(x2()).tolist() == [[0, 1], [1, 0]]
        assert dense(j2()).tolist() == [[0, -1], [1, 0]]
        assert dense(y2()).tolist() == [[0, 1], [-1, 0]]
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
            assert np.array_equal(dense(x @ y), dense(x) @ dense(y))
            assert np.array_equal(dense(x.transpose()), dense(x).T)
            assert np.array_equal(dense(-x), -dense(x))

    def test_tensor_matches_kronecker_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            n1, n2 = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            x = random_monomial_matrix(rng, n1)
            y = random_monomial_matrix(rng, n2)
            assert np.array_equal(dense(tensor(x, y)), np.kron(dense(x), dense(y)))

    def test_tensor_example_diag_times_rotation(self):
        z, j = z2(), j2()
        t = tensor(z, j)
        assert t.perm.tolist() == [1, 0, 3, 2]
        assert t.signs.tolist() == [-1, 1, 1, -1]
        assert np.array_equal(dense(t), np.kron(dense(z), dense(j)))

    def test_tensor_is_associative(self):
        rng = np.random.default_rng(39)
        for _ in range(30):
            x = random_monomial_matrix(rng, int(rng.integers(1, 5)))
            y = random_monomial_matrix(rng, int(rng.integers(1, 5)))
            z = random_monomial_matrix(rng, int(rng.integers(1, 5)))
            assert tensor(tensor(x, y), z) == tensor(x, tensor(y, z))

    def test_mixed_product_rule(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            n1, n2 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            x, xp = (random_monomial_matrix(rng, n1) for _ in range(2))
            y, yp = (random_monomial_matrix(rng, n2) for _ in range(2))
            assert tensor(x, y) @ tensor(xp, yp) == tensor(x @ xp, y @ yp)

    def test_popcount_gram_matches_the_integer_product(self):
        rng = np.random.default_rng(47)
        for rows, cols in ((1, 1), (3, 7), (70, 65), (130, 200)):
            x = rng.choice([-1, 1], size=(rows, cols))
            assert np.array_equal(popcount_gram(x), x @ x.T)

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
            other = rng.integers(-5, 6, size=(n, n))
            assert np.array_equal(x.mul_dense(other), dense(x) @ other)


class TestLambdaOfPair:
    """The sign of one pair, read from ``pair_lambdas``; the outer family's
    side "A" sign is its negation in ``lambda_of_transversal``."""

    def test_identity_vs_rotation_b_side(self):
        assert pair_lambdas([ident2(), j2()])[0, 1] == -1

    def test_anticommuting_symmetric_pair_b_side(self):
        assert pair_lambdas([z2(), x2()])[0, 1] == -1

    def test_identity_vs_swap_a_side(self):
        assert lambda_of_transversal([ident2(), x2()]).get(0, 1) == -1

    def test_sides_are_opposite(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            n = int(rng.integers(1, 17))
            x, y = random_monomial_matrix(rng, n), random_monomial_matrix(rng, n)
            b = pair_lambdas([x, y])[0, 1]
            if b == 0:
                with pytest.raises(ValueError, match="neither amicable nor anti-amicable"):
                    lambda_of_transversal([x, y])
            else:
                assert lambda_of_transversal([x, y]).get(0, 1) == -b

    def test_none_when_no_sign_fits(self):
        shift = MonomialMatrix([1, 2, 0], [1, 1, 1])
        assert pair_lambdas([MonomialMatrix.identity(3), shift])[0, 1] == 0

    def test_defined_for_sym_or_skew_pairs_that_commute_or_anticommute(self):
        # pairs drawn from the 2x2 blocks and their tensor squares always
        # satisfy the hypothesis, so the answer must never be 0
        blocks = [ident2(), z2(), x2(), j2(), y2()]
        candidates = blocks + [tensor(a, b) for a in blocks for b in blocks]
        for x in candidates:
            assert x.transpose() in (x, -x)
        for x in candidates:
            for y in candidates:
                if x.order != y.order or x == y:
                    continue
                xy, yx = dense(x @ y), dense(y @ x)
                if np.array_equal(xy, yx) or np.array_equal(xy, -yx):
                    assert pair_lambdas([x, y])[0, 1] != 0

    def test_dense_and_monomial_paths_agree(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            x, y = random_monomial_matrix(rng, n), random_monomial_matrix(rng, n)
            assert (pair_lambdas([x, y])[0, 1] or None) == dense_lambda(dense(x), dense(y))
        # seeded pairs from each sampler, in both orders; every outcome occurs
        seen = set()
        samplers = [random_monomial_matrix, random_sym_or_skew_monomial, random_block_word]
        for sampler in samplers:
            for _ in range(60):
                n = 1 << int(rng.integers(0, 5))
                x, y = sampler(rng, n), sampler(rng, n)
                got = pair_lambdas([x, y])
                lam = dense_lambda(dense(x), dense(y))
                assert got[0, 1] == got[1, 0] == (lam or 0)
                seen.add(lam)
        assert seen == {1, -1, None}

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pair_lambdas([ident2(), MonomialMatrix.identity(3)])


class TestStackedKron:
    @pytest.mark.parametrize("sizes", [(), (2,), (4,), (2, 4), (4, 2, 2), (2, 2, 4, 4)])
    def test_matches_the_tensor_reference(self, sizes):
        rng = np.random.default_rng(67 + len(sizes))
        for n in (1, 3, 6):
            members = [[random_monomial_matrix(rng, s) for s in sizes] for _ in range(n)]
            sign = rng.choice([-1, 1], size=n)
            blocks = [(np.array([row[t].perm for row in members]),
                       np.array([row[t].signs for row in members])) for t in range(len(sizes))]
            perm, signs = stacked_kron(sign, blocks)
            assert perm.shape == signs.shape == (n, prod(sizes))
            assert perm.dtype == signs.dtype == np.int64
            assert not perm.flags.writeable and not signs.flags.writeable
            for i, row in enumerate(members):
                want = reduce(tensor, row, MonomialMatrix([0], [int(sign[i])]))
                assert MonomialMatrix._closed(perm[i], signs[i]) == want


class TestMonomialCore:
    def test_closed_operations_yield_valid_signed_permutations(self):
        rng = np.random.default_rng(61)
        for _ in range(60):
            x = random_monomial_matrix(rng, int(rng.integers(1, 65)))
            y = random_monomial_matrix(rng, x.order)
            z = random_monomial_matrix(rng, int(rng.integers(1, 65)))
            for r in (x @ y, x.transpose(), -x, tensor(x, z)):
                assert MonomialMatrix(r.perm, r.signs) == r
                assert r.perm.dtype == r.signs.dtype == np.int64
                assert not r.perm.flags.writeable and not r.signs.flags.writeable


class TestSylvester:
    def test_order_one(self):
        assert sylvester(1).array.tolist() == [[1]]

    def test_order_two(self):
        assert sylvester(2).array.tolist() == [[1, 1], [1, -1]]

    @pytest.mark.parametrize("b", [1, 2, 4, 8, 16])
    def test_hadamard_identity(self, b):
        s = sylvester(b)
        assert np.array_equal(s.array @ s.array.T, b * np.eye(b, dtype=np.int64))

    def test_matches_the_doubling_recursion_up_to_4096(self):
        for t in range(13):
            s = sylvester(1 << t).array
            assert s.dtype == np.int64 and not s.flags.writeable
            assert np.array_equal(s, reference_sylvester(1 << t))

    @pytest.mark.parametrize("b", [0, 3, 6, 12])
    def test_non_powers_rejected(self, b):
        with pytest.raises(ValueError):
            sylvester(b)


class TestSignProduct:
    @pytest.mark.parametrize("x_shape, y_shape", [
        ((5, 7), (7, 3)),
        ((4, 6, 6), (4, 6, 6)),
        ((6, 6), (3, 6, 6)),
        ((256, 256), (256, 256)),
    ])
    def test_equals_the_int64_product(self, x_shape, y_shape):
        rng = np.random.default_rng(len(x_shape) * 1000 + x_shape[-1])
        x = rng.choice([-1, 1], size=x_shape)
        y = rng.choice([-1, 1], size=y_shape)
        got = sign_product(x, y)
        assert got.dtype == np.int64
        assert np.array_equal(got, x @ y)

    def test_sums_reach_the_inner_dimension(self):
        x = np.ones((3, 1000), dtype=np.int64)
        assert np.array_equal(sign_product(x, -x.T), np.full((3, 3), -1000))

    def test_inner_dimension_past_float64_exact_integers_raises(self):
        # a stride-0 view: the shape is checked before anything is allocated
        wide = np.broadcast_to(np.int64(1), (1, 1 << 53))
        with pytest.raises(ValueError, match="2\\^53"):
            sign_product(wide, wide.T)


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
