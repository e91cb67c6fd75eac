import numpy as np
import pytest

from qcliff import (
    AlgebraPresentation,
    CapExceeded,
    SignedMonomial,
    clifford_presentation,
    quaternion_presentation,
)

from helpers import random_monomial, random_presentation, word_mul, word_of


class TestMul:
    def test_generators_in_order(self):
        Q = quaternion_presentation()
        out = Q.mul(Q.generator(0), Q.generator(1))
        assert out.sign == 1 and out.exps == (1, 1)

    def test_generators_swapped_pick_up_the_relation_sign(self):
        Q = quaternion_presentation()
        out = Q.mul(Q.generator(1), Q.generator(0))
        assert out.sign == -1 and out.exps == (1, 1)

    def test_quaternion_ij_squares_to_minus_one(self):
        # independent check: rewrite (a1 a2)(a1 a2) step by step
        Q = quaternion_presentation()
        sign, word = word_mul(Q, [0, 1], [0, 1])
        assert (sign, word) == (-1, ())
        ij = Q.mul(Q.generator(0), Q.generator(1))
        out = Q.mul(ij, ij)
        assert out.sign == -1 and out.exps == (0, 0)

    def test_length_mismatch_rejected(self):
        Q = quaternion_presentation()
        P3 = clifford_presentation(3, 0)
        with pytest.raises(ValueError, match="presentation has m=2"):
            Q.mul(Q.generator(0), P3.generator(0))
        with pytest.raises(ValueError, match="presentation has m=3"):
            P3.mul(P3.generator(2), Q.generator(1))

    def test_agrees_with_word_rewriting_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            m = int(rng.integers(1, 7))
            P = random_presentation(rng, m)
            x, y = random_monomial(rng, P), random_monomial(rng, P)
            sign, word = word_mul(P, word_of(x), word_of(y))
            got = P.mul(x, y)
            assert got.sign == x.sign * y.sign * sign
            assert word_of(got) == list(word)


class TestSquareSign:
    def test_identity(self):
        Q = quaternion_presentation()
        assert Q.square_sign(Q.identity()) == 1

    def test_pseudoscalar_of_three_plus_generators(self):
        P = clifford_presentation(3, 0)
        sign, word = word_mul(P, [0, 1, 2], [0, 1, 2])
        assert (sign, word) == (-1, ())
        assert P.square_sign(P.monomial((1, 1, 1))) == -1

    def test_quaternion_ij(self):
        Q = quaternion_presentation()
        assert Q.square_sign(Q.monomial((1, 1))) == -1

    def test_ignores_the_stored_sign(self):
        Q = quaternion_presentation()
        assert Q.square_sign(Q.monomial((1, 1), sign=-1)) == -1

    def test_matches_mul(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            P = random_presentation(rng, int(rng.integers(1, 7)))
            x = random_monomial(rng, P)
            assert P.square_sign(x) == P.mul(x, x).sign


class TestCommutationSign:
    def test_self_commutes(self):
        P = clifford_presentation(2, 1)
        x = P.monomial((1, 0, 1))
        assert P.commutation_sign(x, x) == 1

    def test_anticommuting_generators(self):
        Q = quaternion_presentation()
        assert Q.commutation_sign(Q.generator(0), Q.generator(1)) == -1

    def test_pseudoscalar_is_central(self):
        P = clifford_presentation(3, 0)
        pseudo = P.monomial((1, 1, 1))
        sign, word = word_mul(P, [0, 1, 2], [0])
        sign_rev, word_rev = word_mul(P, [0], [0, 1, 2])
        assert word == word_rev and sign == sign_rev
        assert P.commutation_sign(pseudo, P.generator(0)) == 1

    def test_relates_the_two_products(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            P = random_presentation(rng, int(rng.integers(1, 7)))
            x, y = random_monomial(rng, P), random_monomial(rng, P)
            assert P.mul(x, y).sign == P.commutation_sign(x, y) * P.mul(y, x).sign


class TestAssociativityAndCoherence:
    def test_associative_on_random_triples(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            P = random_presentation(rng, int(rng.integers(1, 7)))
            x, y, z = (random_monomial(rng, P) for _ in range(3))
            assert P.mul(P.mul(x, y), z) == P.mul(x, P.mul(y, z))

    def test_exponents_always_xor(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            P = random_presentation(rng, int(rng.integers(1, 7)))
            x, y = random_monomial(rng, P), random_monomial(rng, P)
            assert P.mul(x, y).mask == x.mask ^ y.mask

    def test_identity_is_neutral(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            P = random_presentation(rng, int(rng.integers(1, 7)))
            x = random_monomial(rng, P)
            assert P.mul(P.identity(), x) == x
            assert P.mul(x, P.identity()) == x


class TestBasis:
    def test_single_generator(self):
        P = AlgebraPresentation((1,))
        assert [b.exps for b in P.basis()] == [(0,), (1,)]

    def test_two_generators_lexicographic(self):
        Q = quaternion_presentation()
        assert [b.exps for b in Q.basis()] == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_three_generators_distinct(self):
        P = clifford_presentation(3, 0)
        basis = P.basis()
        assert len(basis) == 8
        assert len({b.exps for b in basis}) == 8
        assert all(b.sign == 1 for b in basis)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_size_is_two_to_the_m(self, m):
        P = AlgebraPresentation((1,) * m)
        assert len(P.basis()) == 2**m

    def test_cap(self):
        P = AlgebraPresentation((1,) * 5)
        with pytest.raises(CapExceeded):
            P.basis(cap=4)


class TestSignedMonomial:
    def test_mask_is_the_exponent_vector(self):
        x = SignedMonomial(-1, 0b101, 3)
        assert x.exps == (1, 0, 1) and str(x) == "-a1a3"
        assert -x == SignedMonomial(1, 0b101, 3)
        assert clifford_presentation(3, 0).monomial((1, 0, 1), -1) == x

    @pytest.mark.parametrize("sign, mask, m", [(1, 8, 3), (1, 1 << 70, 70), (1, -1, 3), (0, 1, 3)])
    def test_constructor_refusals(self, sign, mask, m):
        with pytest.raises(ValueError):
            SignedMonomial(sign, mask, m)

    def test_monomial_refuses_bad_tuples(self):
        Q = quaternion_presentation()
        with pytest.raises(ValueError, match="3 exponent bits"):
            Q.monomial((1, 0, 1))
        with pytest.raises(ValueError, match="0/1 bits"):
            Q.monomial((1, 2))


class TestPresentationValidation:
    def test_bad_kappa(self):
        with pytest.raises(ValueError):
            AlgebraPresentation((2, 1))

    def test_empty(self):
        with pytest.raises(ValueError):
            AlgebraPresentation(())

    def test_pair_out_of_range(self):
        with pytest.raises(ValueError):
            AlgebraPresentation((1, 1), [(0, 2)])

    def test_diagonal_pair_rejected(self):
        with pytest.raises(ValueError):
            AlgebraPresentation((1, 1), [(1, 1)])

    def test_delta_accessor_is_symmetric(self):
        P = AlgebraPresentation((1, -1, 1), [(0, 2)])
        assert P.delta(0, 2) == 1
        assert P.delta(2, 0) == 1
        assert P.delta(0, 1) == 0
        with pytest.raises(ValueError):
            P.delta(1, 1)
        with pytest.raises(ValueError):
            P.delta(0, 3)

    def test_pair_order_does_not_matter(self):
        assert AlgebraPresentation((1, 1), [(1, 0)]) == AlgebraPresentation((1, 1), [(0, 1)])
