import numpy as np
import pytest

from qcliff import AlgebraPresentation, SignedMonomial

from helpers import (
    clifford_presentation,
    quaternion_presentation,
    random_monomial,
    random_presentation,
    word_mul,
    word_of,
)


class TestMul:
    def test_generators_in_order(self):
        Q = quaternion_presentation()
        out = Q.mul(SignedMonomial(1, 0b01, 2), SignedMonomial(1, 0b10, 2))
        assert out.sign == 1 and out.exps == (1, 1)

    def test_generators_swapped_pick_up_the_relation_sign(self):
        Q = quaternion_presentation()
        out = Q.mul(SignedMonomial(1, 0b10, 2), SignedMonomial(1, 0b01, 2))
        assert out.sign == -1 and out.exps == (1, 1)

    def test_quaternion_ij_squares_to_minus_one(self):
        # independent check: rewrite (a1 a2)(a1 a2) step by step
        Q = quaternion_presentation()
        sign, word = word_mul(Q, [0, 1], [0, 1])
        assert (sign, word) == (-1, ())
        ij = Q.mul(SignedMonomial(1, 0b01, 2), SignedMonomial(1, 0b10, 2))
        out = Q.mul(ij, ij)
        assert out.sign == -1 and out.exps == (0, 0)

    def test_length_mismatch_rejected(self):
        Q = quaternion_presentation()
        P3 = clifford_presentation(3, 0)
        with pytest.raises(ValueError, match="presentation has m=2"):
            Q.mul(SignedMonomial(1, 0b001, 2), SignedMonomial(1, 0b001, 3))
        with pytest.raises(ValueError, match="presentation has m=3"):
            P3.mul(SignedMonomial(1, 0b100, 3), SignedMonomial(1, 0b10, 2))

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
        assert P.square_sign(SignedMonomial(1, 0b111, 3)) == -1

    def test_quaternion_ij(self):
        Q = quaternion_presentation()
        assert Q.square_sign(SignedMonomial(1, 0b11, 2)) == -1

    def test_ignores_the_stored_sign(self):
        Q = quaternion_presentation()
        assert Q.square_sign(SignedMonomial(-1, 0b11, 2)) == -1

    def test_matches_mul(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            P = random_presentation(rng, int(rng.integers(1, 7)))
            x = random_monomial(rng, P)
            assert P.square_sign(x) == P.mul(x, x).sign


class TestCommutationSign:
    def test_self_commutes(self):
        P = clifford_presentation(2, 1)
        x = SignedMonomial(1, 0b101, 3)
        assert P.commutation_sign(x, x) == 1

    def test_anticommuting_generators(self):
        Q = quaternion_presentation()
        assert Q.commutation_sign(SignedMonomial(1, 0b01, 2), SignedMonomial(1, 0b10, 2)) == -1

    def test_pseudoscalar_is_central(self):
        P = clifford_presentation(3, 0)
        pseudo = SignedMonomial(1, 0b111, 3)
        sign, word = word_mul(P, [0, 1, 2], [0])
        sign_rev, word_rev = word_mul(P, [0], [0, 1, 2])
        assert word == word_rev and sign == sign_rev
        assert P.commutation_sign(pseudo, SignedMonomial(1, 0b001, 3)) == 1

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
    """The ``2^m`` positive monomials are the masks ``range(1 << m)``; the
    exponent of ``a1`` is the least significant bit."""

    def test_single_generator(self):
        assert [SignedMonomial(1, bits, 1).exps for bits in range(2)] == [(0,), (1,)]

    def test_two_generators_lexicographic(self):
        got = [SignedMonomial(1, bits, 2).exps for bits in range(4)]
        assert got == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_three_generators_distinct(self):
        basis = [SignedMonomial(1, bits, 3) for bits in range(1 << 3)]
        assert len(basis) == 8
        assert len({b.exps for b in basis}) == 8
        assert [str(b) for b in basis[:4]] == ["+1", "+a1", "+a2", "+a1a2"]

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_size_is_two_to_the_m(self, m):
        exps = {SignedMonomial(1, bits, m).exps for bits in range(1 << m)}
        assert len(exps) == 2**m and all(len(e) == m for e in exps)


class TestSignedMonomial:
    def test_mask_is_the_exponent_vector(self):
        x = SignedMonomial(-1, 0b101, 3)
        assert x.exps == (1, 0, 1) and str(x) == "-a1a3"
        assert x == SignedMonomial(-1, 5, 3) and x != SignedMonomial(1, 0b101, 3)

    @pytest.mark.parametrize("sign, mask, m", [(1, 8, 3), (1, 1 << 70, 70), (1, -1, 3), (0, 1, 3)])
    def test_constructor_refusals(self, sign, mask, m):
        with pytest.raises(ValueError):
            SignedMonomial(sign, mask, m)


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

    def test_anticommuting_pairs_are_ordered(self):
        P = AlgebraPresentation((1, -1, 1), [(2, 0)])
        assert P.anticommuting_pairs() == [(0, 2)]

    @pytest.mark.parametrize("m", [1, 2, 3, 9, 64, 65, 300])
    def test_anticommuting_pairs_match_the_pair_walk(self, m):
        P = random_presentation(np.random.default_rng(m), m)
        rows = P._delta_gt
        want = [(i, j) for i in range(m) for j in range(i + 1, m) if (rows[i] >> j) & 1]
        got = P.anticommuting_pairs()
        assert got == want
        assert {type(v) for pair in got for v in pair} <= {int}

    def test_pair_order_does_not_matter(self):
        assert AlgebraPresentation((1, 1), [(1, 0)]) == AlgebraPresentation((1, 1), [(0, 1)])
