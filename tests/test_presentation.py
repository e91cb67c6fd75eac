import numpy as np
import pytest

from qcliff import AlgebraPresentation, SignedMonomial
from qcliff.decompose import product_sign_gram

from helpers import (
    clifford_presentation,
    mask_word,
    quaternion_presentation,
    random_monomial,
    random_presentation,
    square_sign,
    word_mul,
    word_of,
)


def mul_sign(P, *masks):
    """Sign of the product of the +1 monomials ``masks``, in order, from the
    product-sign Gram: ``Q[b, a]`` is the sign bit of ``g_a g_b``."""
    Q = product_sign_gram(P, masks)
    odd = sum(int(Q[b, a]) for b in range(len(masks)) for a in range(b))
    return -1 if odd % 2 else 1


class TestMul:
    """Product signs, read from ``decompose.product_sign_gram``."""

    def test_generators_in_order(self):
        Q = quaternion_presentation()
        assert mul_sign(Q, 0b01, 0b10) == 1

    def test_generators_swapped_pick_up_the_relation_sign(self):
        Q = quaternion_presentation()
        assert mul_sign(Q, 0b10, 0b01) == -1

    def test_quaternion_ij_squares_to_minus_one(self):
        # independent check: rewrite (a1 a2)(a1 a2) step by step
        Q = quaternion_presentation()
        sign, word = word_mul(Q, [0, 1], [0, 1])
        assert (sign, word) == (-1, ())
        assert mul_sign(Q, 0b01, 0b10) * mul_sign(Q, 0b11, 0b11) == -1

    def test_agrees_with_word_rewriting_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            m = int(rng.integers(1, 7))
            P = random_presentation(rng, m)
            x, y = random_monomial(rng, P), random_monomial(rng, P)
            sign, word = word_mul(P, word_of(x), word_of(y))
            assert mul_sign(P, x.mask, y.mask) == sign
            assert word == tuple(mask_word(x.mask ^ y.mask))


class TestSquareSign:
    """The diagonal of the product-sign Gram against the counted squares
    of ``helpers.square_sign`` and the rewriting oracle."""

    def test_identity(self):
        Q = quaternion_presentation()
        assert product_sign_gram(Q, [0])[0, 0] == 0 and square_sign(Q, 0) == 1

    def test_pseudoscalar_of_three_plus_generators(self):
        P = clifford_presentation(3, 0)
        sign, word = word_mul(P, [0, 1, 2], [0, 1, 2])
        assert (sign, word) == (-1, ())
        assert product_sign_gram(P, [0b111])[0, 0] == 1 and square_sign(P, 0b111) == -1

    def test_quaternion_ij(self):
        Q = quaternion_presentation()
        assert product_sign_gram(Q, [0b11])[0, 0] == 1 and square_sign(Q, 0b11) == -1

    def test_matches_mul(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            P = random_presentation(rng, int(rng.integers(1, 7)))
            x = random_monomial(rng, P).mask
            want = word_mul(P, mask_word(x), mask_word(x))[0]
            assert mul_sign(P, x, x) == square_sign(P, x) == want
            assert product_sign_gram(P, [x])[0, 0] == (want < 0)


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
            forward = word_mul(P, word_of(x), word_of(y))[0]
            assert forward == P.commutation_sign(x, y) * word_mul(P, word_of(y), word_of(x))[0]

    def test_length_mismatch_rejected(self):
        Q = quaternion_presentation()
        P3 = clifford_presentation(3, 0)
        with pytest.raises(ValueError, match="presentation has m=2"):
            Q.commutation_sign(SignedMonomial(1, 0b001, 2), SignedMonomial(1, 0b001, 3))
        with pytest.raises(ValueError, match="presentation has m=3"):
            P3.commutation_sign(SignedMonomial(1, 0b100, 3), SignedMonomial(1, 0b10, 2))


class TestAssociativityAndCoherence:
    def test_associative_on_random_triples(self):
        # (xy)z and x(yz): the Gram's signs of the two bracketings agree,
        # and with the rewriting of the three words
        rng = np.random.default_rng(17)
        for _ in range(300):
            P = random_presentation(rng, int(rng.integers(1, 7)))
            x, y, z = (random_monomial(rng, P).mask for _ in range(3))
            left = mul_sign(P, x, y) * mul_sign(P, x ^ y, z)
            right = mul_sign(P, y, z) * mul_sign(P, x, y ^ z)
            assert left == right == mul_sign(P, x, y, z)
            assert left == word_mul(P, mask_word(x), mask_word(y), mask_word(z))[0]

    def test_identity_is_neutral(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            P = random_presentation(rng, int(rng.integers(1, 7)))
            x = random_monomial(rng, P).mask
            assert mul_sign(P, 0, x) == mul_sign(P, x, 0) == 1


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
