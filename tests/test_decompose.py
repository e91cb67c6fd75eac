import numpy as np
import pytest

from qcliff import AlgebraPresentation, SignedMonomial
from qcliff.decompose import (
    MAX_M,
    Central,
    Decomposition,
    HyperbolicPair,
    decompose,
    form_matrix,
    symplectic_reduce,
)
from qcliff.errors import CapExceeded
from qcliff.gf2 import xor_rows

from helpers import (
    all_presentations,
    clifford_presentation,
    gf2_from_rows,
    quaternion_presentation,
    radical_dimension,
    random_presentation,
    reference_form_matrix,
    word_mul,
    word_of,
)


def reference_validate(D):
    """``Decomposition.validate`` one pair at a time.

    Squares come from ``square_sign``, and pair (i, j) anticommutes when
    ``g_i^T D g_j + g_j^T D g_i`` is odd, ``D`` the presentation's upper
    table, from the row masks ``c_i = g_i^T D``.
    """
    P = D.presentation
    if D.r + 2 * D.s != P.m:
        raise ValueError(f"r + 2s = {D.r + 2 * D.s} differs from m = {P.m}")
    if D.basis_change.rows != P.m or D.basis_change.cols != P.m:
        raise ValueError("basis_change has the wrong shape")
    if not D.basis_change.is_invertible():
        raise ValueError("basis_change is singular over GF(2)")
    gens = D.new_generators
    squares = D.new_generator_squares
    for row, g in enumerate(gens):
        if D.basis_change.row_mask(row) != g.mask:
            raise ValueError(f"basis_change row {row} does not match generator")
        if g.sign != 1:
            raise ValueError("new generators must carry sign +1")
        if P.square_sign(g) != squares[row]:
            raise ValueError(f"recorded square of generator {row} is wrong")
    anti = set(D.normal_presentation().anticommuting_pairs())
    masks = [g.mask for g in gens]
    c = [xor_rows(P._delta_gt, g) for g in masks]
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            want = -1 if (i, j) in anti else 1
            odd = ((c[i] & masks[j]).bit_count() + (c[j] & masks[i]).bit_count()) & 1
            got = -1 if odd else 1
            if got != want:
                raise ValueError(
                    f"generators {i}, {j} have commutation sign {got}, expected {want}"
                )


def reference_reduce(frows, m):
    """Set-bit copy of ``symplectic_reduce``: one bilinear sum per test."""

    def form(u, v):
        return sum((frows[i] & v).bit_count() for i in range(m) if (u >> i) & 1) & 1

    remaining = [1 << i for i in range(m)]
    centrals, pairs = [], []
    while remaining:
        u = remaining.pop(0)
        partner = next((k for k, v in enumerate(remaining) if form(u, v)), None)
        if partner is None:
            centrals.append(u)
            continue
        v = remaining.pop(partner)
        pairs.append((u, v))
        fixed = []
        for w in remaining:
            if form(w, v):
                w ^= u
            if form(w, u):
                w ^= v
            fixed.append(w)
        remaining = fixed
    return centrals, pairs


def rebuild(D, masks, squares):
    """``D`` with its generators (in basis_change row order) replaced."""
    P, r = D.presentation, D.r
    mono = [SignedMonomial(1, g, P.m) for g in masks]
    centrals = tuple(Central(mono[i], squares[i]) for i in range(r))
    pairs = tuple(
        HyperbolicPair(mono[k], squares[k], mono[k + 1], squares[k + 1])
        for k in range(r, P.m, 2)
    )
    return Decomposition(P, centrals, pairs)


def mutants(rng, D, pair_swaps=None):
    """Seeded corruptions: a flipped basis bit with its square recomputed,
    two swapped generators, a swapped pair, and a wrong recorded square.

    Every pair is swapped in turn, or ``pair_swaps`` seeded ones.
    """
    P, m = D.presentation, D.presentation.m
    masks, squares = list(D.basis_change.bits), list(D.new_generator_squares)
    for _ in range(4):
        k, bit = int(rng.integers(m)), int(rng.integers(m))
        g = list(masks)
        g[k] ^= 1 << bit
        sq = list(squares)
        sq[k] = P.square_sign_mask(g[k])
        yield rebuild(D, g, sq)
    if m > 1:
        for _ in range(3):
            i, j = (int(x) for x in rng.choice(m, size=2, replace=False))
            g, sq = list(masks), list(squares)
            g[i], g[j], sq[i], sq[j] = g[j], g[i], sq[j], sq[i]
            yield rebuild(D, g, sq)
    swapped = range(D.s) if pair_swaps is None else rng.choice(D.s, pair_swaps, replace=False)
    for t in swapped:
        k = D.r + 2 * int(t)
        g, sq = list(masks), list(squares)
        g[k], g[k + 1], sq[k], sq[k + 1] = g[k + 1], g[k], sq[k + 1], sq[k]
        yield rebuild(D, g, sq)
    k = int(rng.integers(m))
    sq = list(squares)
    sq[k] = -sq[k]
    yield rebuild(D, masks, sq)


def verdict(check, D):
    try:
        check(D)
    except ValueError as exc:
        return str(exc)
    return None


class TestFormMatrix:
    def test_quaternions(self):
        assert form_matrix(quaternion_presentation()).to_rows() == [[0, 1], [1, 0]]

    def test_commuting_pair(self):
        P = AlgebraPresentation((1, -1))
        assert form_matrix(P).to_rows() == [[0, 0], [0, 0]]

    def test_three_anticommuting(self):
        P = clifford_presentation(3, 0)
        assert form_matrix(P).to_rows() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]

    def test_matches_the_transposition_loop(self):
        rng = np.random.default_rng(47)
        for m in [*range(1, 71), 144]:
            P = random_presentation(rng, m)
            assert form_matrix(P) == reference_form_matrix(P)


class TestDecompose:
    def test_quaternions_are_one_pair(self):
        D = decompose(quaternion_presentation())
        assert (D.r, D.s) == (0, 1)
        pair = D.pairs[0]
        assert pair.first.exps == (1, 0) and pair.second.exps == (0, 1)
        assert (pair.first_square, pair.second_square) == (-1, -1)

    def test_commuting_generators_are_all_central(self):
        D = decompose(AlgebraPresentation((1, -1)))
        assert (D.r, D.s) == (2, 0)
        assert [(c.element.exps, c.square) for c in D.centrals] == [
            ((1, 0), 1),
            ((0, 1), -1),
        ]

    def test_three_plus_generators(self):
        P = clifford_presentation(3, 0)
        D = decompose(P)
        assert (D.r, D.s) == (1, 1)
        beta = D.centrals[0]
        assert beta.element.exps == (1, 1, 1)
        assert beta.square == -1
        # independent oracle: the central element commutes with every
        # basis monomial under stepwise rewriting
        for bits in range(1 << P.m):
            z = SignedMonomial(1, bits, P.m)
            left = word_mul(P, word_of(beta.element), word_of(z))
            right = word_mul(P, word_of(z), word_of(beta.element))
            assert left == right
        # and its square matches the oracle
        sign, word = word_mul(P, [0, 1, 2], [0, 1, 2])
        assert (sign, word) == (beta.square, ())
        for g, square in ((D.pairs[0].first, D.pairs[0].first_square),
                          (D.pairs[0].second, D.pairs[0].second_square)):
            sign, word = word_mul(P, word_of(g), word_of(g))
            assert (sign, word) == (square, ())

    def test_determinism(self):
        P = clifford_presentation(2, 2)
        a, b = decompose(P), decompose(P)
        assert a.basis_change == b.basis_change
        assert a.centrals == b.centrals and a.pairs == b.pairs

    def test_exhaustive_small_presentations_validate(self):
        for m in range(1, 5):
            for P in all_presentations(m):
                D = decompose(P)
                D.validate()
                assert D.r + 2 * D.s == m
                assert D.r == radical_dimension(P)

    def test_new_generators_satisfy_the_normal_form(self):
        for m in range(1, 5):
            for P in all_presentations(m):
                D = decompose(P)
                gens = D.new_generators
                pairs = [(D.r + 2 * t, D.r + 2 * t + 1) for t in range(D.s)]
                assert D.normal_presentation().anticommuting_pairs() == pairs
                for i in range(m):
                    for j in range(i + 1, m):
                        got = P.commutation_sign(gens[i], gens[j])
                        assert got == (-1 if (i, j) in pairs else 1)


class TestValidate:
    def test_corrupted_decompositions_match_the_pairwise_reference(self):
        rng = np.random.default_rng(41)
        outcomes = []
        for m in [*range(1, 13), 20, 40]:
            for _ in range(6 if m < 20 else 2):
                P = random_presentation(rng, m)
                D = decompose(P)
                assert verdict(Decomposition.validate, D) is None
                for bad in mutants(rng, D):
                    got = verdict(Decomposition.validate, bad)
                    assert got == verdict(reference_validate, bad)
                    outcomes.append(got)
        # one presentation each at the benchmark's size (m = 144) and past it
        for m in (144, 300):
            P = random_presentation(rng, m)
            D = decompose(P)
            assert verdict(Decomposition.validate, D) is None
            for bad in mutants(rng, D, pair_swaps=3):
                got = verdict(Decomposition.validate, bad)
                assert got == verdict(reference_validate, bad)
                outcomes.append(got)
        # every stage of the check is reached, including the pairwise one
        assert any(o is None for o in outcomes)
        assert any(o and o.startswith("basis_change is singular") for o in outcomes)
        assert any(o and o.startswith("recorded square") for o in outcomes)
        assert sum(bool(o and o.startswith("generators")) for o in outcomes) > 50

    def test_wrong_pair_is_named(self):
        D = decompose(clifford_presentation(2, 2))
        masks, squares = list(D.basis_change.bits), list(D.new_generator_squares)
        masks[1], masks[2], squares[1], squares[2] = masks[2], masks[1], squares[2], squares[1]
        message = "generators 0, 1 have commutation sign 1, expected -1"
        with pytest.raises(ValueError, match=message):
            rebuild(D, masks, squares).validate()


class TestCap:
    def test_past_max_m_raises_before_any_table(self):
        with pytest.raises(CapExceeded, match=f"exceeds the cap {MAX_M}"):
            decompose(AlgebraPresentation((1,) * (MAX_M + 1)))


class TestSymplecticReduce:
    def test_matches_the_set_bit_reference_on_symmetric_forms(self):
        rng = np.random.default_rng(43)
        for m in range(1, 41):
            for alternating in (True, False):
                upper = np.triu(rng.integers(0, 2, size=(m, m)), 1 if alternating else 0)
                F = upper | upper.T
                frows = gf2_from_rows(F.tolist()).bits
                assert symplectic_reduce(frows, m) == reference_reduce(frows, m)
            frows = form_matrix(random_presentation(rng, m)).bits
            assert symplectic_reduce(frows, m) == reference_reduce(frows, m)


class TestRadicalDimension:
    def test_quaternions(self):
        assert radical_dimension(quaternion_presentation()) == 0

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_fully_commuting(self, m):
        assert radical_dimension(AlgebraPresentation((1,) * m)) == m

    def test_three_plus_generators(self):
        assert radical_dimension(clifford_presentation(3, 0)) == 1

    def test_matches_explicit_centrality_count(self):
        # the number of basis monomials commuting with every generator
        # must be 2^r: a second, enumeration-based route to r
        for m in range(1, 5):
            for P in all_presentations(m):
                central = sum(
                    1
                    for z in range(1 << m)
                    if all(P.commute_sign_masks(z, 1 << i) == 1 for i in range(m))
                )
                assert central == 2 ** radical_dimension(P)
