import dataclasses

import numpy as np
import pytest

from qcliff import AlgebraPresentation, SignedMonomial
from qcliff.decompose import (
    MAX_M,
    Decomposition,
    decompose,
    form_matrix,
    symplectic_reduce,
)
from qcliff.errors import CapExceeded
from qcliff.gf2 import Gf2Matrix, row_masks, xor_rows

from helpers import (
    all_presentations,
    clifford_presentation,
    commute_sign,
    packed_reduce,
    quaternion_presentation,
    radical_dimension,
    random_presentation,
    reference_form_matrix,
    square_sign,
    word_mul,
    word_of,
)


def reference_validate(D):
    """``Decomposition.validate`` one pair at a time, on a well-formed record.

    Squares come from ``helpers.square_sign``, and pair (i, j) anticommutes
    when ``g_i^T D g_j + g_j^T D g_i`` is odd, ``D`` the presentation's upper
    table, from the row masks ``c_i = g_i^T D``.  Invertibility is the
    rank of the whole basis change, checked last as ``validate`` does.
    """
    P, masks = D.presentation, D.masks
    for row, g in enumerate(masks):
        if square_sign(P, g) != D.squares[row]:
            raise ValueError(f"recorded square of generator {row} is wrong")
    anti = set(D.normal_presentation().anticommuting_pairs())
    c = [xor_rows(P._delta_gt, g) for g in masks]
    for i in range(P.m):
        for j in range(i + 1, P.m):
            want = -1 if (i, j) in anti else 1
            odd = ((c[i] & masks[j]).bit_count() + (c[j] & masks[i]).bit_count()) & 1
            got = -1 if odd else 1
            if got != want:
                raise ValueError(
                    f"generators {i}, {j} have commutation sign {got}, expected {want}"
                )
    if D.basis_change.rank() != P.m:
        raise ValueError("basis_change is singular over GF(2)")


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


def replaced(D, k, mask):
    """``D`` with new generator ``k`` replaced by ``mask``, its square
    recomputed so that only the basis or the pattern can be wrong."""
    P = D.presentation
    masks, squares = list(D.masks), list(D.squares)
    masks[k], squares[k] = mask, square_sign(P, mask)
    return Decomposition(P, D.r, tuple(masks), tuple(squares))


def dependent_central(rng, D):
    """``D`` with one central replaced by the xor of a seeded subset of the
    others (0 for the empty one): every commutation and square still holds,
    and only the rank fails."""
    k = int(rng.integers(D.r))
    subset = [i for i in range(D.r) if i != k and rng.integers(2)]
    mask = 0
    for i in subset:
        mask ^= D.masks[i]
    return replaced(D, k, mask)


def duplicated_pair_row(rng, D):
    """``D`` with a seeded pair generator copied over another generator:
    the copy pairs with the original's partner, so the pattern fails."""
    src = D.r + int(rng.integers(2 * D.s))
    dst = int(rng.choice([k for k in range(D.presentation.m) if k != src]))
    return replaced(D, dst, D.masks[src])


def mutants(rng, D, pair_swaps=None):
    """Seeded corruptions: a flipped basis bit with its square recomputed,
    two swapped generators, a swapped pair, a wrong recorded square, a
    central that is the xor of other centrals, and a duplicated pair row.

    Every pair is swapped in turn, or ``pair_swaps`` seeded ones.
    """
    P, m = D.presentation, D.presentation.m
    masks, squares = list(D.masks), list(D.squares)
    for _ in range(4):
        k, bit = int(rng.integers(m)), int(rng.integers(m))
        yield replaced(D, k, masks[k] ^ 1 << bit)
    if m > 1:
        for _ in range(3):
            i, j = (int(x) for x in rng.choice(m, size=2, replace=False))
            g, sq = list(masks), list(squares)
            g[i], g[j], sq[i], sq[j] = g[j], g[i], sq[j], sq[i]
            yield Decomposition(P, D.r, tuple(g), tuple(sq))
    swapped = range(D.s) if pair_swaps is None else rng.choice(D.s, pair_swaps, replace=False)
    for t in swapped:
        k = D.r + 2 * int(t)
        g, sq = list(masks), list(squares)
        g[k], g[k + 1], sq[k], sq[k + 1] = g[k + 1], g[k], sq[k + 1], sq[k]
        yield Decomposition(P, D.r, tuple(g), tuple(sq))
    k = int(rng.integers(m))
    sq = list(squares)
    sq[k] = -sq[k]
    yield Decomposition(P, D.r, D.masks, tuple(sq))
    if D.r:
        yield dependent_central(rng, D)
    if D.s:
        yield duplicated_pair_row(rng, D)


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
        first, second = D.new_generators
        assert first.exps == (1, 0) and second.exps == (0, 1)
        assert D.squares == (-1, -1)

    def test_commuting_generators_are_all_central(self):
        D = decompose(AlgebraPresentation((1, -1)))
        assert (D.r, D.s) == (2, 0)
        assert [(g.exps, q) for g, q in zip(D.new_generators, D.squares)] == [
            ((1, 0), 1),
            ((0, 1), -1),
        ]

    def test_three_plus_generators(self):
        P = clifford_presentation(3, 0)
        D = decompose(P)
        assert (D.r, D.s) == (1, 1)
        beta, first, second = D.new_generators
        assert beta.exps == (1, 1, 1)
        assert D.squares[0] == -1
        # independent oracle: the central element commutes with every
        # basis monomial under stepwise rewriting
        for bits in range(1 << P.m):
            z = SignedMonomial(1, bits, P.m)
            left = word_mul(P, word_of(beta), word_of(z))
            right = word_mul(P, word_of(z), word_of(beta))
            assert left == right
        # and its square matches the oracle
        sign, word = word_mul(P, [0, 1, 2], [0, 1, 2])
        assert (sign, word) == (D.squares[0], ())
        for g, square in ((first, D.squares[1]), (second, D.squares[2])):
            sign, word = word_mul(P, word_of(g), word_of(g))
            assert (sign, word) == (square, ())

    def test_determinism(self):
        P = clifford_presentation(2, 2)
        a, b = decompose(P), decompose(P)
        assert a.basis_change == b.basis_change
        assert (a.r, a.masks, a.squares) == (b.r, b.masks, b.squares)

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
        masks, squares = list(D.masks), list(D.squares)
        masks[1], masks[2], squares[1], squares[2] = masks[2], masks[1], squares[2], squares[1]
        message = "generators 0, 1 have commutation sign 1, expected -1"
        with pytest.raises(ValueError, match=message):
            Decomposition(D.presentation, D.r, tuple(masks), tuple(squares)).validate()

    def test_dependent_central_is_singular_and_duplicated_pair_row_breaks_the_pattern(self):
        rng = np.random.default_rng(53)
        singular = pattern = 0
        for m in range(2, 13):
            for _ in range(8):
                D = decompose(random_presentation(rng, m))
                if D.r:
                    bad = dependent_central(rng, D)
                    got = verdict(Decomposition.validate, bad)
                    assert got == "basis_change is singular over GF(2)"
                    assert got == verdict(reference_validate, bad)
                    singular += 1
                if D.s:
                    bad = duplicated_pair_row(rng, D)
                    got = verdict(Decomposition.validate, bad)
                    assert got.startswith("generators ")
                    assert got == verdict(reference_validate, bad)
                    pattern += 1
        assert singular > 10 and pattern > 10

    @pytest.mark.parametrize("field, value, message", [
        ("masks", (0b10011, 0b1100, 0b1111, 0b110), "4 masks recorded for m = 5"),
        ("squares", (1, 1, 1, 1, 1, 1), "6 squares recorded for m = 5"),
        ("r", -1, "r = -1 leaves no whole pairs among m = 5"),
        ("r", 7, "r = 7 leaves no whole pairs among m = 5"),
        ("r", 2, "r = 2 leaves no whole pairs among m = 5"),
        ("masks", (0b11111, 0b1, 0b10, 0b100, 0b1000 | 1 << 5), "out of range for m = 5"),
        ("masks", (0b11111, 0b1, 0b10, 0b100, -1), "out of range for m = 5"),
    ])
    def test_malformed_record_is_refused(self, field, value, message):
        D = decompose(clifford_presentation(2, 3))
        assert (D.r, D.s) == (1, 2)
        bad = dataclasses.replace(D, **{field: value})
        with pytest.raises(ValueError, match=message):
            bad.validate()


class TestCap:
    def test_past_max_m_raises_before_any_table(self):
        with pytest.raises(CapExceeded, match=f"exceeds the cap {MAX_M}"):
            decompose(AlgebraPresentation((1,) * (MAX_M + 1)))


class TestSymplecticReduce:
    def test_matches_the_set_bit_reference_and_the_square_signs(self):
        # masks against the set-bit copy, squares against the counted signs
        # of helpers.square_sign, from commuting to fully anticommuting forms
        rng = np.random.default_rng(43)
        for m in range(1, 41):
            for density in (0.0, 0.05, 0.5, 0.95, 1.0):
                kappa = [int(k) for k in rng.choice([-1, 1], size=m)]
                upper = np.triu(rng.random((m, m)) < density, 1)
                anti = [tuple(ij) for ij in np.argwhere(upper).tolist()]
                P = AlgebraPresentation(kappa, anti)
                frows = form_matrix(P).bits
                # without kneg every generator is read as squaring to +1
                for (centrals, pairs, squares), P in (
                        (symplectic_reduce(frows, m, P._kneg), P),
                        (symplectic_reduce(frows, m), AlgebraPresentation((1,) * m, anti))):
                    assert (centrals, pairs) == reference_reduce(frows, m)
                    masks = (*centrals, *(g for pair in pairs for g in pair))
                    assert squares == tuple(square_sign(P, g) for g in masks)

    @staticmethod
    def reduced(P):
        """``symplectic_reduce`` of ``P``, checked against the packed
        reference, and against the set-bit one up to m = 40."""
        frows = form_matrix(P).bits
        got = symplectic_reduce(frows, P.m, P._kneg)
        assert got == packed_reduce(frows, P.m, P._kneg)
        if P.m <= 40:
            assert got[:2] == reference_reduce(frows, P.m)
        return got

    @pytest.mark.parametrize("m", [40, 96])
    def test_low_rank_forms(self, m):
        # F = T^T H T for an invertible T and the hyperbolic H of the first
        # 2 * planes coordinates, so r = m - 2 * planes exactly, 0 to m - 2
        rng = np.random.default_rng(m)
        T = rng.integers(0, 2, size=(m, m))
        while Gf2Matrix(m, m, row_masks(T)).rank() < m:
            T = rng.integers(0, 2, size=(m, m))
        for planes in range(1, m // 2 + 1):
            a, b = T[0:2 * planes:2], T[1:2 * planes:2]
            F = (a.T @ b + b.T @ a) & 1
            anti = [tuple(ij) for ij in np.argwhere(np.triu(F, 1)).tolist()]
            P = AlgebraPresentation([int(k) for k in rng.choice([-1, 1], size=m)], anti)
            centrals, pairs, _ = self.reduced(P)
            assert (len(centrals), len(pairs)) == (m - 2 * planes, planes)

    @pytest.mark.parametrize("m", [1, 2, 41, 100, 400])
    def test_all_commuting_and_all_anticommuting(self, m):
        kappa = [1, -1] * (m // 2) + [-1] * (m % 2)
        centrals, pairs, squares = self.reduced(AlgebraPresentation(kappa))
        assert centrals == [1 << i for i in range(m)] and not pairs
        assert squares == tuple(kappa)
        everything = [(i, j) for i in range(m) for j in range(i + 1, m)]
        centrals, pairs, _ = self.reduced(AlgebraPresentation(kappa, everything))
        assert (len(centrals), len(pairs)) == (m % 2, m // 2)

    @pytest.mark.parametrize("m", [100, 200, 400])
    def test_seeded_forms(self, m):
        rng = np.random.default_rng(m)
        for density in (0.02, 0.5):
            upper = np.triu(rng.random((m, m)) < density, 1)
            anti = [tuple(ij) for ij in np.argwhere(upper).tolist()]
            self.reduced(AlgebraPresentation([int(k) for k in rng.choice([-1, 1], size=m)], anti))


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
                    if all(commute_sign(P, z, 1 << i) == 1 for i in range(m))
                )
                assert central == 2 ** radical_dimension(P)
