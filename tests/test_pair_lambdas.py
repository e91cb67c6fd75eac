"""The stacked pair kernel against a dense oracle, and mutated families.

``pair_lambdas`` is the one pair test of the package.  These tests compare
it with ``helpers.dense_lambda``, which multiplies dense integer matrices
and shares no code with it, and check that a corrupted member of a solved
family or of a minimal representation is reported with the pair it breaks.
"""

from dataclasses import replace

import numpy as np
import pytest

from qcliff import LambdaPattern, MonomialMatrix, VerificationError, minimal_images
from qcliff.matrices import pair_lambdas, z2
from qcliff.solve import solve, verify_solution

from helpers import (
    dense,
    dense_lambda,
    random_block_word,
    random_monomial_matrix,
    random_presentation,
    random_sym_or_skew_monomial,
)


def dense_table(family):
    mats = [dense(x) for x in family]
    out = np.zeros((len(family),) * 2, dtype=np.int64)
    for j, a in enumerate(mats):
        for k, b in enumerate(mats):
            if j != k:
                out[j, k] = dense_lambda(a, b) or 0
    return out


def mutate(rng, x):
    """Flip one sign, or swap two rows (perm entries with their signs)."""
    perm, signs = x.perm.copy(), x.signs.copy()
    i, i2 = rng.choice(x.order, size=2, replace=False)
    if rng.integers(2):
        signs[i] = -signs[i]
    else:
        perm[[i, i2]] = perm[[i2, i]]
        signs[[i, i2]] = signs[[i2, i]]
    return MonomialMatrix(perm, signs)


def product_lambda(x, y):
    """B-side sign of a pair by forming x y^T and y x^T."""
    p, q = x @ y.transpose(), y @ x.transpose()
    if p == q:
        return 1
    if p == -q:
        return -1
    return 0


def first_pair(mask):
    bad = np.argwhere(np.triu(mask, 1)).tolist()
    return tuple(bad[0]) if bad else None


class TestKernel:
    def test_matches_the_dense_oracle_on_every_sampler(self):
        rng = np.random.default_rng(83)
        seen = set()
        for sampler in (random_monomial_matrix, random_sym_or_skew_monomial, random_block_word):
            for _ in range(40):
                n = int(rng.integers(1, 13))
                if sampler is random_block_word:
                    b = 1 << int(rng.integers(0, 5))
                else:
                    b = int(rng.integers(1, 17))
                family = [sampler(rng, b) for _ in range(n)]
                got = pair_lambdas(family)
                assert got.shape == (n, n) and got.dtype == np.int64
                assert np.array_equal(got, dense_table(family))
                seen.update(got[np.triu_indices(n, 1)].tolist())
        assert seen == {1, -1, 0}

    @pytest.mark.parametrize("b", [127, 128, 32767, 32768])
    def test_code_widths_around_their_limits(self, b):
        # the row codes run up to 2b - 1 and take the narrowest unsigned type
        rng = np.random.default_rng(b)
        x = random_sym_or_skew_monomial(rng, b)
        family = [x, -x, x.transpose(), random_monomial_matrix(rng, b), x @ x]
        got = pair_lambdas(family)
        for j in range(len(family)):
            for k in range(j + 1, len(family)):
                assert got[j, k] == product_lambda(family[j], family[k])

    def test_empty_and_mixed_families_rejected(self):
        with pytest.raises(ValueError):
            pair_lambdas([])
        with pytest.raises(ValueError, match="order mismatch"):
            pair_lambdas([z2(), MonomialMatrix.identity(3)])


class TestMutations:
    @pytest.mark.parametrize("seed", range(6))
    def test_verify_solution_names_the_pair_a_mutation_breaks(self, seed):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(3, 9))
        lam = LambdaPattern.from_pairs(
            n, {(j, k): int(rng.choice([-1, 1])) for j in range(n) for k in range(j + 1, n)}
        )
        result = solve(lam)
        want = np.array(lam.rows)
        caught = 0
        for _ in range(12):
            j = int(rng.integers(lam.n))
            D = list(result.D)
            D[j] = mutate(rng, D[j])
            bad = replace(result, D=tuple(D))
            pair = first_pair(dense_table(D) != want)
            if pair is None:
                verify_solution(lam, bad)
                continue
            with pytest.raises(VerificationError, match=rf"pair \({pair[0]}, {pair[1]}\)"):
                verify_solution(lam, bad)
            assert j in pair
            caught += 1
        assert caught > 0

    def test_representation_verify_names_the_pair_a_mutation_breaks(self):
        rng = np.random.default_rng(907)
        by_pair = 0
        for _ in range(60):
            P = random_presentation(rng, int(rng.integers(2, 7)))
            R = minimal_images(P)
            if R.order == 1:
                continue
            j = int(rng.integers(P.m))
            imgs = list(R.generator_images)
            imgs[j] = mutate(rng, imgs[j])
            bad = replace(R, generator_images=tuple(imgs))
            mats = [dense(x) for x in imgs]
            k = P.kappa[j]
            if not (np.array_equal(mats[j] @ mats[j], k * np.eye(R.order))
                    and np.array_equal(mats[j].T, k * mats[j])):
                with pytest.raises(VerificationError, match=rf"image {j} "):
                    bad.verify()
                continue
            broken = np.zeros((P.m, P.m), dtype=bool)
            anti = set(P.anticommuting_pairs())
            for a in range(P.m):
                for c in range(a + 1, P.m):
                    sign = -1 if (a, c) in anti else 1
                    broken[a, c] = not np.array_equal(mats[c] @ mats[a],
                                                      sign * mats[a] @ mats[c])
            pair = first_pair(broken)
            if pair is None:
                bad.verify()
                continue
            with pytest.raises(VerificationError, match=rf"images {pair[0]},{pair[1]} "):
                bad.verify()
            assert j in pair
            by_pair += 1
        assert by_pair > 0
