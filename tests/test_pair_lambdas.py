"""The stacked pair kernel against a dense oracle, and mutated families.

``pair_lambdas`` is the one pair test of the package.  These tests compare
it with ``helpers.dense_lambda``, which multiplies dense integer matrices
and shares no code with it, and check that a corrupted block of a solved
family or of a minimal representation is reported with the pair it breaks.
"""

from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from qcliff import MonomialMatrix, VerificationError, minimal_images
from qcliff.hadamard import TransversalSpec, transversal
from qcliff.matrices import _pair_batches, pair_lambdas, z2
from qcliff.solve import solve, verify_solution

from helpers import (
    block_of,
    dense,
    dense_lambda,
    dense_verify,
    pattern_from_pairs,
    random_block_word,
    random_monomial_matrix,
    random_presentation,
    random_sym_or_skew_monomial,
    stacked,
    tensor,
    with_block,
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


def direct_sum(blocks):
    """The block-diagonal signed permutation with ``blocks`` down the diagonal."""
    starts = np.cumsum([0] + [x.order for x in blocks[:-1]])
    return MonomialMatrix(np.concatenate([x.perm + a for x, a in zip(blocks, starts)]),
                          np.concatenate([x.signs for x in blocks]))


def product_lambda(x, y):
    """B-side sign of a pair by forming x y^T and y x^T."""
    p, q = x @ y.transpose(), y @ x.transpose()
    if p == q:
        return 1
    if p == -q:
        return -1
    return 0


def dense_break(P, images):
    """What the dense products of ``images`` break first: ``("image", (j,))``
    for a square or transpose, ``("images", (a, c))`` for a commutation
    relation of ``P``, or None."""
    mats = [dense(x) for x in images]
    eye = np.eye(len(mats[0]), dtype=np.int64)
    for j, (x, k) in enumerate(zip(mats, P.kappa)):
        if not (np.array_equal(x @ x, k * eye) and np.array_equal(x.T, k * x)):
            return "image", (j,)
    anti = set(P.anticommuting_pairs())
    for a in range(P.m):
        for c in range(a + 1, P.m):
            sign = -1 if (a, c) in anti else 1
            if not np.array_equal(mats[c] @ mats[a], sign * mats[a] @ mats[c]):
                return "images", (a, c)
    return None


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
                got = pair_lambdas(*stacked(family))
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
        got = pair_lambdas(*stacked(family))
        for j in range(len(family)):
            for k in range(j + 1, len(family)):
                assert got[j, k] == product_lambda(family[j], family[k])

    @pytest.mark.parametrize("budget", [1, 40, 300])
    def test_small_batches_match_the_dense_oracle(self, monkeypatch, budget):
        # one row per batch up to several rows and a ragged last batch: the
        # path of large families
        monkeypatch.setattr("qcliff.matrices._PAIR_BATCH", budget)
        rng = np.random.default_rng(budget)
        for _ in range(30):
            n, b = int(rng.integers(1, 13)), int(rng.integers(1, 17))
            family = [random_sym_or_skew_monomial(rng, b) for _ in range(n)]
            assert np.array_equal(pair_lambdas(*stacked(family)), dense_table(family))
            sizes = (1, b - 1) if b > 1 else (1,)
            blocks = [direct_sum([random_sym_or_skew_monomial(rng, s) for s in sizes])
                      for _ in range(n)]
            monkeypatch.setattr("qcliff.matrices._PAIR_BATCH", 1 << 16)
            want = pair_lambdas(*stacked(blocks), sizes)
            monkeypatch.setattr("qcliff.matrices._PAIR_BATCH", budget)
            assert np.array_equal(pair_lambdas(*stacked(blocks), sizes), want)

    def test_batches_cover_the_rows_in_at_most_n_minus_1(self):
        for n in (1, 2, 3, 8, 100, 257, 2049):
            for cell in (1, 8, 256, 4096, 1 << 20):
                for budget in (1, 1 << 16):
                    batches = _pair_batches(n, cell, budget)
                    assert len(batches) <= max(n - 1, 0)
                    assert [j for j0, j1 in batches for j in range(j0, j1)] == list(range(n - 1))
                    for j0, j1 in batches:
                        assert j1 - j0 == 1 or (j1 - j0) * (n - 1 - j0) * cell <= budget

    @pytest.mark.parametrize("m", [1, 3, 5, 8])
    def test_no_more_gathers_than_one_row_per_pass(self, monkeypatch, m):
        # two gathers per batch, at most n - 1 batches: never more than one
        # pass per row j < n - 1 with two gathers each
        A = transversal(TransversalSpec.default(m))
        calls = []
        take = np.take
        monkeypatch.setattr(np, "take", lambda *a, **k: calls.append(1) or take(*a, **k))
        pair_lambdas(*stacked(A))
        assert 0 < len(calls) <= 2 * (len(A) - 1)

    def test_empty_and_mixed_families_rejected(self):
        perm, signs = stacked([z2(), z2()])
        for empty in (np.zeros((0, 2), dtype=np.int64), np.zeros((2, 0), dtype=np.int64)):
            with pytest.raises(ValueError, match="not one non-empty"):
                pair_lambdas(empty, empty)
        # perm and signs of different shapes, or not one 2-d stack
        for p, s in ((perm, signs[:1]), (perm, signs[:, :1]), (perm[0], signs[0]),
                     (perm[None], signs[None])):
            with pytest.raises(ValueError, match="not one non-empty"):
                pair_lambdas(p, s)
        with pytest.raises(ValueError, match="do not cut"):
            pair_lambdas(perm, signs, (1, 2))

    def test_segments_give_the_sign_of_the_kronecker_products(self):
        # members as their blocks side by side, one segment per block,
        # against the dense table of the expanded Kronecker products
        rng = np.random.default_rng(89)
        seen = set()
        for _ in range(60):
            n = int(rng.integers(1, 8))
            sizes = tuple(int(s) for s in rng.integers(1, 5, size=rng.integers(1, 4)))
            sampler = random_sym_or_skew_monomial if rng.integers(4) else random_monomial_matrix
            members = [[sampler(rng, s) for s in sizes] for _ in range(n)]
            got = pair_lambdas(*stacked([direct_sum(blocks) for blocks in members]), sizes)
            assert np.array_equal(got, dense_table([reduce(tensor, b) for b in members]))
            seen.update(got[np.triu_indices(n, 1)].tolist())
        assert seen == {1, -1, 0}


class TestMutations:
    @pytest.mark.parametrize("seed", range(6))
    def test_verify_solution_names_the_pair_a_mutation_breaks(self, seed):
        # one block of one image mutated on the factored record; the dense
        # products of the mutated record's expanded images decide what
        # verify_solution must report
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(3, 9))
        lam = pattern_from_pairs(
            n, {(j, k): int(rng.choice([-1, 1])) for j in range(n) for k in range(j + 1, n)}
        )
        result = solve(lam)
        rep = result.rep
        want = np.array([[lam.get(j, k) if j != k else 0 for k in range(n)] for j in range(n)])
        caught = 0
        for _ in range(12):
            j = int(rng.integers(lam.n))
            t = int(rng.integers(len(rep.sizes)))
            mutated = with_block(rep, j, t, mutate(rng, block_of(rep, j, t)))
            bad = replace(result, rep=mutated)
            pair = first_pair(dense_table(mutated.generator_images) != want)
            if pair is None:
                verify_solution(lam, bad)
                continue
            with pytest.raises(VerificationError, match=rf"pair \({pair[0]}, {pair[1]}\)"):
                verify_solution(lam, bad)
            assert j in pair
            caught += 1
        assert caught > 0
        # a perm entry swapped into another block: still a permutation of
        # the columns, no longer block diagonal
        assert len(rep.sizes) > 1
        j = int(rng.integers(lam.n))
        perm = rep.perm.copy()
        perm[j, [0, -1]] = perm[j, [-1, 0]]
        with pytest.raises(VerificationError, match="not signed permutations"):
            verify_solution(lam, replace(result, rep=replace(rep, perm=perm)))

    def test_representation_verify_names_the_pair_a_mutation_breaks(self):
        # one block of an image mutated, for the certificate, and the same
        # image mutated at full order, for the dense oracle; dense products
        # decide what each must report
        rng = np.random.default_rng(907)
        by_pair = 0
        for _ in range(60):
            P = random_presentation(rng, int(rng.integers(2, 7)))
            R = minimal_images(P)
            if R.order == 1:
                continue
            j = int(rng.integers(P.m))
            t = int(rng.integers(len(R.sizes)))
            bad = with_block(R, j, t, mutate(rng, block_of(R, j, t)))
            imgs = list(R.generator_images)
            imgs[j] = mutate(rng, imgs[j])
            for check, images in ((bad.verify, bad.generator_images),
                                  (lambda: dense_verify(P, R.order, imgs), imgs)):
                broken = dense_break(P, images)
                if broken is None:
                    check()
                    continue
                kind, where = broken
                with pytest.raises(VerificationError,
                                   match=rf"{kind} {','.join(map(str, where))} "):
                    check()
                assert j in where
                by_pair += kind == "images"
        assert by_pair > 0
