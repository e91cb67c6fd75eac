"""Shared test utilities: independent oracles and enumeration helpers.

The word-rewriting oracle multiplies generator words by literally
applying the defining relations one adjacent step at a time, so it
exercises none of the closed-form sign machinery in the package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from qcliff import AlgebraPresentation, MonomialMatrix, SignedMonomial
from qcliff.decompose import Decomposition
from qcliff.gf2 import Gf2Matrix
from qcliff.matrices import pair_lambdas
from qcliff.represent import Representation, character_length
from qcliff.solve import rho


def word_mul(P: AlgebraPresentation, *words: list[int]) -> tuple[int, tuple[int, ...]]:
    """Multiply generator-index words by stepwise rewriting.

    Swaps adjacent out-of-order generators one at a time (flipping the
    sign when the pair anticommutes) and collapses adjacent equal
    generators to their square.  Returns the sign and the sorted reduced
    word.
    """
    anti = set(P.anticommuting_pairs())
    word = [g for w in words for g in w]
    sign = 1
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(word) - 1:
            if word[i] > word[i + 1]:
                if (word[i + 1], word[i]) in anti:
                    sign = -sign
                word[i], word[i + 1] = word[i + 1], word[i]
                changed = True
            elif word[i] == word[i + 1]:
                sign *= P.kappa[word[i]]
                del word[i:i + 2]
                changed = True
            else:
                i += 1
    return sign, tuple(word)


def word_of(x: SignedMonomial) -> list[int]:
    return [i for i, e in enumerate(x.exps) if e]


def monomial_of_word(P: AlgebraPresentation, sign: int, word: tuple[int, ...]) -> SignedMonomial:
    return SignedMonomial(sign, sum(1 << g for g in word), P.m)


def all_presentations(m: int):
    """Every presentation on m generators: all squares, all pair tables."""
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    for kappa in itertools.product((1, -1), repeat=m):
        for bits in range(1 << len(pairs)):
            anti = [pairs[t] for t in range(len(pairs)) if (bits >> t) & 1]
            yield AlgebraPresentation(kappa, anti)


def random_presentation(rng: np.random.Generator, m: int) -> AlgebraPresentation:
    kappa = [int(k) for k in rng.choice([-1, 1], size=m)]
    anti = [
        (i, j)
        for i in range(m)
        for j in range(i + 1, m)
        if rng.integers(2)
    ]
    return AlgebraPresentation(kappa, anti)


def random_monomial(rng: np.random.Generator, P: AlgebraPresentation) -> SignedMonomial:
    mask = sum(1 << i for i, bit in enumerate(rng.integers(0, 2, size=P.m)) if bit)
    return SignedMonomial(int(rng.choice([-1, 1])), mask, P.m)


def random_monomial_matrix(rng: np.random.Generator, n: int) -> MonomialMatrix:
    return MonomialMatrix(rng.permutation(n), rng.choice([-1, 1], size=n))


def random_sym_or_skew_monomial(rng: np.random.Generator, n: int) -> MonomialMatrix:
    """Random signed involution: symmetric, or (for even n) skew."""
    idx = list(rng.permutation(n))
    perm = list(range(n))
    signs = [0] * n
    skew = n % 2 == 0 and bool(rng.integers(2))
    pairs = []
    if skew:
        pairs = [(idx[t], idx[t + 1]) for t in range(0, n - 1, 2)]
    else:
        t = 0
        while t < n:
            if t + 1 < n and rng.integers(2):
                pairs.append((idx[t], idx[t + 1]))
                t += 2
            else:
                signs[idx[t]] = int(rng.choice([-1, 1]))
                t += 1
    for i, j in pairs:
        s = int(rng.choice([-1, 1]))
        perm[i], perm[j] = j, i
        signs[i] = s
        signs[j] = -s if skew else s
    return MonomialMatrix(perm, signs)


def random_block_word(rng: np.random.Generator, n: int) -> MonomialMatrix:
    """Random Kronecker word of 2x2 blocks (n must be a power of two).

    Members of this family are always symmetric or skew and pairwise
    commute or anticommute, so greedy anti-amicable growth can reach the
    Hurwitz-Radon bound.
    """
    from qcliff.matrices import ident2, j2, x2, y2, z2

    blocks = [ident2, z2, x2, j2, y2]
    acc = None
    for _ in range(n.bit_length() - 1):
        factor = blocks[rng.integers(5)]()
        acc = factor if acc is None else tensor(acc, factor)
    return acc if acc is not None else MonomialMatrix([0], [int(rng.choice([-1, 1]))])


def tensor(x: MonomialMatrix, y: MonomialMatrix) -> MonomialMatrix:
    """Reference row-major Kronecker product ``x (x) y``, like ``numpy.kron``.

    Shares no code with ``qcliff.matrices.stacked_kron``.
    """
    n2 = y.order
    return MonomialMatrix((x.perm[:, None] * n2 + y.perm[None, :]).reshape(-1),
                          (x.signs[:, None] * y.signs[None, :]).reshape(-1))


def dense(x: MonomialMatrix) -> np.ndarray:
    """Dense int64 copy of a monomial matrix, built from its rows."""
    out = np.zeros((x.order, x.order), dtype=np.int64)
    out[np.arange(x.order), x.perm] = x.signs
    return out


def popcount_gram(x: np.ndarray) -> np.ndarray:
    """Exact int64 ``x @ x.T`` of a {-1, +1} matrix by counting bits.

    Rows ``h_i``, ``h_j`` of length N differ in ``popcount(h_i ^ h_j)``
    places of their sign bits, so ``<h_i, h_j> = N - 2 popcount``.  Shares
    no arithmetic with ``qcliff.matrices.sign_product``.
    """
    rows, cols = x.shape
    bits = np.packbits(x < 0, axis=1)
    words = np.pad(bits, ((0, 0), (0, -bits.shape[1] % 8))).view(np.uint64)
    gram = np.empty((rows, rows), dtype=np.int64)
    for s in range(0, rows, 64):
        differ = np.bitwise_count(words[s:s + 64, None, :] ^ words[None, :, :])
        gram[s:s + 64] = cols - 2 * differ.sum(axis=2, dtype=np.int64)
    return gram


def gf2_from_rows(rows) -> Gf2Matrix:
    """GF(2) matrix from 0/1 rows; bit ``j`` of row mask ``i`` is ``rows[i][j]``."""
    masks = tuple(sum((int(v) & 1) << j for j, v in enumerate(r)) for r in rows)
    return Gf2Matrix(len(rows), len(rows[0]) if rows else 0, masks)


def dense_lambda(a, b):
    """Reference amicability sign from dense integer products.

    The side "B" sign: lam with ``a @ b.T == lam * (b @ a.T)``, or None
    when neither sign fits.  Shares no code with
    ``qcliff.matrices.pair_lambdas``.
    """
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    p, q = a @ b.T, b @ a.T
    if np.array_equal(p, q):
        return 1
    if np.array_equal(p, -q):
        return -1
    return None


def grow_anti_amicable_family(rng: np.random.Generator, n: int, sampler, patience: int = 40):
    """Greedy growth: keep sampling, add when anti-amicable with all members.

    Each candidate ``c`` is tested against each member ``m`` by the monomial
    products ``c m^T == -(m c^T)``, which share no code with
    ``qcliff.matrices.pair_lambdas``.
    """
    family = [sampler(rng, n)]
    misses = 0
    while misses < patience:
        candidate = sampler(rng, n)
        ct = candidate.transpose()
        if all(candidate @ m.transpose() == -(m @ ct) for m in family):
            family.append(candidate)
            misses = 0
        else:
            misses += 1
    return family


def all_characters(D: Decomposition):
    """Every character bit string of ``D``'s irreducibles."""
    return itertools.product((0, 1), repeat=character_length(D))


def tensor_with_identity(R: Representation, copies: int) -> Representation:
    """Non-minimal representation: every image tensored with ``I(copies)``."""
    if copies < 1:
        raise ValueError("copies must be >= 1")
    ident = MonomialMatrix.identity(copies)
    return Representation(
        order=R.order * copies,
        generator_images=tuple(tensor(img, ident) for img in R.generator_images),
        character=R.character,
        decomposition=R.decomposition,
        presentation=R.presentation,
    )


def pushforward_by_products(R: Representation) -> tuple[MonomialMatrix, ...]:
    """Reference original-generator images of normal-form images ``R``.

    Each image is its word's sign times the product of ``R``'s order-b
    images, in ascending generator order, multiplied by ``@``.
    """
    D = R.decomposition
    P = D.presentation
    inv = D.basis_change.inverse()
    out = []
    for i in range(P.m):
        factors = [k for k in range(P.m) if (inv.row_mask(i) >> k) & 1]
        sign = P.product(D.new_generators[k] for k in factors).sign
        img = MonomialMatrix(np.arange(R.order), np.full(R.order, sign))
        for k in factors:
            img = img @ R.generator_images[k]
        out.append(img)
    return tuple(out)


@dataclass(frozen=True)
class HurwitzRadonReport:
    order: int
    size: int
    rho: int
    mutually_anti_amicable: bool
    within_bound: bool

    @property
    def passed(self) -> bool:
        return self.mutually_anti_amicable and self.within_bound


def check_hr_bound(family: Iterable[MonomialMatrix]) -> HurwitzRadonReport:
    """Check a family for mutual anti-amicability and the size bound rho(N).

    The oracle of acceptance criterion 7: no family of mutually
    anti-amicable orthogonal matrices of order N has more than rho(N)
    members.
    """
    mats = list(family)
    # -1 off the diagonal; pair_lambdas leaves the diagonal 0 and refuses
    # an empty family or mixed orders
    anti = np.array_equal(pair_lambdas(mats), np.eye(len(mats), dtype=np.int64) - 1)
    order = mats[0].order
    bound = rho(order)
    return HurwitzRadonReport(
        order=order,
        size=len(mats),
        rho=bound,
        mutually_anti_amicable=anti,
        within_bound=len(mats) <= bound,
    )
