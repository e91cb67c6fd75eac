"""Shared test utilities: independent oracles and enumeration helpers.

The word-rewriting oracle multiplies generator words by literally
applying the defining relations one adjacent step at a time, so it
exercises none of the closed-form sign machinery in the package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from qcliff import (
    AlgebraPresentation,
    CapExceeded,
    LambdaPattern,
    MonomialMatrix,
    SignedMonomial,
    VerificationError,
)
from qcliff.decompose import MAX_M, Decomposition, form_matrix
from qcliff.gf2 import Gf2Matrix, bilinear_parity
from qcliff.hadamard import HadamardBundle, TransversalSpec, VerificationReport
from qcliff.matrices import DenseSignMatrix, pair_lambdas, sign_product
from qcliff.represent import Representation, character_length
from qcliff.serialize import (
    _check_ints,
    _is_int,
    _list,
    _require_keys,
    _sign,
    dense_from_rows,
    lambda_from_dict,
    monomial_from_dict,
    report_from_dict,
    sign_matrix_from_text_rows,
)
from qcliff.solve import rho


def quaternion_presentation() -> AlgebraPresentation:
    """Two anticommuting generators squaring to -1 (the quaternions)."""
    return AlgebraPresentation((-1, -1), [(0, 1)])


def clifford_presentation(p: int, q: int) -> AlgebraPresentation:
    """``p + q`` pairwise anticommuting generators, ``p`` squaring to +1."""
    if p < 0 or q < 0 or p + q == 0:
        raise ValueError("need p, q >= 0 with p + q >= 1")
    m = p + q
    kappa = (1,) * p + (-1,) * q
    return AlgebraPresentation(kappa, [(i, j) for i in range(m) for j in range(i + 1, m)])


# Bott periodicity: the real Clifford algebra with p generators squaring
# to +1 and q to -1 is, by (p - q) mod 8, a full matrix algebra over the
# division algebra of this real dimension, one copy or two.
BOTT_TABLE = {0: (1, 1), 1: (1, 2), 2: (1, 1), 3: (2, 1),
              4: (4, 1), 5: (4, 2), 6: (4, 1), 7: (2, 1)}


def bott_label(p: int, q: int) -> str:
    """``"^copies D(N)"`` of the Clifford algebra of ``(p, q)``, from the table.

    Each copy has real dimension ``2**(p + q) / copies = N^2 d`` for the
    division algebra D of real dimension d.
    """
    d, copies = BOTT_TABLE[(p - q) % 8]
    square = (1 << (p + q)) // (copies * d)
    size = 1 << ((square.bit_length() - 1) // 2)
    assert size * size == square
    return f"^{copies} {'RCH'[d.bit_length() - 1]}({size})"


def radical_dimension(P: AlgebraPresentation) -> int:
    """Dimension of the kernel of the anticommutation form.

    Equals the number of central generators produced by ``decompose``;
    the centre of the algebra has dimension ``2**radical_dimension(P)``.
    """
    return P.m - form_matrix(P).rank()


def reference_form_matrix(P: AlgebraPresentation) -> Gf2Matrix:
    """The anticommutation form by transposing the upper table bit by bit."""
    rows = []
    for i in range(P.m):
        mask = P._delta_gt[i]
        for lo in range(i):
            mask |= ((P._delta_gt[lo] >> i) & 1) << lo
        rows.append(mask)
    return Gf2Matrix(P.m, P.m, tuple(rows))


def packed_reduce(frows: Sequence[int], m: int, kneg: int = 0):
    """``symplectic_reduce`` with every pairing counted from the packs.

    The same packs ``w | fw << m | q(w) << 2m`` and the same order, but
    ``B(w, x)`` is the parity of ``fw & x`` for each remaining vector, and
    the partner is found by scanning the updated packs.  A fast second
    reference, for sizes the set-bit copy in ``test_decompose`` cannot
    reach.
    """
    low, q_bit = (1 << m) - 1, 1 << 2 * m
    remaining = [1 << i | frows[i] << m | (kneg >> i & 1) << 2 * m for i in range(m)]
    centrals, pairs = [], []
    while remaining:
        U = remaining.pop(0)
        fu = U >> m & low
        if not fu:
            centrals.append(U)
            continue
        partner = next(k for k, V in enumerate(remaining) if (fu & V).bit_count() & 1)
        V = remaining.pop(partner)
        fv = V >> m & low
        pairs.append((U, V))
        fixed = []
        for W in remaining:
            bu = (fu & W).bit_count() & 1
            if (fv & W).bit_count() & 1:
                W ^= U ^ q_bit if bu else U
            if bu:
                W ^= V
            fixed.append(W)
        remaining = fixed
    packs = centrals + [X for pair in pairs for X in pair]
    return ([X & low for X in centrals], [(U & low, V & low) for U, V in pairs],
            tuple(-1 if X >> 2 * m else 1 for X in packs))


def reference_presentation_from_dict(obj: dict) -> AlgebraPresentation:
    """The presentation reader that checks ``delta`` one triple at a time.

    Each triple is checked in order (shape, pair, bit, then conflict with
    an earlier triple), so the first offending one raises.
    """
    _require_keys(obj, ["m", "kappa"], ["delta"])
    m = obj["m"]
    if not _is_int(m) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    kappa = obj["kappa"]
    if not isinstance(kappa, list) or len(kappa) != m:
        raise ValueError(f"kappa must be a list of length m={m}")
    kappa = tuple(_sign(k, "kappa entry") for k in kappa)
    anti = []
    seen: dict[tuple[int, int], int] = {}
    for triple in _list(obj.get("delta", []), "delta"):
        if not isinstance(triple, list) or len(triple) != 3:
            raise ValueError(f"delta entries must be [i, j, bit] triples, got {triple!r}")
        i, j, bit = triple
        if not (_is_int(i) and _is_int(j) and 1 <= i < j <= m):
            raise ValueError(f"delta pair ({i}, {j}) must satisfy 1 <= i < j <= m")
        if not _is_int(bit) or bit not in (0, 1):
            raise ValueError(f"delta bit must be 0 or 1, got {bit!r}")
        if (i, j) in seen and seen[(i, j)] != bit:
            raise ValueError(f"conflicting delta entries for pair ({i}, {j})")
        seen[(i, j)] = bit
        if bit:
            anti.append((i - 1, j - 1))
    return AlgebraPresentation(kappa, anti)


def reference_lambda_from_dict(obj: dict) -> LambdaPattern:
    """The lambda reader that checks ``entries`` one triple at a time.

    Each triple is checked in order (shape, pair, value, then conflict
    with an earlier triple), so the first offending one raises; the pairs
    are then completed by :func:`pattern_from_pairs`.
    """
    _require_keys(obj, ["n", "entries"])
    n = obj["n"]
    if not _is_int(n) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if n > MAX_M:
        raise CapExceeded(f"n = {n} matrices exceeds the cap {MAX_M}")
    entries = _list(obj["entries"], "entries")
    if n * (n - 1) // 2 > len(entries):
        raise ValueError(f"{len(entries)} entries cannot cover the pairs of n={n}")
    pairs: dict[tuple[int, int], int] = {}
    for triple in entries:
        if not isinstance(triple, list) or len(triple) != 3:
            raise ValueError(f"entries must be [j, k, value] triples, got {triple!r}")
        j, k, v = triple
        if not (_is_int(j) and _is_int(k) and 1 <= j <= n and 1 <= k <= n and j != k):
            raise ValueError(f"bad pair indices ({j}, {k}) for n={n}")
        lo, hi = (j, k) if j < k else (k, j)
        v = _sign(v, f"lambda[{j}][{k}]")
        if (lo - 1, hi - 1) in pairs and pairs[(lo - 1, hi - 1)] != v:
            raise ValueError(f"conflicting lambda values for pair ({lo}, {hi})")
        pairs[(lo - 1, hi - 1)] = v
    return pattern_from_pairs(n, pairs)


def pattern_from_pairs(n: int, pairs: dict[tuple[int, int], int]) -> LambdaPattern:
    """The pattern with the +-1 value ``pairs[(j, k)]`` at 0-based ``j < k``;
    every pair must be given, and the first missing one is named 1-based."""
    neg = [0] * n
    for j in range(n):
        for k in range(j + 1, n):
            if (j, k) not in pairs:
                raise ValueError(f"missing lambda pair ({j + 1}, {k + 1})")
            if pairs[(j, k)] == -1:
                neg[j] |= 1 << k
                neg[k] |= 1 << j
    return LambdaPattern(n, tuple(neg))


def constant_pattern(n: int, value: int) -> LambdaPattern:
    """The pattern with ``value`` at every pair."""
    return pattern_from_pairs(n, {(j, k): value for j in range(n) for k in range(j + 1, n)})


def transversal_lambda(spec: TransversalSpec) -> LambdaPattern:
    """The pattern of ``transversal(spec)`` in closed form.

    ``A_j A_k^T`` is a Kronecker product of per-position factors: ``I``
    where members j and k make the same choice, and ``D O^T`` or its
    transpose where ``j ^ k`` has a bit (D the diagonal, O the
    off-diagonal choice).  ``D O^T`` is skew for (I, Y) and (Z, X) and
    symmetric otherwise, so with N the mask of those positions, position
    i at index bit ``m - 1 - i``, ``A_k A_j^T = (A_j A_k^T)^T`` is
    ``(-1)^|(j ^ k) & N| A_j A_k^T`` and ``lam_jk = -(-1)^|(j ^ k) & N|``.
    Shares no code with ``qcliff.matrices.pair_lambdas``.
    """
    m = spec.m
    N = sum(1 << (m - 1 - i) for i, pair in enumerate(zip(spec.diag, spec.offdiag))
            if pair in (("I", "Y"), ("Z", "X")))
    neg = []
    for j in range(1 << m):
        row = 0
        for k in range(1 << m):
            if k != j and ((j ^ k) & N).bit_count() % 2 == 0:
                row |= 1 << k
        neg.append(row)
    return LambdaPattern(1 << m, tuple(neg))


def reference_lex_first(E: AlgebraPresentation, basis: Sequence[int], h: Sequence[int],
                        a: Optional[int]) -> tuple[int, ...]:
    """The bit fixing of ``qcliff.solve._lex_first`` with every sign formed
    again per monomial by set-bit walks, and no bits carried.

    ``b`` and ``q`` are the commutation and square bits of the +1 monomials
    of E, from the upper table read both ways and the squares on the
    diagonal; W and u0 are plain masks.
    """
    rows, kneg = E._delta_gt, E._kneg

    def b(x: int, y: int) -> int:
        return bilinear_parity(rows, y, x) ^ bilinear_parity(rows, x, y)

    def q(x: int) -> int:
        return (bilinear_parity(rows, x, x) + (x & kneg).bit_count()) & 1

    def reaches(u0: int, W: list[int]) -> bool:
        return (a is None or q(u0) == a
                or any(q(w) != b(u0, w) for w in W)
                or any(b(v, w) for j, v in enumerate(W) for w in W[j + 1:]))

    u0, W, k = 0, list(basis), []
    for i, hi in enumerate(h):
        x = 1 << i
        cut = [b(w, x) for w in W]
        if any(cut):
            pivot = W[cut.index(1)]
            W = [w ^ pivot if c else w for w, c in zip(W, cut) if w != pivot]
            if b(u0, x) != hi:
                u0 ^= pivot
            if not reaches(u0, W):
                u0 ^= pivot
        k.append(hi ^ b(u0, x))
    return tuple(k)


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
    return mask_word(x.mask)


def mask_word(mask: int) -> list[int]:
    """The generator indices of an exponent mask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def square_sign(P: AlgebraPresentation, mask: int) -> int:
    """Sign of the square of the monomial of ``mask``, by counting.

    Rewriting ``w w`` for the ascending word ``w`` moves each letter of the
    second copy past the larger letters of the first, one crossing per
    pair of letters of ``w``, and then squares it: the sign is the product
    of the letters' squares and of -1 per anticommuting pair in ``w``.
    The count :func:`word_mul` makes, without the stepwise rewriting.
    """
    odd = sum((P._delta_gt[i] & mask).bit_count() for i in mask_word(mask))
    return (-1) ** (odd + (mask & P._kneg).bit_count())


def commute_sign(P: AlgebraPresentation, x: int, y: int) -> int:
    """``P.commutation_sign`` of the +1 monomials of the masks ``x`` and ``y``."""
    return P.commutation_sign(SignedMonomial(1, x, P.m), SignedMonomial(1, y, P.m))


def monomial_of_word(P: AlgebraPresentation, sign: int, word: tuple[int, ...]) -> SignedMonomial:
    return SignedMonomial(sign, sum(1 << g for g in word), P.m)


def fixed_type_presentation(rng: np.random.Generator, case: str, r: int,
                            s: int) -> AlgebraPresentation:
    """A presentation with ``r`` centrals and ``s`` hyperbolic pairs of
    Wedderburn case ``case``, on random generators.

    The normal form has the centrals first, squaring to +1 but for the
    first one of the complex case, then the pairs, an odd number of them
    squaring to (-1, -1) exactly in the quaternion case.  Generator ``i``
    of the result is the normal-form monomial of mask ``T[i]``, for a
    random invertible GF(2) matrix ``T``: the algebra and its irreducible
    order stay, and the images become products of many blocks.
    """
    m = r + 2 * s
    pairs = [tuple(int(x) for x in rng.choice([-1, 1], size=2)) for _ in range(s)]
    if (case == "quaternion") != (pairs.count((-1, -1)) % 2 == 1):
        pairs[-1] = (1, 1) if pairs[-1] == (-1, -1) else (-1, -1)
    centrals = [-1 if case == "complex" and i == 0 else 1 for i in range(r)]
    N = AlgebraPresentation(centrals + [x for pair in pairs for x in pair],
                            [(r + 2 * t, r + 2 * t + 1) for t in range(s)])
    while True:
        T = tuple(int(v) for v in rng.integers(0, 1 << m, size=m))
        if Gf2Matrix(m, m, T).rank() == m:
            break
    return AlgebraPresentation(
        [square_sign(N, u) for u in T],
        [(i, j) for i in range(m) for j in range(i + 1, m) if commute_sign(N, T[i], T[j]) == -1])


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
    """Non-minimal representation: every image tensored with ``I(copies)``,
    one more identity block of that size."""
    if copies < 1:
        raise ValueError("copies must be >= 1")
    m, width = R.perm.shape
    ident = np.tile(np.arange(width, width + copies), (m, 1))
    return replace(R, order=R.order * copies, perm=np.hstack([R.perm, ident]),
                   signs=np.hstack([R.signs, np.ones_like(ident)]), sizes=R.sizes + (copies,))


def block_of(R: Representation, i: int, t: int) -> MonomialMatrix:
    """Block ``t`` of image ``i`` of ``R``."""
    perm, signs = R.blocks()[t]
    return MonomialMatrix(perm[i], signs[i])


def with_block(R: Representation, i: int, t: int, block: MonomialMatrix) -> Representation:
    """``R`` with block ``t`` of image ``i`` replaced by ``block``."""
    start, size = sum(R.sizes[:t]), R.sizes[t]
    perm, signs = R.perm.copy(), R.signs.copy()
    perm[i, start:start + size] = block.perm + start
    signs[i, start:start + size] = block.signs
    return replace(R, perm=perm, signs=signs)


def dense_verify(P: AlgebraPresentation, order: int, images: Sequence[MonomialMatrix]) -> None:
    """Dense re-check of ``P``'s relations on order-``order`` images.

    The oracle for ``Representation.verify``, with its error messages:
    the transpose law ``X^T == kappa X`` per image by transposing it, then
    every pair from one whole-matrix ``pair_lambdas`` table.  Given the
    transpose law, ``X_i X_j == c X_j X_i`` holds exactly when the table
    gives ``c kappa_i kappa_j`` for ``(i, j)``.  O(m^2 order).
    """
    if len(images) != P.m:
        raise VerificationError("wrong number of generator images")
    for i, img in enumerate(images):
        if img.order != order:
            raise VerificationError(f"image {i} has order {img.order} != {order}")
        if img.transpose() != P.kappa[i] * img:
            raise VerificationError(f"image {i} breaks the transpose law")
    kappa = np.array(P.kappa)
    want = np.outer(kappa, kappa)
    for i, j in P.anticommuting_pairs():
        want[i, j] = -want[i, j]
    bad = np.argwhere(np.triu(pair_lambdas(images) != want, 1)).tolist()
    if bad:
        i, j = bad[0]
        raise VerificationError(f"images {i},{j} break the commutation relation")


def pushforward_by_products(R: Representation) -> tuple[MonomialMatrix, ...]:
    """Reference original-generator images of normal-form images ``R``.

    Each image is its word's sign times the product of ``R``'s order-b
    images, in ascending generator order, multiplied by ``@``; the sign
    comes from rewriting the word of new generators by :func:`word_mul`.
    """
    D = R.decomposition
    P = D.presentation
    inv = D.basis_change.inverse()
    out = []
    for i in range(P.m):
        factors = mask_word(inv.row_mask(i))
        sign, word = word_mul(P, *(mask_word(D.masks[k]) for k in factors))
        assert word == (i,)
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


# -- the plug-in checks member by member, kept as oracles ----------------------


def reference_sylvester(b: int) -> np.ndarray:
    """The doubling recursion ``[[S, S], [S, -S]]`` from ``[[1]]``, as int8."""
    s = np.ones((1, 1), dtype=np.int8)
    while s.shape[0] < b:
        s = np.block([[s, s], [s, -s]])
    return s


def monomial_pair_sign(x: MonomialMatrix, y: MonomialMatrix) -> int:
    """Side "B" sign of a pair by forming ``x y^T`` and ``y x^T``; 0 if none fits."""
    p, q = x @ y.transpose(), y @ x.transpose()
    if p == q:
        return 1
    if p == -q:
        return -1
    return 0


def reference_plug_in(A, B):
    """``sum A_k (x) B_k`` by adding one signed block per member and row."""
    if len(A) != len(B) or not A:
        raise ValueError("need equally many outer and inner matrices")
    n = len(A)
    if any(a.order != n for a in A):
        raise ValueError("outer matrices must have order equal to the family size")
    b = B[0].order
    if any(x.order != b for x in B):
        raise ValueError("inner matrices must share one order")
    out = np.zeros((n * b, n * b), dtype=np.int64)
    for ak, bk in zip(A, B):
        for row in range(n):
            col = int(ak.perm[row])
            block = out[row * b:(row + 1) * b, col * b:(col + 1) * b]
            block += int(ak.signs[row]) * bk.array
    if not np.all(np.abs(out) == 1):
        raise ValueError("plug-in sum has entries outside {-1,+1}; supports overlap or miss")
    return DenseSignMatrix(out)


def reference_run_checks(A, lam, B, H):
    """Every bundle condition member by member and pair by pair: monomial
    products for A, one Gram per pair of B, and H against the block sum."""
    n = len(A)
    b = B[0].order
    order = n * b
    perm = np.stack([a.perm for a in A])
    perms = np.sort(perm, axis=0)
    disjoint = bool(np.all(perms[1:] != perms[:-1]))
    tsum = perms.shape == (n, n) and bool(np.all(perms == np.arange(n)[:, None]))
    ident_n = MonomialMatrix.identity(n)
    a_orth = all(a @ a.transpose() == ident_n for a in A)
    a_lam = all(-monomial_pair_sign(A[j], A[k]) == lam.get(j, k)
                for j, k in itertools.combinations(range(n), 2))
    stacked = np.stack([x.array for x in B], dtype=np.float64)
    gram_sum = np.zeros((b, b), dtype=np.int64)
    b_lam = True
    for j in range(n):
        gram_sum += sign_product(stacked[j], stacked[j].T)
        for k in range(j + 1, n):
            gram = sign_product(stacked[j], stacked[k].T)
            b_lam = b_lam and np.array_equal(gram, lam.get(j, k) * gram.T)
    b_gram = bool(np.array_equal(gram_sum, order * np.eye(b, dtype=np.int64)))
    try:
        h_match = tsum and reference_plug_in(A, B) == H
    except ValueError:
        h_match = False
    hadamard = bool(np.array_equal(sign_product(H.array, H.array.T),
                                   order * np.eye(order, dtype=np.int64)))
    return VerificationReport(
        n=n, b=b, order=order, disjoint_supports=disjoint, transversal_sum=tsum,
        a_orthogonal=a_orth, a_lambda=a_lam, b_lambda=b_lam, b_gram_sum=b_gram,
        h_matches_terms=bool(h_match), hadamard=hadamard)


def reference_verify_bundle(bundle):
    """``verify_bundle`` with its ``B_k == D_k @ S`` check one member at a time."""
    b, S = bundle.b, bundle.S.array
    if not np.array_equal(sign_product(S, S.T), b * np.eye(b, dtype=np.int64)):
        raise VerificationError("stored S is not a Hadamard matrix: S S^T != b I")
    for k, (d, bk) in enumerate(zip(bundle.D, bundle.B, strict=True)):
        if d.order != b or not np.array_equal(d.mul_dense(S), bk.array):
            raise VerificationError(f"stored B_{k} differs from D_{k} @ S")
    report = reference_run_checks(bundle.A, bundle.lam, bundle.B, bundle.H)
    if report.passed and bundle.report != report:
        field = next(f.name for f in fields(report)
                     if getattr(report, f.name) != getattr(bundle.report, f.name))
        raise VerificationError(f"stored report differs from the recomputed one at {field}")
    return replace(bundle, report=report)


def reference_bundle_from_dict(obj: dict):
    """The bundle reader with every A, D and B member read on its own."""
    _require_keys(obj, ["n", "b", "A", "lambda", "D", "S", "B", "H", "report"])
    _check_ints(obj, ("n", "b"), "bundle")
    A = tuple(monomial_from_dict(a) for a in _list(obj["A"], "bundle A"))
    lam = lambda_from_dict(obj["lambda"])
    D = tuple(monomial_from_dict(d) for d in _list(obj["D"], "bundle D"))
    S = dense_from_rows(obj["S"])
    B = tuple(dense_from_rows(rows) for rows in _list(obj["B"], "bundle B"))
    H = sign_matrix_from_text_rows(_list(obj["H"], "bundle H"))
    report = report_from_dict(obj["report"])
    if lam.n != obj["n"] or any(len(family) != obj["n"] for family in (A, D, B)):
        raise ValueError("bundle family sizes do not match n")
    if any(a.order != obj["n"] for a in A):
        raise ValueError(f"bundle outer orders {[a.order for a in A]} do not match n")
    if any(d.order != obj["b"] for d in D):
        raise ValueError(f"bundle D orders {[d.order for d in D]} do not match b")
    if S.order != obj["b"] or any(x.order != obj["b"] for x in B):
        raise ValueError("bundle inner orders do not match b")
    if H.order != obj["n"] * obj["b"]:
        raise ValueError("bundle H order does not match n*b")
    return HadamardBundle(n=obj["n"], b=obj["b"], A=A, lam=lam, D=D, S=S, B=B, H=H,
                          report=report)


def outcome(f, *args):
    """``("ok", value)``, or ``("raise", type, message)`` for what ``f`` raises."""
    try:
        return ("ok", f(*args))
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return ("raise", type(exc), str(exc))
