"""Exact arithmetic on signed permutation matrices and dense sign matrices.

A :class:`MonomialMatrix` keeps one nonzero per row: row ``i`` holds
``signs[i]`` in column ``perm[i]``.  Products and transposes stay in that
representation, so they cost O(N) integer work and are exact at any
order.  Dense {-1,+1} matrices are thin wrappers over int64 numpy arrays;
products of verified objects have entries bounded by the order, far
inside int64 range, and :func:`sign_product` forms the dense checks'
products exactly in float64.

Only the public constructors validate and copy their input (parsers,
callers, ``identity``); ``@``, ``transpose``, negation and the stacked
families built or read in one pass (``_closed``) are signed permutations
or sign matrices by construction and skip the check.
Amicability signs have one kernel, :func:`pair_lambdas`: it decides every
pair of a family of n matrices of order b on the stacked ``perm`` /
``signs`` arrays, many pairs per gather in at most n - 1 batches,
O(n^2 b) integer work in all.
Its table is the side "B" sign; the outer family's side "A" pattern is
its negation (:func:`~qcliff.hadamard.lambda_of_transversal`).  Cut into
block segments, it gives the signs of Kronecker products from their blocks.

Kronecker products have one kernel too, :func:`stacked_kron`: a family of
n matrices, each a sign times a Kronecker product of small blocks, is
kept as one ``(n, size)`` perm/sign array pair per block and expanded to
order b in one pass per block.  The convention is row-major blocks
throughout the package, matching ``numpy.kron``: for ``X (x) Y``, entry
``[i1*Ny + i2, j1*Ny + j2]`` is ``X[i1,j1] * Y[i2,j2]``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np


class MonomialMatrix:
    """Signed permutation matrix: row ``i`` has ``signs[i]`` at ``perm[i]``."""

    __slots__ = ("perm", "signs")

    def __init__(self, perm: Sequence[int], signs: Sequence[int]):
        perm_arr = np.array(perm, dtype=np.int64)
        signs_arr = np.array(signs, dtype=np.int64)
        if perm_arr.ndim != 1 or signs_arr.shape != perm_arr.shape:
            raise ValueError("perm and signs must be 1-d arrays of equal length")
        n = perm_arr.shape[0]
        if n == 0:
            raise ValueError("empty matrix")
        if perm_arr.min() < 0 or perm_arr.max() >= n:
            raise ValueError("perm entries out of range")
        if np.any(np.bincount(perm_arr, minlength=n) != 1):
            raise ValueError("perm is not a permutation")
        if not np.all(np.abs(signs_arr) == 1):
            raise ValueError("signs must be +1 or -1")
        self._store(perm_arr, signs_arr)

    def _store(self, perm: np.ndarray, signs: np.ndarray) -> "MonomialMatrix":
        perm.setflags(write=False)
        signs.setflags(write=False)
        self.perm, self.signs = perm, signs
        return self

    @classmethod
    def _closed(cls, perm: np.ndarray, signs: np.ndarray) -> "MonomialMatrix":
        """Store int64 arrays that form a signed permutation by construction."""
        return cls.__new__(cls)._store(perm, signs)

    @property
    def order(self) -> int:
        return int(self.perm.shape[0])

    @classmethod
    def identity(cls, n: int) -> "MonomialMatrix":
        return cls(np.arange(n), np.ones(n, dtype=np.int64))

    def __matmul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        if not isinstance(other, MonomialMatrix):
            return NotImplemented
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")
        return self._closed(other.perm[self.perm], self.signs * other.signs[self.perm])

    def transpose(self) -> "MonomialMatrix":
        inv = np.empty(self.order, dtype=np.int64)
        inv[self.perm] = np.arange(self.order)
        return self._closed(inv, self.signs[inv])

    def __neg__(self) -> "MonomialMatrix":
        return self._closed(self.perm, -self.signs)

    def __mul__(self, scalar: int) -> "MonomialMatrix":
        if scalar == 1:
            return self
        if scalar == -1:
            return -self
        raise ValueError("monomial matrices only scale by +1 or -1")

    __rmul__ = __mul__

    def mul_dense(self, dense: np.ndarray) -> np.ndarray:
        """Exact product self @ dense without forming the dense self."""
        if dense.shape[0] != self.order:
            raise ValueError(f"order mismatch: {self.order} vs {dense.shape[0]}")
        return self.signs[:, None] * dense[self.perm]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonomialMatrix):
            return NotImplemented
        return bool(
            np.array_equal(self.perm, other.perm) and np.array_equal(self.signs, other.signs)
        )

    def __hash__(self) -> int:
        return hash((self.perm.tobytes(), self.signs.tobytes()))

    def __repr__(self) -> str:
        return f"MonomialMatrix(perm={self.perm.tolist()}, signs={self.signs.tolist()})"


class DenseSignMatrix:
    """Square matrix with every entry +1 or -1, stored exactly as int64."""

    __slots__ = ("array",)

    def __init__(self, array: Union[np.ndarray, Sequence[Sequence[int]]]):
        arr = np.asarray(array, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if not np.all(np.abs(arr) == 1):
            raise ValueError("entries must be +1 or -1")
        arr = arr.copy()
        arr.setflags(write=False)
        self.array = arr

    @classmethod
    def _closed(cls, array: np.ndarray) -> "DenseSignMatrix":
        """Store a square int64 array whose entries are +-1 by construction."""
        array.setflags(write=False)
        out = cls.__new__(cls)
        out.array = array
        return out

    @property
    def order(self) -> int:
        return int(self.array.shape[0])

    def transpose(self) -> "DenseSignMatrix":
        return DenseSignMatrix(self.array.T)

    def __matmul__(self, other: "DenseSignMatrix") -> np.ndarray:
        if not isinstance(other, DenseSignMatrix):
            return NotImplemented
        return self.array @ other.array

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DenseSignMatrix):
            return NotImplemented
        return bool(np.array_equal(self.array, other.array))

    def __hash__(self) -> int:
        return hash(self.array.tobytes())

    def __repr__(self) -> str:
        return f"DenseSignMatrix(order={self.order})"


# Codes per batch of pair_lambdas: few numpy calls for small families,
# bounded memory for large ones.
_PAIR_BATCH = 1 << 16


def _pair_batches(n: int, cell: int, budget: int) -> list[tuple[int, int]]:
    """Row ranges ``[j0, j1)`` that cover the pairs ``j < k`` of n members.

    A batch pairs rows ``j0 <= j < j1`` with every column ``k > j0``, at
    ``cell`` entries a pair: as many rows as keep it within ``budget``
    entries, and at least one, so there are at most ``n - 1`` batches.
    """
    out, j0 = [], 0
    while j0 < n - 1:
        j1 = min(n - 1, j0 + max(1, budget // ((n - 1 - j0) * cell)))
        out.append((j0, j1))
        j0 = j1
    return out


def pair_lambdas(family: Sequence[MonomialMatrix],
                 sizes: Optional[Sequence[int]] = None) -> np.ndarray:
    """Side "B" amicability signs of every pair of an equal-order family.

    Entry ``[j, k]`` is +1 where ``X_j X_k^T == X_k X_j^T``, -1 where
    ``X_j X_k^T == -X_k X_j^T`` and 0 where neither holds; the diagonal is
    0.  Row ``i`` is coded ``2 perm[i] + [signs[i] < 0]``, so row ``i`` of
    ``X Y`` is ``table_Y[code_X[i]]`` with ``table_Y[2c + e] = code_Y[c] ^ e``.
    Each batch of rows ``j`` (:func:`_pair_batches`) gathers the codes of
    ``X_j X_k^T`` and of ``X_k X_j^T`` for all ``k > j0`` from the tables
    of the transposes, two gathers in all, and xors them: all 0 is +1,
    all 1 is -1.  At most ``n - 1`` batches, O(n^2 b) for order ``b``.

    With ``sizes``, every member must be block diagonal with blocks of
    those sizes.  The xors are read per block, and the entry is the
    product of the blocks' signs, 0 if some block pair has none: the sign
    of the pair of Kronecker products of the blocks.  The default is one
    block, the whole matrix.
    """
    if not family:
        raise ValueError("empty family")
    n, b = len(family), family[0].order
    if any(x.order != b for x in family):
        raise ValueError(f"order mismatch: {[x.order for x in family]}")
    sizes = (b,) if sizes is None else tuple(sizes)
    if sum(sizes) != b or min(sizes) < 1:
        raise ValueError(f"segments {sizes} do not cut order {b}")
    starts = np.cumsum((0,) + sizes[:-1])
    perm = np.array([x.perm for x in family])
    neg = np.array([x.signs for x in family]) < 0
    code = 2 * perm + neg
    transposed = np.empty((n, b), dtype=np.min_scalar_type(2 * b))
    transposed[np.arange(n)[:, None], perm] = 2 * np.arange(b) + neg
    table = (transposed[:, :, None] ^ np.arange(2, dtype=transposed.dtype)).reshape(n, 2 * b)
    out = np.zeros((n, n), dtype=np.int64)
    for j0, j1 in _pair_batches(n, b, _PAIR_BATCH):
        # d[j - j0, k - j0 - 1]: row codes of X_j X_k^T xor those of X_k X_j^T;
        # the cells with k <= j are formed too and dropped below
        d = np.take(table[j0:j1], code[j0 + 1:], axis=1)
        d ^= np.take(table[j0 + 1:], code[j0:j1], axis=1).transpose(1, 0, 2)
        first = d[..., starts]
        step = d[..., 1:] != d[..., :-1]
        step[..., starts[1:] - 1] = False
        same = (first <= 1).all(axis=-1) & ~step.any(axis=-1)
        out[j0:j1, j0 + 1:] = np.where(same, 1 - 2 * (np.count_nonzero(first, axis=-1) & 1), 0)
    out = np.triu(out, 1)
    return out + out.T


def stacked_kron(sign: np.ndarray,
                 blocks: Sequence[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Perm and sign arrays of ``sign[i] * (X_i1 (x) X_i2 (x) ...)`` for every ``i``.

    ``blocks[t]`` stacks the ``t``-th Kronecker factor of all n members
    as ``(perm, signs)``, each of shape ``(n, size_t)``; the first block
    is the most significant.  Returns read-only ``(n, b)`` int64 arrays,
    ``b`` the product of the sizes (1 for no blocks); row ``i`` is the
    ``i``-th member, ``MonomialMatrix._closed(perm[i], signs[i])``.  The
    blocks are taken from the last inward, so the long axis stays
    innermost in every pass.
    """
    n = len(sign)
    perm = np.zeros((n, 1), dtype=np.int64)
    signs = np.array(sign, dtype=np.int64).reshape(n, 1)
    size = 1
    for p, s in reversed(blocks):
        perm = (p[:, :, None] * size + perm[:, None, :]).reshape(n, -1)
        signs = (s[:, :, None] * signs[:, None, :]).reshape(n, -1)
        size *= p.shape[1]
    perm.setflags(write=False)
    signs.setflags(write=False)
    return perm, signs


def sign_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact int64 ``x @ y`` of {-1, +1} arrays, multiplied by float64 BLAS.

    Every partial sum is an integer of magnitude at most the inner
    dimension k, and float64 holds every integer below 2**53 exactly, in
    any summation order.  So the product is exact for k < 2**53, and a
    larger k raises; no dense matrix that size can be stored.
    """
    k = x.shape[-1]
    if k >= 1 << 53:
        raise ValueError(f"inner dimension {k} is past float64's exact integers (2^53)")
    return np.matmul(x.astype(np.float64, copy=False),
                     y.astype(np.float64, copy=False)).astype(np.int64)


def sylvester(b: int) -> DenseSignMatrix:
    """The Sylvester Hadamard matrix of power-of-two order ``b``,
    ``S[i, j] = (-1)^popcount(i & j)``.

    It is the doubling ``[[S, S], [S, -S]]`` iterated ``log2 b`` times
    from ``[[1]]``: the top index bits of both halves meet only in the
    bottom-right one.
    """
    if b < 1 or b & (b - 1):
        raise ValueError(f"order must be a power of two, got {b}")
    i = np.arange(b, dtype=np.min_scalar_type(b - 1))
    odd = np.bitwise_count(i[:, None] & i) & 1
    return DenseSignMatrix._closed(np.subtract(1, odd << 1, dtype=np.int64))


# Fixed order-2 building blocks.  Z and X are symmetric with squares +I
# and J and Y are skew with squares -I; J is the rotation [[0,-1],[1,0]]
# and Y = Z @ X = -J.
def ident2() -> MonomialMatrix:
    return MonomialMatrix.identity(2)


def z2() -> MonomialMatrix:
    return MonomialMatrix([0, 1], [1, -1])


def x2() -> MonomialMatrix:
    return MonomialMatrix([1, 0], [1, 1])


def j2() -> MonomialMatrix:
    return MonomialMatrix([1, 0], [-1, 1])


def y2() -> MonomialMatrix:
    return MonomialMatrix([1, 0], [1, -1])
