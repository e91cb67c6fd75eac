"""Dense GF(2) matrices stored as per-row bitmasks.

Row ``i`` is a python int whose bit ``j`` is the entry ``(i, j)``, the
same bitmask that stores a monomial's exponent vector, so elimination is
word operations on the vectors themselves.

:func:`xor_rows` is the one set-bit walk in the package: ``u^T R`` as a
row mask, the xor of the rows ``R[i]`` picked by the bits of ``u``.  A
bilinear form ``u^T R v`` is that mask ANDed with ``v``.  Only the
single-pair :meth:`~qcliff.presentation.AlgebraPresentation.commutation_sign`
uses it; the pipeline forms its signs for many monomials at once.

Work on every pair of rows at once runs in numpy instead, on the masks'
little-endian bytes, so that no step walks the bits in Python.
:func:`bit_table` and :func:`row_masks` are the one bridge between masks
and a dense ``uint8`` 0/1 table (bit ``j`` of a mask is column ``j``),
for work such as a transpose; :func:`gram_parity`, the Gram product of
two lists of masks over GF(2), runs on the same bytes read as 64-bit
words.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np


def xor_rows(rows: Sequence[int], u: int) -> int:
    """Row mask of ``u^T R`` over GF(2), ``R`` given by its row bitmasks."""
    acc = 0
    t = u
    while t:
        low = t & -t
        acc ^= rows[low.bit_length() - 1]
        t ^= low
    return acc


def bilinear_parity(rows: Sequence[int], u: int, v: int) -> int:
    """Parity bit of ``u^T R v`` over GF(2), ``R`` given by its row bitmasks."""
    return (xor_rows(rows, u) & v).bit_count() & 1


def _words(masks: Sequence[int], cols: int) -> np.ndarray:
    """The row masks as little-endian 64-bit words, one row of at least one
    word per mask; every mask must be below ``2**cols``."""
    width = max(cols + 63, 64) // 64
    raw = b"".join(map(int.to_bytes, masks, repeat(8 * width), repeat("little")))
    return np.frombuffer(raw, "<u8").reshape(len(masks), width)


def bit_table(masks: Sequence[int], cols: int) -> np.ndarray:
    """The row bitmasks ``masks`` as a ``(len(masks), cols)`` uint8 0/1 table.

    Every mask must be below ``2**cols``.
    """
    packed = _words(masks, cols).view(np.uint8)
    return np.unpackbits(packed, axis=1, count=cols, bitorder="little")


def row_masks(table: np.ndarray) -> tuple[int, ...]:
    """The rows of a 2-d 0/1 table as bitmasks; inverts :func:`bit_table`."""
    packed = np.packbits(table, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def gram_parity(x: Sequence[int], y: Sequence[int], cols: int) -> np.ndarray:
    """``X Y^T`` over GF(2) for row masks below ``2**cols``, as a uint8 0/1 table.

    Entry ``(i, j)`` is the parity of ``|x[i] & y[j]|``.  The ANDs of every
    pair of rows are xored across the 64-bit words of the rows, and the
    parity of the popcount of that xor is the parity of the sum of the
    popcounts.  Only integer bit operations: exact at any size, with one
    ``(len(x), len(y))`` uint64 table per word.
    """
    wx, wy = _words(x, cols), _words(y, cols)
    acc = np.bitwise_and.outer(wx[:, 0], wy[:, 0])
    for t in range(1, wx.shape[1]):
        acc ^= np.bitwise_and.outer(wx[:, t], wy[:, t])
    return np.bitwise_count(acc) & 1


@dataclass(frozen=True)
class Gf2Matrix:
    rows: int
    cols: int
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.bits) != self.rows:
            raise ValueError(f"expected {self.rows} row masks, got {len(self.bits)}")
        full = (1 << self.cols) - 1
        if any(r & ~full for r in self.bits):
            raise ValueError("row mask has bits beyond the column count")

    def row_mask(self, i: int) -> int:
        if not 0 <= i < self.rows:
            raise ValueError(f"row {i} out of range")
        return self.bits[i]

    def to_rows(self) -> list[list[int]]:
        return bit_table(self.bits, self.cols).tolist()

    def rank(self) -> int:
        """Size of a basis of the rows, each kept under its leading bit.

        A row is reduced by the basis row with its leading bit until that
        bit is new (the row joins the basis) or the row is zero; each step
        lowers the leading bit.
        """
        basis: dict[int, int] = {}
        for row in self.bits:
            while row:
                lead = row.bit_length()
                if lead not in basis:
                    basis[lead] = row
                    break
                row ^= basis[lead]
        return len(basis)

    def inverse(self) -> "Gf2Matrix":
        """Gauss-Jordan inverse; raises ``ValueError`` if singular."""
        if self.rows != self.cols:
            raise ValueError("only square matrices can be inverted")
        n = self.rows
        work = list(self.bits)
        aug = [1 << i for i in range(n)]
        for col in range(n):
            pivot = next(
                (r for r in range(col, n) if (work[r] >> col) & 1),
                None,
            )
            if pivot is None:
                raise ValueError("matrix is singular over GF(2)")
            work[col], work[pivot] = work[pivot], work[col]
            aug[col], aug[pivot] = aug[pivot], aug[col]
            for r in range(n):
                if r != col and (work[r] >> col) & 1:
                    work[r] ^= work[col]
                    aug[r] ^= aug[col]
        return Gf2Matrix(n, n, tuple(aug))
