"""Finitely presented real algebras on sign-squared generators.

An :class:`AlgebraPresentation` fixes ``m`` generators ``a1 .. am`` with
``ai^2 = kappa_i`` (``kappa_i = +1`` or ``-1``) and a commute/anticommute
bit for every unordered pair of generators.  Products of generators reduce
to *signed monomials*: a sign together with a GF(2) exponent vector, the
generators kept in increasing index order.  The exponent vector is stored
as a bitmask (bit ``i`` for ``a(i+1)``) from construction on.  The sign of
a product is a GF(2) bilinear form in the masks; the pipeline reads it for
whole lists of monomials at once from
:func:`~qcliff.decompose.product_sign_gram`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .gf2 import bilinear_parity, bit_table


@dataclass(frozen=True, slots=True)
class SignedMonomial:
    """A sign in {-1,+1} and a GF(2) exponent vector of length ``m``.

    The vector is the bitmask ``mask``, bit ``i`` standing for generator
    ``a(i+1)``: ``SignedMonomial(1, 0b101, 3)`` is the product ``a1*a3``
    and the identity element is ``SignedMonomial(1, 0, m)``.
    """

    sign: int
    mask: int
    m: int

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")
        if not 0 <= self.mask < 1 << self.m:
            raise ValueError(f"exponent mask {self.mask!r} out of range for m={self.m}")

    @property
    def exps(self) -> tuple[int, ...]:
        """The exponent vector as 0/1 bits, ``a1`` first."""
        return tuple((self.mask >> i) & 1 for i in range(self.m))

    def __str__(self) -> str:
        word = "".join(f"a{i + 1}" for i, e in enumerate(self.exps) if e) or "1"
        return ("+" if self.sign > 0 else "-") + word


class AlgebraPresentation:
    """Generators with squares ``kappa`` and a pairwise anticommutation table.

    Parameters
    ----------
    kappa:
        Sequence of +1/-1 generator squares; its length fixes ``m``.
    anticommuting:
        Pairs ``(i, j)`` of 0-based generator indices that anticommute.
        Unlisted pairs commute.  Order inside a pair does not matter.
    """

    __slots__ = ("m", "kappa", "_delta_gt", "_kneg")

    def __init__(self, kappa: Sequence[int], anticommuting: Iterable[tuple[int, int]] = ()):
        kappa = tuple(kappa)
        if not kappa:
            raise ValueError("presentation needs at least one generator")
        if any(k not in (-1, 1) for k in kappa):
            raise ValueError(f"kappa entries must be +1 or -1, got {kappa!r}")
        m = len(kappa)
        rows = [0] * m
        for i, j in anticommuting:
            if i == j:
                raise ValueError(f"anticommutation pair ({i}, {j}) has equal indices")
            lo, hi = (i, j) if i < j else (j, i)
            if lo < 0 or hi >= m:
                raise ValueError(f"pair ({i}, {j}) out of range for m={m}")
            rows[lo] |= 1 << hi
        self.m = m
        self.kappa = kappa
        # row i holds the anticommuting partners of i with larger index
        self._delta_gt = tuple(rows)
        self._kneg = sum(1 << i for i, k in enumerate(kappa) if k < 0)

    @classmethod
    def from_upper_rows(cls, kappa: Sequence[int], rows: Sequence[int]) -> "AlgebraPresentation":
        """The presentation whose generator ``i`` anticommutes with a ``j > i``
        exactly when bit ``j`` of ``rows[i]`` is set.

        ``rows`` is the table the constructor builds from its pairs, so a
        reader holding the table skips the walk over pairs.
        """
        P = cls(kappa)
        rows = tuple(rows)
        if len(rows) != P.m or any(r >> P.m or r & ((2 << i) - 1) for i, r in enumerate(rows)):
            raise ValueError(f"expected {P.m} strictly upper triangular row masks")
        P._delta_gt = rows
        return P

    # -- presentation table -------------------------------------------------

    def anticommuting_pairs(self) -> list[tuple[int, int]]:
        """The pairs ``(i, j)``, ``i < j``, that anticommute, in row-major order."""
        i, j = bit_table(self._delta_gt, self.m).nonzero()
        return list(zip(i.tolist(), j.tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraPresentation):
            return NotImplemented
        return self.kappa == other.kappa and self._delta_gt == other._delta_gt

    def __hash__(self) -> int:
        return hash((self.kappa, self._delta_gt))

    def __repr__(self) -> str:
        return (
            f"AlgebraPresentation(kappa={self.kappa}, "
            f"anticommuting={self.anticommuting_pairs()})"
        )

    # -- monomial signs --------------------------------------------------------

    def _check(self, x: SignedMonomial) -> None:
        if x.m != self.m:
            raise ValueError(
                f"monomial has {x.m} exponent bits, presentation has m={self.m}"
            )

    def commutation_sign(self, x: SignedMonomial, y: SignedMonomial) -> int:
        """+1 if ``x`` and ``y`` commute, -1 if they anticommute.

        Moving ``y`` past ``x`` crosses each generator ``i`` of ``x`` with
        each ``j != i`` of ``y`` once, so the sign is the parity of the
        anticommuting pairs among those crossings, read from the upper
        table both ways.
        """
        self._check(x)
        self._check(y)
        rows = self._delta_gt
        par = bilinear_parity(rows, y.mask, x.mask) ^ bilinear_parity(rows, x.mask, y.mask)
        return -1 if par else 1
