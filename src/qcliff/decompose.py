"""Splitting a presentation into central generators and hyperbolic pairs.

The anticommutation table of a presentation is an alternating bilinear
form over GF(2).  Symplectic Gram-Schmidt on that form rewrites the
generator set as ``r`` monomials that commute with everything (spanning
the radical of the form, hence the centre of the algebra) plus ``s``
pairs that anticommute within the pair and commute with all the rest,
with ``r + 2s = m``.  The tensor factorization of the algebra into
single-generator and pair subalgebras reads off directly.

The reduction runs on exponent-vector bitmasks, and its output keeps
them: each new generator is a :class:`SignedMonomial` holding its mask,
and the basis change is those masks stacked as rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .gf2 import Gf2Matrix, xor_rows
from .presentation import AlgebraPresentation, SignedMonomial


class Central(NamedTuple):
    element: SignedMonomial
    square: int


class HyperbolicPair(NamedTuple):
    first: SignedMonomial
    first_square: int
    second: SignedMonomial
    second_square: int


@dataclass(frozen=True)
class Decomposition:
    """Result of the symplectic reduction of a presentation.

    The new generators are ordered centrals first, then the pairs
    interleaved ``(first_1, second_1, first_2, ...)``;
    :attr:`basis_change` stacks their exponent masks as rows in that
    order.  It is invertible over GF(2), so the new monomials generate
    the whole algebra.
    """

    presentation: AlgebraPresentation
    centrals: tuple[Central, ...]
    pairs: tuple[HyperbolicPair, ...]

    @property
    def r(self) -> int:
        return len(self.centrals)

    @property
    def s(self) -> int:
        return len(self.pairs)

    @property
    def new_generators(self) -> tuple[SignedMonomial, ...]:
        """New generators in basis_change row order."""
        out: list[SignedMonomial] = [c.element for c in self.centrals]
        for p in self.pairs:
            out.append(p.first)
            out.append(p.second)
        return tuple(out)

    @property
    def basis_change(self) -> Gf2Matrix:
        """The new generators' exponent masks as the rows of an m x m matrix."""
        masks = tuple(g.mask for g in self.new_generators)
        return Gf2Matrix(len(masks), self.presentation.m, masks)

    @property
    def new_generator_squares(self) -> tuple[int, ...]:
        out: list[int] = [c.square for c in self.centrals]
        for p in self.pairs:
            out.append(p.first_square)
            out.append(p.second_square)
        return tuple(out)

    def normal_presentation(self) -> AlgebraPresentation:
        """The presentation satisfied by the new generators.

        All pairs commute except the two members of each hyperbolic pair:
        the anticommutation table is zero apart from
        ``(r + 2i, r + 2i + 1)``.
        """
        anti = [(self.r + 2 * i, self.r + 2 * i + 1) for i in range(self.s)]
        return AlgebraPresentation(self.new_generator_squares, anti)

    def validate(self) -> None:
        """Re-check every structural invariant; raises ``ValueError``."""
        P = self.presentation
        if self.r + 2 * self.s != P.m:
            raise ValueError(f"r + 2s = {self.r + 2 * self.s} differs from m = {P.m}")
        basis_change = self.basis_change
        if not basis_change.is_invertible():
            raise ValueError("basis_change is singular over GF(2)")
        gens = self.new_generators
        squares = self.new_generator_squares
        for row, g in enumerate(gens):
            if g.sign != 1:
                raise ValueError("new generators must carry sign +1")
            if P.square_sign(g) != squares[row]:
                raise ValueError(f"recorded square of generator {row} is wrong")
        # pair (i, j) anticommutes iff g_i^T D g_j + g_j^T D g_i is odd,
        # D the presentation's own upper-triangle table; c_i = g_i^T D.
        masks = basis_change.bits
        c = [xor_rows(P._delta_gt, g) for g in masks]
        for i in range(len(gens)):
            ci, gi = c[i], masks[i]
            partner = i + 1 if i >= self.r and (i - self.r) % 2 == 0 else -1
            for j in range(i + 1, len(gens)):
                anti = ((ci & masks[j]).bit_count() + (c[j] & gi).bit_count()) & 1
                if anti != (j == partner):
                    raise ValueError(
                        f"generators {i}, {j} have commutation sign "
                        f"{-1 if anti else 1}, expected {-1 if j == partner else 1}"
                    )


def form_matrix(P: AlgebraPresentation) -> Gf2Matrix:
    """Symmetric zero-diagonal GF(2) matrix of the anticommutation form."""
    rows = []
    for i in range(P.m):
        mask = P._delta_gt[i]
        for lo in range(i):
            mask |= ((P._delta_gt[lo] >> i) & 1) << lo
        rows.append(mask)
    return Gf2Matrix(P.m, P.m, tuple(rows))


def symplectic_reduce(frows: tuple[int, ...], m: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Core Gram-Schmidt pass over exponent-vector bitmasks.

    ``frows`` are the row bitmasks of a symmetric GF(2) matrix, as
    :func:`form_matrix` and the solver's rank-2 update both give; the
    symmetry lets ``B(w, v)`` be read as ``(v^T F) w``, one row sum per
    pivot vector.  Pivots are always the lowest-index remaining vector,
    and its partner the lowest-index remaining vector pairing with it, so
    the output is deterministic.  After extracting a pair ``(u, v)`` every
    remaining ``w`` is replaced by ``w + B(w,v)u + B(w,u)v``, which
    removes its components against the pair and keeps the span intact.
    """
    remaining = [1 << i for i in range(m)]
    centrals: list[int] = []
    pairs: list[tuple[int, int]] = []
    while remaining:
        u = remaining.pop(0)
        fu = xor_rows(frows, u)
        partner = None
        for idx, v in enumerate(remaining):
            if (fu & v).bit_count() & 1:
                partner = idx
                break
        if partner is None:
            centrals.append(u)
            continue
        v = remaining.pop(partner)
        pairs.append((u, v))
        fv = xor_rows(frows, v)
        fixed = []
        for w in remaining:
            if (fv & w).bit_count() & 1:
                w ^= u
            if (fu & w).bit_count() & 1:
                w ^= v
            fixed.append(w)
        remaining = fixed
    return centrals, pairs


def decompose(P: AlgebraPresentation) -> Decomposition:
    """Symplectic Gram-Schmidt decomposition of a presentation.

    Total and deterministic; the returned value passes
    :meth:`Decomposition.validate`.
    """
    frows = tuple(form_matrix(P).bits)
    central_masks, pair_masks = symplectic_reduce(frows, P.m)
    m = P.m
    centrals = tuple(
        Central(SignedMonomial(1, c, m), P.square_sign_mask(c)) for c in central_masks
    )
    pairs = tuple(
        HyperbolicPair(
            SignedMonomial(1, g, m),
            P.square_sign_mask(g),
            SignedMonomial(1, d, m),
            P.square_sign_mask(d),
        )
        for g, d in pair_masks
    )
    out = Decomposition(P, centrals, pairs)
    out.validate()
    return out
