"""Splitting a presentation into central generators and hyperbolic pairs.

The anticommutation table of a presentation is an alternating bilinear
form over GF(2).  Symplectic Gram-Schmidt on that form rewrites the
generator set as ``r`` monomials that commute with everything (spanning
the radical of the form, hence the centre of the algebra) plus ``s``
pairs that anticommute within the pair and commute with all the rest,
with ``r + 2s = m``.  The tensor factorization of the algebra into
single-generator and pair subalgebras reads off directly.

The reduction runs on exponent-vector bitmasks, and its output is
them: a :class:`Decomposition` records each new generator as its mask
and its square, and the basis change is those masks stacked as rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapExceeded
from .gf2 import Gf2Matrix, bit_table, gram_parity, row_masks
from .presentation import AlgebraPresentation, SignedMonomial

# Largest number of generators decomposed (or read from a file): the
# checks hold m x m tables, and one uint64 table at m = 2048 is 32 MiB.
MAX_M = 2048


@dataclass(frozen=True)
class Decomposition:
    """Result of the symplectic reduction of a presentation.

    ``masks[i]`` is the exponent mask of new generator ``g_i`` (the
    monomial of sign +1 with that mask) and ``squares[i]`` its square.
    Both have length m, in one order: the ``r`` centrals first, then the
    ``s`` hyperbolic pairs interleaved, pair ``t`` being
    ``(g_{r+2t}, g_{r+2t+1})``.  :attr:`basis_change` stacks the masks as
    rows in that order.  It is invertible over GF(2), so the new
    monomials generate the whole algebra.
    """

    presentation: AlgebraPresentation
    r: int
    masks: tuple[int, ...]
    squares: tuple[int, ...]

    @property
    def s(self) -> int:
        return (len(self.masks) - self.r) // 2

    @property
    def new_generators(self) -> tuple[SignedMonomial, ...]:
        """New generators in basis_change row order."""
        m = self.presentation.m
        return tuple(SignedMonomial(1, g, m) for g in self.masks)

    @property
    def basis_change(self) -> Gf2Matrix:
        """The new generators' exponent masks as the rows of an m x m matrix."""
        return Gf2Matrix(len(self.masks), self.presentation.m, self.masks)

    def normal_presentation(self) -> AlgebraPresentation:
        """The presentation satisfied by the new generators.

        All pairs commute except the two members of each hyperbolic pair:
        the anticommutation table is zero apart from
        ``(r + 2i, r + 2i + 1)``.
        """
        anti = [(self.r + 2 * i, self.r + 2 * i + 1) for i in range(self.s)]
        return AlgebraPresentation(self.squares, anti)

    def validate(self) -> None:
        """Re-check every structural invariant; raises ``ValueError``.

        Let G be the basis change (row i the exponent mask of the new
        generator g_i) and M the presentation's own product-sign table, so
        that (+1, x)(+1, y) has sign (-1)^(y^T M x).  M is read from the
        presentation, not from :func:`form_matrix`, so the check shares no
        step with :func:`decompose`.  The Gram matrix Q = G M G^T over
        GF(2) (:func:`product_sign_gram`, exact at every m) then holds
        every pair at once: Q[i, i] is the sign of g_i squared, and g_i and
        g_j anticommute exactly when Q[i, j] + Q[j, i] is odd (the
        diagonal of M adds 2 |g_i & g_j & kneg| to that sum).

        Once Q + Q^T is the hyperbolic pattern, only the central rows of G
        need an elimination for invertibility.  Let sum_i c_i g_i = 0 be a
        dependency of the rows.  The form B(x, y) = x^T (M + M^T) y is
        bilinear, and B(g_i, g_j) = (Q + Q^T)[i, j], so pairing the
        dependency with v_t = g_{r+2t+1} leaves only c_{r+2t} (u_t is the
        one row that v_t pairs with), and pairing it with u_t leaves only
        c_{r+2t+1}: both are 0.  So G is invertible exactly when its r
        central rows are independent.

        The checks run in order: the record's shape (m masks below 2**m,
        m squares, 0 <= r <= m with m - r even), then each square in row
        order, then the commutation pattern, which must be exactly the
        hyperbolic pairs (the first failing pair (i, j), i < j, is named
        in row-major order), then the GF(2) rank of the central rows.
        """
        P = self.presentation
        m = P.m
        masks, r = self.masks, self.r
        if len(masks) != m:
            raise ValueError(f"{len(masks)} masks recorded for m = {m} generators")
        if len(self.squares) != m:
            raise ValueError(f"{len(self.squares)} squares recorded for m = {m} generators")
        if not 0 <= r <= m or (m - r) % 2:
            raise ValueError(f"r = {r} leaves no whole pairs among m = {m} generators")
        if min(masks) < 0 or max(masks) >> m:
            raise ValueError(f"a recorded mask is out of range for m = {m}")
        Q = product_sign_gram(P, masks)
        bad = np.array(self.squares) != np.where(Q.diagonal(), -1, 1)
        if bad.any():
            raise ValueError(f"recorded square of generator {int(np.argmax(bad))} is wrong")
        # anti is symmetric with a zero diagonal, so it is the hyperbolic
        # pattern when its superdiagonal is and it has no other set cell
        anti = Q ^ Q.T
        pattern = np.zeros(m - 1, dtype=np.uint8)
        pattern[r::2] = 1
        if np.count_nonzero(anti) != m - r or np.any(anti.diagonal(1) != pattern):
            wrong = np.triu(anti, 1)
            wrong[np.arange(m - 1), np.arange(1, m)] ^= pattern
            i, j = divmod(int(np.argmax(wrong)), m)
            got = -1 if anti[i, j] else 1
            raise ValueError(
                f"generators {i}, {j} have commutation sign {got}, expected {-got}"
            )
        if Gf2Matrix(r, m, masks[:r]).rank() != r:
            raise ValueError("basis_change is singular over GF(2)")


def product_sign_gram(P: AlgebraPresentation, masks: Sequence[int]) -> np.ndarray:
    """The product-sign Gram ``Q = G M G^T`` over GF(2) of the monomials
    ``masks`` (the rows of G), as a uint8 0/1 table.

    M is the presentation's strict upper anticommutation table with the
    generators that square to -1 on its diagonal, so that ``(+1, x)(+1, y)
    = (-1)^(y^T M x) (+1, x ^ y)`` and ``Q[i, j]`` is the sign bit of
    ``g_j g_i``.  Two :func:`~qcliff.gf2.gram_parity` products, ``G (M
    G^T)``, each reduced mod 2 as it is formed: integer bit operations on
    single 64-bit words only, and no float64 sum, so Q is exact at every
    size.
    """
    m = P.m
    M = [row | (P._kneg & 1 << i) for i, row in enumerate(P._delta_gt)]
    # C = M G^T, then G C: the rows of C^T are the columns of C
    return gram_parity(masks, row_masks(gram_parity(M, masks, m).T), m)


def form_matrix(P: AlgebraPresentation) -> Gf2Matrix:
    """Symmetric zero-diagonal GF(2) matrix of the anticommutation form:
    ``T | T^T`` for the presentation's strict upper table ``T``."""
    T = bit_table(P._delta_gt, P.m)
    return Gf2Matrix(P.m, P.m, row_masks(T | T.T))


def symplectic_reduce(frows: tuple[int, ...], m: int, kneg: int = 0
                      ) -> tuple[list[int], list[tuple[int, int]], tuple[int, ...]]:
    """Core Gram-Schmidt pass over exponent-vector bitmasks.

    ``frows`` are the row bitmasks of a symmetric zero-diagonal GF(2)
    matrix F, as :func:`form_matrix` gives, and bit ``i`` of ``kneg`` is
    set when generator ``i`` squares to -1.  Pivots are always the
    lowest-index remaining vector, and its partner the lowest-index
    remaining vector pairing with it, so the output is deterministic.
    After extracting a pair ``(u, v)`` every remaining ``w`` is replaced
    by ``w + B(w,v)u + B(w,u)v``, which removes its components against
    the pair and keeps the span intact.  Returns the centrals, the pairs
    and the squares (+1 or -1) of the centrals and then of the pair
    members in order.

    Each vector carries its row sum ``fw = w^T F`` and its square bit
    ``q(w)``, packed as ``w | fw << m | q(w) << 2m`` and starting from
    ``frows[k]`` and bit ``k`` of ``kneg`` for ``w = e_k``.  Both follow
    ``w``: ``(w + x)^T F = fw + fx``, and ``q(w + x) = q(w) + q(x) +
    B(w, x)``, since ``(XY)^2 = (-1)^B(w,x) X^2 Y^2`` for the monomials
    ``X``, ``Y`` of ``w``, ``x`` and the sign of a product cancels in its
    square.

    Every pairing is a bit of the pivot pair's row sums.  The vector of
    original index ``k`` is ``e_k`` plus a sum of the pair members already
    extracted, which ``u`` and ``v`` are orthogonal to, so ``B(w, u) =
    B(e_k, u)`` is bit ``k`` of ``fu`` and ``B(w, v)`` bit ``k`` of
    ``fv``.  Bit ``k`` of ``fu`` is 0 for ``u``'s own index (F has a zero
    diagonal) and for an extracted one (that vector is orthogonal to
    ``u``; a central has a zero row sum).  So the partner is the lowest
    set bit of ``fu``, and ``u`` is central exactly when ``fu`` is 0: it
    pairs with no remaining or extracted vector, and those span GF(2)^m.
    With ``bu``, ``bv`` those bits, ``w += u`` (when ``bv``) adds ``U``
    and ``bu`` to ``q``, and leaves ``B(w, v)`` 0, as ``B(u, v) = 1``; so
    ``w += v`` (when ``bu``) adds ``V`` alone.  One move of the pack,
    ``(0, U, V, U ^ V ^ q)[2 bu + bv]``, covers the four cases.
    """
    low, q_bit = (1 << m) - 1, 1 << 2 * m
    packs = [1 << k | frows[k] << m | (kneg >> k & 1) << 2 * m for k in range(m)]
    remaining = list(range(m))
    centrals: list[int] = []
    pairs: list[tuple[int, int]] = []
    while remaining:
        U = packs[remaining.pop(0)]
        fu = U >> m & low
        if not fu:
            centrals.append(U)
            continue
        partner = (fu & -fu).bit_length() - 1
        remaining.remove(partner)
        V = packs[partner]
        fv = V >> m & low
        pairs.append((U, V))
        moves = (0, U, V, U ^ V ^ q_bit)
        for k in remaining:
            packs[k] ^= moves[(fu >> k & 1) << 1 | fv >> k & 1]
    ordered = centrals + [X for pair in pairs for X in pair]
    return ([X & low for X in centrals], [(U & low, V & low) for U, V in pairs],
            tuple(-1 if X >> 2 * m else 1 for X in ordered))


def decompose(P: AlgebraPresentation) -> Decomposition:
    """Symplectic Gram-Schmidt decomposition of a presentation.

    Total and deterministic up to ``m = MAX_M`` generators, past which it
    raises :class:`~qcliff.errors.CapExceeded`; the returned value passes
    :meth:`Decomposition.validate`.
    """
    if P.m > MAX_M:
        raise CapExceeded(f"m = {P.m} generators exceeds the cap {MAX_M}")
    frows = tuple(form_matrix(P).bits)
    centrals, pairs, squares = symplectic_reduce(frows, P.m, P._kneg)
    masks = (*centrals, *(g for pair in pairs for g in pair))
    out = Decomposition(P, len(centrals), masks, squares)
    out.validate()
    return out
