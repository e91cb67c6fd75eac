"""Minimal-order monomial matrix families for a prescribed amicability pattern.

Given a symmetric table ``lam`` of +1 (amicable) / -1 (anti-amicable)
requirements ``D_j @ D_k.T == lam[j,k] * D_k @ D_j.T``, any family of
orthogonal monomial matrices with ``D_j @ D_j == kappa_j * I`` realizes
``lam`` precisely when generator ``j`` and ``k`` anticommute iff
``lam[j,k] * kappa_j * kappa_k == -1``, a GF(2) row xor on the masks of
:class:`LambdaPattern`.  The solver builds the first minimal-order sign
assignment ``kappa`` directly, from the decomposition of the
kappa-independent even subalgebra and a greedy GF(2) bit fixing (see
:func:`_minimal_kappa`).  The matrices themselves come from the
representation builder as Kronecker factors, and every pair is re-checked
against ``lam`` on those factors before returning, with no image expanded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .decompose import Decomposition, decompose, form_matrix
from .errors import CapExceeded, VerificationError
from .gf2 import bit_table, gram_parity, row_masks
from .matrices import MonomialMatrix
from .presentation import AlgebraPresentation
from .represent import Representation, minimal_images
from .structure import StructureCase, WedderburnType, classify


@dataclass(frozen=True)
class LambdaPattern:
    """A symmetric amicability pattern as ``n`` GF(2) row masks: bit ``k``
    of ``neg[j]`` is set when ``lam[j][k] == -1`` (anti-amicable), clear
    when +1 (amicable) and on the unread diagonal.  Under squares with bits
    ``k_i = [kappa_i == -1]`` a pair anticommutes iff ``neg_jk ^ k_j ^ k_k``.
    """

    n: int
    neg: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.n
        if n < 1:
            raise ValueError("pattern needs n >= 1")
        if len(self.neg) != n or any(r < 0 or r >> n for r in self.neg):
            raise ValueError("pattern needs n row masks below 2**n")
        table = bit_table(self.neg, n)
        if table.diagonal().any():
            raise ValueError("lambda row masks must leave the diagonal bits clear")
        asym = table != table.T
        if asym.any():
            j, k = divmod(int(np.argmax(asym)), n)
            raise ValueError(f"lambda table not symmetric at ({j}, {k})")

    def get(self, j: int, k: int) -> int:
        if j == k:
            raise ValueError("the diagonal of a lambda pattern is undefined")
        if not (0 <= j < self.n and 0 <= k < self.n):
            raise ValueError(f"index ({j}, {k}) out of range")
        return -1 if self.neg[j] >> k & 1 else 1


@dataclass(frozen=True)
class SolveResult:
    """A minimal-order family, its images kept as the Kronecker factors of ``rep``."""

    kappa: tuple[int, ...]
    presentation: AlgebraPresentation
    wedderburn: WedderburnType
    b: int
    rep: Representation

    @property
    def D(self) -> tuple[MonomialMatrix, ...]:
        """The images expanded to order b, formed on first read."""
        return self.rep.generator_images


def presentation_from(lam: LambdaPattern, kappa: Sequence[int]) -> AlgebraPresentation:
    """Presentation induced on a monomial family with squares ``kappa``.

    Orthogonal monomial ``D`` with ``D @ D == kappa * I`` satisfies
    ``D.T == kappa * D``, so ``D_j D_k^T == lam D_k D_j^T`` rewrites to
    ``D_j D_k == lam kappa_j kappa_k D_k D_j``: the pair anticommutes
    exactly when that coefficient is -1.
    """
    kappa = tuple(kappa)
    if len(kappa) != lam.n:
        raise ValueError(f"kappa has length {len(kappa)}, pattern has n={lam.n}")
    kneg = sum(1 << j for j, k in enumerate(kappa) if k == -1)
    return AlgebraPresentation.from_upper_rows(kappa, _upper_rows(lam, kneg))


def _upper_rows(lam: LambdaPattern, kneg: int) -> list[int]:
    """Row masks of the strict upper anticommutation table for the square
    bits ``kneg``: row j is ``neg_j ^ kneg``, complemented when bit j of
    ``kneg`` is set, with the bits up to j cleared."""
    full = (1 << lam.n) - 1
    return [(r ^ kneg ^ (full if kneg >> j & 1 else 0)) & ~((2 << j) - 1)
            for j, r in enumerate(lam.neg)]


def _even_presentation(lam: LambdaPattern) -> AlgebraPresentation:
    """The even subalgebra E of :func:`_minimal_kappa`: ``x_i = a_0 a_i``
    squares to ``lam[0][i]``, and row i of the upper table for the square
    bits ``neg_0``, shifted down one bit, is E's row ``i - 1``."""
    neg0 = lam.neg[0]
    return AlgebraPresentation.from_upper_rows(
        [-1 if neg0 >> i & 1 else 1 for i in range(1, lam.n)],
        [r >> 1 for r in _upper_rows(lam, neg0)[1:]],
    )


def _lex_first(D: Decomposition, h: Sequence[int], a: Optional[int]) -> tuple[int, ...]:
    """Least bits ``k_i = h_i + B(u, x_i)`` (``k_0`` first) over u in the span
    of the pairs of ``D``, the decomposition of E, with ``q(u) = a`` (any u
    if ``a`` is None), ``x_i`` the generators of E.

    Each bit cuts the affine set ``u0 + span(W)`` by one linear condition
    and keeps ``k_i = 0`` unless ``q - a`` is then identically 1 on it.
    ``q(u0 + sum t_j w_j)`` is ``q(u0) + sum t_j (q(w_j) + B(u0, w_j)) +
    sum_{j<l} t_j t_l B(w_j, w_l)``, and a reduced GF(2) polynomial is
    constant iff all its other coefficients vanish, so the test is exact.

    Each w of W, and u0, carries its row sum ``c_w = w^T F`` under E's
    anticommutation form F and its square bit ``q(w)``, packed as ``w |
    c_w << n | q(w) << 2n``: ``B(w, x_i)`` is bit i of ``c_w`` and ``B(v,
    w)`` the parity of ``c_v & w``.  The squares start from ``D.squares``
    and the row sums from one Gram product; ``w + p`` then adds the packs
    and ``B(w, p)`` to the square bit, since ``q(w + p) = q(w) + q(p) +
    B(w, p)``, the recurrence of :func:`~qcliff.decompose.symplectic_reduce`.
    """
    n, low = D.presentation.m, (1 << D.presentation.m) - 1
    basis = D.masks[D.r:]
    sums = row_masks(gram_parity(basis, form_matrix(D.presentation).bits, n))
    W = [w | c << n | (s < 0) << 2 * n for w, c, s in zip(basis, sums, D.squares[D.r:])]

    def b(X: int, Y: int) -> int:
        return (X >> n & Y & low).bit_count() & 1

    def add(X: int, Y: int) -> int:
        return X ^ Y ^ b(X, Y) << 2 * n

    def reaches(U: int, W: list[int]) -> bool:
        return (a is None or U >> 2 * n == a
                or any(w >> 2 * n != b(U, w) for w in W)
                or any(b(v, w) for j, v in enumerate(W) for w in W[j + 1:]))

    U, k = 0, []
    for i, hi in enumerate(h):
        bit = 1 << n + i
        cut = next((j for j, w in enumerate(W) if w & bit), None)
        if cut is not None:
            pivot = W.pop(cut)
            W = [add(w, pivot) if w & bit else w for w in W]
            if U >> n + i & 1 != hi:
                U = add(U, pivot)
            if not reaches(U, W):
                U = add(U, pivot)
        k.append(hi ^ (U >> n + i & 1))
    return tuple(k)


def _minimal_kappa(
    lam: LambdaPattern, max_b: Optional[int] = None,
) -> tuple[Optional[tuple[int, ...]], int, Optional[Decomposition]]:
    """The least minimal-order sign assignment, its order b and, when it
    is ``kappa = +1`` (the fast exit), the decomposition of
    ``presentation_from(lam, kappa)``, which that exit has already made.
    When b is above ``max_b`` the assignment is not searched for and
    comes back None, so a caller refuses the order before the bit fixing.

    Candidates have ``kappa_0 = +1`` and are ordered by the bits
    ``k_i = [kappa_i == -1]``, ``k_1`` most significant.  Write q and B
    for the square and commutation bits of monomials.

    - ``x_i = a_0 a_i`` (i >= 1) span the even hyperplane E, squaring to
      ``lam[0][i]`` and anticommuting iff ``lam[0][i] lam[0][j] lam[i][j]
      == -1`` whatever kappa is.  ``a_0`` squares to +1 and anticommutes
      with ``x_i`` iff ``chi(x_i) = k_i + [lam[0][i] == -1]`` is 1, so
      kappa picks any linear form chi on E, and the order is E's or twice.
    - If chi vanishes on E's radical, ``chi = B(u, .)`` for one u in the
      span of E's pairs, and ``a_0 + u`` is a new central of square
      ``q(u)``: the order stays E's unless E is REAL and ``q(u) = 1``.
    - Otherwise ``a_0 + u`` (u as above on the pairs) and a central c with
      ``chi(c) = 1`` form a new pair, and the order stays E's only if the
      result is REAL: E is COMPLEX, chi equals q on E's radical (so c
      squares -1) and ``q(a_0 + u) = q(u)`` makes the number of
      quaternionic pairs even.
    - So the minimisers are the chi in the pieces ``{tau + B(u, .) :
      q(u) = a}``: tau = 0 with a = 0 (REAL) or no condition (QUATERNION,
      COMPLEX), and for COMPLEX also tau = q on E's centrals and 0 on its
      pairs, with a the parity of E's quaternionic pairs.
    - u = 0 always lies in the first piece (``q(0) = 0``), so b always
      equals E's irrep order, and ``kappa = (1, lam[0][1], ...,
      lam[0][n-1])`` (chi = 0) always reaches it.  When the ``kappa = +1``
      order is E's too, that kappa is the least minimiser.
    """
    n = lam.n
    plus = decompose(presentation_from(lam, (1,) * n))
    order_l = classify(plus).irrep_order
    D = decompose(_even_presentation(lam))
    wt = classify(D)
    # The fast exit: the bit fixing below would find kappa = +1 too, but
    # one classification is far cheaper than _lex_first at large n.
    if wt.irrep_order != order_l // 2:
        return (1,) * n, order_l, plus
    if max_b is not None and wt.irrep_order > max_b:
        return None, wt.irrep_order, None
    neg0 = [lam.neg[0] >> i & 1 for i in range(1, n)]
    pieces = [(neg0, 0 if wt.case is StructureCase.REAL else None)]
    if wt.case is StructureCase.COMPLEX:
        # row i of the inverse basis change holds x_i's coordinates in the
        # new generators, centrals first
        r, squares = D.r, D.squares
        minus = sum(1 << j for j in range(r) if squares[j] == -1)
        tau = [(row & minus).bit_count() & 1 for row in D.basis_change.inverse().bits]
        quat = sum(1 for a, b in zip(squares[r::2], squares[r + 1::2]) if a == b == -1)
        pieces.append(([t ^ s for t, s in zip(neg0, tau)], quat % 2))
    k = min(_lex_first(D, h, a) for h, a in pieces)
    return (1,) + tuple(-1 if bit else 1 for bit in k), wt.irrep_order, None


def _realize(lam: LambdaPattern, kappa: tuple[int, ...], b: int,
             D: Optional[Decomposition]) -> SolveResult:
    """Build and certify the family for ``kappa``: one decomposition (``D``
    when :func:`_minimal_kappa` made it), a classification that must give
    order ``b``, the images (verified by :func:`minimal_images`) and the
    pair check of :func:`verify_solution`, both on the factors.  The last
    is kept on purpose: it alone compares the images with ``lam``, so it
    alone sees a wrong translation into ``presentation_from``."""
    D = D or decompose(presentation_from(lam, kappa))
    pres = D.presentation
    wt = classify(D)
    if wt.irrep_order != b:
        raise VerificationError(
            f"kappa {list(kappa)} has order {wt.irrep_order}, expected {b}"
        )
    rep = minimal_images(pres, None, D)
    result = SolveResult(kappa, pres, wt, b, rep)
    verify_solution(lam, result)
    return result


def solve(lam: LambdaPattern, max_order: Optional[int] = None) -> SolveResult:
    """Minimal-order monomial realization of an amicability pattern.

    Takes the first minimal sign assignment of :func:`_minimal_kappa`
    (``kappa_0 = +1``, then lexicographic with +1 before -1), builds the
    generator images for it and re-verifies every pair condition exactly.
    ``CapExceeded`` comes as soon as the order is known, before the bit
    fixing and any image, if it is above ``max_order`` (no cap when None).
    """
    if lam.n < 2:
        raise ValueError("need at least two matrices")
    kappa, b, D = _minimal_kappa(lam, max_order)
    if max_order is not None and b > max_order:
        raise CapExceeded(f"irreducible order {b} exceeds the cap {max_order}")
    return _realize(lam, kappa, b, D)


def verify_solution(lam: LambdaPattern, result: SolveResult) -> None:
    """Exact check of a solution on its factors; names the first pair that misses ``lam``."""
    rep = result.rep
    if len(rep.sign) != lam.n:
        raise VerificationError(f"expected {lam.n} matrices, got {len(rep.sign)}")
    if not result.b == result.wedderburn.irrep_order == rep.order:
        raise VerificationError("recorded order differs from the classification")
    got = rep.pair_table[:lam.n, :lam.n]
    bad = np.argwhere(np.triu(got != np.where(bit_table(lam.neg, lam.n), -1, 1), 1)).tolist()
    if bad:
        j, k = bad[0]
        realized = int(got[j, k]) or None
        raise VerificationError(
            f"pair ({j}, {k}) realizes lambda={realized}, required {lam.get(j, k)}"
        )


def rho(N: int) -> int:
    """Hurwitz-Radon function: for ``N = odd * 2**(4d+c)``, ``2**c + 8d``."""
    if N < 1:
        raise ValueError("rho is defined for N >= 1")
    v = (N & -N).bit_length() - 1
    d, c = divmod(v, 4)
    return (1 << c) + 8 * d
