"""Minimal-order monomial matrix families for a prescribed amicability pattern.

Given a symmetric table ``lam`` of +1 (amicable) / -1 (anti-amicable)
requirements ``D_j @ D_k.T == lam[j,k] * D_k @ D_j.T``, any family of
orthogonal monomial matrices with ``D_j @ D_j == kappa_j * I`` realizes
``lam`` precisely when generator ``j`` and ``k`` anticommute iff
``lam[j,k] * kappa_j * kappa_k == -1``.  The solver first computes the
minimal irreducible order exactly from two classifications (see
:func:`_order_floor`), then sweeps the sign assignments ``kappa`` with the
first square +1 in lexicographic order and stops at the first one whose
order meets that floor.  The matrices themselves come from the
representation builder and are re-verified pair by pair before returning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .decompose import symplectic_reduce
from .errors import CapExceeded, VerificationError
from .gf2 import bilinear_parity
from .matrices import MonomialMatrix, lambda_of_pair
from .presentation import AlgebraPresentation
from .represent import minimal_images
from .structure import WedderburnType, classify_presentation, wedderburn_case

DEFAULT_SOLVE_CAP = 16


@dataclass(frozen=True)
class LambdaPattern:
    """Symmetric n x n table of +1/-1 with an unread diagonal."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("pattern needs n >= 1")
        if len(self.rows) != self.n or any(len(r) != self.n for r in self.rows):
            raise ValueError("pattern table must be n x n")
        for j in range(self.n):
            for k in range(self.n):
                if j == k:
                    continue
                v = self.rows[j][k]
                if v not in (-1, 1):
                    raise ValueError(f"lambda[{j}][{k}] must be +1 or -1, got {v!r}")
                if v != self.rows[k][j]:
                    raise ValueError(f"lambda table not symmetric at ({j}, {k})")

    @classmethod
    def from_pairs(cls, n: int, pairs: dict[tuple[int, int], int]) -> "LambdaPattern":
        """Build from 0-based pair values; every pair j < k must be given."""
        rows = [[0] * n for _ in range(n)]
        for (j, k), v in pairs.items():
            if j == k or not (0 <= j < n and 0 <= k < n):
                raise ValueError(f"bad pair ({j}, {k}) for n={n}")
            lo, hi = (j, k) if j < k else (k, j)
            if rows[lo][hi] not in (0, v):
                raise ValueError(f"conflicting values for pair ({lo}, {hi})")
            rows[lo][hi] = rows[hi][lo] = v
        missing = [
            (j, k) for j in range(n) for k in range(j + 1, n) if rows[j][k] == 0
        ]
        if missing:
            raise ValueError(f"missing lambda pairs: {missing}")
        return cls(n, tuple(tuple(r) for r in rows))

    @classmethod
    def constant(cls, n: int, value: int) -> "LambdaPattern":
        return cls.from_pairs(
            n, {(j, k): value for j in range(n) for k in range(j + 1, n)}
        )

    def get(self, j: int, k: int) -> int:
        if j == k:
            raise ValueError("the diagonal of a lambda pattern is undefined")
        if not (0 <= j < self.n and 0 <= k < self.n):
            raise ValueError(f"index ({j}, {k}) out of range")
        return self.rows[j][k]

    def neg_masks(self) -> tuple[int, ...]:
        """Row bitmasks of the anti-amicable (-1) entries."""
        out = []
        for j in range(self.n):
            mask = 0
            for k in range(self.n):
                if k != j and self.rows[j][k] == -1:
                    mask |= 1 << k
            out.append(mask)
        return tuple(out)


@dataclass(frozen=True)
class SolveResult:
    kappa: tuple[int, ...]
    presentation: AlgebraPresentation
    wedderburn: WedderburnType
    b: int
    D: tuple[MonomialMatrix, ...]


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
    anti = [
        (j, k)
        for j in range(lam.n)
        for k in range(j + 1, lam.n)
        if lam.rows[j][k] * kappa[j] * kappa[k] == -1
    ]
    return AlgebraPresentation(kappa, anti)


def _irrep_order_masks(neg_rows: Sequence[int], n: int, kappa_mask: int) -> int:
    """Irreducible order for one sign assignment, all in bitmask arithmetic.

    ``kappa_mask`` has bit j set when ``kappa_j == -1``.  Builds the
    commutation form of ``presentation_from(lam, kappa)`` as a rank-2
    update of the anti-amicable rows, reduces it, and hands the square
    signs of the new generators to :func:`wedderburn_case`.  Agrees with
    ``classify_presentation(presentation_from(...)).irrep_order`` on every
    candidate; ``tests/test_solve.py`` checks this exhaustively for small n.
    """
    full = (1 << n) - 1
    frows = []
    for j in range(n):
        kk_neg = (~kappa_mask & full) if (kappa_mask >> j) & 1 else kappa_mask
        frows.append((neg_rows[j] ^ kk_neg) & ~(1 << j) & full)
    centrals, pairs = symplectic_reduce(tuple(frows), n)
    dgt = [frows[i] & (full << (i + 1)) for i in range(n)]

    def square(e: int) -> int:
        neg = bilinear_parity(dgt, e, e) ^ (e & kappa_mask).bit_count()
        return -1 if neg & 1 else 1

    case = wedderburn_case(
        (square(c) for c in centrals), ((square(g), square(d)) for g, d in pairs)
    )
    return case.irrep_order(len(pairs))


def _order_floor(lam: LambdaPattern) -> int:
    """Minimal irreducible order over all sign assignments, from two classifications.

    Write L for the anti-amicable (``lam == -1``) adjacency matrix, k for
    the bit vector of ``kappa == -1`` and q_k(x) for the square sign bit of
    the monomial with exponent vector x in ``presentation_from(lam, kappa)``.

    - q_k(x) = q_L(x) + (1.x)(k.x) over GF(2), where q_L is q at
      ``kappa = +1``.
    - The R/C/H rule is equivalent to irrep order ``2**(n - d)``, with d
      the largest dimension of a subspace on which q vanishes.
    - On the even-weight hyperplane E, q_k equals q_L.  A q_k-null
      subspace meets E in a q_L-null one of codimension at most 1, so
      d_k <= d_L + 1 for every k, and k = 0 gives d_L.
    - d_L + 1 is reached iff E holds a q_L-null subspace W0 of dimension
      d_L, that is iff the presentation on the basis x_i = e_0 + e_i of E
      (x_i squares to ``lam[0][i]``; x_i, x_j anticommute iff
      ``lam[0][i] * lam[0][j] * lam[i][j] == -1``) has half the order of
      the ``kappa = +1`` one.
    - W0 + <e_0> is then null for the k with k.e_0 = q_L(e_0) = 0 and
      k.y = B_L(y, e_0) on W0; that k has ``kappa_0 = +1``, so the floor
      is reached on the half sweep too.
    """
    n = lam.n
    order_l = classify_presentation(presentation_from(lam, (1,) * n)).irrep_order
    rows = lam.rows
    even = AlgebraPresentation(
        [rows[0][i] for i in range(1, n)],
        [
            (i - 1, j - 1)
            for i in range(1, n)
            for j in range(i + 1, n)
            if rows[0][i] * rows[0][j] * rows[i][j] == -1
        ],
    )
    order_e = classify_presentation(even).irrep_order
    return order_l // 2 if order_e == order_l // 2 else order_l


def solve(lam: LambdaPattern, max_n: int = DEFAULT_SOLVE_CAP,
          max_order: Optional[int] = None, *, floor: Optional[int] = None) -> SolveResult:
    """Minimal-order monomial realization of an amicability pattern.

    Computes the minimal irreducible order with :func:`_order_floor`,
    then walks sign assignments with ``kappa_1 = +1`` in lexicographic
    order (+1 before -1) and stops at the first one whose order equals
    that floor.  The floor is a lower bound, so this is the first
    minimiser the full sweep would keep; a candidate below the floor, or
    a sweep that never reaches it, raises ``VerificationError``.  Builds
    the generator images for the chosen assignment and re-verifies every
    pairwise condition by exact multiplication.

    ``CapExceeded`` comes before the floor if ``n > max_n``, and before
    the sweep if the floor is above ``max_order`` (no cap when None).
    A caller that already holds ``_order_floor(lam)`` passes it as
    ``floor``; any other value breaks the minimality argument.
    """
    n = lam.n
    if n < 2:
        raise ValueError("need at least two matrices")
    if n > max_n:
        raise CapExceeded(f"kappa sweep for n={n} exceeds the cap {max_n}")
    if floor is None:
        floor = _order_floor(lam)
    if max_order is not None and floor > max_order:
        raise CapExceeded(f"irreducible order {floor} exceeds the cap {max_order}")
    neg_rows = lam.neg_masks()
    for c in range(1 << (n - 1)):
        # candidate bits map big-endian onto positions 1..n-1; position 0
        # stays +1, quotienting out the global sign flip
        kappa_mask = 0
        for i in range(1, n):
            if (c >> (n - 1 - i)) & 1:
                kappa_mask |= 1 << i
        order = _irrep_order_masks(neg_rows, n, kappa_mask)
        if order < floor:
            raise VerificationError(
                f"candidate {c} has order {order} below the floor {floor}"
            )
        if order == floor:
            break
    else:
        raise VerificationError(f"no candidate reaches the order floor {floor}")

    kappa = tuple(-1 if (kappa_mask >> i) & 1 else 1 for i in range(n))
    pres = presentation_from(lam, kappa)
    wt = classify_presentation(pres)
    if wt.irrep_order != floor:
        raise VerificationError("sweep fast path disagrees with full classification")
    rep = minimal_images(pres)
    result = SolveResult(kappa, pres, wt, floor, rep.generator_images)
    verify_solution(lam, result)
    return result


def verify_solution(lam: LambdaPattern, result: SolveResult) -> None:
    """Exact pairwise check of the defining conditions of a solution."""
    D = result.D
    if len(D) != lam.n:
        raise VerificationError(f"expected {lam.n} matrices, got {len(D)}")
    if result.b != result.wedderburn.irrep_order:
        raise VerificationError("recorded order differs from the classification")
    for j in range(lam.n):
        if D[j].order != result.b:
            raise VerificationError(f"matrix {j} has order {D[j].order} != {result.b}")
        for k in range(j + 1, lam.n):
            got = lambda_of_pair(D[j], D[k], side="B")
            if got != lam.get(j, k):
                raise VerificationError(
                    f"pair ({j}, {k}) realizes lambda={got}, required {lam.get(j, k)}"
                )


def rho(N: int) -> int:
    """Hurwitz-Radon function: for ``N = odd * 2**(4d+c)``, ``2**c + 8d``."""
    if N < 1:
        raise ValueError("rho is defined for N >= 1")
    v = (N & -N).bit_length() - 1
    d, c = divmod(v, 4)
    return (1 << c) + 8 * d


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
    """Check a family for mutual anti-amicability and the size bound rho(N)."""
    mats = list(family)
    if not mats:
        raise ValueError("empty family")
    order = mats[0].order
    if any(m.order != order for m in mats):
        raise ValueError("family mixes matrix orders")
    anti = all(
        lambda_of_pair(mats[j], mats[k], side="B") == -1
        for j in range(len(mats))
        for k in range(j + 1, len(mats))
    )
    bound = rho(order)
    return HurwitzRadonReport(
        order=order,
        size=len(mats),
        rho=bound,
        mutually_anti_amicable=anti,
        within_bound=len(mats) <= bound,
    )
