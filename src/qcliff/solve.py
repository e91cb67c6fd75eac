"""Minimal-order monomial matrix families for a prescribed amicability pattern.

Given a symmetric table ``lam`` of +1 (amicable) / -1 (anti-amicable)
requirements ``D_j @ D_k.T == lam[j,k] * D_k @ D_j.T``, any family of
orthogonal monomial matrices with ``D_j @ D_j == kappa_j * I`` realizes
``lam`` precisely when generator ``j`` and ``k`` anticommute iff
``lam[j,k] * kappa_j * kappa_k == -1``.  The solver sweeps all sign
assignments ``kappa`` (modulo the global flip, which changes nothing),
classifies each induced presentation, and keeps the assignment with the
smallest irreducible order.  The matrices themselves come from the
representation builder and are re-verified pair by pair before returning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

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


def solve(lam: LambdaPattern, max_n: int = DEFAULT_SOLVE_CAP) -> SolveResult:
    """Minimal-order monomial realization of an amicability pattern.

    Exhausts sign assignments with ``kappa_1 = +1`` in lexicographic
    order (+1 before -1), keeps the first assignment reaching the
    minimal irreducible order, builds the generator images for it and
    re-verifies every pairwise condition by exact multiplication.
    """
    n = lam.n
    if n < 2:
        raise ValueError("need at least two matrices")
    if n > max_n:
        raise CapExceeded(f"kappa sweep for n={n} exceeds the cap {max_n}")
    neg_rows = lam.neg_masks()
    best_order, best_mask = None, 0
    for c in range(1 << (n - 1)):
        # candidate bits map big-endian onto positions 1..n-1; position 0
        # stays +1, quotienting out the global sign flip
        kappa_mask = 0
        for i in range(1, n):
            if (c >> (n - 1 - i)) & 1:
                kappa_mask |= 1 << i
        order = _irrep_order_masks(neg_rows, n, kappa_mask)
        if best_order is None or order < best_order:
            best_order, best_mask = order, kappa_mask

    kappa = tuple(-1 if (best_mask >> i) & 1 else 1 for i in range(n))
    pres = presentation_from(lam, kappa)
    wt = classify_presentation(pres)
    if wt.irrep_order != best_order:
        raise VerificationError("sweep fast path disagrees with full classification")
    rep = minimal_images(pres)
    result = SolveResult(kappa, pres, wt, best_order, rep.generator_images)
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
