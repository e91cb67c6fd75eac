"""Plug-in assembly of Hadamard matrices from two matched matrix families.

The outer family ``A`` is a transversal of ``n = 2**m`` signed
permutation matrices of order ``n`` built as Kronecker products of 2x2
pieces: per tensor position one diagonal choice (I or Z) and one
anti-diagonal choice (X or Y), selected by the bits of the matrix index.
Distinct indices differ in some position, so supports are pairwise
disjoint, and the sum over the family is a full +-1 matrix.  Each pair
of members is amicable or anti-amicable; the inner family ``B`` must
realize the opposite pattern, which the solver provides as monomial
matrices ``D`` that are then densified against a power-of-two Hadamard
matrix ``S`` (``B_k = D_k @ S`` keeps the pattern since
``(D_j S)(D_k S)^T = b * D_j D_k^T``).  Then ``H = sum A_k (x) B_k`` has
order ``n*b`` and satisfies ``H H^T = n*b*I``: the diagonal terms supply
``n*b*I`` and opposite-sign amicability cancels every cross term.

Every bundle is verified exactly, condition by condition, before being
returned.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence

import numpy as np

from .errors import CapExceeded, VerificationError
from .matrices import (
    DenseSignMatrix,
    MonomialMatrix,
    ident2,
    lambda_of_pair,
    supports_disjoint,
    sylvester,
    x2,
    y2,
    z2,
)
from .solve import LambdaPattern, SolveResult, solve

DIAG_CHOICES = {"I": ident2, "Z": z2}
OFFDIAG_CHOICES = {"X": x2, "Y": y2}


@dataclass(frozen=True)
class TransversalSpec:
    """Per-position 2x2 choices for the outer family of ``2**m`` matrices."""

    diag: tuple[str, ...]
    offdiag: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.diag) != len(self.offdiag) or not self.diag:
            raise ValueError("diag and offdiag choices must have equal positive length")
        if any(c not in DIAG_CHOICES for c in self.diag):
            raise ValueError(f"diagonal choices must be in {sorted(DIAG_CHOICES)}")
        if any(c not in OFFDIAG_CHOICES for c in self.offdiag):
            raise ValueError(f"off-diagonal choices must be in {sorted(OFFDIAG_CHOICES)}")

    @property
    def m(self) -> int:
        return len(self.diag)

    @classmethod
    def default(cls, m: int) -> "TransversalSpec":
        if m < 1:
            raise ValueError("tensor depth m must be >= 1")
        return cls(("I",) * m, ("X",) * m)

    @classmethod
    def from_strings(cls, diag: str, offdiag: str) -> "TransversalSpec":
        return cls(tuple(diag), tuple(offdiag))


def transversal(spec: TransversalSpec) -> list[MonomialMatrix]:
    """The ``2**m`` Kronecker-product matrices selected by ``spec``.

    Index bit conventions match the package-wide row-major Kronecker
    order: the first tensor position is driven by the most significant
    bit of the matrix index.
    """
    m = spec.m
    out = []
    for k in range(1 << m):
        acc: Optional[MonomialMatrix] = None
        for i in range(m):
            if (k >> (m - 1 - i)) & 1:
                factor = OFFDIAG_CHOICES[spec.offdiag[i]]()
            else:
                factor = DIAG_CHOICES[spec.diag[i]]()
            acc = factor if acc is None else acc.tensor(factor)
        out.append(acc)
    return out


def lambda_of_transversal(A: Sequence[MonomialMatrix]) -> LambdaPattern:
    """Pairwise amicability pattern of the outer family (the "A" side)."""
    n = len(A)
    pairs = {}
    for j in range(n):
        for k in range(j + 1, n):
            lam = lambda_of_pair(A[j], A[k], side="A")
            if lam is None:
                raise ValueError(
                    f"matrices {j} and {k} are neither amicable nor anti-amicable; "
                    "not a valid transversal"
                )
            pairs[(j, k)] = lam
    return LambdaPattern.from_pairs(n, pairs)


def plug_in(A: Sequence[MonomialMatrix], B: Sequence[DenseSignMatrix]) -> DenseSignMatrix:
    """Assemble ``sum A_k (x) B_k`` and demand every entry lands in +-1."""
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


@dataclass(frozen=True)
class VerificationReport:
    n: int
    b: int
    order: int
    disjoint_supports: bool
    transversal_sum: bool
    a_orthogonal: bool
    a_lambda: bool
    b_lambda: bool
    b_gram_sum: bool
    h_matches_terms: bool
    hadamard: bool

    @property
    def passed(self) -> bool:
        return all(
            (
                self.disjoint_supports,
                self.transversal_sum,
                self.a_orthogonal,
                self.a_lambda,
                self.b_lambda,
                self.b_gram_sum,
                self.h_matches_terms,
                self.hadamard,
            )
        )

    def failures(self) -> list[str]:
        names = (
            "disjoint_supports",
            "transversal_sum",
            "a_orthogonal",
            "a_lambda",
            "b_lambda",
            "b_gram_sum",
            "h_matches_terms",
            "hadamard",
        )
        return [name for name in names if not getattr(self, name)]


@dataclass(frozen=True)
class HadamardBundle:
    n: int
    b: int
    A: tuple[MonomialMatrix, ...]
    lam: LambdaPattern
    D: tuple[MonomialMatrix, ...]
    S: DenseSignMatrix
    B: tuple[DenseSignMatrix, ...]
    H: DenseSignMatrix
    report: VerificationReport


def run_checks(
    A: Sequence[MonomialMatrix],
    lam: LambdaPattern,
    B: Sequence[DenseSignMatrix],
    H: DenseSignMatrix,
) -> VerificationReport:
    """Exact integer verification of every bundle condition."""
    n = len(A)
    b = B[0].order
    order = n * b

    disjoint = all(
        supports_disjoint(A[j], A[k]) for j in range(n) for k in range(j + 1, n)
    )
    total = np.zeros((n, n), dtype=np.int64)
    for a in A:
        total += a.to_dense()
    tsum = bool(np.all(np.abs(total) == 1))

    ident_n = MonomialMatrix.identity(n)
    a_orth = all(a @ a.transpose() == ident_n for a in A)
    a_lam = all(
        lambda_of_pair(A[j], A[k], side="A") == lam.get(j, k)
        for j in range(n)
        for k in range(j + 1, n)
    )

    grams = [[bj.array @ bk.array.T for bk in B] for bj in B]
    b_lam = all(
        np.array_equal(grams[j][k], lam.get(j, k) * grams[k][j])
        for j in range(n)
        for k in range(j + 1, n)
    )
    gram_sum = sum(grams[k][k] for k in range(n))
    b_gram = bool(np.array_equal(gram_sum, order * np.eye(b, dtype=np.int64)))

    try:
        h_match = plug_in(A, B) == H
    except ValueError:
        h_match = False

    hh = H.array @ H.array.T
    hadamard_ok = bool(np.array_equal(hh, order * np.eye(order, dtype=np.int64)))

    return VerificationReport(
        n=n,
        b=b,
        order=order,
        disjoint_supports=disjoint,
        transversal_sum=tsum,
        a_orthogonal=a_orth,
        a_lambda=a_lam,
        b_lambda=b_lam,
        b_gram_sum=b_gram,
        h_matches_terms=bool(h_match),
        hadamard=hadamard_ok,
    )


def verify_bundle(bundle: HadamardBundle) -> HadamardBundle:
    """Recompute the verification report of a stored bundle.

    Also checks what the report does not cover: ``S S^T == b I``, every
    stored ``B_k == D_k @ S``, and, when the recomputed report passes, a
    stored report equal to it (a failing report is returned as is, since
    it already fails the bundle).  Raises ``VerificationError`` naming the
    first bad ``k`` or the first differing report field.
    """
    b, S = bundle.b, bundle.S.array
    if not np.array_equal(S @ S.T, b * np.eye(b, dtype=np.int64)):
        raise VerificationError("stored S is not a Hadamard matrix: S S^T != b I")
    for k, (d, bk) in enumerate(zip(bundle.D, bundle.B, strict=True)):
        if d.order != b or not np.array_equal(d.mul_dense(S), bk.array):
            raise VerificationError(f"stored B_{k} differs from D_{k} @ S")
    report = run_checks(bundle.A, bundle.lam, bundle.B, bundle.H)
    if report.passed and bundle.report != report:
        field = next(
            f.name
            for f in fields(report)
            if getattr(report, f.name) != getattr(bundle.report, f.name)
        )
        raise VerificationError(f"stored report differs from the recomputed one at {field}")
    return replace(bundle, report=report)


def complete(
    m: int,
    spec: Optional[TransversalSpec] = None,
    solve_cap: int = 16,
    max_order: int = 1 << 20,
) -> HadamardBundle:
    """Run the full pipeline for tensor depth ``m``.

    Build the transversal, read off its pattern, solve for matching
    monomial matrices of minimal order ``b``, densify them against the
    order-``b`` doubling Hadamard matrix, assemble the order ``n*b``
    plug-in sum and verify everything exactly.  Any failed check raises
    ``VerificationError`` naming the failing conditions.
    """
    if m < 1:
        raise ValueError("tensor depth m must be >= 1")
    if spec is None:
        spec = TransversalSpec.default(m)
    if spec.m != m:
        raise ValueError(f"spec has depth {spec.m}, requested m={m}")
    A = transversal(spec)
    lam = lambda_of_transversal(A)
    sol: SolveResult = solve(lam, max_n=solve_cap)
    if len(A) * sol.b > max_order:
        raise CapExceeded(
            f"assembled order {len(A) * sol.b} exceeds the cap {max_order}"
        )
    S = sylvester(sol.b)
    B = tuple(DenseSignMatrix(d.mul_dense(S.array)) for d in sol.D)
    H = plug_in(A, B)
    report = run_checks(A, lam, B, H)
    if not report.passed:
        raise VerificationError(
            f"bundle verification failed: {', '.join(report.failures())}"
        )
    return HadamardBundle(
        n=len(A),
        b=sol.b,
        A=tuple(A),
        lam=lam,
        D=sol.D,
        S=S,
        B=B,
        H=H,
        report=report,
    )
