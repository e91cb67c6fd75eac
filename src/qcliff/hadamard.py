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
from .gf2 import bit_table, row_masks
from .matrices import (
    DenseSignMatrix,
    MonomialMatrix,
    _pair_batches,
    ident2,
    pair_lambdas,
    sign_product,
    stacked_kron,
    sylvester,
    x2,
    y2,
    z2,
)
from .solve import LambdaPattern, _minimal_kappa, _realize

# Default cap on the 2**m outer matrices of ``complete``, checked before
# the transversal is built.
DEFAULT_MAX_N = 16
# Default cap on the order n*b of the dense H: every m <= 4 transversal
# assembles to order <= 2048; one int64 matrix of order 2^14 is 2 GiB.
DENSE_ORDER_CAP = 1 << 12

# Entries per batch of B grams in run_checks: one batch at the bench's
# m = 3, cache-sized batches from m = 4 on.
_GRAM_BATCH = 1 << 18

DIAG_CHOICES = {"I": ident2(), "Z": z2()}
OFFDIAG_CHOICES = {"X": x2(), "Y": y2()}


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
    index = np.arange(1 << m)
    blocks = []
    for i in range(m):
        off = ((index >> (m - 1 - i)) & 1).astype(bool)[:, None]
        diag, offdiag = DIAG_CHOICES[spec.diag[i]], OFFDIAG_CHOICES[spec.offdiag[i]]
        blocks.append((np.where(off, offdiag.perm, diag.perm),
                       np.where(off, offdiag.signs, diag.signs)))
    perm, signs = stacked_kron(np.ones(1 << m, dtype=np.int64), blocks)
    return [MonomialMatrix._closed(p, s) for p, s in zip(perm, signs)]


def lambda_of_transversal(A: Sequence[MonomialMatrix]) -> LambdaPattern:
    """Pairwise amicability pattern of the outer family (the "A" side).

    The "A" sign is the negated "B" table of :func:`pair_lambdas`.
    """
    lam = -pair_lambdas(A)
    bad = np.argwhere(np.triu(lam == 0, 1)).tolist()
    if bad:
        j, k = bad[0]
        raise ValueError(
            f"matrices {j} and {k} are neither amicable nor anti-amicable; "
            "not a valid transversal"
        )
    return LambdaPattern(len(A), row_masks(lam == -1))


def _densify(D: Sequence[MonomialMatrix], S: np.ndarray) -> np.ndarray:
    """The ``(n, b, b)`` stack of ``D_k @ S``, one gather of the rows of ``S``."""
    perm = np.stack([d.perm for d in D])
    signs = np.stack([d.signs for d in D])
    return signs[:, :, None] * S[perm]


def plug_in(A: Sequence[MonomialMatrix], B: Sequence[DenseSignMatrix]) -> DenseSignMatrix:
    """Assemble ``sum A_k (x) B_k`` and demand every entry lands in +-1.

    Member ``k`` puts ``signs_k[row] * B_k`` in block ``(row, perm_k[row])``.
    The n members of order n place n * n blocks, so every entry is +-1
    exactly when they cover every block once: otherwise some block is
    missed and reads 0.  The cover is decided on the stacked perms; H is
    then one scatter of the stacked B into its ``(n, b, n, b)`` view,
    signed in place by block.
    """
    if len(A) != len(B) or not A:
        raise ValueError("need equally many outer and inner matrices")
    n = len(A)
    if any(a.order != n for a in A):
        raise ValueError("outer matrices must have order equal to the family size")
    b = B[0].order
    if any(x.order != b for x in B):
        raise ValueError("inner matrices must share one order")
    perm = np.stack([a.perm for a in A])
    rows = np.arange(n)
    if not (np.sort(perm, axis=0) == rows[:, None]).all():
        raise ValueError("plug-in sum has entries outside {-1,+1}; supports overlap or miss")
    block_sign = np.empty((n, n), dtype=np.int64)
    block_sign[rows, perm] = np.stack([a.signs for a in A])
    out = np.empty((n, b, n, b), dtype=np.int64)
    out[rows, :, perm, :] = np.stack([x.array for x in B])[:, None]
    out *= block_sign[:, None, :, None]
    return DenseSignMatrix._closed(out.reshape(n * b, n * b))


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
        return not self.failures()

    def failures(self) -> list[str]:
        return [name for name in REPORT_CHECKS if not getattr(self, name)]


# The pass/fail conditions of a report, its bool fields, in report and file order.
REPORT_CHECKS = tuple(f.name for f in fields(VerificationReport) if f.type == "bool")


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
    """Exact integer verification of every bundle condition.

    Each condition is a vector pass over the stacked families: the sorted
    perms of A, the products ``A_k A_k^T`` as index gathers, the pair
    table of A, the Grams ``B_j B_k^T`` of the pairs ``j < k`` as batched
    ``sign_product``s (one batch at m = 3, cache-sized batches of rows
    from m = 4 on), ``sum B_k B_k^T`` as one product, one gather of the
    blocks of H and the product ``H H^T``.  The dense Grams are exact
    integers from float64.
    """
    n = len(A)
    b = B[0].order
    order = n * b

    # row i of every member, sorted: disjoint supports repeat no column,
    # and n members of order n cover every cell once (|sum A_k| == 1)
    perm = np.stack([a.perm for a in A])
    signs = np.stack([a.signs for a in A])
    perms = np.sort(perm, axis=0)
    disjoint = bool(np.all(perms[1:] != perms[:-1]))
    tsum = perms.shape == (n, n) and bool(np.all(perms == np.arange(n)[:, None]))

    # A_k A_k^T == I_n: row i of the product has the sign
    # signs[i] * signs[inv[perm[i]]] in column inv[perm[i]]
    back = np.take_along_axis(np.argsort(perm, axis=1), perm, axis=1)
    a_orth = perm.shape[1] == n and bool(
        (back == np.arange(n)).all() and (signs * np.take_along_axis(signs, back, axis=1) == 1).all()
    )
    table = np.where(bit_table(lam.neg, lam.n), -1, 1)
    a_lam = np.array_equal(np.triu(-pair_lambdas(A), 1), np.triu(table, 1))

    # B_j B_k^T for k > j0, a batch of rows j at a time (one batch at the
    # bench's size): B_k B_j^T is its transpose, and the cells with
    # j0 < k <= j repeat the condition of the pair (k, j)
    stacked = np.stack([x.array for x in B], dtype=np.float64)
    b_lam = True
    for j0, j1 in _pair_batches(n, b * b, _GRAM_BATCH):
        grams = sign_product(stacked[j0:j1, None], stacked[None, j0 + 1:].transpose(0, 1, 3, 2))
        b_lam = b_lam and np.array_equal(
            grams, table[j0:j1, j0 + 1:, None, None] * grams.transpose(0, 1, 3, 2))
    # sum B_k B_k^T is one product of the B side by side
    wide = stacked.transpose(1, 0, 2).reshape(b, order)
    b_gram = np.array_equal(sign_product(wide, wide.T), order * np.eye(b, dtype=np.int64))
    grams = wide = None  # free them before the H H^T product

    # every row block of the plug-in sum gets one term per member, so with
    # a transversal sum it is H exactly when block (row, perm_k[row]) of H
    # is signs_k[row] * B_k for every k and row
    h_match = tsum and H.order == order
    if h_match:
        blocks = H.array.reshape(n, b, n, b)[np.arange(n), :, perm, :]
        blocks *= signs[:, :, None, None]
        h_match = bool((blocks == stacked[:, None]).all())
        del blocks  # as large as H: free it before the H H^T product

    hh = sign_product(H.array, H.array.T)
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
    stored ``B_k == D_k @ S`` (one gather of S's rows for all ``k``),
    and, when the recomputed report passes, a stored report equal to it
    (a failing report is returned as is, since it already fails the
    bundle).  Raises ``VerificationError`` naming the first bad ``k`` or
    the first differing report field.
    """
    b, S = bundle.b, bundle.S.array
    if not np.array_equal(sign_product(S, S.T), b * np.eye(b, dtype=np.int64)):
        raise VerificationError("stored S is not a Hadamard matrix: S S^T != b I")
    D, B = bundle.D, bundle.B
    # members past the first of another order are not compared: k names it
    same = [d.order == b and x.order == b for d, x in zip(D, B, strict=True)]
    k = same.index(False) if False in same else len(same)
    if k:
        differs = (_densify(D[:k], S) != np.stack([x.array for x in B[:k]])).any(axis=(1, 2))
        k = int(np.argmax(differs)) if differs.any() else k
    if k < len(same):
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
    max_n: int = DEFAULT_MAX_N,
    max_order: int = DENSE_ORDER_CAP,
) -> HadamardBundle:
    """Run the full pipeline for tensor depth ``m``.

    Build the transversal, read off its pattern, solve for matching
    monomial matrices of minimal order ``b``, densify them against the
    order-``b`` doubling Hadamard matrix, assemble the order ``n*b``
    plug-in sum and verify everything exactly.  Any failed check raises
    ``VerificationError`` naming the failing conditions.
    ``CapExceeded`` comes before the transversal if ``2**m > max_n``
    and before the kappa bit fixing and any image if ``n*b > max_order``,
    with ``b`` the minimal order of :func:`qcliff.solve._minimal_kappa`.
    """
    if m < 1:
        raise ValueError("tensor depth m must be >= 1")
    # 2**m > max_n, decided without forming 2**m for a huge m
    if m >= max(max_n, 1).bit_length():
        raise CapExceeded(
            f"tensor depth {m} needs n = 2^{m} matrices, above the cap {max_n}"
        )
    if spec is None:
        spec = TransversalSpec.default(m)
    if spec.m != m:
        raise ValueError(f"spec has depth {spec.m}, requested m={m}")
    A = transversal(spec)
    lam = lambda_of_transversal(A)
    kappa, b, D = _minimal_kappa(lam, max_order // len(A))
    if len(A) * b > max_order:
        raise CapExceeded(f"assembled order {len(A) * b} exceeds the cap {max_order}")
    sol = _realize(lam, kappa, b, D)
    S = sylvester(sol.b)
    B = tuple(map(DenseSignMatrix._closed, _densify(sol.D, S.array)))
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
