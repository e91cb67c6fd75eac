"""Wedderburn classification of a decomposed presentation.

A decomposed algebra is a tensor product of single-generator factors
(``2R`` when the generator squares to +1, ``C`` when to -1) and
anticommuting-pair factors (the quaternions ``H`` when both squares are
-1, the 2x2 real matrices otherwise).  Absorbing those factors pairwise
leaves one of three shapes: copies of a real, complex or quaternionic
full matrix algebra.  The decision needs only two bits of the
decomposition: whether any central generator squares to -1, and the
parity of the number of quaternionic pairs, because a complex unit turns
everything complex while two quaternion factors cancel into real 4x4
matrices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .decompose import Decomposition, decompose
from .presentation import AlgebraPresentation


class StructureCase(enum.Enum):
    REAL = "real"
    COMPLEX = "complex"
    QUATERNION = "quaternion"

    @property
    def letter(self) -> str:
        return {"real": "R", "complex": "C", "quaternion": "H"}[self.value]

    def irrep_order(self, s: int) -> int:
        """Real order of one irreducible representation with ``s`` pairs."""
        return 2**s if self is StructureCase.REAL else 2 ** (s + 1)


def wedderburn_case(r: int, squares: Sequence[int]) -> StructureCase:
    """The R/C/H rule on the squares of a decomposition's new generators,
    in :class:`~qcliff.decompose.Decomposition` order (``r`` centrals,
    then the pairs).

    A central generator squaring to -1 forces the complex case; otherwise
    an odd number of quaternionic pairs (both squares -1) leaves one
    quaternion factor standing and an even number cancels to the real
    case.
    """
    if -1 in squares[:r]:
        return StructureCase.COMPLEX
    quat_pairs = sum(1 for a, b in zip(squares[r::2], squares[r + 1::2]) if a == b == -1)
    return StructureCase.QUATERNION if quat_pairs % 2 else StructureCase.REAL


@dataclass(frozen=True)
class WedderburnType:
    """Matrix-algebra shape ``num_irreps x D(matrix_size)`` of an algebra.

    ``label`` is written explicitly as ``"^k D(N)"``, e.g. ``"^1 H(1)"``
    for the quaternions; :func:`compact_label` shortens it for display.
    ``irrep_order`` is the real order of one irreducible representation.
    """

    case: StructureCase
    r: int
    s: int
    num_irreps: int
    irrep_order: int
    label: str

    @property
    def m(self) -> int:
        return self.r + 2 * self.s

    def matrix_size(self) -> int:
        if self.case is StructureCase.QUATERNION:
            return 2 ** (self.s - 1)
        return 2**self.s

    def total_dimension(self) -> int:
        """Sum of the real dimensions of all simple components."""
        n = self.matrix_size()
        per = {StructureCase.REAL: 1, StructureCase.COMPLEX: 2, StructureCase.QUATERNION: 4}
        return self.num_irreps * per[self.case] * n * n


_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def compact_label(label: str) -> str:
    """Normalize ``"^k D(N)"`` to display form.

    Drops the trivial ``^1`` prefix and ``(1)`` matrix size and renders
    the copy count as unicode superscript digits: ``"^2 C(1)"`` becomes
    ``"²C"`` and ``"^1 R(16)"`` becomes ``"R(16)"``.
    """
    head, body = label.split(" ", 1)
    count = head.removeprefix("^")
    out = "" if count == "1" else count.translate(_SUPERSCRIPTS)
    out += body.removesuffix("(1)")
    return out


def classify(D: Decomposition) -> WedderburnType:
    """Wedderburn type of a decomposed algebra (see :func:`wedderburn_case`)."""
    r, s = D.r, D.s
    case = wedderburn_case(r, D.squares)
    num = 2 ** (r - 1) if case is StructureCase.COMPLEX else 2**r
    size = 2 ** (s - 1) if case is StructureCase.QUATERNION else 2**s
    wt = WedderburnType(
        case=case,
        r=r,
        s=s,
        num_irreps=num,
        irrep_order=case.irrep_order(s),
        label=f"^{num} {case.letter}({size})",
    )
    if wt.total_dimension() != 2**wt.m:
        raise AssertionError(
            f"component dimensions sum to {wt.total_dimension()}, expected {2 ** wt.m}"
        )
    return wt


def classify_presentation(P: AlgebraPresentation) -> WedderburnType:
    return classify(decompose(P))


def tensor_presentation(p: int, q: int) -> AlgebraPresentation:
    """Presentation with ``p`` generators squaring +1 and ``q`` squaring -1,
    where generators anticommute exactly when their squares share a sign.

    This presents the tensor product of the two Clifford algebras on the
    all-plus and all-minus generator sets.
    """
    if p < 0 or q < 0:
        raise ValueError("p and q must be non-negative")
    if p + q == 0:
        raise ValueError("empty presentation: need p + q >= 1")
    m = p + q
    kappa = (1,) * p + (-1,) * q
    anti = [
        (i, j)
        for i in range(m)
        for j in range(i + 1, m)
        if kappa[i] == kappa[j]
    ]
    return AlgebraPresentation(kappa, anti)


def table_entry(p: int, q: int) -> tuple[str, int]:
    """Compact classification label and irreducible order for ``(p, q)``."""
    wt = classify_presentation(tensor_presentation(p, q))
    return compact_label(wt.label), wt.irrep_order


def classification_grid(max_p: int = 8, max_q: int = 8) -> list[list[str]]:
    """Grid of compact labels for 0 <= p <= max_p, 0 <= q <= max_q.

    The (0, 0) corner is the scalar algebra itself, labelled ``"R"``.
    """
    grid = []
    for p in range(max_p + 1):
        row = []
        for q in range(max_q + 1):
            row.append("R" if p == q == 0 else table_entry(p, q)[0])
        grid.append(row)
    return grid


def irrep_dimension_rows(totals: tuple[int, ...] = (2, 4, 8)) -> list[tuple[int, int, str, int]]:
    """Rows ``(p, q, label, irrep_order)`` for each split of each total."""
    rows = []
    for total in totals:
        for p in range(total, -1, -1):
            q = total - p
            label, order = table_entry(p, q)
            rows.append((p, q, label, order))
    return rows
