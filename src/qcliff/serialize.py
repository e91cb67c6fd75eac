"""JSON-facing dictionary forms of the package's value types.

All file formats are strict: unknown keys are rejected, indices in files
are 1-based (the in-memory API is 0-based), and every form round-trips
bit-exactly.  Dense sign matrices serialize as arrays of +-1 rows;
Hadamard matrices additionally support a compact text form with one
``+``/``-`` character per entry and one row per line.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Sequence

import numpy as np

from .decompose import Decomposition
from .hadamard import HadamardBundle, VerificationReport
from .matrices import DenseSignMatrix, MonomialMatrix
from .presentation import AlgebraPresentation, SignedMonomial
from .represent import Representation
from .solve import LambdaPattern, SolveResult
from .structure import WedderburnType, compact_label


def _require_keys(obj: dict, required: Sequence[str], optional: Sequence[str] = ()) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    keys = set(obj)
    missing = [k for k in required if k not in keys]
    if missing:
        raise ValueError(f"missing required fields: {missing}")
    unknown = keys - set(required) - set(optional)
    if unknown:
        raise ValueError(f"unknown fields: {sorted(unknown)}")


def _is_int(v: Any) -> bool:
    """JSON integers only: ``bool`` is an ``int`` subclass and is refused."""
    return isinstance(v, int) and not isinstance(v, bool)


def _sign(v: Any, what: str) -> int:
    if not _is_int(v) or v not in (-1, 1):
        raise ValueError(f"{what} must be +1 or -1, got {v!r}")
    return v


def _int_array(values: Any, what: str) -> np.ndarray:
    """``values`` as an integer array; floats, bools and other kinds are refused.

    NumPy reads a list mixing booleans with integers as int64, so the
    entries' types are also scanned, by ``map`` in C and not per entry in
    Python: the bundle reader passes every dense row through here.
    """
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind != "i":
        raise ValueError(f"{what} must hold integers only, got {arr.dtype} entries")
    if arr.ndim in (1, 2):
        flat = values if arr.ndim == 1 else chain.from_iterable(values)
        if bool in map(type, flat):
            raise ValueError(f"{what} must hold integers only, got a boolean entry")
    return arr


def _check_ints(obj: dict, names: Sequence[str], what: str) -> None:
    for name in names:
        if not _is_int(obj[name]):
            raise ValueError(f"{what} {name} must be an integer, got {obj[name]!r}")


# -- presentations ----------------------------------------------------------


def presentation_to_dict(P: AlgebraPresentation) -> dict:
    return {
        "m": P.m,
        "kappa": list(P.kappa),
        "delta": [[i + 1, j + 1, 1] for i, j in P.anticommuting_pairs()],
    }


def presentation_from_dict(obj: dict) -> AlgebraPresentation:
    _require_keys(obj, ["m", "kappa"], ["delta"])
    m = obj["m"]
    if not _is_int(m) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    kappa = obj["kappa"]
    if not isinstance(kappa, list) or len(kappa) != m:
        raise ValueError(f"kappa must be a list of length m={m}")
    kappa = tuple(_sign(k, "kappa entry") for k in kappa)
    anti = []
    seen: dict[tuple[int, int], int] = {}
    for triple in obj.get("delta", []):
        if not isinstance(triple, list) or len(triple) != 3:
            raise ValueError(f"delta entries must be [i, j, bit] triples, got {triple!r}")
        i, j, bit = triple
        if not (_is_int(i) and _is_int(j) and 1 <= i < j <= m):
            raise ValueError(f"delta pair ({i}, {j}) must satisfy 1 <= i < j <= m")
        if not _is_int(bit) or bit not in (0, 1):
            raise ValueError(f"delta bit must be 0 or 1, got {bit!r}")
        if (i, j) in seen and seen[(i, j)] != bit:
            raise ValueError(f"conflicting delta entries for pair ({i}, {j})")
        seen[(i, j)] = bit
        if bit:
            anti.append((i - 1, j - 1))
    return AlgebraPresentation(kappa, anti)


# -- matrices ---------------------------------------------------------------


def monomial_to_dict(mat: MonomialMatrix) -> dict:
    return {
        "order": mat.order,
        "perm": mat.perm.tolist(),
        "signs": mat.signs.tolist(),
    }


def monomial_from_dict(obj: dict) -> MonomialMatrix:
    _require_keys(obj, ["order", "perm", "signs"])
    if not _is_int(obj["order"]):
        raise ValueError(f"order must be an integer, got {obj['order']!r}")
    mat = MonomialMatrix(_int_array(obj["perm"], "perm"), _int_array(obj["signs"], "signs"))
    if mat.order != obj["order"]:
        raise ValueError(f"recorded order {obj['order']} does not match perm length")
    return mat


def dense_to_rows(mat: DenseSignMatrix) -> list[list[int]]:
    return mat.array.tolist()


def dense_from_rows(rows: Any) -> DenseSignMatrix:
    return DenseSignMatrix(_int_array(rows, "sign matrix"))


def sign_text_rows(mat: DenseSignMatrix) -> list[str]:
    return ["".join("+" if v > 0 else "-" for v in row) for row in mat.array]


def sign_matrix_from_text_rows(rows: Sequence[str]) -> DenseSignMatrix:
    parsed = []
    for line in rows:
        if set(line) - {"+", "-"}:
            raise ValueError(f"sign row may only contain '+' and '-': {line!r}")
        parsed.append([1 if ch == "+" else -1 for ch in line])
    return DenseSignMatrix(parsed)


# -- monomials, decompositions, classifications -----------------------------


def monomial_element_to_dict(x: SignedMonomial) -> dict:
    return {"sign": x.sign, "exps": list(x.exps)}


def decomposition_to_dict(D: Decomposition) -> dict:
    return {
        "presentation": presentation_to_dict(D.presentation),
        "r": D.r,
        "s": D.s,
        "centrals": [
            {"element": monomial_element_to_dict(c.element), "square": c.square}
            for c in D.centrals
        ],
        "pairs": [
            {
                "first": monomial_element_to_dict(p.first),
                "first_square": p.first_square,
                "second": monomial_element_to_dict(p.second),
                "second_square": p.second_square,
            }
            for p in D.pairs
        ],
        "basis_change": D.basis_change.to_rows(),
    }


def wedderburn_to_dict(wt: WedderburnType) -> dict:
    return {
        "case": wt.case.value,
        "r": wt.r,
        "s": wt.s,
        "num_irreps": wt.num_irreps,
        "irrep_order": wt.irrep_order,
        "label": wt.label,
        "compact_label": compact_label(wt.label),
    }


def representation_to_dict(rep: Representation) -> dict:
    return {
        "order": rep.order,
        "images": [monomial_to_dict(img) for img in rep.generator_images],
        "character": list(rep.character),
    }


# -- lambda patterns ---------------------------------------------------------


def lambda_to_dict(lam: LambdaPattern) -> dict:
    return {
        "n": lam.n,
        "entries": [
            [j + 1, k + 1, lam.rows[j][k]]
            for j in range(lam.n)
            for k in range(j + 1, lam.n)
        ],
    }


def lambda_from_dict(obj: dict) -> LambdaPattern:
    _require_keys(obj, ["n", "entries"])
    n = obj["n"]
    if not _is_int(n) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    pairs: dict[tuple[int, int], int] = {}
    for triple in obj["entries"]:
        if not isinstance(triple, list) or len(triple) != 3:
            raise ValueError(f"entries must be [j, k, value] triples, got {triple!r}")
        j, k, v = triple
        if not (_is_int(j) and _is_int(k) and 1 <= j <= n and 1 <= k <= n and j != k):
            raise ValueError(f"bad pair indices ({j}, {k}) for n={n}")
        lo, hi = (j, k) if j < k else (k, j)
        v = _sign(v, f"lambda[{j}][{k}]")
        if (lo - 1, hi - 1) in pairs and pairs[(lo - 1, hi - 1)] != v:
            raise ValueError(f"conflicting lambda values for pair ({lo}, {hi})")
        pairs[(lo - 1, hi - 1)] = v
    return LambdaPattern.from_pairs(n, pairs)


def solve_result_to_dict(lam: LambdaPattern, result: SolveResult) -> dict:
    return {
        "lambda": lambda_to_dict(lam),
        "kappa": list(result.kappa),
        "presentation": presentation_to_dict(result.presentation),
        "wedderburn": wedderburn_to_dict(result.wedderburn),
        "b": result.b,
        "D": [monomial_to_dict(d) for d in result.D],
    }


# -- bundles ------------------------------------------------------------------


def report_to_dict(report: VerificationReport) -> dict:
    return {
        "n": report.n,
        "b": report.b,
        "order": report.order,
        "checks": {
            "disjoint_supports": report.disjoint_supports,
            "transversal_sum": report.transversal_sum,
            "a_orthogonal": report.a_orthogonal,
            "a_lambda": report.a_lambda,
            "b_lambda": report.b_lambda,
            "b_gram_sum": report.b_gram_sum,
            "h_matches_terms": report.h_matches_terms,
            "hadamard": report.hadamard,
        },
        "passed": report.passed,
    }


_REPORT_CHECKS = (
    "disjoint_supports",
    "transversal_sum",
    "a_orthogonal",
    "a_lambda",
    "b_lambda",
    "b_gram_sum",
    "h_matches_terms",
    "hadamard",
)


def report_from_dict(obj: dict) -> VerificationReport:
    _require_keys(obj, ["n", "b", "order", "checks", "passed"])
    _check_ints(obj, ("n", "b", "order"), "report")
    checks = obj["checks"]
    _require_keys(checks, list(_REPORT_CHECKS))
    for name, value in [*checks.items(), ("passed", obj["passed"])]:
        if not isinstance(value, bool):
            raise ValueError(f"report {name} must be true or false, got {value!r}")
    if obj["passed"] != all(checks[name] for name in _REPORT_CHECKS):
        raise ValueError("report passed contradicts its checks")
    return VerificationReport(
        n=obj["n"], b=obj["b"], order=obj["order"],
        **{name: checks[name] for name in _REPORT_CHECKS},
    )


def bundle_to_dict(bundle: HadamardBundle) -> dict:
    return {
        "n": bundle.n,
        "b": bundle.b,
        "A": [monomial_to_dict(a) for a in bundle.A],
        "lambda": lambda_to_dict(bundle.lam),
        "D": [monomial_to_dict(d) for d in bundle.D],
        "S": dense_to_rows(bundle.S),
        "B": [dense_to_rows(x) for x in bundle.B],
        "H": sign_text_rows(bundle.H),
        "report": report_to_dict(bundle.report),
    }


def bundle_from_dict(obj: dict) -> HadamardBundle:
    _require_keys(obj, ["n", "b", "A", "lambda", "D", "S", "B", "H", "report"])
    _check_ints(obj, ("n", "b"), "bundle")
    A = tuple(monomial_from_dict(a) for a in obj["A"])
    lam = lambda_from_dict(obj["lambda"])
    D = tuple(monomial_from_dict(d) for d in obj["D"])
    S = dense_from_rows(obj["S"])
    B = tuple(dense_from_rows(rows) for rows in obj["B"])
    H = sign_matrix_from_text_rows(obj["H"])
    report = report_from_dict(obj["report"])
    if any(len(family) != obj["n"] for family in (A, D, B)):
        raise ValueError("bundle family sizes do not match n")
    if S.order != obj["b"] or any(x.order != obj["b"] for x in B):
        raise ValueError("bundle inner orders do not match b")
    if H.order != obj["n"] * obj["b"]:
        raise ValueError("bundle H order does not match n*b")
    return HadamardBundle(
        n=obj["n"], b=obj["b"], A=A, lam=lam, D=D, S=S, B=B, H=H, report=report
    )
