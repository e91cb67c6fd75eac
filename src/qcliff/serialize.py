"""JSON-facing dictionary forms of the package's value types.

All file formats are strict: unknown keys are rejected, indices in files
are 1-based (the in-memory API is 0-based), and every form round-trips
bit-exactly.  Dense sign matrices serialize as arrays of +-1 rows;
Hadamard matrices additionally support a compact text form with one
``+``/``-`` character per entry and one row per line.

The forms holding monomial matrices have one private builder each, which
leaves every ``perm`` / ``signs`` array as an :class:`_IntArray`, or, for
a :class:`~qcliff.represent.Representation`, as a :class:`_KronRow`
marker that holds the image's sign and block rows, so no image is
expanded to its order.  The command line writes those trees as they are
(:func:`qcliff.cli._write_json` formats the arrays from numpy and the
factors).  Each public ``*_to_dict`` is its builder followed by
:func:`_plain`, which expands every marker, so it returns plain lists of
ints.
"""

from __future__ import annotations

from itertools import chain
from math import prod
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .decompose import MAX_M, Decomposition
from .errors import CapExceeded
from .gf2 import bit_table, row_masks
from .hadamard import REPORT_CHECKS, HadamardBundle, VerificationReport
from .matrices import DenseSignMatrix, MonomialMatrix
from .presentation import AlgebraPresentation
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


def _list(value: Any, what: str) -> list:
    """``value`` if it is a JSON array; anything else is refused, naming ``what``."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {type(value).__name__}")
    return value


def _check_ints(obj: dict, names: Sequence[str], what: str) -> None:
    for name in names:
        if not _is_int(obj[name]):
            raise ValueError(f"{what} {name} must be an integer, got {obj[name]!r}")


class _IntArray:
    """A read-only int64 1-d array standing for its JSON list in a built tree."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array

    def __len__(self) -> int:
        return len(self.array)


class _KronRow:
    """The ``perm`` or ``signs`` of one Kronecker product image, standing for
    its JSON list in a built tree without being expanded.

    ``blocks`` are the image's block rows, the first most significant.  A
    perm has ``sign`` None: entry ``i1 * N2 + i2`` of ``X (x) Y`` is
    ``px[i1] * N2 + py[i2]``.  Signs have the image sign, which multiplies
    the product of the block entries.  :attr:`array` expands the row.
    """

    __slots__ = ("sign", "blocks")

    def __init__(self, sign: Optional[int], blocks: list[np.ndarray]):
        self.sign, self.blocks = sign, blocks

    def __len__(self) -> int:
        return prod(map(len, self.blocks))

    @property
    def array(self) -> np.ndarray:
        # from the last block inward, so the long axis stays innermost
        if self.sign is None:
            out, size = np.zeros(1, dtype=np.int64), 1
            for block in reversed(self.blocks):
                out = (block[:, None] * size + out).ravel()
                size *= len(block)
        else:
            out = np.full(1, self.sign, dtype=np.int64)
            for block in reversed(self.blocks):
                out = (block[:, None] * out).ravel()
        return out


def _plain(tree):
    """``tree`` with every :class:`_IntArray` and :class:`_KronRow` replaced,
    in place, by its list.

    The builders make a fresh tree on every call, so nothing else sees it.
    """
    for key, value in tree.items() if isinstance(tree, dict) else enumerate(tree):
        if type(value) in (_IntArray, _KronRow):
            tree[key] = value.array.tolist()
        elif type(value) in (dict, list):
            _plain(value)
    return tree


# -- presentations ----------------------------------------------------------


def presentation_to_dict(P: AlgebraPresentation) -> dict:
    i, j = bit_table(P._delta_gt, P.m).nonzero()
    return {
        "m": P.m,
        "kappa": list(P.kappa),
        "delta": np.array([i + 1, j + 1, np.ones_like(i)]).T.tolist(),
    }


def presentation_from_dict(obj: dict) -> AlgebraPresentation:
    _require_keys(obj, ["m", "kappa"], ["delta"])
    m = obj["m"]
    if not _is_int(m) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    if m > MAX_M:
        raise CapExceeded(f"m = {m} generators exceeds the cap {MAX_M}")
    kappa = obj["kappa"]
    if not isinstance(kappa, list) or len(kappa) != m:
        raise ValueError(f"kappa must be a list of length m={m}")
    kappa = tuple(_sign(k, "kappa entry") for k in kappa)
    hit = _triple_hits(_list(obj.get("delta", []), "delta"), m, np.less, (0, 1), (
        "delta entries must be [i, j, bit] triples, got {triple!r}",
        "delta pair ({a}, {b}) must satisfy 1 <= i < j <= m",
        "delta bit must be 0 or 1, got {value!r}",
        "conflicting delta entries for pair ({a}, {b})"))
    return AlgebraPresentation.from_upper_rows(kappa, row_masks(hit[1].reshape(m, m)))


def _json_ints(values: list) -> tuple[np.ndarray, np.ndarray]:
    """``values`` as int64, and the mask of the entries that are JSON
    integers within int64 range; the other entries read 0.

    The types are scanned by ``map`` in C: NumPy would read a boolean as
    an integer, and a float or a digit string as one under an int64 dtype.
    """
    n = len(values)
    if set(map(type, values)) <= {int}:
        try:
            return np.array(values, dtype=np.int64), np.ones(n, dtype=bool)
        except OverflowError:
            pass
    objs = np.fromiter(values, object, n)
    ok = np.fromiter(map(type, values), object, n) == int
    ok[ok] = (objs[ok] >= -(1 << 63)) & (objs[ok] < 1 << 63)
    return np.where(ok, objs, 0).astype(np.int64), ok


def _triple_hits(triples: list, n: int, pair: Callable, values: tuple[int, int],
                 messages: tuple[str, str, str, str]) -> np.ndarray:
    """The ``(2, n * n)`` table of the cells that 1-based ``[a, b, value]``
    ``triples`` set, row 0 for ``values[0]`` and row 1 for ``values[1]``.

    ``pair`` is the rule on ``a`` and ``b`` beyond ``1 <= a, b <= n``, and
    ``messages`` are the ``str.format`` templates for a bad shape, pair or
    value and a conflicting repeat, given ``triple``, ``a``, ``b``,
    ``value`` and ``n``.  Every check is a mask over all triples at once; a
    pair is keyed smaller index first, and one listed with both values
    shows as a cell hit twice.  The error names the first offending
    triple, and for one triple the checks run in the order shape, pair,
    value, then conflict with an earlier triple.
    """
    count = len(triples)
    # triples before the first malformed one, k, are read; k itself fails
    # only if none of those does
    k = count
    if set(map(type, triples)) - {list} or set(map(len, triples)) - {3}:
        is_list = np.fromiter(map(type, triples), object, count) == list
        k = int(np.argmin(is_list)) if not is_list.all() else count
        short = np.fromiter(map(len, triples[:k]), np.int64, k) != 3
        k = int(np.argmax(short)) if short.any() else k
    flat, ok = _json_ints(list(chain.from_iterable(triples[:k])))
    a, b, value = flat.reshape(k, 3).T
    ok = ok.reshape(k, 3)
    bad_pair = ~(ok[:, 0] & ok[:, 1] & (1 <= a) & (a <= n) & (1 <= b) & (b <= n)
                 & pair(a, b))
    bad = bad_pair | ~(ok[:, 2] & ((value == values[0]) | (value == values[1])))
    e = int(np.argmax(bad)) if bad.any() else k
    lo, hi = np.minimum(a[:e], b[:e]), np.maximum(a[:e], b[:e])
    key, bit = (lo - 1) * n + hi - 1, (value[:e] == values[1]).view(np.int8)
    hit = np.zeros((2, n * n), dtype=bool)
    hit[bit, key] = True
    clash = (hit[0] & hit[1])[key]
    if clash.any():
        # the first triple whose value differs from its pair's first listing
        idx = np.flatnonzero(clash)
        _, first, back = np.unique(key[idx], return_index=True, return_inverse=True)
        t = int(idx[bit[idx] != bit[idx][first][back]].min())
        raise ValueError(messages[3].format(a=lo[t], b=hi[t]))
    if e < k:
        a, b, value = triples[e]
        raise ValueError(messages[1 if bad_pair[e] else 2].format(a=a, b=b, value=value, n=n))
    if k < count:
        raise ValueError(messages[0].format(triple=triples[k]))
    return hit


# -- matrices ---------------------------------------------------------------


def _monomial_tree(mat: MonomialMatrix) -> dict:
    return {"order": mat.order, "perm": _IntArray(mat.perm), "signs": _IntArray(mat.signs)}


def monomial_from_dict(obj: dict) -> MonomialMatrix:
    _require_keys(obj, ["order", "perm", "signs"])
    if not _is_int(obj["order"]):
        raise ValueError(f"order must be an integer, got {obj['order']!r}")
    mat = MonomialMatrix(_int_array(obj["perm"], "perm"), _int_array(obj["signs"], "signs"))
    if mat.order != obj["order"]:
        raise ValueError(f"recorded order {obj['order']} does not match perm length")
    return mat


_MONOMIAL_KEYS = {"order", "perm", "signs"}


def _int_stack(rows: list, ndim: int) -> Optional[np.ndarray]:
    """``rows`` as one int64 array of ``ndim`` dimensions, or None if they
    are ragged or hold anything but integers, booleans included."""
    try:
        arr = np.array(rows)
    except (ValueError, OverflowError):
        return None
    if arr.ndim != ndim or arr.dtype.kind != "i":
        return None
    flat = rows
    for _ in range(ndim - 1):
        flat = chain.from_iterable(flat)
    if bool in map(type, flat):
        return None
    return arr.astype(np.int64, copy=False)


def _monomial_family(objs: list) -> tuple[MonomialMatrix, ...]:
    """The members of a list of monomial matrix objects, validated as one stack.

    n well-formed members of one order are checked in one pass over their
    ``(n, order)`` perm and sign arrays.  Any other list is read member by
    member by :func:`monomial_from_dict`, which raises naming the first
    bad member; only members of different orders pass it, and the
    bundle's order checks refuse those.
    """
    if objs and set(map(type, objs)) == {dict} and all(o.keys() == _MONOMIAL_KEYS for o in objs):
        perm = _int_stack([o["perm"] for o in objs], 2)
        signs = _int_stack([o["signs"] for o in objs], 2)
        orders = [o["order"] for o in objs]
        if (perm is not None and signs is not None and perm.shape == signs.shape
                and perm.shape[1] and set(map(type, orders)) == {int}
                and orders == [perm.shape[1]] * len(objs)
                and (np.sort(perm, axis=1) == np.arange(perm.shape[1])).all()
                and (np.abs(signs) == 1).all()):
            return tuple(map(MonomialMatrix._closed, perm, signs))
    return tuple(monomial_from_dict(obj) for obj in objs)


def _dense_family(objs: list) -> tuple[DenseSignMatrix, ...]:
    """The members of a list of dense sign matrices, validated as one
    ``(n, b, b)`` stack.

    Any other list is read member by member by :func:`dense_from_rows`,
    which raises naming the first bad member; only members of different
    orders pass it, and the bundle's order checks refuse those.
    """
    arr = _int_stack(objs, 3)
    if arr is not None and arr.shape[1] == arr.shape[2] and (np.abs(arr) == 1).all():
        return tuple(map(DenseSignMatrix._closed, arr))
    return tuple(dense_from_rows(rows) for rows in objs)


def dense_to_rows(mat: DenseSignMatrix) -> list[list[int]]:
    return mat.array.tolist()


def dense_from_rows(rows: Any) -> DenseSignMatrix:
    return DenseSignMatrix(_int_array(rows, "sign matrix"))


def sign_text_rows(mat: DenseSignMatrix) -> list[str]:
    n = mat.order
    chars = np.where(mat.array > 0, np.uint8(ord("+")), np.uint8(ord("-")))
    text = chars.tobytes().decode("ascii")
    return [text[i * n:(i + 1) * n] for i in range(n)]


def sign_matrix_from_text_rows(rows: Sequence[str]) -> DenseSignMatrix:
    for line in rows:
        if not isinstance(line, str):
            raise ValueError(f"sign row must be a string, got {type(line).__name__}")
    # "+" and "-" are 43 and 45, so an entry is 44 minus its code; a
    # non-ASCII character becomes "?" and is refused with the rest
    codes = np.frombuffer("".join(rows).encode("ascii", "replace"), np.uint8)
    if np.any((codes != 43) & (codes != 45)):
        bad = next(line for line in rows if set(line) - {"+", "-"})
        raise ValueError(f"sign row may only contain '+' and '-': {bad!r}")
    width = len(rows[0]) if rows else 0
    if any(len(line) != width for line in rows):
        raise ValueError("sign rows must all have the same length")
    return DenseSignMatrix(np.subtract(44, codes, dtype=np.int64).reshape(len(rows), width))


# -- monomials, decompositions, classifications -----------------------------


def decomposition_to_dict(D: Decomposition) -> dict:
    # every new generator has sign +1; its own lists, apart from basis_change's
    gens = [{"sign": 1, "exps": exps} for exps in bit_table(D.masks, D.presentation.m).tolist()]
    r, squares = D.r, D.squares
    return {
        "presentation": presentation_to_dict(D.presentation),
        "r": r,
        "s": D.s,
        "centrals": [{"element": gens[i], "square": squares[i]} for i in range(r)],
        "pairs": [
            {
                "first": gens[k],
                "first_square": squares[k],
                "second": gens[k + 1],
                "second_square": squares[k + 1],
            }
            for k in range(r, len(gens), 2)
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


def _representation_tree(rep: Representation) -> dict:
    blocks = rep.blocks()
    images = [
        {"order": rep.order,
         "perm": _KronRow(None, [p[i] for p, _ in blocks]),
         "signs": _KronRow(sign, [s[i] for _, s in blocks])}
        for i, sign in enumerate(rep.sign.tolist())
    ]
    return {"order": rep.order, "images": images, "character": list(rep.character)}


def representation_to_dict(rep: Representation) -> dict:
    return _plain(_representation_tree(rep))


# -- lambda patterns ---------------------------------------------------------


def lambda_to_dict(lam: LambdaPattern) -> dict:
    j, k = np.nonzero(~np.tri(lam.n, dtype=bool))
    value = np.where(bit_table(lam.neg, lam.n)[j, k], -1, 1)
    return {"n": lam.n, "entries": np.array([j + 1, k + 1, value]).T.tolist()}


def lambda_from_dict(obj: dict) -> LambdaPattern:
    _require_keys(obj, ["n", "entries"])
    n = obj["n"]
    if not _is_int(n) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    # solve decomposes an n-generator presentation, so the same cap holds
    if n > MAX_M:
        raise CapExceeded(f"n = {n} matrices exceeds the cap {MAX_M}")
    entries = _list(obj["entries"], "entries")
    # every pair must be listed, so n is bounded by the file before any table
    if n * (n - 1) // 2 > len(entries):
        raise ValueError(f"{len(entries)} entries cannot cover the pairs of n={n}")
    hit = _triple_hits(entries, n, np.not_equal, (1, -1), (
        "entries must be [j, k, value] triples, got {triple!r}",
        "bad pair indices ({a}, {b}) for n={n}",
        "lambda[{a}][{b}] must be +1 or -1, got {value!r}",
        "conflicting lambda values for pair ({a}, {b})")).reshape(2, n, n)
    # every hit lies above the diagonal, so the first unseen cell is j < k
    seen = hit[0] | hit[1] | np.tri(n, dtype=bool)
    if not seen.all():
        j, k = divmod(int(np.argmin(seen)), n)
        raise ValueError(f"missing lambda pair ({j + 1}, {k + 1})")
    return LambdaPattern(n, row_masks(hit[1] | hit[1].T))


def _solve_result_tree(lam: LambdaPattern, result: SolveResult) -> dict:
    return {
        "lambda": lambda_to_dict(lam),
        "kappa": list(result.kappa),
        "presentation": presentation_to_dict(result.presentation),
        "wedderburn": wedderburn_to_dict(result.wedderburn),
        "b": result.b,
        "D": _representation_tree(result.rep)["images"],
    }


def solve_result_to_dict(lam: LambdaPattern, result: SolveResult) -> dict:
    return _plain(_solve_result_tree(lam, result))


# -- bundles ------------------------------------------------------------------


def report_to_dict(report: VerificationReport) -> dict:
    return {
        "n": report.n,
        "b": report.b,
        "order": report.order,
        "checks": {name: getattr(report, name) for name in REPORT_CHECKS},
        "passed": report.passed,
    }


def report_from_dict(obj: dict) -> VerificationReport:
    _require_keys(obj, ["n", "b", "order", "checks", "passed"])
    _check_ints(obj, ("n", "b", "order"), "report")
    checks = obj["checks"]
    _require_keys(checks, list(REPORT_CHECKS))
    for name, value in [*checks.items(), ("passed", obj["passed"])]:
        if not isinstance(value, bool):
            raise ValueError(f"report {name} must be true or false, got {value!r}")
    if obj["passed"] != all(checks[name] for name in REPORT_CHECKS):
        raise ValueError("report passed contradicts its checks")
    return VerificationReport(
        n=obj["n"], b=obj["b"], order=obj["order"],
        **{name: checks[name] for name in REPORT_CHECKS},
    )


def _bundle_tree(bundle: HadamardBundle) -> dict:
    return {
        "n": bundle.n,
        "b": bundle.b,
        "A": [_monomial_tree(a) for a in bundle.A],
        "lambda": lambda_to_dict(bundle.lam),
        "D": [_monomial_tree(d) for d in bundle.D],
        "S": dense_to_rows(bundle.S),
        "B": np.stack([x.array for x in bundle.B]).tolist(),
        "H": sign_text_rows(bundle.H),
        "report": report_to_dict(bundle.report),
    }


def bundle_to_dict(bundle: HadamardBundle) -> dict:
    return _plain(_bundle_tree(bundle))


def bundle_from_dict(obj: dict) -> HadamardBundle:
    _require_keys(obj, ["n", "b", "A", "lambda", "D", "S", "B", "H", "report"])
    _check_ints(obj, ("n", "b"), "bundle")
    A = _monomial_family(_list(obj["A"], "bundle A"))
    lam = lambda_from_dict(obj["lambda"])
    D = _monomial_family(_list(obj["D"], "bundle D"))
    S = dense_from_rows(obj["S"])
    B = _dense_family(_list(obj["B"], "bundle B"))
    H = sign_matrix_from_text_rows(_list(obj["H"], "bundle H"))
    report = report_from_dict(obj["report"])
    if lam.n != obj["n"] or any(len(family) != obj["n"] for family in (A, D, B)):
        raise ValueError("bundle family sizes do not match n")
    if any(a.order != obj["n"] for a in A):
        raise ValueError(f"bundle outer orders {[a.order for a in A]} do not match n")
    if any(d.order != obj["b"] for d in D):
        raise ValueError(f"bundle D orders {[d.order for d in D]} do not match b")
    if S.order != obj["b"] or any(x.order != obj["b"] for x in B):
        raise ValueError("bundle inner orders do not match b")
    if H.order != obj["n"] * obj["b"]:
        raise ValueError("bundle H order does not match n*b")
    return HadamardBundle(
        n=obj["n"], b=obj["b"], A=A, lam=lam, D=D, S=S, B=B, H=H, report=report
    )
