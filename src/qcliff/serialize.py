"""JSON-facing dictionary forms of the package's value types, and the one
JSON writer of the command line.

All file formats are strict: unknown keys are rejected, indices in files
are 1-based (the in-memory API is 0-based), and every form round-trips
bit-exactly.  Dense sign matrices serialize as arrays of +-1 rows;
Hadamard matrices additionally support a compact text form with one
``+``/``-`` character per entry and one row per line.

Every monomial matrix written (an image of a representation or a
solution, a bundle's ``A_k`` or ``D_k``) is a sign times a Kronecker
product of blocks, an expanded matrix being the one-block case.
:func:`_image_tree` builds its ``{"order", "perm", "signs"}`` dict with a
:class:`_KronRow` marker for each array, so nothing is expanded.  Each
public ``*_to_dict`` is a tree builder followed by :func:`_plain`, which
expands every marker into a list of ints.  :func:`write_json` writes a
tree as the bytes of ``json.dumps(obj, indent=2)`` plus a newline; a
marker of at least ``INT_ARRAY_KERNEL_MIN`` entries is formatted from
numpy, or, for the signs of several blocks, from the texts of the
blocks.
"""

from __future__ import annotations

import functools
import json
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
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


def _require_keys(obj: dict, what: str, required: Sequence[str],
                  optional: Sequence[str] = ()) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{what}: expected a JSON object, got {type(obj).__name__}")
    keys = set(obj)
    missing = [k for k in required if k not in keys]
    if missing:
        raise ValueError(f"{what}: missing required fields: {missing}")
    unknown = keys - set(required) - set(optional)
    if unknown:
        raise ValueError(f"{what}: unknown fields: {sorted(unknown)}")


def _is_int(v: Any) -> bool:
    """JSON integers only: ``bool`` is an ``int`` subclass and is refused."""
    return isinstance(v, int) and not isinstance(v, bool)


def _sign(v: Any, what: str) -> int:
    if not _is_int(v) or v not in (-1, 1):
        raise ValueError(f"{what} must be +1 or -1, got {v!r}")
    return v


def _list(value: Any, what: str) -> list:
    """``value`` if it is a JSON array; anything else is refused, naming ``what``."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {type(value).__name__}")
    return value


def _check_ints(obj: dict, names: Sequence[str], what: str) -> None:
    for name in names:
        if not _is_int(obj[name]):
            raise ValueError(f"{what} {name} must be an integer, got {obj[name]!r}")


class _KronRow:
    """The ``perm`` or ``signs`` of one Kronecker product image, standing for
    its JSON list in a built tree without being expanded.

    ``blocks`` are the image's block rows, the first most significant.  A
    perm has ``sign`` None: entry ``i1 * N2 + i2`` of ``X (x) Y`` is
    ``px[i1] * N2 + py[i2]``.  Signs have the image sign, which multiplies
    the product of the block entries.  :attr:`array` expands the row; a
    one-block perm, or one-block signs with sign 1, is the block itself.
    """

    __slots__ = ("sign", "blocks")

    def __init__(self, sign: Optional[int], blocks: list[np.ndarray]):
        self.sign, self.blocks = sign, blocks

    def __len__(self) -> int:
        return prod(map(len, self.blocks))

    @property
    def array(self) -> np.ndarray:
        if len(self.blocks) == 1 and self.sign in (None, 1):
            return self.blocks[0]
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
    """``tree`` with every :class:`_KronRow` replaced, in place, by its list.

    The builders make a fresh tree on every call, so nothing else sees it.
    """
    for key, value in tree.items() if isinstance(tree, dict) else enumerate(tree):
        if type(value) is _KronRow:
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
    _require_keys(obj, "presentation", ["m", "kappa"], ["delta"])
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


def _image_tree(order: int, sign: int, perms: list[np.ndarray], signs: list[np.ndarray]) -> dict:
    """The dict of ``sign`` times the Kronecker product of the blocks with
    rows ``perms`` / ``signs``, the first most significant."""
    return {"order": order, "perm": _KronRow(None, perms), "signs": _KronRow(sign, signs)}


# The keys of every image dict, which the bundle reader requires: stated
# once, in the dict display above, faster than a dict(zip(...)) per image.
_IMAGE_KEYS = tuple(_image_tree(1, 1, [], []))


def dense_to_rows(mat: DenseSignMatrix) -> list[list[int]]:
    return mat.array.tolist()


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


def representation_tree(rep: Representation) -> dict:
    blocks = rep.blocks()
    images = [_image_tree(rep.order, sign, [p[i] for p, _ in blocks], [s[i] for _, s in blocks])
              for i, sign in enumerate(rep.sign.tolist())]
    return {"order": rep.order, "images": images, "character": list(rep.character)}


def representation_to_dict(rep: Representation) -> dict:
    return _plain(representation_tree(rep))


# -- lambda patterns ---------------------------------------------------------


def lambda_to_dict(lam: LambdaPattern) -> dict:
    j, k = np.nonzero(~np.tri(lam.n, dtype=bool))
    value = np.where(bit_table(lam.neg, lam.n)[j, k], -1, 1)
    return {"n": lam.n, "entries": np.array([j + 1, k + 1, value]).T.tolist()}


def lambda_from_dict(obj: dict) -> LambdaPattern:
    _require_keys(obj, "lambda", ["n", "entries"])
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


def solve_result_tree(lam: LambdaPattern, result: SolveResult) -> dict:
    return {
        "lambda": lambda_to_dict(lam),
        "kappa": list(result.kappa),
        "presentation": presentation_to_dict(result.presentation),
        "wedderburn": wedderburn_to_dict(result.wedderburn),
        "b": result.b,
        "D": representation_tree(result.rep)["images"],
    }


def solve_result_to_dict(lam: LambdaPattern, result: SolveResult) -> dict:
    return _plain(solve_result_tree(lam, result))


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
    _require_keys(obj, "report", ["n", "b", "order", "checks", "passed"])
    _check_ints(obj, ("n", "b", "order"), "report")
    checks = obj["checks"]
    _require_keys(checks, "report checks", list(REPORT_CHECKS))
    for name, value in [*checks.items(), ("passed", obj["passed"])]:
        if not isinstance(value, bool):
            raise ValueError(f"report {name} must be true or false, got {value!r}")
    if obj["passed"] != all(checks[name] for name in REPORT_CHECKS):
        raise ValueError("report passed contradicts its checks")
    return VerificationReport(
        n=obj["n"], b=obj["b"], order=obj["order"],
        **{name: checks[name] for name in REPORT_CHECKS},
    )


def bundle_tree(bundle: HadamardBundle) -> dict:
    return {
        "n": bundle.n,
        "b": bundle.b,
        "A": [_image_tree(bundle.n, 1, [a.perm], [a.signs]) for a in bundle.A],
        "lambda": lambda_to_dict(bundle.lam),
        "D": [_image_tree(bundle.b, 1, [d.perm], [d.signs]) for d in bundle.D],
        "S": dense_to_rows(bundle.S),
        "B": np.stack([x.array for x in bundle.B]).tolist(),
        "H": sign_text_rows(bundle.H),
        "report": report_to_dict(bundle.report),
    }


def bundle_to_dict(bundle: HadamardBundle) -> dict:
    return _plain(bundle_tree(bundle))


def _int_block(members: list, shape: tuple[int, ...], name: str,
               valid: Callable[[np.ndarray], np.ndarray], rule: str) -> np.ndarray:
    """``members``, each nested lists of JSON integers of ``shape``, as one
    int64 array of shape ``(len(members), *shape)`` on which the mask
    ``valid(block)`` holds.

    List lengths are checked against ``shape`` level by level, before the
    level is flattened, so nothing made here outgrows the input's lists,
    whatever ``shape`` says.  An error names the first bad member ``k`` as
    ``name.format(k)``; ``rule`` says what a False in the mask means.
    """
    level, width = members, 1  # width: the items of this level per member
    for size in shape:
        ok = [type(x) is list and len(x) == size for x in level]
        if False in ok:
            i = ok.index(False)
            x = level[i]
            got = f"a list of {len(x)}" if type(x) is list else type(x).__name__
            raise ValueError(f"{name.format(i // width)} must have shape {shape}: "
                             f"got {got} where a list of {size} belongs")
        level = list(chain.from_iterable(level))
        width *= size
    flat, ok = _json_ints(level)
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(f"{name.format(i // width)} must hold 64-bit integers only, "
                         f"got {level[i]!r}")
    block = flat.reshape(len(members), *shape)
    bad = ~valid(block).reshape(len(members), -1).all(axis=1)
    if bad.any():
        raise ValueError(f"{name.format(int(np.argmax(bad)))} {rule}")
    return block


# The mask and rule of _int_block for signs and for +-1 matrices.
_SIGNS = (lambda block: np.abs(block) == 1, "must hold +1 or -1 only")


def _members(obj: dict, family: str, n: int) -> list:
    members = _list(obj[family], f"bundle {family}")
    if len(members) != n:
        raise ValueError(f"{family}_{min(len(members), n)} is "
                         f"{'missing' if len(members) < n else 'extra'}: "
                         f"bundle {family} has {len(members)} members, n = {n}")
    return members


def _monomial_family(obj: dict, family: str, n: int, order: int) -> tuple[MonomialMatrix, ...]:
    """The n members ``{family}_k`` of order ``order``, read as one stack."""
    members = _members(obj, family, n)
    for k, o in enumerate(members):
        _require_keys(o, f"{family}_{k}", _IMAGE_KEYS)
        if type(o["order"]) is not int or o["order"] != order:
            raise ValueError(f"{family}_{k} order must be {order}, got {o['order']!r}")
    perm = _int_block([o["perm"] for o in members], (order,), family + "_{} perm",
                      lambda p: np.sort(p, axis=1) == np.arange(order), "is not a permutation")
    signs = _int_block([o["signs"] for o in members], (order,), family + "_{} signs", *_SIGNS)
    return tuple(map(MonomialMatrix._closed, perm, signs))


def bundle_from_dict(obj: dict) -> HadamardBundle:
    """The bundle ``obj``, each family read as one stack of the shape that
    the header's ``n`` and ``b`` give: A (n, n), D (n, b), S (b, b) and
    B (n, b, b).  An error names the first bad member, 0-based."""
    _require_keys(obj, "bundle", ["n", "b", "A", "lambda", "D", "S", "B", "H", "report"])
    n, b = obj["n"], obj["b"]
    if not (_is_int(n) and _is_int(b) and n >= 1 and b >= 1):
        raise ValueError(f"bundle n and b must be positive integers, got n = {n!r}, b = {b!r}")
    A = _monomial_family(obj, "A", n, n)
    lam = lambda_from_dict(obj["lambda"])
    if lam.n != n:
        raise ValueError(f"lambda has n = {lam.n}, the bundle n = {n}")
    D = _monomial_family(obj, "D", n, b)
    S = DenseSignMatrix._closed(_int_block([obj["S"]], (b, b), "S", *_SIGNS)[0])
    B = tuple(map(DenseSignMatrix._closed,
                  _int_block(_members(obj, "B", n), (b, b), "B_{}", *_SIGNS)))
    H = sign_matrix_from_text_rows(_list(obj["H"], "bundle H"))
    if H.order != n * b:
        raise ValueError(f"H must have order n*b = {n * b}, got {H.order}")
    return HadamardBundle(n=n, b=b, A=A, lam=lam, D=D, S=S, B=B, H=H,
                          report=report_from_dict(obj["report"]))


# -- the JSON writer --------------------------------------------------------


# Shortest integer array that _int_array_text formats: below it numpy's fixed
# cost per array loses to one repr of the list.
INT_ARRAY_KERNEL_MIN = 512


def _digit_rows(values: np.ndarray, sep: bytes) -> np.ndarray:
    """Row ``i`` of the result, one fixed-width void item, is ``values[i]``
    as ``json.dumps`` writes it, followed by ``sep``.

    Each entry is right-aligned in a zero-filled field as wide as the
    widest entry.  The digits come column by column from ``//`` by 10; a
    zero left of the leading digit is cleared, and the ``-`` of a
    negative entry goes in the cleared cell next to it.  Dropping the zero
    bytes of a row leaves its text.
    """
    n = len(values)
    neg = values < 0
    signed = bool(neg.any())
    # abs(-2**63) wraps to -2**63, whose uint64 view is 2**63
    mag = np.abs(values).view(np.uint64)
    top = int(mag.max())
    width = len(str(top)) + signed
    if top < 1 << 32:
        mag = mag.astype(np.uint32)  # divides faster
    row = b"\0" * width + sep
    block = np.frombuffer(bytearray(row * n), np.uint8).reshape(n, len(row))
    shown = np.ones(n, dtype=bool)  # the units digit always shows
    for col in range(width - 1, -1, -1):
        rest = mag // 10
        digit = (mag - rest * 10).astype(np.uint8) + np.uint8(ord("0"))
        if col < width - 1:
            lead = shown & (mag == 0)  # just left of the leading digit
            shown = mag > 0
            digit *= shown
            if signed:
                digit += (lead & neg).view(np.uint8) * np.uint8(ord("-"))
        block[:, col] = digit
        mag = rest
    return block.view(np.dtype((np.void, len(row)))).ravel()


def _int_array_text(arr: np.ndarray, indent: str, tables: dict) -> str:
    """The text ``json.dumps(arr.tolist(), indent=2)`` gives at ``indent``,
    without its brackets and their line breaks.

    An array whose range ``max - min`` is below its length (every perm,
    every sign array) is gathered from the digit rows of the whole range
    ``[min, max]``.  Those rows are formed once per
    :func:`write_json` call and kept in ``tables`` under
    ``(min, max, indent)``, so every perm of one order shares the rows of
    ``0 .. order - 1``.  Any other array is formatted row by row itself.
    """
    arr = np.asarray(arr, dtype=np.int64)
    sep = (",\n" + indent + "  ").encode()
    lo, hi = int(arr.min()), int(arr.max())
    if hi - lo < len(arr):
        key = (lo, hi, indent)
        if key not in tables:
            tables[key] = _digit_rows(np.arange(hi - lo + 1) + lo, sep)
        rows = tables[key].take(arr - lo if lo else arr)
    else:
        rows = _digit_rows(arr, sep)
    text = rows.view(np.uint8)
    text[-len(sep):] = 0  # no separator after the last entry
    return text.tobytes().replace(b"\0", b"").decode("ascii")


def _kron_sign_text(sign: int, blocks: Sequence[np.ndarray], indent: str) -> str:
    """The text :func:`_int_array_text` gives the signs ``sign * (x)_t blocks[t]``
    of a Kronecker product, the first block most significant.

    The entries of a product over blocks ``t..`` are those over ``t+1..``
    times each entry of block ``t`` in turn, so its text joins the text of
    the ``+`` or the ``-`` product over ``t+1..`` once per entry.  Both
    texts are built from the innermost block out; the outermost block
    takes ``sign`` and builds the one text asked for.
    """
    sep = ",\n" + indent + "  "
    plus, minus = "1", "-1"
    for block in reversed(blocks[1:]):
        up = block.tolist()
        plus, minus = (sep.join([plus if s > 0 else minus for s in up]),
                       sep.join([minus if s > 0 else plus for s in up]))
    return sep.join([plus if s > 0 else minus for s in (sign * blocks[0]).tolist()])


def _int_list_depth(obj: list) -> int:
    """The depth of ``obj`` as nested non-empty lists with ints at the
    bottom (1 for a list of ints), or 0 if it is not one.

    Types are compared exactly, so a bool (an int subclass) or a tuple
    anywhere gives 0."""
    depth, level = 1, obj
    while True:
        types = set(map(type, level))
        if types == {int}:
            return depth
        if types != {list} or not all(level):
            return 0
        level = list(chain.from_iterable(level))
        depth += 1


@functools.lru_cache(maxsize=None)
def _int_list_layout(depth: int, indent: str) -> tuple[str, tuple[tuple[str, str], ...], str]:
    """The head, the ``(repr separator, JSON separator)`` pairs, widest
    first, and the tail of :func:`_int_list_text`."""
    pad = [indent + "  " * t for t in range(depth + 1)]
    seps = tuple(
        ("]" * k + ", " + "[" * k,
         "".join("\n" + pad[t] + "]" for t in range(depth - 1, depth - 1 - k, -1)) + ","
         + "".join("\n" + pad[t] + "[" for t in range(depth - k, depth)) + "\n" + pad[depth])
        for k in range(depth - 1, -1, -1))
    head = "[" + "".join("\n" + pad[t] + "[" for t in range(1, depth)) + "\n" + pad[depth]
    return head, seps, "".join("\n" + pad[t] + "]" for t in range(depth - 1, -1, -1))


def _int_list_text(obj: list, depth: int, indent: str) -> str:
    """The text ``json.dumps`` gives nested int lists of ``depth`` levels
    at ``indent``, from one ``repr``.

    In the ``repr``, siblings whose subtrees have ``k`` levels of lists
    are parted by ``k`` closing brackets, a ", " and ``k`` opening ones.
    Each separator, the widest first, becomes the line breaks and indents
    of the JSON layout, which hold no ", " for a narrower one to match.
    """
    head, seps, tail = _int_list_layout(depth, indent)
    text = list.__repr__(obj)[depth:-depth]
    for old, new in seps:
        text = text.replace(old, new)
    return head + text + tail


def _encode(obj, indent: str, out: list[str], tables: dict) -> None:
    """Append the text ``json.dumps`` gives ``obj`` at nesting ``indent``.

    ``json.dumps`` with ``indent`` runs the standard library's pure-Python
    encoder; this walk keeps its layout but formats the parts in C: keys
    and strings by the same escaper, a list of strings (the rows of H) by
    one join, and nested lists of plain ints (a lambda or delta table, the
    rows of S and B) by one ``repr`` (:func:`_int_list_text`).  A
    :class:`_KronRow` (nearly all of the bytes) is formatted by
    :func:`_int_array_text` (``tables`` holds its digit rows) or
    :func:`_kron_sign_text`, or written as its list below
    ``INT_ARRAY_KERNEL_MIN`` entries.  Scalars other than str and int go
    through ``json.dumps``, so floats read the same and a value it refuses
    (a bare numpy array or integer too) raises the same ``TypeError``.
    Keys must be str (every command's are); ``json.dumps`` would also
    convert number, bool and None keys, which this refuses.
    """
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + _quote(key) + ": ")
            _encode(value, inner, out, tables)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        if isinstance(obj, list):
            # exact types, so bools (an int subclass) never take these paths
            types = set(map(type, obj))
            depth = 1 if types == {int} else types == {list} and _int_list_depth(obj)
            if depth:
                out.append(_int_list_text(obj, depth, indent))
                return
            if types == {str}:
                out.append("[\n" + inner + (",\n" + inner).join(map(_quote, obj))
                           + "\n" + indent + "]")
                return
        sep = "[\n" + inner
        for value in obj:
            out.append(sep)
            _encode(value, inner, out, tables)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    elif type(obj) is _KronRow:
        if obj.sign is not None and len(obj.blocks) > 1 and len(obj) >= INT_ARRAY_KERNEL_MIN:
            text = _kron_sign_text(obj.sign, obj.blocks, indent)
        else:
            values = obj.array
            if len(values) < INT_ARRAY_KERNEL_MIN:
                values = values.tolist()
                out.append(_int_list_text(values, 1, indent) if values else "[]")
                return
            text = _int_array_text(values, indent, tables)
        out += ("[\n" + indent + "  ", text, "\n" + indent + "]")
    elif isinstance(obj, int) and not isinstance(obj, bool):
        out.append(int.__repr__(obj))
    else:
        out.append(json.dumps(obj))


def write_json(fh, obj: dict) -> None:
    """The one JSON format of every command: the bytes of
    ``json.dumps(obj, indent=2)`` plus a final newline.

    Every piece is formatted before the first is written, so nothing is
    written if formatting raises; the pieces then go to ``fh`` as they
    are, with no joined copy.  The digit rows :func:`_int_array_text`
    gathers from are formed once per call.
    """
    out: list[str] = []
    _encode(obj, "", out, {})
    out.append("\n")
    fh.writelines(out)
