"""Output checks that share no code with qcliff.

Each check parses what a request printed or wrote and recomputes the
defining property with its own arithmetic: signed permutations are
composed here from the JSON ``perm`` / ``signs`` arrays, and ``H H^T`` is
multiplied here.  A check returns a list of problems; empty means pass.
Golden SHA-256 digests of every output, recorded at the seed commit, pin
the bytes as well.
"""

from __future__ import annotations

import hashlib
import json
import re

import numpy as np

REPORT_CHECKS = ("disjoint_supports", "transversal_sum", "a_orthogonal", "a_lambda",
                 "b_lambda", "b_gram_sum", "h_matches_terms", "hadamard")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_problems(outputs: dict[str, bytes], golden: dict[str, str] | None) -> list[str]:
    if golden is None:
        return ["no golden digest recorded for this input"]
    got = {name: sha256(data) for name, data in outputs.items()}
    return [f"{name}: digest differs from the golden one"
            for name in sorted(set(got) | set(golden)) if got.get(name) != golden.get(name)]


def _signed_perm(obj: dict, order: int) -> tuple[np.ndarray, np.ndarray]:
    perm = np.array(obj["perm"], dtype=np.int64)
    signs = np.array(obj["signs"], dtype=np.int64)
    if obj["order"] != order or perm.shape != (order,) or signs.shape != (order,):
        raise ValueError(f"matrix is not of order {order}")
    if not np.array_equal(np.sort(perm), np.arange(order)):
        raise ValueError("perm is not a permutation of 0..order-1")
    if not np.all(np.abs(signs) == 1):
        raise ValueError("signs are not all +1 or -1")
    return perm, signs


def _mul(x, y):
    """Product of signed permutations: row i of ``x y`` has ``sx[i] sy[px[i]]``
    in column ``py[px[i]]``."""
    (px, sx), (py, sy) = x, y
    return py[px], sx * sy[px]


def _transpose(x):
    p, s = x
    pt = np.empty_like(p)
    pt[p] = np.arange(p.size)
    st = np.empty_like(s)
    st[p] = s
    return pt, st


def _equal(x, y, sign: int = 1) -> bool:
    return bool(np.array_equal(x[0], y[0]) and np.array_equal(x[1], sign * y[1]))


def check_hadamard(outputs: dict[str, bytes]) -> list[str]:
    """Both reports pass, and the written ``H`` is +-1 with ``H H^T = N I``."""
    problems = []
    reports = [json.loads(outputs[name]) for name in ("hadamard.stdout", "verify.stdout")]
    bundle = json.loads(outputs["B.json"])
    n, b = bundle["n"], bundle["b"]
    for name, rep in zip(("hadamard", "verify"), reports):
        if not (rep["passed"] is True and all(rep["checks"][c] is True for c in REPORT_CHECKS)):
            problems.append(f"{name} report does not pass")
        if (rep["n"], rep["b"], rep["order"]) != (n, b, n * b):
            problems.append(f"{name} report sizes differ from the bundle")
    rows = bundle["H"]
    order = n * b
    if len(rows) != order or any(len(r) != order for r in rows):
        return problems + [f"H is not {order} x {order}"]
    text = "".join(rows)
    if text.strip("+-"):
        return problems + ["H has entries other than + and -"]
    H = np.where(np.frombuffer(text.encode(), dtype=np.uint8) == ord("+"), 1.0, -1.0)
    H = H.reshape(order, order)
    # float64 products of +-1 entries are exact while every partial sum,
    # at most ``order`` in magnitude, stays below 2**53
    if order >= 2**53:
        raise ValueError("order too large for an exact float64 Gram matrix")
    if not np.array_equal(H @ H.T, order * np.eye(order)):
        problems.append("H H^T differs from N I")
    return problems


def check_solve(item_data: dict, outputs: dict[str, bytes]) -> list[str]:
    """Every lambda pair of the returned ``D``, and every square, recomputed."""
    out = json.loads(outputs["stdout"])
    n = item_data["n"]
    lam = {(j - 1, k - 1): v for j, k, v in item_data["entries"]}
    problems = []
    if out["lambda"] != item_data:
        problems.append("echoed lambda pattern differs from the input")
    b = out["b"]
    D = [_signed_perm(d, b) for d in out["D"]]
    if len(D) != n:
        return problems + [f"expected {n} matrices, got {len(D)}"]
    ident = (np.arange(b), np.ones(b, dtype=np.int64))
    for j in range(n):
        if not _equal(_mul(D[j], D[j]), ident, out["kappa"][j]):
            problems.append(f"D[{j}] squared is not kappa[{j}] I")
        for k in range(j + 1, n):
            left = _mul(D[j], _transpose(D[k]))
            right = _mul(D[k], _transpose(D[j]))
            if not _equal(left, right, lam[(j, k)]):
                problems.append(f"pair ({j}, {k}) does not realize lambda={lam[(j, k)]}")
    return problems


def check_represent(item_data: dict, outputs: dict[str, bytes]) -> list[str]:
    """Squares and (anti)commutation of every image, from the JSON arrays."""
    out = json.loads(outputs["stdout"])
    m, kappa = item_data["m"], item_data["kappa"]
    anti = {(i - 1, j - 1) for i, j, bit in item_data["delta"] if bit}
    order = out["order"]
    if out["wedderburn"]["irrep_order"] != order:
        return ["order differs from the reported irreducible order"]
    imgs = [_signed_perm(img, order) for img in out["images"]]
    if len(imgs) != m:
        return [f"expected {m} images, got {len(imgs)}"]
    ident = (np.arange(order), np.ones(order, dtype=np.int64))
    problems = []
    for i in range(m):
        if not _equal(_mul(imgs[i], imgs[i]), ident, kappa[i]):
            problems.append(f"image {i} squared is not kappa[{i}] I")
        for j in range(i + 1, m):
            sign = -1 if (i, j) in anti else 1
            if not _equal(_mul(imgs[i], imgs[j]), _mul(imgs[j], imgs[i]), sign):
                problems.append(f"images {i}, {j} break the commutation relation")
    return problems


_LABEL = re.compile(r"\^(\d+) ([RCH])\((\d+)\)")
_REAL_DIM = {"R": 1, "C": 2, "H": 4}
_CASE_LETTER = {"real": "R", "complex": "C", "quaternion": "H"}


def check_classify(item_data: dict, outputs: dict[str, bytes]) -> list[str]:
    """``r + 2s = m`` and ``num_irreps * component dimension = 2**m``."""
    out = json.loads(outputs["stdout"])
    m = item_data["m"]
    problems = []
    if out["r"] + 2 * out["s"] != m:
        problems.append(f"r + 2s = {out['r'] + 2 * out['s']} differs from m = {m}")
    match = _LABEL.fullmatch(out["label"])
    if match is None:
        return problems + [f"label {out['label']!r} is not of the form ^k D(N)"]
    count, field, size = int(match[1]), match[2], int(match[3])
    if count != out["num_irreps"] or field != _CASE_LETTER.get(out["case"]):
        problems.append("label disagrees with num_irreps or case")
    if out["num_irreps"] * _REAL_DIM[field] * size * size != 2**m:
        problems.append("num_irreps times the component dimension differs from 2**m")
    return problems


def check(kind: str, item_data, outputs: dict[str, bytes]) -> list[str]:
    if kind == "hadamard":
        return check_hadamard(outputs)
    if kind == "solve":
        return check_solve(item_data, outputs)
    if kind == "represent":
        return check_represent(item_data, outputs)
    return check_classify(item_data, outputs)
