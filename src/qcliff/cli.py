"""Command line surface.

Subcommands: classify, decompose, represent, solve, hadamard, tables,
rho, verify.  Every subcommand but ``tables`` supports ``--format json``
for stable machine-readable output; the default is a readable text
rendering.  ``tables`` has no ``--format``: its text output is itself a
fixed byte format.
JSON output, on stdout or in a ``hadamard --output`` bundle, is byte for
byte ``json.dumps(obj, indent=2)`` plus a newline (see :func:`_write_json`).
Integer arrays of at least 512 entries (the ``perm`` / ``signs`` arrays of
large monomial matrices) are formatted from numpy, not from Python lists;
a perm or sign array is gathered from one table of digit rows per output,
and the signs of a representation's images are joined from the texts of
their Kronecker blocks.  The bytes are the same.

Exit codes: 0 success (all verifications passing), 1 usage or parse
error, 2 resource cap exceeded, 3 verification failure.

Resource caps can be overridden by flags or environment variables:
``QCLIFF_MAX_N`` (cap on the ``2**M`` outer matrices of ``hadamard``)
and ``QCLIFF_MAX_ORDER`` (order cap of the irreducible that
``represent`` or ``solve`` builds, or, with a smaller default, of an
assembled dense Hadamard matrix).  One cap is fixed, with no flag: a
presentation file of more than ``MAX_M`` = 2048 generators, or a pattern
file of more than 2048 matrices, is refused as it is read, before any
m x m table is allocated.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional, Sequence

import numpy as np

from .decompose import decompose
from .errors import CapExceeded, VerificationError
from .hadamard import DEFAULT_MAX_N, DENSE_ORDER_CAP, TransversalSpec, complete, verify_bundle
from .represent import character_length, minimal_images
from .serialize import (
    _bundle_tree,
    _IntArray,
    _KronRow,
    _representation_tree,
    _solve_result_tree,
    bundle_from_dict,
    decomposition_to_dict,
    lambda_from_dict,
    presentation_from_dict,
    report_to_dict,
    sign_text_rows,
    wedderburn_to_dict,
)
from .solve import rho, solve
from .structure import classification_grid, classify, irrep_dimension_rows

MAX_PQ_CAP = 16
# Default order cap of ``represent`` and ``solve``: images are O(order)
# perm/sign arrays.
REPRESENT_ORDER_CAP = 1 << 20
# Shortest integer array that _int_array_text formats: below it numpy's fixed
# cost per array loses to one repr of the list.
INT_ARRAY_KERNEL_MIN = 512


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we reserve 2 for caps."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"environment variable {name} must be an integer") from exc


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


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
    :func:`_write_json` call and kept in ``tables`` under
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
    rows of S and B) by one ``repr`` (:func:`_int_list_text`).  The
    ``perm`` / ``signs`` arrays, nearly all of the bytes, come as :class:`~qcliff.serialize._IntArray` or, for a
    representation's images, as :class:`~qcliff.serialize._KronRow`.  One
    of at least ``INT_ARRAY_KERNEL_MIN`` entries is formatted from numpy
    by :func:`_int_array_text` (``tables`` holds its digit rows), the
    signs of a ``_KronRow`` from their blocks by :func:`_kron_sign_text`;
    a shorter one is written as its list.  Either way the bytes are those
    of the list.  Scalars other than str and int go through
    ``json.dumps``, so floats read the same and a value it refuses (a bare
    numpy array or integer too) raises the same ``TypeError``.  Keys must
    be str (every command's are); ``json.dumps`` would also convert
    number, bool and None keys, which this refuses.
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
    elif type(obj) in (_IntArray, _KronRow):
        if len(obj) < INT_ARRAY_KERNEL_MIN:
            values = obj.array.tolist()
            out.append(_int_list_text(values, 1, indent) if values else "[]")
            return
        if type(obj) is _KronRow and obj.sign is not None:
            text = _kron_sign_text(obj.sign, obj.blocks, indent)
        else:
            text = _int_array_text(obj.array, indent, tables)
        out += ("[\n" + indent + "  ", text, "\n" + indent + "]")
    elif isinstance(obj, int) and not isinstance(obj, bool):
        out.append(int.__repr__(obj))
    else:
        out.append(json.dumps(obj))


def _write_json(fh, obj: dict) -> None:
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


def _parse_character(raw: Optional[str], expected: int) -> tuple[int, ...]:
    if raw is None or raw == "":
        return (0,) * expected
    if set(raw) - {"0", "1"}:
        raise ValueError(f"character must be a string of 0/1 bits, got {raw!r}")
    return tuple(int(ch) for ch in raw)


def cmd_classify(args: argparse.Namespace) -> int:
    P = presentation_from_dict(_load_json(args.presentation))
    wt = classify(decompose(P))
    if args.format == "json":
        _write_json(sys.stdout, wedderburn_to_dict(wt))
    else:
        d = wedderburn_to_dict(wt)
        for key in ("case", "r", "s", "num_irreps", "irrep_order", "label", "compact_label"):
            sys.stdout.write(f"{key}: {d[key]}\n")
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    P = presentation_from_dict(_load_json(args.presentation))
    D = decompose(P)
    if args.format == "json":
        _write_json(sys.stdout, decomposition_to_dict(D))
    else:
        r, gens, squares = D.r, D.new_generators, D.squares
        sys.stdout.write(f"r: {r}\ns: {D.s}\n")
        for i in range(r):
            sys.stdout.write(f"central: {gens[i]} square={squares[i]:+d}\n")
        for k in range(r, len(gens), 2):
            sys.stdout.write(
                f"pair: {gens[k]} square={squares[k]:+d}, "
                f"{gens[k + 1]} square={squares[k + 1]:+d}\n"
            )
    return 0


def cmd_represent(args: argparse.Namespace) -> int:
    P = presentation_from_dict(_load_json(args.presentation))
    D = decompose(P)
    wt = classify(D)
    if wt.irrep_order > args.max_order:
        raise CapExceeded(f"irreducible order {wt.irrep_order} exceeds the cap {args.max_order}")
    character = _parse_character(args.character, character_length(D))
    rep = minimal_images(P, character, D)
    if args.format == "json":
        out = _representation_tree(rep)
        out["wedderburn"] = wedderburn_to_dict(wt)
        _write_json(sys.stdout, out)
    else:
        sys.stdout.write(f"order: {rep.order}\ncharacter: {''.join(map(str, rep.character))}\n")
        for i, img in enumerate(rep.generator_images):
            sys.stdout.write(
                f"image a{i + 1}: perm={img.perm.tolist()} signs={img.signs.tolist()}\n"
            )
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    lam = lambda_from_dict(_load_json(args.pattern))
    result = solve(lam, max_order=args.max_order)
    if args.format == "json":
        _write_json(sys.stdout, _solve_result_tree(lam, result))
    else:
        sys.stdout.write(
            f"n: {lam.n}\nb: {result.b}\nkappa: {list(result.kappa)}\n"
            f"label: {result.wedderburn.label}\n"
        )
    return 0


def cmd_rho(args: argparse.Namespace) -> int:
    value = rho(args.N)
    if args.format == "json":
        _write_json(sys.stdout, {"N": args.N, "rho": value})
    else:
        sys.stdout.write(f"{value}\n")
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    if args.max_pq < 0:
        raise ValueError(f"--max-pq must be >= 0, got {args.max_pq}")
    if args.max_pq > MAX_PQ_CAP:
        raise CapExceeded(f"p+q bound {args.max_pq} exceeds the cap {MAX_PQ_CAP}")
    half = args.max_pq // 2
    sections = []
    if args.section in ("grid", "all"):
        grid = classification_grid(half, half)
        sections.append("\n".join(" ".join(row) for row in grid) + "\n")
    if args.section in ("dims", "all"):
        totals = tuple(t for t in (2, 4, 8) if t <= args.max_pq)
        rows = irrep_dimension_rows(totals)
        sections.append(
            "\n".join(f"{p} {q} {label} {order}" for p, q, label, order in rows) + "\n"
        )
    sys.stdout.write("\n".join(sections))
    return 0


def cmd_hadamard(args: argparse.Namespace) -> int:
    spec = None
    if args.diag or args.offdiag:
        # the missing string defaults to the given one's length; complete
        # checks that length against M after its caps
        diag = args.diag or "I" * len(args.offdiag)
        offdiag = args.offdiag or "X" * len(args.diag)
        spec = TransversalSpec.from_strings(diag, offdiag)
    bundle = complete(
        args.depth,
        spec,
        max_n=args.max_n,
        max_order=args.max_order,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            _write_json(fh, _bundle_tree(bundle))
    if args.text_output:
        with open(args.text_output, "w", encoding="utf-8") as fh:
            fh.write("\n".join(sign_text_rows(bundle.H)) + "\n")
    return _emit_report(args, bundle, report_only=bool(args.output))


def _emit_report(args: argparse.Namespace, bundle, report_only: bool) -> int:
    report = bundle.report
    if args.format == "json":
        if report_only:
            _write_json(sys.stdout, report_to_dict(report))
        else:
            _write_json(sys.stdout, _bundle_tree(bundle))
    else:
        d = report_to_dict(report)
        sys.stdout.write(f"n: {d['n']}\nb: {d['b']}\norder: {d['order']}\n")
        for name, ok in d["checks"].items():
            sys.stdout.write(f"check {name}: {'pass' if ok else 'FAIL'}\n")
        sys.stdout.write(f"verification: {'pass' if report.passed else 'FAIL'}\n")
    return 0 if report.passed else 3


def cmd_verify(args: argparse.Namespace) -> int:
    bundle = verify_bundle(bundle_from_dict(_load_json(args.bundle)))
    return _emit_report(args, bundle, report_only=True)


def build_parser() -> _Parser:
    parser = _Parser(prog="qcliff", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("classify", help="Wedderburn type of a presentation file")
    p.add_argument("presentation")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("decompose", help="central generators and hyperbolic pairs")
    p.add_argument("presentation")
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("represent", help="minimal monomial generator images")
    p.add_argument("presentation")
    p.add_argument("--character", default=None,
                   help="0/1 bits choosing central signs (default: all zero)")
    p.add_argument("--max-order", type=int,
                   default=_env_int("QCLIFF_MAX_ORDER", REPRESENT_ORDER_CAP))
    common(p)
    p.set_defaults(func=cmd_represent)

    p = sub.add_parser("solve", help="minimal monomial family for a lambda pattern file")
    p.add_argument("pattern")
    p.add_argument("--max-order", type=int,
                   default=_env_int("QCLIFF_MAX_ORDER", REPRESENT_ORDER_CAP))
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("hadamard", help="run the plug-in pipeline for depth m")
    p.add_argument("depth", type=int, nargs="?", default=1, metavar="M")
    p.add_argument("--diag", default=None, help="per-position diagonal choices, e.g. IZI")
    p.add_argument("--offdiag", default=None, help="per-position off-diagonal choices, e.g. XYX")
    p.add_argument("--output", default=None, help="write the full bundle JSON here")
    p.add_argument("--text-output", default=None,
                   help="write the +/- text rows of the result here")
    p.add_argument("--max-n", type=int, default=_env_int("QCLIFF_MAX_N", DEFAULT_MAX_N))
    p.add_argument("--max-order", type=int,
                   default=_env_int("QCLIFF_MAX_ORDER", DENSE_ORDER_CAP))
    common(p)
    p.set_defaults(func=cmd_hadamard)

    p = sub.add_parser("tables", help="classification grid and irreducible dimensions")
    p.add_argument("--section", choices=("grid", "dims", "all"), default="all")
    p.add_argument("--max-pq", type=int, default=16)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("rho", help="Hurwitz-Radon function")
    p.add_argument("N", type=int)
    common(p)
    p.set_defaults(func=cmd_rho)

    p = sub.add_parser("verify", help="re-check a stored bundle file")
    p.add_argument("bundle")
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


@functools.lru_cache(maxsize=1)
def _parser(caps: tuple[Optional[str], Optional[str]]) -> _Parser:
    """:func:`build_parser`, built again only when ``caps`` changes.

    ``caps`` holds the raw ``QCLIFF_MAX_N`` and ``QCLIFF_MAX_ORDER``
    values that the parser's defaults are read from.  A malformed one
    raises from every call, since a raising call is not cached.
    """
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        caps = (os.environ.get("QCLIFF_MAX_N"), os.environ.get("QCLIFF_MAX_ORDER"))
        args = _parser(caps).parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except CapExceeded as exc:
        sys.stderr.write(f"resource cap exceeded: {exc}\n")
        return 2
    except VerificationError as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
