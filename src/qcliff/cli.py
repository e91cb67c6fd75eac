"""Command line surface.

Subcommands: classify, decompose, represent, solve, hadamard, tables,
rho, verify.  Every subcommand but ``tables`` supports ``--format json``
for stable machine-readable output; the default is a readable text
rendering.  ``tables`` has no ``--format``: its text output is itself a
fixed byte format.
JSON output, on stdout or in a ``hadamard --output`` bundle, is byte for
byte ``json.dumps(obj, indent=2)`` plus a newline, written by
:func:`qcliff.serialize.write_json`.

Exit codes: 0 success (all verifications passing), 1 usage or parse
error, 2 resource cap exceeded, 3 verification failure.

Resource caps can be overridden by flags or environment variables:
``QCLIFF_MAX_N`` (cap on the ``2**M`` outer matrices of ``hadamard``)
and ``QCLIFF_MAX_ORDER`` (order cap of the irreducible that
``represent`` or ``solve`` builds, or, with a smaller default, of an
assembled dense Hadamard matrix).  A cap is an integer of 0 or more; a
negative one, by flag or variable, is a usage error.  One cap is fixed,
with no flag: a presentation file of more than ``MAX_M`` = 2048
generators, or a pattern file of more than 2048 matrices, is refused as
it is read, before any m x m table is allocated.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import suppress
from typing import Optional, Sequence

from .decompose import decompose
from .errors import CapExceeded, VerificationError
from .hadamard import DEFAULT_MAX_N, DENSE_ORDER_CAP, TransversalSpec, complete, verify_bundle
from .represent import character_length, minimal_images
from .serialize import (
    bundle_from_dict,
    bundle_tree,
    decomposition_to_dict,
    lambda_from_dict,
    presentation_from_dict,
    report_to_dict,
    representation_tree,
    sign_text_rows,
    solve_result_tree,
    wedderburn_to_dict,
    write_json,
)
from .solve import rho, solve
from .structure import classification_grid, classify, irrep_dimension_rows

MAX_PQ_CAP = 16
# Default order cap of ``represent`` and ``solve``: images are O(order)
# perm/sign arrays.
REPRESENT_ORDER_CAP = 1 << 20


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we reserve 2 for caps."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _env_cap(name: str, default: int) -> int:
    raw = os.environ.get(name, str(default))
    if not raw.isdecimal():  # the digits int() reads, and no sign
        raise ValueError(f"environment variable {name} must be an integer >= 0, got {raw!r}")
    return int(raw)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _check_output(path: str) -> bool:
    """Refuse an output path that cannot be written, before any work is
    done for it; True if the check made the file (empty)."""
    made = not os.path.lexists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc
    return made


def _write_file(path: str, write) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            write(fh)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


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
        write_json(sys.stdout, wedderburn_to_dict(wt))
    else:
        d = wedderburn_to_dict(wt)
        for key in ("case", "r", "s", "num_irreps", "irrep_order", "label", "compact_label"):
            sys.stdout.write(f"{key}: {d[key]}\n")
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    P = presentation_from_dict(_load_json(args.presentation))
    D = decompose(P)
    if args.format == "json":
        write_json(sys.stdout, decomposition_to_dict(D))
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
        out = representation_tree(rep)
        out["wedderburn"] = wedderburn_to_dict(wt)
        write_json(sys.stdout, out)
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
        write_json(sys.stdout, solve_result_tree(lam, result))
    else:
        sys.stdout.write(
            f"n: {lam.n}\nb: {result.b}\nkappa: {list(result.kappa)}\n"
            f"label: {result.wedderburn.label}\n"
        )
    return 0


def cmd_rho(args: argparse.Namespace) -> int:
    value = rho(args.N)
    if args.format == "json":
        write_json(sys.stdout, {"N": args.N, "rho": value})
    else:
        sys.stdout.write(f"{value}\n")
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    if args.max_pq > MAX_PQ_CAP:
        raise CapExceeded(f"p+q bound {args.max_pq} exceeds the cap {MAX_PQ_CAP}")
    half = args.max_pq // 2
    sections = []
    if args.section in ("grid", "all"):
        grid = classification_grid(half, half)
        sections.append("\n".join(" ".join(row) for row in grid) + "\n")
    if args.section in ("dims", "all"):
        # below p + q = 2 there are no rows, and the section is left out
        rows = irrep_dimension_rows(tuple(t for t in (2, 4, 8) if t <= args.max_pq))
        if rows:
            sections.append("".join(f"{p} {q} {label} {order}\n" for p, q, label, order in rows))
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
    # both outputs are checked before any work; the files the check made
    # are removed if the command fails
    made = []
    try:
        for path in (args.output, args.text_output):
            if path and _check_output(path):
                made.append(path)
        bundle = complete(args.depth, spec, max_n=args.max_n, max_order=args.max_order)
        if args.output:
            _write_file(args.output, lambda fh: write_json(fh, bundle_tree(bundle)))
        if args.text_output:
            _write_file(args.text_output,
                        lambda fh: fh.write("\n".join(sign_text_rows(bundle.H)) + "\n"))
    except BaseException:
        for path in made:
            with suppress(OSError):
                os.remove(path)
        raise
    return _emit_report(args, bundle, report_only=bool(args.output))


def _emit_report(args: argparse.Namespace, bundle, report_only: bool) -> int:
    report = bundle.report
    if args.format == "json":
        if report_only:
            write_json(sys.stdout, report_to_dict(report))
        else:
            write_json(sys.stdout, bundle_tree(bundle))
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
                   default=_env_cap("QCLIFF_MAX_ORDER", REPRESENT_ORDER_CAP))
    common(p)
    p.set_defaults(func=cmd_represent)

    p = sub.add_parser("solve", help="minimal monomial family for a lambda pattern file")
    p.add_argument("pattern")
    p.add_argument("--max-order", type=int,
                   default=_env_cap("QCLIFF_MAX_ORDER", REPRESENT_ORDER_CAP))
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("hadamard", help="run the plug-in pipeline for depth m")
    p.add_argument("depth", type=int, nargs="?", default=1, metavar="M")
    p.add_argument("--diag", default=None, help="per-position diagonal choices, e.g. IZI")
    p.add_argument("--offdiag", default=None, help="per-position off-diagonal choices, e.g. XYX")
    p.add_argument("--output", default=None, help="write the full bundle JSON here")
    p.add_argument("--text-output", default=None,
                   help="write the +/- text rows of the result here")
    p.add_argument("--max-n", type=int, default=_env_cap("QCLIFF_MAX_N", DEFAULT_MAX_N))
    p.add_argument("--max-order", type=int,
                   default=_env_cap("QCLIFF_MAX_ORDER", DENSE_ORDER_CAP))
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
        for flag in ("max_n", "max_order", "max_pq"):
            value = getattr(args, flag, 0)
            if value < 0:
                raise ValueError(f"--{flag.replace('_', '-')} must be >= 0, got {value}")
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
