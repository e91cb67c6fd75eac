"""Command line surface.

Subcommands: classify, decompose, represent, solve, hadamard, tables,
rho, verify.  Every subcommand supports ``--format json`` for stable
machine-readable output; the default is a readable text rendering
(except ``tables``, whose text output is itself a fixed byte format).

Exit codes: 0 success (all verifications passing), 1 usage or parse
error, 2 resource cap exceeded, 3 verification failure.

Resource caps can be overridden by flags or environment variables:
``QCLIFF_MAX_N`` (sign-sweep size cap), ``QCLIFF_MAX_M`` (tensor depth
cap) and ``QCLIFF_MAX_ORDER`` (order cap of an assembled Hadamard matrix
or of a represented irreducible).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .decompose import decompose
from .errors import CapExceeded, VerificationError
from .hadamard import TransversalSpec, complete, verify_bundle
from .represent import build_irrep, character_length, pushforward
from .serialize import (
    bundle_from_dict,
    bundle_to_dict,
    decomposition_to_dict,
    lambda_from_dict,
    presentation_from_dict,
    report_to_dict,
    representation_to_dict,
    sign_text_rows,
    solve_result_to_dict,
    wedderburn_to_dict,
)
from .solve import rho, solve
from .structure import classification_grid, classify, irrep_dimension_rows

MAX_PQ_CAP = 16


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


def _emit_json(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


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
        _emit_json(wedderburn_to_dict(wt))
    else:
        d = wedderburn_to_dict(wt)
        for key in ("case", "r", "s", "num_irreps", "irrep_order", "label", "compact_label"):
            sys.stdout.write(f"{key}: {d[key]}\n")
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    P = presentation_from_dict(_load_json(args.presentation))
    D = decompose(P)
    if args.format == "json":
        _emit_json(decomposition_to_dict(D))
    else:
        sys.stdout.write(f"r: {D.r}\ns: {D.s}\n")
        for c in D.centrals:
            sys.stdout.write(f"central: {c.element} square={c.square:+d}\n")
        for p in D.pairs:
            sys.stdout.write(
                f"pair: {p.first} square={p.first_square:+d}, "
                f"{p.second} square={p.second_square:+d}\n"
            )
    return 0


def cmd_represent(args: argparse.Namespace) -> int:
    P = presentation_from_dict(_load_json(args.presentation))
    D = decompose(P)
    wt = classify(D)
    if wt.irrep_order > args.max_order:
        raise CapExceeded(f"irreducible order {wt.irrep_order} exceeds the cap {args.max_order}")
    character = _parse_character(args.character, character_length(D))
    rep = pushforward(build_irrep(D, character))
    if args.format == "json":
        out = representation_to_dict(rep)
        out["wedderburn"] = wedderburn_to_dict(wt)
        _emit_json(out)
    else:
        sys.stdout.write(f"order: {rep.order}\ncharacter: {''.join(map(str, rep.character))}\n")
        for i, img in enumerate(rep.generator_images):
            sys.stdout.write(
                f"image a{i + 1}: perm={img.perm.tolist()} signs={img.signs.tolist()}\n"
            )
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    lam = lambda_from_dict(_load_json(args.pattern))
    result = solve(lam, max_n=args.max_n)
    if args.format == "json":
        _emit_json(solve_result_to_dict(lam, result))
    else:
        sys.stdout.write(
            f"n: {lam.n}\nb: {result.b}\nkappa: {list(result.kappa)}\n"
            f"label: {result.wedderburn.label}\n"
        )
    return 0


def cmd_rho(args: argparse.Namespace) -> int:
    value = rho(args.N)
    if args.format == "json":
        _emit_json({"N": args.N, "rho": value})
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
        totals = tuple(t for t in (2, 4, 8) if t <= args.max_pq)
        rows = irrep_dimension_rows(totals)
        sections.append(
            "\n".join(f"{p} {q} {label} {order}" for p, q, label, order in rows) + "\n"
        )
    sys.stdout.write("\n".join(sections))
    return 0


def cmd_hadamard(args: argparse.Namespace) -> int:
    if args.verify_only is not None:
        bundle = verify_bundle(bundle_from_dict(_load_json(args.verify_only)))
        return _emit_report(args, bundle)
    if args.depth < 1:
        raise ValueError("tensor depth must be >= 1")
    if args.depth > args.max_m:
        raise CapExceeded(f"tensor depth {args.depth} exceeds the cap {args.max_m}")
    if args.diag or args.offdiag:
        diag = args.diag or "I" * args.depth
        offdiag = args.offdiag or "X" * args.depth
        spec = TransversalSpec.from_strings(diag, offdiag)
    else:
        spec = TransversalSpec.default(args.depth)
    bundle = complete(
        args.depth,
        spec,
        solve_cap=args.max_n,
        max_order=args.max_order,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(bundle_to_dict(bundle), fh, indent=2)
            fh.write("\n")
    if args.text_output:
        with open(args.text_output, "w", encoding="utf-8") as fh:
            fh.write("\n".join(sign_text_rows(bundle.H)) + "\n")
    return _emit_report(args, bundle, wrote=args.output)


def _emit_report(args: argparse.Namespace, bundle, wrote: Optional[str] = None) -> int:
    report = bundle.report
    if args.format == "json":
        if args.verify_only is not None or wrote:
            _emit_json(report_to_dict(report))
        else:
            _emit_json(bundle_to_dict(bundle))
    else:
        d = report_to_dict(report)
        sys.stdout.write(f"n: {d['n']}\nb: {d['b']}\norder: {d['order']}\n")
        for name, ok in d["checks"].items():
            sys.stdout.write(f"check {name}: {'pass' if ok else 'FAIL'}\n")
        sys.stdout.write(f"verification: {'pass' if report.passed else 'FAIL'}\n")
    return 0 if report.passed else 3


def cmd_verify(args: argparse.Namespace) -> int:
    bundle = verify_bundle(bundle_from_dict(_load_json(args.bundle)))
    args.verify_only = args.bundle
    return _emit_report(args, bundle)


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
    p.add_argument("--max-order", type=int, default=_env_int("QCLIFF_MAX_ORDER", 1 << 20))
    common(p)
    p.set_defaults(func=cmd_represent)

    p = sub.add_parser("solve", help="minimal monomial family for a lambda pattern file")
    p.add_argument("pattern")
    p.add_argument("--max-n", type=int, default=_env_int("QCLIFF_MAX_N", 16))
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("hadamard", help="run the plug-in pipeline for depth m")
    p.add_argument("depth", type=int, nargs="?", default=1, metavar="M")
    p.add_argument("--diag", default=None, help="per-position diagonal choices, e.g. IZI")
    p.add_argument("--offdiag", default=None, help="per-position off-diagonal choices, e.g. XYX")
    p.add_argument("--output", default=None, help="write the full bundle JSON here")
    p.add_argument("--text-output", default=None,
                   help="write the +/- text rows of the result here")
    p.add_argument("--verify-only", default=None, metavar="BUNDLE",
                   help="re-check a stored bundle instead of constructing")
    p.add_argument("--max-n", type=int, default=_env_int("QCLIFF_MAX_N", 16))
    p.add_argument("--max-m", type=int, default=_env_int("QCLIFF_MAX_M", 8))
    p.add_argument("--max-order", type=int, default=_env_int("QCLIFF_MAX_ORDER", 1 << 20))
    common(p)
    p.set_defaults(func=cmd_hadamard)

    p = sub.add_parser("tables", help="classification grid and irreducible dimensions")
    p.add_argument("--section", choices=("grid", "dims", "all"), default="all")
    p.add_argument("--max-pq", type=int, default=16)
    common(p)
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
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
