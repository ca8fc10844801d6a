"""Command-line front end.

Subcommands:
    bound FILE          parse a manifold description, derive the dimension
                        bound, print verdict, consequences and optionally
                        the rule-by-rule trace
    catalog --dim N     list the geometry table for one dimension
    cover build         emit a shifted-brick cover witness for a free
                        abelian ball
    cover verify FILE   recheck a witness file
    cover search        exhaustive minimal-family search on a tiny ball

Each subcommand imports the package modules it runs when it runs, and no
others: catalog loads bounds, geometries, groups and engine, which
derives the lattice column; bound loads those plus manifolds, never
coarse; the cover subcommands load coarse alone, and numpy with it.

Exit codes: 0 success, 1 semantic failure (invalid cover, no cover found),
2 unusable input (parse errors, bad arguments, budget, unreadable input or
unwritable output files, a closed stdout, nesting deeper than the
interpreter's recursion limit), 3 inconsistent derived bounds.
A refusal is one line on stderr: "file:line:col: error: text" for a manifold
description, "file:line: error: text" for a witness, "path: error: text" for
a file that cannot be read or written, "error: text" for arguments and depth.
"""

from __future__ import annotations

import argparse
import importlib
import io
import os
import sys

from . import Refusal

# The functions of other modules that handlers call, by the name they are
# called under here: (module, attribute).  Each becomes a module global on
# first use, through __getattr__, and handlers read it back through _load,
# so a wrapper set on this module (bench/spans.py times calls that way)
# is what runs.
_LAZY = {
    "parse_manifold": ("manifolds", "parse_manifold"),
    "compile_manifold": ("manifolds", "compile"),
    "to_canonical": ("groups", "to_canonical"),
    "list_geometries": ("geometries", "list_geometries"),
    "fact_record": ("geometries", "fact_record"),
    "brick_cover": ("coarse", "brick_cover"),
    "cayley_ball": ("coarse", "cayley_ball"),
    "format_witness": ("coarse", "format_witness"),
    "min_families_exhaustive": ("coarse", "min_families_exhaustive"),
    "parse_witness": ("coarse", "parse_witness"),
    "verify_cover": ("coarse", "verify_cover"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attr = _LAZY[name]
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __package__), attr)
    return value


def _load(*names: str) -> tuple:
    """The module globals of these names, set on first use."""
    scope = globals()
    return tuple(scope[name] if name in scope else __getattr__(name) for name in names)


def _read_text(path: str) -> str:
    try:
        with open(path, "rb") as file:
            return file.read().decode("utf-8")
    except OSError as exc:
        raise Refusal(exc.strerror or str(exc), path=path) from exc
    except UnicodeDecodeError as exc:
        raise Refusal(f"not valid UTF-8 ({exc.reason})", path=path) from exc


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as file:
            file.write(text)
    except OSError as exc:
        raise Refusal(exc.strerror or str(exc), path=path) from exc


def cmd_bound(args: argparse.Namespace) -> int:
    from . import engine

    parse_manifold, compile_manifold, to_canonical = _load(
        "parse_manifold", "compile_manifold", "to_canonical"
    )
    text = _read_text(args.file)
    desc = parse_manifold(text)
    expr, verdict = compile_manifold(desc)
    aspherical = verdict.status == "Aspherical"
    result = engine.bound(expr, aspherical_dim=desc.dim if aspherical else None)
    cons = engine.consequences(result.bound, aspherical)
    if args.format == "structured":
        import hashlib
        import json

        payload = {
            "input": {"digest": "sha256:" + hashlib.sha256(text.encode()).hexdigest()},
            "group": to_canonical(expr),
            "bound": {"lower": result.bound.lower, "upper": str(result.bound.upper)},
            "verdict": {"status": verdict.status, "reason": verdict.reason},
            "consequences": [
                {"kind": c.kind, "condition": c.condition, "citation": c.citation}
                for c in cons
            ],
            "trace": engine.trace_lines(engine.serialize_trace(result.trace)) if args.trace else None,
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"group: {to_canonical(expr)}")
    print(f"bound: {result.bound}")
    print(f"verdict: {verdict.status} ({verdict.reason})")
    if cons:
        print("consequences:")
        for c in cons:
            print(f"  {c.kind}: {c.condition}")
            print(f"    {c.citation}")
    else:
        print("consequences: none")
    if args.trace:
        print("trace:")
        for line in engine.trace_lines(engine.serialize_trace(result.trace)):
            print(f"  {line}")
        used: list[str] = []
        for step in result.trace.steps:
            if step.rule_id not in used:
                used.append(step.rule_id)
        if used:
            print("citations:")
            for rid in used:
                print(f"  {rid}: {engine.RULES[rid].citation}")
    return 0


def cmd_catalog(args: argparse.Namespace) -> int:
    from .engine import lattice_bound

    list_geometries, fact_record = _load("list_geometries", "fact_record")
    facts = list_geometries(args.dim)
    if args.format == "structured":
        import json

        payload = {"dim": args.dim, "geometries": [fact_record(f, lattice_bound(f)) for f in facts]}
        print(json.dumps(payload, indent=2))
        return 0
    for f in facts:
        flags = []
        if f.aspherical_model:
            flags.append("aspherical")
        if f.compact_model:
            flags.append("compact")
        suffix = " [" + ",".join(flags) + "]" if flags else ""
        print(
            f"{f.name:<9} {f.klass:<12} model={f.model_asdim}"
            f" lattice={lattice_bound(f)} via {f.lattice_rule}{suffix}"
        )
    return 0


def cmd_cover_build(args: argparse.Namespace) -> int:
    brick_cover, format_witness = _load("brick_cover", "format_witness")
    witness = brick_cover(args.rank, args.D, args.radius)
    text = format_witness(witness)
    if args.output:
        _write_text(args.output, text)
        subsets = sum(len(fam) for fam in witness.families)
        print(
            f"wrote {args.output}: {len(witness.space)} points,"
            f" {len(witness.families)} families, {subsets} subsets,"
            f" D={witness.D}, B={witness.B}"
        )
    else:
        sys.stdout.write(text)
    return 0


def cmd_cover_verify(args: argparse.Namespace) -> int:
    parse_witness, verify_cover = _load("parse_witness", "verify_cover")
    witness = parse_witness(_read_text(args.file))
    report = verify_cover(witness)
    if report.valid:
        subsets = sum(len(fam) for fam in witness.families)
        print(
            f"OK: {len(witness.space)} points, {len(witness.families)} families,"
            f" {subsets} subsets, D={witness.D}, B={witness.B}"
        )
        return 0
    for v in report.violations:
        print(f"violation: {v}")
    print(f"FAIL: {len(report.violations)} violation(s)")
    return 1


def cmd_cover_search(args: argparse.Namespace) -> int:
    from .coarse import SEARCH_POINT_LIMIT, parse_group_spec

    cayley_ball, min_families_exhaustive, format_witness = _load(
        "cayley_ball", "min_families_exhaustive", "format_witness"
    )
    spec = parse_group_spec(args.group)
    space = cayley_ball(spec, args.radius, SEARCH_POINT_LIMIT)
    result = min_families_exhaustive(space, args.D, args.B, args.k_max)
    if result.k is None:
        print("k=none")
        return 1
    print(f"k={result.k}")
    if args.output and result.witness is not None:
        _write_text(args.output, format_witness(result.witness))
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # one refusal line, with no usage block
        raise Refusal(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="asdimlab",
        description="Certified asymptotic-dimension bounds for manifold"
        " fundamental groups, plus a finite-scale cover laboratory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="derive a dimension bound from a manifold file")
    p.add_argument("file", help="manifold description file")
    p.add_argument("--trace", action="store_true", help="include the derivation trace")
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("catalog", help="list the geometry table for one dimension")
    p.add_argument("--dim", type=int, required=True, choices=(2, 3, 4))
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("cover", help="cover witness tools")
    csub = p.add_subparsers(dest="cover_command", required=True)

    b = csub.add_parser("build", help="brick cover of a free abelian ball")
    b.add_argument("--rank", type=int, required=True, help="free abelian rank, 1..3")
    b.add_argument("-D", dest="D", type=int, required=True, metavar="DIST",
                   help="required separation within a family")
    b.add_argument("--radius", type=int, required=True, help="ball radius")
    b.add_argument("-o", "--output", help="write the witness here instead of stdout")
    b.set_defaults(func=cmd_cover_build)

    v = csub.add_parser("verify", help="recheck a witness file")
    v.add_argument("file", help="witness file")
    v.set_defaults(func=cmd_cover_verify)

    s = csub.add_parser("search", help="exhaustive minimal-family search")
    s.add_argument("--group", required=True,
                   help='e.g. "FreeAbelian(1)" or "FreeGroup(2)" or "Heisenberg3"')
    s.add_argument("--radius", type=int, required=True)
    s.add_argument("-D", dest="D", type=int, required=True, metavar="DIST")
    s.add_argument("-B", dest="B", type=int, required=True, metavar="DIAM")
    s.add_argument("--k-max", dest="k_max", type=int, default=4)
    s.add_argument("-o", "--output", help="save the found witness")
    s.set_defaults(func=cmd_cover_search)
    return parser


def main(argv: list[str] | None = None) -> int:
    stdout, args = sys.stdout, None
    if isinstance(getattr(stdout, "buffer", None), io.RawIOBase):
        # an unbuffered stdout (-u, PYTHONUNBUFFERED) silently drops what a short
        # write leaves, as when the pipe's reader goes; a buffered one writes on and fails
        sys.stdout = open(stdout.fileno(), "w", encoding=stdout.encoding, errors=stdout.errors, closefd=False)
    try:
        args = _build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout is refused here, not at exit
        return code
    except SystemExit as exc:  # argparse exits 0 after --help
        return exc.code
    except ValueError as exc:
        refusal = exc if isinstance(exc, Refusal) else Refusal(str(exc))
    except RecursionError:
        refusal = Refusal("input nests too deeply to process")
    except BrokenPipeError as exc:
        # what stdout still buffers goes nowhere, so the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        refusal = Refusal(exc.strerror, path="<stdout>")
    finally:
        if sys.stdout is not stdout:
            sys.stdout.close()
            sys.stdout = stdout
    where = ""
    if refusal.path or refusal.line:  # path[:line[:col]], a line's path being the input file
        parts = (refusal.path or getattr(args, "file", None), refusal.line, refusal.col)
        where = "".join(f"{part}:" for part in parts if part is not None) + " "
    print(f"{where}error: {refusal.heading}{refusal.message}", file=sys.stderr)
    return refusal.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
