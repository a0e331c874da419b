"""Command-line interface.

Subcommands::

    validate  <file>                          structural check, exit 0/2
    recover   <bp-file> [--out FILE] [--emit values|multiplicities|both]
              [--trace]
    invariants <curve-file> [--local POINT]
    compare   <a> <b> [--mode equal|similar]
    render    <file> [--annotate mn|weights|none]

Every command names a point by its document id
(:func:`~enriques.documents.document_ids`): its label, or ``q#N`` for a
point recovery created.  So the points of the ``recover`` table and trace
carry the ids that ``--out`` writes for them, and ``invariants`` on that
document prints the same names.

The commands load, call the library and print; the library makes every
decision, and :func:`main` alone turns its errors into exit codes: 0
success, 1 negative comparison or domain error (message on stderr), 2 a
document that does not parse or validate, a cluster of the wrong kind, or
a file that cannot be read as UTF-8 text or written (the diagnostics or
one line on stderr; ``validate`` reports on stdout).  All numeric output
is exact, written as an integer or ``numerator/denominator``; a number
past Python's int-to-text digit limit is a domain error,
:class:`~enriques.errors.NumberTooLong`, and exits 1, as does a run out of
memory, such as a recovery walk run of 10^8 points or more.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import recovery
from .documents import document_ids, parse, serialize
from .dot import render_dot
from .errors import (DocumentSyntaxError, DocumentValidationError,
                     EnriquesError, WrongKind, write_number)
from .oracle import rupture_quotients
from .similarity import canonical_form, form_digest

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2

_TRACE_WORDS = {"first": ">I→first", "second": "<I→second",
                "stop": "=I stop"}


def _load(path: str) -> tuple:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise UnicodeError(f"{path}: {err}") from err
    return parse(text)


def _cmd_validate(args) -> int:
    try:
        _load(args.file)
    except DocumentSyntaxError as err:
        print(err)
        return EXIT_INVALID
    except DocumentValidationError as err:
        for diagnostic in err.diagnostics:
            print(diagnostic)
        return EXIT_INVALID
    return EXIT_OK


def _cmd_recover(args) -> int:
    tree, bp = _load(args.file)
    steps: list[recovery.TraceEntry] = []
    result = None
    try:
        result = recovery.recover(bp, steps.append if args.trace else None)
    finally:  # a failed run's walk is what --trace is there to show
        names = document_ids(tree)  # the created points' names in --out
        for q, m, n, decision in steps:
            print(f"{names[q]} {write_number(m)}/{write_number(n)}"
                  f" {_TRACE_WORDS[decision]}")
        if result is not None:  # no row is printed unless all can be
            rows = [f"{names[d]}\t{write_number(assoc.invariant)}"
                    f"\t{names[assoc.base_free_point]}"
                    f"\t{names[assoc.rupture_point]}"
                    for d, assoc in sorted(result.association.items())]
            print("d\tI_d\tp_d\tq_d", *rows, sep="\n")
    if args.out:
        out = Path(args.out)
        for kind in ("values", "multiplicities"):
            if args.emit in (kind, "both"):
                target = out if args.emit == kind else _suffixed(out, kind)
                target.write_text(serialize(tree, getattr(result, kind)),
                                  encoding="utf-8")
    return EXIT_OK


def _suffixed(path: Path, kind: str) -> Path:
    return path.with_name(f"{path.stem}.{kind}{path.suffix or '.json'}")


def _cmd_invariants(args) -> int:
    tree, curve = _load(args.file)
    names = document_ids(tree)
    base = names.index(args.local) if args.local in names else None
    if args.local is not None and base is None:
        print(f"no point named {args.local!r}", file=sys.stderr)
        return EXIT_INVALID
    for q, quotient in rupture_quotients(curve, base).items():
        print(f"{names[q]}\t{write_number(quotient)}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    tree_a, cluster_a = _load(args.a)
    tree_b, cluster_b = _load(args.b)
    form_a, form_b = canonical_form(cluster_a), canonical_form(cluster_b)
    print(form_digest(form_a))
    print(form_digest(form_b))
    if args.mode == "similar":
        related = form_a == form_b
    else:  # equal text: the same kind, arena, weights and ids
        related = serialize(tree_a, cluster_a) == serialize(tree_b, cluster_b)
    return EXIT_OK if related else EXIT_NEGATIVE


def _cmd_render(args) -> int:
    _, cluster = _load(args.file)
    print(render_dot(cluster, annotate=args.annotate), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enriques",
        description="weighted clusters of infinitely near points:"
                    " validation, recovery from polar base points,"
                    " invariants, comparison, rendering")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a cluster document")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "recover", help="recover the singular cluster from base points")
    p.add_argument("file")
    p.add_argument("--out")
    p.add_argument("--emit", choices=["values", "multiplicities", "both"],
                   default="values")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser(
        "invariants", help="rupture points and polar invariants of a curve")
    p.add_argument("file")
    p.add_argument("--local", metavar="POINT")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("compare", help="compare two cluster documents")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--mode", choices=["equal", "similar"], default="equal")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("render", help="render a cluster document as DOT")
    p.add_argument("file")
    p.add_argument("--annotate", choices=["mn", "weights", "none"],
                   default="none")
    p.set_defaults(func=_cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DocumentValidationError as err:
        for diagnostic in err.diagnostics:
            print(diagnostic, file=sys.stderr)
        return EXIT_INVALID
    except (DocumentSyntaxError, WrongKind, OSError, UnicodeError) as err:
        print(err, file=sys.stderr)
        return EXIT_INVALID
    except EnriquesError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_NEGATIVE
    except MemoryError:
        print("MemoryError: out of memory", file=sys.stderr)
        return EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
