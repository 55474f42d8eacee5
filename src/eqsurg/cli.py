"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 inadmissible input,
64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .contfrac import BadInput
from .lens import (
    InadmissiblePair,
    Variant,
    admissible_pairs,
    build,
    catalog_rp3,
    catalog_s1xs2,
    type_A_chain,
)
from .matrices import IntMatrix
from .words import (
    CST,
    WordError,
    eval_word,
    factor_palindrome,
    format_word,
    parse_word,
    verify_relations,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INADMISSIBLE = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit 64
        raise UsageError(message)


# Matrices and their JSON grow as genus^2; past this bound a run would
# print megabytes or exhaust memory.
MAX_GENUS = 100


def _check_genus(genus: int) -> None:
    if genus > MAX_GENUS:
        raise UsageError(f"--genus must be at most {MAX_GENUS}, got {genus}")


# Python's int/str digit limit guards against quadratic conversions; a
# result past it is reported, not printed.
_TOO_LONG = "the result holds an integer too long to print"


def _emit(doc: dict, fmt: str, text_renderer=None) -> None:
    try:
        if fmt == "text" and text_renderer:
            out = text_renderer()
        else:
            out = json.dumps(doc, indent=2)
    except ValueError:  # an integer past the digit limit
        raise UsageError(_TOO_LONG) from None
    print(out)


def cmd_lens(args) -> int:
    try:
        variant = Variant.parse(args.variant)
        report = build(args.p, args.q, variant)
    except InadmissiblePair as exc:
        print(f"inadmissible: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    doc = report.to_json_dict()

    def text():
        lines = [
            f"L({args.p},{args.q}) variant {variant.value}: "
            f"cf {doc['cf']} palindrome {doc['palindrome']}",
            f"word: {doc['word']}",
            f"matrix_ok: {doc['matrix_ok']}  shape_ok: {doc['shape_ok']}  "
            f"fix_rule_applied: {doc['fix_rule_applied']}",
            f"legal: {doc['legal']}  flags: {doc['flags']}",
        ]
        if report.contact is not None:
            lines.append(report.contact.render_text())
        return "\n".join(lines)

    _emit(doc, args.format, text)
    if not (report.matrix_ok and report.shape_ok):
        return EXIT_VERIFY
    return EXIT_OK


def cmd_census(args) -> int:
    if args.max_p < 2:
        raise UsageError("--max-p must be at least 2")
    rows = []
    ok = True
    for p, q in admissible_pairs(args.max_p):
        for variant in (Variant.C, Variant.C_PRIME):
            report = build(p, q, variant)
            ok = ok and report.matrix_ok and report.shape_ok
            rows.append(report.census_row())
    summary = {
        "rows": len(rows),
        "matrix_ok": sum(r["matrix_ok"] for r in rows),
        "legal": sum(r["legal"] for r in rows),
        "flagged": sum(bool(r["flags"]) for r in rows),
        "fix_rule_applied": sum(r["fix_rule_applied"] for r in rows),
    }
    doc = {"max_p": args.max_p, "rows": rows, "summary": summary}

    def text():
        lines = [
            f"{r['p']:>4} {r['q']:>4} {r['variant']:<2} {r['case']:<10} "
            f"matrix={'ok' if r['matrix_ok'] else 'FAIL'} "
            f"shape={'ok' if r['shape_ok'] else 'FAIL'} "
            f"legal={r['legal']} flags={','.join(r['flags']) or '-'}"
            for r in rows
        ]
        lines.append(f"summary: {summary}")
        return "\n".join(lines)

    _emit(doc, args.format, text)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_catalog(args) -> int:
    if args.name == "s1xs2":
        entries = [e.to_json_dict() for e in catalog_s1xs2()]
        doc = {"catalog": "s1xs2", "entries": entries}
        _emit(doc, args.format)
        return EXIT_OK if all(e["matrix_ok"] for e in entries) else EXIT_VERIFY
    if args.name == "rp3":
        entry = catalog_rp3().to_json_dict()
        _emit({"catalog": "rp3", "entries": [entry]}, args.format)
        return EXIT_OK if entry["matrix_ok"] else EXIT_VERIFY
    if args.name == "typeA":
        if args.p is None or args.q is None:
            raise UsageError("catalog typeA requires --p and --q")
        try:
            report = type_A_chain(args.p, args.q)
        except BadInput as exc:
            print(f"inadmissible: {exc}", file=sys.stderr)
            return EXIT_INADMISSIBLE
        _emit({"catalog": "typeA", **report.to_json_dict()}, args.format)
        return EXIT_OK
    raise UsageError(f"unknown catalog {args.name!r}")


def _parse_matrix(text: str, what: str) -> IntMatrix:
    """A matrix from JSON text whose entries are all JSON integers."""
    try:
        rows = json.loads(text)
        if not all(type(x) is int for row in rows for x in row):
            raise ValueError("matrix entries must be JSON integers")
        return IntMatrix.from_rows(rows)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"{what}: {exc}") from None


def cmd_verify(args) -> int:
    _check_genus(args.genus)
    if args.relations:
        if args.max_exp < 1:
            raise UsageError("--max-exp must be at least 1")
        report = verify_relations(args.max_exp)
        ok = all(r["ok"] for r in report)
        doc = {"relations": report, "all_ok": ok}

        def text():
            lines = [
                f"{'PASS' if r['ok'] else 'FAIL'}  {r['relation']}" for r in report
            ]
            lines.append(f"all_ok: {ok}")
            return "\n".join(lines)

        _emit(doc, args.format, text)
        return EXIT_OK if ok else EXIT_VERIFY
    if args.word is None:
        raise UsageError("verify needs --word or --relations")
    try:
        word = parse_word(args.word, genus=args.genus)
    except WordError as exc:
        raise UsageError(f"cannot parse word: {exc}") from None
    value = eval_word(word)
    doc = {"word": format_word(word), "matrix": value.to_lists()}
    if args.expect is not None:
        expected = _parse_matrix(args.expect, f"cannot parse matrix {args.expect!r}")
        doc["expected"] = expected.to_lists()
        doc["match"] = value == expected
    _emit(doc, args.format)
    if args.expect is not None and not doc["match"]:
        return EXIT_VERIFY
    return EXIT_OK


def cmd_factor_palindrome(args) -> int:
    _check_genus(args.genus)
    try:
        word = parse_word(args.curves, genus=args.genus)
    except WordError as exc:
        raise UsageError(f"cannot parse input factors: {exc}") from None
    if args.involution == "cst":
        s = CST
    else:
        try:
            with open(args.involution) as fh:
                text = fh.read()
        except (OSError, ValueError) as exc:  # ValueError: not valid text
            raise UsageError(f"cannot read involution matrix: {exc}") from None
        s = _parse_matrix(text, "cannot read involution matrix")
    try:
        result = factor_palindrome(
            [c for c, _ in word.factors], [e for _, e in word.factors], s
        )
    except WordError as exc:
        print(f"inadmissible: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    try:
        doc = {
            "input": format_word(word),
            "output": format_word(result),
            "matrix": eval_word(result).to_lists(),
        }
    except ValueError:  # a curve coordinate past the digit limit
        raise UsageError(_TOO_LONG) from None
    _emit(doc, args.format)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="eqsurg", description="Equivariant Dehn-surgery calculus")
    sub = parser.add_subparsers(dest="command")

    def add_format(p):
        p.add_argument("--format", choices=("json", "text"), default="json")

    p_lens = sub.add_parser("lens", help="factor a lens-space gluing involution")
    p_lens.add_argument("--p", type=int, required=True)
    p_lens.add_argument("--q", type=int, required=True)
    p_lens.add_argument("--variant", default="C")
    add_format(p_lens)
    p_lens.set_defaults(func=cmd_lens)

    p_census = sub.add_parser("census", help="run the factorization census")
    p_census.add_argument("--max-p", type=int, required=True)
    add_format(p_census)
    p_census.set_defaults(func=cmd_census)

    p_cat = sub.add_parser("catalog", help="verified example catalogs")
    p_cat.add_argument("name", choices=("s1xs2", "rp3", "typeA"))
    p_cat.add_argument("--p", type=int)
    p_cat.add_argument("--q", type=int)
    add_format(p_cat)
    p_cat.set_defaults(func=cmd_catalog)

    p_verify = sub.add_parser("verify", help="evaluate a word or run the relation suite")
    p_verify.add_argument("--word")
    p_verify.add_argument("--expect")
    p_verify.add_argument("--genus", type=int, default=1)
    p_verify.add_argument("--relations", action="store_true")
    p_verify.add_argument("--max-exp", type=int, default=10)
    add_format(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_fp = sub.add_parser(
        "factor-palindrome", help="rewrite an even palindrome as squared twists"
    )
    p_fp.add_argument("--curves", required=True, help="word syntax, e.g. 'a^1 b^-2'")
    p_fp.add_argument("--genus", type=int, default=1)
    p_fp.add_argument(
        "--involution", default="cst", help="'cst' or a JSON matrix file path"
    )
    add_format(p_fp)
    p_fp.set_defaults(func=cmd_factor_palindrome)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise UsageError("a command is required")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
