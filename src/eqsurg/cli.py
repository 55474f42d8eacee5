"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 inadmissible input,
64 usage error.  Each `cmd_*` returns its verdict, true when everything
it printed verified, and `main` alone turns an outcome into an exit code:
a verdict to 0 or 1, a `UsageError` to 64 and a `BadInput` to 2.  When
stdout closes before the output is written
(`eqsurg census --max-p 300 | head -c 10`), the command stops at the
failed write and exits 1 without a message.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import accumulate
from json.encoder import encode_basestring_ascii
from typing import Optional

from .contact import RunList
from .contfrac import BadInput, Flavor, runs
from .lens import (
    Variant,
    admissible_pairs,
    build,
    catalog_rp3,
    catalog_s1xs2,
    type_A_chain,
)
from .matrices import CurveClass, IntMatrix
from .words import (
    CST,
    WordError,
    curve_name,
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

# `lens --p P --q 1` prints one knot document per copy of its run of about
# P parallel knots (P = 20,001 prints 12.2 MB); past this bound the
# output would exhaust memory.
MAX_P = 10_000

# The census output grows about fourfold each time max_p doubles: it
# prints about 67 MB at max_p = 2000 (1.0-1.2 s as a subprocess on a
# 2-vCPU VM with Python 3.11); past this bound it would print gigabytes.
MAX_CENSUS_P = 2_000


def _check_genus(genus: int) -> None:
    if genus > MAX_GENUS:
        raise UsageError(f"--genus must be at most {MAX_GENUS}, got {genus}")


# The relation suite checks six relations per exponent in [-N, N]: time
# and output grow linearly with N (N = 10,000 prints 9 MB).
MAX_EXP = 1000

# A type-A chain lists sum |r_i + 1| rotation numbers (p = 100,001, q = 1
# prints 1.3 MB); past this bound the list would exhaust memory.
MAX_ROTATION_CHOICES = 100_000


# A run of copies of one document is emitted as references to one block
# of whole copies of at most this many characters (the text is ASCII, so
# also bytes), not as one string of every copy: that string is about 3 MB
# for `lens --p 10000 --q 1`, and it is allocated and touched before a byte
# is written.  glibc by default serves an allocation of 128 KiB or more
# with its own mmap, whose pages fault in again on every use; over the
# `wide_middle` commands, 16-64 KiB read fastest, against 8, 128 and
# 256 KiB.
_BLOCK_CHARS = 32 * 1024


# Python's int/str digit limit guards against quadratic conversions; a
# result past it is reported, not printed.
_TOO_LONG = "the result holds an integer too long to print"


def _encode(obj, indent: str, out: list) -> None:
    """Append the text of `json.dumps(obj, indent=2)`, nested at `indent`,
    to `out` as one flat list of chunks.

    The types are dicts with str keys, lists, tuples, str, int, bool and
    None: any other is a TypeError, and an int past the digit limit a
    ValueError.  No container joins its children's text, so a nested
    document is not copied again at each level.  A dict value whose type
    is exactly str or int shares its key's chunk, and a list of exact
    ints is one chunk (its first item is tested before the list is
    scanned, so a list of documents is not).  A `RunList` is encoded run
    by run, where the stdlib's indented (pure-Python) encoder encodes
    every copy.  Run (item, k) is encoded once, as one string t (its
    chunks would each stay alive as an object), and emitted as t and sep
    when k = 1.  A longer run is emitted as q references to one block,
    (t + sep) * m, then (t + sep) * r, t and sep, with q, r =
    divmod(k - 1, m) and m the most copies that fit in `_BLOCK_CHARS`
    (at least one, so a longer copy still goes out whole, and at most
    k - 1).  So no run costs more than one block and one remainder,
    whatever k.  Any other list is encoded item by item.
    """
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))  # ValueError past the digit limit
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        if type(obj[0]) is int and all(type(x) is int for x in obj):
            out.append("[\n" + inner + sep.join(map(int.__repr__, obj)) + "\n" + indent + "]")
            return
        out.append("[\n" + inner)
        if type(obj) is RunList:
            for item, k in obj.runs:
                chunks: list = []
                _encode(item, inner, chunks)
                text = "".join(chunks)
                if k > 1:
                    copy = text + sep
                    m = min(_BLOCK_CHARS // len(copy) or 1, k - 1)
                    q, r = divmod(k - 1, m)
                    out += [copy * m] * q
                    out.append(copy * r)
                out += (text, sep)
        else:
            for item in obj:
                _encode(item, inner, out)
                out.append(sep)
        out[-1] = "\n" + indent + "]"
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        lead = "{\n" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            head = lead + encode_basestring_ascii(key) + ": "
            kind = type(value)
            if kind is str:
                out.append(head + encode_basestring_ascii(value))
            elif kind is int:
                out.append(head + int.__repr__(value))
            else:
                out.append(head)
                _encode(value, inner, out)
            lead = sep
        out.append("\n" + indent + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_row(r: dict, lead: str) -> str:
    """`lead`, then a census row's JSON text as `_encode(r, "    ", ...)`
    writes it: the nine keys of `BuildReport.census_row` in order, `flags`
    a list of str.  Every row has the same keys, so one template writes
    it, where `_encode` would walk the dict and its list.  A `RunList` of
    flags is escaped once per run, as `_encode` does.  The lead goes into
    the row's string: a row-sized temporary made and freed per row would
    fragment the heap that the written rows stay in."""
    flags = r["flags"]
    if flags:
        runs = flags.runs if type(flags) is RunList else [(flag, 1) for flag in flags]
        items: list = []
        for flag, k in runs:
            items += [encode_basestring_ascii(flag)] * k
        flags = "[\n        " + ",\n        ".join(items) + "\n      ]"
    else:
        flags = "[]"
    return (
        f'{lead}{{\n      "p": {r["p"]},\n      "q": {r["q"]},\n'
        f'      "variant": {encode_basestring_ascii(r["variant"])},\n'
        f'      "case": {encode_basestring_ascii(r["case"])},\n'
        f'      "matrix_ok": {"true" if r["matrix_ok"] else "false"},\n'
        f'      "shape_ok": {"true" if r["shape_ok"] else "false"},\n'
        f'      "legal": {"true" if r["legal"] else "false"},\n'
        f'      "fix_rule_applied": {"true" if r["fix_rule_applied"] else "false"},\n'
        f'      "flags": {flags}\n    }}'
    )


def _text_row(r: dict) -> str:
    """A census row's `--format text` line."""
    return (
        f"{r['p']:>4} {r['q']:>4} {r['variant']:<2} {r['case']:<10} "
        f"matrix={'ok' if r['matrix_ok'] else 'FAIL'} "
        f"shape={'ok' if r['shape_ok'] else 'FAIL'} "
        f"legal={r['legal']} flags={','.join(r['flags']) or '-'}\n"
    )


def _json_only(args) -> None:
    """Refuse `--format text` on a command that has no text form, before
    the command does any work."""
    if args.format == "text":
        raise UsageError("--format text is not available for this command")


def _emit(doc: dict, fmt: str, text_renderer=None) -> None:
    """Print `doc` as indented JSON, or, when `fmt` is "text", the text
    renderer's output.

    The whole document is encoded before anything is written, so an
    integer past the digit limit prints nothing.  The chunks then go out
    through one `writelines`, without a join, so a middle run is written
    as references to its one bounded block, and no string of all its
    copies is ever made.
    """
    out: list = []
    try:
        if fmt == "text":
            out.append(text_renderer())
        else:
            _encode(doc, "", out)
    except ValueError:  # an integer past the digit limit
        raise UsageError(_TOO_LONG) from None
    out.append("\n")
    sys.stdout.writelines(out)


def _knot_lines(doc: dict) -> list[str]:
    """The text lines of a lens build's knots, from `doc["diagram"]` and
    `doc["contact"]`.

    The surgery knots come first, sorted by level (the sort is stable, so
    a level keeps document order), then the contact knots in document
    order.  Both knot lists are `RunList`s: each run's document is
    formatted once and its line repeated.
    """
    diagram, contact = doc["diagram"], doc["contact"]
    lines = [f"ambient: {diagram['ambient']}"]
    for k, n in sorted(diagram["knots"].runs, key=lambda run: run[0]["level"]):
        lines += [
            f"  level {k['level']:+d}: {curve_name(CurveClass(tuple(k['curve'])))} "
            f"coeff {k['coeff']} role {k['role']} type {k['type']}"
        ] * n
    for k, n in contact["knots"].runs:
        c = k["contact"]
        lines += [
            f"  contact level {k['level']:+d}: tw {c['tw']} tb {c['tb']} "
            f"coeff {c['coeff']} glue_back {c['glue_back']} "
            f"{'legal' if c['legal'] else 'ILLEGAL'}"
        ] * n
    lines.append(f"overall_legal: {contact['overall_legal']}")
    return lines


def _verified(record) -> bool:
    """The verdict of `lens`, `census` and `catalog`: each `BuildReport` or
    `CatalogEntry` hits its matrix and has a shape."""
    return record.matrix_ok and record.contact is not None


def cmd_lens(args) -> bool:
    if args.p > MAX_P:
        raise UsageError(f"--p must be at most {MAX_P}, got {args.p}")
    variant = Variant.parse(args.variant)  # a bad variant before a bad (p, q)
    report = build(args.p, args.q, variant)
    doc = report.to_json_dict()

    def text():
        lines = [
            f"L({doc['p']},{doc['q']}) variant {doc['variant']}: "
            f"cf {doc['cf']} palindrome {doc['palindrome']}",
            f"word: {doc['word']}",
            f"matrix_ok: {doc['matrix_ok']}  shape_ok: {doc['shape_ok']}  "
            f"fix_rule_applied: {doc['fix_rule_applied']}",
            f"legal: {doc['legal']}  flags: {doc['flags']}",
        ]
        if doc["contact"] is not None:
            lines += _knot_lines(doc)
        return "\n".join(lines)

    _emit(doc, args.format, text)
    return _verified(report)


def cmd_census(args) -> bool:
    if args.max_p < 2:
        raise UsageError("--max-p must be at least 2")
    if args.max_p > MAX_CENSUS_P:
        raise UsageError(f"--max-p must be at most {MAX_CENSUS_P}, got {args.max_p}")
    # The document is written as it is built: the header, each row as soon
    # as its build returns, then the summary counted along the way.  The
    # bytes are those of `_emit` on the whole document.  A row is written
    # by its format's template, `_json_row` or `_text_row`, from the one
    # row dict; the header and the summary go through `_encode`.
    text = args.format == "text"
    write = sys.stdout.write
    if not text:
        write(f'{{\n  "max_p": {args.max_p},\n  "rows": [')
    summary = dict.fromkeys(("rows", "matrix_ok", "legal", "flagged", "fix_rule_applied"), 0)
    ok = True
    lead = "\n    "
    for p, q in admissible_pairs(args.max_p):
        for variant in (Variant.C, Variant.C_PRIME):
            report = build(p, q, variant)
            ok = ok and _verified(report)
            r = report.census_row()
            summary["rows"] += 1
            summary["matrix_ok"] += r["matrix_ok"]
            summary["legal"] += r["legal"]
            summary["flagged"] += bool(r["flags"])
            summary["fix_rule_applied"] += r["fix_rule_applied"]
            if text:
                write(_text_row(r))
            else:
                write(_json_row(r, lead))
                lead = ",\n    "
    if text:
        write(f"summary: {summary}\n")
    else:
        out = ['\n  ],\n  "summary": ']  # (2, 1) is always a row
        _encode(summary, "  ", out)
        out.append("\n}\n")
        write("".join(out))
    return ok


def cmd_catalog(args) -> bool:
    _json_only(args)
    if args.name != "typeA":  # s1xs2 or rp3, a one-entry catalog
        if args.p is not None or args.q is not None:
            raise UsageError(f"catalog {args.name} takes no --p or --q")
        entries = catalog_s1xs2() if args.name == "s1xs2" else [catalog_rp3()]
        _emit({"catalog": args.name, "entries": [e.to_json_dict() for e in entries]}, "json")
        return all(map(_verified, entries))
    if args.p is None or args.q is None:
        raise UsageError("catalog typeA requires --p and --q")
    # every r_i <= -2, so knot i has |r_i + 1| = -r_i - 1 rotation
    # numbers; their running sum is bounded before any run is listed
    sums = accumulate((-r - 1) * k for r, k in runs(args.p, args.q, Flavor.NEGATIVE))
    if any(n > MAX_ROTATION_CHOICES for n in sums):
        raise UsageError(
            f"the chain has more than {MAX_ROTATION_CHOICES} rotation numbers to list"
        )
    report = type_A_chain(args.p, args.q)
    _emit({"catalog": "typeA", **report.to_json_dict()}, "json")
    return True


def _parse_matrix(text: str, what: str) -> IntMatrix:
    """A matrix from JSON text whose entries are all JSON integers."""
    try:
        rows = json.loads(text)
        if not all(type(x) is int for row in rows for x in row):
            raise ValueError("matrix entries must be JSON integers")
        return IntMatrix.from_rows(rows)
    except (ValueError, TypeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise UsageError(f"{what}: {exc}") from None


def cmd_verify(args) -> bool:
    # --genus and --max-exp default to None, so that an option the branch
    # would ignore is refused even when it is given its default value
    if args.relations:
        if args.word is not None or args.expect is not None:
            raise UsageError("verify --relations takes no --word or --expect")
        if args.genus is not None:
            raise UsageError("verify --relations takes no --genus")
        max_exp = 10 if args.max_exp is None else args.max_exp
        if max_exp < 1:
            raise UsageError("--max-exp must be at least 1")
        if max_exp > MAX_EXP:
            raise UsageError(f"--max-exp must be at most {MAX_EXP}, got {max_exp}")
        report = verify_relations(max_exp)
        ok = all(r["ok"] for r in report)
        doc = {"relations": report, "all_ok": ok}

        def text():
            lines = [
                f"{'PASS' if r['ok'] else 'FAIL'}  {r['relation']}" for r in report
            ]
            lines.append(f"all_ok: {ok}")
            return "\n".join(lines)

        _emit(doc, args.format, text)
        return ok
    genus = 1 if args.genus is None else args.genus
    _check_genus(genus)
    if args.word is None:
        raise UsageError("verify needs --word or --relations")
    if args.max_exp is not None:
        raise UsageError("verify --word takes no --max-exp")
    _json_only(args)
    try:
        word = parse_word(args.word, genus=genus)
    except WordError as exc:
        raise UsageError(f"cannot parse word: {exc}") from None
    value = eval_word(word)
    doc = {"word": format_word(word), "matrix": value.to_lists()}
    if args.expect is not None:
        text = args.expect
        quoted = repr(text) if len(text) <= 60 else f"{text[:60]!r}..."
        expected = _parse_matrix(text, f"cannot parse matrix {quoted}")
        doc["expected"] = expected.to_lists()
        doc["match"] = value == expected
    _emit(doc, "json")
    return args.expect is None or doc["match"]


def cmd_factor_palindrome(args) -> bool:
    _json_only(args)
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
    factors = word.factors
    try:
        result = factor_palindrome([c for c, _ in factors], [e for _, e in factors], s)
    except WordError as exc:
        raise BadInput(str(exc)) from None
    try:
        doc = {
            "input": format_word(word),
            "output": format_word(result),
            "matrix": eval_word(result).to_lists(),
        }
    except ValueError:  # a curve coordinate past the digit limit
        raise UsageError(_TOO_LONG) from None
    _emit(doc, "json")
    return True


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
    p_verify.add_argument("--genus", type=int)  # default 1, with --word only
    p_verify.add_argument("--relations", action="store_true")
    p_verify.add_argument("--max-exp", type=int)  # default 10, with --relations only
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

    parser.commands = sub.choices  # name -> the parser it dispatches to
    return parser


# Built once per process: building costs about 1.2 ms, more than half of a
# small command, and parsing leaves the parser unchanged (each call makes a
# fresh Namespace; `_Parser.error` raises).  When the first argument names
# a command, `main` parses the rest with that command's parser, the one the
# top-level parser would hand them to, so they are parsed once; any other
# argv (none, an unknown command, `-h`) goes through the top-level parser
# for its usage text and errors.  The `cmd_*` functions the parsers bind
# look up `build`, `parse_word`, ... by module name when they run.
_PARSER = build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        command = _PARSER.commands.get(argv[0]) if argv else None
        if command is not None:
            args = command.parse_args(argv[1:])
        else:
            args = _PARSER.parse_args(argv)
            if not getattr(args, "command", None):
                raise UsageError("a command is required")
        return EXIT_OK if args.func(args) else EXIT_VERIFY
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BadInput as exc:
        print(f"inadmissible: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so
        # that the flush at interpreter exit is silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
