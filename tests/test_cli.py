import ast
import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqsurg import cli
from eqsurg.cli import _encode, main
from eqsurg.contact import RunList
from eqsurg.contfrac import BadInput
from eqsurg.lens import Variant, admissible_pairs, build, catalog_rp3, catalog_s1xs2


def _dumps(obj) -> str:
    """`json.dumps(obj, indent=2)`, byte for byte, for dicts with str keys,
    lists, tuples, str, int, bool and None: the join of `_encode`'s chunks."""
    out: list = []
    _encode(obj, "", out)
    return "".join(out)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_lens_ok(capsys):
    code, out, _ = run(capsys, "lens", "--p", "2", "--q", "1", "--variant", "C")
    assert code == 0
    doc = json.loads(out)
    assert doc["word"] == "(a-b)^-1 | cst"
    assert doc["legal"] is True


def test_lens_inadmissible(capsys):
    code, _, err = run(capsys, "lens", "--p", "5", "--q", "2", "--variant", "C")
    assert code == 2
    assert "inadmissible" in err


def test_lens_admissible_q1(capsys):
    code, out, _ = run(capsys, "lens", "--p", "4", "--q", "1", "--variant", "C")
    assert code == 0
    assert json.loads(out)["matrix_ok"] is True


def test_lens_at_p_bound(capsys):
    code, out, _ = run(capsys, "lens", "--p", "10000", "--q", "1")
    assert code == 0
    assert json.loads(out)["matrix_ok"] is True


def test_census_small(capsys):
    code, out, _ = run(capsys, "census", "--max-p", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["rows"] == 14
    assert doc["summary"]["matrix_ok"] == 14
    pairs = {(r["p"], r["q"]) for r in doc["rows"]}
    assert pairs == {(2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 1), (5, 4)}


def test_census_usage_error(capsys):
    code, _, err = run(capsys, "census", "--max-p", "1")
    assert code == 64
    assert "usage error" in err


def test_census_byte_deterministic(capsys):
    _, out1, _ = run(capsys, "census", "--max-p", "10")
    _, out2, _ = run(capsys, "census", "--max-p", "10")
    assert out1 == out2


def test_catalog_s1xs2(capsys):
    code, out, _ = run(capsys, "catalog", "s1xs2")
    assert code == 0
    doc = json.loads(out)
    assert [e["name"] for e in doc["entries"]] == ["s1", "s2", "s3", "s4"]
    assert all(e["matrix_ok"] for e in doc["entries"])


def test_catalog_rp3(capsys):
    code, out, _ = run(capsys, "catalog", "rp3")
    assert code == 0
    assert json.loads(out)["entries"][0]["word"] == "(a-b)^-1 | cst"


def _failing(command, fields):
    """argv, the `cli` name of the record source it reads, that source with
    `fields` replaced in every record it returns, and the document printed."""
    def failing_build(p, q, variant):
        return build(p, q, variant)._replace(**fields)

    if command == "lens":
        return (["lens", "--p", "7", "--q", "1"], "build", failing_build,
                failing_build(7, 1, Variant.C).to_json_dict())
    if command == "census":
        rows = [failing_build(p, q, v).census_row()
                for p, q in admissible_pairs(7) for v in Variant]
        summary = {
            "rows": len(rows),
            "matrix_ok": sum(r["matrix_ok"] for r in rows),
            "legal": sum(r["legal"] for r in rows),
            "flagged": sum(bool(r["flags"]) for r in rows),
            "fix_rule_applied": sum(r["fix_rule_applied"] for r in rows),
        }
        return (["census", "--max-p", "7"], "build", failing_build,
                {"max_p": 7, "rows": rows, "summary": summary})
    if command == "s1xs2":
        entries = [e._replace(**fields) for e in catalog_s1xs2()]
        source = "catalog_s1xs2", lambda: entries
    else:
        entries = [catalog_rp3()._replace(**fields)]
        source = "catalog_rp3", lambda: entries[0]
    return (["catalog", command], *source,
            {"catalog": command, "entries": [e.to_json_dict() for e in entries]})


@pytest.mark.parametrize("fields", [{"matrix_ok": False}, {"contact": None}],
                         ids=["matrix", "shapeless"])
@pytest.mark.parametrize("command", ["lens", "census", "s1xs2", "rp3"])
def test_failed_record_exits_1_after_the_whole_document(capsys, monkeypatch, command, fields):
    # `lens`, `census` and `catalog` read one exit rule from their records:
    # a word that misses its matrix or has no equivariant shape exits 1
    argv, name, source, doc = _failing(command, fields)
    monkeypatch.setattr(cli, name, source)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    assert out == _dumps(doc) + "\n"
    if "contact" in fields and command != "census":
        assert '"diagram": null' in out and '"contact": null' in out


def test_catalog_type_a(capsys):
    code, out, _ = run(capsys, "catalog", "typeA", "--p", "3", "--q", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == [-3] and doc["count"] == 2


def test_catalog_type_a_at_rotation_bound(capsys):
    # L(100001, 1) is one knot with |r + 1| = 100,000 rotation numbers: the cap
    code, out, _ = run(capsys, "catalog", "typeA", "--p", "100001", "--q", "1")
    assert code == 0
    assert len(json.loads(out)["rotation_choices"][0]) == 100_000


def test_catalog_type_a_refused_before_listing(capsys):
    # L(2000000, 1999999) is a chain of 1,999,999 knots (-2), one rotation
    # number each: refused before the chain's terms are listed
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "catalog", "typeA", "--p", "2000000", "--q", "1999999")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (64, "")
    assert "more than 100000 rotation numbers" in err
    assert peak < 1_000_000


@pytest.mark.parametrize("a, b, code", [(50_000, 49_999, 64), (49_999, 49_999, 0)])
def test_catalog_type_a_bound_sums_runs(capsys, a, b, code):
    # [-2]*a + [-3] + [-2]*b expands -p/q: a + 2 + b rotation numbers
    p, q = a * b + 2 * a + 2 * b + 3, a * b + 2 * a + b + 1
    got, out, _ = run(capsys, "catalog", "typeA", "--p", str(p), "--q", str(q))
    assert got == code
    if code == 0:
        assert json.loads(out)["coefficients"] == [-2] * a + [-3] + [-2] * b


def test_catalog_type_a_needs_pq(capsys):
    code, _, err = run(capsys, "catalog", "typeA")
    assert code == 64


def test_verify_word_match(capsys):
    code, out, _ = run(
        capsys, "verify", "--word", "(a-b)^-1 | cst", "--expect", "[[-1,0],[2,1]]"
    )
    assert code == 0
    assert json.loads(out)["match"] is True


def test_verify_word_mismatch(capsys):
    code, out, _ = run(
        capsys, "verify", "--word", "a^1 | cst", "--expect", "[[-1,0],[2,1]]"
    )
    assert code == 1
    assert json.loads(out)["match"] is False


def test_verify_relations(capsys):
    code, out, _ = run(capsys, "verify", "--relations")
    assert code == 0
    assert json.loads(out)["all_ok"] is True


def test_verify_relations_respects_max_exp(capsys):
    code, out, _ = run(capsys, "verify", "--relations", "--max-exp", "3")
    assert code == 0
    doc = json.loads(out)
    assert not any("X_4" in r["relation"] for r in doc["relations"])
    assert any("X_3" in r["relation"] for r in doc["relations"])


# Python converts at most 4300 digits between int and str.
_LONG = "9" * 4400
_HALF = "9" * 3000


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "--word", "a^^2"),
        ("verify", "--word", "(a+b^2"),
        ("verify", "--word", "a+b)^2"),
        ("verify", "--word", "v[2,0]"),
        ("verify", "--word", "v[0,0]"),
        ("verify", "--word", "v[1,x]"),
        ("verify", "--word", "v[1,0,0]"),
        ("verify", "--word", "1", "--genus", "0"),
        ("verify", "--word", f"a^{_LONG}"),
        ("factor-palindrome", "--curves", f"a^{_LONG}"),
        ("verify", "--word", f"a^{_HALF} b^{_HALF}"),
        ("factor-palindrome", "--curves", f"(a+b)^{_HALF} (a-b)^{_HALF} (a+b)^{_HALF}"),
        ("verify", "--word", "1", "--genus", "101"),
        ("factor-palindrome", "--curves", "v[1" + ",0" * 201 + "]", "--genus", "101"),
        ("verify", "--word", "a", "--expect", "[[1.9,1],[0,1]]"),
        ("verify", "--word", "a", "--expect", "[[1,1],[0,true]]"),
        ("verify", "--word", "a", "--expect", '[[1,1],[0,"1"]]'),
        ("factor-palindrome", "--curves", "(a-b)^-2", "--involution", "float.json"),
        ("verify", "--word", "a^0"),
        ("catalog", "typeA", "--p", "1000000000000000000000000000000001", "--q", "2"),
        ("catalog", "typeA", "--p", "100002", "--q", "1"),
        ("verify", "--relations", "--max-exp", "1001"),
        ("verify", "--relations", "--max-exp", "100000000000000000000"),
        ("lens", "--p", "10001", "--q", "1"),
        ("lens", "--p", "1000000000000000000000000000000000", "--q", "1"),
        ("census", "--max-p", "2001"),
        ("census", "--max-p", "1" + "0" * 30),
    ],
    ids=[
        "double-caret",
        "unclosed-paren",
        "unopened-paren",
        "non-primitive",
        "zero-vector",
        "non-integer",
        "odd-length",
        "genus-0",
        "exponent-too-long",
        "palindrome-exponent-too-long",
        "product-too-long",
        "palindrome-curve-too-long",
        "genus-too-large",
        "palindrome-genus-too-large",
        "expect-float",
        "expect-bool",
        "expect-string",
        "involution-float",
        "zero-exponent",
        "type-a-huge-p",
        "type-a-over-rotation-bound",
        "max-exp-over-bound",
        "max-exp-huge",
        "lens-p-over-bound",
        "lens-huge-p",
        "census-max-p-over-bound",
        "census-huge-max-p",
    ],
)
def test_verify_malformed_word(capsys, tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "float.json").write_text("[[0.5,1],[1,0]]")
    code, out, err = run(capsys, *args)
    assert (code, out) == (64, "")
    assert err.startswith("usage error:")


@pytest.mark.parametrize("command", ["verify", "factor-palindrome"])
def test_deeply_nested_matrix_is_usage_error(capsys, tmp_path, command):
    # json's decoder raises RecursionError on 200,000 nested arrays
    deep = "[" * 200_000
    if command == "verify":
        argv = ("verify", "--word", "a^1", "--expect", deep)
    else:
        (tmp_path / "deep.json").write_text(deep)
        argv = ("factor-palindrome", "--curves", "(a+b)^1",
                "--involution", str(tmp_path / "deep.json"))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (64, "")
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert len(err) < 200  # the input is quoted only in part


def test_malformed_expect_is_quoted_up_to_60_characters(capsys):
    for text, quoted in (("x" * 60, repr("x" * 60)), ("x" * 61, repr("x" * 60) + "...")):
        code, out, err = run(capsys, "verify", "--word", "a^1", "--expect", text)
        assert (code, out) == (64, "")
        assert err.startswith(f"usage error: cannot parse matrix {quoted}: ")


def test_verify_relations_rejects_max_exp_below_one(capsys):
    # a range of exponents that is empty would pass vacuously
    for max_exp in ("0", "-5"):
        code, out, err = run(capsys, "verify", "--relations", "--max-exp", max_exp)
        assert (code, out) == (64, "")
        assert err.startswith("usage error:")


def _option(flag, values):
    return st.tuples(st.just(flag), values)


# Small integers only: `lens --p P --q 1` builds about P knots, and a large
# genus makes a large identity matrix.  Garbage holds no digits, so it never
# parses as an integer, and no `/`, so it never names a device file.
_INT = st.integers(-3, 200).map(str)
_GENUS = st.integers(-2, 3).map(str)
_GARBAGE = st.text(
    st.characters(blacklist_categories=("Nd", "Cs"), blacklist_characters="/\x00"),
    max_size=6,
).map(lambda t: (t,))
_WORDS = st.sampled_from(
    ["a^2 b^-1 | cst", "(a+b)^3", "v[1,0,2,-1]^2", "v[1,0,1,0]", "v[2,0]", "(a+b",
     "a^^2", "1", "a^1 | base", "a | nonsense", ""]
)
_FORMAT = _option("--format", st.sampled_from(["json", "text", "xml"]))
_OPTIONS = {
    "verify": [
        _option("--word", _WORDS),
        _option("--expect", st.sampled_from(["[[1,0],[0,1]]", "[[1]]", "null", "[[0,1]"])),
        _option("--genus", _GENUS),
        st.just(("--relations",)),
        _option("--max-exp", st.integers(-3, 4).map(str)),
    ],
    "factor-palindrome": [
        _option("--curves", _WORDS),
        _option("--genus", _GENUS),
        _option("--involution", st.sampled_from(["cst", "missing.json", "."])),
    ],
    "lens": [
        _option("--p", _INT),
        _option("--q", _INT),
        _option("--variant", st.sampled_from(["C", "C'", "D"])),
    ],
    "census": [_option("--max-p", st.integers(-3, 40).map(str))],
    "catalog": [
        st.sampled_from([("typeA",), ("s1xs2",), ("rp3",), ("bogus",)]),
        _option("--p", _INT),
        _option("--q", _INT),
    ],
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    pieces = draw(st.lists(st.one_of(*_OPTIONS[command], _FORMAT, _GARBAGE), max_size=6))
    return [command] + [token for piece in pieces for token in piece]


@settings(max_examples=200, deadline=None)
@given(_argv())
@example(["factor-palindrome", "--curves", "v[1,0,1,0]", "--genus", "2"])
@example(["verify", "--word", "v[1,0,0]", "--genus", "0"])
def test_cli_fuzz_exits_with_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's --help
            code = exc.code
    err = err.getvalue()
    assert code in (0, 1, 2, 64), (argv, err)
    assert "Traceback" not in err
    # each code has its one stderr form; argparse echoes raw arguments, so
    # a message may span lines
    assert (code == 2) == err.startswith("inadmissible: "), (argv, code, err)
    assert (code == 64) == err.startswith("usage error: "), (argv, code, err)
    if code in (0, 1):
        assert err == "", (argv, code, err)


def _parse_twice(argv):
    """`main` as it ran before it dispatched on the first argument: the
    top-level parser classifies every argument, then hands the command's
    arguments to the command's parser."""
    try:
        args = cli._PARSER.parse_args(argv)
        if not getattr(args, "command", None):
            raise cli.UsageError("a command is required")
        return cli.EXIT_OK if args.func(args) else cli.EXIT_VERIFY
    except cli.UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return cli.EXIT_USAGE
    except BadInput as exc:
        print(f"inadmissible: {exc}", file=sys.stderr)
        return cli.EXIT_INADMISSIBLE


def _outcome(entry, argv):
    """(exit code, stdout, stderr) of `entry(argv)`; a `SystemExit` gives
    its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = entry(list(argv))
        except SystemExit as exc:  # argparse's --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


_ALL_OPTIONS = [option for options in _OPTIONS.values() for option in options]


@st.composite
def _any_argv(draw):
    first = draw(
        st.sampled_from([*cli._PARSER.commands, "-h", "--help"]).map(lambda t: (t,))
        | _GARBAGE
        | st.just(())
    )
    options = _OPTIONS.get(first[0], _ALL_OPTIONS) if first else _ALL_OPTIONS
    pieces = draw(st.lists(st.one_of(*options, _FORMAT, _GARBAGE), max_size=6))
    return [*first, *(token for piece in pieces for token in piece)]


@settings(max_examples=200, deadline=None)
@given(_any_argv())
@example(["lens", "--p", "5", "--q", "4", "--help"])
@example(["census", "--max-p", "3", "--"])
@example(["--format", "lens", "--p", "5", "--q", "4"])
@example(["lens", "--p", "5", "--q", "4"])  # exit 0 from the command
@example(["verify", "--word", "a^1", "--expect", "[[1,0],[0,1]]"])  # exit 1
@example(["factor-palindrome", "--curves", "a^1"])  # exit 2
def test_dispatch_matches_the_top_level_parse(argv):
    assert _outcome(main, argv) == _outcome(_parse_twice, argv)


# (argv, exit code, start of stdout, exact stderr)
@pytest.mark.parametrize("argv, code, head, err", [
    (("lens", "--p", "5", "--q", "4", "extra", "--zz"), 64, "",
     "usage error: unrecognized arguments: extra --zz\n"),
    (("census", "--max-p", "3", "x"), 64, "", "usage error: unrecognized arguments: x\n"),
    (("lens", "--help"), 0, "usage: eqsurg lens ", ""),
    ((), 64, "", "usage error: a command is required\n"),
    (("bogus",), 64, "",
     "usage error: argument command: invalid choice: 'bogus' (choose from 'lens', "
     "'census', 'catalog', 'verify', 'factor-palindrome')\n"),
], ids=["trailing", "census-trailing", "lens-help", "empty", "bogus"])
def test_dispatch_fixed_cases(argv, code, head, err):
    got = _outcome(main, argv)
    assert got == _outcome(_parse_twice, argv)
    assert (got[0], got[1][:len(head)], got[2]) == (code, head, err)
    assert bool(got[1]) == bool(head)


# stdout digests of commands that run to exit 0
_DISPATCHED = [
    (("lens", "--p", "5", "--q", "4"),
     "b1557286904bfc27f14fa28cc62b552610ba330db8b2dbe18a5ea07bd6c9db32"),
    (("factor-palindrome", "--curves", "(a+b)^1"),
     "7321c6c9a4b218bc07a79b323af6a50aabf9c4e959219fd6b1ce94ad34571374"),
    (("census", "--max-p", "20"),
     "453e743af20f59a1eb0f4e2172f7176764355debb687ca5bcf4e5ba63cd02e8f"),
]


def test_a_command_is_not_parsed_by_the_top_level_parser(capsys, monkeypatch):
    class TopLevelParse(Exception):
        pass

    def fail(*args, **kwargs):
        raise TopLevelParse

    monkeypatch.setattr(cli._PARSER, "parse_args", fail)
    for argv, digest in _DISPATCHED:
        code, out, err = run(capsys, *argv)
        assert (code, _sha256(out), err) == (0, digest, ""), argv
    argv, digest = _DISPATCHED[0]
    monkeypatch.setattr(sys, "argv", ["eqsurg", *argv])
    assert main() == 0  # argv read from sys.argv
    assert _sha256(capsys.readouterr().out) == digest
    with pytest.raises(TopLevelParse):  # not a command: the fallback
        main(["bogus"])


def test_factor_palindrome_cst(capsys):
    code, out, _ = run(capsys, "factor-palindrome", "--curves", "(a+b)^1")
    assert code == 0
    doc = json.loads(out)
    assert doc["output"] == "(a+b)^2"


def test_factor_palindrome_inadmissible(capsys):
    assert run(capsys, "factor-palindrome", "--curves", "a^1") == (
        2, "", "inadmissible: input curve a is not invariant under s\n"
    )


@pytest.mark.parametrize("fmt, expected", [
    ("json", '{\n  "relations": [\n    {\n      "relation": "1 = 2",\n'
             '      "ok": false\n    }\n  ],\n  "all_ok": false\n}\n'),
    ("text", "FAIL  1 = 2\nall_ok: False\n"),
])
def test_failing_relation_exits_1_after_its_document(capsys, monkeypatch, fmt, expected):
    monkeypatch.setattr(cli, "verify_relations",
                        lambda max_exp: [{"relation": "1 = 2", "ok": False}])
    assert run(capsys, "verify", "--relations", "--format", fmt) == (1, expected, "")


def test_no_command_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 64


def test_census_max_p_bound_message(capsys):
    assert run(capsys, "census", "--max-p", "2001") == (
        64, "", "usage error: --max-p must be at most 2000, got 2001\n"
    )


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


_NO_TEXT = "usage error: --format text is not available for this command\n"
# an involution file that does not exist: a name in the tests directory
# that no file carries
_MISSING = os.path.join(os.path.dirname(os.path.abspath(__file__)), "no-such-involution.json")

# (argv, exit code, stdout digest or "" for no output, exact stderr)
_REUSE = [
    (("lens", "--q", "1"), 64, "",
     "usage error: the following arguments are required: --p\n"),
    (("lens", "--p", "abc", "--q", "1"), 64, "",
     "usage error: argument --p: invalid int value: 'abc'\n"),
    (("lens", "--p", "2", "--q", "1", "--format", "xml"), 64, "",
     "usage error: argument --format: invalid choice: 'xml' (choose from 'json', 'text')\n"),
    (("bogus",), 64, "",
     "usage error: argument command: invalid choice: 'bogus' (choose from 'lens', "
     "'census', 'catalog', 'verify', 'factor-palindrome')\n"),
    ((), 64, "", "usage error: a command is required\n"),
    (("catalog", "nope"), 64, "",
     "usage error: argument name: invalid choice: 'nope' (choose from 's1xs2', 'rp3', "
     "'typeA')\n"),
    (("lens", "--p", "5", "--q", "2"), 2, "",
     "inadmissible: q^2 = 4 mod 5; the gluing map is an involution only when q^2 = 1 mod p\n"),
    (("lens", "--p", "4", "--q", "3", "--format", "text"), 0,
     "0768bafa605e71ab8bf745b3cc434c466bc768bf61f4327ec671858abc23da89", ""),
    (("verify", "--word", "a^1 | cst", "--expect", "[[-1,0],[2,1]]"), 1,
     "1ac92bb1517159d36c638d13c948bca7d23ce535d9d1af2a42fa53a49902f3fd", ""),
    (("catalog", "typeA", "--p", "4", "--q", "2"), 2, "",
     "inadmissible: p=4 and q=2 are not coprime\n"),
    (("catalog", "typeA", "--p", "3", "--q", "5"), 2, "",
     "inadmissible: need p > q > 0, got p=3, q=5\n"),
    (("lens", "--p", "5", "--q", "4", "--variant", "x"), 2, "",
     "inadmissible: unknown variant 'x'\n"),
    # the variant is parsed before (p, q) is checked
    (("lens", "--p", "4", "--q", "2", "--variant", "x"), 2, "",
     "inadmissible: unknown variant 'x'\n"),
    (("factor-palindrome", "--curves", "a^1"), 2, "",
     "inadmissible: input curve a is not invariant under s\n"),
    (("lens", "--p", "3", "--q", "5"), 2, "",
     "inadmissible: need p > q > 0, got p=3, q=5\n"),
    (("lens", "--p", "4", "--q", "2"), 2, "",
     "inadmissible: p=4 and q=2 are not coprime\n"),
    (("factor-palindrome", "--curves", "(a+b)^1", "--involution", _MISSING), 64, "",
     f"usage error: cannot read involution matrix: [Errno 2] No such file or directory: "
     f"{_MISSING!r}\n"),
    (("verify", "--word", "a^1", "--genus", "2"), 64, "",
     "usage error: cannot parse word: named curve 'a' is only defined at genus 1\n"),
    (("verify", "--relations", "--format", "text"), 0,
     "34f288696affbf837358b2a5bb9578b1e54b6c0ba804e2905d11568ca5524a03", ""),
    # commands without a text form
    (("catalog", "rp3", "--format", "text"), 64, "", _NO_TEXT),
    (("verify", "--word", "a^1 | cst", "--format", "text"), 64, "", _NO_TEXT),
    (("factor-palindrome", "--curves", "(a+b)^1", "--format", "text"), 64, "", _NO_TEXT),
]


def test_reused_parser_gives_same_results(capsys):
    # main parses with parsers built at import; run every command twice,
    # interleaved, so each parse follows parses of other commands
    for _ in range(2):
        for argv, code, digest, err in _REUSE:
            got_code, got_out, got_err = run(capsys, *argv)
            assert (got_code, got_err) == (code, err), argv
            assert (_sha256(got_out) if got_out else "") == digest, argv


@pytest.mark.parametrize("argv", [
    ("catalog", "s1xs2"),
    ("catalog", "rp3"),
    ("catalog", "typeA", "--p", "3", "--q", "1"),
    ("verify", "--word", "a^1 | cst"),
    ("factor-palindrome", "--curves", "(a+b)^1"),
], ids=["s1xs2", "rp3", "typeA", "verify", "factor-palindrome"])
def test_text_refused_before_the_work(capsys, monkeypatch, argv):
    def fail(*args, **kwargs):
        raise AssertionError("the command did its work before refusing --format text")

    for name in ("factor_palindrome", "eval_word", "catalog_s1xs2", "catalog_rp3",
                 "type_A_chain"):
        monkeypatch.setattr(cli, name, fail)
    assert run(capsys, *argv, "--format", "text") == (64, "", _NO_TEXT)


@pytest.mark.parametrize("argv, err", [
    (("catalog", "s1xs2", "--p", "3"), "catalog s1xs2 takes no --p or --q"),
    (("catalog", "rp3", "--q", "2"), "catalog rp3 takes no --p or --q"),
    (("verify", "--relations", "--word", "a"), "verify --relations takes no --word or --expect"),
    (("verify", "--relations", "--expect", "[[1,0],[0,1]]"),
     "verify --relations takes no --word or --expect"),
    (("verify", "--relations", "--genus", "7", "--max-exp", "1"),
     "verify --relations takes no --genus"),
    (("verify", "--relations", "--genus", "1"), "verify --relations takes no --genus"),
    (("verify", "--word", "a^1", "--max-exp", "5"), "verify --word takes no --max-exp"),
    (("verify", "--word", "a^1", "--max-exp", "10"), "verify --word takes no --max-exp"),
], ids=["s1xs2-p", "rp3-q", "relations-word", "relations-expect", "relations-genus",
        "relations-genus-1", "word-max-exp", "word-max-exp-10"])
def test_ignored_option_refused_before_the_work(capsys, monkeypatch, argv, err):
    def fail(*args, **kwargs):
        raise AssertionError("the command did its work before refusing the option")

    for name in ("catalog_s1xs2", "catalog_rp3", "verify_relations", "parse_word"):
        monkeypatch.setattr(cli, name, fail)
    assert run(capsys, *argv) == (64, "", f"usage error: {err}\n")


def test_word_with_other_base_name_is_usage_error(capsys):
    assert run(capsys, "verify", "--word", "a | base") == (
        64, "", "usage error: cannot parse word: unknown base name 'base'\n"
    )


_README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "README.md")


def _readme_cli_lines():
    with open(_README, encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", text, re.M | re.S)
    assert block, "README.md has no ```sh block under ## CLI"
    return block.group(1).splitlines()


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_example_exits_0(capsys, line):
    argv = shlex.split(line)
    assert argv[0] == "eqsurg"
    assert main(argv[1:]) == 0
    capsys.readouterr()


def test_main_does_not_build_a_parser(capsys, monkeypatch):
    def fail():
        raise AssertionError("build_parser called by main")

    monkeypatch.setattr(cli, "build_parser", fail)
    code, out, _ = run(capsys, "lens", "--p", "2", "--q", "1")
    assert code == 0 and json.loads(out)["legal"] is True
    assert run(capsys, "lens", "--p", "abc", "--q", "1")[0] == 64


# JSON trees of the kinds the renderers build, plus the edge cases of the
# encoder: escapes, long ints, bools next to equal ints, tuples, empty and
# nested containers, lists that start with None, and runs of one shared
# object: a plain list of [x] * n copies, encoded item by item, and a
# RunList, encoded run by run.
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.text()
    | st.sampled_from(["", "é", "\x00\x1f\n\t\"\\/", "\u2028", "\U0001f600", "\x7f"])
)


def _containers(children):
    runs = st.lists(st.tuples(children, st.integers(1, 4)), max_size=4)
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.lists(children, max_size=4).map(lambda items: [None, *items])
        | st.dictionaries(st.text(max_size=6), children, max_size=5)
        | runs.map(lambda rs: [item for item, n in rs for _ in range(n)])
        | runs.map(RunList)
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(_SCALARS, _containers, max_leaves=40))
@example([None, None, 0, False, 0, 1, True, 1])
@example([[], [], {}, {}, (), ""])
@example({"a": [{"k": [1]}] * 3 + [{"k": [1]}], "b": ((), [()], {"": None})})
@example([1, True, 0, False])
@example([True, False])
@example([0, 0, 0, 1])  # a run of one cached small int inside an int list
@example(RunList([({"k": ["x"]}, 3), (None, 1), ([], 2)]))
@example(RunList([(RunList([("a", 2)]), 2), (RunList([]), 1)]))
@example({"i": 1, "b": True, "s": "x", "n": None, "l": [2, 3]})
def test_dumps_matches_json_dumps(tree):
    assert _dumps(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize(
    "bad", [1.5, [0, 0.5], {"a": {"b": float("nan")}}, {1: 2}, {"a": {None: 1}}, {1, 2}, b"x"]
)
def test_dumps_rejects_other_types(bad):
    with pytest.raises(TypeError):
        _dumps(bad)


def test_dumps_int_past_digit_limit():
    with pytest.raises(ValueError):
        _dumps({"x": [10**4300]})  # 4301 digits
    with pytest.raises(ValueError):
        _dumps([1, 10**4300, 2])  # inside a list of ints
    assert _dumps(10**4299) == str(10**4299)  # 4300 digits still print


_TREES = st.recursive(_SCALARS, _containers, max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(max_size=6), _TREES, max_size=5))
def test_emit_writes_json_dumps(doc):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(doc, "json")
    assert out.getvalue() == json.dumps(doc, indent=2) + "\n"


# Run units for the block arithmetic of `_encode`.  At the top level a run
# item is written at indent "  " and followed by ",\n  ", so one copy of a
# string of n characters is n + 6 characters long.
_BLOCK = cli._BLOCK_CHARS
_KNOT = {"level": 3, "curve": [1, -2], "coeff": "+1", "type": "c4", "legal": True}


@pytest.mark.parametrize("unit", [
    _KNOT,  # many copies to a block
    "x" * (_BLOCK // 3 - 6),  # three copies to a block
    "x" * (_BLOCK - 7),  # one copy just under the bound
    "x" * (_BLOCK - 6),  # one copy exactly at the bound
    "x" * (_BLOCK - 5),  # one copy just over the bound
    "x" * (2 * _BLOCK),  # one copy twice the bound
], ids=["knot", "third", "under", "at", "over", "twice"])
@pytest.mark.parametrize("extra", ["m-1", "m", "m+1", "2m+1"])
def test_runs_across_block_boundaries(unit, extra):
    copy = len(_dumps([unit, unit])) - len(_dumps([unit]))  # the text and ",\n  "
    m = max(1, _BLOCK // copy)
    k = 1 + {"m-1": m - 1, "m": m, "m+1": m + 1, "2m+1": 2 * m + 1}[extra]
    doc = RunList([(unit, k), ("tail", 1), (unit, 2)])
    expected = json.dumps(doc, indent=2)
    assert _dumps(doc) == expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(doc, "json")
    assert out.getvalue() == expected + "\n"


def test_run_chunks_are_bounded():
    # `lens --p 10000 --q 1`: runs of 9,999 knots, every copy far shorter
    # than the bound, so no chunk is longer than the bound
    doc = build(10000, 1, Variant.C).to_json_dict()
    runs = doc["diagram"]["knots"].runs + doc["contact"]["knots"].runs
    assert max(k for _, k in runs) == 9999
    assert max(len(_dumps(item)) for item, _ in runs) < _BLOCK // 4
    chunks: list = []
    _encode(doc, "", chunks)
    assert max(map(len, chunks)) <= _BLOCK
    digest = hashlib.sha256(("".join(chunks) + "\n").encode()).hexdigest()
    assert digest == "062f01a1c08b054726f2f404597380dee4c045d3049c9f132ed3b6c01963e5d1"


class _Report:
    """Stands in for a `BuildReport` whose document is drawn."""

    matrix_ok = shape_ok = True
    contact = None

    def __init__(self, doc):
        self.doc = doc

    def to_json_dict(self):
        return self.doc


@settings(max_examples=100, deadline=None)
@given(_TREES, _TREES, st.integers(0, 3), st.sampled_from([1, -1]))
def test_emit_prints_nothing_past_digit_limit(before, after, depth, sign):
    # the long int comes after `before` is encoded, so chunks exist when
    # the encoder fails; none of them may reach stdout
    big = sign * 10**4300  # 4301 digits
    for _ in range(depth):
        big = [big]
    doc = {"before": before, "big": big, "after": after}
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "build", lambda p, q, variant: _Report(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["lens", "--p", "5", "--q", "4"])
    assert (code, out.getvalue()) == (64, "")
    assert err.getvalue() == f"usage error: {cli._TOO_LONG}\n"


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _exit_code_sites(node) -> list:
    """The reads of an `EXIT_*` name and the string parts that hold
    "inadmissible: " under `node`."""
    return [n for n in ast.walk(node)
            if isinstance(n, ast.Name) and n.id.startswith("EXIT_")
            and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Constant) and "inadmissible: " in str(n.value)]


def test_only_main_turns_an_outcome_into_an_exit_code():
    # each command returns its verdict or raises; `main` alone maps that
    # to an exit code and prints the `inadmissible: ` prefix
    with open(cli.__file__) as fh:
        tree = ast.parse(fh.read())
    (main_def,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main"]
    assert [n for n in tree.body if n is not main_def and _exit_code_sites(n)] == []
    assert len(_exit_code_sites(main_def)) == 6


@pytest.mark.parametrize("command", [
    "lens --p 1001 --q 1",
    "census --max-p 300",
    "census --max-p 300 --format text",
])
def test_closed_stdout_exits_quietly(command):
    # the reader takes 10 bytes and closes the pipe, like `| head -c 10`
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")]))
    with subprocess.Popen([sys.executable, "-m", "eqsurg.cli", *command.split()], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
    assert (len(head), proc.returncode, err) == (10, 1, b"")
