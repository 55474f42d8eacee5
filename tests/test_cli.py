import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqsurg.cli import main


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


def test_catalog_type_a(capsys):
    code, out, _ = run(capsys, "catalog", "typeA", "--p", "3", "--q", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == [-3] and doc["count"] == 2


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
    ],
)
def test_verify_malformed_word(capsys, tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "float.json").write_text("[[0.5,1],[1,0]]")
    code, out, err = run(capsys, *args)
    assert (code, out) == (64, "")
    assert err.startswith("usage error:")


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
    assert code in (0, 1, 2, 64), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_factor_palindrome_cst(capsys):
    code, out, _ = run(capsys, "factor-palindrome", "--curves", "(a+b)^1")
    assert code == 0
    doc = json.loads(out)
    assert doc["output"] == "(a+b)^2"


def test_factor_palindrome_inadmissible(capsys):
    code, _, err = run(capsys, "factor-palindrome", "--curves", "a^1")
    assert code == 2


def test_no_command_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 64
