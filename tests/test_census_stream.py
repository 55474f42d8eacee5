"""The streamed census against the whole-document rendering it replaced.

`cmd_census` writes each row as soon as its build returns and counts the
summary along the way.  These tests rebuild the rows with `build` and
render them the old way, as one document through `json.dumps` (or one
line join for `--format text`), and hold the streamed bytes, the exit
code and the peak memory to that.
"""

import json
import os
import resource
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqsurg import cli
from eqsurg.cli import main
from eqsurg.contact import RunList
from eqsurg.lens import Variant, admissible_pairs, build


def census_rows(max_p, build_fn=build):
    return [
        build_fn(p, q, v).census_row()
        for p, q in admissible_pairs(max_p)
        for v in (Variant.C, Variant.C_PRIME)
    ]


def summed(rows):
    return {
        "rows": len(rows),
        "matrix_ok": sum(r["matrix_ok"] for r in rows),
        "legal": sum(r["legal"] for r in rows),
        "flagged": sum(bool(r["flags"]) for r in rows),
        "fix_rule_applied": sum(r["fix_rule_applied"] for r in rows),
    }


def whole_json(max_p, rows):
    doc = {"max_p": max_p, "rows": rows, "summary": summed(rows)}
    return json.dumps(doc, indent=2) + "\n"


def whole_text(rows):
    lines = [
        f"{r['p']:>4} {r['q']:>4} {r['variant']:<2} {r['case']:<10} "
        f"matrix={'ok' if r['matrix_ok'] else 'FAIL'} "
        f"shape={'ok' if r['shape_ok'] else 'FAIL'} "
        f"legal={r['legal']} flags={','.join(r['flags']) or '-'}"
        for r in rows
    ]
    lines.append(f"summary: {summed(rows)}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("max_p", [2, 3, 60])
def test_streamed_census_matches_whole_document(capsys, max_p):
    rows = census_rows(max_p)
    assert main(["census", "--max-p", str(max_p)]) == 0
    assert capsys.readouterr().out == whole_json(max_p, rows)
    assert main(["census", "--max-p", str(max_p), "--format", "text"]) == 0
    assert capsys.readouterr().out == whole_text(rows)


def test_streamed_census_exit_code_after_last_row(capsys, monkeypatch):
    # one failed verdict in the middle: every row is still written, the
    # summary counts the failure, and the exit code is 1
    def failing(p, q, variant):
        report = build(p, q, variant)
        if (p, q, variant) == (4, 3, Variant.C):
            report = report._replace(matrix_ok=False)
        return report

    rows = census_rows(7, failing)
    assert summed(rows)["matrix_ok"] == len(rows) - 1
    monkeypatch.setattr(cli, "build", failing)
    assert main(["census", "--max-p", "7"]) == 1
    assert capsys.readouterr().out == whole_json(7, rows)
    assert main(["census", "--max-p", "7", "--format", "text"]) == 1
    assert capsys.readouterr().out == whole_text(rows)


_TEXT = st.text() | st.sampled_from(["", "\"", "\\", "\x00\x1f\n\t\"\\/", "\u2028", "é", "\U0001f600"])
_FLAGS = st.lists(_TEXT, max_size=5)
# the keys of `BuildReport.census_row`, in its order
_ROWS = st.tuples(
    st.integers(min_value=0),
    st.integers(min_value=0),
    _TEXT,
    _TEXT,
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    _FLAGS
    | _FLAGS.map(lambda fs: RunList([(f, 1) for f in fs]))
    | st.lists(st.tuples(_TEXT, st.integers(1, 3)), max_size=3).map(RunList),
).map(lambda values: dict(zip(
    ("p", "q", "variant", "case", "matrix_ok", "shape_ok", "legal", "fix_rule_applied", "flags"),
    values,
)))


@settings(max_examples=300, deadline=None)
@given(_ROWS, st.sampled_from(["\n    ", ",\n    "]))
@example(build(7, 1, Variant.C).census_row(), "\n    ")  # a PositiveC4Middle run of 6
@example(build(3, 2, Variant.C_PRIME).census_row(), ",\n    ")
def test_json_row_template_matches_encode(row, lead):
    # the census row template writes its lead, then what the general
    # encoder writes for the row at its depth in the document
    out = [lead]
    cli._encode(row, "    ", out)
    assert cli._json_row(row, lead) == "".join(out)


# Measured on a 2-vCPU Xeon VM with Python 3.11: 16.2 MB streamed, where
# the whole document peaked at 73.0 MB; importing the CLI alone takes
# about 15.5 MB.
MAX_CENSUS_RSS_MB = 25

# A wrapper child runs the census as its only child, so RUSAGE_CHILDREN
# reads the census process and not the test runner's other children.
_WRAPPER = """
import resource, subprocess, sys
done = subprocess.run(
    [sys.executable, "-m", "eqsurg.cli", "census", "--max-p", "1000"],
    stdout=subprocess.DEVNULL,
)
print(done.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_census_peak_rss_stays_small():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", _WRAPPER], env=env, capture_output=True, text=True, check=True
    ).stdout
    code, max_rss_kb = map(int, out.split())  # ru_maxrss is in KiB on Linux
    assert code == 0
    assert max_rss_kb / 1024 < MAX_CENSUS_RSS_MB
