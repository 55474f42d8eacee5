"""The benchmark's tracer against the live package.

`perfbench/tracer.py` rebinds names it looks up in `eqsurg.cli`, `lens`,
`words` and `matrices` (`lens.legalize`, `cli.build`,
`BuildReport.to_json_dict`, ...).  A rename in the package breaks traced
benchmark runs; this test installs the tracer, runs one command and
restores the modules.
"""

import contextlib
import importlib.util
import io
import os

import eqsurg.cli
import eqsurg.lens
import eqsurg.matrices
import eqsurg.words
from eqsurg.lens import Variant, admissible_pairs, build

_TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def _traced(argv):
    """Run one command under the tracer; its metrics, with the modules restored."""
    modules = (eqsurg.cli, eqsurg.lens, eqsurg.words, eqsurg.matrices)
    before = [dict(vars(m)) for m in modules]
    to_json = eqsurg.lens.BuildReport.to_json_dict
    matmul = eqsurg.matrices.IntMatrix.__matmul__
    tracer = _load_tracer()()
    try:
        tracer.install(*modules)
        main = tracer.wrap("cli.main", eqsurg.cli.main)
        tracer.request += 1
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        tracer.end_request()
    finally:
        tracer.restore()
    assert [dict(vars(m)) for m in modules] == before
    assert eqsurg.lens.BuildReport.to_json_dict is to_json
    assert eqsurg.matrices.IntMatrix.__matmul__ is matmul
    return tracer.layer_metrics()


def test_tracer_installs_on_the_live_package():
    metrics = _traced(["lens", "--p", "5", "--q", "4"])
    assert metrics["lens.build.calls"] == 1
    assert metrics["words.shape.self_s"] > 0


def test_fix_build_runs_one_pass_under_the_tracer():
    # L(6, 5) expands to [2, 2, 2, 2, 2], so its C word holds the rewrite
    # pattern: the build rewrites it, then verifies and assembles once
    metrics = _traced(["lens", "--p", "6", "--q", "5"])
    assert metrics["lens.build.calls"] == 1
    assert metrics["words.eval_word.calls"] == 1
    assert metrics["lens.assemble_ratio"] == 1.0
    assert metrics["words.fix_rule.hit_ratio"] == 1.0


def test_census_counts_one_build_and_the_flat_factors_per_row():
    # the benchmark's gauge rebinds `eqsurg.cli.build`, so the census must
    # look `build` up by that name once per row; and a word held as runs
    # must still count its flat factors
    rows = [(p, q, v) for p, q in admissible_pairs(20) for v in (Variant.C, Variant.C_PRIME)]
    metrics = _traced(["census", "--max-p", "20"])
    assert metrics["lens.build.calls"] == len(rows)
    assert metrics["words.eval_word.factors"] == sum(
        len(build(p, q, v).word.factors) for p, q, v in rows
    )


def test_factor_palindrome_runs_under_the_tracer():
    # the tracer rebinds `cli.parse_word` and `cli.factor_palindrome`, the
    # two library stages of the palindrome workload
    metrics = _traced(["factor-palindrome", "--curves", "(a+b)^1 (a-b)^-2"])
    assert metrics["words.factor_palindrome.self_s"] > 0
    assert metrics["words.parse_word.self_s"] > 0
