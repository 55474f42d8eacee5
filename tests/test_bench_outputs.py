"""The benchmark's own output checks, run on small passes.

`perfbench/workloads.py` checks each `factor-palindrome` result against
a product of twist matrices in its own integer arithmetic, never
`eqsurg.matrices`, and each census and lens document for its row count
and verdicts.  Running the tiny pass of every workload here makes a
defect that the benchmark would count as a failed item fail this test
first.
"""

import contextlib
import importlib.util
import io
import os
import sys

import pytest

from eqsurg.cli import main

_WORKLOADS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "perfbench", "workloads.py")


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def _run_pass(make_pass, check, seed, workdir):
    cmds = make_pass(seed, workdir, tiny=True)
    assert cmds
    for cmd in cmds:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(cmd.argv))
        assert check(cmd, code, out.getvalue()) == 0, cmd.argv


@pytest.mark.parametrize("seed", [0, 1])
def test_palindrome_pass_passes_the_benchmark_check(tmp_path, seed):
    _run_pass(workloads.palindrome_pass, workloads.check_palindrome, seed, str(tmp_path))


@pytest.mark.parametrize("seed", [0, 1])
def test_census_pass_passes_the_benchmark_check(tmp_path, seed):
    _run_pass(workloads.census_pass, workloads.check_census, seed, str(tmp_path))


@pytest.mark.parametrize("seed", [0, 1])
def test_wide_middle_pass_passes_the_benchmark_check(tmp_path, seed):
    _run_pass(workloads.wide_middle_pass, workloads.check_lens, seed, str(tmp_path))
