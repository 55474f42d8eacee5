"""One benchmark run in a fresh interpreter: a single client in a closed loop.

Usage (run.py starts it with cwd = checkout root and PYTHONPATH = src):
    python3 perfbench/worker.py '<json spec>'

The spec names the workload, seed, seconds, whether to trace, whether to
use the tiny smoke-test sizes, the work directory and, for traced runs,
where to write the spans.  The worker sends the next command only after
the previous one returns, times each `eqsurg.cli.main` call, checks every
output, and prints one JSON result line on its real stdout.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from gauge import Gauge  # noqa: E402

RERUN = 8  # commands run a second time to check that their bytes repeat


class Sink(io.TextIOBase):
    """Stands in for stdout: keeps references to what the CLI prints.

    Counting and hashing happen after the command returns, so the timed
    region holds only the CLI's own work.
    """

    def __init__(self):
        self.chunks: list[str] = []

    def write(self, s: str) -> int:
        self.chunks.append(s)
        return len(s)

    def take(self) -> bytes:
        data = "".join(self.chunks).encode()
        self.chunks = []
        return data


def execute(workload, cmds, main, seconds: float, once: bool = False, tracer=None,
            gauge: Gauge | None = None) -> dict:
    """Run the pass again and again until `seconds` have elapsed, checking each output.

    A run always ends at a pass boundary, so every command runs equally
    often.  With a gauge, the gauge ticks before every command (and inside
    it, if the workload ticks there), and each pass's times are
    scaled by the gauge's reading over that pass: they become times at the
    nominal host speed (see gauge.py).  A tick inside a command is not
    counted as the command's time.  A command's latency is the median of
    its times over the passes, and `pass_s` is the median pass time.  With
    `once` the pass runs exactly once (traced runs and their untraced
    twins), unscaled.  A command whose bytes differ from an earlier run of
    it fails all its items.
    """
    sink, errors = Sink(), io.StringIO()
    clock = time.perf_counter
    latencies: list[list[float]] = [[] for _ in cmds]
    pass_times: list[float] = []
    scales: list[float] = []
    digests: dict[tuple, str] = {}
    pass_sha = hashlib.sha256()
    pass_bytes = attempted = failed = passes = 0

    def run(cmd) -> tuple[float, int]:
        nonlocal pass_bytes
        if tracer is not None:
            tracer.request += 1
        if gauge is not None:
            gauge.tick()
            inside = gauge.spent
        with redirect_stdout(sink), redirect_stderr(errors):
            t0 = clock()
            code = main(list(cmd.argv))
            t1 = clock()
        elapsed = t1 - t0
        if gauge is not None:
            elapsed -= gauge.spent - inside
        if tracer is not None:
            tracer.end_request()
        data = sink.take()
        bad = workload.check(cmd, code, data.decode())
        digest = hashlib.sha256(data).hexdigest()
        if digests.setdefault(cmd.argv, digest) != digest:
            bad = cmd.items
        if passes == 0:
            pass_sha.update(data)
            pass_bytes += len(data)
        return elapsed, bad

    start = clock()
    while True:
        if gauge is not None:
            gauge.reset()
        times = []
        for cmd in cmds:
            elapsed, bad = run(cmd)
            times.append(elapsed)
            attempted += cmd.items
            failed += bad
        scale = 1.0 if gauge is None else gauge.scale()
        scales.append(scale)
        for lat, elapsed in zip(latencies, times):
            lat.append(elapsed * scale)
        pass_times.append(sum(times) * scale)
        passes += 1
        if once or clock() - start >= seconds:
            break
    if passes == 1 and not once:
        for cmd in cmds[:RERUN]:
            attempted += cmd.items
            failed += run(cmd)[1]
    return {
        "latency_s": [statistics.median(lat) for lat in latencies],
        "pass_s": statistics.median(pass_times),
        "scale": statistics.median(scales),
        "items": [cmd.items for cmd in cmds],
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "pass_bytes": pass_bytes,
        "pass_sha256": pass_sha.hexdigest(),
        "stderr_tail": errors.getvalue()[-2000:],
    }


def tick_inside_commands(gauge: Gauge) -> None:
    """Rebind `eqsurg.cli.build` and `BuildReport.to_json_dict` to tick after each call.

    A census command makes thousands of builds and a large lens command
    spends most of its time serializing, so ticks between commands alone
    would sample the host too seldom.
    """
    import eqsurg.cli
    import eqsurg.lens

    def ticking(fn):
        def ticked(*args):
            try:
                return fn(*args)
            finally:
                gauge.tick()

        return ticked

    eqsurg.cli.build = ticking(eqsurg.cli.build)
    report = eqsurg.lens.BuildReport
    report.to_json_dict = ticking(report.to_json_dict)


def main(spec: dict) -> dict:
    workload = workloads.WORKLOADS[spec["workload"]]
    cmds = workload.make_pass(spec["seed"], spec["workdir"], spec["tiny"])
    import eqsurg.cli

    root = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
    if not os.path.abspath(eqsurg.cli.__file__).startswith(os.path.join(root, "src", "")):
        raise SystemExit(f"eqsurg imported from {eqsurg.cli.__file__}, not this checkout")
    cli_main, tracer, gauge = eqsurg.cli.main, None, None
    if not spec["once"]:
        gauge = Gauge()
        if workload.tick_inside:
            tick_inside_commands(gauge)
    if spec["trace"]:
        import eqsurg.lens
        import eqsurg.matrices
        import eqsurg.words
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(eqsurg.cli, eqsurg.lens, eqsurg.words, eqsurg.matrices)
        cli_main = tracer.wrap("cli.main", cli_main)
    result = execute(workload, cmds, cli_main, spec["seconds"], spec["once"], tracer, gauge)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.restore()
        result["layers"] = tracer.layer_metrics()
        result["spans"] = len(tracer.spans)
        tracer.write(spec["trace_path"])
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
