"""eqsurg benchmark: one run of one workload.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run from anywhere; the checkout is the directory above this file, and the
package is imported from its `src/`.  Each run starts fresh worker
processes (perfbench/worker.py), prints a readable report, and ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}.  With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` they are
the per-layer ones from a traced run over a fixed amount of work, next to
an untraced run of the same work that gives the tracing overhead.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from gauge import Gauge  # noqa: E402

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
STATE = os.path.join(ROOT, ".perfbench")  # work files and span dumps; git-ignored
PROBES = 31  # fresh interpreters timed for setup_s
PROBE_TICKS = 20  # gauge ticks on each side of one
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def pin_to_fastest_cpu() -> str:
    """Pin this process, and so the processes it starts, to its fastest CPU.

    On a shared VM one vCPU can run at half the speed of the other for
    minutes, and a run then measures which CPU the scheduler picked.  A
    short spin on each allowed CPU, best of three, picks the quickest.
    """
    if not hasattr(os, "sched_setaffinity"):
        return "all CPUs (no affinity control)"
    cpus = sorted(os.sched_getaffinity(0))
    best: dict[int, float] = {}
    for _ in range(3):
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            t0 = time.perf_counter()
            sum(i * i for i in range(200_000))
            dt = time.perf_counter() - t0
            best[cpu] = min(dt, best.get(cpu, dt))
    cpu = min(best, key=best.get)
    os.sched_setaffinity(0, {cpu})
    spins = ", ".join(f"cpu{c} {best[c] * 1e3:.1f} ms" for c in cpus)
    return f"cpu{cpu} (calibration spin: {spins})"


def setup_seconds(deadline: float) -> list[float]:
    """Wall time of fresh interpreters that only `import eqsurg.cli`.

    Each time is scaled to the nominal host speed by the gauge's reading
    over the ticks just before and just after that interpreter.
    """
    gauge, samples = Gauge(), []
    for _ in range(PROBES):
        gauge.reset()
        for _ in range(PROBE_TICKS):
            gauge.tick()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import eqsurg.cli"], cwd=ROOT,
                              env=_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        elapsed = time.perf_counter() - t0
        for _ in range(PROBE_TICKS):
            gauge.tick()
        samples.append(elapsed * gauge.scale())
        if proc.returncode != 0:
            raise BenchError(f"cannot import eqsurg.cli:\n{proc.stderr}")
    return samples


def start_worker(spec: dict, deadline: float) -> dict:
    try:
        proc = subprocess.run([sys.executable, WORKER, json.dumps(spec)], cwd=ROOT,
                              env=_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish before the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker failed with exit code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_latency(latency_s: list[float]) -> tuple[float, str]:
    """The highest percentile of the commands' latencies with ten beyond it.

    Below 20 commands that percentile would sit under the median, and the
    tail is the maximum instead.
    """
    d = sorted(latency_s)
    n = len(d)
    if n < 20:
        return d[-1], f"max of {n} commands (fewer than 20)"
    return d[n - 11], f"p{100 * (n - 10) / n:.1f} of {n} commands (10 beyond it)"


def items_per_s(res: dict) -> float:
    return sum(res["items"]) / res["pass_s"]


def end_to_end(res: dict, setup: list[float]) -> tuple[dict, list[str]]:
    latency_s = res["latency_s"]
    tail, tail_note = tail_latency(latency_s)
    fail_frac = res["failed"] / res["attempted"]
    metrics = {
        "items_per_s": (items_per_s(res), "1/s"),
        "cmd_p50_ms": (statistics.median(latency_s) * 1e3, "ms"),
        "cmd_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (res["maxrss_kb"] / 1024, "MB"),
        "output_bytes": (res["pass_bytes"], "B"),
        "ok_frac": (1.0 - fail_frac, "ratio"),
        "setup_s": (statistics.median(setup), "s"),
    }
    notes = [
        f"{len(latency_s)} commands per pass, {res['passes']} passes, {sum(res['items'])} "
        f"items per pass; times are medians over the passes, at nominal host speed "
        f"(gauge.py); the median pass ran at {res['scale']:.3f}x nominal speed",
        f"cmd_tail_ms is the {tail_note}",
        f"fail_frac {fail_frac:g} ratio ({res['failed']} of {res['attempted']} items)",
        f"output_bytes and sha256 cover one pass: {res['pass_sha256']}",
        f"setup_s is the median of {len(setup)} fresh interpreters importing eqsurg.cli",
    ]
    return metrics, notes


def layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def per_layer(plain: dict, traced: dict) -> tuple[dict, list[str]]:
    plain_rate, traced_rate = items_per_s(plain), items_per_s(traced)
    metrics = {name: (value, layer_unit(name)) for name, value in traced["layers"].items()}
    metrics["trace.items_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_items_per_s"] = (plain_rate, "1/s")
    metrics["trace.overhead_ratio"] = (plain_rate / traced_rate, "x")
    notes = [
        f"tracing overhead: {plain_rate:.1f} items/s untraced vs {traced_rate:.1f} "
        f"traced on the same seed ({plain_rate / traced_rate:.2f}x)",
        f"{traced['spans']} spans written to {os.path.relpath(traced['trace_path'], ROOT)}",
        f"sha256 untraced {plain['pass_sha256']} traced {traced['pass_sha256']}",
    ]
    return metrics, notes


def run(workload: str, seed: int, seconds: int, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the result object printed last."""
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "eqsurg", "cli.py")):
        raise BenchError(f"no eqsurg sources under {os.path.join(ROOT, 'src')}")
    pinned = pin_to_fastest_cpu()
    workdir = os.path.join(STATE, "work", f"{workload}-{seed}")
    os.makedirs(workdir, exist_ok=True)
    spec = {"workload": workload, "seed": seed, "seconds": seconds, "tiny": tiny,
            "workdir": os.path.relpath(workdir, ROOT), "trace": False, "once": trace}
    try:
        if trace:
            plain = start_worker(spec, deadline)
            trace_path = os.path.join(STATE, f"trace-{workload}-{seed}.csv.gz")
            traced = start_worker({**spec, "trace": True, "trace_path": trace_path}, deadline)
            traced["trace_path"] = trace_path
            attempted = plain["attempted"] + traced["attempted"]
            failed = plain["failed"] + traced["failed"]
            if plain["pass_sha256"] != traced["pass_sha256"]:
                failed = attempted
            metrics, notes = per_layer(plain, traced)
        else:
            setup = setup_seconds(deadline)
            res = start_worker(spec, deadline)
            attempted, failed = res["attempted"], res["failed"]
            metrics, notes = end_to_end(res, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if failed:
        print(f"perfbench: {failed} items failed; CLI stderr ends with:\n"
              f"{(traced if trace else res)['stderr_tail']}", file=sys.stderr)
    print(f"perfbench {workload} seed={seed} seconds={seconds} trace={int(trace)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    for note in notes + [f"pinned to {pinned}"]:
        print(f"  # {note}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
