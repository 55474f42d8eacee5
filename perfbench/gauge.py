"""The host's speed, measured by a fixed reference routine between pieces of work.

On a shared VM the CPU's speed drifts by 10-30 % over tens of seconds, as
other tenants load the host; process CPU time drifts with wall time, so
the slowdown is in the processor, not in scheduling.  A run that happens
to fall in a slow minute then reads slower as a whole, and no statistic
over the run alone can tell that from a slower program.

The gauge cancels that drift.  `tick` runs `reference`, a fixed piece of
pure-Python work of the same kind as the package's (small tuples, integer
arithmetic, a dict, `json.dumps`), and adds up its time.  The worker
ticks between commands and, where a command makes many builds, after
each build, so the ticks sample the same seconds of the host as the
work.  `scale` is then the factor that turns the work's measured time
into its time at the nominal speed at which `reference` takes exactly
REFERENCE_MS.  A slower program still reads slower: the reference is the
benchmark's own code and never calls the package.
"""

from __future__ import annotations

import json
import time

REFERENCE_MS = 0.25  # the reference routine's time at nominal speed


def _mul(a: tuple, b: tuple) -> tuple:
    return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])


def reference() -> int:
    """About a quarter of a millisecond of fixed work, on a 2.1 GHz Xeon vCPU."""
    seen: dict[tuple, int] = {}
    m = (1, 0, 0, 1)
    for i in range(120):
        t = (1, i % 5 - 2, 0, 1) if i % 2 else (1, 0, i % 3 - 1, 1)
        m = tuple(x % 1009 for x in _mul(m, t))
        seen[m] = seen.get(m, 0) + 1
    return len(json.dumps([list(k) for k in seen]))


class Gauge:
    def __init__(self):
        self.ticks = 0
        self.spent = 0.0  # seconds inside `reference`

    def tick(self) -> None:
        t0 = time.perf_counter()
        reference()
        self.spent += time.perf_counter() - t0
        self.ticks += 1

    def scale(self) -> float:
        """Nominal ÷ measured speed of the reference since the last reset."""
        return self.ticks * REFERENCE_MS / 1e3 / self.spent

    def reset(self) -> None:
        self.ticks, self.spent = 0, 0.0
