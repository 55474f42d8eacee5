"""Seeded inputs and per-item correctness checks for the three workloads.

Every workload is one pass: a list of CLI commands that a run repeats.
The pass depends only on the seed (census ignores it: its size is
fixed), and it is stratified, so that every seed gets the same mix of
input sizes.

The checks use the benchmark's own integer arithmetic, never
`eqsurg.matrices`, so that a defect in the package cannot hide itself.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from math import gcd
from typing import Callable


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    items: int  # builds or palindrome instances this command completes
    expect: object  # what the checker compares the output with


# ---------------------------------------------------------------------------
# Exact integer helpers (independent of the package)


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def twist(curve: list[int], power: int) -> list[list[int]]:
    """Homology action x -> x + power * <curve, x> * curve of a Dehn twist."""
    n = len(curve)
    g = n // 2
    # <curve, e_j> for the form with <e_i, e_{g+i}> = 1
    weight = [-curve[g + j] for j in range(g)] + [curve[j] for j in range(g)]
    return [[int(i == j) + power * curve[i] * weight[j] for j in range(n)] for i in range(n)]


def primitive(v: list[int]) -> list[int]:
    """v divided by its gcd, first nonzero entry positive."""
    d = 0
    for x in v:
        d = gcd(d, x)
    v = [x // d for x in v]
    lead = next(x for x in v if x)
    return v if lead > 0 else [-x for x in v]


def random_involution(genus: int, rng: random.Random) -> list[list[int]]:
    """A random conjugate m s0 m^-1 of the block swap s0, m a product of twists."""
    n = 2 * genus
    m, m_inv = identity(n), identity(n)
    for _ in range(6):
        v = [0] * n
        while not any(v):
            v = [rng.randint(-2, 2) for _ in range(n)]
        c, k = primitive(v), rng.choice([-1, 1])
        m = matmul(m, twist(c, k))
        m_inv = matmul(twist(c, -k), m_inv)
    swap = [[int(j == i + genus or i == j + genus) for j in range(n)] for i in range(n)]
    return matmul(matmul(m, swap), m_inv)


def invariant_curve(s: list[list[int]], rng: random.Random) -> list[int]:
    """A primitive class fixed by s up to sign: x + s(x) or x - s(x)."""
    n = len(s)
    while True:
        x = [rng.randint(-3, 3) for _ in range(n)]
        sx = [sum(a * b for a, b in zip(row, x)) for row in s]
        sign = rng.choice([1, -1])
        v = [a + sign * b for a, b in zip(x, sx)]
        if any(v):
            return primitive(v)


def palindrome_product(curves: list[list[int]], exps: list[int]) -> list[list[int]]:
    """tau_1^e1 .. tau_w^ew tau_w^ew .. tau_1^e1 as an integer matrix."""
    factors = [twist(c, e) for c, e in zip(curves, exps)]
    m = identity(len(curves[0]))
    for t in factors + factors[::-1]:
        m = matmul(m, t)
    return m


def census_rows(max_p: int) -> int:
    """Builds in `census --max-p max_p`: two variants per admissible (p, q)."""
    return 2 * sum(
        1
        for p in range(2, max_p + 1)
        for q in range(1, p)
        if gcd(p, q) == 1 and (q * q) % p == 1 % p
    )


# ---------------------------------------------------------------------------
# census: the full p <= 500 table of acceptance criterion 1; the seed is not
# used.  One call runs for about 10 s, so a run makes three or four passes.


def census_pass(seed: int, workdir: str, tiny: bool) -> list[Command]:
    max_p = 20 if tiny else 500
    rows = census_rows(max_p)
    return [Command(("census", "--max-p", str(max_p)), rows, rows)]


def check_census(cmd: Command, code: int, text: str) -> int:
    rows = cmd.expect
    tail = text[text.rfind('"summary"'):]
    ok = (
        code == 0
        and f'"rows": {rows},' in tail
        and f'"matrix_ok": {rows},' in tail
        and text.count('"matrix_ok": true') == rows
        and text.count('"shape_ok": true') == rows
    )
    return 0 if ok else cmd.items


# ---------------------------------------------------------------------------
# wide_middle: L(P, 1), both variants, one P drawn from each of 24 equal
# strata of [500, 1500], so every seed gets the same spread of sizes.  The
# median and tail commands then differ little from seed to seed.  P in
# [2000, 5000] (2-3 MB of JSON per build) has the same serialization-bound
# mix, but only 12 strata fit in a pass there, and its median command
# spread by 9 % over seeds.


def wide_middle_pass(seed: int, workdir: str, tiny: bool) -> list[Command]:
    lo, hi, strata = (20, 60, 2) if tiny else (500, 1500, 24)
    width = (hi - lo) // strata
    rng = random.Random(seed)
    cmds = [
        Command(("lens", "--p", str(p), "--q", "1", "--variant", v), 1, (p, v))
        for p in [rng.randrange(lo + k * width, lo + (k + 1) * width) for k in range(strata)]
        for v in ("C", "C'")
    ]
    rng.shuffle(cmds)
    return cmds


def check_lens(cmd: Command, code: int, text: str) -> int:
    p, variant = cmd.expect
    head = text[:4096]
    ok = (
        code == 0
        and head.startswith("{\n")
        and f'\n  "p": {p},' in head
        and f'\n  "variant": {json.dumps(variant)},' in head
        and '\n  "matrix_ok": true,' in head
        and '\n  "shape_ok": true,' in head
    )
    return 0 if ok else cmd.items


# ---------------------------------------------------------------------------
# palindrome_g23: factor-palindrome at genus 2 and 3 over seeded involutions,
# an equal number of instances for each (genus, width) with width 1..6.
# A pass needs about 6700 distinct transvections, more than the package's
# 4096-entry cache holds, so repeating the pass does not turn misses into hits.

POOL = 256  # involutions per genus, written as files during setup


def palindrome_pass(seed: int, workdir: str, tiny: bool) -> list[Command]:
    rng = random.Random(seed)
    pool: dict[int, list[tuple[str, list[list[int]]]]] = {2: [], 3: []}
    for genus, entries in pool.items():
        for i in range(POOL):
            s = random_involution(genus, rng)
            path = os.path.join(workdir, f"involution-g{genus}-{i}.json")
            with open(path, "w") as fh:
                json.dump(s, fh)
            entries.append((path, s))
    cmds = []
    for genus, entries in pool.items():
        for width in range(1, 7):
            for _ in range(1 if tiny else 80):
                path, s = rng.choice(entries)
                curves = [invariant_curve(s, rng) for _ in range(width)]
                exps = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(width)]
                word = " ".join(
                    "v[" + ",".join(map(str, c)) + f"]^{e}" for c, e in zip(curves, exps)
                )
                argv = ("factor-palindrome", "--genus", str(genus),
                        "--involution", path, "--curves", word)
                cmds.append(Command(argv, 1, palindrome_product(curves, exps)))
    rng.shuffle(cmds)
    return cmds


def check_palindrome(cmd: Command, code: int, text: str) -> int:
    try:
        ok = code == 0 and json.loads(text)["matrix"] == cmd.expect
    except (ValueError, KeyError, TypeError):
        ok = False
    return 0 if ok else cmd.items


@dataclass(frozen=True)
class Workload:
    make_pass: Callable[[int, str, bool], list[Command]]
    check: Callable[[Command, int, str], int]
    tick_inside: bool = False  # the gauge also ticks after each build and serialization


WORKLOADS = {
    # their commands run for long, so the gauge samples the host inside them too
    "census": Workload(census_pass, check_census, tick_inside=True),
    "wide_middle": Workload(wide_middle_pass, check_lens, tick_inside=True),
    "palindrome_g23": Workload(palindrome_pass, check_palindrome),
}
