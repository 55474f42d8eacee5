"""Shared helpers: random symplectic / anti-symplectic matrices."""

from __future__ import annotations

import random
from math import gcd

from eqsurg.matrices import (
    CurveClass,
    IntMatrix,
    SymplecticForm,
    is_anti_symplectic,
    is_involution,
    transvection,
)


def primitive(coords) -> CurveClass:
    d = 0
    for y in coords:
        d = gcd(d, abs(y))
    return CurveClass.from_coords([y // d for y in coords])


def random_curve(genus: int, rng: random.Random) -> CurveClass:
    while True:
        v = [rng.randint(-2, 2) for _ in range(2 * genus)]
        if any(v):
            return primitive(v)


def random_symplectic(genus: int, rng: random.Random, steps: int = 6) -> IntMatrix:
    form = SymplecticForm(genus)
    m = IntMatrix.identity(2 * genus)
    for _ in range(steps):
        m = m @ transvection(random_curve(genus, rng), rng.choice([-1, 1]), form)
    return m


def swap_involution(genus: int) -> IntMatrix:
    """Block swap e_i <-> f_i; the genus-g analogue of the standard base."""
    n = 2 * genus
    return IntMatrix.from_rows(
        [[int(j == i + genus or i == j + genus) for j in range(n)] for i in range(n)]
    )


def random_anti_symplectic(genus: int, rng: random.Random) -> IntMatrix:
    """Random conjugate of the block swap: an anti-symplectic involution."""
    m = random_symplectic(genus, rng)
    s = m @ swap_involution(genus) @ m.inverse()
    assert is_involution(s) and is_anti_symplectic(s)
    return s


def random_invariant_curve(s: IntMatrix, genus: int, rng: random.Random) -> CurveClass:
    """A primitive curve class fixed by s (via x +- s(x) projections)."""
    for _ in range(500):
        x = [rng.randint(-3, 3) for _ in range(2 * genus)]
        img = s.apply(x)
        for sign in (1, -1):
            v = [a + sign * b for a, b in zip(x, img)]
            if any(v):
                c = primitive(v)
                if c.image_under(s) == c:
                    return c
    raise AssertionError("could not find an invariant curve")
