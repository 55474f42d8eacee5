"""Shared helpers: random symplectic / anti-symplectic matrices, and the
matrix operations that only the tests use, among them the reference
product that the package's kernels are checked against."""

from __future__ import annotations

import random
from math import gcd

from eqsurg.matrices import CurveClass, IntMatrix, SymplecticForm, transvection


def matmul_reference(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """a @ b by the textbook triple loop over plain lists, without
    `IntMatrix.__matmul__`: the reference for the package's kernels."""
    n = len(a.rows)
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c[i][j] += a.rows[i][k] * b.rows[k][j]
    return IntMatrix(tuple(tuple(row) for row in c))


def identity_rows(n: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def real_structure_reference(a: IntMatrix) -> tuple[bool, bool]:
    """(a a = I, a^T J a = -J), each decided by `matmul_reference`."""
    j = form_matrix(a.genus)
    return (
        matmul_reference(a, a).rows == identity_rows(a.dim),
        matmul_reference(matmul_reference(transpose(a), j), a) == -j,
    )


def mat_pow(m: IntMatrix, n: int) -> IntMatrix:
    """m**n for n >= 0, by repeated squaring."""
    if n < 0:  # only nonnegative powers; -1 >> 1 == -1 would never end
        raise ValueError(f"negative matrix power {n}")
    result = IntMatrix.identity(m.dim)
    while n:
        if n & 1:
            result = result @ m
        m = m @ m
        n >>= 1
    return result


def transpose(m: IntMatrix) -> IntMatrix:
    return IntMatrix(tuple(zip(*m.rows)))


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free Gaussian elimination (Bareiss)."""
    return det_rows(m.rows)


def det_rows(rows) -> int:
    """`det` of any square matrix given as integer rows; 1 when it is empty."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def form_matrix(genus: int) -> IntMatrix:
    """The matrix J of the standard form: <x, y> = x^T J y."""
    rows = [[0] * (2 * genus) for _ in range(2 * genus)]
    for i in range(genus):
        rows[i][genus + i] = 1
        rows[genus + i][i] = -1
    return IntMatrix.from_rows(rows)


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
    j = form_matrix(genus)
    m_inv = -(j @ transpose(m) @ j)  # M^T J M = J gives M^-1 = -J M^T J
    s = m @ swap_involution(genus) @ m_inv
    assert real_structure_reference(s) == (True, True)
    return s


def random_invariant_curve(
    s: IntMatrix, genus: int, rng: random.Random, sign: int | None = None
) -> CurveClass:
    """A primitive curve class fixed by s (via x +- s(x) projections).

    x + s(x) is tried first, so without `sign` the curve almost always
    lies in the +1 eigenspace of s.  That eigenspace is Lagrangian, so
    such curves pair to 0 and their twists commute.  `sign` = -1 picks the
    -1 eigenspace instead; curves drawn from both do not commute.
    """
    signs = (1, -1) if sign is None else (sign,)
    for _ in range(500):
        x = [rng.randint(-3, 3) for _ in range(2 * genus)]
        img = s.apply(x)
        for t in signs:
            v = [a + t * b for a, b in zip(x, img)]
            if any(v):
                c = primitive(v)
                if c.image_under(s) == c:
                    return c
    raise AssertionError("could not find an invariant curve")
