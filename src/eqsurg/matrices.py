"""Exact integer matrix algebra on H_1 of a genus-g surface.

Everything downstream (twist words, gluing maps, surgery classification)
is verified against the operations in this module, so all arithmetic is
arbitrary-precision integer arithmetic; there is no floating point
anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


class DimensionMismatch(ValueError):
    pass


class NotPrimitive(ValueError):
    pass


@dataclass(frozen=True)
class IntMatrix:
    """Square integer matrix of even dimension 2g, acting on column vectors."""

    rows: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(rows: Iterable[Sequence[int]]) -> "IntMatrix":
        t = tuple(tuple(int(x) for x in row) for row in rows)
        n = len(t)
        if n == 0 or any(len(row) != n for row in t):
            raise DimensionMismatch("matrix must be square")
        if n % 2 != 0:
            raise DimensionMismatch("dimension must be even (2g)")
        return IntMatrix(t)

    @staticmethod
    def identity(dim: int) -> "IntMatrix":
        return IntMatrix.from_rows(
            [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
        )

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def genus(self) -> int:
        return self.dim // 2

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.dim != other.dim:
            raise DimensionMismatch(
                f"cannot multiply {self.dim}x{self.dim} by {other.dim}x{other.dim}"
            )
        cols = list(zip(*other.rows))
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.rows
            )
        )

    def twist(self, curve: CurveClass, power: int) -> "IntMatrix":
        """self @ T, where T is the homology action of tau_curve^power.

        T = I + power * c w^T with w_j = <c, e_j>, so each row gains
        power * (row . c) times w: a rank-1 update, no T is built.
        """
        if curve.genus != self.genus:
            raise DimensionMismatch("curve genus does not match matrix genus")
        c, g = curve.coords, self.genus
        w = tuple(-x for x in c[g:]) + c[:g]
        rows = []
        for row in self.rows:
            k = power * sum(a * b for a, b in zip(row, c))
            rows.append(tuple(x + k * y for x, y in zip(row, w)))
        return IntMatrix(tuple(rows))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(tuple(tuple(-x for x in row) for row in self.rows))

    def __pow__(self, n: int) -> "IntMatrix":
        if n < 0:  # only nonnegative powers; -1 >> 1 == -1 would never end
            raise ValueError(f"negative matrix power {n}")
        result = IntMatrix.identity(self.dim)
        base = self
        while n:
            if n & 1:
                result = result @ base
            base = base @ base
            n >>= 1
        return result

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows)))

    def det(self) -> int:
        """Exact determinant by fraction-free Gaussian elimination (Bareiss)."""
        n = self.dim
        m = [list(row) for row in self.rows]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
                if pivot is None:
                    return 0
                m[k], m[pivot] = m[pivot], m[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.dim:
            raise DimensionMismatch("vector length does not match matrix dimension")
        return tuple(sum(a * x for a, x in zip(row, vec)) for row in self.rows)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.rows]

    def __str__(self) -> str:
        return "[" + ", ".join("[" + ", ".join(map(str, r)) + "]" for r in self.rows) + "]"


@dataclass(frozen=True)
class CurveClass:
    """Primitive homology class of an unoriented essential curve.

    Normalized so the first nonzero coordinate is positive; a class and
    its negative denote the same unoriented curve.
    """

    coords: tuple[int, ...]

    @staticmethod
    def of(*coords: int) -> "CurveClass":
        return CurveClass.from_coords(coords)

    @staticmethod
    def from_coords(coords: Sequence[int]) -> "CurveClass":
        c = tuple(int(x) for x in coords)
        if len(c) == 0 or len(c) % 2 != 0:
            raise DimensionMismatch("curve vector length must be even (2g)")
        g = math.gcd(*c)
        if g != 1:
            raise NotPrimitive(f"vector {c} is not primitive (gcd {g})")
        lead = next(x for x in c if x != 0)
        if lead < 0:
            c = tuple(-x for x in c)
        return CurveClass(c)

    @property
    def genus(self) -> int:
        return len(self.coords) // 2

    def image_under(self, m: IntMatrix) -> "CurveClass":
        return CurveClass.from_coords(m.apply(self.coords))


@dataclass(frozen=True)
class SymplecticForm:
    """Standard alternating form on Z^{2g} with <e_i, e_{g+i}> = 1."""

    genus: int

    @property
    def dim(self) -> int:
        return 2 * self.genus

    def matrix(self) -> IntMatrix:
        g = self.genus
        rows = [[0] * (2 * g) for _ in range(2 * g)]
        for i in range(g):
            rows[i][g + i] = 1
            rows[g + i][i] = -1
        return IntMatrix.from_rows(rows)

    def pairing(self, x: Sequence[int], y: Sequence[int]) -> int:
        g = self.genus
        if len(x) != 2 * g or len(y) != 2 * g:
            raise DimensionMismatch("vector length does not match form genus")
        return sum(x[i] * y[g + i] - x[g + i] * y[i] for i in range(g))


def is_involution(a: IntMatrix) -> bool:
    return a @ a == IntMatrix.identity(a.dim)


def transvection(curve: CurveClass, power: int, form: SymplecticForm) -> IntMatrix:
    """Homology action of the Dehn twist tau_curve^power.

    x |-> x + power * <curve, x> * curve.  At genus 1 this reproduces the
    standard shear matrices tau_a = [[1,1],[0,1]], tau_b = [[1,0],[-1,1]].
    """
    if curve.genus != form.genus:
        raise DimensionMismatch("curve genus does not match form genus")
    return IntMatrix.identity(form.dim).twist(curve, power)


def is_anti_symplectic(a: IntMatrix, form: SymplecticForm | None = None) -> bool:
    """True iff a reverses the intersection form: a^T J a = -J."""
    if form is None:
        form = SymplecticForm(a.genus)
    j = form.matrix()
    return a.transpose() @ j @ a == -j
