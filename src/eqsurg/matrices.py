"""Exact integer matrix algebra on H_1 of a genus-g surface.

Everything downstream (twist words, gluing maps, surgery classification)
is verified against the operations in this module, so all arithmetic is
arbitrary-precision integer arithmetic; there is no floating point
anywhere.  Each inner product runs as `sum(map(mul, ...))` over Python
ints, so the per-entry loop is C iteration, not bytecode.  Every genus-g
twist is the rank-1 update `shear` of a vector.  The form J is written
only in `dual`.  The real-structure checks build no product matrix but
read the column duals, the rows of a^T J: the pairings of the columns
decide anti-symplectic, and then J a symmetric decides an involution.

Every value record in the package is a tuple: a `NamedTuple`, or a
`namedtuple` subclass whose `__new__` checks its fields.  So `==` and
hashing run in C, and importing the package loads no `dataclasses`.  The
cost: a record equals, and orders like, a plain tuple of its fields, and
`_replace` and `_make` skip the checks in `__new__`.
"""

from __future__ import annotations

import math
from operator import add, mul, neg
from typing import Iterable, NamedTuple, Sequence


class DimensionMismatch(ValueError):
    pass


class NotPrimitive(ValueError):
    pass


class IntMatrix(NamedTuple):
    """Square integer matrix of even dimension 2g, acting on column vectors."""

    rows: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(rows: Iterable[Sequence[int]]) -> "IntMatrix":
        t = tuple(tuple(map(int, row)) for row in rows)
        n = len(t)
        if n == 0 or any(len(row) != n for row in t):
            raise DimensionMismatch("matrix must be square")
        if n % 2 != 0:
            raise DimensionMismatch("dimension must be even (2g)")
        return IntMatrix(t)

    @staticmethod
    def identity(dim: int) -> "IntMatrix":
        if dim <= 0:
            raise DimensionMismatch("matrix must be square")
        if dim % 2 != 0:
            raise DimensionMismatch("dimension must be even (2g)")
        return IntMatrix(tuple([(0,) * i + (1,) + (0,) * (dim - 1 - i) for i in range(dim)]))

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
            tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in self.rows])
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(tuple(tuple(-x for x in row) for row in self.rows))

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.dim:
            raise DimensionMismatch("vector length does not match matrix dimension")
        return tuple([sum(map(mul, row, vec)) for row in self.rows])

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.rows]


class CurveClass(NamedTuple):
    """Primitive homology class of an unoriented essential curve.

    Normalized so the first nonzero coordinate is positive; a class and
    its negative denote the same unoriented curve.  A tuple underneath,
    so hashing and equality run at C speed; the hash is that of
    (coords,).
    """

    coords: tuple[int, ...]

    @staticmethod
    def of(*coords: int) -> "CurveClass":
        return CurveClass.from_coords(coords)

    @staticmethod
    def from_coords(coords: Sequence[int]) -> "CurveClass":
        c = tuple(map(int, coords))
        if len(c) == 0 or len(c) % 2 != 0:
            raise DimensionMismatch("curve vector length must be even (2g)")
        g = math.gcd(*c)
        if g != 1:
            raise NotPrimitive(f"vector {c} is not primitive (gcd {g})")
        if next(filter(None, c)) < 0:
            c = tuple(-x for x in c)
        return CurveClass(c)

    @property
    def genus(self) -> int:
        return len(self.coords) // 2

    def image_under(self, m: IntMatrix) -> "CurveClass":
        return CurveClass.from_coords(m.apply(self.coords))


class SymplecticForm(NamedTuple):
    """Standard alternating form on Z^{2g} with <e_i, e_{g+i}> = 1."""

    genus: int

    @property
    def dim(self) -> int:
        return 2 * self.genus

    def pairing(self, x: Sequence[int], y: Sequence[int]) -> int:
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("vector length does not match form genus")
        return sum(map(mul, dual(x), y))


def shear(v: tuple, e: int, x: Sequence[int], y: Sequence[int]) -> tuple:
    """v + e (v . x) y, or v itself when v . x = 0.  The twist T along c
    maps a column v to shear(v, e, dual(c), c), and a row of m to that row
    of m @ T by shear(row, e, c, dual(c))."""
    k = e * sum(map(mul, v, x))
    return tuple(map(add, v, [k * t for t in y])) if k else v


def dual(c: Sequence[int]) -> tuple:
    """The row w with w . x = <c, x>; the one split of a vector into halves."""
    g = len(c) // 2
    return (*map(neg, c[g:]), *c[:g])


def transvection(curve: CurveClass, power: int, form: SymplecticForm) -> IntMatrix:
    """Homology action of the Dehn twist tau_curve^power.

    x |-> x + power * <curve, x> * curve.  At genus 1 this reproduces the
    standard shear matrices tau_a = [[1,1],[0,1]], tau_b = [[1,0],[-1,1]].
    """
    if curve.genus != form.genus:
        raise DimensionMismatch("curve genus does not match form genus")
    c, w = curve.coords, dual(curve.coords)
    return IntMatrix(tuple([shear(row, power, c, w) for row in IntMatrix.identity(form.dim).rows]))


def _column_duals(a: IntMatrix) -> tuple[list, list]:
    """The columns of a and their duals, the rows of a^T J."""
    cols = list(zip(*a.rows))
    return cols, list(map(dual, cols))


def _reverses_form(cols: list, duals: list) -> bool:
    """True iff dual(col_i) . col_j = -1 for j = i + g, else 0, over i < j:
    the matrix of pairings a^T J a is antisymmetric, so these pairs decide it."""
    g = len(cols) // 2
    for i, w in enumerate(duals):
        for j in range(i + 1, 2 * g):
            if sum(map(mul, w, cols[j])) != -(j == i + g):
                return False
    return True


def _duals_symmetric(duals: list) -> bool:
    """dual(col_i)[j] = dual(col_j)[i]: J a = -a^T J = (J a)^T."""
    return duals == list(zip(*duals))


def is_anti_symplectic(a: IntMatrix) -> bool:
    """True iff a reverses the intersection form: <a e_i, a e_j> = -<e_i, e_j>."""
    return _reverses_form(*_column_duals(a))


def is_skew_adjoint(a: IntMatrix) -> bool:
    """True iff a = J a^T J, read on the column duals, the rows of a^T J.  An
    anti-symplectic a has a^-1 = J a^T J, so it is an involution iff this holds."""
    return _duals_symmetric(_column_duals(a)[1])


def is_real_structure(a: IntMatrix) -> bool:
    """True iff a is an anti-symplectic involution; no product is computed,
    and the column duals are taken once for both tests."""
    cols, duals = _column_duals(a)
    return _reverses_form(cols, duals) and _duals_symmetric(duals)
