"""Continued fractions of the two flavors used by the surgery calculus.

Positive flavor: p/q = [r_1,...,r_n] with every r_i >= 2, expanded by
ceiling division.  Negative flavor: the analogous expansion of -p/q with
every r_i <= -2.  Both use the nested expression r_1 - 1/(r_2 - ...).
A run of terms 2 (or -2) is found in one step: it has q // (p - q)
terms, a quotient of Euclid's algorithm on (q, p - q).  An expansion is
held as its runs of equal terms, so p/(p - 1) = [2, ..., 2] is one run
however large p is.  `ContFrac` is a tuple (see `eqsurg.matrices`)
whose `len` is its term count.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from itertools import chain, repeat
from typing import Iterator


class Flavor(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


class BadInput(ValueError):
    pass


class ContFrac(namedtuple("ContFrac", "runs flavor")):
    """The terms as maximal runs (term, count) of equal terms, in order;
    `terms` is the flat view, built on each read.

    `len` is the number of terms, not of fields, so `_make` and `_replace`,
    which check the field count by `len`, raise TypeError here.
    """

    __slots__ = ()

    def __new__(cls, runs: tuple[tuple[int, int], ...], flavor: Flavor) -> "ContFrac":
        self = tuple.__new__(cls, (runs, flavor))
        if not runs:
            raise BadInput("continued fraction needs at least one term")
        positive, previous = flavor is Flavor.POSITIVE, None
        for r, k in runs:
            if k < 1 or r == previous:
                raise BadInput(f"runs must be maximal, with counts >= 1, got {runs}")
            if positive and r < 2:
                raise BadInput(f"positive flavor requires all terms >= 2, got {self.terms}")
            if not positive and r > -2:
                raise BadInput(f"negative flavor requires all terms <= -2, got {self.terms}")
            previous = r
        return self

    @property
    def terms(self) -> tuple[int, ...]:
        return tuple(chain.from_iterable(repeat(r, k) for r, k in self.runs))

    def __len__(self) -> int:
        return sum([k for _, k in self.runs])


def check_pq(p: int, q: int) -> None:
    """Raise BadInput unless p > q > 0 and gcd(p, q) = 1."""
    if not (p > q > 0):
        raise BadInput(f"need p > q > 0, got p={p}, q={q}")
    if math.gcd(p, q) != 1:
        raise BadInput(f"p={p} and q={q} are not coprime")


def runs(p: int, q: int, flavor: Flavor = Flavor.POSITIVE) -> Iterator[tuple[int, int]]:
    """The terms of `expand(p, q, flavor)` as maximal runs (term, count),
    in order.  A bad (p, q) raises BadInput before anything is yielded.
    """
    check_pq(p, q)
    sign = 1 if flavor is Flavor.POSITIVE else -1
    # -p/q = [-r_1, ..., -r_n] when p/q = [r_1, ..., r_n], so both flavors
    # run the ceiling expansion of p/q: r = ceil(p/q), then recurse on the
    # reciprocal remainder q/(r*q - p).
    while True:
        d = p - q
        if d <= q:
            # a run of 2s: (p, q) -> (q, q - d) keeps d = p - q, so the
            # run has q // d terms; it ends the expansion when d = 1
            k = q // d
            yield 2 * sign, k
            if d == 1:
                return
            q %= d
            p = q + d
        else:
            # terms r = ceil(p/q) >= 3, each taking (p, q) to (q, r*q - p)
            r, k = -(-p // q), 0
            while q and -(-p // q) == r:
                p, q = q, r * q - p
                k += 1
            yield r * sign, k
            if not q:
                return


def expand(p: int, q: int, flavor: Flavor = Flavor.POSITIVE) -> ContFrac:
    """Expand p/q (positive flavor) or -p/q (negative flavor)."""
    return ContFrac(tuple(runs(p, q, flavor)), flavor)


def is_palindrome(cf: ContFrac) -> bool:
    return cf.runs == cf.runs[::-1]  # maximal runs: one sequence of runs per terms


def honda_count(cf: ContFrac) -> int:
    """|(r_1 + 1) ... (r_n + 1)|: the tight-structure count for a chain."""
    if cf.flavor is not Flavor.NEGATIVE:
        raise BadInput("the tight-structure count uses the negative flavor")
    prod = 1
    for r, k in cf.runs:
        prod *= (r + 1) ** k
    return abs(prod)
