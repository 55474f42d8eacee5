"""Continued fractions of the two flavors used by the surgery calculus.

Positive flavor: p/q = [r_1,...,r_n] with every r_i >= 2, expanded by
ceiling division.  Negative flavor: the analogous expansion of -p/q with
every r_i <= -2.  Both use the nested expression r_1 - 1/(r_2 - ...).
A run of terms 2 (or -2) is found in one step: it has q // (p - q)
terms, a quotient of Euclid's algorithm on (q, p - q).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator


class Flavor(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


class BadInput(ValueError):
    pass


@dataclass(frozen=True)
class ContFrac:
    terms: tuple[int, ...]
    flavor: Flavor

    def __post_init__(self):
        if not self.terms:
            raise BadInput("continued fraction needs at least one term")
        if self.flavor is Flavor.POSITIVE and min(self.terms) < 2:
            raise BadInput(f"positive flavor requires all terms >= 2, got {self.terms}")
        if self.flavor is Flavor.NEGATIVE and max(self.terms) > -2:
            raise BadInput(f"negative flavor requires all terms <= -2, got {self.terms}")

    def __len__(self) -> int:
        return len(self.terms)


def check_pq(p: int, q: int) -> None:
    """Raise BadInput unless p > q > 0 and gcd(p, q) = 1."""
    if not (p > q > 0):
        raise BadInput(f"need p > q > 0, got p={p}, q={q}")
    if math.gcd(p, q) != 1:
        raise BadInput(f"p={p} and q={q} are not coprime")


def runs(p: int, q: int, flavor: Flavor = Flavor.POSITIVE) -> Iterator[tuple[int, int]]:
    """The terms of `expand(p, q, flavor)` as runs (term, count), in order.

    A run of 2s (or -2s) is a maximal one; any other term is a run of
    its own.  A bad (p, q) raises BadInput before anything is yielded.
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
            r = -(-p // q)
            yield r * sign, 1
            rem = r * q - p
            if rem == 0:
                return
            p, q = q, rem


def expand(p: int, q: int, flavor: Flavor = Flavor.POSITIVE) -> ContFrac:
    """Expand p/q (positive flavor) or -p/q (negative flavor)."""
    terms = []
    for r, k in runs(p, q, flavor):
        terms += [r] * k
    return ContFrac(tuple(terms), flavor)


def is_palindrome(cf: ContFrac) -> bool:
    return cf.terms == cf.terms[::-1]


def honda_count(cf: ContFrac) -> int:
    """|(r_1 + 1) ... (r_n + 1)|: the tight-structure count for a chain."""
    if cf.flavor is not Flavor.NEGATIVE:
        raise BadInput("the tight-structure count uses the negative flavor")
    prod = 1
    for r in cf.terms:
        prod *= r + 1
    return abs(prod)
