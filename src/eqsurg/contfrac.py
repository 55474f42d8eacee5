"""Continued fractions of the two flavors used by the surgery calculus.

Positive flavor: p/q = [r_1,...,r_n] with every r_i >= 2, expanded by
ceiling division.  Negative flavor: the analogous expansion of -p/q with
every r_i <= -2.  Both use the nested expression r_1 - 1/(r_2 - ...).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


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


def _check_pq(p: int, q: int) -> None:
    if not (p > q > 0):
        raise BadInput(f"need p > q > 0, got p={p}, q={q}")
    if math.gcd(p, q) != 1:
        raise BadInput(f"p={p} and q={q} are not coprime")


def expand(p: int, q: int, flavor: Flavor = Flavor.POSITIVE) -> ContFrac:
    """Expand p/q (positive flavor) or -p/q (negative flavor)."""
    _check_pq(p, q)
    terms = []
    if flavor is Flavor.POSITIVE:
        # r = ceil(p/q), then recurse on the reciprocal remainder.
        while True:
            r = -(-p // q)
            terms.append(r)
            rem = r * q - p
            if rem == 0:
                break
            p, q = q, rem
    else:
        # value v = -p/q; choose the unique r <= -2 with v - 1 < r <= v.
        while True:
            r = -((p + q - 1) // q)  # floor(-p/q)
            if r * q == -p:
                terms.append(r)
                break
            terms.append(r)
            # -p/q = r - 1/x  =>  x = q / (r*q + p), rewritten as -p2/q2
            p, q = q, -(r * q + p)
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
