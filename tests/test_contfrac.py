from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eqsurg.contfrac import (
    BadInput,
    ContFrac,
    Flavor,
    expand,
    honda_count,
    is_palindrome,
)
from eqsurg.matrices import IntMatrix

from conftest import det


def evaluate(cf: ContFrac) -> Fraction:
    """Exact value of the nested expression r_1 - 1/(r_2 - ...)."""
    val = Fraction(cf.terms[-1])
    for r in reversed(cf.terms[:-1]):
        val = r - 1 / val
    return val


def product_matrix(cf: ContFrac) -> IntMatrix:
    """Product of the factors [[r_i, 1], [-1, 0]] over the terms.

    For p/q = [r_1,...,r_n] the result is [[p, q'], [-q, p']] with
    determinant +1, i.e. p*p' + q*q' = 1.
    """
    if cf.flavor is not Flavor.POSITIVE:
        raise BadInput("product matrix is defined for the positive flavor")
    m = IntMatrix.identity(2)
    for r in cf.terms:
        m = m @ IntMatrix.from_rows([[r, 1], [-1, 0]])
    return m


coprime_pairs = st.tuples(
    st.integers(min_value=2, max_value=400), st.integers(min_value=1, max_value=399)
).filter(lambda t: t[1] < t[0] and gcd(t[0], t[1]) == 1)


def test_positive_expansion_known_values():
    assert expand(2, 1, Flavor.POSITIVE).terms == (2,)
    assert expand(5, 4, Flavor.POSITIVE).terms == (2, 2, 2, 2)
    assert expand(8, 3, Flavor.POSITIVE).terms == (3, 3)
    assert expand(7, 5, Flavor.POSITIVE).terms == (2, 2, 3)


def test_negative_expansion_known_values():
    assert expand(3, 1, Flavor.NEGATIVE).terms == (-3,)
    assert expand(4, 3, Flavor.NEGATIVE).terms == (-2, -2, -2)
    assert expand(7, 4, Flavor.NEGATIVE).terms == (-2, -4)


def test_flavor_bounds_enforced():
    # positive terms must be >= 2 and negative terms <= -2, at any position
    for terms, flavor in [
        ((1,), Flavor.POSITIVE),
        ((-1,), Flavor.NEGATIVE),
        ((2, 1, 3), Flavor.POSITIVE),
        ((3, 2, 1), Flavor.POSITIVE),
        ((-2, -1, -3), Flavor.NEGATIVE),
    ]:
        with pytest.raises(BadInput):
            ContFrac(terms, flavor)
    assert ContFrac((2, 2), Flavor.POSITIVE).terms == (2, 2)
    assert ContFrac((-2, -2), Flavor.NEGATIVE).terms == (-2, -2)


def test_bad_pq_rejected():
    with pytest.raises(BadInput):
        expand(1, 2, Flavor.POSITIVE)
    with pytest.raises(BadInput):
        expand(4, 2, Flavor.POSITIVE)


@given(coprime_pairs)
def test_positive_expansion_evaluates_back(pq):
    p, q = pq
    cf = expand(p, q, Flavor.POSITIVE)
    assert evaluate(cf) == Fraction(p, q)
    assert all(t >= 2 for t in cf.terms)


@given(coprime_pairs)
def test_negative_expansion_evaluates_back(pq):
    p, q = pq
    cf = expand(p, q, Flavor.NEGATIVE)
    assert evaluate(cf) == Fraction(-p, q)
    assert all(t <= -2 for t in cf.terms)


@given(coprime_pairs)
def test_product_matrix_encodes_pq(pq):
    p, q = pq
    cf = expand(p, q, Flavor.POSITIVE)
    m = product_matrix(cf)
    assert m.rows[0][0] == p
    assert m.rows[1][0] == -q
    assert det(m) == 1


@given(coprime_pairs)
def test_palindrome_iff_q_squared_is_one(pq):
    p, q = pq
    cf = expand(p, q, Flavor.POSITIVE)
    assert is_palindrome(cf) == ((q * q) % p == 1 % p)


def test_product_matrix_rejects_negative_flavor():
    with pytest.raises(BadInput):
        product_matrix(expand(3, 1, Flavor.NEGATIVE))


def test_honda_count_values():
    assert honda_count(expand(3, 1, Flavor.NEGATIVE)) == 2
    assert honda_count(expand(4, 3, Flavor.NEGATIVE)) == 1
    assert honda_count(expand(7, 4, Flavor.NEGATIVE)) == 3  # |-1| * |-3|


def test_honda_count_rejects_positive_flavor():
    with pytest.raises(BadInput):
        honda_count(expand(3, 2, Flavor.POSITIVE))
