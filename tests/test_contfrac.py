from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqsurg.contfrac import (
    BadInput,
    ContFrac,
    Flavor,
    expand,
    honda_count,
    is_palindrome,
    runs,
)
from eqsurg.matrices import IntMatrix

from conftest import det, mat_pow


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


def expand_reference(p: int, q: int, flavor: Flavor) -> tuple[int, ...]:
    """The expansion by one ceiling division per term: the oracle for
    `expand`, which adds a run of 2s (or -2s) in one step."""
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
    return tuple(terms)


def runs_value(chain) -> IntMatrix:
    """Product of [[r, 1], [-1, 0]]^k over the runs (r, k): its first
    column (u, -v) has u/v equal to the value of the runs' terms."""
    m = IntMatrix.identity(2)
    for r, k in chain:
        m = m @ mat_pow(IntMatrix.from_rows([[r, 1], [-1, 0]]), k)
    return m


def check_expansion(p: int, q: int, flavor: Flavor) -> None:
    """`runs` and `expand` against the oracle; past 10**5 terms, where the
    oracle takes too long, the runs are checked by their value and term
    bound instead, which fix the expansion."""
    chain = list(runs(p, q, flavor))
    assert all(k >= 1 for _, k in chain)
    # a run of 2s (or -2s) is added in one step, so it is never split
    assert all(a[0] != b[0] or abs(a[0]) != 2 for a, b in zip(chain, chain[1:]))
    if sum(k for _, k in chain) <= 10**5:
        terms = expand_reference(p, q, flavor)
        assert expand(p, q, flavor).terms == terms
        assert tuple(r for r, k in chain for _ in range(k)) == terms
    else:
        sign = 1 if flavor is Flavor.POSITIVE else -1
        assert all(sign * r >= 2 for r, _ in chain)
        m = runs_value(chain)
        assert Fraction(m.rows[0][0], -m.rows[1][0]) == Fraction(sign * p, q)


def test_expand_matches_reference_up_to_400():
    for p in range(2, 401):
        for q in range(1, p):
            if gcd(p, q) == 1:
                for flavor in Flavor:
                    assert expand(p, q, flavor).terms == expand_reference(p, q, flavor)


def test_expand_bad_pq_raises_before_any_run():
    for p, q in [(1, 2), (4, 2), (3, 0)]:
        with pytest.raises(BadInput):
            next(runs(p, q, Flavor.NEGATIVE))


# Several runs: a run of 2s, one larger term, another run of 2s, ...
several_runs = st.lists(
    st.tuples(st.integers(1, 10**4), st.integers(3, 10**6)), min_size=1, max_size=3
).map(lambda parts: [t for k, r in parts for t in ((2, k), (r, 1))] + [(2, 7)])


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(2, 10**5), st.integers(2, 10**30)),
       st.integers(1, 10**30), several_runs)
@example(10**30, 1, [(2, 10**4), (10**6, 1), (2, 1)])
@example(2, 1, [(3, 1)])
def test_expand_matches_reference_large(p, q, chain):
    m = runs_value(chain)
    built_p, built_q = m.rows[0][0], -m.rows[1][0]
    pairs = [(p, p - 1), (p + 1, 1), (built_p, built_q)]
    if 1 <= q % p and gcd(p, q % p) == 1:
        pairs.append((p, q % p))
    for pp, qq in pairs:
        if pp > qq:
            for flavor in Flavor:
                check_expansion(pp, qq, flavor)
    assert list(runs(p + 1, p)) == [(2, p)]
    assert list(runs(built_p, built_q)) == chain


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
    # positive terms must be >= 2 and negative terms <= -2, at any position;
    # the terms are given as runs (term, count)
    for runs, flavor in [
        (((1, 1),), Flavor.POSITIVE),
        (((-1, 1),), Flavor.NEGATIVE),
        (((2, 1), (1, 1), (3, 1)), Flavor.POSITIVE),
        (((3, 1), (2, 1), (1, 1)), Flavor.POSITIVE),
        (((-2, 1), (-1, 1), (-3, 1)), Flavor.NEGATIVE),
    ]:
        with pytest.raises(BadInput):
            ContFrac(runs, flavor)
    assert ContFrac(((2, 2),), Flavor.POSITIVE).terms == (2, 2)
    assert ContFrac(((-2, 2),), Flavor.NEGATIVE).terms == (-2, -2)


@pytest.mark.parametrize("runs", [((2, 1), (2, 1)), ((3, 2), (2, 0)), ((2, 0),), ()],
                         ids=["not-maximal", "zero-count", "only-zero-count", "empty"])
def test_runs_must_be_maximal_with_positive_counts(runs):
    # one sequence of runs per expansion: equality and `is_palindrome`
    # compare runs
    with pytest.raises(BadInput):
        ContFrac(runs, Flavor.POSITIVE)


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
