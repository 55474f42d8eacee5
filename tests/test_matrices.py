import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqsurg.matrices import (
    CurveClass,
    DimensionMismatch,
    IntMatrix,
    NotPrimitive,
    NotUnimodular,
    SymplecticForm,
    is_anti_symplectic,
    is_involution,
    transvection,
)
from eqsurg.words import CST, TwistWord, eval_word

from conftest import random_anti_symplectic, random_curve, random_symplectic

entries = st.integers(min_value=-30, max_value=30)


def mat2(rows_strategy=entries):
    return st.lists(
        st.lists(rows_strategy, min_size=2, max_size=2), min_size=2, max_size=2
    ).map(IntMatrix.from_rows)


def test_from_rows_rejects_odd_dimension():
    with pytest.raises(DimensionMismatch):
        IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_from_rows_rejects_ragged():
    with pytest.raises(DimensionMismatch):
        IntMatrix.from_rows([[1, 0], [0]])


@given(mat2(), mat2())
def test_det_multiplicative(a, b):
    assert (a @ b).det() == a.det() * b.det()


@given(mat2())
def test_inverse_roundtrip(a):
    if abs(a.det()) != 1:
        with pytest.raises(NotUnimodular):
            a.inverse()
        return
    assert a @ a.inverse() == IntMatrix.identity(2)
    assert a.inverse() @ a == IntMatrix.identity(2)


@given(mat2(), st.integers(min_value=-4, max_value=4))
def test_power_matches_repeated_product(a, n):
    if abs(a.det()) != 1 and n < 0:
        return
    expected = IntMatrix.identity(2)
    base = a if n >= 0 else a.inverse()
    for _ in range(abs(n)):
        expected = expected @ base
    assert a**n == expected


def test_bareiss_det_exact_large_entries():
    # entries big enough that float det would be wrong
    big = 10**20
    a = IntMatrix.from_rows([[big, big - 1], [big + 1, big]])
    assert a.det() == big * big - (big - 1) * (big + 1)


def test_curve_class_primitivity():
    with pytest.raises(NotPrimitive):
        CurveClass.of(2, 4)
    assert CurveClass.of(-1, 0) == CurveClass.of(1, 0)  # sign-normalized


def test_pairing_genus1():
    form = SymplecticForm(1)
    assert form.pairing((1, 0), (0, 1)) == 1
    assert form.pairing((0, 1), (1, 0)) == -1
    assert form.pairing((1, 1), (1, 1)) == 0


def test_transvection_standard_matrices():
    form = SymplecticForm(1)
    assert transvection(CurveClass.of(1, 0), 1, form) == IntMatrix.from_rows(
        [[1, 1], [0, 1]]
    )
    assert transvection(CurveClass.of(0, 1), 1, form) == IntMatrix.from_rows(
        [[1, 0], [-1, 1]]
    )
    assert transvection(CurveClass.of(1, 1), 1, form) == IntMatrix.from_rows(
        [[0, 1], [-1, 2]]
    )
    assert transvection(CurveClass.of(1, -1), 1, form) == IntMatrix.from_rows(
        [[2, 1], [-1, 0]]
    )


@given(
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-6, max_value=6),
)
def test_transvection_is_power_of_single_twist(m, n, k):
    if (m, n) == (0, 0):
        return
    from math import gcd

    if gcd(abs(m), abs(n)) != 1:
        return
    form = SymplecticForm(1)
    c = CurveClass.of(m, n)
    assert transvection(c, k, form) == transvection(c, 1, form) ** k


@given(st.integers(min_value=0, max_value=10**6))
def test_random_symplectic_preserves_form(seed):
    rng = random.Random(seed)
    g = rng.randint(1, 3)
    m = random_symplectic(g, rng)
    j = SymplecticForm(g).matrix()
    assert m.transpose() @ j @ m == j


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=50)
def test_random_anti_symplectic_properties(seed):
    rng = random.Random(seed)
    g = rng.randint(1, 3)
    s = random_anti_symplectic(g, rng)
    assert is_involution(s)
    assert is_anti_symplectic(s)
    assert s.det() == (-1) ** g


def test_transvection_fixes_its_curve():
    form = SymplecticForm(2)
    c = CurveClass.from_coords([1, 2, 0, 3])
    t = transvection(c, 5, form)
    assert c.image_under(t) == c


def _twist_reference(c: CurveClass, k: int) -> IntMatrix:
    """x |-> x + k <c, x> c, built column by column from the pairing."""
    form = SymplecticForm(c.genus)
    n = form.dim
    cols = []
    for j in range(n):
        e = [int(i == j) for i in range(n)]
        t = k * form.pairing(c.coords, e)
        cols.append([x + t * y for x, y in zip(e, c.coords)])
    return IntMatrix.from_rows(zip(*cols))


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=-6, max_value=6))
@settings(max_examples=60)
def test_twist_matches_reference_product(seed, k):
    rng = random.Random(seed)
    g = rng.randint(1, 3)
    m = random_symplectic(g, rng)
    c = random_curve(g, rng)
    assert m.twist(c, k) == m @ _twist_reference(c, k)

    nonzero = [e for e in range(-6, 7) if e]
    factors = [
        (random_curve(g, rng), rng.choice(nonzero)) for _ in range(rng.randint(0, 5))
    ]
    base = random_anti_symplectic(g, rng)
    expected = IntMatrix.identity(2 * g)
    for curve, e in factors:
        expected = expected @ _twist_reference(curve, e)
    assert eval_word(TwistWord.of(factors, base=base, genus=g)) == expected @ base


def test_twist_rejects_genus_mismatch():
    with pytest.raises(DimensionMismatch):
        IntMatrix.identity(4).twist(CurveClass.of(1, 0), 1)


genus1_curves = (
    st.tuples(st.integers(-50, 50), st.integers(-50, 50))
    .filter(lambda v: gcd(*v) == 1)
    .map(lambda v: CurveClass.of(*v))
)
big_exponents = st.integers(-10**6, 10**6).filter(lambda k: k != 0)


@given(
    st.lists(st.tuples(genus1_curves, big_exponents), max_size=60),
    st.sampled_from([None, CST]),
)
@settings(max_examples=100, deadline=None)
def test_genus1_eval_matches_generic_twist(factors, base):
    # eval_word works on four integers at genus 1; IntMatrix.twist is the reference
    expected = IntMatrix.identity(2)
    for curve, k in factors:
        expected = expected.twist(curve, k)
    if base is not None:
        expected = expected @ base
    assert eval_word(TwistWord.of(factors, base=base)) == expected
