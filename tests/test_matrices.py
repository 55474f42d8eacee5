import random
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqsurg.matrices import (
    CurveClass,
    DimensionMismatch,
    IntMatrix,
    NotPrimitive,
    SymplecticForm,
    dual,
    is_anti_symplectic,
    is_skew_adjoint,
    shear,
    transvection,
)
from eqsurg.words import CST, MAT_A, TwistWord, WordError, _check_real_structure, eval_word

from conftest import (
    det,
    form_matrix,
    identity_rows,
    mat_pow,
    matmul_reference,
    primitive,
    random_anti_symplectic,
    random_curve,
    random_symplectic,
    real_structure_reference,
    swap_involution,
    transpose,
)

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


@pytest.mark.parametrize("dim", [0, 3])
def test_identity_rejects_zero_or_odd_dimension(dim):
    with pytest.raises(DimensionMismatch):
        IntMatrix.identity(dim)


huge = st.integers(min_value=-(2**80), max_value=2**80)


@st.composite
def kernel_inputs(draw):
    """A matrix, a vector and a primitive curve at genus 1-3, entries up to 2**80."""
    g = draw(st.integers(1, 3))
    n = 2 * g
    rows = draw(st.lists(st.lists(huge, min_size=n, max_size=n), min_size=n, max_size=n))
    other = draw(st.lists(st.lists(huge, min_size=n, max_size=n), min_size=n, max_size=n))
    vec = draw(st.lists(huge, min_size=n, max_size=n))
    coords = draw(st.lists(huge, min_size=n, max_size=n).filter(any))
    power = draw(huge)
    return IntMatrix.from_rows(rows), IntMatrix.from_rows(other), vec, primitive(coords), power


def _column(vec) -> IntMatrix:
    """The matrix whose first column is vec and whose other entries are 0."""
    return IntMatrix(tuple((x,) + (0,) * (len(vec) - 1) for x in vec))


def _row(vec) -> IntMatrix:
    """The matrix whose first row is vec and whose other entries are 0."""
    return IntMatrix((tuple(vec),) + ((0,) * len(vec),) * (len(vec) - 1))


_BIG = IntMatrix.from_rows(
    [[(-1) ** (i + j) * (2**80 - 7 * i - j) for j in range(4)] for i in range(4)]
)


@given(kernel_inputs())
@settings(max_examples=100, deadline=None)
@example((_BIG, -_BIG, [2**80, -(2**80), 1, 2**79], CurveClass.of(2**80, 2**80 - 1, -3, 5),
          -(2**80)))
def test_kernels_match_reference_product(inputs):
    a, b, vec, curve, power = inputs
    n, g = a.dim, a.genus
    assert a @ b == matmul_reference(a, b)
    assert a.apply(vec) == tuple(row[0] for row in matmul_reference(a, _column(vec)).rows)
    j = form_matrix(g)
    x, y = vec, curve.coords
    assert SymplecticForm(g).pairing(x, y) == (
        matmul_reference(_row(x), matmul_reference(j, _column(y))).rows[0][0]
    )
    # T = I + power * c w^T, column k being e_k + power * <c, e_k> * c
    pairing_with_c = matmul_reference(_row(y), j).rows[0]
    t = IntMatrix(tuple(
        tuple(int(i == k) + power * pairing_with_c[k] * y[i] for k in range(n))
        for i in range(n)
    ))
    assert transvection(curve, power, SymplecticForm(g)) == t
    # the kernel on the rows of a, rows with row . c = 0 among them
    assert tuple(shear(row, power, y, dual(y)) for row in a.rows) == matmul_reference(a, t).rows
    assert IntMatrix.identity(n).rows == identity_rows(n)
    assert matmul_reference(IntMatrix.identity(n), a) == a


@given(mat2(), mat2())
def test_det_multiplicative(a, b):
    assert det(a @ b) == det(a) * det(b)


@given(mat2(), st.integers(min_value=0, max_value=4))
def test_power_matches_repeated_product(a, n):
    expected = IntMatrix.identity(2)
    for _ in range(n):
        expected = expected @ a
    assert mat_pow(a, n) == expected


@given(mat2(), st.integers(min_value=-10**6, max_value=-1))
def test_negative_power_raises(a, n):
    # without the check, squaring would never stop: -1 >> 1 == -1
    with pytest.raises(ValueError):
        mat_pow(a, n)


def test_bareiss_det_exact_large_entries():
    # entries big enough that float det would be wrong
    big = 10**20
    a = IntMatrix.from_rows([[big, big - 1], [big + 1, big]])
    assert det(a) == big * big - (big - 1) * (big + 1)


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
    if k >= 0:
        assert transvection(c, k, form) == mat_pow(transvection(c, 1, form), k)
    else:
        assert transvection(c, k, form) == mat_pow(transvection(c, -1, form), -k)


@given(st.integers(min_value=0, max_value=10**6))
def test_random_symplectic_preserves_form(seed):
    rng = random.Random(seed)
    g = rng.randint(1, 3)
    m = random_symplectic(g, rng)
    j = form_matrix(g)
    assert matmul_reference(matmul_reference(transpose(m), j), m) == j


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=50)
def test_random_anti_symplectic_properties(seed):
    rng = random.Random(seed)
    g = rng.randint(1, 3)
    s = random_anti_symplectic(g, rng)
    assert real_structure_reference(s) == (True, True)
    assert is_anti_symplectic(s) and is_skew_adjoint(s)
    assert det(s) == (-1) ** g


def _accepted_as_base(a: IntMatrix) -> bool:
    """Whether the words layer takes `a` as a real structure (the check that
    `validate_recursive_invariance` and `factor_palindrome` run, at every genus)."""
    try:
        _check_real_structure(a, a.genus)
    except WordError:
        return False
    return True


def _assert_checks_match_formulas(a: IntMatrix) -> None:
    # the checks against their matrix formulas, by the reference product
    involution, anti_symplectic = reference = real_structure_reference(a)
    assert is_anti_symplectic(a) == anti_symplectic
    if anti_symplectic:  # where skew-adjoint means an involution
        assert is_skew_adjoint(a) == involution
    assert _accepted_as_base(a) == all(reference)


@pytest.mark.parametrize("rows, accepted", [
    ([[1, 0], [0, 1]], False),  # an involution with det +1
    ([[-1, 0], [0, -1]], False),  # an involution with det +1
    (MAT_A.rows, False),  # trace 0, det +1: A^2 = -I
    ([[2, 1], [1, 0]], False),  # det -1, trace 2: anti-symplectic, not an involution
    ([[1, 1], [0, -1]], True),  # det -1, trace 0: a real structure
])
def test_genus1_real_structure_by_det_and_trace(rows, accepted):
    # MAT_A meets only tr = 0 and [[2, 1], [1, 0]] only det = -1, so a
    # check that drops either condition accepts one of them
    a = IntMatrix.from_rows(rows)
    _assert_checks_match_formulas(a)
    assert _accepted_as_base(a) is accepted


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(["real", "negated", "perturbed", "symplectic"]),
)
@settings(max_examples=200, deadline=None)
def test_real_structure_checks_match_matrix_formulas(g, seed, kind):
    rng = random.Random(seed)
    s = random_anti_symplectic(g, rng)
    if kind == "real":
        a = s
    elif kind == "negated":
        a = -s
    elif kind == "perturbed":
        rows = s.to_lists()
        rows[rng.randrange(2 * g)][rng.randrange(2 * g)] += rng.choice([-2, -1, 1, 2])
        a = IntMatrix.from_rows(rows)
    else:
        a = random_symplectic(g, rng)
    _assert_checks_match_formulas(a)
    if kind in ("real", "negated"):
        assert _accepted_as_base(a)
    if kind == "symplectic":
        assert not is_anti_symplectic(a)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_real_structure_checks_on_perturbed_swap(g):
    # adding d at entry (r, k), r != k, of the block swap breaks the pairing
    # of columns k and r alone, so a check that skips any pair is caught
    for r in range(2 * g):
        for k in range(2 * g):
            for d in (-1, 1, 2):
                rows = swap_involution(g).to_lists()
                rows[r][k] += d
                _assert_checks_match_formulas(IntMatrix.from_rows(rows))


@given(st.integers(min_value=0, max_value=10**6))
def test_curve_class_value_semantics(seed):
    rng = random.Random(seed)
    g = rng.randint(1, 3)
    v = [rng.randint(-9, 9) for _ in range(2 * g)]
    w = [rng.randint(-9, 9) for _ in range(2 * g)]
    if not any(v) or not any(w):
        return
    u = [x // gcd(*v) for x in v]
    c, neg = CurveClass.from_coords(u), CurveClass.from_coords([-x for x in u])
    assert neg == c and hash(neg) == hash(c) == hash((c.coords,))
    assert {c: "c"}[neg] == "c"
    other = CurveClass.from_coords([x // gcd(*w) for x in w])
    if other.coords != c.coords:
        assert other != c and other not in {c: "c"}
    assert c != CurveClass.from_coords(c.coords + (0, 0))  # other genus
    with pytest.raises(AttributeError):
        c.coords = other.coords


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
    assert transvection(c, k, SymplecticForm(g)) == _twist_reference(c, k)

    nonzero = [e for e in range(-6, 7) if e]
    factors = [
        (random_curve(g, rng), rng.choice(nonzero)) for _ in range(rng.randint(0, 5))
    ]
    # a word carries the base CST at genus 1 and no base above it
    cst = g == 1
    expected = IntMatrix.identity(2 * g)
    for curve, e in factors:
        expected = expected @ _twist_reference(curve, e)
    if cst:
        expected = expected @ CST
    assert eval_word(TwistWord.of(factors, cst=cst, genus=g)) == expected


def test_twist_rejects_genus_mismatch():
    with pytest.raises(DimensionMismatch):
        transvection(CurveClass.of(1, 0), 1, SymplecticForm(2))
    with pytest.raises(DimensionMismatch):
        transvection(CurveClass.of(1, 0, 0, 0), 1, SymplecticForm(1))


genus1_curves = (
    st.tuples(st.integers(-50, 50), st.integers(-50, 50))
    .filter(lambda v: gcd(*v) == 1)
    .map(lambda v: CurveClass.of(*v))
)
big_exponents = st.integers(-10**6, 10**6).filter(lambda k: k != 0)


def _genus1_real_structures(a: int) -> st.SearchStrategy:
    """Genus-1 real structures [[a, b], [c, -a]], a^2 + bc = 1 (det -1,
    trace 0), with a nonzero off-diagonal entry of size at most 60."""
    n = 1 - a * a

    def real_structure(b: int, transposed: bool) -> IntMatrix:
        rows = [[a, b], [n // b, -a]]
        return IntMatrix.from_rows(zip(*rows) if transposed else rows)

    divisors = [b for b in range(-60, 61) if b and n % b == 0]
    return st.builds(real_structure, st.sampled_from(divisors), st.booleans())


@given(st.integers(-8, 8).flatmap(_genus1_real_structures))
@example(IntMatrix.from_rows([[1, 5], [0, -1]]))
@example(IntMatrix.from_rows([[2, -3], [1, -2]]))
@settings(max_examples=100, deadline=None)
def test_genus1_real_structures_pass_the_general_check(s):
    # the one real-structure check, with no genus-1 branch, on the
    # generated genus-1 real structures
    _assert_checks_match_formulas(s)
    assert _accepted_as_base(s)


@given(
    st.lists(st.tuples(genus1_curves, big_exponents), max_size=60),
    st.booleans(),
)
@example([(CurveClass.of(1, 2), 3)], True)
@example([(CurveClass.of(2, -1), -2)], False)
@settings(max_examples=150, deadline=None)
def test_genus1_eval_matches_generic_twist(factors, cst):
    # eval_word works on four integers at genus 1 and multiplies by CST as
    # a column swap; transvection and the reference product are the reference
    form = SymplecticForm(1)
    expected = IntMatrix.identity(2)
    for curve, k in factors:
        expected = matmul_reference(expected, transvection(curve, k, form))
    if cst:
        assert real_structure_reference(CST) == (True, True)
        expected = matmul_reference(expected, CST)
    assert eval_word(TwistWord.of(factors, cst=cst)) == expected
