import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqsurg.matrices import CurveClass, IntMatrix, SymplecticForm, transvection
from eqsurg.surgery import word_to_diagram
from eqsurg.words import (
    CST,
    CURVE_A,
    CURVE_AMB,
    CURVE_APB,
    CURVE_B,
    MAT_A,
    ShapeError,
    TwistWord,
    WordError,
    apply_fix_rule,
    eval_word,
    factor_palindrome,
    find_fix_rule,
    format_word,
    parse_word,
    validate_equivariant_shape,
    validate_recursive_invariance,
    verify_relations,
)

from conftest import primitive, random_anti_symplectic, random_invariant_curve


def tw(*factors, base=None):
    return TwistWord.of(list(factors), base=base)


def test_eval_applies_rightmost_first():
    # written a^1 b^1: matrix product tau_a @ tau_b
    w = tw((CURVE_A, 1), (CURVE_B, 1))
    form = SymplecticForm(1)
    expected = transvection(CURVE_A, 1, form) @ transvection(CURVE_B, 1, form)
    assert eval_word(w) == expected


def test_base_is_rightmost_factor():
    w = tw((CURVE_AMB, -1), base=CST)
    assert eval_word(w) == IntMatrix.from_rows([[-1, 0], [2, 1]])


def test_base_must_be_anti_symplectic_involution():
    with pytest.raises(WordError):
        TwistWord.of([(CURVE_A, 1)], base=IntMatrix.from_rows([[1, 1], [0, 1]]))


def test_zero_exponent_rejected():
    with pytest.raises(WordError):
        tw((CURVE_A, 0))


def test_parse_format_roundtrip():
    text = "b^2 a^2 b^2 a^2 | cst"
    assert format_word(parse_word(text)) == text
    text2 = "a^-1 (a+b)^1 b^-1 | cst"
    assert format_word(parse_word(text2)) == text2


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_parse_format_roundtrip_random(data):
    genus = data.draw(st.integers(min_value=1, max_value=3))
    coords = st.lists(st.integers(-3, 3), min_size=2 * genus, max_size=2 * genus)
    factors = data.draw(
        st.lists(
            st.tuples(coords.filter(any).map(primitive), st.integers(-4, 4).filter(bool)),
            max_size=6,
        )
    )
    other = random_anti_symplectic(genus, random.Random(data.draw(st.integers(0, 10**6))))
    base = data.draw(st.sampled_from([None, other] + ([CST] if genus == 1 else [])))
    w = TwistWord.of(factors, base=base, genus=genus)
    assert parse_word(format_word(w), genus=genus, base_matrix=other) == w


def test_parse_vector_curves():
    w = parse_word("v[1,0,2,-1]^3", genus=2)
    assert w.factors == ((CurveClass.from_coords([1, 0, 2, -1]), 3),)


def test_parse_rejects_garbage():
    with pytest.raises(WordError):
        parse_word("a^x")
    with pytest.raises(WordError):
        parse_word("q^2")
    with pytest.raises(WordError):
        parse_word("a | nonsense")


def test_relation_suite_all_pass():
    report = verify_relations(max_exp=10)
    assert report and all(r["ok"] for r in report)


def test_known_relation_matrices():
    assert MAT_A @ MAT_A == -IntMatrix.identity(2)
    x3 = IntMatrix.from_rows([[0, -1], [1, 3]])
    form = SymplecticForm(1)
    assert MAT_A @ transvection(CURVE_A, 3, form) == x3


# --- equivariant shape -----------------------------------------------------


def test_shape_fully_mirrored():
    w = parse_word("b^2 a^2 b^2 a^2 | cst")
    shape = validate_equivariant_shape(w)
    assert shape.middle == ()
    assert [c.coords for c, _ in shape.outer] == [(0, 1), (1, 0)]
    assert [c.coords for c in shape.mirror] == [(1, 0), (0, 1)]


def test_shape_with_invariant_middle():
    w = parse_word("a^-1 (a+b)^3 b^-1 | cst")
    shape = validate_equivariant_shape(w)
    assert len(shape.outer) == 1
    # the middle keeps the run (a+b)^3; the diagram makes it one knot with
    # count 3, printed as three
    assert shape.middle == ((CURVE_APB, 3),)
    d = word_to_diagram(shape)
    (knot,) = d.invariant_knots()
    assert (knot.level, knot.coeff, knot.count) == (0, 1, 3)
    assert [k["level"] for k in d.to_json_dict()["knots"]] == [-1, 1, 0, 0, 0]


def test_shape_requires_base():
    with pytest.raises(ShapeError):
        validate_equivariant_shape(parse_word("a^1 b^1"))


def test_shape_rejects_unmirrored_exponent():
    with pytest.raises(ShapeError):
        validate_equivariant_shape(parse_word("a^2 b^3 | cst"))


def test_shape_rejects_non_invariant_middle():
    with pytest.raises(ShapeError):
        validate_equivariant_shape(parse_word("a^1 | cst"))


def test_shape_rejects_crossing_middles():
    # a+b and a-b are both cst-invariant but intersect
    with pytest.raises(ShapeError):
        validate_equivariant_shape(parse_word("(a+b)^1 (a-b)^1 | cst"))


def test_shape_backtracks_over_greedy_pairing():
    # (a+b) is self-mirrored, so greedy pairing could eat the outer pair
    # and leave an invalid middle; the validator must still accept.
    w = parse_word("(a+b)^1 (a+b)^1 | cst")
    shape = validate_equivariant_shape(w)
    assert eval_word(w) == eval_word(w)  # smoke: evaluation is stable
    assert len(shape.outer) * 2 + len(shape.middle) == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_shape_mutation_is_detected(seed):
    """Perturbing one factor of a mirrored word must change the matrix or
    break the shape: silent acceptance with the same verdictdata would be
    a validator hole."""
    rng = random.Random(seed)
    from eqsurg.lens import admissible_pairs, factor_C

    p, q = rng.choice(admissible_pairs(40))
    w = factor_C(p, q)
    original = eval_word(w)
    idx = rng.randrange(len(w.factors))
    curve, e = w.factors[idx]
    delta = rng.choice([-1, 1])
    if e + delta == 0:
        delta = -1 if e < 0 else 1
    mutated = TwistWord(
        w.factors[:idx]
        + ((curve, e + delta),)
        + w.factors[idx + 1 :],
        w.base,
        w.genus,
    )
    changed = eval_word(mutated) != original
    try:
        validate_equivariant_shape(mutated)
        shape_ok = True
    except ShapeError:
        shape_ok = False
    assert changed or not shape_ok


# --- recursive invariance ----------------------------------------------------


def test_recursive_invariance_accepts_invariant_single():
    w = tw((CURVE_APB, 2))
    assert validate_recursive_invariance(w, CST)["all_ok"]


def _genus2_swap_pair(exp_first, exp_second):
    """A swapped pair of disjoint genus-2 curves under the block swap:
    e1+f2 maps to f1+e2 and the two have zero pairing."""
    from conftest import swap_involution

    s = swap_involution(2)
    gamma = CurveClass.from_coords([1, 0, 0, 1])
    image = gamma.image_under(s)
    w = TwistWord.of([(image, exp_second), (gamma, exp_first)], genus=2)
    return w, s


def test_recursive_invariance_accepts_swapped_disjoint_pair():
    w, s = _genus2_swap_pair(2, 2)
    report = validate_recursive_invariance(w, s)
    assert report["all_ok"]
    assert {e["condition"] for e in report["factors"]} == {"ii"}


def test_recursive_invariance_rejects_intersecting_swap():
    # cst swaps a and b, but they intersect: condition (ii) needs disjointness
    w = tw((CURVE_B, -1), (CURVE_A, -1))
    assert not validate_recursive_invariance(w, CST)["all_ok"]


def test_recursive_invariance_rejects_lone_swap():
    w = tw((CURVE_A, 1))
    assert not validate_recursive_invariance(w, CST)["all_ok"]


def test_recursive_invariance_rejects_mismatched_pair_exponents():
    w, s = _genus2_swap_pair(1, -1)
    assert not validate_recursive_invariance(w, s)["all_ok"]


def test_recursive_invariance_rejects_genus_mismatch():
    with pytest.raises(WordError):
        validate_recursive_invariance(parse_word("v[1,0,1,0]", genus=2), CST)


# --- palindrome factorization ------------------------------------------------


def test_factor_palindrome_matches_palindrome_product_genus1():
    curves = [CURVE_APB, CURVE_AMB]
    exps = [2, -1]
    out = factor_palindrome(curves, exps, CST)
    form = SymplecticForm(1)
    pal = IntMatrix.identity(2)
    for c, e in zip(curves, exps):
        pal = pal @ transvection(c, e, form)
    for c, e in reversed(list(zip(curves, exps))):
        pal = pal @ transvection(c, e, form)
    assert eval_word(out) == pal
    assert [e for _, e in out.factors] == [-2, 4]  # doubled, reversed


def test_factor_palindrome_rejects_non_invariant_curve():
    with pytest.raises(WordError):
        factor_palindrome([CURVE_A], [1], CST)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_factor_palindrome_random(seed):
    rng = random.Random(seed)
    g = rng.randint(1, 3)
    s = random_anti_symplectic(g, rng)
    w = rng.randint(1, 6)
    curves = [random_invariant_curve(s, g, rng) for _ in range(w)]
    exps = [rng.choice([e for e in range(-3, 4) if e]) for _ in range(w)]
    out = factor_palindrome(curves, exps, s)
    form = SymplecticForm(g)
    pal = IntMatrix.identity(2 * g)
    for c, e in zip(curves, exps):
        pal = pal @ transvection(c, e, form)
    for c, e in reversed(list(zip(curves, exps))):
        pal = pal @ transvection(c, e, form)
    assert eval_word(out) == pal
    assert validate_recursive_invariance(out, s)["all_ok"]


# --- fix rule ----------------------------------------------------------------


def test_fix_rule_found_and_matrix_preserved():
    w = parse_word("a^-1 (a+b)^1 b^-1 | cst")
    assert find_fix_rule(w) == 0
    fixed = apply_fix_rule(w)
    assert format_word(fixed) == "(a-b)^-1 | cst"
    assert eval_word(fixed) == eval_word(w)


def test_fix_rule_absent():
    w = parse_word("a^-1 (a+b)^2 b^-1 | cst")
    assert find_fix_rule(w) is None
    with pytest.raises(WordError):
        apply_fix_rule(w)


@pytest.mark.parametrize(
    "text, genus, index",
    [
        ("b^2 a^-1 (a+b)^1 b^-1 | cst", 1, 1),  # the last window
        ("a^-1 a^-1 (a+b)^1 b^-1", 1, 1),  # a partial match first
        ("a^-1 (a+b)^1", 1, None),
        ("v[1,0,0,0]^-1 v[1,0,1,0]^1 v[0,0,1,0]^-1", 2, None),
    ],
)
def test_fix_rule_scan_edges(text, genus, index):
    assert find_fix_rule(parse_word(text, genus=genus)) == index
