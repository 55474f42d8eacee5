import collections
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eqsurg.words
from eqsurg.contact import legalize
from eqsurg.lens import diagram_documents
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
    curve_name,
    eval_word,
    factor_palindrome,
    find_fix_rule,
    format_word,
    parse_word,
    validate_equivariant_shape,
    validate_recursive_invariance,
    verify_relations,
)

from conftest import (
    matmul_reference,
    primitive,
    random_anti_symplectic,
    random_curve,
    random_invariant_curve,
    real_structure_reference,
    swap_involution,
)


def tw(*factors, cst=False):
    return TwistWord.of(list(factors), cst=cst)


def test_eval_applies_rightmost_first():
    # written a^1 b^1: matrix product tau_a @ tau_b
    w = tw((CURVE_A, 1), (CURVE_B, 1))
    form = SymplecticForm(1)
    expected = transvection(CURVE_A, 1, form) @ transvection(CURVE_B, 1, form)
    assert eval_word(w) == expected


def twist_reference(curve: CurveClass, e: int) -> IntMatrix:
    """The genus-1 twist matrix x -> x + e <c, x> c, entry by entry."""
    x, y = curve.coords
    return IntMatrix(((1 - e * x * y, e * x * x), (-e * y * y, 1 + e * x * y)))


def eval_reference(w: TwistWord) -> IntMatrix:
    m = IntMatrix.identity(2)
    for curve, e in w.factors:
        m = matmul_reference(m, twist_reference(curve, e))
    return matmul_reference(m, CST) if w.cst else m


genus1_factors = st.lists(
    st.tuples(
        st.sampled_from([CURVE_A] * 3 + [CURVE_B] * 3 + [CURVE_APB, CURVE_AMB]),
        st.integers(-10**6, 10**6).filter(bool),
    ),
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(genus1_factors, st.booleans())
def test_genus1_eval_matches_reference(factors, cst):
    w = tw(*factors, cst=cst)
    assert eval_word(w) == eval_reference(w)


def test_genus1_eval_takes_coordinate_signs():
    # built directly, so not sign-normalized: x = -1 and y = -1
    minus_a, minus_b = CurveClass((-1, 0)), CurveClass((0, -1))
    w = tw((minus_a, 3), (CURVE_APB, 2), (minus_b, -5), (CURVE_A, -7), (CURVE_B, 4))
    assert eval_word(w) == eval_reference(w)
    assert eval_word(tw((minus_a, 3), (minus_b, -5))) == eval_word(
        tw((CURVE_A, 3), (CURVE_B, -5))
    )


def _higher_genus_curves(g: int) -> st.SearchStrategy:
    """Basis curves, whose pairing with most rows is 0, and primitive
    vectors with entries in [-3, 3]."""
    basis = [CurveClass.from_coords([int(i == j) for j in range(2 * g)]) for i in range(2 * g)]
    vectors = st.lists(st.integers(-3, 3), min_size=2 * g, max_size=2 * g).filter(any)
    return st.sampled_from(basis) | vectors.map(primitive)


@st.composite
def higher_genus_words(draw) -> TwistWord:
    g = draw(st.integers(2, 4))
    exponents = st.sampled_from([-10**6, -3, -2, -1, 1, 2, 3, 10**6])
    factors = draw(st.lists(st.tuples(_higher_genus_curves(g), exponents), max_size=12))
    return TwistWord.of(factors, genus=g)


@settings(max_examples=150, deadline=None)
@given(higher_genus_words())
@example(TwistWord.of([(CurveClass.of(1, 0, 0, 0), 5), (CurveClass.of(0, 1, 1, 0), -2)], genus=2))
def test_higher_genus_eval_matches_transvection_product(w):
    # eval_word takes each row through the factors and keeps a row whose
    # product with the curve is 0; the reference multiplies the matrices
    form = SymplecticForm(w.genus)
    expected = IntMatrix.identity(2 * w.genus)
    for curve, e in w.factors:
        expected = expected @ transvection(curve, e, form)
    assert eval_word(w) == expected


def test_base_is_rightmost_factor():
    w = tw((CURVE_AMB, -1), cst=True)
    assert eval_word(w) == IntMatrix.from_rows([[-1, 0], [2, 1]])


def test_cst_at_higher_genus_rejected():
    with pytest.raises(WordError, match="^base acts at genus 1 but the word lies at genus 2$"):
        parse_word("v[1,0,1,0] | cst", genus=2)


def test_cst_must_be_a_bool():
    """The old positional base, and any other non-bool flag, fails loudly
    instead of building a word unequal to the one with cst=True."""
    with pytest.raises(WordError, match="^cst is a bool flag, got IntMatrix$"):
        TwistWord.of([(CURVE_A, 1)], CST)
    with pytest.raises(WordError, match="^cst is a bool flag, got int$"):
        TwistWord(((((CURVE_A, 1),), 1),), 1)


def test_zero_exponent_rejected():
    with pytest.raises(WordError):
        tw((CURVE_A, 0))


@pytest.mark.parametrize("factors, genus, text", [
    (((CURVE_A, 1), (CURVE_B, 0)), 1, "twist factor exponent must be nonzero"),
    (((CURVE_A, 1), (CurveClass.from_coords([1, 0, 0, 1]), 1)), 1,
     r"curve \(1, 0, 0, 1\) does not match genus 1"),
    (((CURVE_A, 0),), 0, "genus must be at least 1, got 0"),
    # with two defects, the first one in factor order is reported
    (((CURVE_A, 0), (CurveClass.from_coords([1, 0, 0, 1]), 1)), 1,
     "twist factor exponent must be nonzero"),
    (((CurveClass.from_coords([1, 0, 0, 1]), 1), (CURVE_A, 0)), 1,
     r"curve \(1, 0, 0, 1\) does not match genus 1"),
], ids=["zero-exponent", "wrong-length", "genus-0", "zero-first", "length-first"])
def test_word_defect_messages(factors, genus, text):
    with pytest.raises(WordError, match=f"^{text}$"):
        TwistWord.of(factors, genus=genus)


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
    cst = data.draw(st.sampled_from([False] + ([True] if genus == 1 else [])))
    w = TwistWord.of(factors, cst=cst, genus=genus)
    assert parse_word(format_word(w), genus=genus) == w


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
    with pytest.raises(WordError, match="^unknown base name 'base'$"):
        parse_word("a | base")


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
    # the mirrored part is the word's last two factors; read from the
    # inside out, each carries the image of its outer partner's curve
    assert shape.mirror == w.factors[2:]
    assert [c.coords for c, _ in reversed(shape.mirror)] == [(1, 0), (0, 1)]


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
    doc, _ = diagram_documents(legalize(d))
    assert [k["level"] for k in doc["knots"]] == [-1, 1, 0, 0, 0]


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
    mutated = TwistWord.of(
        w.factors[:idx]
        + ((curve, e + delta),)
        + w.factors[idx + 1 :],
        w.cst,
        w.genus,
    )
    changed = eval_word(mutated) != original
    try:
        validate_equivariant_shape(mutated)
        shape_ok = True
    except ShapeError:
        shape_ok = False
    assert changed or not shape_ok


def _split_error(mid):
    for c, e in mid:
        if c.image_under(CST) != c:
            return (
                f"factor {curve_name(c)}^{e}: curve is not "
                "base-invariant and has no mirror partner"
            )
    for (ci, _), (cj, _) in itertools.combinations(mid, 2):
        if ci != cj and SymplecticForm(1).pairing(ci.coords, cj.coords) != 0:
            return f"middle curves {curve_name(ci)} and {curve_name(cj)} are not disjoint"
    return None


def _shape_every_split(w):
    """Reference search over every split t = t_max ... 0: (outer, middle,
    mirror) of the first split whose middle is valid, else the error at t_max."""
    fs, n = w.factors, len(w.factors)
    t_max = 0
    while t_max < n // 2 and fs[n - 1 - t_max] == (
        fs[t_max][0].image_under(CST), fs[t_max][1]
    ):
        t_max += 1
    errors = []
    for t in range(t_max, -1, -1):
        error = _split_error(fs[t:n - t])
        if error is None:
            return fs[:t], fs[t:n - t], fs[n - t:]
        errors.append(error)
    return errors[0]


_G1_FACTOR = st.tuples(
    st.sampled_from(
        [CURVE_A, CURVE_B, CURVE_APB, CURVE_AMB, CurveClass.of(1, 2), CurveClass.of(2, -1)]
    ),
    st.integers(-3, 3).filter(bool),
)


# The two curves invariant under CST.  Images of a, b, a+b and a-b come
# from the import-time table; those of (1, 2) and (2, -1) are computed on
# lookup.
_INVARIANTS = (CURVE_APB, CURVE_AMB)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_G1_FACTOR, max_size=4),
    st.lists(st.tuples(st.sampled_from([0, 1]), st.integers(-3, 3).filter(bool)),
             max_size=3),
    st.data(),
)
def test_shape_single_split_matches_every_split(outer, middle, data):
    """Trying only the longest mirrored outer part gives the same shape, or
    the same error text, as trying every shorter one too."""
    factors = (outer + [(_INVARIANTS[i], m) for i, m in middle]
               + [(c.image_under(CST), e) for c, e in reversed(outer)])
    if factors and data.draw(st.booleans(), label="perturb"):
        factors[data.draw(st.integers(0, len(factors) - 1))] = data.draw(_G1_FACTOR)
    w = TwistWord.of(factors, cst=True)
    expected = _shape_every_split(w)
    try:
        shape = validate_equivariant_shape(w)
    except ShapeError as exc:
        assert str(exc) == expected
    else:
        assert (shape.outer, shape.middle, shape.mirror) == expected


_G1_CURVES = [CURVE_A, CURVE_B, CURVE_APB, CURVE_AMB]
_EXP = st.integers(-3, 3).filter(bool)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(_G1_CURVES), _EXP), max_size=5),
    st.sampled_from([CURVE_APB, CURVE_AMB]),
    st.lists(_EXP, max_size=4),
    st.none() | st.tuples(st.integers(0, 4), st.booleans(), st.integers(0, 3), _EXP),
)
@example([], CURVE_APB, [], None)  # length 0
@example([], CURVE_AMB, [2], None)  # length 1
@example([(CURVE_A, 2)], CURVE_APB, [], None)  # length 2
@example([(CURVE_B, 2), (CURVE_A, 3)], CURVE_APB, [], None)  # fully mirrored
@example([(CURVE_B, 2), (CURVE_APB, 1)], CURVE_APB, [1, 3], (1, True, 0, 1))
def test_shape_mirror_walk_slices(left, middle_curve, middle_exps, mutation):
    """A word left . middle . mirrored left splits at the depth where the
    mirror walk stops: the whole left half plus the mirrored part of the
    middle, or the depth of a changed mirror factor."""
    middle = [(middle_curve, e) for e in middle_exps]
    mirror = [(c.image_under(CST), e) for c, e in reversed(left)]
    k = len(middle_exps)
    t = len(left) + next((i for i in range(k // 2) if middle_exps[i] != middle_exps[-1 - i]),
                         k // 2)
    if left and mutation is not None:
        depth, change_curve, curve_index, exp = mutation
        t = depth % len(left)
        c, e = mirror[-1 - t]
        if change_curve:
            c = next(x for x in _G1_CURVES[curve_index:] + _G1_CURVES if x != c)
        else:
            e = exp if exp != e else -e
        mirror[-1 - t] = (c, e)
    fs = tuple(left + middle + mirror)
    n = len(fs)
    mid_curves = {c for c, _ in fs[t:n - t]}
    # at genus 1 the cst-invariant curves are a+b and a-b, and two distinct
    # curves always intersect
    if mid_curves <= {CURVE_APB} or mid_curves <= {CURVE_AMB}:
        shape = validate_equivariant_shape(TwistWord.of(fs, True))
        assert shape.outer == fs[:t]
        assert shape.middle == fs[t:n - t]
        assert shape.mirror == fs[n - t:]
    else:
        with pytest.raises(ShapeError):
            validate_equivariant_shape(TwistWord.of(fs, True))


# --- recursive invariance ----------------------------------------------------


def test_recursive_invariance_accepts_invariant_single():
    w = tw((CURVE_APB, 2))
    assert validate_recursive_invariance(w, CST)["all_ok"]


def _genus2_swap_pair(exp_first, exp_second):
    """A swapped pair of disjoint genus-2 curves under the block swap:
    e1+f2 maps to f1+e2 and the two have zero pairing."""
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


def test_recursive_invariance_takes_negated_curves():
    # curves built directly with a negative first coordinate, which
    # TwistWord accepts: s fixes (-1, 0) up to sign, and a block-swap pair
    # meets condition (ii) with its second curve negated
    s = IntMatrix.from_rows([[1, 0], [0, -1]])
    minus_a = CurveClass((-1, 0))
    assert validate_recursive_invariance(tw((minus_a, 1)), s) == {"all_ok": True, "factors": [
        dict(zip(_REPORT_KEYS, (1, "v[-1,0]", 1, "i", True, True)))]}
    factor_palindrome([minus_a], [1], s)
    w, s = _genus2_swap_pair(2, 2)
    (image, e), (gamma, _) = w.factors
    negated = TwistWord.of([(_flip(image), e), (gamma, e)], genus=2)
    report = validate_recursive_invariance(negated, s)
    assert report["all_ok"] and {x["condition"] for x in report["factors"]} == {"ii"}


_REPORT_KEYS = ("index", "curve", "exponent", "condition", "invariant_ok", "involution_ok")


# One word per outcome against the genus-2 block swap, in written order (the
# walk reads right to left).  v[1,0,0,0] is not swap-invariant; after it, the
# accumulated structure fixes v[0,1,0,1] and swaps v[0,1,1,0] with v[1,0,0,1].
@pytest.mark.parametrize("text, all_ok, rows", [
    ("v[1,0,1,0]^2", True, [(1, "v[1,0,1,0]", 2, "i", True, True)]),
    ("v[1,0,0,0]^1", False, [(1, "v[1,0,0,0]", 1, "i", False, False)]),
    ("v[0,1,0,1]^1 v[1,0,0,0]^1", False, [
        (1, "v[1,0,0,0]", 1, "i", False, False),
        (2, "v[0,1,0,1]", 1, "i", True, False),
    ]),
    ("v[0,1,1,0]^2 v[1,0,0,1]^2", True, [
        (1, "v[1,0,0,1]", 2, "ii", True, True),
        (2, "v[0,1,1,0]", 2, "ii", True, True),
    ]),
    ("v[1,0,0,1]^-1 v[0,1,1,0]^-1 v[1,0,0,0]^1", False, [
        (1, "v[1,0,0,0]", 1, "i", False, False),
        (2, "v[0,1,1,0]", -1, "ii", True, False),
        (3, "v[1,0,0,1]", -1, "ii", True, False),
    ]),
], ids=["i-kept", "i-not-invariant", "i-after-failure", "ii-pair", "ii-after-failure"])
def test_recursive_invariance_report(text, all_ok, rows):
    report = validate_recursive_invariance(parse_word(text, genus=2), swap_involution(2))
    assert report == {"all_ok": all_ok, "factors": [dict(zip(_REPORT_KEYS, r)) for r in rows]}


def test_recursive_invariance_rejects_genus_mismatch():
    with pytest.raises(WordError):
        validate_recursive_invariance(parse_word("v[1,0,1,0]", genus=2), CST)


@pytest.mark.parametrize(
    "s, text",
    [
        (IntMatrix.identity(2), "s must be an anti-symplectic involution"),  # symplectic
        (IntMatrix.from_rows([[0, 1], [1, 1]]), "s must be an anti-symplectic involution"),
        (IntMatrix.identity(4), "s acts at genus 2 but the word lies at genus 1"),
    ],
    ids=["involution-not-anti-symplectic", "anti-symplectic-not-involution", "genus-mismatch"],
)
def test_real_structure_checked_alike(s, text):
    # the recursive-invariance structure and the palindrome structure go
    # through one check with one set of error texts
    with pytest.raises(WordError, match=f"^{text}$"):
        validate_recursive_invariance(tw((CURVE_APB, 1)), s)
    with pytest.raises(WordError, match=f"^{text}$"):
        factor_palindrome([CURVE_APB], [1], s)


_NOT_REAL = "^s must be an anti-symplectic involution$"


@pytest.mark.parametrize("g", [2, 3, 4])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_real_structure_checked_at_higher_genus(g, seed):
    # a random conjugate of the block swap passes; s T_c with s c != +-c is
    # anti-symplectic but (s T_c)^2 = T_{sc}^-1 T_c != I, and the identity
    # is an involution but symplectic; both fail with one error text
    rng = random.Random(seed)
    s = random_anti_symplectic(g, rng)
    a = random_invariant_curve(s, g, rng)
    word = TwistWord.of([(a, 1)], genus=g)
    assert validate_recursive_invariance(word, s)["all_ok"]
    factor_palindrome([a], [1], s)
    c = random_curve(g, rng)
    while c.image_under(s) == c:
        c = random_curve(g, rng)
    not_involution = s @ transvection(c, rng.choice([-2, -1, 1, 2]), SymplecticForm(g))
    identity = IntMatrix.identity(2 * g)
    assert real_structure_reference(not_involution) == (False, True)
    assert real_structure_reference(identity) == (True, False)
    for bad in (not_involution, identity):
        with pytest.raises(WordError, match=_NOT_REAL):
            validate_recursive_invariance(word, bad)
        with pytest.raises(WordError, match=_NOT_REAL):
            factor_palindrome([a], [1], bad)


def recursive_invariance_reference(w: TwistWord, s: IntMatrix) -> tuple[dict, list[str]]:
    """The report by the matrix algorithm: after each factor the structure
    is `transvection(d, e) @ current`, and whether it is an involution is
    decided by `real_structure_reference`.  The image of a curve, which
    `image_under` sign-normalizes, is compared with the normalized curves,
    so a factor's curve may have either sign.  Also the outcome of each
    group of factors: "(i)", "(ii)", "lost involution" (the curve or pair
    passes but the structure is no involution), or, for a curve the
    structure moves, "lone swap", "intersecting swap" (the next factor is
    its image with the same exponent) or "mismatched exponents"."""
    form = SymplecticForm(w.genus)
    seq = list(reversed(w.factors))  # application order
    normalized = [(CurveClass.from_coords(c.coords), e) for c, e in seq]
    entries, outcomes = [], []
    current = s
    j = 0
    while j < len(seq):
        c, e = seq[j]
        image = c.image_under(current)
        after = normalized[j + 1] if j + 1 < len(seq) else None
        if image == normalized[j][0]:
            group, condition, invariant_ok, outcome = seq[j:j + 1], "i", True, "(i)"
        elif after == (image, e) and form.pairing(c.coords, image.coords) == 0:
            group, condition, invariant_ok, outcome = seq[j:j + 2], "ii", True, "(ii)"
        else:
            group, condition, invariant_ok = seq[j:j + 1], "i", False
            if after is None or after[0] != image:
                outcome = "lone swap"
            elif after[1] == e:
                outcome = "intersecting swap"
            else:
                outcome = "mismatched exponents"
        for d, _ in group:
            current = transvection(d, e, form) @ current
        involution_ok = invariant_ok and real_structure_reference(current)[0]
        outcomes.append("lost involution" if invariant_ok and not involution_ok else outcome)
        for index, (d, _) in enumerate(group, j + 1):
            entries.append(dict(zip(_REPORT_KEYS, (
                index, curve_name(d), e, condition, invariant_ok, involution_ok))))
        j += len(group)
    return {"all_ok": all(x["involution_ok"] for x in entries), "factors": entries}, outcomes


_KINDS = ("palindrome", "invariant", "random")


def _eigencurve_disjoint_from(m: IntMatrix, sign: int, c: CurveClass, rng: random.Random):
    """A curve in the sign-eigenspace of the involution m whose pairing
    with c is 0: <c, w> v - <c, v> w for two curves v, w of that
    eigenspace.  None when that is 0, as it always is at genus 1."""
    g = m.genus
    form = SymplecticForm(g)
    v, w = (random_invariant_curve(m, g, rng, sign).coords for _ in range(2))
    x = [form.pairing(c.coords, w) * a - form.pairing(c.coords, v) * b for a, b in zip(v, w)]
    return primitive(x) if any(x) else None


def _invariance_case(kind: str, g: int, rng: random.Random) -> tuple[TwistWord, IntMatrix]:
    """A real structure s at genus g and a word of one of three kinds:
    `factor_palindrome` outputs on curves from both eigenspaces of s;
    words of curves that s fixes; and words of random curves.  In the
    last, taken in application order, each step is one of: a curve
    alone; a curve and its image under the accumulated structure, with
    the same exponent or its negative; the same for a curve u + v that is
    disjoint from its image u - v; or a curve c alone and then a curve
    that the structure before c fixes and that is disjoint from c.
    The last two need an involution, and go alone otherwise."""
    s = random_anti_symplectic(g, rng)
    exps = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(rng.randint(1, 6))]
    if kind != "random":
        curves = [random_invariant_curve(s, g, rng, rng.choice([1, -1])) for _ in exps]
        if kind == "palindrome":
            return factor_palindrome(curves, exps, s), s
        return TwistWord.of(list(zip(curves, exps)), genus=g), s
    form = SymplecticForm(g)
    current, applied = s, []
    for e in exps:
        move = rng.choice(["alone", "swap", "disjoint swap", "then fixed"])
        c, then = random_curve(g, rng), None
        if move in ("disjoint swap", "then fixed") and real_structure_reference(current)[0]:
            if move == "disjoint swap":
                u = random_invariant_curve(current, g, rng, 1)
                v = _eigencurve_disjoint_from(current, -1, u, rng)
                if v is not None:
                    c = primitive([a + b for a, b in zip(u.coords, v.coords)])
            else:
                then = _eigencurve_disjoint_from(current, rng.choice([1, -1]), c, rng)
        group = [(c, e)]
        if move.endswith("swap"):
            group.append((c.image_under(current), rng.choice([e, e, -e])))
        elif then is not None:
            group.append((then, rng.choice([-3, -2, -1, 1, 2, 3])))
        for d, f in group:
            current = transvection(d, f, form) @ current
        applied += group
    return TwistWord.of(applied[::-1], genus=g), s


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_KINDS), st.integers(1, 4), st.integers(min_value=0, max_value=10**6))
def test_recursive_invariance_matches_the_matrix_algorithm(kind, g, seed):
    w, s = _invariance_case(kind, g, random.Random(seed))
    report, _ = recursive_invariance_reference(w, s)
    assert validate_recursive_invariance(w, s) == report
    if kind == "palindrome":
        assert report["all_ok"]


def test_recursive_invariance_matches_the_matrix_algorithm_on_every_outcome():
    # fixed draws of every kind at genus 1-4, among which every outcome occurs
    seen = collections.Counter()
    for kind in _KINDS:
        for g in (1, 2, 3, 4):
            for seed in range(12):
                w, s = _invariance_case(kind, g, random.Random(f"{kind}-{g}-{seed}"))
                report, outcomes = recursive_invariance_reference(w, s)
                assert validate_recursive_invariance(w, s) == report
                seen.update(outcomes)
    assert set(seen) == {"(i)", "(ii)", "lone swap", "intersecting swap",
                         "mismatched exponents", "lost involution"}, seen


def _flip(c: CurveClass) -> CurveClass:
    """c with its coordinates negated, built directly, so not sign-normalized."""
    return CurveClass(tuple(-x for x in c.coords))


def _without_curves(report: dict) -> tuple:
    return report["all_ok"], [{k: v for k, v in x.items() if k != "curve"}
                              for x in report["factors"]]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_KINDS), st.integers(1, 4), st.integers(min_value=0, max_value=10**6))
def test_recursive_invariance_and_palindromes_take_curves_of_either_sign(kind, g, seed):
    # negating the coordinates of some factors changes no verdict: both
    # conditions and the palindrome rewrite read curves up to sign
    rng = random.Random(seed)
    w, s = _invariance_case(kind, g, rng)
    flips = [rng.random() < 0.5 for _ in w.factors]
    flipped = TwistWord.of([(_flip(c) if f else c, e) for (c, e), f in zip(w.factors, flips)],
                           genus=g)
    report = validate_recursive_invariance(flipped, s)
    assert _without_curves(report) == _without_curves(validate_recursive_invariance(w, s))
    assert report == recursive_invariance_reference(flipped, s)[0]
    if kind == "invariant":  # curves that s fixes, a factor_palindrome input
        curves, exps = [c for c, _ in w.factors], [e for _, e in w.factors]
        assert factor_palindrome([c for c, _ in flipped.factors], exps, s).factors == (
            factor_palindrome(curves, exps, s).factors)


def test_recursive_invariance_multiplies_no_matrix(monkeypatch):
    # the accumulated structure is sheared column by column: with the
    # matrix product and `transvection` both refused, the reports are the same
    cases = [_invariance_case(kind, g, random.Random(f"{kind}-{g}"))
             for kind in _KINDS for g in (1, 2, 3, 4)]
    cases.append((parse_word("v[1,0,0,1]^-1 v[0,1,1,0]^-1 v[1,0,0,0]^1", genus=2),
                  swap_involution(2)))
    reports = [validate_recursive_invariance(w, s) for w, s in cases]

    def refuse(*args):
        pytest.fail("a matrix was built or multiplied")

    monkeypatch.setattr(IntMatrix, "__matmul__", refuse)
    monkeypatch.setattr(eqsurg.words, "transvection", refuse)
    assert [validate_recursive_invariance(w, s) for w, s in cases] == reports


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
    curves = [random_invariant_curve(s, g, rng, rng.choice([1, -1])) for _ in range(w)]
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


def factor_palindrome_reference(curves, exps, s) -> TwistWord:
    """The prefix-matrix algorithm: r_j is a_j's image under the prefix
    tau_{a_1}^{s_1} ... tau_{a_{j-1}}^{s_{j-1}}, kept as a matrix and
    extended by `@ transvection`."""
    genus = curves[0].genus
    form = SymplecticForm(genus)
    prefix = IntMatrix.identity(2 * genus)
    squared = []
    for a, sigma in zip(curves, exps):
        assert a.image_under(s) == a
        squared.append((a.image_under(prefix), 2 * sigma))
        prefix = prefix @ transvection(a, sigma, form)
    return TwistWord.of(squared[::-1], genus=genus)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(min_value=0, max_value=10**6),
    st.lists(st.sampled_from([-10**6, -3, -2, -1, 1, 2, 3, 10**6]), min_size=1, max_size=8),
)
def test_factor_palindrome_matches_prefix_matrix(g, seed, exps):
    rng = random.Random(seed)
    s = random_anti_symplectic(g, rng)
    # both eigenspaces of s, so that the twists do not commute and r_j != a_j
    curves = [random_invariant_curve(s, g, rng, rng.choice([1, -1])) for _ in exps]
    out = factor_palindrome(curves, exps, s)
    assert out.factors == factor_palindrome_reference(curves, exps, s).factors
    assert out.genus == g and out.cst is False


# --- fix rule ----------------------------------------------------------------


def test_fix_rule_found_and_matrix_preserved():
    w = parse_word("a^-1 (a+b)^1 b^-1 | cst")
    assert find_fix_rule(w) == 0
    fixed = apply_fix_rule(w, 0)
    assert format_word(fixed) == "(a-b)^-1 | cst"
    assert eval_word(fixed) == eval_word(w)


def test_fix_rule_absent():
    w = parse_word("a^-1 (a+b)^2 b^-1 | cst")
    assert find_fix_rule(w) is None
    for i in range(-4, 4):  # the pattern is at no index
        with pytest.raises(WordError):
            apply_fix_rule(w, i)


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
