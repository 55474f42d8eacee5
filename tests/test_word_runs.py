"""Words held as runs against their flat factors.

A `TwistWord` stores runs (block, k), the block's factors repeated k
times.  Every walk over the runs is checked here against the same work
done factor by factor on `w.factors`: the fix-rule scan and rewrite, the
shape's mirror walk, and `eval_word` against the textbook product
`matmul_reference`.  The flat walks below are the oracles.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from eqsurg.contfrac import ContFrac
from eqsurg.lens import Variant, build, factor_C
from eqsurg.matrices import IntMatrix
from eqsurg.words import (
    CST,
    CURVE_A,
    CURVE_AMB,
    CURVE_APB,
    CURVE_B,
    ShapeError,
    TwistWord,
    WordError,
    apply_fix_rule,
    curve_name,
    eval_word,
    find_fix_rule,
    validate_equivariant_shape,
)

from conftest import form_matrix, matmul_reference, primitive

PATTERN = ((CURVE_A, -1), (CURVE_APB, 1), (CURVE_B, -1))


def fix_rule_flat(fs):
    """Index of the leftmost a^-1 (a+b)^1 b^-1 in the flat factors."""
    return next((i for i in range(len(fs) - 2) if fs[i:i + 3] == PATTERN), None)


def apply_fix_rule_flat(fs, i):
    """The flat factors with the pattern at index i rewritten, or None."""
    if i < 0 or fs[i:i + 3] != PATTERN:
        return None
    return fs[:i] + ((CURVE_AMB, -1),) + fs[i + 3:]


def shape_flat(fs):
    """The mirror walk over the flat factors: (outer, middle, mirror), or
    the ShapeError text."""
    n, t = len(fs), 0
    while t < n // 2 and fs[n - 1 - t] == (fs[t][0].image_under(CST), fs[t][1]):
        t += 1
    mid = fs[t:n - t]
    for c, e in mid:
        if c.image_under(CST) != c:
            return (f"factor {curve_name(c)}^{e}: curve is not "
                    "base-invariant and has no mirror partner")
    for c, _ in mid:
        if c != mid[0][0]:
            return (f"middle curves {curve_name(mid[0][0])} and {curve_name(c)} "
                    "are not disjoint")
    return fs[:t], mid, fs[n - t:]


def product_flat(fs, cst, genus):
    """The word's matrix: one twist matrix x -> x + e <c, x> c per flat
    factor, multiplied by `matmul_reference`, then `CST` if `cst`."""
    dim = 2 * genus
    j = form_matrix(genus).rows
    m = IntMatrix.identity(dim)
    for curve, e in fs:
        c = curve.coords
        w = [sum(c[i] * j[i][col] for i in range(dim)) for col in range(dim)]
        t = IntMatrix(tuple(tuple(int(r == col) + e * c[r] * w[col] for col in range(dim))
                            for r in range(dim)))
        m = matmul_reference(m, t)
    return matmul_reference(m, CST) if cst else m


# the pattern's factors, other factors on the same curves, and the two
# CST-invariant curves
_FACTOR = st.sampled_from([
    (CURVE_A, -1), (CURVE_APB, 1), (CURVE_B, -1), (CURVE_A, 2), (CURVE_B, 2),
    (CURVE_APB, -1), (CURVE_AMB, -1), (CURVE_AMB, 3),
])
_BLOCK = st.lists(_FACTOR, min_size=1, max_size=3).map(tuple)
_RUNS = st.lists(st.tuples(_BLOCK, st.integers(1, 8)), max_size=5).map(tuple)


def _runs(*runs):
    return tuple((tuple(block), k) for block, k in runs)


a_, apb, b_ = PATTERN


@settings(max_examples=400, deadline=None)
@given(_RUNS, st.booleans(), st.data())
# the pattern inside a repeated block, across two copies of a block, from
# the last copy of a long run into the next run, and split over three runs
@example(_runs((PATTERN, 6)), True, None)
@example(_runs(((apb, b_, a_), 5)), False, None)
@example(_runs((((CURVE_B, 2), a_), 5), ((apb, b_), 1)), True, None)
@example(_runs(((a_,), 1), ((apb,), 1), ((b_,), 7)), True, None)
@example(_runs((((CURVE_B, 2),), 4), ((b_, a_, apb), 4), ((b_,), 1)), False, None)
def test_run_word_matches_its_flat_factors(runs, cst, data):
    w = TwistWord(runs, cst)
    fs = w.factors
    at = find_fix_rule(w)
    assert at == fix_rule_flat(fs)
    others = {-1, len(fs)} if data is None else {data.draw(st.integers(-2, len(fs) + 1))}
    for i in {at} - {None} | others:
        expected = apply_fix_rule_flat(fs, i)
        if expected is None:
            with pytest.raises(WordError):
                apply_fix_rule(w, i)
        else:
            out = apply_fix_rule(w, i)
            assert (out.factors, out.cst) == (expected, cst)
            assert eval_word(out) == eval_word(w)
    assert eval_word(w) == product_flat(fs, cst, 1)
    flat = TwistWord.of(fs, cst=cst)
    assert flat == w and hash(flat) == hash(w)


_INVARIANT = st.tuples(st.sampled_from([CURVE_APB, CURVE_AMB]), st.integers(-3, 3).filter(bool))
# middles: invariant factors as a run, or the self-mirrored block a^-1 b^-1
# (A^2 = -I), which the mirror walk goes on into factor by factor
_MIDDLE = st.one_of(
    st.tuples(st.lists(_INVARIANT, min_size=1, max_size=2).map(tuple), st.integers(1, 5)),
    st.tuples(st.just(((CURVE_A, -1), (CURVE_B, -1))), st.integers(1, 5)),
)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.tuples(_BLOCK, st.integers(1, 8)), max_size=4),
    st.lists(_MIDDLE, max_size=2),
    st.none() | st.tuples(st.sampled_from(["count", "swap", "curve"]), st.integers(0, 8)),
)
@example([(((CURVE_B, 2), (CURVE_A, 2)), 7)], [], None)
@example([(((CURVE_B, 2), (CURVE_A, 2)), 7)], [(((CURVE_A, -1), (CURVE_B, -1)), 3)], None)
@example([(((CURVE_B, 2), (CURVE_A, 2)), 7)], [(((CURVE_APB, 1),), 1)], ("count", 0))
# a^2 faces a^2 in place of its image b^2: the runs must not pair
@example([(((CURVE_A, 2),), 3)], [], ("curve", 1))
def test_mirrored_run_word_shape_matches_the_flat_walk(left, middle, mutation):
    mirror = [(tuple((c.image_under(CST), e) for c, e in reversed(block)), k)
              for block, k in reversed(left)]
    runs = left + middle + mirror
    if runs and mutation is not None:
        kind, j = mutation
        j %= len(runs)
        block, k = runs[j]
        if kind == "count":
            runs[j] = (block, k + 1)
        elif kind == "swap":
            runs[j] = (block[::-1], k)
        else:
            c, e = block[0]
            runs[j] = (((CURVE_A if c != CURVE_A else CURVE_B, e),) + block[1:], k)
    w = TwistWord(tuple(runs), True)
    expected = shape_flat(w.factors)
    try:
        shape = validate_equivariant_shape(w)
    except ShapeError as exc:
        assert str(exc) == expected
    else:
        assert (shape.outer, shape.middle, shape.mirror) == expected


_G2_CURVE = st.lists(st.integers(-2, 2), min_size=4, max_size=4).filter(any).map(primitive)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(
    st.lists(st.tuples(_G2_CURVE, st.integers(-3, 3).filter(bool)), min_size=1, max_size=2)
    .map(tuple),
    st.integers(1, 6),
), max_size=3).map(tuple))
def test_genus2_run_word_evaluates_like_its_flat_factors(runs):
    w = TwistWord(runs, genus=2)
    assert eval_word(w) == product_flat(w.factors, False, 2)


def test_words_with_the_same_factors_are_equal():
    # equal exactly when the flat factors, flag and genus are
    for p, q in [(13, 12), (984, 655), (120, 71)]:
        w = factor_C(p, q)
        flat = TwistWord.of(w.factors, cst=True)
        assert flat == w and hash(flat) == hash(w)
        assert TwistWord.of(w.factors) != w  # no base
    block = ((CURVE_B, 2), (CURVE_A, 2))
    assert TwistWord(((block, 4),)) == TwistWord(((block, 1), (block * 2, 1), (block, 1)))
    assert TwistWord(((block, 4),)) != TwistWord(((block, 3),))
    assert TwistWord(((block, 4),)) != block * 4  # a word is not its factors
    with pytest.raises(WordError, match="^a run repeats its block at least once, got 0$"):
        TwistWord(((block, 0),))


@pytest.mark.parametrize("p, variant, layout", [
    (1000, Variant.C, [(2, 249), (5, 1), (2, 249)]),
    (1001, Variant.C, [(2, 250), (2, 250)]),
    (1001, Variant.C_PRIME, [(2, 250), (6, 1), (2, 250)]),
    (10001, Variant.C, [(2, 2500), (2, 2500)]),
    (10001, Variant.C_PRIME, [(2, 2500), (6, 1), (2, 2500)]),
])
def test_build_and_census_row_read_no_flat_view(monkeypatch, p, variant, layout):
    # a build of L(p, p - 1) and its census row walk runs only: neither the
    # word's flat factors nor the expansion's flat terms are built, and the
    # word is at most three runs however long it is
    for cls, name in ((TwistWord, "factors"), (ContFrac, "terms")):
        monkeypatch.setattr(cls, name, property(lambda self, name=name: pytest.fail(name)))
    report = build(p, p - 1, variant)
    assert report.matrix_ok and report.shape_ok
    report.census_row()
    monkeypatch.undo()
    assert [k for _, k in report.cf.runs] == [p - 1]
    assert [(len(block), k) for block, k in report.word.runs] == layout
