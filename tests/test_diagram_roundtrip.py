"""Read every census diagram back into a word and evaluate it.

The reader uses only what a diagram prints: knots in level order, the
primary of pair i on level -i and its mirror on +i, each giving the
factor (curve, -coeff), and each invariant run on level 0 giving
(curve, coeff * count).  It does not use the factorization, the shape
or the shape validator, so a diagram that drops, swaps or re-signs a
surgery evaluates to a different matrix than the target.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from eqsurg.lens import LensTarget, Variant, admissible_pairs, build
from eqsurg.surgery import word_to_diagram
from eqsurg.words import (
    CST,
    CURVE_A,
    CURVE_AMB,
    CURVE_APB,
    CURVE_B,
    TwistWord,
    eval_word,
    validate_equivariant_shape,
)

CENSUS_MAX_P = 500


def diagram_word(diagram) -> TwistWord:
    factors = []
    knots = diagram.pair_knots() + diagram.invariant_knots()
    for knot in sorted(knots, key=lambda k: k.level):
        if knot.level == 0:
            factors.append((knot.curve, knot.coeff * knot.count))
        else:
            factors.append((knot.curve, -knot.coeff))
    return TwistWord.of(factors, base=CST)


def test_census_diagrams_evaluate_to_target():
    builds, failures = 0, []
    for p, q in admissible_pairs(CENSUS_MAX_P):
        for variant in (Variant.C, Variant.C_PRIME):
            report = build(p, q, variant)
            assert report.diagram is not None, (p, q, variant)
            if eval_word(diagram_word(report.diagram)) != LensTarget(p, q, variant).matrix:
                failures.append((p, q, variant.value))
            builds += 1
    assert builds == 4354
    assert not failures, failures[:10]


_EXPONENTS = st.integers(-5, 5).filter(bool)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from([CURVE_A, CURVE_B, CURVE_APB, CURVE_AMB]), _EXPONENTS),
             max_size=6),
    st.sampled_from([CURVE_APB, CURVE_AMB]),
    st.lists(_EXPONENTS, max_size=3),
)
def test_random_mirrored_word_diagram_evaluates_to_word(outer, middle_curve, runs):
    # outer * middle * mirrored outer over the standard base; the middle is
    # runs along one invariant curve, so every such word has a valid shape
    mirrored = [(curve.image_under(CST), e) for curve, e in reversed(outer)]
    word = TwistWord.of(outer + [(middle_curve, m) for m in runs] + mirrored, base=CST)
    diagram = word_to_diagram(validate_equivariant_shape(word))
    assert eval_word(diagram_word(diagram)) == eval_word(word)
