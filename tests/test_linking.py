"""Recheck the diagram layer by the linking matrix of the printed diagram.

A diagram is read as an integral surgery presentation of a 3-manifold
(Gompf-Stipsicz, *4-Manifolds and Kirby Calculus*, 5.1 and 5.3; Rolfsen,
*Knots and Links*, ch. 9) by way of `pair_knots()` and
`invariant_knots()` only, not the word or the shape:

- the knots go in level order, as unit surgeries on their curves;
- a pair knot printed with coefficient k stands for |k| parallel unit
  surgeries of sign -sign(k), opposite to its printed sign;
- an invariant run stands for `count` unit surgeries of its sign.

For unit surgeries (curve (m, n), sign c) in that order, the linking
matrix has L_ii = c + m*n, the surface framing gap added to c, and
L_ij = n_lo * m_hi for the lower knot lo and the higher knot hi.  The
surgered manifold has |H_1| = |det L|, so a diagram of L(p, q) needs
|det L| = p.  Its linking form is L^-1 mod 1; on the meridian of knot k
it is minor_k / det L, for the principal minor that deletes knot k, and
for L(p, q) it lies in the class of -q/p up to unit squares mod p.
"""

from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from eqsurg.lens import Variant, admissible_pairs, build
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

from conftest import det_rows


def unit_surgeries(diagram) -> list[tuple[tuple[int, int], int]]:
    """(curve coordinates, sign) of each unit surgery, in level order."""
    units = []
    knots = diagram.pair_knots() + diagram.invariant_knots()
    for knot in sorted(knots, key=lambda k: k.level):
        if knot.level == 0:
            units += [(knot.curve.coords, knot.coeff)] * knot.count
        else:
            units += [(knot.curve.coords, -1 if knot.coeff > 0 else 1)] * abs(knot.coeff)
    return units


def linking_matrix(units) -> list[list[int]]:
    size = len(units)
    rows = [[0] * size for _ in range(size)]
    for i, ((m, n), c) in enumerate(units):
        rows[i][i] = c + m * n
        for j in range(i + 1, size):
            rows[i][j] = rows[j][i] = n * units[j][0][0]
    return rows


def linking_det(diagram) -> int:
    return det_rows(linking_matrix(unit_surgeries(diagram)))


def test_linking_determinant_is_p_on_every_small_build():
    builds, failures = 0, []
    for p, q in admissible_pairs(40):
        for variant in (Variant.C, Variant.C_PRIME):
            d = abs(linking_det(build(p, q, variant).diagram))
            if d != p:
                failures.append((p, q, variant.value, d))
            builds += 1
    assert builds == 230
    assert not failures, failures[:10]


def test_linking_form_class_is_minus_q_over_p_on_every_small_build():
    # lambda(mu_k, mu_k) = minor_k / det L with det L = sign * p, for the
    # first knot k whose minor is prime to p, so lambda = -q u^2 / p mod 1
    # means sign * minor_k = -q u^2 mod p for a unit u
    builds, failures = 0, []
    for p, q in admissible_pairs(40):
        squares = {u * u % p for u in range(1, p) if gcd(u, p) == 1}
        for variant in (Variant.C, Variant.C_PRIME):
            rows = linking_matrix(unit_surgeries(build(p, q, variant).diagram))
            d = det_rows(rows)
            minors = (
                det_rows([row[:k] + row[k + 1:] for i, row in enumerate(rows) if i != k])
                for k in range(len(rows))
            )
            minor = next((m for m in minors if gcd(m, p) == 1), None)
            if abs(d) != p or minor is None or (
                    -(d // p) * minor * q) % p not in squares:
                failures.append((p, q, variant.value, d, minor))
            builds += 1
    assert builds == 230
    assert not failures, failures[:10]


_EXPONENTS = st.integers(-3, 3).filter(bool)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from([CURVE_A, CURVE_B, CURVE_APB, CURVE_AMB]), _EXPONENTS),
             max_size=4),
    st.sampled_from([CURVE_APB, CURVE_AMB]),
    st.lists(_EXPONENTS, max_size=3),
)
def test_linking_determinant_is_the_word_matrix_entry(outer, middle_curve, runs):
    # for outer * middle * mirrored outer over the standard base, |det L|
    # is |M_21| of the word's matrix M, which is p for a lens word
    mirrored = [(curve.image_under(CST), e) for curve, e in reversed(outer)]
    word = TwistWord.of(outer + [(middle_curve, m) for m in runs] + mirrored, cst=True)
    diagram = word_to_diagram(validate_equivariant_shape(word))
    assert abs(linking_det(diagram)) == abs(eval_word(word).rows[1][0])
