from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqsurg.contact import legalize
from eqsurg.lens import diagram_documents
from eqsurg.matrices import CurveClass
from eqsurg.surgery import (
    SurgeryError,
    SurgeryKnot,
    SurgerySpec,
    TorusType,
    extension_type,
    heegaard_minus_seifert,
    knot_type_under_cst,
    type_labels_for_coeff,
    word_to_diagram,
)
from eqsurg.words import parse_word, validate_equivariant_shape


def spec(p, q, pp, qp):
    return SurgerySpec(p, q, pp, qp)


def test_spec_invariant_enforced():
    with pytest.raises(SurgeryError):
        spec(1, 0, 0, 1)  # determinant +1, not -1
    spec(1, 1, 0, -1)  # ok


def test_extension_type_bullets():
    assert extension_type(TorusType.C1, spec(3, 2, 2, 1)) is TorusType.C1
    # c2: q even
    assert extension_type(TorusType.C2, spec(1, 2, 0, -1)) is TorusType.C2
    # c2: q odd, q' even
    assert extension_type(TorusType.C2, spec(1, 1, 1, 0)) is TorusType.C3
    # c2: q odd, q' odd
    assert extension_type(TorusType.C2, spec(1, 1, 0, -1)) is TorusType.C4
    # c3: p even
    assert extension_type(TorusType.C3, spec(2, 1, 1, 0)) is TorusType.C2
    # c4: p+q even
    assert extension_type(TorusType.C4, spec(1, 1, 0, -1)) is TorusType.C2


# Boundary-torus conjugation oracle, independent of `extension_type`.
# Affine models on R^2/Z^2 in (x, y) with x the meridional direction:
# a pair (linear sign, half-integer translation), translation in units of 1/2.
_AFFINE = {
    TorusType.C1: (-1, (0, 0)),
    TorusType.C2: (1, (1, 0)),
    TorusType.C3: (1, (0, 1)),
    TorusType.C4: (1, (1, 1)),
}

_SAMPLE_LATTICE = [
    (Fraction(i, 4), Fraction(j, 4)) for i in range(4) for j in range(4)
]


def extension_by_conjugation(knot: TorusType, s: SurgerySpec) -> TorusType:
    """The unique c_j with c_i o phi = phi o c_j.

    phi = [[p, p'], [q, q']] as a linear torus map; the equation is
    tested pointwise modulo Z^2 on a 1/4-lattice of sample points.
    """

    def phi(pt):
        x, y = pt
        return (s.p * x + s.p_prime * y, s.q * x + s.q_prime * y)

    def involution(t: TorusType, pt):
        sign, (tx, ty) = _AFFINE[t]
        x, y = pt
        return (sign * x + Fraction(tx, 2), sign * y + Fraction(ty, 2))

    def congruent(u, v) -> bool:
        return all((a - b).denominator == 1 for a, b in zip(u, v))

    matches = [
        j
        for j in TorusType
        if all(
            congruent(involution(knot, phi(pt)), phi(involution(j, pt)))
            for pt in _SAMPLE_LATTICE
        )
    ]
    assert len(matches) == 1, f"{len(matches)} solutions for {knot} and {s}"
    return matches[0]


def make_spec(p, q, shift):
    """A gluing spec with the given meridian image, p' q' from Euclid
    shifted by `shift` copies of (p, q)."""
    # find x, y with p*y - q*x = -1
    old_r, r = p, q
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_x, x = x, old_x - quot * x
        old_y, y = y, old_y - quot * y
    # old_r = gcd = +-1 and p*old_x + q*old_y = old_r
    sign = -old_r
    pp, qp = -sign * old_y, sign * old_x
    return SurgerySpec(p, q, pp + shift * p, qp + shift * q)


coprime = st.tuples(
    st.integers(min_value=-9, max_value=9), st.integers(min_value=-9, max_value=9)
).filter(lambda t: __import__("math").gcd(*t) == 1)


@settings(max_examples=200, deadline=None)
@given(coprime, st.integers(min_value=-4, max_value=4), st.sampled_from(list(TorusType)))
def test_extension_matches_conjugation_oracle(pq, shift, k):
    s = make_spec(pq[0], pq[1], shift)
    assert extension_type(k, s) is extension_by_conjugation(k, s)


def test_type_labels_meridional_ambiguity():
    # a c2-knot with coefficient +1: q' parity flips with the twist choice
    labels = {str(l) for l in type_labels_for_coeff(TorusType.C2, 1)}
    assert labels == {"2_4", "2_3"}
    # c1 and c4 are unambiguous here
    assert {str(l) for l in type_labels_for_coeff(TorusType.C1, -1)} == {"1_1"}
    assert {str(l) for l in type_labels_for_coeff(TorusType.C4, -1)} == {"4_2"}
    assert type_labels_for_coeff(TorusType.C4, 1) == ("4_2",)


def test_type_labels_for_coeff_rejects_non_unit():
    with pytest.raises(SurgeryError):
        type_labels_for_coeff(TorusType.C1, 2)


def test_heegaard_minus_seifert():
    assert heegaard_minus_seifert(CurveClass.of(1, 1)) == 1
    assert heegaard_minus_seifert(CurveClass.of(1, 0)) == 0
    assert heegaard_minus_seifert(CurveClass.of(1, -1)) == -1


@pytest.mark.parametrize("count", [0, -1, -5])
def test_surgery_knot_refuses_fewer_than_one_copy(count):
    with pytest.raises(SurgeryError, match=f"^a knot stands for at least one copy, got {count}$"):
        SurgeryKnot(0, CurveClass.of(1, 1), 1, TorusType.C4, count)
    with pytest.raises(SurgeryError):
        SurgeryKnot(1, CurveClass.of(1, 0), -1, count=count)  # a pair knot


def test_knot_type_table():
    assert knot_type_under_cst(CurveClass.of(1, -1)) is TorusType.C1
    assert knot_type_under_cst(CurveClass.of(1, 1)) is TorusType.C4
    with pytest.raises(SurgeryError):
        knot_type_under_cst(CurveClass.of(1, 0))


def diagram_of(text):
    return word_to_diagram(validate_equivariant_shape(parse_word(text)))


def test_diagram_single_invariant_negative_twist():
    d = diagram_of("(a+b)^-1 | cst")
    (k,) = d.knots
    assert k.level == 0
    assert k.coeff == Fraction(-1)
    assert (k.torus_type, k.count) == (TorusType.C4, 1)
    assert "4_2" in {str(l) for l in k.labels}


def test_diagram_single_invariant_positive_twist():
    d = diagram_of("(a-b)^1 | cst")
    (k,) = d.knots
    assert k.coeff == Fraction(1)
    assert k.torus_type is TorusType.C1
    assert [str(l) for l in k.labels] == ["1_1"]


def test_diagram_hopf_pair():
    d = diagram_of("b^-1 a^-1 | cst")
    pairs = d.pair_knots()
    assert len(pairs) == 2 and not d.invariant_knots()
    assert {k.level for k in pairs} == {-1, 1}
    assert all(k.coeff == Fraction(1) for k in pairs)
    assert all(k.labels == ("5",) for k in pairs)


def test_diagram_pairs_mirror_levels_and_coeffs():
    d = diagram_of("b^2 a^3 (a+b)^-1 b^3 a^2 | cst")
    pairs = {k.level: k for k in d.pair_knots()}
    # pair i: the primary knot on level -i, its mirror on level +i
    knots = diagram_documents(legalize(d))[0]["knots"]
    assert {k["level"]: k["role"] for k in knots if k["level"]} == {
        -2: {"pair_primary": 2},
        2: {"pair_mirror": 2},
        -1: {"pair_primary": 1},
        1: {"pair_mirror": 1},
    }
    for i in (1, 2):
        assert pairs[-i].coeff == pairs[i].coeff
    # outer exponents 2 and 3 give surface-framed coefficients -2 and -3
    assert sorted({k.coeff for k in d.pair_knots()}) == [Fraction(-3), Fraction(-2)]


def test_diagram_json_shape():
    d = diagram_of("(a+b)^-1 | cst")
    doc, _ = diagram_documents(legalize(d))
    assert doc["ambient"] == "S3_cst"
    assert doc["knots"][0] == {
        "level": 0,
        "curve": [1, 1],
        "coeff": "-1",
        "role": {"invariant": "c4"},
        "type": "4_2",
    }
