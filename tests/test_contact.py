import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqsurg.contact import (
    ContactError,
    Illegal,
    IllegalReason,
    Slope,
    _knot_data,
    contact_coefficient,
    contact_glueback,
    legalize,
    thurston_bennequin,
    tight_solid_torus_exists,
    tw_wrt_heegaard,
)
from eqsurg.lens import Variant, build
from eqsurg.matrices import CurveClass
from eqsurg.surgery import (
    SurgeryDiagram,
    SurgeryKnot,
    SurgerySpec,
    TorusType,
    extension_type,
    word_to_diagram,
)
from eqsurg.words import CURVE_APB, find_fix_rule, parse_word, validate_equivariant_shape


def test_slope_normalization():
    s = Slope(2, -4)
    assert (s.num, s.den) == (-1, 2)
    assert str(Slope(1, 0)) == "inf"
    with pytest.raises(ContactError):
        Slope(0, 0)


def test_tight_solid_torus_table():
    assert tight_solid_torus_exists(TorusType.C2, Slope(1, 5))
    assert not tight_solid_torus_exists(TorusType.C2, Slope(2, 3))
    assert not tight_solid_torus_exists(TorusType.C3, Slope(1, 2))
    assert tight_solid_torus_exists(TorusType.C3, Slope(1, 3))
    assert tight_solid_torus_exists(TorusType.C4, Slope(1, 0))  # infinity
    assert tight_solid_torus_exists(TorusType.C4, Slope(1, 2))
    assert not tight_solid_torus_exists(TorusType.C4, Slope(1, 3))
    assert tight_solid_torus_exists(TorusType.C1, Slope(-1, 7))


def test_glueback_table_rows():
    assert contact_glueback(TorusType.C1, 5, -3) is TorusType.C1
    assert contact_glueback(TorusType.C2, 2, 7) is TorusType.C2
    assert contact_glueback(TorusType.C2, 1, 0) is TorusType.C4  # q' = -1 odd
    assert contact_glueback(TorusType.C2, 1, 1) is TorusType.C3  # q' = 0 even
    assert isinstance(contact_glueback(TorusType.C3, 1, 0), Illegal)
    assert contact_glueback(TorusType.C4, 1, 0) is TorusType.C2
    assert contact_glueback(TorusType.C4, 2, 0) is TorusType.C4
    assert contact_glueback(TorusType.C4, 2, 1) is TorusType.C3


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(list(TorusType)),
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-20, max_value=20),
)
def test_glueback_is_p1_slice_of_extension(k, q, pp):
    result = contact_glueback(k, q, pp)
    if isinstance(result, Illegal):
        assert k is TorusType.C3
        return
    assert result is extension_type(k, SurgerySpec(1, q, pp, q * pp - 1))
    assert tight_solid_torus_exists(result, Slope(-1, pp))


def test_twisting_values():
    assert tw_wrt_heegaard(CurveClass.of(1, 1)) == -2
    assert tw_wrt_heegaard(CurveClass.of(1, -1)) == 0
    assert tw_wrt_heegaard(CurveClass.of(1, 0)) == -1


def test_tb_is_minus_one_for_standard_unknots():
    for m, n in [(1, 0), (0, 1), (1, 1), (1, -1)]:
        assert thurston_bennequin(CurveClass.of(m, n)) == -1


def test_contact_coefficient_conversions():
    assert contact_coefficient(-1, -2) == 1
    assert contact_coefficient(1, 0) == 1
    assert contact_coefficient(0, -3) == 3
    assert type(contact_coefficient(-1, -2)) is int


def contact_of(text, **kw):
    shape = validate_equivariant_shape(parse_word(text))
    return legalize(word_to_diagram(shape), **kw)


def test_legalize_single_c1_knot():
    c = contact_of("(a-b)^-1 | cst")
    (data,) = c.knot_data
    assert (data.tw_h, data.tb) == (0, -1)
    assert data.contact_coeff == -1
    assert data.glue_back is TorusType.C1
    assert c.overall_legal


def test_legalize_c4_negative_twist_is_legal():
    c = contact_of("(a+b)^-1 | cst")
    (data,) = c.knot_data
    assert data.contact_coeff == 1
    assert data.glue_back is TorusType.C2
    assert c.overall_legal


def test_legalize_c4_positive_twist_is_flagged():
    c = contact_of("(a+b)^1 | cst")
    (data,) = c.knot_data
    assert data.contact_coeff == 3
    assert isinstance(data.glue_back, Illegal)
    assert data.glue_back.reason is IllegalReason.POSITIVE_C4_MIDDLE
    assert not c.overall_legal
    assert c.flags() == ["PositiveC4Middle"]


def test_legalize_pairs_always_legal():
    # legalize classifies no pair; the renderers print each pair knot as legal
    c = contact_of("b^2 a^2 | cst")
    assert c.overall_legal and c.knot_data == () and c.flags() == []
    docs = c.to_json_dict()["knots"]
    assert [k["role"] for k in docs] == [{"pair_primary": 1}, {"pair_mirror": 1}]
    assert all(k["contact"]["glue_back"] is None and k["contact"]["legal"] for k in docs)
    assert [k["contact"]["coeff"] for k in docs] == ["-1", "-1"]
    contact_lines = [l for l in c.render_text().splitlines() if "contact level" in l]
    assert len(contact_lines) == 2
    assert all(l.endswith("glue_back None legal") for l in contact_lines)


def test_fix_rule_note_attached():
    c = contact_of("a^-1 (a+b)^1 b^-1 | cst", fix_rule_available=True)
    illegal = [d for d in c.knot_data if not d.legal]
    assert illegal and all("fix rule applicable" in d.notes for d in illegal)


def test_contact_json_fields():
    c = contact_of("(a+b)^-1 | cst")
    doc = c.to_json_dict()
    assert doc["overall_legal"] is True
    assert doc["knots"][0]["contact"] == {
        "tw": -2,
        "tb": -1,
        "coeff": "+1",
        "glue_back": "c2",
        "legal": True,
        "notes": [],
    }


@pytest.mark.parametrize(
    "p, q, variant",
    [(4, 3, Variant.C), (3, 1, Variant.C), (499, 1, Variant.C_PRIME)],
)
def test_runs_equal_unit_copies(p, q, variant):
    # a knot with count m prints and legalizes like m separate knots
    report = build(p, q, variant)
    d, c = report.diagram, report.contact
    assert any(k.count > 1 for k in d.knots)
    units = SurgeryDiagram(
        d.ambient,
        tuple(dataclasses.replace(k, count=1) for k in d.knots for _ in range(k.count)),
        d.pairs,
        d.notes,
    )
    split = legalize(units, find_fix_rule(report.word) is not None)
    assert units.to_json_dict() == d.to_json_dict()
    assert units.render_text() == d.render_text()
    assert split.to_json_dict() == c.to_json_dict()
    assert split.flags() == c.flags()
    assert split.render_text() == c.render_text()


@pytest.mark.parametrize("fix", [True, False])
def test_legalize_key_separates_roles(fix):
    # same curve and coefficient: a pair knot against a c4 one, and a c4
    # knot against a c3 one
    knots = (
        SurgeryKnot(0, CURVE_APB, 1, TorusType.C4),
        SurgeryKnot(0, CURVE_APB, -1, TorusType.C4),
        SurgeryKnot(0, CURVE_APB, -1, TorusType.C3),
    )
    d = SurgeryDiagram("S3_cst", knots, ((CURVE_APB, CURVE_APB, 1),))
    c = legalize(d, fix)
    alone = tuple(_knot_data(k, fix) for k in knots)
    assert alone[1] != alone[2]
    assert c.knot_data == alone
    (primary, mirror), runs = c.entries()[:2], c.entries()[2:]
    assert runs == list(zip(knots, alone))
    for knot, data in (primary, mirror):
        assert data == _knot_data(knot, fix) != alone[0]
        assert (knot.curve, knot.coeff, data.legal) == (CURVE_APB, 1, True)
