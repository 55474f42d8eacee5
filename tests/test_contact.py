import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqsurg.cli import _knot_lines
from eqsurg.contact import (
    ContactError,
    Illegal,
    IllegalReason,
    RunList,
    Slope,
    _INVARIANT_DATA,
    _knot_data,
    contact_coefficient,
    contact_glueback,
    legalize,
    thurston_bennequin,
    tight_solid_torus_exists,
    tw_wrt_heegaard,
)
from eqsurg.lens import Variant, admissible_pairs, build, diagram_documents
from eqsurg.matrices import CurveClass
from eqsurg.surgery import (
    SurgeryDiagram,
    SurgeryKnot,
    SurgerySpec,
    TorusType,
    extension_type,
    word_to_diagram,
)
from eqsurg.words import (
    CURVE_AMB,
    CURVE_APB,
    EquivariantShape,
    TwistWord,
    parse_word,
    validate_equivariant_shape,
)


def test_slope_normalization():
    s = Slope(2, -4)
    assert (s.num, s.den) == (-1, 2)
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


def contact_of(text):
    shape = validate_equivariant_shape(parse_word(text))
    return legalize(word_to_diagram(shape))


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
    # legalize classifies no pair; the documents mark each pair knot as legal
    c = contact_of("b^2 a^2 | cst")
    assert c.overall_legal and c.knot_data == () and c.flags() == []
    diagram, contact = diagram_documents(c)
    docs = contact["knots"]
    assert [k["role"] for k in docs] == [{"pair_primary": 1}, {"pair_mirror": 1}]
    assert all(k["contact"]["glue_back"] is None and k["contact"]["legal"] for k in docs)
    assert [k["contact"]["coeff"] for k in docs] == ["-1", "-1"]
    lines = _knot_lines({"diagram": diagram, "contact": contact})
    contact_lines = [l for l in lines if "contact level" in l]
    assert len(contact_lines) == 2
    assert all(l.endswith("glue_back None legal") for l in contact_lines)


def test_fix_rule_word_prints_empty_notes():
    # an illegal knot in a word that holds the fix pattern carries no note:
    # `build` decides on the rewrite, and every knot prints "notes": []
    c = contact_of("a^-1 (a+b)^1 b^-1 | cst")
    assert any(not d.legal for d in c.knot_data)
    docs = diagram_documents(c)[1]["knots"]
    assert docs and all(k["contact"]["notes"] == [] for k in docs)


def test_contact_json_fields():
    c = contact_of("(a+b)^-1 | cst")
    _, doc = diagram_documents(c)
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
        tuple(k._replace(count=1) for k in d.knots for _ in range(k.count)),
        d.shape,
    )
    split = legalize(units)
    assert diagram_documents(split) == diagram_documents(c)
    assert split.flags() == c.flags()


@pytest.mark.parametrize("runs", [True, False])
def test_legalize_key_separates_roles(runs):
    # same curve and coefficient: a pair knot against a c4 one, and a c4
    # knot against a c3 one; the invariant knots as single knots or as runs
    count = 2 if runs else 1
    knots = (
        SurgeryKnot(0, CURVE_APB, 1, TorusType.C4, count),
        SurgeryKnot(0, CURVE_APB, -1, TorusType.C4, count),
        SurgeryKnot(0, CURVE_APB, -1, TorusType.C3, count),
    )
    # one pair (a+b)^-1: the word (a+b)^-1 (a+b)^-1 | cst split at t = 1
    pair = EquivariantShape(TwistWord.of([(CURVE_APB, -1)] * 2, cst=True), 1, ())
    d = SurgeryDiagram(knots, pair)
    c = legalize(d)
    alone = tuple(_knot_data(k) for k in knots)
    assert alone[1] != alone[2]
    assert c.knot_data == alone
    (primary, mirror), runs = c.entries()[:2], c.entries()[2:]
    assert runs == list(zip(knots, alone))
    for knot, data in (primary, mirror):
        assert data == _knot_data(knot) != alone[0]
        assert (knot.curve, knot.coeff, data.legal) == (CURVE_APB, 1, True)


@pytest.mark.parametrize("p", [7, 500])
@pytest.mark.parametrize("variant", [Variant.C, Variant.C_PRIME])
def test_knot_lists_and_flags_are_run_lists(p, variant):
    # one run per knot (flags: per illegal knot) of length knot.count, whose
    # list value is the copies in order; only C's middle run is illegal
    contact = build(p, 1, variant).contact
    diagram_doc, contact_doc = diagram_documents(contact)
    knots = [k for k, _ in contact.entries()]
    illegal = [(k, d) for k, d in zip(contact.base.knots, contact.knot_data) if not d.legal]
    flags = contact.flags()
    assert bool(illegal) == (variant is Variant.C) and any(k.count > 1 for k in knots)
    # the expected documents, from the records' own fields
    expect_knots, expect_contact = [], []
    for k, d in contact.entries():
        if k.torus_type is None:
            role = {("pair_primary", "pair_mirror")[k.level > 0]: abs(k.level)}
        else:
            role = {"invariant": k.torus_type.value}
        doc = {"level": k.level, "curve": list(k.curve.coords), "coeff": "%+d" % k.coeff,
               "role": role, "type": "/".join(k.labels)}
        glue_back = (None if d.glue_back is None else
                     d.glue_back.value if d.legal else f"Illegal({d.glue_back.reason.value})")
        data = {"tw": d.tw_h, "tb": d.tb, "coeff": "%+d" % d.contact_coeff,
                "glue_back": glue_back, "legal": d.legal, "notes": []}
        expect_knots.append((doc, k.count))
        expect_contact.append(({**doc, "contact": data}, k.count))
    for docs, expect in [
        (diagram_doc["knots"], expect_knots),
        (contact_doc["knots"], expect_contact),
        (flags, [(d.glue_back.reason.value, k.count) for k, d in illegal]),
    ]:
        assert type(docs) is RunList
        assert docs.runs == expect
        assert list(docs) == [item for item, n in expect for _ in range(n)]
    # the copies of a run share one document
    for docs in (diagram_doc["knots"], contact_doc["knots"]):
        for doc, n in docs.runs:
            assert sum(item is doc for item in docs) == n


_ILLEGAL_REASONS = [
    ((1, 0), TorusType.C1, -1, "NoSlope", "+0"),
    ((1, 2), TorusType.C1, -1, "NotUnitNumerator", "+2"),
    ((1, 1), TorusType.C3, 1, "C3Knot", "+3"),
    ((1, 1), TorusType.C4, 1, "PositiveC4Middle", "+3"),
]


@pytest.mark.parametrize("curve, ttype, coeff, reason, contact_coeff", _ILLEGAL_REASONS)
def test_every_illegal_reason_reaches_the_documents(curve, ttype, coeff, reason, contact_coeff):
    # one hand-built invariant run of two knots per reason
    knot = SurgeryKnot(0, CurveClass(curve), coeff, ttype, 2)
    c = legalize(SurgeryDiagram((knot,)))
    _, doc = diagram_documents(c)
    (run, n), = doc["knots"].runs
    assert n == 2 and run["contact"] == {
        "tw": tw_wrt_heegaard(knot.curve),
        "tb": thurston_bennequin(knot.curve),
        "coeff": contact_coeff,
        "glue_back": f"Illegal({reason})",
        "legal": False,
        "notes": [],
    }
    assert doc["overall_legal"] is False
    assert c.flags() == [reason, reason] and c.flags().runs == [(reason, 2)]


@pytest.fixture(scope="module")
def census_500():
    """The build of every census row at p <= 500."""
    return [build(p, q, v) for p, q in admissible_pairs(500) for v in (Variant.C, Variant.C_PRIME)]


def test_invariant_table_is_knot_data_of_its_keys(census_500):
    # the four unit surgeries on a+b (c4) and a-b (c1), each the data
    # `_knot_data` computes, and every census build's data equals the
    # computed data of its knots, all of which the table holds
    assert set(_INVARIANT_DATA) == {
        (curve, coeff, ttype)
        for curve, ttype in ((CURVE_APB, TorusType.C4), (CURVE_AMB, TorusType.C1))
        for coeff in (1, -1)
    }
    for (curve, coeff, ttype), data in _INVARIANT_DATA.items():
        assert data == _knot_data(SurgeryKnot(0, curve, coeff, ttype))
    for report in census_500:
        d = report.contact.base
        assert legalize(d).knot_data == tuple(_knot_data(k) for k in d.knots)
        assert all((k.curve, k.coeff, k.torus_type) in _INVARIANT_DATA for k in d.knots)


def _assert_legal_iff_no_flag_runs(report):
    contact, row = report.contact, report.census_row()
    assert report.legal == (report.shape_ok and not report.flags.runs)
    assert contact.overall_legal == (not contact.flags().runs)
    assert (row["shape_ok"], row["legal"], row["flags"]) == (
        report.shape_ok, report.legal, report.flags)


def test_legal_iff_no_flag_runs_on_the_census(census_500):
    assert all(r.shape_ok for r in census_500)
    assert {r.legal for r in census_500} == {True, False}
    for report in census_500:
        _assert_legal_iff_no_flag_runs(report)


@pytest.mark.parametrize("knots", [
    *[[SurgeryKnot(0, CurveClass(curve), coeff, ttype, 2)]
      for curve, ttype, coeff, _, _ in _ILLEGAL_REASONS],
    # a legal run before an illegal one, and a legal run alone
    [SurgeryKnot(0, CURVE_AMB, -1, TorusType.C1, 3),
     SurgeryKnot(0, CURVE_APB, 1, TorusType.C4, 1)],
    [SurgeryKnot(0, CURVE_AMB, 1, TorusType.C1, 2)],
])
def test_legal_iff_no_flag_runs_on_hand_built_diagrams(knots):
    contact = legalize(SurgeryDiagram(tuple(knots)))
    report = build(7, 1, Variant.C)._replace(contact=contact)
    _assert_legal_iff_no_flag_runs(report)


@pytest.mark.parametrize("k", [0, -1])
def test_run_list_refuses_a_run_of_fewer_than_one(k):
    with pytest.raises(ValueError, match=f"^a run holds its item at least once, got {k}$"):
        RunList([("y", 2), ("x", k)])
