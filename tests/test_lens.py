import itertools
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eqsurg.lens
from eqsurg.contact import TightnessHint
from eqsurg.contfrac import BadInput, expand
from eqsurg.lens import (
    BuildReport,
    LensTarget,
    Variant,
    admissible_pairs,
    assemble,
    build,
    catalog_rp3,
    catalog_s1xs2,
    factor_C,
    factor_Cprime,
    type_A_chain,
)
from eqsurg.matrices import IntMatrix
from eqsurg.words import (
    ShapeError,
    apply_fix_rule,
    eval_word,
    find_fix_rule,
    format_word,
    parse_word,
    validate_equivariant_shape,
)

from conftest import det


def test_target_invariants():
    t = LensTarget(5, 4, Variant.C)
    assert t.p_prime == -3
    assert det(t.matrix) == -1
    assert t.matrix @ t.matrix == IntMatrix.identity(2)


@pytest.mark.parametrize("variant", list(Variant))
def test_target_matrix_is_the_signed_gluing_matrix(variant):
    sign = 1 if variant is Variant.C else -1
    for p, q in admissible_pairs(200):
        m = LensTarget(p, q, variant).matrix
        p_prime = (1 - q * q) // p
        expected = IntMatrix.from_rows([[-q, p_prime], [p, q]])
        assert m == (expected if sign == 1 else -expected), (p, q)
        assert all(type(x) is int for row in m.rows for x in row)


def test_inadmissible_pairs_rejected():
    with pytest.raises(BadInput):
        LensTarget(5, 2, Variant.C)  # 4 != 1 mod 5
    with pytest.raises(BadInput):
        LensTarget(4, 2, Variant.C)  # not coprime
    with pytest.raises(BadInput):
        LensTarget(2, 3, Variant.C)  # q > p


def test_admissible_pairs_enumeration():
    assert admissible_pairs(5) == [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 1), (5, 4)]


def _scan(max_p):
    """The pairs by their definition: every q < p tried."""
    return [(p, q) for p in range(2, max_p + 1) for q in range(1, p) if (q * q) % p == 1]


def test_admissible_pairs_match_the_scan():
    # the list is sorted by p, so equality at 2000 holds at every smaller max_p
    assert admissible_pairs(2000) == _scan(2000)


@pytest.mark.parametrize("p, qs", [
    (2, [1]),  # 1 modulo 2
    (4, [1, 3]),  # +-1 modulo 4
    (8, [1, 3, 5, 7]),  # +-1 and 4 +- 1 modulo 8
    (16, [1, 7, 9, 15]),  # +-1 and 8 +- 1 modulo 16
])
def test_admissible_pairs_at_powers_of_two(p, qs):
    assert [q for n, q in admissible_pairs(p) if n == p] == qs


def test_admissible_pairs_match_gcd_definition():
    # q^2 = 1 mod p already makes p and q coprime; the listing keeps the
    # definition that also tests the gcd
    with_gcd = [
        (p, q)
        for p in range(2, 301)
        for q in range(1, p)
        if gcd(p, q) == 1 and (q * q) % p == 1 % p
    ]
    for max_p in range(-1, 301):
        assert admissible_pairs(max_p) == [(p, q) for p, q in with_gcd if p <= max_p]


def test_factor_words_known_cases():
    assert format_word(factor_C(2, 1)) == "a^-1 (a+b)^1 b^-1 | cst"
    assert format_word(factor_C(5, 4)) == "b^2 a^2 b^2 a^2 | cst"
    assert (
        format_word(factor_C(3, 2))
        == "b^2 b^-1 a^-1 b^-1 a^-1 b^-1 a^-1 a^2 | cst"
    )
    assert format_word(factor_Cprime(3, 2)) == "b^2 a^2 | cst"
    assert format_word(factor_Cprime(2, 1)) == "a^1 (a-b)^3 b^1 | cst"


def test_factor_eval_known_matrices():
    assert eval_word(factor_C(5, 4)) == IntMatrix.from_rows([[-4, -3], [5, 4]])
    assert eval_word(factor_C(3, 2)) == IntMatrix.from_rows([[-2, -1], [3, 2]])
    assert eval_word(factor_Cprime(3, 2)) == IntMatrix.from_rows([[2, 1], [-3, -2]])
    assert eval_word(factor_Cprime(2, 1)) == IntMatrix.from_rows([[1, 0], [-2, -1]])
    assert eval_word(factor_Cprime(5, 4)) == IntMatrix.from_rows([[4, 3], [-5, -4]])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(admissible_pairs(120)))
def test_factorization_hits_target_and_shape(pq):
    p, q = pq
    for variant, factor in ((Variant.C, factor_C), (Variant.C_PRIME, factor_Cprime)):
        word = factor(p, q)
        assert eval_word(word) == LensTarget(p, q, variant).matrix
        validate_equivariant_shape(word)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(admissible_pairs(100)))
def test_variant_duality(pq):
    p, q = pq
    assert eval_word(factor_Cprime(p, q)) == -eval_word(factor_C(p, q))


def test_build_rp3():
    r = build(2, 1, Variant.C)
    assert r.fix_rule_applied
    assert format_word(r.word) == "(a-b)^-1 | cst"
    assert r.matrix_ok and r.shape_ok and r.legal
    (k,) = r.diagram.knots
    assert [str(l) for l in k.labels] == ["1_1"]
    (data,) = r.contact.knot_data
    assert data.contact_coeff == -1


def test_build_middle_free_case_is_legal():
    r = build(5, 4, Variant.C)
    assert r.matrix_ok and r.shape_ok and r.legal and not r.fix_rule_applied
    assert not r.diagram.invariant_knots()


def test_build_flags_positive_c4_middles():
    r = build(4, 3, Variant.C)  # n = 3: middle (a+b)^3, three +1 twists
    assert r.matrix_ok and r.shape_ok
    assert not r.legal
    assert set(r.flags) == {"PositiveC4Middle"}
    r_prime = build(4, 3, Variant.C_PRIME)
    assert r_prime.legal


def test_build_report_json_keys():
    doc = build(5, 4, Variant.C).to_json_dict()
    assert doc["p"] == 5 and doc["q"] == 4 and doc["variant"] == "C"
    assert doc["cf"] == [2, 2, 2, 2]
    assert doc["palindrome"] is True
    assert doc["word"] == "b^2 a^2 b^2 a^2 | cst"
    assert doc["matrix_ok"] is True and doc["shape_ok"] is True


def test_middle_run_copies_share_one_document():
    # the encoder writes a run of one shared document once; L(1000, 1) has
    # one invariant run of about 1000 copies
    report = build(1000, 1, Variant.C)
    (run,) = report.diagram.knots
    assert run.count == 999
    full = report.to_json_dict()
    for doc in (full["diagram"], full["contact"]):
        middle = [k for k in doc["knots"] if k["level"] == 0]
        assert len(middle) == run.count
        assert all(k is middle[0] for k in middle)


def test_build_report_without_shape():
    # a word with no equivariant shape has no diagrams, no verdicts and no flags
    target = LensTarget(3, 1, Variant.C)
    word = parse_word("a^1 | cst")
    with pytest.raises(ShapeError):
        validate_equivariant_shape(word)
    r = BuildReport(target, expand(3, 1), word, eval_word(word) == target.matrix, False, None)
    assert eqsurg.lens._verify(word, target.matrix) == (r.matrix_ok, None)
    assert r.shape_ok is False and r.diagram is None
    assert r.legal is False and r.flags == []
    doc = r.to_json_dict()
    assert doc["diagram"] is None and doc["contact"] is None
    assert doc["shape_ok"] is False and doc["legal"] is False
    row = r.census_row()
    assert row["shape_ok"] is False and row["legal"] is False and row["flags"] == []


@pytest.mark.parametrize("variant", list(Variant))
def test_census_row_and_document_agree(variant):
    # each verdict has one definition, so both views of a build print it alike
    for p, q in admissible_pairs(60):
        r = build(p, q, variant)
        row, doc = r.census_row(), r.to_json_dict()
        for key in ("matrix_ok", "shape_ok", "legal", "fix_rule_applied"):
            assert row[key] is doc[key], (p, q, key)
        assert list(row["flags"]) == list(doc["flags"]), (p, q)


def test_middle_legality_trichotomy_small_census():
    for p, q in admissible_pairs(60):
        n = len(build(p, q, Variant.C).cf)
        r = build(p, q, Variant.C)
        mid = r.cf.terms[len(r.cf.terms) // 2]
        if n % 4 in (0, 2):
            assert r.legal and not r.flags
        elif n % 4 == 1:
            if mid == 2:
                assert r.fix_rule_applied and r.legal
            else:
                assert set(r.flags) == {"PositiveC4Middle"}
        else:
            assert set(r.flags) == {"PositiveC4Middle"}
        # primed middles twist along a-b (a c1-knot): always legal
        assert build(p, q, Variant.C_PRIME).legal


def test_build_is_one_straight_pass(monkeypatch):
    # each build scans the factored word once, before verifying anything,
    # hands the rewrite the index that scan found, and then verifies and
    # assembles the final word once each
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append((name, args))
            return fn(*args)
        return wrapper

    for name in ("find_fix_rule", "apply_fix_rule", "eval_word", "assemble",
                 "validate_equivariant_shape", "word_to_diagram", "legalize"):
        fn = getattr(eqsurg.lens, name)
        monkeypatch.setattr(f"eqsurg.lens.{name}", counted(name, fn))
    applied = 0
    for p, q in admissible_pairs(60):
        for variant in (Variant.C, Variant.C_PRIME):
            word = (factor_C if variant is Variant.C else factor_Cprime)(p, q)
            at = find_fix_rule(word)
            del calls[:]
            r = build(p, q, variant)
            assert [name for name, _ in calls] == (
                ["find_fix_rule"] + ([] if at is None else ["apply_fix_rule"])
                + ["eval_word", "assemble", "validate_equivariant_shape",
                   "word_to_diagram", "legalize"]
            )
            assert calls[0][1] == (word,)
            if at is not None:
                assert calls[1][1] == (word, at)
            assert [args for name, args in calls if name in ("eval_word", "assemble")] == [
                (r.word,), (r.word,)
            ]
            assert r.fix_rule_applied == (at is not None)
            applied += r.fix_rule_applied
    assert applied > 0


def test_fix_rule_pattern_sits_only_in_the_c_4k_plus_1_middle_at_t_2():
    # outer exponents are terms >= 2, so the pattern a^-1 (a+b)^1 b^-1 can
    # only sit in a middle, and only the (C, 4k+1) middle at t = 2 spells
    # it; that raw diagram is illegal by its positive c4 middle alone, and
    # the rewrite makes it legal
    hits = 0
    for p, q in admissible_pairs(500):
        for variant in (Variant.C, Variant.C_PRIME):
            word = (factor_C if variant is Variant.C else factor_Cprime)(p, q)
            r = build(p, q, variant)
            terms = r.cf.terms
            at = find_fix_rule(word)
            spelled = (variant is Variant.C and len(terms) % 4 == 1
                       and terms[len(terms) // 2] == 2)
            assert (at is not None) == spelled, (p, q, variant)
            if at is not None:
                raw = assemble(word)
                assert not raw.overall_legal and set(raw.flags()) == {"PositiveC4Middle"}
                assert assemble(apply_fix_rule(word, at)).overall_legal
                hits += 1
            assert find_fix_rule(r.word) is None
    assert hits == 258


def test_catalog_s1xs2_entries():
    entries = {e.name: e for e in catalog_s1xs2()}
    assert set(entries) == {"s1", "s2", "s3", "s4"}
    assert all(e.matrix_ok for e in entries.values())
    assert entries["s1"].expected_matrix == IntMatrix.from_rows([[-1, 2], [0, 1]])
    assert entries["s2"].expected_matrix == IntMatrix.from_rows([[1, 2], [0, -1]])
    assert entries["s3"].expected_matrix == IntMatrix.from_rows([[-1, 1], [0, 1]])
    assert entries["s4"].expected_matrix == IntMatrix.from_rows([[1, 1], [0, -1]])
    assert entries["s3"].tightness_hint is TightnessHint.TIGHT
    assert entries["s4"].tightness_hint is TightnessHint.OVERTWISTED


def test_catalog_rp3_entry():
    e = catalog_rp3()
    assert e.matrix_ok
    d, c = e.diagrams()
    assert len(d.knots) == 1 and c.overall_legal


def test_catalog_entry_runs_each_stage_once(monkeypatch):
    # each entry's word is verified and assembled once, while the catalog
    # is built; reading its verdicts, diagrams and document runs no stage
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append((name, args))
            return fn(*args)
        return wrapper

    for name in ("eval_word", "assemble"):
        monkeypatch.setattr(f"eqsurg.lens.{name}", counted(name, getattr(eqsurg.lens, name)))
    entries = [*catalog_s1xs2(), catalog_rp3()]
    assert calls == [(name, (e.word,)) for e in entries for name in ("eval_word", "assemble")]
    del calls[:]
    for e in entries:
        first, second = [(e.matrix_ok, e.diagrams(), e.to_json_dict()) for _ in range(2)]
        assert first == second and first[0] and first[1] == (e.contact.base, e.contact)
    assert calls == []


def test_type_a_chain_values():
    r = type_A_chain(3, 1)
    assert r.coefficients == (-3,)
    assert r.count == 2
    assert list(r.assignments()) == [(-1,), (1,)]
    assert type_A_chain(4, 3).count == 1
    assert type_A_chain(7, 1).count == 6


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(
        st.integers(min_value=2, max_value=40), st.integers(min_value=1, max_value=39)
    ).filter(lambda t: t[1] < t[0] and gcd(t[0], t[1]) == 1)
)
def test_type_a_enumeration_matches_count(pq):
    p, q = pq
    r = type_A_chain(p, q)
    assert sum(1 for _ in r.assignments()) == r.count
    # each knot's rotation choices step by 2 and are symmetric about 0
    for r_i, choices in zip(r.coefficients, r.rotation_choices()):
        assert len(choices) == abs(r_i + 1)
        assert all(-c in choices for c in choices)
