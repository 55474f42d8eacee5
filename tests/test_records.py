"""The value records as tuples.

Every record in the package is a `NamedTuple`, or a `namedtuple`
subclass whose `__new__` checks its fields, so importing `eqsurg.cli`
loads no `dataclasses` (and with it no `inspect`, `ast`, `dis` or
`tokenize`).  These tests hold each record to the contract it had as a
frozen dataclass: equal by its fields, immutable, built the same way
from positional and keyword arguments, and refusing bad fields with the
same error.  A tuple serializes as a list without complaint, so the last
test walks the documents for a record that got into one.
"""

import os
import subprocess
import sys

import pytest

from eqsurg.contact import (
    ContactError,
    ContactKnotData,
    Illegal,
    IllegalReason,
    Slope,
    legalize,
)
from eqsurg.contfrac import BadInput, ContFrac, Flavor
from eqsurg.lens import (
    LensTarget,
    Variant,
    admissible_pairs,
    build,
    catalog_rp3,
    catalog_s1xs2,
    type_A_chain,
)
from eqsurg.matrices import IntMatrix, SymplecticForm
from eqsurg.surgery import SurgeryDiagram, SurgeryError, SurgeryKnot, SurgerySpec, TorusType
from eqsurg.words import (
    CST,
    CURVE_A,
    CURVE_AMB,
    CURVE_APB,
    CURVE_B,
    EquivariantShape,
    TwistWord,
    WordError,
    factor_palindrome,
    parse_word,
)

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _word():
    return TwistWord(((((CURVE_B, 2), (CURVE_A, 2)), 2), (((CURVE_AMB, 1),), 1)), True)


def _knot():
    return SurgeryKnot(0, CURVE_AMB, 1, TorusType.C1, 3)


def _diagram():
    return SurgeryDiagram((_knot(),), EquivariantShape(_word(), 0, ((CURVE_AMB, 1),)))


# one factory per former dataclass; each call builds a new record from equal fields
RECORDS = {
    "IntMatrix": lambda: IntMatrix(((0, -1), (1, 0))),
    "SymplecticForm": lambda: SymplecticForm(2),
    "ContFrac": lambda: ContFrac(((3, 2), (2, 1)), Flavor.POSITIVE),
    "TwistWord": _word,
    "EquivariantShape": lambda: EquivariantShape(_word(), 0, ((CURVE_AMB, 1),)),
    "SurgerySpec": lambda: SurgerySpec(1, 1, 0, -1),
    "SurgeryKnot": _knot,
    "SurgeryDiagram": _diagram,
    "Slope": lambda: Slope(-2, -6),
    "Illegal": lambda: Illegal(IllegalReason.NO_SLOPE),
    "ContactKnotData": lambda: ContactKnotData(-2, -1, 3, Illegal(IllegalReason.C3_KNOT)),
    "ContactDiagram": lambda: legalize(_diagram()),
    "LensTarget": lambda: LensTarget(8, 3, Variant.C_PRIME),
    "BuildReport": lambda: build(8, 3, Variant.C_PRIME),
    "CatalogEntry": lambda: catalog_s1xs2()[2],
    "ChainReport": lambda: type_A_chain(7, 2),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_contract(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert type(a).__name__ == name and isinstance(a, tuple)
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert type(a)(*a) == type(a)(**a._asdict()) == a
    assert repr(a).startswith(f"{name}({a._fields[0]}=")
    for field in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(a, field))
    with pytest.raises(AttributeError):
        a.extra = None  # no instance dict on any record


@pytest.mark.parametrize("make, error, message", [
    (lambda: ContFrac((), Flavor.POSITIVE), BadInput,
     "continued fraction needs at least one term"),
    (lambda: ContFrac(((2, 0),), Flavor.POSITIVE), BadInput,
     "runs must be maximal, with counts >= 1, got ((2, 0),)"),
    (lambda: ContFrac(((2, 1), (2, 1)), Flavor.POSITIVE), BadInput,
     "runs must be maximal, with counts >= 1, got ((2, 1), (2, 1))"),
    (lambda: ContFrac(((3, 1), (1, 2)), Flavor.POSITIVE), BadInput,
     "positive flavor requires all terms >= 2, got (3, 1, 1)"),
    (lambda: ContFrac(((-1, 2),), Flavor.NEGATIVE), BadInput,
     "negative flavor requires all terms <= -2, got (-1, -1)"),
    (lambda: TwistWord((), genus=0), WordError, "genus must be at least 1, got 0"),
    (lambda: TwistWord(((((CURVE_A, 1),), 0),)), WordError,
     "a run repeats its block at least once, got 0"),
    (lambda: TwistWord(((((CURVE_A, 0),), 1),)), WordError,
     "twist factor exponent must be nonzero"),
    (lambda: TwistWord(((((CURVE_A, 1),), 1),), genus=2), WordError,
     "curve (1, 0) does not match genus 2"),
    (lambda: TwistWord((), True, 2), WordError,
     "base acts at genus 1 but the word lies at genus 2"),
    (lambda: SurgerySpec(1, 1, 1, 1), SurgeryError,
     "invalid gluing data: p*q' - q*p' = 0, expected -1"),
    (lambda: SurgeryKnot(0, CURVE_APB, 1, TorusType.C4, 0), SurgeryError,
     "a knot stands for at least one copy, got 0"),
    (lambda: Slope(0, 0), ContactError, "slope 0/0 is undefined"),
    (lambda: LensTarget(3, 3, Variant.C), BadInput, "need p > q > 0, got p=3, q=3"),
    (lambda: LensTarget(8, 2, Variant.C), BadInput, "p=8 and q=2 are not coprime"),
    (lambda: LensTarget(5, 2, Variant.C), BadInput,
     "q^2 = 4 mod 5; the gluing map is an involution only when q^2 = 1 mod p"),
])
def test_record_validation(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


def test_validation_runs_for_keywords_too():
    with pytest.raises(SurgeryError):
        SurgeryKnot(level=0, curve=CURVE_APB, coeff=1, count=0)
    assert Slope(num=2, den=-4) == Slope(-1, 2) == (-1, 2)


def test_twist_word_inequality_negates_equality():
    # one word cut into runs two ways: equal as words, unequal as tuples
    flat = TwistWord.of(_word().factors, True)
    assert tuple(flat) != tuple(_word())
    assert flat == _word() and not flat != _word() and hash(flat) == hash(_word())
    other = TwistWord.of(_word().factors[1:], True)
    assert other != _word() and not other == _word()


def test_twist_word_holds_its_base_as_a_flag():
    # every word the package makes holds (runs, cst, genus): a bool flag
    # for the one base CST, and no matrix
    words = [parse_word("a^1 | cst"), parse_word("v[1,0,1,0]^1", genus=2),
             build(8, 3, Variant.C_PRIME).word, catalog_s1xs2()[2].word,
             factor_palindrome([CURVE_APB], [1], CST)]
    for w in words:
        assert w._fields == ("runs", "cst", "genus")
        assert [type(x) for x in w[1:]] == [bool, int]
    assert [w.cst for w in words] == [True, False, True, True, False]


def test_cont_frac_len_is_its_term_count():
    cf = ContFrac(((3, 2), (2, 4)), Flavor.POSITIVE)
    assert len(cf) == len(cf.terms) == 6 and len(cf._fields) == 2
    with pytest.raises(TypeError):
        cf._replace(flavor=Flavor.NEGATIVE)


def test_import_loads_no_dataclasses():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, eqsurg.cli; print(sorted({'dataclasses', 'inspect', 'ast', 'dis',"
            " 'tokenize'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout == "[]\n"


_LEAVES = (str, int, bool, type(None))


def _assert_plain(node, path="$"):
    """Every node is a dict with str keys, a list, or a str, int, bool or None."""
    if type(node) is dict:
        for key, value in node.items():
            assert type(key) is str, path
            _assert_plain(value, f"{path}.{key}")
    elif isinstance(node, list):  # a contact.RunList is a list
        for i, value in enumerate(node):
            _assert_plain(value, f"{path}[{i}]")
    else:
        assert type(node) in _LEAVES, f"{path}: {type(node).__name__}"


def _documents():
    for p, q in admissible_pairs(40):
        for variant in Variant:
            report = build(p, q, variant)
            yield report.to_json_dict()
            yield report.census_row()
    for q in (1, 996):
        for variant in Variant:
            yield build(997, q, variant).to_json_dict()
    for entry in [*catalog_s1xs2(), catalog_rp3()]:
        yield entry.to_json_dict()
    for p, q in ((7, 2), (13, 5), (30, 7)):
        yield type_A_chain(p, q).to_json_dict()


def test_no_record_in_any_document():
    count = 0
    for doc in _documents():
        _assert_plain(doc)
        count += 1
    assert count > 200
