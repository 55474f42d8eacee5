"""Lens-space factorization pipeline and the example catalogs.

Factors the two gluing involutions +-[[-q, p'], [p, q]] of L(p,q) (for
q^2 = 1 mod p) into mirrored twist words over the standard base, verifies
them against the target matrix, emits surgery and contact diagrams, and
provides the S^1 x S^2, RP^3 and chain-of-unknots catalogs.  The records
are tuples (see `eqsurg.matrices`), which no JSON document holds.
"""

from __future__ import annotations

import enum
import itertools
from collections import namedtuple
from typing import Iterator, NamedTuple, Optional

from .contact import ContactDiagram, Illegal, RunList, TightnessHint, legalize
from .contfrac import BadInput, ContFrac, Flavor, check_pq, expand, honda_count, is_palindrome
from .matrices import IntMatrix
from .surgery import SurgeryDiagram, word_to_diagram
from .words import (
    CST_IMAGES,
    CURVE_A,
    CURVE_AMB,
    CURVE_APB,
    CURVE_B,
    ShapeError,
    TwistWord,
    apply_fix_rule,
    eval_word,
    find_fix_rule,
    format_word,
    validate_equivariant_shape,
)


class Variant(enum.Enum):
    C = "C"
    C_PRIME = "C'"

    @staticmethod
    def parse(text: str) -> "Variant":
        if text in ("C", "c"):
            return Variant.C
        if text in ("C'", "c'", "Cprime", "cprime", "C_prime"):
            return Variant.C_PRIME
        raise BadInput(f"unknown variant {text!r}")


class LensTarget(namedtuple("LensTarget", "p q variant")):
    """Gluing involution of L(p,q): +-[[-q, p'], [p, q]] with q^2 + p*p' = 1."""

    __slots__ = ()

    def __new__(cls, p: int, q: int, variant: Variant) -> "LensTarget":
        check_pq(p, q)
        if (q * q) % p != 1:
            raise BadInput(
                f"q^2 = {q * q % p} mod {p}; the gluing map is an involution "
                "only when q^2 = 1 mod p"
            )
        return tuple.__new__(cls, (p, q, variant))

    @property
    def p_prime(self) -> int:
        return (1 - self.q * self.q) // self.p

    @property
    def matrix(self) -> IntMatrix:
        p, q, p_prime = self.p, self.q, self.p_prime
        if self.variant is Variant.C:
            return IntMatrix(((-q, p_prime), (p, q)))
        return IntMatrix(((q, -p_prime), (-p, -q)))


def admissible_pairs(max_p: int) -> list[tuple[int, int]]:
    """All (p, q) with 2 <= p <= max_p, 0 < q < p, q^2 = 1 mod p, sorted.

    Such p and q are coprime: a common divisor of both divides q^2 - (q^2 - 1).
    The q of one p are the square roots of 1 modulo p, joined by the Chinese
    remainder theorem from the roots modulo each prime power k = l^e of p:
    +-1 for odd l; 1 modulo 2; +-1 modulo 4; +-1 and k/2 +- 1 modulo 2^e
    for e >= 3.  A smallest-prime-factor sieve factors every p.
    """
    spf = list(range(max_p + 1))
    for l in range(2, max_p + 1):
        if spf[l] == l:
            for n in range(l * l, max_p + 1, l):
                if spf[n] == n:
                    spf[n] = l
    pairs = []
    for p in range(2, max_p + 1):
        roots, m, n = [0], 1, p  # the roots of 1 modulo m, and m * n = p
        while n > 1:
            l, k = spf[n], 1
            while n % l == 0:
                n //= l
                k *= l
            if l > 2 or k == 4:
                local = (1, k - 1)
            elif k == 2:
                local = (1,)
            else:
                local = (1, k - 1, k // 2 - 1, k // 2 + 1)
            inv = pow(m, -1, k)  # x = r mod m and x = s mod k
            roots = [r + m * ((s - r) * inv % k) for r in roots for s in local]
            m *= k
        roots.sort()
        pairs += [(p, q) for q in roots]
    return pairs


# The middle of the word, keyed by (prime, n mod 4) where prime means
# variant C', as a function of the centre term t = terms[half]; only the
# odd cases read it.
_MIDDLE = {
    (False, 0): lambda t: [],
    # at t = 2 this is a^-1 (a+b)^1 b^-1, the fix-rule pattern; no other
    # entry contains it
    (False, 1): lambda t: [(CURVE_A, -1), (CURVE_APB, t - 1), (CURVE_B, -1)],
    (False, 2): lambda t: [(CURVE_B, -1), (CURVE_A, -1)] * 3,  # A^2 = -I
    (False, 3): lambda t: [(CURVE_B, 1), (CURVE_APB, t + 1), (CURVE_A, 1)],
    (True, 0): lambda t: [(CURVE_A, -1), (CURVE_B, -1)] * 3,  # A^2 = -I
    (True, 1): lambda t: [(CURVE_A, 1), (CURVE_AMB, t + 1), (CURVE_B, 1)],
    (True, 2): lambda t: [],
    (True, 3): lambda t: [(CURVE_B, -1), (CURVE_AMB, t - 1), (CURVE_A, -1)],
}


# The fewest equal terms that `_factor` makes a run of blocks.  Below
# this, `eval_word` and the shape walk take the factors one by one in less
# time than a block power and a run pairing cost.
_LONG_RUN = 16


def _factor(cf: ContFrac, prime: bool) -> TwistWord:
    """left * middle * mirrored left: factor i of the left half twists
    along b for even i and a for odd i, with exponent terms[i].

    A run of k >= _LONG_RUN equal terms t at index i is the run of
    k // 2 copies of the block (b^t, a^t) for even i, or (a^t, b^t) for
    odd i, then the block's first factor if k is odd; its mirror is the
    image run.  The factors between such runs form one run, and so do the
    middle and the factors on either side of it.
    """
    n = len(cf)
    half = n // 4 * 2 + (n % 4 >= 2)
    left, flat, i = [], [], 0  # the left half's runs, and its factors since the last one
    for t, k in cf.runs:
        centre = i + k > half  # the run holds terms[half]
        if centre:
            k = half - i
        block = ((CURVE_B, t), (CURVE_A, t)) if i % 2 == 0 else ((CURVE_A, t), (CURVE_B, t))
        if k >= _LONG_RUN:
            if flat:
                left.append((tuple(flat), 1))
                flat = []
            left.append((block, k // 2))
        else:
            flat += block * (k // 2)
        flat += block[:k % 2]
        i += k
        if centre:
            break
    mirror = [(tuple([(CST_IMAGES[c], e) for c, e in reversed(block)]), k)
              for block, k in reversed(left)]
    middle = tuple(flat + _MIDDLE[prime, n % 4](t) + [(CST_IMAGES[c], e) for c, e in reversed(flat)])
    return TwistWord(tuple(left + ([(middle, 1)] if middle else []) + mirror), cst=True)


def _word(target: LensTarget) -> tuple[ContFrac, TwistWord]:
    """Expand p/q and factor the target's gluing involution into a mirrored word."""
    cf = expand(target.p, target.q, Flavor.POSITIVE)
    return cf, _factor(cf, prime=target.variant is Variant.C_PRIME)


def factor_C(p: int, q: int) -> TwistWord:
    """Mirrored twist word for the + gluing involution of L(p,q)."""
    return _word(LensTarget(p, q, Variant.C))[1]


def factor_Cprime(p: int, q: int) -> TwistWord:
    """Mirrored twist word for the - gluing involution of L(p,q)."""
    return _word(LensTarget(p, q, Variant.C_PRIME))[1]


def assemble(word: TwistWord) -> ContactDiagram:
    """Contact verdicts over the word's surgery diagram (`base`); raises ShapeError."""
    return legalize(word_to_diagram(validate_equivariant_shape(word)))


def diagram_documents(contact: Optional[ContactDiagram]) -> tuple[Optional[dict], ...]:
    """The JSON documents of the surgery diagram `contact.base` and of
    `contact`, from one pass over `contact.entries()`; (None, None) for a
    word with no shape (`contact` None).

    Each knot list is a RunList with one run (document, `count`) per knot,
    so the copies of a run share one dict; a contact knot document is the
    knot document plus its contact data.
    """
    if contact is None:
        return None, None
    knots, contact_knots = [], []
    for knot, data in contact.entries():
        if knot.torus_type is not None:
            role = {"invariant": knot.torus_type.value}
        else:
            role = {"pair_mirror" if knot.level > 0 else "pair_primary": abs(knot.level)}
        doc = {
            "level": knot.level,
            "curve": list(knot.curve.coords),
            "coeff": f"{knot.coeff:+d}",
            "role": role,
            "type": "/".join(knot.labels),
        }
        glue_back = data.glue_back
        if isinstance(glue_back, Illegal):
            glue_back = f"Illegal({glue_back.reason.value})"
        elif glue_back is not None:
            glue_back = glue_back.value
        knots.append((doc, knot.count))
        contact_knots.append(({**doc, "contact": {
            "tw": data.tw_h,
            "tb": data.tb,
            "coeff": f"{data.contact_coeff:+d}",
            "glue_back": glue_back,
            "legal": data.legal,
            "notes": [],
        }}, knot.count))
    diagram = {"ambient": "S3_cst", "knots": RunList(knots), "notes": []}
    contact_doc = {
        "ambient": "S3_cst",
        "knots": RunList(contact_knots),
        "notes": [],
        "overall_legal": contact.overall_legal,
        # tightness of a built diagram is never decided
        "tightness_hint": TightnessHint.UNKNOWN.value,
    }
    return diagram, contact_doc


class BuildReport(NamedTuple):
    """A finished build; `contact` is None when the word has no equivariant shape."""

    target: LensTarget
    cf: ContFrac
    word: TwistWord
    matrix_ok: bool
    fix_rule_applied: bool
    contact: Optional[ContactDiagram]

    @property
    def palindrome(self) -> bool:
        return is_palindrome(self.cf)

    @property
    def shape_ok(self) -> bool:
        return self.contact is not None

    @property
    def diagram(self) -> Optional[SurgeryDiagram]:
        return None if self.contact is None else self.contact.base

    @property
    def legal(self) -> bool:
        return self.contact is not None and self.contact.overall_legal

    @property
    def flags(self) -> list[str]:
        return [] if self.contact is None else self.contact.flags()

    def census_row(self) -> dict:
        """The verdicts without the diagrams, plus the expansion case n = 4k + r."""
        contact = self.contact
        n = len(self.cf)
        return {
            "p": self.target.p,
            "q": self.target.q,
            "variant": self.target.variant.value,
            "case": f"n={n} (4k+{n % 4})",
            "matrix_ok": self.matrix_ok,
            "shape_ok": contact is not None,
            "legal": contact is not None and contact.overall_legal,
            "fix_rule_applied": self.fix_rule_applied,
            "flags": [] if contact is None else contact.flags(),
        }

    def to_json_dict(self) -> dict:
        diagram, contact = diagram_documents(self.contact)
        return {
            "p": self.target.p,
            "q": self.target.q,
            "variant": self.target.variant.value,
            "cf": list(self.cf.terms),
            "palindrome": self.palindrome,
            "word": format_word(self.word),
            "matrix_ok": self.matrix_ok,
            "shape_ok": self.shape_ok,
            "fix_rule_applied": self.fix_rule_applied,
            "flags": self.flags,
            "legal": self.legal,
            "diagram": diagram,
            "contact": contact,
        }


def _verify(word: TwistWord, expected: IntMatrix) -> tuple[bool, Optional[ContactDiagram]]:
    """The one step from a word to its verdicts, for `build` and every catalog
    entry: whether the word evaluates to `expected`, checked from scratch, and
    its contact diagram, or None when it has no equivariant shape."""
    matrix_ok = eval_word(word) == expected
    try:
        return matrix_ok, assemble(word)
    except ShapeError:
        return matrix_ok, None


def build(p: int, q: int, variant: Variant) -> BuildReport:
    """Factor, verify, and legalize the (p, q) gluing of the given variant.

    One pass: the factored word is scanned once for the rewrite pattern
    a^-1 (a+b)^1 b^-1 and rewritten to (a-b)^-1 if it is there; `_verify`
    then checks the final word against the target and assembles it.
    """
    target = LensTarget(p, q, variant)
    cf, word = _word(target)
    # Outer exponents are terms >= 2, so the pattern can only sit in a middle,
    # and only _MIDDLE's (C, 4k+1) entry at t = 2 spells it: a positive c4
    # knot, always illegal, which the rewrite makes a c1 knot.
    at = find_fix_rule(word)
    if at is not None:
        word = apply_fix_rule(word, at)
    matrix_ok, contact = _verify(word, target.matrix)
    return BuildReport(target, cf, word, matrix_ok, at is not None, contact)


# ---------------------------------------------------------------------------
# Catalogs


class CatalogEntry(NamedTuple):
    """A catalog word with its verdicts from `_verify`, taken once when the
    catalog is built; `contact` is None when the word has no shape."""

    name: str
    word: TwistWord
    expected_matrix: IntMatrix
    summary: str
    tightness_hint: TightnessHint
    matrix_ok: bool
    contact: Optional[ContactDiagram]

    def diagrams(self) -> tuple[SurgeryDiagram, ContactDiagram]:
        """The surgery and the contact diagram of an entry with a shape."""
        return self.contact.base, self.contact

    def to_json_dict(self) -> dict:
        diagram, contact = diagram_documents(self.contact)
        return {
            "name": self.name,
            "word": format_word(self.word),
            "expected_matrix": self.expected_matrix.to_lists(),
            "matrix_ok": self.matrix_ok,
            "summary": self.summary,
            "tightness_hint": self.tightness_hint.value,
            "diagram": diagram,
            "contact": contact,
        }


def _entry(name: str, factors, expected: list, summary: str, hint: TightnessHint) -> CatalogEntry:
    """The catalog entry of the word `factors | cst`, verified against `expected`."""
    word, matrix = TwistWord.of(factors, cst=True), IntMatrix.from_rows(expected)
    return CatalogEntry(name, word, matrix, summary, hint, *_verify(word, matrix))


def catalog_s1xs2() -> list[CatalogEntry]:
    """The four real structures on S^1 x S^2 with their surgery diagrams."""
    return [
        _entry("s1", [(CURVE_APB, -1)], [[-1, 2], [0, 1]],
               "equivariant (-1)-surgery of type 4_2 on the unknot a+b",
               TightnessHint.TIGHT),
        _entry("s2", [(CURVE_AMB, 1)], [[1, 2], [0, -1]],
               "equivariant (+1)-surgery of type 1_1 on the unknot a-b",
               TightnessHint.TIGHT),
        _entry("s3", [(CURVE_B, -1), (CURVE_A, -1)], [[-1, 1], [0, 1]],
               "equivariant (+1)-surgery of type 5 on the Hopf pair (a, b)",
               TightnessHint.TIGHT),
        _entry("s4", [(CURVE_B, 1), (CURVE_A, 1)], [[1, 1], [0, -1]],
               "equivariant (-1)-surgery of type 5 on the Hopf pair (a, b)",
               TightnessHint.OVERTWISTED),
    ]


def catalog_rp3() -> CatalogEntry:
    return _entry("rp3", [(CURVE_AMB, -1)], [[-1, 0], [2, 1]],
                  "RP^3: a single equivariant (-1)-surgery of type 1_1 on the unknot a-b",
                  TightnessHint.TIGHT)


# ---------------------------------------------------------------------------
# Chains of unknots


class ChainReport(NamedTuple):
    p: int
    q: int
    coefficients: tuple[int, ...]
    count: int  # number of stabilization assignments

    def rotation_choices(self) -> list[tuple[int, ...]]:
        """Per knot, the rotation numbers reachable by stabilizing
        tb from -1 down to r_i + 1 (|r_i + 1| choices)."""
        return [tuple(range(r + 2, -r - 1, 2)) for r in self.coefficients]

    def assignments(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(*self.rotation_choices())

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "coefficients": list(self.coefficients),
            "rotation_choices": [list(c) for c in self.rotation_choices()],
            "count": self.count,
        }


def type_A_chain(p: int, q: int) -> ChainReport:
    """Chain of unknots presenting L(p,q): one c1-knot per term of the
    negative expansion of p/q, each a contact (-1)-surgery of type 1_1.

    The number of stabilization assignments equals |prod(r_i + 1)|.
    """
    cf = expand(p, q, Flavor.NEGATIVE)
    return ChainReport(p, q, cf.terms, honda_count(cf))
