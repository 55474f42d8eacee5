"""Lens-space factorization pipeline and the example catalogs.

Factors the two gluing involutions +-[[-q, p'], [p, q]] of L(p,q) (for
q^2 = 1 mod p) into mirrored twist words over the standard base, verifies
them against the target matrix, emits surgery and contact diagrams, and
provides the S^1 x S^2, RP^3 and chain-of-unknots catalogs.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from math import gcd
from typing import Iterator, Optional

from .contact import ContactDiagram, TightnessHint, legalize
from .contfrac import ContFrac, Flavor, expand, honda_count, is_palindrome
from .matrices import CurveClass, IntMatrix
from .surgery import SurgeryDiagram, word_to_diagram
from .words import (
    CST,
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


class InadmissiblePair(ValueError):
    pass


class Variant(enum.Enum):
    C = "C"
    C_PRIME = "C'"

    @staticmethod
    def parse(text: str) -> "Variant":
        if text in ("C", "c"):
            return Variant.C
        if text in ("C'", "c'", "Cprime", "cprime", "C_prime"):
            return Variant.C_PRIME
        raise InadmissiblePair(f"unknown variant {text!r}")


@dataclass(frozen=True)
class LensTarget:
    """Gluing involution of L(p,q): +-[[-q, p'], [p, q]] with q^2 + p*p' = 1."""

    p: int
    q: int
    variant: Variant

    def __post_init__(self):
        p, q = self.p, self.q
        if not (p > q > 0):
            raise InadmissiblePair(f"need p > q > 0, got ({p}, {q})")
        if gcd(p, q) != 1:
            raise InadmissiblePair(f"({p}, {q}) are not coprime")
        if (q * q) % p != 1 % p:
            raise InadmissiblePair(
                f"q^2 = {q * q % p} mod {p}; the gluing map is an involution "
                "only when q^2 = 1 mod p"
            )

    @property
    def p_prime(self) -> int:
        return (1 - self.q * self.q) // self.p

    @property
    def matrix(self) -> IntMatrix:
        m = IntMatrix.from_rows([[-self.q, self.p_prime], [self.p, self.q]])
        return m if self.variant is Variant.C else -m


def admissible_pairs(max_p: int) -> list[tuple[int, int]]:
    """All (p, q) with 2 <= p <= max_p, 0 < q < p, gcd 1, q^2 = 1 mod p."""
    return [
        (p, q)
        for p in range(2, max_p + 1)
        for q in range(1, p)
        if gcd(p, q) == 1 and (q * q) % p == 1 % p
    ]


def _half(count: int, terms: tuple[int, ...],
          odd: CurveClass = CURVE_B, even: CurveClass = CURVE_A) -> list[tuple[CurveClass, int]]:
    # Factor i (1-based) twists along `odd` for odd i and `even` for even i.
    return [(odd if i % 2 == 1 else even, terms[i - 1]) for i in range(1, count + 1)]


# The base's images of the curves `_half` twists along by default.
_MIRROR_ODD, _MIRROR_EVEN = CURVE_B.image_under(CST), CURVE_A.image_under(CST)


def _mirrored(count: int, terms: tuple[int, ...]) -> list[tuple[CurveClass, int]]:
    """The mirror image of `_half(count, terms)`: base images, in reverse order."""
    return _half(count, terms, _MIRROR_ODD, _MIRROR_EVEN)[::-1]


_SIX_BA = [(CURVE_B, -1), (CURVE_A, -1)] * 3  # b^-1 a^-1 repeated, = A^2 = -I
_SIX_AB = [(CURVE_A, -1), (CURVE_B, -1)] * 3


def _factor(terms: tuple[int, ...], prime: bool) -> TwistWord:
    n = len(terms)
    k, case = divmod(n, 4)
    if not prime:
        if case == 0:
            left = _half(2 * k, terms)
            middle: list[tuple[CurveClass, int]] = []
        elif case == 1:
            left = _half(2 * k, terms)
            middle = [(CURVE_A, -1), (CURVE_APB, terms[2 * k] - 1), (CURVE_B, -1)]
        elif case == 2:
            left = _half(2 * k + 1, terms)
            middle = list(_SIX_BA)
        else:
            left = _half(2 * k + 1, terms)
            middle = [(CURVE_B, 1), (CURVE_APB, terms[2 * k + 1] + 1), (CURVE_A, 1)]
    else:
        if case == 0:
            left = _half(2 * k, terms)
            middle = list(_SIX_AB)
        elif case == 1:
            left = _half(2 * k, terms)
            middle = [(CURVE_A, 1), (CURVE_AMB, terms[2 * k] + 1), (CURVE_B, 1)]
        elif case == 2:
            left = _half(2 * k + 1, terms)
            middle = []
        else:
            left = _half(2 * k + 1, terms)
            middle = [(CURVE_B, -1), (CURVE_AMB, terms[2 * k + 1] - 1), (CURVE_A, -1)]
    factors = left + middle + _mirrored(len(left), terms)
    return TwistWord.of(factors, base=CST)


def _word(target: LensTarget) -> tuple[ContFrac, TwistWord]:
    """Expand p/q and factor the target's gluing involution into a mirrored word."""
    cf = expand(target.p, target.q, Flavor.POSITIVE)
    return cf, _factor(cf.terms, prime=target.variant is Variant.C_PRIME)


def factor_C(p: int, q: int) -> TwistWord:
    """Mirrored twist word for the + gluing involution of L(p,q)."""
    return _word(LensTarget(p, q, Variant.C))[1]


def factor_Cprime(p: int, q: int) -> TwistWord:
    """Mirrored twist word for the - gluing involution of L(p,q)."""
    return _word(LensTarget(p, q, Variant.C_PRIME))[1]


def assemble(word: TwistWord) -> tuple[SurgeryDiagram, ContactDiagram]:
    """Shape, surgery diagram and contact verdicts of a word; raises ShapeError.

    The verdicts note that the fix rule applies when the word contains
    the rewrite pattern a^-1 (a+b)^1 b^-1.
    """
    diagram = word_to_diagram(validate_equivariant_shape(word))
    return diagram, legalize(diagram, fix_rule_available=find_fix_rule(word) is not None)


@dataclass(frozen=True)
class BuildReport:
    target: LensTarget
    cf: ContFrac
    palindrome: bool
    word: TwistWord
    matrix_ok: bool
    shape_ok: bool
    fix_rule_applied: bool
    diagram: Optional[SurgeryDiagram]
    contact: Optional[ContactDiagram]

    @property
    def legal(self) -> bool:
        return self.contact is not None and self.contact.overall_legal

    @property
    def flags(self) -> list[str]:
        return [] if self.contact is None else self.contact.flags()

    def census_row(self) -> dict:
        """The verdicts without the diagrams, plus the expansion case n = 4k + r."""
        n = len(self.cf)
        return {
            "p": self.target.p,
            "q": self.target.q,
            "variant": self.target.variant.value,
            "case": f"n={n} (4k+{n % 4})",
            "matrix_ok": self.matrix_ok,
            "shape_ok": self.shape_ok,
            "legal": self.legal,
            "fix_rule_applied": self.fix_rule_applied,
            "flags": self.flags,
        }

    def to_json_dict(self) -> dict:
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
            "diagram": None if self.diagram is None else self.diagram.to_json_dict(),
            "contact": None if self.contact is None else self.contact.to_json_dict(),
        }


def build(p: int, q: int, variant: Variant) -> BuildReport:
    """Factor, verify, and legalize the (p, q) gluing of the given variant.

    The matrix verdict is recomputed from scratch; when the emitted word
    contains the rewrite pattern a^-1 (a+b)^1 b^-1 and the raw contact
    diagram is illegal, the rewrite is applied and the diagram rebuilt.
    """
    target = LensTarget(p, q, variant)
    cf, word = _word(target)
    palindrome = is_palindrome(cf)
    matrix_ok = eval_word(word) == target.matrix
    try:
        diagram, contact = assemble(word)
    except ShapeError:
        return BuildReport(target, cf, palindrome, word, matrix_ok, False, False, None, None)
    fix_applied = False
    if not contact.overall_legal and find_fix_rule(word) is not None:
        fixed = apply_fix_rule(word)
        if eval_word(fixed) == target.matrix:
            word = fixed
            matrix_ok = True
            fix_applied = True
            diagram, contact = assemble(word)
    return BuildReport(
        target, cf, palindrome, word, matrix_ok, True, fix_applied, diagram, contact
    )


# ---------------------------------------------------------------------------
# Catalogs


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    word: TwistWord
    expected_matrix: IntMatrix
    summary: str
    tightness_hint: TightnessHint

    @property
    def matrix_ok(self) -> bool:
        return eval_word(self.word) == self.expected_matrix

    def diagrams(self) -> tuple[SurgeryDiagram, ContactDiagram]:
        return assemble(self.word)

    def to_json_dict(self) -> dict:
        d, c = self.diagrams()
        return {
            "name": self.name,
            "word": format_word(self.word),
            "expected_matrix": self.expected_matrix.to_lists(),
            "matrix_ok": self.matrix_ok,
            "summary": self.summary,
            "tightness_hint": self.tightness_hint.value,
            "diagram": d.to_json_dict(),
            "contact": c.to_json_dict(),
        }


def catalog_s1xs2() -> list[CatalogEntry]:
    """The four real structures on S^1 x S^2 with their surgery diagrams."""
    return [
        CatalogEntry(
            "s1",
            TwistWord.of([(CURVE_APB, -1)], base=CST),
            IntMatrix.from_rows([[-1, 2], [0, 1]]),
            "equivariant (-1)-surgery of type 4_2 on the unknot a+b",
            TightnessHint.TIGHT,
        ),
        CatalogEntry(
            "s2",
            TwistWord.of([(CURVE_AMB, 1)], base=CST),
            IntMatrix.from_rows([[1, 2], [0, -1]]),
            "equivariant (+1)-surgery of type 1_1 on the unknot a-b",
            TightnessHint.TIGHT,
        ),
        CatalogEntry(
            "s3",
            TwistWord.of([(CURVE_B, -1), (CURVE_A, -1)], base=CST),
            IntMatrix.from_rows([[-1, 1], [0, 1]]),
            "equivariant (+1)-surgery of type 5 on the Hopf pair (a, b)",
            TightnessHint.TIGHT,
        ),
        CatalogEntry(
            "s4",
            TwistWord.of([(CURVE_B, 1), (CURVE_A, 1)], base=CST),
            IntMatrix.from_rows([[1, 1], [0, -1]]),
            "equivariant (-1)-surgery of type 5 on the Hopf pair (a, b)",
            TightnessHint.OVERTWISTED,
        ),
    ]


def catalog_rp3() -> CatalogEntry:
    return CatalogEntry(
        "rp3",
        TwistWord.of([(CURVE_AMB, -1)], base=CST),
        IntMatrix.from_rows([[-1, 0], [2, 1]]),
        "RP^3: a single equivariant (-1)-surgery of type 1_1 on the unknot a-b",
        TightnessHint.TIGHT,
    )


# ---------------------------------------------------------------------------
# Chains of unknots


@dataclass(frozen=True)
class ChainReport:
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
