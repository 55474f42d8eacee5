"""Equivariant contact-surgery legality.

Converts surface-framed smooth coefficients to contact coefficients,
classifies the real structure on the glued-back solid torus of a contact
1/q-surgery, checks which slopes admit equivariantly tight solid tori,
and promotes a SurgeryDiagram to a ContactDiagram with per-knot verdicts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd
from typing import Union

from .matrices import CurveClass
from .surgery import SurgeryDiagram, SurgeryKnot, TorusType, heegaard_minus_seifert


class ContactError(ValueError):
    pass


@dataclass(frozen=True)
class Slope:
    """Boundary slope num/den, normalized to den >= 0; 1/0 is infinity."""

    num: int
    den: int

    def __post_init__(self):
        if self.num == 0 and self.den == 0:
            raise ContactError("slope 0/0 is undefined")
        g = gcd(self.num, self.den)
        norm_num, norm_den = self.num // g, self.den // g
        if norm_den < 0:
            norm_num, norm_den = -norm_num, -norm_den
        if (norm_num, norm_den) != (self.num, self.den):
            object.__setattr__(self, "num", norm_num)
            object.__setattr__(self, "den", norm_den)

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    def __str__(self) -> str:
        return "inf" if self.is_infinite else f"{self.num}/{self.den}"


def tight_solid_torus_exists(t: TorusType, s: Slope) -> bool:
    """Whether a tight solid torus with the given real structure realizes
    boundary slope s.  All four types need slope 1/k; c3 additionally
    needs k odd, c4 needs k even (infinity counts as k = 0)."""
    if abs(s.num) != 1:
        return False
    if t in (TorusType.C1, TorusType.C2):
        return True
    if t is TorusType.C3:
        return s.den % 2 == 1
    return s.den % 2 == 0


class IllegalReason(enum.Enum):
    NO_SLOPE = "NoSlope"
    C3_KNOT = "C3Knot"
    NOT_UNIT_NUMERATOR = "NotUnitNumerator"
    POSITIVE_C4_MIDDLE = "PositiveC4Middle"


@dataclass(frozen=True)
class Illegal:
    reason: IllegalReason
    detail: str = ""

    def __str__(self) -> str:
        return f"Illegal({self.reason.value})"


def contact_glueback(k: TorusType, q: int, p_prime: int) -> Union[TorusType, Illegal]:
    """Real structure after an equivariant contact 1/q-surgery on a c_k-knot.

    The gluing has p = 1; q' = q*p' - 1 is computed internally.  A
    Legendrian c3-knot admits no equivariant contact surgery at all.
    """
    q_prime = q * p_prime - 1
    if k is TorusType.C1:
        return TorusType.C1
    if k is TorusType.C2:
        if q % 2 == 0:
            return TorusType.C2
        return TorusType.C4 if q_prime % 2 == 1 else TorusType.C3
    if k is TorusType.C3:
        return Illegal(IllegalReason.C3_KNOT, "no equivariant contact surgery on a c3-knot")
    if q % 2 == 1:
        return TorusType.C2
    return TorusType.C4 if p_prime % 2 == 0 else TorusType.C3


def tw_wrt_heegaard(curve: CurveClass) -> int:
    """Twisting of the (m,n)-curve relative to the Heegaard torus: -|m+n|.

    The dividing set consists of two parallel (1,-1)-curves, so the
    geometric intersection count is 2|m+n| and tw = -|m+n|.
    """
    if curve.genus != 1:
        raise ContactError("twisting data is only defined at genus 1")
    m, n = curve.coords
    return -abs(m + n)


def thurston_bennequin(curve: CurveClass) -> int:
    return tw_wrt_heegaard(curve) + heegaard_minus_seifert(curve)


def contact_coefficient(smooth_coeff_h: int, tw_h: int) -> int:
    """Contact surgery coefficient from a surface-framed smooth one."""
    return smooth_coeff_h - tw_h


class TightnessHint(enum.Enum):
    TIGHT = "Tight"
    OVERTWISTED = "Overtwisted"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class ContactKnotData:
    tw_h: int
    tb: int
    contact_coeff: int
    glue_back: Union[TorusType, Illegal, None]  # None for pair knots
    legal: bool
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        if self.glue_back is None:
            gb = None
        elif isinstance(self.glue_back, Illegal):
            gb = str(self.glue_back)
        else:
            gb = self.glue_back.value
        return {
            "tw": self.tw_h,
            "tb": self.tb,
            "coeff": f"{self.contact_coeff:+d}",
            "glue_back": gb,
            "legal": self.legal,
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class ContactDiagram:
    base: SurgeryDiagram
    knot_data: tuple[ContactKnotData, ...]  # aligned with base.knots
    overall_legal: bool
    tightness_hint: TightnessHint = TightnessHint.UNKNOWN

    def flags(self) -> list[str]:
        """The reason of every illegal knot, once per copy."""
        out = []
        for knot, d in zip(self.base.knots, self.knot_data):
            if isinstance(d.glue_back, Illegal):
                out += [d.glue_back.reason.value] * knot.count
        return out

    def entries(self) -> list[tuple[SurgeryKnot, ContactKnotData]]:
        """Every knot with its contact data in print order: the pair knots,
        whose data is computed here, then the invariant knots."""
        pairs = [(k, _knot_data(k, False)) for k in self.base.pair_knots()]
        return pairs + list(zip(self.base.knots, self.knot_data))

    def to_json_dict(self) -> dict:
        knots = []
        for knot, data in self.entries():
            doc = {**knot.to_json_dict(), "contact": data.to_json_dict()}
            knots += [doc] * knot.count
        return {
            **self.base.to_json_dict(),
            "knots": knots,
            "overall_legal": self.overall_legal,
            "tightness_hint": self.tightness_hint.value,
        }

    def render_text(self) -> str:
        lines = [self.base.render_text()]
        for knot, data in self.entries():
            d = data.to_json_dict()
            line = (
                f"  contact level {knot.level:+d}: tw {d['tw']} tb {d['tb']} "
                f"coeff {d['coeff']} glue_back {d['glue_back']} "
                f"{'legal' if data.legal else 'ILLEGAL'}"
            )
            lines += [line] * knot.count
        lines.append(f"overall_legal: {self.overall_legal}")
        return "\n".join(lines)


def _knot_data(knot: SurgeryKnot, fix_rule_available: bool) -> ContactKnotData:
    tw = tw_wrt_heegaard(knot.curve)
    tb = thurston_bennequin(knot.curve)
    cc = contact_coefficient(knot.coeff, tw)
    ttype = knot.torus_type
    if ttype is None:  # a pair knot: always legal
        return ContactKnotData(tw, tb, cc, None, True)
    if ttype is TorusType.C3:
        verdict = Illegal(IllegalReason.C3_KNOT)
    elif cc in (1, -1):
        # An integer is 1/q only for q = cc.  Canonical glue-back uses
        # p' = 0; the branches that depend on the parity of p' are
        # neither resolved nor recorded.
        verdict = contact_glueback(ttype, cc, 0)
    elif cc == 0:
        verdict = Illegal(IllegalReason.NO_SLOPE, "contact coefficient 0")
    elif ttype is TorusType.C4 and cc > 0:
        verdict = Illegal(
            IllegalReason.POSITIVE_C4_MIDDLE,
            f"contact coefficient {cc} on a c4-knot has no equivariant realization",
        )
    else:
        verdict = Illegal(
            IllegalReason.NOT_UNIT_NUMERATOR,
            f"contact coefficient {cc} is not of the form 1/q",
        )
    legal = not isinstance(verdict, Illegal)
    notes = ("fix rule applicable",) if not legal and fix_rule_available else ()
    return ContactKnotData(tw, tb, cc, verdict, legal, notes)


def legalize(d: SurgeryDiagram, fix_rule_available: bool = False) -> ContactDiagram:
    """Promote a surgery diagram to a contact one.

    Invariant knots are classified through the glue-back table, one
    verdict per knot of `d.knots`, which covers all `count` copies.
    Mirrored pair knots only need Legendrian representatives respecting
    the pairing, so they are always legal; their framing data is computed
    where it is printed (`ContactDiagram.entries`).  When a knot is
    illegal but the word upstream contains the rewrite pattern
    a^-1 (a+b)^1 b^-1, the verdict notes that the rewrite applies.
    """
    data = tuple(_knot_data(knot, fix_rule_available) for knot in d.knots)
    return ContactDiagram(d, data, all(e.legal for e in data))
