"""Equivariant contact-surgery legality.

Converts surface-framed smooth coefficients to contact coefficients,
classifies the real structure on the glued-back solid torus of a contact
1/q-surgery, checks which slopes admit equivariantly tight solid tori,
and promotes a SurgeryDiagram to a ContactDiagram with per-knot verdicts.
The records are tuples (see `eqsurg.matrices`).
"""

from __future__ import annotations

import enum
from collections import namedtuple
from math import gcd
from typing import NamedTuple, Union

from .matrices import CurveClass
from .surgery import (
    SurgeryDiagram,
    SurgeryKnot,
    TorusType,
    heegaard_minus_seifert,
    knot_type_under_cst,
)
from .words import CURVE_AMB, CURVE_APB


class ContactError(ValueError):
    pass


class RunList(list):
    """The list of k references to the item of each run (item, k) in
    `runs`, k >= 1, which keeps `runs` so that a renderer handles a run
    once.  It is not mutated after it is built."""

    __slots__ = ("runs",)

    def __init__(self, runs: list):
        self.runs = runs
        for item, k in runs:
            if k < 1:
                raise ValueError(f"a run holds its item at least once, got {k}")
            self += [item] * k


class Slope(namedtuple("Slope", "num den")):
    """Boundary slope num/den, normalized to den >= 0; 1/0 is infinity."""

    __slots__ = ()

    def __new__(cls, num: int, den: int) -> "Slope":
        if num == 0 and den == 0:
            raise ContactError("slope 0/0 is undefined")
        g = gcd(num, den)
        num, den = num // g, den // g
        if den < 0:
            num, den = -num, -den
        return tuple.__new__(cls, (num, den))


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


class Illegal(NamedTuple):
    reason: IllegalReason


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
        return Illegal(IllegalReason.C3_KNOT)
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


class ContactKnotData(NamedTuple):
    tw_h: int
    tb: int
    contact_coeff: int
    glue_back: Union[TorusType, Illegal, None]  # None for pair knots

    @property
    def legal(self) -> bool:
        return not isinstance(self.glue_back, Illegal)


class ContactDiagram(NamedTuple):
    base: SurgeryDiagram
    knot_data: tuple[ContactKnotData, ...]  # aligned with base.knots

    @property
    def overall_legal(self) -> bool:
        # pair knots are always legal; a loop costs a census row less than all()
        for d in self.knot_data:
            if not d.legal:
                return False
        return True

    def flags(self) -> RunList:
        """The reason of every illegal knot, as a run of `count` copies."""
        return RunList([(d.glue_back.reason.value, knot.count) for knot, d in
                        zip(self.base.knots, self.knot_data) if not d.legal])

    def entries(self) -> list[tuple[SurgeryKnot, ContactKnotData]]:
        """Every knot with its contact data in document order: the pair knots,
        whose data is computed here, then the invariant knots."""
        pairs = [(k, _knot_data(k)) for k in self.base.pair_knots()]
        return pairs + list(zip(self.base.knots, self.knot_data))


def _knot_data(knot: SurgeryKnot) -> ContactKnotData:
    tw = tw_wrt_heegaard(knot.curve)
    tb = thurston_bennequin(knot.curve)
    cc = contact_coefficient(knot.coeff, tw)
    ttype = knot.torus_type
    if ttype is None:  # a pair knot: always legal
        return ContactKnotData(tw, tb, cc, None)
    if ttype is TorusType.C3:
        verdict = Illegal(IllegalReason.C3_KNOT)
    elif cc in (1, -1):
        # An integer is 1/q only for q = cc.  Canonical glue-back uses
        # p' = 0; the branches that depend on the parity of p' are
        # neither resolved nor recorded.
        verdict = contact_glueback(ttype, cc, 0)
    elif cc == 0:
        verdict = Illegal(IllegalReason.NO_SLOPE)
    elif ttype is TorusType.C4 and cc > 0:
        verdict = Illegal(IllegalReason.POSITIVE_C4_MIDDLE)
    else:
        verdict = Illegal(IllegalReason.NOT_UNIT_NUMERATOR)
    return ContactKnotData(tw, tb, cc, verdict)


# The data of every invariant knot that `surgery.word_to_diagram` makes: a
# unit surgery on a+b or a-b, whose torus type is known under the standard
# involution.  Computed once, at import, by `_knot_data` itself.
_INVARIANT_DATA = {
    (k.curve, k.coeff, k.torus_type): _knot_data(k)
    for k in (SurgeryKnot(0, curve, coeff, knot_type_under_cst(curve))
              for curve in (CURVE_APB, CURVE_AMB) for coeff in (1, -1))
}


def legalize(d: SurgeryDiagram) -> ContactDiagram:
    """Promote a surgery diagram to a contact one.

    Invariant knots are classified through the glue-back table, one
    verdict per knot of `d.knots`, which covers all `count` copies; the
    data of a knot the pipeline makes is read from `_INVARIANT_DATA`, and
    any other knot's is computed.  Mirrored pair knots only need
    Legendrian representatives respecting the pairing, so they are always
    legal; their framing data is computed when the documents read
    `ContactDiagram.entries`.
    """
    return ContactDiagram(d, tuple(
        _INVARIANT_DATA.get((knot.curve, knot.coeff, knot.torus_type)) or _knot_data(knot)
        for knot in d.knots
    ))
