"""Topological classification of equivariant surgeries.

Covers the four solid-torus real structures, the extension rule for a
(p/q)-surgery along a c_i-knot, surgery type labels i_j, the effect on
the number of real-part components, and the conversion of a validated
equivariant twist word into a leveled surgery diagram.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .matrices import CurveClass
from .words import CST, EquivariantShape, curve_name


class TorusType(enum.Enum):
    """The four real structures on the solid torus."""

    C1 = "c1"  # (y, x) -> (-y, -x): reflection, fixes two points per core
    C2 = "c2"  # x -> x + 1/2: meridional half-shift, core pointwise fixed
    C3 = "c3"  # y -> y + 1/2: longitudinal half-shift
    C4 = "c4"  # both half-shifts

    def __str__(self) -> str:
        return self.value


class SurgeryError(ValueError):
    pass


@dataclass(frozen=True)
class SurgerySpec:
    """Gluing data of a (p/q)-surgery: meridian -> p*mu + q*lambda,
    longitude -> p'*mu + q'*lambda, with p*q' - q*p' = -1."""

    p: int
    q: int
    p_prime: int
    q_prime: int

    def __post_init__(self):
        if self.p * self.q_prime - self.q * self.p_prime != -1:
            raise SurgeryError(
                f"invalid gluing data: p*q' - q*p' = "
                f"{self.p * self.q_prime - self.q * self.p_prime}, expected -1"
            )


def spec_for_integer_coeff(coeff: int, p_prime: int = 0) -> SurgerySpec:
    """Gluing data for an integer surface-framed coefficient (|coeff| = 1)."""
    if coeff not in (1, -1):
        raise SurgeryError(f"only coefficient +-1 surgeries arise here, got {coeff}")
    p, q = coeff, 1
    # p*q' - q*p' = -1 with p = +-1  =>  q' = p*(p' - 1) ... solve directly
    q_prime = (q * p_prime - 1) // p
    return SurgerySpec(p, q, p_prime, q_prime)


def extension_type(knot: TorusType, s: SurgerySpec) -> TorusType:
    """The unique real structure on the glued-back solid torus."""
    p, q, pp, qp = s.p, s.q, s.p_prime, s.q_prime
    if knot is TorusType.C1:
        return TorusType.C1
    if knot is TorusType.C2:
        if q % 2 == 0:
            return TorusType.C2
        return TorusType.C3 if qp % 2 == 0 else TorusType.C4
    if knot is TorusType.C3:
        if p % 2 == 0:
            return TorusType.C2
        return TorusType.C3 if pp % 2 == 0 else TorusType.C4
    if (p + q) % 2 == 0:
        return TorusType.C2
    return TorusType.C3 if (pp + qp) % 2 == 0 else TorusType.C4


@dataclass(frozen=True)
class SurgeryLabel:
    """Type i_j: a c_i solid torus excised, a c_j one glued back."""

    excised: TorusType
    glued: TorusType

    def __str__(self) -> str:
        return f"{self.excised.value[1]}_{self.glued.value[1]}"


def surgery_type_label(knot: TorusType, s: SurgerySpec) -> SurgeryLabel:
    return SurgeryLabel(knot, extension_type(knot, s))


def type_labels_for_coeff(knot: TorusType, coeff: int) -> tuple[SurgeryLabel, ...]:
    """All labels a +-1 surgery can carry across meridional-twist choices.

    A meridional Dehn twist changes the parity of p' and q', so branches
    that depend on those parities yield two labels (diffeomorphic but not
    isotopic results); unambiguous branches yield one.
    """
    labels = []
    for p_prime in (0, 1):
        label = surgery_type_label(knot, spec_for_integer_coeff(coeff, p_prime))
        if label not in labels:
            labels.append(label)
    return tuple(labels)


def fix_delta(label: Union[SurgeryLabel, str],
              same_component: Optional[bool] = None) -> int:
    """Change in the number of real-part components.

    `label` may be a SurgeryLabel or the string "5" for a mirrored pair.
    For a 1_1 surgery the caller must say whether the two fixed points of
    the knot lie on the same real component.
    """
    if isinstance(label, str):
        if label == "5":
            return 0
        raise SurgeryError(f"unknown label {label!r}")
    name = str(label)
    if name == "1_1":
        if same_component is None:
            raise SurgeryError("1_1 surgery needs the same_component flag")
        return 1 if same_component else -1
    if name in ("2_3", "2_4"):
        return -1
    if name in ("3_2", "4_2"):
        return 1
    # 3_4, 4_3 do not alter the real part; neither do 2_2, 3_3, 4_4.
    return 0


def heegaard_minus_seifert(curve: CurveClass) -> int:
    """Framing gap on the genus-1 splitting of S^3: (m,n) -> m*n."""
    if curve.genus != 1:
        raise SurgeryError("surface framing data is only defined at genus 1")
    m, n = curve.coords
    return m * n


# ---------------------------------------------------------------------------
# Boundary-torus conjugation oracle

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
    """Independent oracle: the unique c_j with c_i o phi = phi o c_j.

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
    if len(matches) != 1:
        raise SurgeryError(
            f"conjugation equation has {len(matches)} solutions for "
            f"{knot} and {s}; expected exactly one"
        )
    return matches[0]


# ---------------------------------------------------------------------------
# Diagrams

# Knot types of the invariant genus-1 curves under the standard gluing
# involution.  Only these entries are established; anything else is an
# error rather than a guess.
_CST_KNOT_TYPES = {
    CurveClass.of(1, -1): TorusType.C1,
    CurveClass.of(1, 1): TorusType.C4,
}


def knot_type_under_cst(curve: CurveClass) -> TorusType:
    try:
        return _CST_KNOT_TYPES[curve]
    except KeyError:
        raise SurgeryError(
            f"no known solid-torus type for invariant curve {curve_name(curve)} "
            "under the standard involution"
        ) from None


@dataclass(frozen=True)
class SurgeryKnot:
    """A knot of a leveled surgery link, or a run of `count` parallel copies.

    The level gives the role: pair i is the primary knot on level -i and
    its mirror image on level +i, and invariant knots sit on level 0.
    `torus_type` is the solid-torus type of an invariant knot and None
    for a pair knot.
    """

    level: int
    curve: CurveClass
    coeff: int
    torus_type: Optional[TorusType] = None
    labels: tuple = ()  # SurgeryLabel entries, or the string "5" for pairs
    count: int = 1

    def to_json_dict(self) -> dict:
        if self.torus_type is not None:
            role = {"invariant": self.torus_type.value}
        else:
            key = "pair_mirror" if self.level > 0 else "pair_primary"
            role = {key: abs(self.level)}
        return {
            "level": self.level,
            "curve": list(self.curve.coords),
            "coeff": f"{self.coeff:+d}",
            "role": role,
            "type": "/".join(str(l) for l in self.labels),
        }


@dataclass(frozen=True)
class SurgeryDiagram:
    """A leveled surgery link.

    `knots` holds the invariant knots; a knot with `count` m stands for m
    parallel copies.  `pairs` holds the mirrored pairs as (primary curve,
    mirror curve, coeff), deepest first: pair idx sits on levels -i and
    +i with i = len(pairs) - idx.  The renderers print the pair knots,
    then one entry per copy of each invariant knot; in `to_json_dict`
    the copies of a knot share one document.
    """

    ambient: str
    knots: tuple[SurgeryKnot, ...]
    pairs: tuple[tuple[CurveClass, CurveClass, int], ...] = ()
    notes: tuple[str, ...] = ()

    def invariant_knots(self) -> list[SurgeryKnot]:
        return list(self.knots)

    def pair_knots(self) -> list[SurgeryKnot]:
        """Each pair's primary (level -i) and mirror (level +i) knot, deepest first."""
        out = []
        t = len(self.pairs)
        for idx, (primary, mirror, coeff) in enumerate(self.pairs):
            out.append(SurgeryKnot(idx - t, primary, coeff, None, ("5",)))
            out.append(SurgeryKnot(t - idx, mirror, coeff, None, ("5",)))
        return out

    def to_json_dict(self) -> dict:
        knots = []
        for k in self.pair_knots() + list(self.knots):
            knots += [k.to_json_dict()] * k.count
        return {"ambient": self.ambient, "knots": knots, "notes": list(self.notes)}

    def render_text(self) -> str:
        lines = [f"ambient: {self.ambient}"]
        for k in sorted(self.pair_knots() + list(self.knots), key=lambda k: k.level):
            d = k.to_json_dict()
            line = (
                f"  level {k.level:+d}: {curve_name(k.curve)} "
                f"coeff {d['coeff']} role {d['role']} type {d['type']}"
            )
            lines += [line] * k.count
        return "\n".join(lines)


def word_to_diagram(shape: EquivariantShape, ambient: str = "S3_cst") -> SurgeryDiagram:
    """Leveled surgery link realizing the equivariant product.

    Outer factor (gamma, sigma) becomes a mirrored knot pair on levels
    -i/+i with surface-framed coefficient -sigma on both; each middle
    run (gamma, m) becomes one invariant knot at level 0 with coefficient
    sign(m) and count |m|.  Knot types of invariant curves come from the
    built-in genus-1 table for the standard involution.
    """
    if shape.base != CST:
        raise SurgeryError("diagram emission currently supports the standard base only")
    pairs = tuple(
        (curve, mirror, -exp) for (curve, exp), mirror in zip(shape.outer, shape.mirror)
    )
    knots = []
    for curve, exp in shape.middle:
        tt = knot_type_under_cst(curve)
        unit = 1 if exp > 0 else -1
        labels = type_labels_for_coeff(tt, unit)
        knots.append(SurgeryKnot(0, curve, unit, tt, labels, abs(exp)))
    return SurgeryDiagram(ambient, tuple(knots), pairs)
