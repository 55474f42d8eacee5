"""Topological classification of equivariant surgeries.

Covers the four solid-torus real structures, the extension rule for a
(p/q)-surgery along a c_i-knot, surgery type labels i_j, and the
conversion of a validated equivariant twist word into a leveled surgery
diagram.  The records are tuples (see `eqsurg.matrices`).
"""

from __future__ import annotations

import enum
from collections import namedtuple
from typing import NamedTuple, Optional

from .matrices import CurveClass
from .words import EquivariantShape, curve_name


class TorusType(enum.Enum):
    """The four real structures on the solid torus."""

    C1 = "c1"  # (y, x) -> (-y, -x): reflection, fixes two points per core
    C2 = "c2"  # x -> x + 1/2: meridional half-shift, core pointwise fixed
    C3 = "c3"  # y -> y + 1/2: longitudinal half-shift
    C4 = "c4"  # both half-shifts


class SurgeryError(ValueError):
    pass


class SurgerySpec(namedtuple("SurgerySpec", "p q p_prime q_prime")):
    """Gluing data of a (p/q)-surgery: meridian -> p*mu + q*lambda,
    longitude -> p'*mu + q'*lambda, with p*q' - q*p' = -1."""

    __slots__ = ()

    def __new__(cls, p: int, q: int, p_prime: int, q_prime: int) -> "SurgerySpec":
        if p * q_prime - q * p_prime != -1:
            raise SurgeryError(
                f"invalid gluing data: p*q' - q*p' = "
                f"{p * q_prime - q * p_prime}, expected -1"
            )
        return tuple.__new__(cls, (p, q, p_prime, q_prime))


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


def type_labels_for_coeff(knot: TorusType, coeff: int) -> tuple[str, ...]:
    """All labels "i_j" a +-1 surgery can carry across meridional-twist
    choices: a c_i solid torus excised, a c_j one glued back.

    A meridional Dehn twist changes the parity of p' and q', so branches
    that depend on those parities yield two labels (diffeomorphic but not
    isotopic results); unambiguous branches yield one.
    """
    if coeff not in (1, -1):
        raise SurgeryError(f"only coefficient +-1 surgeries arise here, got {coeff}")
    labels = []
    for p_prime in (0, 1):
        # p = coeff, q = 1 and p*q' - q*p' = -1 give q' = (p' - 1) * coeff
        s = SurgerySpec(coeff, 1, p_prime, (p_prime - 1) * coeff)
        label = f"{knot.value[1]}_{extension_type(knot, s).value[1]}"
        if label not in labels:
            labels.append(label)
    return tuple(labels)


def heegaard_minus_seifert(curve: CurveClass) -> int:
    """Framing gap on the genus-1 splitting of S^3: (m,n) -> m*n."""
    if curve.genus != 1:
        raise SurgeryError("surface framing data is only defined at genus 1")
    m, n = curve.coords
    return m * n


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


class SurgeryKnot(namedtuple("SurgeryKnot", "level curve coeff torus_type count")):
    """A knot of a leveled surgery link, or a run of `count` parallel copies.

    The level gives the role: pair i is the primary knot on level -i and
    its mirror image on level +i, and invariant knots sit on level 0.
    `torus_type` is the solid-torus type of an invariant knot and None
    for a pair knot.
    """

    __slots__ = ()

    def __new__(cls, level: int, curve: CurveClass, coeff: int,
                torus_type: Optional[TorusType] = None, count: int = 1) -> "SurgeryKnot":
        if count < 1:
            raise SurgeryError(f"a knot stands for at least one copy, got {count}")
        return tuple.__new__(cls, (level, curve, coeff, torus_type, count))

    @property
    def labels(self) -> tuple[str, ...]:
        """The label "5" for a pair knot, else the "i_j" labels of its torus type."""
        if self.torus_type is None:
            return ("5",)
        return type_labels_for_coeff(self.torus_type, self.coeff)


class SurgeryDiagram(NamedTuple):
    """A leveled surgery link.

    `knots` holds the invariant knots; a knot with `count` m stands for m
    parallel copies.  `shape` is the parsed word the pairs come from, or
    None for a diagram without pairs; `pair_knots` reads its outer[idx]
    and the partner mirror[-1 - idx] as pair i = len(outer) - idx, and
    only when it is called.  The ambient manifold is always the standard
    real S^3 and a diagram carries no notes.  Its JSON document is built
    in `lens.diagram_documents`, next to the contact one.
    """

    knots: tuple[SurgeryKnot, ...]
    shape: Optional[EquivariantShape] = None

    def invariant_knots(self) -> list[SurgeryKnot]:
        return list(self.knots)

    def pair_knots(self) -> list[SurgeryKnot]:
        """Pair i's primary (level -i) and mirror (level +i) knot, deepest
        first; outer factor (gamma, sigma) gives both the coefficient -sigma."""
        out = []
        if self.shape is None:
            return out
        i = self.shape.t
        for (primary, sigma), (mirror, _) in zip(self.shape.outer, reversed(self.shape.mirror)):
            out += [SurgeryKnot(-i, primary, -sigma), SurgeryKnot(i, mirror, -sigma)]
            i -= 1
        return out


def word_to_diagram(shape: EquivariantShape) -> SurgeryDiagram:
    """Leveled surgery link realizing the equivariant product.

    The shape's outer and mirror slices become the pairs, read when the
    pair knots are; each middle factor (gamma, m) becomes one invariant
    knot at level 0 with coefficient sign(m) and count |m|.  Knot types of
    invariant curves come from the built-in genus-1 table for the
    standard involution.
    """
    knots = []
    for curve, exp in shape.middle:
        unit = 1 if exp > 0 else -1
        knots.append(SurgeryKnot(0, curve, unit, knot_type_under_cst(curve), abs(exp)))
    return SurgeryDiagram(tuple(knots), shape)
