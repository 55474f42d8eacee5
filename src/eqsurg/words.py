"""Dehn-twist words and their homology-level verification.

A word is an ordered list of twist factors, leftmost factor written
first, optionally followed by a base involution.  Words evaluate to
matrix products with the rightmost factor applied first, so the written
word g_k ... g_1 evaluates to M(g_k) @ ... @ M(g_1).

All genus >= 2 verdicts here are homology-level: curve equality means
equality of primitive classes up to sign.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .matrices import (
    CurveClass,
    IntMatrix,
    SymplecticForm,
    is_anti_symplectic,
    is_involution,
    transvection,
)

# The genus-1 cast: curves a, b, a+b, a-b and the standard gluing involution.
CURVE_A = CurveClass.of(1, 0)
CURVE_B = CurveClass.of(0, 1)
CURVE_APB = CurveClass.of(1, 1)
CURVE_AMB = CurveClass.of(1, -1)

CST = IntMatrix.from_rows([[0, 1], [1, 0]])
MAT_A = IntMatrix.from_rows([[0, -1], [1, 0]])

_GENUS1_NAMES = {
    CURVE_A: "a",
    CURVE_B: "b",
    CURVE_APB: "a+b",
    CURVE_AMB: "a-b",
}
_GENUS1_CURVES = {name: curve for curve, name in _GENUS1_NAMES.items()}


class WordError(ValueError):
    pass


class ShapeError(ValueError):
    pass


@dataclass(frozen=True)
class TwistFactor:
    curve: CurveClass
    exponent: int

    def __post_init__(self):
        if self.exponent == 0:
            raise WordError("twist factor exponent must be nonzero")


@dataclass(frozen=True)
class TwistWord:
    factors: tuple[TwistFactor, ...]
    base: Optional[IntMatrix] = None
    genus: int = 1

    def __post_init__(self):
        if self.genus < 1:
            raise WordError(f"genus must be at least 1, got {self.genus}")
        form = SymplecticForm(self.genus)
        for f in self.factors:
            if f.curve.genus != self.genus:
                raise WordError(f"curve {f.curve.coords} does not match genus {self.genus}")
        if self.base is not None:
            if self.base.genus != self.genus:
                raise WordError("base matrix dimension does not match genus")
            if not is_involution(self.base):
                raise WordError("base must be an involution")
            if not is_anti_symplectic(self.base, form):
                raise WordError("base must reverse the intersection form")

    @staticmethod
    def of(factors: Sequence[tuple[CurveClass, int]],
           base: Optional[IntMatrix] = None, genus: int = 1) -> "TwistWord":
        return TwistWord(tuple(TwistFactor(c, e) for c, e in factors), base, genus)


def eval_word(w: TwistWord) -> IntMatrix:
    if w.genus == 1:
        # IntMatrix.twist on the rows (a, b) and (c, d); the curve (x, y)
        # has twist vector (-y, x)
        a, b, c, d = 1, 0, 0, 1
        for f in w.factors:
            x, y = f.curve.coords
            s = f.exponent * (a * x + b * y)
            t = f.exponent * (c * x + d * y)
            a, b, c, d = a - s * y, b + s * x, c - t * y, d + t * x
        m = IntMatrix(((a, b), (c, d)))
    else:
        m = IntMatrix.identity(2 * w.genus)
        for f in w.factors:
            m = m.twist(f.curve, f.exponent)
    if w.base is not None:
        m = m @ w.base
    return m


def curve_name(curve: CurveClass) -> str:
    if curve.genus == 1 and curve in _GENUS1_NAMES:
        return _GENUS1_NAMES[curve]
    return "v[" + ",".join(map(str, curve.coords)) + "]"


def format_word(w: TwistWord) -> str:
    parts = []
    for f in w.factors:
        name = curve_name(f.curve)
        if "+" in name or "-" in name:
            name = f"({name})"
        parts.append(f"{name}^{f.exponent}")
    text = " ".join(parts) if parts else "1"
    if w.base is not None:
        text += " | cst" if w.base == CST else " | base"
    return text


# A curve name, bare or in balanced parentheses, then an optional exponent.
_FACTOR_RE = re.compile(
    r"^(?P<open>\()?(?P<curve>[^()^]+)(?(open)\))(?:\^(?P<exp>-?\d+))?$"
)


def parse_word(text: str, genus: int = 1,
               base_matrix: Optional[IntMatrix] = None) -> TwistWord:
    """Parse word syntax like `a^2 b^-1 (a+b)^1 | cst`.

    Curves are named a, b, a+b, a-b at genus 1, or given as vectors
    `v[1,0,2,-1]` at any genus.  `| cst` appends the standard genus-1
    base involution; `| base` uses base_matrix.
    """
    text = text.strip()
    base = None
    if "|" in text:
        word_part, base_part = text.split("|", 1)
        base_part = base_part.strip()
        if base_part == "cst":
            base = CST
        elif base_part == "base":
            if base_matrix is None:
                raise WordError("word references `base` but no base matrix was given")
            base = base_matrix
        else:
            raise WordError(f"unknown base name {base_part!r}")
    else:
        word_part = text
    factors = []
    for token in word_part.split():
        if token == "1":
            continue
        m = _FACTOR_RE.match(token)
        if not m:
            raise WordError(f"cannot parse factor {token!r}")
        cname = m.group("curve").strip()
        try:
            exp = int(m.group("exp")) if m.group("exp") is not None else 1
        except ValueError:  # past Python's int/str digit limit
            raise WordError(f"exponent of {token[:12]!r}... has too many digits") from None
        if cname.startswith("v[") and cname.endswith("]"):
            try:
                curve = CurveClass.from_coords([int(x) for x in cname[2:-1].split(",")])
            except ValueError as exc:  # non-integer entry, odd length, or not primitive
                raise WordError(f"bad curve vector {cname!r}: {exc}") from None
        elif cname in _GENUS1_CURVES:
            if genus != 1:
                raise WordError(f"named curve {cname!r} is only defined at genus 1")
            curve = _GENUS1_CURVES[cname]
        else:
            raise WordError(f"unknown curve {cname!r}")
        factors.append((curve, exp))
    return TwistWord.of(factors, base=base, genus=genus)


# ---------------------------------------------------------------------------
# Relation suite


def _tau(curve: CurveClass, n: int = 1) -> IntMatrix:
    return transvection(curve, n, SymplecticForm(1))


def verify_relations(max_exp: int = 10) -> list[dict]:
    """Check the genus-1 twist relations as exact matrix identities.

    Covers X_r = A*tau_a^r = tau_b^r*A, A^2 = -I, the two triple-twist
    expressions for A, the conjugation identities for tau_{a+b}^n and
    tau_{a-b}^n, and the fix-rule identity.
    """
    ident = IntMatrix.identity(2)
    a, b = CURVE_A, CURVE_B
    report: list[dict] = []

    def check(name: str, lhs: IntMatrix, rhs: IntMatrix) -> None:
        report.append({"relation": name, "ok": lhs == rhs})

    check("A^2 = -I", MAT_A @ MAT_A, -ident)
    check("A = b^-1 a^-1 b^-1", _tau(b, -1) @ _tau(a, -1) @ _tau(b, -1), MAT_A)
    check("A = a^-1 b^-1 a^-1", _tau(a, -1) @ _tau(b, -1) @ _tau(a, -1), MAT_A)
    for r in range(-max_exp, max_exp + 1):
        x_r = IntMatrix.from_rows([[0, -1], [1, r]])
        check(f"X_{r} = A a^{r}", MAT_A @ _tau(a, r), x_r)
        check(f"X_{r} = b^{r} A", _tau(b, r) @ MAT_A, x_r)
        check(
            f"(a+b)^{r} = a b^{r} a^-1",
            _tau(a, 1) @ _tau(b, r) @ _tau(a, -1),
            _tau(CURVE_APB, r),
        )
        check(
            f"(a+b)^{r} = b^-1 a^{r} b",
            _tau(b, -1) @ _tau(a, r) @ _tau(b, 1),
            _tau(CURVE_APB, r),
        )
        check(
            f"(a-b)^{r} = a^-1 b^{r} a",
            _tau(a, -1) @ _tau(b, r) @ _tau(a, 1),
            _tau(CURVE_AMB, r),
        )
        check(
            f"(a-b)^{r} = b a^{r} b^-1",
            _tau(b, 1) @ _tau(a, r) @ _tau(b, -1),
            _tau(CURVE_AMB, r),
        )
    check(
        "a^-1 (a+b) b^-1 = (a-b)^-1",
        _tau(a, -1) @ _tau(CURVE_APB, 1) @ _tau(b, -1),
        _tau(CURVE_AMB, -1),
    )
    return report


# ---------------------------------------------------------------------------
# Equivariant product shape


@dataclass(frozen=True)
class EquivariantShape:
    """Parsed mirrored word: outer f-part and invariant middle.

    `middle` holds the word's middle factors as they are: (curve, m)
    stands for a run of |m| parallel twists of sign m along the curve.
    `mirror[i]` is the curve of the factor paired with `outer[i]`, i.e.
    the image of outer[i]'s curve under the base involution.
    """

    outer: tuple[tuple[CurveClass, int], ...]
    middle: tuple[tuple[CurveClass, int], ...]
    mirror: tuple[CurveClass, ...]
    base: IntMatrix
    genus: int = 1


def validate_equivariant_shape(w: TwistWord) -> EquivariantShape:
    """Parse w as outer * middle * mirrored-outer * base, or raise ShapeError.

    Mirrored factors must carry the base-image curve and the same
    exponent; middle curves must be base-invariant (up to sign) and
    pairwise disjoint at homology level.  Middle factors are kept as
    runs (curve, m); `word_to_diagram` emits each as one knot with count |m|.
    """
    if w.base is None:
        raise ShapeError("equivariant shape requires a base involution")
    form = SymplecticForm(w.genus)
    fs = w.factors
    n = len(fs)
    image = {c: c.image_under(w.base) for c in {f.curve for f in fs}}

    def mirrors(left: TwistFactor, right: TwistFactor) -> bool:
        return left.exponent == right.exponent and image[left.curve] == right.curve

    t_max = 0
    while t_max < n // 2 and mirrors(fs[t_max], fs[n - 1 - t_max]):
        t_max += 1

    first_error: Optional[str] = None
    for t in range(t_max, -1, -1):
        mid = fs[t:n - t]
        error = None
        for f in mid:
            if image[f.curve] != f.curve:
                error = (
                    f"factor {curve_name(f.curve)}^{f.exponent}: curve is not "
                    "base-invariant and has no mirror partner"
                )
                break
        if error is None:
            for i in range(len(mid)):
                for j in range(i + 1, len(mid)):
                    ci, cj = mid[i].curve, mid[j].curve
                    if ci != cj and form.pairing(ci.coords, cj.coords) != 0:
                        error = (
                            f"middle curves {curve_name(ci)} and {curve_name(cj)} "
                            "are not disjoint"
                        )
                        break
                if error:
                    break
        if error is None:
            outer = tuple((f.curve, f.exponent) for f in fs[:t])
            mirror = tuple(fs[n - 1 - i].curve for i in range(t))
            middle = tuple((f.curve, f.exponent) for f in mid)
            return EquivariantShape(outer, middle, mirror, w.base, w.genus)
        if first_error is None:
            first_error = error
    raise ShapeError(first_error or "word is not an equivariant product")


# ---------------------------------------------------------------------------
# Recursive invariance


def validate_recursive_invariance(w: TwistWord, s: IntMatrix) -> dict:
    """Check the recursive invariance of w against the real structure s.

    Factors are processed in application order (rightmost first).  Each
    factor must satisfy either (i) the accumulated structure fixes its
    curve up to sign, or (ii) it forms a swapped disjoint pair with the
    next factor.  Accumulated structures are checked to stay involutions.
    """
    if s.genus != w.genus:
        raise WordError(f"s acts at genus {s.genus} but the word lies at genus {w.genus}")
    form = SymplecticForm(w.genus)
    if not is_involution(s) or not is_anti_symplectic(s, form):
        raise WordError("s must be an anti-symplectic involution")
    seq = list(reversed(w.factors))  # application order
    entries: list[dict] = []
    current = s
    j = 0
    all_ok = True
    while j < len(seq):
        f = seq[j]
        image = f.curve.image_under(current)
        if image == f.curve:  # CurveClass is sign-normalized
            current = transvection(f.curve, f.exponent, form) @ current
            inv_ok = is_involution(current)
            entries.append(
                {
                    "index": j + 1,
                    "curve": curve_name(f.curve),
                    "exponent": f.exponent,
                    "condition": "i",
                    "invariant_ok": True,
                    "involution_ok": inv_ok,
                }
            )
            all_ok = all_ok and inv_ok
            j += 1
            continue
        # condition (ii): swapped disjoint pair with the next factor
        ok_pair = False
        if j + 1 < len(seq):
            g = seq[j + 1]
            ok_pair = (
                g.exponent == f.exponent
                and form.pairing(f.curve.coords, g.curve.coords) == 0
                and image == g.curve
            )
        if ok_pair:
            g = seq[j + 1]
            current = (
                transvection(g.curve, g.exponent, form)
                @ transvection(f.curve, f.exponent, form)
                @ current
            )
            inv_ok = is_involution(current)
            for idx, h in ((j + 1, f), (j + 2, g)):
                entries.append(
                    {
                        "index": idx,
                        "curve": curve_name(h.curve),
                        "exponent": h.exponent,
                        "condition": "ii",
                        "invariant_ok": True,
                        "involution_ok": inv_ok,
                    }
                )
            all_ok = all_ok and inv_ok
            j += 2
            continue
        entries.append(
            {
                "index": j + 1,
                "curve": curve_name(f.curve),
                "exponent": f.exponent,
                "condition": "i",
                "invariant_ok": False,
                "involution_ok": False,
            }
        )
        all_ok = False
        current = transvection(f.curve, f.exponent, form) @ current
        j += 1
    return {"all_ok": all_ok, "factors": entries}


# ---------------------------------------------------------------------------
# Palindrome factorization


def factor_palindrome(
    curves: Sequence[CurveClass], exps: Sequence[int], s: IntMatrix
) -> TwistWord:
    """Rewrite the even palindrome on (curves, exps) as squared twists.

    Input: curves a_1..a_w, each fixed by s up to sign, and exponents
    sigma_1..sigma_w.  Output: the word tau_{r_w}^{2s_w} ... tau_{r_1}^{2s_1}
    with r_1 = a_1 and r_{j+1} the image of a_{j+1} under the prefix
    tau_{a_1}^{s_1} ... tau_{a_j}^{s_j}.  It evaluates to the same matrix
    as tau_{a_1}^{s_1}..tau_{a_w}^{s_w} tau_{a_w}^{s_w}..tau_{a_1}^{s_1}
    and is recursively invariant against s.
    """
    if len(curves) != len(exps):
        raise WordError("curves and exponents must have equal length")
    if not curves:
        raise WordError("palindrome factorization needs at least one curve")
    genus = curves[0].genus
    if s.genus != genus:
        raise WordError(f"s acts at genus {s.genus} but the curves lie at genus {genus}")
    form = SymplecticForm(genus)
    if not is_involution(s) or not is_anti_symplectic(s, form):
        raise WordError("s must be an anti-symplectic involution")
    prefix = IntMatrix.identity(2 * genus)
    squared: list[tuple[CurveClass, int]] = []
    for a_j, sigma in zip(curves, exps):
        if a_j.image_under(s) != a_j:
            raise WordError(f"input curve {curve_name(a_j)} is not invariant under s")
        r_j = a_j.image_under(prefix)  # primitive: prefix is unimodular
        squared.append((r_j, 2 * sigma))
        prefix = prefix.twist(a_j, sigma)
    return TwistWord.of(list(reversed(squared)), base=None, genus=genus)


# ---------------------------------------------------------------------------
# Fix rule


_FIX_PATTERN = ((CURVE_A, -1), (CURVE_APB, 1), (CURVE_B, -1))


def find_fix_rule(w: TwistWord) -> Optional[int]:
    """Index of the leftmost occurrence of a^-1 (a+b)^1 b^-1, if any."""
    if w.genus != 1:
        return None
    (c0, e0), (c1, e1), (c2, e2) = _FIX_PATTERN
    fs = w.factors
    for i in range(len(fs) - 2):
        f = fs[i]
        if f.exponent == e0 and f.curve == c0:
            g, h = fs[i + 1], fs[i + 2]
            if g.exponent == e1 and g.curve == c1 and h.exponent == e2 and h.curve == c2:
                return i
    return None


def apply_fix_rule(w: TwistWord) -> TwistWord:
    """Replace the subword a^-1 (a+b)^1 b^-1 by (a-b)^-1 (matrix-equal)."""
    i = find_fix_rule(w)
    if i is None:
        raise WordError("fix-rule pattern a^-1 (a+b)^1 b^-1 not found")
    factors = w.factors[:i] + (TwistFactor(CURVE_AMB, -1),) + w.factors[i + 3:]
    return TwistWord(factors, w.base, w.genus)
