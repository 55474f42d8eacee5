"""Dehn-twist words and their homology-level verification.

A word is an ordered tuple of twist factors (curve, exponent), leftmost
factor written first, optionally followed by `CST`, the standard real
structure of S^3 and the only base.  Words evaluate to matrix products with
the rightmost factor applied first, so the written word g_k ... g_1
evaluates to M(g_k) @ ... @ M(g_1).

All genus >= 2 verdicts here are homology-level: curve equality means
equality of primitive classes up to sign.

At genus 1 `eval_word` multiplies by `CST` as a column swap of its four
integer locals, and `CST_IMAGES` holds the image under `CST` of each
named curve, computed once at import.
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
CST_IMAGES = {c: c.image_under(CST) for c in _GENUS1_NAMES}


class WordError(ValueError):
    pass


class ShapeError(ValueError):
    pass


def _check_real_structure(s: IntMatrix, genus: int) -> None:
    """Raise WordError unless `s` is an anti-symplectic involution at `genus`."""
    if s.genus != genus:
        raise WordError(f"s acts at genus {s.genus} but the word lies at genus {genus}")
    if not (is_involution(s) and is_anti_symplectic(s)):
        raise WordError("s must be an anti-symplectic involution")


@dataclass(frozen=True)
class TwistWord:
    """Twist factors (curve, exponent), leftmost first, and `CST` or no base."""

    factors: tuple[tuple[CurveClass, int], ...]
    base: Optional[IntMatrix] = None
    genus: int = 1

    def __post_init__(self):
        if self.genus < 1:
            raise WordError(f"genus must be at least 1, got {self.genus}")
        dim = 2 * self.genus
        for c, e in self.factors:
            if e == 0:
                raise WordError("twist factor exponent must be nonzero")
            if len(c.coords) != dim:
                raise WordError(f"curve {c.coords} does not match genus {self.genus}")
        if self.base is not None:
            if self.base != CST:
                raise WordError("base must be the standard real structure cst")
            if self.genus != 1:
                raise WordError(f"base acts at genus 1 but the word lies at genus {self.genus}")

    @staticmethod
    def of(factors: Sequence[tuple[CurveClass, int]],
           base: Optional[IntMatrix] = None, genus: int = 1) -> "TwistWord":
        return TwistWord(tuple(factors), base, genus)


def eval_word(w: TwistWord) -> IntMatrix:
    if w.genus == 1:
        # IntMatrix.twist on the rows (a, b) and (c, d); the curve (x, y)
        # has twist vector (-y, x).  A curve (x, 0) changes only b and d,
        # a curve (0, y) only a and c.
        a, b, c, d = 1, 0, 0, 1
        for curve, e in w.factors:
            x, y = curve.coords
            if not y:
                f = e * x * x
                b += f * a
                d += f * c
            elif not x:
                f = e * y * y
                a -= f * b
                c -= f * d
            else:
                s = e * (a * x + b * y)
                t = e * (c * x + d * y)
                a, b, c, d = a - s * y, b + s * x, c - t * y, d + t * x
        if w.base is not None:  # the product with CST swaps the columns
            a, b, c, d = b, a, d, c
        return IntMatrix(((a, b), (c, d)))
    m = IntMatrix.identity(2 * w.genus)  # no word carries a base at genus >= 2
    for curve, e in w.factors:
        m = m.twist(curve, e)
    return m


def curve_name(curve: CurveClass) -> str:
    if curve.genus == 1 and curve in _GENUS1_NAMES:
        return _GENUS1_NAMES[curve]
    return "v[" + ",".join(map(str, curve.coords)) + "]"


def format_word(w: TwistWord) -> str:
    parts = []
    for curve, e in w.factors:
        name = curve_name(curve)
        if "+" in name or "-" in name:
            name = f"({name})"
        parts.append(f"{name}^{e}")
    text = " ".join(parts) if parts else "1"
    if w.base is not None:
        text += " | cst"
    return text


# A curve name, bare or in balanced parentheses, then an optional exponent.
_FACTOR_RE = re.compile(
    r"^(?P<open>\()?(?P<curve>[^()^]+)(?(open)\))(?:\^(?P<exp>-?\d+))?$"
)


def parse_word(text: str, genus: int = 1) -> TwistWord:
    """Parse word syntax like `a^2 b^-1 (a+b)^1 | cst`.

    Curves are named a, b, a+b, a-b at genus 1, or given as vectors
    `v[1,0,2,-1]` at any genus.  `| cst` appends the standard genus-1
    base involution.
    """
    text = text.strip()
    base = None
    if "|" in text:
        word_part, base_part = text.split("|", 1)
        base_part = base_part.strip()
        if base_part != "cst":
            raise WordError(f"unknown base name {base_part!r}")
        base = CST
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
    """Parsed mirrored word: outer f-part, invariant middle, mirrored part.

    All three are slices of the word's factors.  A middle factor (curve, m)
    stands for a run of |m| parallel twists of sign m along the curve.
    `mirror[-1 - i]` pairs with `outer[i]`: the same exponent on the image
    of outer[i]'s curve under `CST`.
    """

    outer: tuple[tuple[CurveClass, int], ...]
    middle: tuple[tuple[CurveClass, int], ...]
    mirror: tuple[tuple[CurveClass, int], ...]


class _Images(dict):
    """curve -> its image under `CST`; built from `CST_IMAGES`, any other
    curve's image is computed on its first lookup."""

    def __missing__(self, c: CurveClass) -> CurveClass:
        self[c] = image = c.image_under(CST)
        return image


def validate_equivariant_shape(w: TwistWord) -> EquivariantShape:
    """Parse w as outer * middle * mirrored-outer * base, or raise ShapeError.

    Mirrored factors must carry the base-image curve and the same
    exponent; middle curves must be base-invariant (up to sign) and
    pairwise disjoint at homology level, so the middle is one invariant
    curve.  Middle factors are kept as runs (curve, m); `word_to_diagram`
    emits each as one knot with count |m|.

    Only the longest mirrored outer part is tried: a shorter one moves
    factors into the middle, so a middle that fails here fails there too.
    """
    if w.base is None:
        raise ShapeError("equivariant shape requires a base involution")
    fs = w.factors
    n = len(fs)
    image = _Images(CST_IMAGES)

    t_max = 0
    for (c, e), (mirror_c, mirror_e) in zip(fs[:n // 2], reversed(fs)):
        if e != mirror_e or image[c] != mirror_c:
            break
        t_max += 1

    mid = fs[t_max:n - t_max]
    for c, e in mid:
        if image[c] != c:
            raise ShapeError(
                f"factor {curve_name(c)}^{e}: curve is not "
                "base-invariant and has no mirror partner"
            )
    # The base is CST, so the word lies on the torus, where two distinct
    # primitive classes meet (|det| >= 1): a pairwise disjoint middle is one
    # curve, and the first pair that fails is (mid[0], c).
    for c, _ in mid:
        if c != mid[0][0]:
            raise ShapeError(
                f"middle curves {curve_name(mid[0][0])} and {curve_name(c)} "
                "are not disjoint"
            )
    return EquivariantShape(fs[:t_max], mid, fs[n - t_max:])


# ---------------------------------------------------------------------------
# Recursive invariance


def validate_recursive_invariance(w: TwistWord, s: IntMatrix) -> dict:
    """Check the recursive invariance of w against the real structure s.

    Factors are processed in application order (rightmost first).  Each
    factor must satisfy either (i) the accumulated structure fixes its
    curve up to sign, or (ii) it forms a swapped disjoint pair with the
    next factor.  Accumulated structures are checked to stay involutions.
    """
    _check_real_structure(s, w.genus)
    form = SymplecticForm(w.genus)
    seq = list(reversed(w.factors))  # application order
    entries: list[dict] = []
    current = s
    j = 0
    while j < len(seq):
        c, e = seq[j]
        image = c.image_under(current)
        if image == c:  # CurveClass is sign-normalized
            group, condition, invariant_ok = seq[j:j + 1], "i", True
        elif (j + 1 < len(seq) and seq[j + 1] == (image, e)
              and form.pairing(c.coords, image.coords) == 0):  # a swapped disjoint pair
            group, condition, invariant_ok = seq[j:j + 2], "ii", True
        else:
            group, condition, invariant_ok = seq[j:j + 1], "i", False
        for d, _ in group:
            current = transvection(d, e, form) @ current
        involution_ok = invariant_ok and is_involution(current)
        for index, (d, _) in enumerate(group, j + 1):
            entries.append({
                "index": index,
                "curve": curve_name(d),
                "exponent": e,
                "condition": condition,
                "invariant_ok": invariant_ok,
                "involution_ok": involution_ok,
            })
        j += len(group)
    return {"all_ok": all(x["involution_ok"] for x in entries), "factors": entries}


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
    _check_real_structure(s, genus)
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
    (c0, e0), second, third = _FIX_PATTERN
    fs = w.factors
    for i in range(len(fs) - 2):
        c, e = fs[i]
        if e == e0 and c == c0 and fs[i + 1] == second and fs[i + 2] == third:
            return i
    return None


def apply_fix_rule(w: TwistWord, i: int) -> TwistWord:
    """Replace the subword a^-1 (a+b)^1 b^-1 at index i, as found by
    `find_fix_rule`, by (a-b)^-1 (matrix-equal)."""
    if w.factors[i:i + 3] != _FIX_PATTERN:
        raise WordError(f"fix-rule pattern a^-1 (a+b)^1 b^-1 not at index {i}")
    factors = w.factors[:i] + ((CURVE_AMB, -1),) + w.factors[i + 3:]
    return TwistWord(factors, w.base, w.genus)
