"""Dehn-twist words and their homology-level verification.

A word is an ordered tuple of twist factors (curve, exponent), leftmost
factor written first, optionally followed by `CST`, the standard real
structure of S^3 and the only base; a word holds that choice as the flag
`cst`.  Words evaluate to matrix products with the rightmost factor
applied first, so the written word g_k ... g_1 evaluates to
M(g_k) @ ... @ M(g_1).

A word is held as runs (block, k): a tuple of factors repeated k times.
`TwistWord.factors` is the flat view, built on each read; `format_word`
and the shape's outer and mirrored parts read it.  The checks walk the
runs instead: at genus 1 `eval_word` raises each block's matrix to its
power by repeated squaring, the shape pairs whole runs from both ends, and the
fix-rule scan reads three copies of a long run.  A word from
`TwistWord.of` is one run, so a general word is walked factor by factor.

All genus >= 2 verdicts here are homology-level: curve equality means
equality of primitive classes up to sign.

At genus 1 `eval_word` multiplies by `CST` as a column swap of its four
integer locals, and `CST_IMAGES` holds the image under `CST` of each
named curve, computed once at import.  At genus >= 2 no function here
multiplies matrices: each twist shears vectors with `matrices.shear`.
The records are tuples (see `eqsurg.matrices`).
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import chain
from operator import add, mul, sub
from typing import NamedTuple, Optional, Sequence

from .matrices import (
    CurveClass,
    IntMatrix,
    SymplecticForm,
    dual,
    is_real_structure,
    is_skew_adjoint,
    shear,
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
    if not is_real_structure(s):
        raise WordError("s must be an anti-symplectic involution")


Factor = tuple[CurveClass, int]
Run = tuple[tuple[Factor, ...], int]


def _flat(runs: tuple[Run, ...]) -> tuple[Factor, ...]:
    if len(runs) == 1:  # a word from `TwistWord.of`, and most middles
        block, k = runs[0]
        return block * k
    return tuple(chain.from_iterable([block * k for block, k in runs]))


class TwistWord(namedtuple("TwistWord", "runs cst genus")):
    """Twist factors (curve, exponent), leftmost first, held as runs
    (block, k), followed by the base `CST` when `cst` is true.

    Run (block, k) stands for the block's factors repeated k >= 1 times.
    `cst` is a bool, true at genus 1 only.  Words are equal, and hash
    equal, when their flat factors, flags and genera are, however cut
    into runs; `!=` is the negation of that `==`, not the tuple comparison.
    """

    __slots__ = ()

    def __new__(cls, runs: tuple[Run, ...], cst: bool = False, genus: int = 1) -> "TwistWord":
        if genus < 1:
            raise WordError(f"genus must be at least 1, got {genus}")
        if type(cst) is not bool:
            raise WordError(f"cst is a bool flag, got {type(cst).__name__}")
        dim = 2 * genus
        for block, k in runs:
            if k < 1:
                raise WordError(f"a run repeats its block at least once, got {k}")
            for c, e in block:
                if e == 0:
                    raise WordError("twist factor exponent must be nonzero")
                if len(c.coords) != dim:
                    raise WordError(f"curve {c.coords} does not match genus {genus}")
        if cst and genus != 1:
            raise WordError(f"base acts at genus 1 but the word lies at genus {genus}")
        return tuple.__new__(cls, (runs, cst, genus))

    @staticmethod
    def of(factors: Sequence[Factor], cst: bool = False, genus: int = 1) -> "TwistWord":
        """The word of these factors as one run."""
        return TwistWord(((tuple(factors), 1),), cst, genus)

    @property
    def factors(self) -> tuple[Factor, ...]:
        return _flat(self.runs)

    def __eq__(self, other):
        if not isinstance(other, TwistWord):
            return NotImplemented
        return (self.cst == other.cst and self.genus == other.genus
                and self.factors == other.factors)

    __ne__ = object.__ne__  # the negation of __eq__; tuple's would compare runs

    def __hash__(self):
        return hash((self.factors, self.cst, self.genus))


def _twist2(m: tuple, block: tuple[Factor, ...]) -> tuple:
    """The genus-1 matrix m = (a, b, c, d), rows (a, b) and (c, d), times
    the block's twists in written order.

    `matrices.shear` of each row along the curve (x, y) and its dual
    (-y, x).  A curve (x, 0) changes only b and d, a curve (0, y) only a
    and c.
    """
    a, b, c, d = m
    for curve, e in block:
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
    return a, b, c, d


def _mul2(m: tuple, n: tuple) -> tuple:
    a, b, c, d = m
    e, f, g, h = n
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _power(m: tuple, k: int) -> tuple:
    """The genus-1 matrix m = (a, b, c, d) to the power k >= 1, by
    repeated squaring."""
    result = None
    while True:
        if k & 1:
            result = m if result is None else _mul2(result, m)
        k >>= 1
        if not k:
            return result
        m = _mul2(m, m)


def eval_word(w: TwistWord) -> IntMatrix:
    """The word's matrix, multiplied out from its own factors.  At genus 1
    a run (block, k) with k > 1 is the block's product raised to the
    k-th power and a run with k = 1 goes factor by factor.  At genus >= 2,
    where every word is one run with k = 1, each row of the identity goes
    through the flat factors, row <- row + e (row . c) w with w the dual
    of c, and the rows make one matrix at the end."""
    if w.genus == 1:
        m = (1, 0, 0, 1)
        for block, k in w.runs:
            if k == 1:
                m = _twist2(m, block)
            else:
                m = _mul2(m, _power(_twist2((1, 0, 0, 1), block), k))
        a, b, c, d = m
        if w.cst:  # the product with CST swaps the columns
            a, b, c, d = b, a, d, c
        return IntMatrix(((a, b), (c, d)))
    g = w.genus  # no word carries CST at genus >= 2
    twists = [(e, c.coords, dual(c.coords)) for c, e in w.factors]
    rows = []
    for row in IntMatrix.identity(2 * g).rows:
        for e, c, w_c in twists:
            row = shear(row, e, c, w_c)
        rows.append(row)
    return IntMatrix(tuple(rows))


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
    if w.cst:
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
    base involution `CST`: the word's flag `cst` is true.
    """
    word_part, bar, base_part = text.partition("|")
    base_part = base_part.strip()
    if bar and base_part != "cst":
        raise WordError(f"unknown base name {base_part!r}")
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
    return TwistWord.of(factors, cst=bool(bar), genus=genus)


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


class EquivariantShape(NamedTuple):
    """Parsed mirrored word: outer f-part, invariant middle, mirrored part.

    All three are slices of the word's factors: `outer` is the first `t`
    factors and `mirror` the last `t`, both read from the flat view on
    demand, and `middle` lies between them.  A middle factor (curve, m)
    stands for a run of |m| parallel twists of sign m along the curve.
    `mirror[-1 - i]` pairs with `outer[i]`: the same exponent on the image
    of outer[i]'s curve under `CST`.
    """

    word: TwistWord
    t: int
    middle: tuple[Factor, ...]

    @property
    def outer(self) -> tuple[Factor, ...]:
        return self.word.factors[:self.t]

    @property
    def mirror(self) -> tuple[Factor, ...]:
        fs = self.word.factors
        return fs[len(fs) - self.t:]


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
    The mirror walk pairs whole runs from both ends while a run is the
    image of its partner with the same count, then goes on factor by
    factor inside the runs between the last pair.
    """
    if not w.cst:
        raise ShapeError("equivariant shape requires a base involution")
    image = _Images(CST_IMAGES)
    runs = w.runs
    lo, hi, t_max = 0, len(runs) - 1, 0
    while lo < hi:
        block, k = runs[lo]
        if runs[hi] != (tuple([(image[c], e) for c, e in reversed(block)]), k):
            break
        t_max += len(block) * k
        lo, hi = lo + 1, hi - 1

    fs = _flat(runs[lo:hi + 1])
    n = len(fs)
    t = 0
    for (c, e), (mirror_c, mirror_e) in zip(fs[:n // 2], reversed(fs)):
        if e != mirror_e or image[c] != mirror_c:
            break
        t += 1
    t_max += t

    mid = fs[t:n - t]
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
    return EquivariantShape(w, t_max, mid)


# ---------------------------------------------------------------------------
# Recursive invariance


def _equal_up_to_sign(x: Sequence[int], y: Sequence[int]) -> bool:
    """x = +-y, for vectors of one length: a unimodular s fixes the curve
    c up to sign iff s c = +-c, and carries it to the curve d iff s c = +-d."""
    return not any(map(sub, x, y)) or not any(map(add, x, y))


def validate_recursive_invariance(w: TwistWord, s: IntMatrix) -> dict:
    """Check the recursive invariance of w against the real structure s.

    Factors are processed in application order (rightmost first).  Each
    factor (c, e) must satisfy either (i) the accumulated structure a
    fixes its curve up to sign, a c = +-c, or (ii) the next factor is
    (d, e) with a c = +-d and <c, d> = 0, a swapped disjoint pair.  The
    accumulated structure is held as columns, each sheared by every
    twist; twists are symplectic, so it stays anti-symplectic, and it is
    checked to stay an involution by `is_skew_adjoint`.
    """
    _check_real_structure(s, w.genus)
    seq = list(reversed(w.factors))  # application order
    entries: list[dict] = []
    rows = s.rows
    cols = list(zip(*rows))
    j = 0
    while j < len(seq):
        c, e = seq[j]
        image = [sum(map(mul, row, c.coords)) for row in rows]
        if _equal_up_to_sign(image, c.coords):
            group, condition, invariant_ok = seq[j:j + 1], "i", True
        elif (j + 1 < len(seq) and seq[j + 1][1] == e
              and _equal_up_to_sign(image, seq[j + 1][0].coords)
              and sum(map(mul, dual(c.coords), seq[j + 1][0].coords)) == 0):
            group, condition, invariant_ok = seq[j:j + 2], "ii", True
        else:
            group, condition, invariant_ok = seq[j:j + 1], "i", False
        for d, _ in group:
            w_d = dual(d.coords)
            cols = [shear(col, e, w_d, d.coords) for col in cols]
        rows = tuple(zip(*cols))
        involution_ok = invariant_ok and is_skew_adjoint(IntMatrix(rows))
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
    and is recursively invariant against s.  No prefix matrix is kept:
    a_{j+1} goes through v -> v + s_i <a_i, v> a_i for i = j, ..., 1.
    """
    if len(curves) != len(exps):
        raise WordError("curves and exponents must have equal length")
    if not curves:
        raise WordError("palindrome factorization needs at least one curve")
    genus = curves[0].genus
    _check_real_structure(s, genus)
    done: list[tuple[int, list, tuple]] = []  # (s_i, dual of a_i, a_i) so far
    squared: list[tuple[CurveClass, int]] = []
    for a_j, sigma in zip(curves, exps):
        a = a_j.coords
        if not _equal_up_to_sign(s.apply(a), a):
            raise WordError(f"input curve {curve_name(a_j)} is not invariant under s")
        v = a
        for e, w_a, c in reversed(done):
            v = shear(v, e, w_a, c)
        squared.append((CurveClass.from_coords(v), 2 * sigma))  # twists keep v primitive
        done.append((sigma, dual(a), a))
    return TwistWord.of(squared[::-1], genus=genus)


# ---------------------------------------------------------------------------
# Fix rule


_FIX_PATTERN = ((CURVE_A, -1), (CURVE_APB, 1), (CURVE_B, -1))


def find_fix_rule(w: TwistWord) -> Optional[int]:
    """Index in the flat factors of the leftmost occurrence of
    a^-1 (a+b)^1 b^-1, if any.

    The scan reads a run of k > 3 copies as its first copy and its last
    two: an occurrence inside the run repeats one block earlier, so the
    leftmost one starts in the first copy, or in the last two factors of
    the run when it reaches past the run's end.
    """
    if w.genus != 1:
        return None
    (c0, e0), second, third = _FIX_PATTERN
    fs: list[Factor] = []
    skipped = []  # (length of fs at a cut, flat factors left out there)
    for block, k in w.runs:
        if k > 3:
            fs += block
            skipped.append((len(fs), len(block) * (k - 3)))
            k = 2
        fs += block * k
    for i in range(len(fs) - 2):
        c, e = fs[i]
        if e == e0 and c == c0 and fs[i + 1] == second and fs[i + 2] == third:
            return i + sum(n for at, n in skipped if at <= i)
    return None


def _split(runs: tuple[Run, ...], i: int) -> tuple[tuple[Run, ...], tuple[Run, ...]]:
    """The runs of the first i flat factors and the runs of the rest;
    a run that holds the cut is cut into whole copies and a part block."""
    for r, (block, k) in enumerate(runs):
        n = len(block) * k
        if i < n:
            q, o = divmod(i, len(block))
            head = ((block, q),) + (((block[:o], 1),) if o else ())
            tail = (((block[o:], 1),) if o else ()) + ((block, k - q - (o > 0)),)
            return (runs[:r] + tuple(x for x in head if x[1]),
                    tuple(x for x in tail if x[1]) + runs[r + 1:])
        i -= n
    return runs, ()


def apply_fix_rule(w: TwistWord, i: int) -> TwistWord:
    """Replace the subword a^-1 (a+b)^1 b^-1 at flat index i, as found
    by `find_fix_rule`, by (a-b)^-1 (matrix-equal)."""
    head, rest = _split(w.runs, max(i, 0))
    at, tail = _split(rest, 3)
    if i < 0 or _flat(at) != _FIX_PATTERN:
        raise WordError(f"fix-rule pattern a^-1 (a+b)^1 b^-1 not at index {i}")
    return TwistWord(head + ((((CURVE_AMB, -1),), 1),) + tail, w.cst, w.genus)
