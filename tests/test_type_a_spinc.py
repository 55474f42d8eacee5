"""Recheck the `typeA` catalog by the Spin^c classes of its rotation vectors.

A chain of Legendrian unknots with contact (-1)-surgeries presents L(p, q),
and its rotation vectors are read as characteristic covectors (Gompf,
"Handlebody construction of Stein surfaces", Ann. of Math. 1998;
Lisca-Matic, Invent. Math. 1997; Honda, "On the classification of tight
contact structures I", Geom. Topol. 2000).  The check uses only the chain's
coefficients r_i and the vectors that `assignments()` lists, not the
product formula that `ChainReport.count` and `honda_count` share:

- the linking matrix L is tridiagonal, r_i on the diagonal and 1 beside
  it, and |det L| = p;
- a rotation vector is characteristic: rot_i = r_i mod 2;
- knot i has tb = r_i + 1, and a Legendrian unknot obeys the Bennequin
  bound tb + |rot_i| <= -1;
- the set of vectors is closed under rot -> -rot, the conjugate structure;
- two vectors give the same Spin^c structure exactly when they differ by an
  element of 2L Z^n, that is when adj(L) rot agree mod 2p; the tight
  structures are told apart by it, so there are `count` distinct keys.
"""

from itertools import islice
from math import gcd
from operator import mul

from hypothesis import given, settings
from hypothesis import strategies as st

from eqsurg.lens import type_A_chain

from conftest import det_rows


def linking_matrix(terms) -> list[list[int]]:
    n = len(terms)
    return [[terms[i] if i == j else int(abs(i - j) == 1) for j in range(n)]
            for i in range(n)]


def adjugate(terms) -> tuple[int, list[list[int]]]:
    """(det L, adj L) from the continuants of the chain.

    head[i] is the leading principal minor of size i and tail[j] the
    trailing one from knot j on (head[0] = tail[n] = 1); for i <= j the
    adjugate entry is (-1)^(i+j) head[i] tail[j+1], and det L = head[n].
    """
    n = len(terms)
    head, tail = [0, 1], [0, 1]
    for r in terms:
        head.append(r * head[-1] - head[-2])
    for r in reversed(terms):
        tail.append(r * tail[-1] - tail[-2])
    head, tail = head[1:], tail[:0:-1]
    adj = [[(-1) ** (i + j) * head[min(i, j)] * tail[max(i, j) + 1] for j in range(n)]
           for i in range(n)]
    return head[n], adj


def check_chain(chain) -> None:
    terms, p = chain.coefficients, chain.p
    n = len(terms)
    rows = linking_matrix(terms)
    det, adj = adjugate(terms)
    assert det == det_rows(rows) and abs(det) == p, (chain, det)
    assert [[sum(map(mul, row, col)) for col in zip(*adj)] for row in rows] == [
        [det * (i == j) for j in range(n)] for i in range(n)
    ], chain
    # one vector past `count` is enough to fail, and a chain whose choices
    # grew is not listed in full
    vectors = list(islice(chain.assignments(), chain.count + 1))
    for rot in vectors:
        assert all((x - r) % 2 == 0 for x, r in zip(rot, terms)), (chain, rot)
        assert all(r + 1 + abs(x) <= -1 for x, r in zip(rot, terms)), (chain, rot)
    assert set(vectors) == {tuple(-x for x in rot) for rot in vectors}, chain
    keys = {tuple(sum(map(mul, row, rot)) % (2 * p) for row in adj) for rot in vectors}
    assert len(keys) == len(vectors) == chain.count, (chain, len(keys), len(vectors))


def test_every_chain_to_p_60():
    chains = 0
    for p in range(2, 61):
        for q in range(1, p):
            if gcd(p, q) == 1:
                check_chain(type_A_chain(p, q))
                chains += 1
    assert chains == 1101


@st.composite
def _terms(draw, budget=1000):
    """Chain coefficients r_i <= -2 with prod |r_i + 1| <= budget."""
    terms, count = [], 1
    for _ in range(draw(st.integers(1, 12))):
        r = draw(st.integers(-1 - budget // count, -2))
        terms.append(r)
        count *= -r - 1
    return terms


@settings(max_examples=60, deadline=None)
@given(_terms())
def test_chain_from_its_terms(terms):
    """The chain of -p/q = [r_1, ..., r_n], with p = |det L| and q the
    minor that deletes knot 1, has these coefficients and passes the check."""
    det, adj = adjugate(terms)
    chain = type_A_chain(abs(det), abs(adj[0][0]))
    assert chain.coefficients == tuple(terms)
    check_chain(chain)
