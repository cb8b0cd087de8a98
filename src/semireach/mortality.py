"""Mortality for 2x2 integer generators whose determinants are 0 or +1.

A zero product must begin and end with singular factors, and everything
between them can be taken from the determinant-1 generators.  The two
singular endpoints pin down a start column and a kill row, turning the
middle into a vector-orbit search.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .core import Mat2, Vec2, primitive, xgcd
from .oracle import _as_mat2, _entries, _search
from .problems import Budget, Verdict, disjunction, no, yes


@dataclass(frozen=True)
class StabilizerBasis:
    """Change of basis reducing M*x = y over determinant-1 matrices to
    membership in the cyclic group of shears: M*x = y holds iff
    M = B * (1 1; 0 1)^k * C for some integer k."""

    B: Mat2
    C: Mat2

    def at(self, k: int) -> Mat2:
        return self.B * Mat2(1, k, 0, 1) * self.C


def stabilizer_basis(x: Vec2, y: Vec2) -> StabilizerBasis:
    """Determinant-1 matrices with C*x = (1,0) and B*(1,0) = y, for
    primitive x and y."""
    for name, v in (("x", x), ("y", y)):
        if v.is_zero() or gcd(v.v1, v.v2) != 1:
            raise ValueError(f"{name} must be primitive")
    u, v, _ = xgcd(x.v1, x.v2)
    c = Mat2(u, v, -x.v2, x.v1)
    up, vp, _ = xgcd(y.v1, y.v2)
    b = Mat2(y.v1, -vp, y.v2, up)
    assert c.det() == 1 and b.det() == 1
    assert c.apply(x) == Vec2(1, 0) and b.apply(Vec2(1, 0)) == y
    return StabilizerBasis(B=b, C=c)


def _first_column(m: Mat2) -> tuple[int, int]:
    col = Vec2(m.m11, m.m21)
    if col.is_zero():
        col = Vec2(m.m12, m.m22)
    u = primitive(col)[0]
    return (u.v1, u.v2)


def _kill_targets(m: Mat2) -> frozenset:
    """The two signed primitive vectors that m's first nonzero row
    sends to 0."""
    row = Vec2(m.m11, m.m12)
    if row.is_zero():
        row = Vec2(m.m21, m.m22)
    u = primitive(row)[0]
    return frozenset({(-u.v2, u.v1), (u.v2, -u.v1)})


def _orbit_search(mats, start: tuple, targets: frozenset,
                  budget: Budget) -> Verdict:
    """Canonical search for a product of the determinant-1 generators,
    given as (m11, m12, m21, m22) tuples, taking the (v1, v2) tuple
    start into the target set; the witness is in product order and
    indexes mats."""

    def step(v, j):
        a, b, c, d = mats[j]
        t = (a * v[0] + b * v[1], c * v[0] + d * v[1])
        # determinant-1 factors preserve the gcd, so the orbit of a
        # primitive vector stays primitive
        assert gcd(*t) == 1
        return t

    return _search(start, mats, step, targets.__contains__, budget,
                   "prepend")


def solve_mortality(gens, budget: Budget) -> Verdict:
    """Is the zero matrix a product of the generators?

    Any rank-0 generator answers immediately.  Otherwise every candidate
    zero product is bracketed by two rank-1 generators: the right one
    contributes its primitive column x, the left one its primitive row
    (y1, y2), and the middle must map x onto a multiple of (-y2, y1).
    Since the middle preserves primitivity, only the two signed copies of
    that vector can occur, and a budgeted orbit search decides each
    bracket pair.  A pair whose column and targets were already searched
    is skipped: that search did not answer Yes, and a repeat would not
    either.  Upper-triangular generators are read as general matrices.
    """
    gens = [_as_mat2(g) for g in gens]
    for g in gens:
        if g.det() not in (0, 1):
            raise ValueError(f"generator determinant {g.det()} not in {{0, 1}}")
    for i, g in enumerate(gens):
        if g.is_zero():
            return yes((i,))
    singular = [(i, g) for i, g in enumerate(gens) if g.det() == 0]
    if not singular:
        return no("structural")
    sl = [i for i, g in enumerate(gens) if g.det() == 1]
    mats = [_entries(gens[i], False) for i in sl]
    columns = [(i, _first_column(g)) for i, g in singular]
    searched = set()
    verdicts = []
    for i1, m1 in singular:
        targets = _kill_targets(m1)
        for i_n, col in columns:
            if (col, targets) in searched:
                continue
            searched.add((col, targets))
            v = _orbit_search(mats, col, targets, budget)
            if v.is_yes:
                return yes((i1,) + tuple(sl[j] for j in v.witness) + (i_n,))
            verdicts.append(v)
    return disjunction(verdicts)
