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
from .oracle import _as_mat2, _search
from .problems import Budget, Verdict, no, unknown, yes


@dataclass(frozen=True)
class StabilizerBasis:
    """Change of basis reducing M*x = y over determinant-1 matrices to
    membership in the cyclic group of shears: M*x = y holds iff
    M = B * (1 1; 0 1)^k * C for some integer k."""

    B: Mat2
    C: Mat2
    kgen: Mat2 = Mat2(1, 1, 0, 1)

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


def _first_column(m: Mat2) -> Vec2:
    col = Vec2(m.m11, m.m21)
    if col.is_zero():
        col = Vec2(m.m12, m.m22)
    return primitive(col)[0]


def _first_row(m: Mat2) -> Vec2:
    row = Vec2(m.m11, m.m12)
    if row.is_zero():
        row = Vec2(m.m21, m.m22)
    return primitive(row)[0]


def _orbit_search(sl, start: Vec2, targets, budget: Budget) -> Verdict:
    """Canonical search for a product of the determinant-1 generators
    taking start into the target set; the witness is in product order
    and indexed into the original generator list."""
    mats = [g for _, g in sl]

    def step(s: Vec2, j: int) -> Vec2:
        t = mats[j].apply(s)
        # determinant-1 factors preserve the gcd, so the orbit of a
        # primitive vector stays primitive
        assert gcd(t.v1, t.v2) == 1
        return t

    v = _search(start, mats, step, lambda s: s in targets, budget, "prepend")
    if v.is_yes:
        return yes(tuple(sl[j][0] for j in v.witness))
    return v


def solve_mortality(gens, budget: Budget) -> Verdict:
    """Is the zero matrix a product of the generators?

    Any rank-0 generator answers immediately.  Otherwise every candidate
    zero product is bracketed by two rank-1 generators: the right one
    contributes its primitive column x, the left one its primitive row
    (y1, y2), and the middle must map x onto a multiple of (-y2, y1).
    Since the middle preserves primitivity, only the two signed copies of
    that vector can occur, and a budgeted orbit search decides each
    bracket pair.  Upper-triangular generators are read as general
    matrices.
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
    sl = [(i, g) for i, g in enumerate(gens) if g.det() == 1]
    hit_budget = False
    for i1, m1 in singular:
        row = _first_row(m1)
        target = Vec2(-row.v2, row.v1)
        targets = (target, Vec2(-target.v1, -target.v2))
        for i_n, mn in singular:
            v = _orbit_search(sl, _first_column(mn), targets, budget)
            if v.is_yes:
                return yes((i1,) + v.witness + (i_n,))
            if not v.definitive:
                hit_budget = True
    return unknown() if hit_budget else no("saturation")
