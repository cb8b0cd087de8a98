"""Mortality for 2x2 integer generators whose determinants are 0 or +1.

A zero product must begin and end with singular factors, and everything
between them can be taken from the determinant-1 generators.  The two
singular endpoints pin down a start column and a kill row, turning the
middle into a vector-orbit question: decided in closed form for commuting
shears and for a single generator, and by a budgeted search otherwise.
"""

from __future__ import annotations

from functools import partial
from math import gcd

from .core import Mat2, Vec2, primitive
from .diophantine import nonneg_combination
from .oracle import _as_mat2, _entries, _search, _solve2
from .problems import Budget, Verdict, disjunction, no, yes


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
    indexes mats.  The last level looks up each target's preimage under
    each generator."""

    def step(v, j):
        a, b, c, d = mats[j]
        t = (a * v[0] + b * v[1], c * v[0] + d * v[1])
        # determinant-1 factors preserve the gcd, so the orbit of a
        # primitive vector stays primitive
        assert gcd(*t) == 1
        return t

    def preimage(j):
        return tuple(v for t in targets for v in _solve2(mats[j], t))

    return _search(start, mats, step, targets.__contains__, preimage,
                   budget, "prepend")


def _shear(m):
    """(N0, k) with m == +-(I + k*N0), where N0 is nilpotent with coprime
    entries and a positive first nonzero entry, or None when |tr m| != 2.
    m is a determinant-1 entry tuple other than +-I."""
    a, b, c, d = m
    if abs(a + d) != 2:
        return None
    e = (a + d) // 2
    n = (e * a - 1, e * b, e * c, e * d - 1)
    k = gcd(*n)
    if next(v for v in n if v) < 0:
        k = -k
    return tuple(v // k for v in n), k


def _closed_form(mats):
    """An exact replacement for _orbit_search(mats, start, targets, _)
    when the determinant-1 generators allow one, else None.

    The targets are the two signed copies of one vector, so only the
    generators up to sign matter and +-I drops out.  What is left is
    decided exactly when it is
    - empty: the start must be a target;
    - commuting shears +-(I + k_j*N0): a product maps x to
      +-(x + K*N0*x) with K the sum of its k_j, one nonneg_combination;
    - one generator m with |tr m| < 2: m has order at most 6, so its
      orbit is walked until it returns to the start;
    - one generator m with |tr m| >= 3: each coordinate of m^n*x obeys
      u' = tr*u - u_prev, so once a coordinate grows past the targets'
      largest entry it more than doubles at every later step.
    A No is structural; a Yes word groups its factors by generator.
    """
    live, seen = [], set()
    for j, m in enumerate(mats):
        key = max(m, tuple(-e for e in m))
        if key != (1, 0, 0, 1) and key not in seen:
            seen.add(key)
            live.append(j)
    shears = [_shear(mats[j]) for j in live]
    if all(shears) and len({n0 for n0, _ in shears}) <= 1:
        def middle(start, targets):
            if start in targets:
                return yes(())
            # no generator at all acts as N0 = 0
            p, q, r, s = shears[0][0] if shears else (0, 0, 0, 0)
            x1, x2 = start
            n1, n2 = p * x1 + q * x2, r * x1 + s * x2
            if not (n1 or n2):
                return no("structural")  # every product fixes +-start
            for t1, t2 in sorted(targets):
                d1, d2 = t1 - x1, t2 - x2
                ksum = d1 // n1 if n1 else d2 // n2
                if (ksum * n1, ksum * n2) != (d1, d2):
                    continue
                counts = nonneg_combination([k for _, k in shears], ksum)
                if counts is not None:
                    return yes(j for j, c in zip(live, counts)
                               for _ in range(c))
            return no("structural")
        return middle
    if len(live) != 1:
        return None
    j = live[0]
    a, b, c, d = mats[j]
    elliptic = abs(a + d) < 2

    def power(start, targets):
        bound = max(abs(e) for t in targets for e in t)
        v, n = start, 0
        while v not in targets:
            w = (a * v[0] + b * v[1], c * v[0] + d * v[1])
            if w == start if elliptic else \
                    any(abs(y) > max(abs(x), bound) for x, y in zip(v, w)):
                return no("structural")
            v, n = w, n + 1
        return yes((j,) * n)
    return power


def solve_mortality(gens, budget: Budget) -> Verdict:
    """Is the zero matrix a product of the generators?

    Any rank-0 generator answers immediately.  Otherwise every candidate
    zero product is bracketed by two rank-1 generators: the right one
    contributes its primitive column x, the left one its primitive row
    (y1, y2), and the middle must map x onto a multiple of (-y2, y1).
    Since the middle preserves primitivity, only the two signed copies of
    that vector can occur.  _closed_form decides each bracket pair when
    the determinant-1 generators have its shape, and a budgeted orbit
    search does otherwise; only that search uses the budget.  A pair
    whose column and targets were already searched is skipped: that
    search did not answer Yes, and a repeat would not either.
    Upper-triangular generators are read as general matrices.
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
    search = _closed_form(mats) or partial(_orbit_search, mats,
                                           budget=budget)
    columns = [(i, _first_column(g)) for i, g in singular]
    searched = set()
    verdicts = []
    for i1, m1 in singular:
        targets = _kill_targets(m1)
        for i_n, col in columns:
            if (col, targets) in searched:
                continue
            searched.add((col, targets))
            v = search(col, targets)
            if v.is_yes:
                return yes((i1,) + tuple(sl[j] for j in v.witness) + (i_n,))
            verdicts.append(v)
    return disjunction(verdicts)
