"""Mortality for 2x2 generators with determinants 0 or 1, plus the
change-of-basis parametrization of the vector stabilizer."""

import random
from math import gcd

import pytest

from semireach import mortality
from semireach import problems as P
from semireach.bridge import gen_hard
from semireach.cli import random_instance
from semireach.core import Mat2, Vec2, primitive
from semireach.mortality import (StabilizerBasis, solve_mortality,
                                 stabilizer_basis)
from semireach.oracle import oracle_solve, replay
from semireach.problems import Budget, ProblemInstance, no, unknown, yes

B = Budget(8, 10 ** 6)


def _rand_primitive(rng):
    while True:
        v = Vec2(rng.randint(-9, 9), rng.randint(-9, 9))
        if not v.is_zero() and gcd(v.v1, v.v2) == 1:
            return v


def test_stabilizer_basis_examples():
    sb = stabilizer_basis(Vec2(1, 0), Vec2(0, 1))
    assert sb.C == Mat2.identity()
    assert sb.B == Mat2(0, -1, 1, 0)

    sb = stabilizer_basis(Vec2(2, 3), Vec2(1, 0))
    assert sb.C == Mat2(-1, 1, -3, 2)
    assert sb.C.apply(Vec2(2, 3)) == Vec2(1, 0) and sb.C.det() == 1

    with pytest.raises(ValueError):
        stabilizer_basis(Vec2(2, 4), Vec2(1, 0))
    with pytest.raises(ValueError):
        stabilizer_basis(Vec2(1, 0), Vec2(0, 0))


def test_stabilizer_basis_sound_and_injective():
    rng = random.Random(41)
    for _ in range(200):
        x = _rand_primitive(rng)
        y = _rand_primitive(rng)
        sb = stabilizer_basis(x, y)
        seen = set()
        for k in range(-20, 21):
            m = sb.at(k)
            assert m.det() == 1
            assert m.apply(x) == y, (x, y, k)
            key = (m.m11, m.m12, m.m21, m.m22)
            assert key not in seen
            seen.add(key)


def test_mortality_examples():
    inst = gen_hard([3, 5], 11, "mortality")
    v = solve_mortality(inst.generators, B)
    assert v.is_yes and replay(inst, v.witness)

    assert solve_mortality((Mat2(1, 1, 0, 1), Mat2(2, 1, 1, 1)), B).is_no
    z = solve_mortality((Mat2(1, 0, 0, 1), Mat2(0, 0, 0, 0)), B)
    assert z.is_yes and z.witness == (1,)
    with pytest.raises(ValueError):
        solve_mortality((Mat2(1, 0, 0, -1),), B)


def _random_mortality_gens(rng):
    gens = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            # a singular matrix as an outer product
            u = (rng.randint(-2, 2), rng.randint(-2, 2))
            w = (rng.randint(-2, 2), rng.randint(-2, 2))
            gens.append(Mat2(u[0] * w[0], u[0] * w[1],
                             u[1] * w[0], u[1] * w[1]))
        else:
            while True:
                m = Mat2(rng.randint(-2, 2), rng.randint(-2, 2),
                         rng.randint(-2, 2), rng.randint(-2, 2))
                if m.det() == 1:
                    gens.append(m)
                    break
    return tuple(gens)


def test_mortality_cross_check():
    rng = random.Random(42)
    for _ in range(200):
        gens = _random_mortality_gens(rng)
        got = solve_mortality(gens, B)
        inst = ProblemInstance(P.MORTALITY, gens)
        if got.is_yes:
            assert replay(inst, got.witness), gens
        want = oracle_solve(inst, B)
        if want.definitive and got.definitive:
            assert got.is_yes == want.is_yes, gens
        if want.is_yes:
            assert got.is_yes, gens


def _reference_orbit_search(mats, start: Vec2, targets, budget):
    """The orbit search on Vec2 states through Mat2.apply, carrying each
    state's word: level by level, generators in index order, each level's
    states in the order they were found."""
    if start in targets:
        return yes(())
    visited = {start}
    frontier = [((), start)]
    pruned = False
    for _ in range(budget.max_len):
        nxt = []
        for j, m in enumerate(mats):
            for w, s in frontier:
                t = m.apply(s)
                if t in visited:
                    continue
                if budget.max_entry is not None and \
                        max(abs(t.v1), abs(t.v2)) > budget.max_entry:
                    pruned = True
                    continue
                visited.add(t)
                if t in targets:
                    return yes((j,) + w)
                nxt.append(((j,) + w, t))
        if not nxt:
            return no("saturation") if not pruned else unknown()
        frontier = nxt
    return unknown()


def _reference_mortality(gens, budget):
    """solve_mortality with Vec2 orbit searches and every bracket pair
    searched, repeats included."""
    for i, g in enumerate(gens):
        if g.is_zero():
            return yes((i,))
    singular = [(i, g) for i, g in enumerate(gens) if g.det() == 0]
    if not singular:
        return no("structural")
    sl = [(i, g) for i, g in enumerate(gens) if g.det() == 1]
    hit_budget = False
    for i1, m1 in singular:
        row = Vec2(m1.m11, m1.m12)
        if row.is_zero():
            row = Vec2(m1.m21, m1.m22)
        row = primitive(row)[0]
        targets = (Vec2(-row.v2, row.v1), Vec2(row.v2, -row.v1))
        for i_n, mn in singular:
            col = Vec2(mn.m11, mn.m21)
            if col.is_zero():
                col = Vec2(mn.m12, mn.m22)
            v = _reference_orbit_search([g for _, g in sl],
                                        primitive(col)[0], targets, budget)
            if v.is_yes:
                return yes((i1,) + tuple(sl[j][0] for j in v.witness)
                           + (i_n,))
            if not v.definitive:
                hit_budget = True
    return unknown() if hit_budget else no("saturation")


def _with_repeated_singulars(rng, gens):
    """gens plus a copy or a multiple of each singular generator: same
    column and kill row, so the extra bracket pairs repeat searches."""
    extra = []
    for g in gens:
        if g.det() == 0 and not g.is_zero():
            k = rng.choice((1, 2, -1))
            extra.append(Mat2(k * g.m11, k * g.m12, k * g.m21, k * g.m22))
    out = list(gens) + extra
    rng.shuffle(out)
    return tuple(out)


def test_orbit_search_matches_vec2_reference(monkeypatch):
    searches = []
    search = mortality._orbit_search

    def counted(mats, start, targets, budget):
        searches.append((start, targets))
        return search(mats, start, targets, budget)

    monkeypatch.setattr(mortality, "_orbit_search", counted)
    rng = random.Random(44)
    cases = [gen_hard([3, 5], t, "mortality").generators
             for t in range(0, 30, 2)]
    cases += [gen_hard([rng.randint(2, 9) for _ in range(rng.randint(1, 3))],
                       rng.randint(0, 40), "mortality").generators
              for _ in range(20)]
    cases += [_random_mortality_gens(rng) for _ in range(150)]
    cases += [random_instance(rng, "mortality").generators
              for _ in range(150)]
    cases += [_with_repeated_singulars(rng, gens) for gens in cases[-300:]]
    kinds, skipped = set(), 0
    for budget in (Budget(8, 10 ** 6), Budget(8, 12)):
        for gens in cases:
            searches.clear()
            got = solve_mortality(gens, budget)
            want = _reference_mortality(list(gens), budget)
            assert (got.kind, got.certificate, got.witness) == \
                (want.kind, want.certificate, want.witness), (gens, budget)
            if got.is_yes:
                assert replay(ProblemInstance(P.MORTALITY, gens),
                              got.witness)
            # each (column, targets) pair is searched at most once
            assert len(searches) == len(set(searches))
            n = sum(g.det() == 0 for g in gens)
            if not got.is_yes and not any(g.is_zero() for g in gens):
                skipped += n * n - len(searches)
            kinds.add((budget.max_entry, got.kind))
    assert kinds == {(e, k) for e in (12, 10 ** 6)
                     for k in ("yes", "no", "unknown")}
    assert skipped > 0


def _inv_sl(m: Mat2) -> Mat2:
    assert m.det() == 1
    return Mat2(m.m22, -m.m12, -m.m21, m.m11)


def test_orbit_answer_matches_shear_parametrization():
    # a determinant-1 product maps x to +-y exactly when it equals
    # +-B * (1 k; 0 1) * C for some integer k; verify on word sweeps
    rng = random.Random(43)
    for _ in range(60):
        sl = []
        for _ in range(rng.randint(1, 2)):
            while True:
                m = Mat2(rng.randint(-2, 2), rng.randint(-2, 2),
                         rng.randint(-2, 2), rng.randint(-2, 2))
                if m.det() == 1:
                    sl.append(m)
                    break
        x = _rand_primitive(rng)
        y = _rand_primitive(rng)
        sb = stabilizer_basis(x, y)
        binv, cinv = _inv_sl(sb.B), _inv_sl(sb.C)
        products = {Mat2.identity()}
        frontier = [Mat2.identity()]
        for _ in range(6):
            nxt = []
            for m in frontier:
                for g in sl:
                    p = m * g
                    if p in products:
                        continue
                    products.add(p)
                    nxt.append(p)
            frontier = nxt
        neg_y = Vec2(-y.v1, -y.v2)
        for m in products:
            hits = m.apply(x) in (y, neg_y)
            in_coset = False
            for s in (1, -1):
                sm = Mat2(s * m.m11, s * m.m12, s * m.m21, s * m.m22)
                n = binv * sm * cinv
                if (n.m11, n.m21, n.m22) == (1, 0, 1):
                    in_coset = True
                    assert sm == sb.at(n.m12)
            assert hits == in_coset, (sl, x, y, m)
