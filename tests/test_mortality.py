"""Mortality for 2x2 generators with determinants 0 or 1."""

import random
from math import gcd

import pytest

from semireach import mortality
from semireach import problems as P
from semireach.bridge import gen_hard
from semireach.cli import dispatch, random_instance
from semireach.core import Mat2, UTMat, Vec2, primitive
from semireach.machines import PrmBudget
from semireach.mortality import solve_mortality
from semireach.oracle import oracle_solve, replay
from semireach.problems import Budget, ProblemInstance, no, unknown, yes

B = Budget(8, 10 ** 6)


def _rand_primitive(rng):
    while True:
        v = Vec2(rng.randint(-9, 9), rng.randint(-9, 9))
        if not v.is_zero() and gcd(v.v1, v.v2) == 1:
            return v


def test_mortality_examples():
    inst = gen_hard([3, 5], 11, "mortality")
    v = solve_mortality(inst.generators, B)
    assert v.is_yes and replay(inst, v.witness)

    assert solve_mortality((Mat2(1, 1, 0, 1), Mat2(2, 1, 1, 1)), B).is_no
    # commuting-shear middles are decided exactly, whatever the budget:
    # 1000 is no sum of 97s and 89s, and 10**k is a sum of 3s and 5s
    v = solve_mortality(gen_hard([97, 89], 1000, "mortality").generators, B)
    assert v.is_no and v.certificate == "structural"
    for k in range(1, 7):
        inst = gen_hard([3, 5], 10 ** k, "mortality")
        v = solve_mortality(inst.generators, Budget(1))
        assert v.is_yes and replay(inst, v.witness)
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


def _finite_orbit_gens(rng):
    """Two powers of a conjugate of (0 -1; 1 1), which has order 6, and
    some singular generators: no closed-form shape, and every orbit is
    finite, so the orbit search saturates."""
    while True:
        p = Mat2(*(rng.randint(-2, 2) for _ in range(4)))
        if p.det() == 1:
            break
    m = p * Mat2(0, -1, 1, 1) * _inv_sl(p)
    singular = [g for g in _random_mortality_gens(rng) if g.det() == 0]
    return (m, m * m) + tuple(singular or [Mat2(1, 0, 0, 0)])


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
    cases += [_finite_orbit_gens(rng) for _ in range(40)]
    kinds, closed, skipped = set(), set(), 0
    for budget in (Budget(8, 10 ** 6), Budget(8, 12)):
        for gens in cases:
            searches.clear()
            got = solve_mortality(gens, budget)
            want = _reference_mortality(list(gens), budget)
            if got.is_yes:
                assert replay(ProblemInstance(P.MORTALITY, gens),
                              got.witness)
            if not searches:
                # a closed-form shape (or an answer before any bracket):
                # definitive, and equal to the reference where it is
                assert got.definitive, (gens, budget)
                if want.definitive:
                    assert got.kind == want.kind, (gens, budget)
                closed.add((got.kind, want.kind))
                continue
            assert (got.kind, got.certificate, got.witness) == \
                (want.kind, want.certificate, want.witness), (gens, budget)
            # each (column, targets) pair is searched at most once
            assert len(searches) == len(set(searches))
            n = sum(g.det() == 0 for g in gens)
            if not got.is_yes:
                skipped += n * n - len(searches)
            kinds.add((budget.max_entry, got.kind))
    assert kinds == {(e, k) for e in (12, 10 ** 6)
                     for k in ("yes", "no", "unknown")}
    assert {("yes", "yes"), ("no", "no"), ("yes", "unknown"),
            ("no", "unknown")} <= closed
    assert skipped > 0


def _first_depths(mats, start, max_len):
    """The depth at which each state of the orbit of start is first
    reached, up to max_len."""
    depth, level = {start: 0}, [start]
    for d in range(1, max_len + 1):
        level = [t for t in {m.apply(v) for m in mats for v in level}
                 if t not in depth]
        depth.update((t, d) for t in level)
    return depth


def test_orbit_search_matches_vec2_reference_at_every_depth():
    # the orbit search's last level looks up the generators' inverses
    # applied to both targets; compare at every max_len, with and
    # without a cap, on determinant-1 sets that do not commute.  A
    # negated copy of a generator sends a state to both targets at once.
    rng = random.Random(46)
    both = 0
    for _ in range(120):
        while True:
            mats = []
            while len(mats) < rng.randint(2, 3):
                m = Mat2(*(rng.randint(-2, 2) for _ in range(4)))
                if m.det() == 1:
                    mats.append(m)
            if any(a * b != b * a for a in mats for b in mats):
                break
        if rng.random() < 0.5:
            m = rng.choice(mats)
            mats.insert(rng.randrange(len(mats) + 1),
                        Mat2(-m.m11, -m.m12, -m.m21, -m.m22))
        start, row = _rand_primitive(rng), _rand_primitive(rng)
        targets = (Vec2(-row.v2, row.v1), Vec2(row.v2, -row.v1))
        if rng.random() < 0.5:
            # a target in the orbit, so that some depth hits
            v = start
            for _ in range(rng.randint(1, 6)):
                v = rng.choice(mats).apply(v)
            targets = (v, Vec2(-v.v1, -v.v2))
        depth = _first_depths(mats, start, 8)
        both += targets[0] in depth and \
            depth[targets[0]] == depth.get(targets[1])
        entries = [(m.m11, m.m12, m.m21, m.m22) for m in mats]
        keys = frozenset((t.v1, t.v2) for t in targets)
        for cap in (12, None):
            for max_len in range(1, 9):
                budget = Budget(max_len, cap)
                got = mortality._orbit_search(entries, (start.v1, start.v2),
                                              keys, budget)
                want = _reference_orbit_search(mats, start, targets, budget)
                assert (got.kind, got.certificate, got.witness) == \
                    (want.kind, want.certificate, want.witness), \
                    (mats, start, targets, budget)
    assert both >= 10


def test_orbit_search_last_level_tie_break():
    # from (-1, 2) the depth-2 frontier is (-1, 0), (3, 1), (2, -1),
    # (-5, 2); generator 0 takes position 2 into the targets and
    # generator 1 takes position 1 there.  The words are (0, 1, 0) and
    # (1, 0, 1), and the lex-least one wins although its frontier
    # position is later
    mats = [(-1, 0, -1, -1), (1, -1, 0, 1)]
    targets = frozenset({(-2, -1), (2, 1)})
    v = mortality._orbit_search(mats, (-1, 2), targets, Budget(3))
    assert v == yes((0, 1, 0))
    m = Mat2.identity()
    for j in v.witness:
        m = m * Mat2(*mats[j])
    assert (m.m11 * -1 + m.m12 * 2, m.m21 * -1 + m.m22 * 2) in targets


def _inv_sl(m: Mat2) -> Mat2:
    assert m.det() == 1
    return Mat2(m.m22, -m.m12, -m.m21, m.m11)


def _rand_sl(rng, accept, lo=-3, hi=3):
    while True:
        m = (rng.randint(lo, hi), rng.randint(lo, hi),
             rng.randint(lo, hi), rng.randint(lo, hi))
        if m[0] * m[3] - m[1] * m[2] == 1 and accept(m[0] + m[3]):
            return m


def _act(m, v):
    return (m[0] * v[0] + m[1] * v[1], m[2] * v[0] + m[3] * v[1])


def _brute_hits(mats, start, targets, depth=60):
    """Does a product of at most `depth` of mats take start into
    targets?  Breadth-first over vectors, no magnitude cap."""
    seen, frontier = {start}, [start]
    for _ in range(depth):
        if seen & targets:
            return True
        nxt = []
        for v in frontier:
            for m in mats:
                w = _act(m, v)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return bool(seen & targets)


def test_closed_form_matches_brute_force_orbit():
    # each shape the closed form takes, with small entries, against an
    # uncapped breadth-first orbit of depth 60
    rng = random.Random(45)
    signs = [(1, 0, 0, 1), (-1, 0, 0, -1)]
    seen = set()
    for shape in ("none", "elliptic", "hyperbolic", "shears") * 400:
        start, mats = _rand_primitive(rng), []
        if shape == "shears":
            # +-(I + k*N0) with N0 = u*(-u2, u1)^T, which kills u
            u = _rand_primitive(rng)
            n0 = (-u.v1 * u.v2, u.v1 * u.v1, -u.v2 * u.v2, u.v1 * u.v2)
            ks = []
            for _ in range(rng.randint(1, 3)):
                e, k = rng.choice((1, -1)), rng.choice((-3, -2, -1, 1, 2, 3))
                mats.append(tuple(e * (i + k * n) for i, n in
                                  zip((1, 0, 0, 1), n0)))
                ks.append(k)
            if min(ks) < 0 < max(ks):
                seen.add("mixed-sign k")
            if rng.random() < 0.15:
                start = u
                seen.add("N0 x = 0")
        elif shape != "none":
            m = _rand_sl(rng, (lambda tr: abs(tr) < 2) if shape == "elliptic"
                         else (lambda tr: abs(tr) >= 3))
            seen.add((shape, m[0] + m[3]))
            mats = [m] + ([tuple(-e for e in m)] if rng.random() < 0.2
                          else [])
        start = (start.v1, start.v2)
        if rng.random() < 0.3:
            mats.append(rng.choice(signs))
            seen.add("+-I")
        rng.shuffle(mats)
        # a target on the orbit half the time
        t = start
        if rng.random() < 0.5:
            for _ in range(rng.randint(0, 6) if mats else 0):
                t = _act(rng.choice(mats), t)
        else:
            t = _rand_primitive(rng)
            t = (t.v1, t.v2)
        targets = frozenset({t, (-t[0], -t[1])})
        if start in targets:
            seen.add("start is a target")
        solve = mortality._closed_form(mats)
        assert solve is not None, mats
        got = solve(start, targets)
        assert got.definitive and got.certificate in (None, "structural")
        assert got.is_yes == _brute_hits(mats, start, targets), \
            (mats, start, targets)
        if got.is_yes:
            v = start
            for j in reversed(got.witness):
                v = _act(mats[j], v)
            assert v in targets, (mats, start, targets, got.witness)
            seen.add((shape, "yes"))
    assert {"mixed-sign k", "N0 x = 0", "+-I", "start is a target",
            ("none", "yes"),
            ("elliptic", -1), ("elliptic", 0), ("elliptic", 1),
            ("hyperbolic", 3), ("hyperbolic", -3), ("elliptic", "yes"),
            ("hyperbolic", "yes"), ("shears", "yes")} <= seen


def test_upper_triangular_mortality_is_never_unknown():
    # every upper-triangular determinant-1 matrix is +-(1 b; 0 1): the
    # middles are commuting shears, decided without the orbit search
    rng = random.Random(46)
    budget, prm = Budget(6, 10 ** 6), PrmBudget(1024, 10 ** 6)
    kinds = set()
    for _ in range(300):
        gens = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                s = rng.choice((1, -1))
                gens.append(UTMat(s, rng.randint(-4, 4), s))
            else:
                a, c = rng.choice(((0, rng.randint(-2, 2)),
                                   (rng.randint(-2, 2), 0)))
                gens.append(UTMat(a, rng.randint(-3, 3), c))
        inst = ProblemInstance(P.MORTALITY, tuple(gens))
        got, route = dispatch(inst, "mortality", budget, prm)
        assert route == "mortality" and got.definitive, gens
        if got.is_yes:
            assert replay(inst, got.witness), gens
        want = oracle_solve(inst, budget)
        if want.definitive:
            assert got.kind == want.kind, gens
        kinds.add((got.kind, want.kind))
    assert {("yes", "yes"), ("no", "no"), ("no", "unknown")} <= kinds
