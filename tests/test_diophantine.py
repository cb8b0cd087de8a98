"""Parity cosets, nonnegative combinations, semilinear sets."""

import itertools
import random
import time
from math import gcd

from semireach import bridge, diophantine
from semireach.detpm1 import solve_detpm1
from semireach.diophantine import (SemilinearSet, combo_value_set,
                                   coset_point, coset_values,
                                   nonneg_combination, parity_coset)


def _coset_cases(rng):
    """(n, classes, total): random disjoint classes, some empty, with
    random parities, and pinned corners: an empty class of parity 1,
    and totals with one or both flip classes empty."""
    yield 2, [((), 1), ((0, 1), 0)], None
    yield 3, [((0, 1), 1), ((), 0), ((2,), 0)], 1
    yield 3, [((), 0), ((0, 2), 1), ((1,), 1)], 1
    yield 2, [((), 0), ((), 0), ((0,), 1)], 0
    yield 2, [((), 0), ((), 0)], 1
    yield 1, [((), 1), ((0,), 1)], 1
    for _ in range(400):
        n = rng.randint(0, 4)
        total = rng.choice((None, 0, 1))
        labels = [rng.randrange(-1, 3) for _ in range(n)]  # -1: no class
        count = max(labels, default=-1) + 1
        if total is not None:
            count = max(count, 2)
        classes = [(tuple(i for i in range(n) if labels[i] == k),
                    rng.randint(0, 1)) for k in range(count)]
        yield n, classes, total


def _in_coset(x, classes, total):
    if any(sum(x[i] for i in ix) % 2 != r for ix, r in classes):
        return False
    return total is None or \
        sum(x[i] for ix, _ in classes[:2] for i in ix) == total


def test_parity_coset_matches_enumeration():
    rng = random.Random(22)
    for n, classes, total in _coset_cases(rng):
        coset = parity_coset(n, classes, total)
        weights = [rng.randint(-6, 6) for _ in range(n)]
        points = [x for x in itertools.product(range(-4, 5), repeat=n)
                  if _in_coset(x, classes, total)]
        case = (n, classes, total, weights)
        # entries in {-1, 0, 1, 2} meet any of these constraints that
        # some integer point meets
        assert (coset is None) == (not points), case
        if coset is None:
            continue
        x0, gens = coset
        assert _in_coset(x0, classes, total), case
        for g in gens:
            for sign in (1, -1):
                assert _in_coset([a + sign * b for a, b in zip(x0, g)],
                                 classes, total), (case, g)
        values = SemilinearSet(tuple(coset_values(coset, weights)))
        for x in points:
            assert values.member(sum(w * a for w, a in zip(weights, x))), \
                (case, x)
        for t in range(-40, 41):
            x = coset_point(coset, weights, t)
            assert (x is not None) == values.member(t), (case, t)
            if x is not None:
                assert _in_coset(x, classes, total), (case, t, x)
                assert sum(w * a for w, a in zip(weights, x)) == t, (case, t)


def test_solve_linear_free_exact():
    # 2x + 3y == 7 over the free coset, which spans all of Z^2
    free = parity_coset(2, [])
    x, y = coset_point(free, (2, 3), 7)
    assert 2 * x + 3 * y == 7
    assert coset_values(free, (2, 3)) == [(0, 1), (0, -1)]
    assert coset_point(free, (2, 4), 5) is None
    assert coset_values(free, (2, 4)) == [(0, 2), (0, -2)]
    # the generators are the unit vectors, so they span Z^2
    assert sorted(map(tuple, free[1])) == [(0, 1), (1, 0)]


def test_solve_linear_parity_rows():
    # x + y == 4 with x odd
    x, y = coset_point(parity_coset(2, [((0,), 1)]), (1, 1), 4)
    assert x + y == 4 and x % 2 == 1
    # x odd and y even: x + y is odd, so 4 is out of reach
    odd_even = parity_coset(2, [((0,), 1), ((1,), 0)])
    assert coset_values(odd_even, (1, 1)) == [(1, 2), (1, -2)]
    assert coset_point(odd_even, (1, 1), 4) is None
    # the same row as a total over two classes, x and y both odd
    x0, gens = parity_coset(2, [((0,), 1), ((1,), 1)], 4)
    assert x0[0] + x0[1] == 4 and x0[0] % 2 == 1 and x0[1] % 2 == 1
    for g in gens:
        assert g[0] + g[1] == 0 and g[0] % 2 == 0
    assert parity_coset(2, [((0,), 1), ((1,), 0)], 4) is None


def _brute_combo(coeffs, target, flips, parity, bound=14):
    for counts in itertools.product(range(bound), repeat=len(coeffs)):
        if sum(c * n for c, n in zip(coeffs, counts)) != target:
            continue
        if sum(n for n, f in zip(counts, flips) if f) % 2 != parity:
            continue
        return True
    return False


def test_nonneg_combination_matches_brute_force():
    rng = random.Random(4)
    for _ in range(250):
        k = rng.randint(1, 3)
        coeffs = [rng.randint(-4, 4) for _ in range(k)]
        flips = [rng.random() < 0.5 for _ in range(k)]
        parity = rng.randint(0, 1)
        target = rng.randint(-12, 12)
        got = nonneg_combination(coeffs, target, flips, parity)
        if got is not None:
            assert all(n >= 0 for n in got)
            assert sum(c * n for c, n in zip(coeffs, got)) == target
            assert sum(n for n, f in zip(got, flips) if f) % 2 == parity
        else:
            assert not _brute_combo(coeffs, target, flips, parity)


def agrees(s, predicate, lo, hi):
    """Sampling comparison of a SemilinearSet against a predicate."""
    return all(s.member(t) == predicate(t) for t in range(lo, hi + 1))


def test_semilinear_membership_union_sum():
    s = SemilinearSet(((1, 3),))  # 1 + 3N
    assert s.member(1) and s.member(7) and not s.member(2)
    t = SemilinearSet.singleton(5)
    u = SemilinearSet(s.components + t.components)
    assert u.member(5) and u.member(4)
    # 2 + 3N + 3N = 2 + 3N
    total = diophantine.sum_union((), [(s.components, s.components)])
    assert agrees(total, lambda v: v >= 2 and v % 3 == 2, -10, 40)


def test_semilinear_downward_and_two_sided():
    down = SemilinearSet(((0, -2),))
    assert down.member(-6) and not down.member(2) and not down.member(-3)
    coset = SemilinearSet(((1, 4), (1, -4)))
    assert agrees(coset, lambda v: v % 4 == 1, -30, 30)


def _ray_in(c1, c2):
    """Is ray c1 a subset of ray c2?"""
    (b1, s1), (_, s2) = c1, c2
    if not SemilinearSet((c2,)).member(b1):
        return False
    if s1 == 0:
        return True
    return s2 != 0 and s1 % s2 == 0 and s1 * s2 > 0


def _quadratic_prune(comps):
    """The pairwise containment sweep _prune replaced: drop a ray kept
    rays contain, or one another ray strictly contains."""
    out = []
    for i, c in enumerate(comps):
        others = comps[:i] + comps[i + 1:]
        if any(_ray_in(c, o) for o in out) or \
           any(_ray_in(c, o) and not _ray_in(o, c) for o in others):
            continue
        out.append(c)
    return out


def test_prune_matches_quadratic_sweep():
    rng = random.Random(38)
    steps = (0, 1, -1, 2, -2, 3, -3, 4, -4, 6, -6, 12)
    for _ in range(3000):
        comps = list(dict.fromkeys(
            (rng.randint(-20, 20), rng.choice(steps))
            for _ in range(rng.randint(0, 40))))
        assert diophantine._prune(comps) == sorted(_quadratic_prune(comps)), \
            comps
    # above 512 rays the old sweep gave up; the one pass still returns
    # exactly the rays that lie in no other ray
    comps = list(dict.fromkeys(
        (rng.randint(-200, 200), rng.choice(steps)) for _ in range(700)))
    assert len(comps) > 512
    assert diophantine._prune(comps) == sorted(
        c for c in comps if not any(_ray_in(c, o) for o in comps if o != c))


def test_combo_value_set_matches_pointwise_query():
    rng = random.Random(5)
    for _ in range(150):
        k = rng.randint(0, 3)
        coeffs = [rng.randint(-4, 4) for _ in range(k)]
        flips = [rng.random() < 0.5 for _ in range(k)]
        parity = rng.choice((None, 0, 1))
        s = combo_value_set(coeffs, flips, parity)
        for t in range(-15, 16):
            if parity is None:
                want = (nonneg_combination(coeffs, t, flips, 0) is not None
                        or nonneg_combination(coeffs, t, flips, 1)
                        is not None)
            else:
                want = nonneg_combination(coeffs, t, flips, parity) \
                    is not None
            assert s.member(t) == want, (coeffs, flips, parity, t)


def test_combo_value_set_edge_cases():
    assert combo_value_set([], None, 0).member(0)
    assert combo_value_set([], None, 1).components == ()
    assert combo_value_set([0], [True], 1).member(0)
    s = combo_value_set([2, -3])
    assert all(s.member(t) for t in range(-20, 20))


def _parity_reach(coeffs, flips, hi):
    """reach[v]: bit p set iff some nonneg combination of the (positive)
    coeffs sums to v with flagged-count parity p."""
    reach = [0] * (hi + 1)
    reach[0] = 1
    for v in range(1, hi + 1):
        for c, f in zip(coeffs, flips):
            if c <= v:
                bits = reach[v - c]
                reach[v] |= ((bits & 1) << 1 | bits >> 1) if f else bits
    return reach


def _check_skewed(seed, cases):
    # one small coefficient among large ones: the residue table's modulus
    # follows the small one, far below the largest
    rng = random.Random(seed)
    for _ in range(cases):
        coeffs = [rng.randint(1, 6)] + \
            [rng.randint(20, 80) for _ in range(rng.randint(1, 3))]
        rng.shuffle(coeffs)
        flips = [rng.random() < 0.5 for _ in coeffs]
        parity = rng.randint(0, 1)
        sign = rng.choice((1, -1))
        signed = [sign * c for c in coeffs]
        reach = _parity_reach(coeffs, flips, 400)
        s = combo_value_set(signed, flips, parity)
        for t in range(401):
            want = bool(reach[t] >> parity & 1)
            got = nonneg_combination(signed, sign * t, flips, parity)
            assert (got is not None) == want, (signed, flips, parity, t)
            assert s.member(sign * t) == want, (signed, flips, parity, t)
            if got is not None:
                assert all(n >= 0 for n in got)
                assert sum(c * n for c, n in zip(signed, got)) == sign * t
                assert sum(n for n, f in zip(got, flips) if f) % 2 == parity


def test_skewed_coefficients_match_dp():
    _check_skewed(6, 40)


def test_table_walk_fallback_is_exact(monkeypatch):
    # with no search budget every answer comes from walking the table
    monkeypatch.setattr(diophantine, "_DECODE_BUDGET", 0)
    _check_skewed(7, 10)
    # a flagged zero is a free parity flip on the walk
    for coeffs, flips in (([0, 3, 5], [True, False, True]),
                          ([-7, 0, -2], [False, True, False])):
        for parity in (0, 1):
            for t in range(-24, 25):
                got = nonneg_combination(coeffs, t, flips, parity)
                assert (got is not None) == \
                    _brute_combo(coeffs, t, flips, parity)
                if got is not None:
                    assert sum(c * n for c, n in zip(coeffs, got)) == t
                    assert sum(n for n, f in zip(got, flips) if f) % 2 \
                        == parity


def test_skewed_residue_table_is_small_and_fast():
    start = time.perf_counter()
    got = nonneg_combination([3, 1000003], 5_000_000)
    assert got is not None and 3 * got[0] + 1000003 * got[1] == 5_000_000
    for parity in (0, 1):
        s = combo_value_set([3, 1000003], [False, True], parity)
        assert 0 < len(s.components) <= 2 * 3
        assert s.member(1000003 * (2 - parity) + 3 * 7)
        assert not s.member(1000003 * (1 + parity))
    assert len(combo_value_set([3, 1000003]).components) <= 2 * 3
    big = 10 ** 7 + 19
    t = 9 * big + 5 * 11 + 3 * 2
    got = nonneg_combination([3, 5, big], t)
    assert got is not None and 3 * got[0] + 5 * got[1] + big * got[2] == t
    assert nonneg_combination([3, 5, big], 7) is None
    s = combo_value_set([3, 5, big])
    assert s.member(t) and not s.member(7) and len(s.components) <= 2 * 3
    assert time.perf_counter() - start < 1.0


def test_witness_length_regression():
    # 40001 = 3*667 + 5000*4 + 9000*2 is the fewest terms possible (673);
    # a table keyed on the largest value gave 2671, and filling the gap
    # above a class minimum with copies of 3 would take thousands
    got = nonneg_combination([3, 5000, 9000], 40001)
    assert 3 * got[0] + 5000 * got[1] + 9000 * got[2] == 40001
    assert all(n >= 0 for n in got)
    assert sum(got) == 673


def test_one_residue_table_per_query(monkeypatch):
    builds = []
    build = diophantine._residue_minima

    def counted(*args, **kwargs):
        builds.append(args[0])
        return build(*args, **kwargs)

    monkeypatch.setattr(diophantine, "_residue_minima", counted)
    # a parity-1 query with nothing flagged fails before any table
    assert nonneg_combination([4, 6], 10, [False, False], 1) is None
    assert combo_value_set([4, 6], None, 1).components == ()
    assert builds == []
    # both parities come from one table
    s = combo_value_set([4, 6], [True, False])
    assert len(builds) == 1
    assert s.member(4) and s.member(6) and not s.member(2)
    # a zero-reach No over three weights asks one query per sign state;
    # only (1, 1) can succeed, and only it builds a table
    builds.clear()
    inst = bridge.gen_hard([5837, 7600, 5250], 5251, "zero-reach")
    assert solve_detpm1(inst).is_no
    assert len(builds) == 1
