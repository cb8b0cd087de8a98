"""Upper-triangular solvers: vector reachability with nonzero
bottom-rights, membership variants, the scalar-reachability case split,
and, through the router, sign-invariant scalar reachability and
upper-triangular mortality."""

import itertools
import math
import random
import time

import pytest

from semireach import problems as P
from semireach.cli import dispatch
from semireach.core import UTMat, Vec2
from semireach.diophantine import sum_union
from semireach.machines import PrmBudget
from semireach.oracle import oracle_solve, replay
from semireach.problems import Budget, ProblemInstance, disjunction
from semireach.utsolvers import (_diag_skeleton, _diag_words, _lattice_prm,
                                 _segment_sets, _top_right_sets,
                                 reduce_membership_to_scalar,
                                 solve_membership_nonzero_diag,
                                 solve_vecreach_ut22)

PB = PrmBudget(4096, 10 ** 9)
B = Budget(8, 10 ** 6)


def _member(gens, target):
    return ProblemInstance(P.MATRIX_MEMBERSHIP, tuple(gens), target=target)


def _vec(gens, x, y):
    return ProblemInstance(P.VECTOR_REACHABILITY, tuple(gens), x=x, y=y)


def test_vecreach_examples():
    gens = (UTMat(1, 1, 1), UTMat(1, 0, 2))
    v = solve_vecreach_ut22(gens, Vec2(0, 1), Vec2(1, 2), PB)
    assert v.is_yes and replay(_vec(gens, Vec2(0, 1), Vec2(1, 2)), v.witness)

    g2 = (UTMat(2, 0, 3),)
    v = solve_vecreach_ut22(g2, Vec2(1, 0), Vec2(4, 0), PB)
    assert v.is_yes and v.witness == (0, 0)

    assert solve_vecreach_ut22(g2, Vec2(1, 0), Vec2(0, 3), PB).is_no
    with pytest.raises(ValueError):
        solve_vecreach_ut22((UTMat(1, 1, 0),), Vec2(0, 1), Vec2(1, 1), PB)


def test_vecreach_cross_check():
    rng = random.Random(31)
    for _ in range(120):
        k = rng.randint(0, 3)
        gens = tuple(UTMat(rng.randint(-2, 2), rng.randint(-2, 2),
                           rng.choice((-2, -1, 1, 2))) for _ in range(k))
        x = Vec2(rng.randint(-3, 3), rng.randint(-3, 3))
        y = Vec2(rng.randint(-6, 6), rng.randint(-6, 6))
        got = solve_vecreach_ut22(gens, x, y, PB)
        inst = _vec(gens, x, y)
        if got.is_yes:
            assert replay(inst, got.witness), inst
        want = oracle_solve(inst, B)
        if want.definitive and got.definitive:
            assert got.is_yes == want.is_yes, inst
        if want.is_yes:
            assert got.is_yes, inst


def test_big_factor_count_bounded_by_log_of_y2():
    # in any witness, factors with bottom-right magnitude > 1 can fire at
    # most log2 |y2 / x2| times because the second component only
    # multiplies
    rng = random.Random(32)
    for _ in range(80):
        k = rng.randint(1, 3)
        gens = tuple(UTMat(rng.randint(-2, 2), rng.randint(-2, 2),
                           rng.choice((-2, -1, 1, 2))) for _ in range(k))
        x = Vec2(rng.randint(-2, 2), rng.choice((-2, -1, 1, 2)))
        y = Vec2(rng.randint(-8, 8), rng.randint(-8, 8))
        if y.v2 == 0:
            continue
        v = oracle_solve(_vec(gens, x, y), B)
        if not v.is_yes:
            continue
        nbig = sum(1 for i in v.witness if abs(gens[i].c) > 1)
        assert nbig <= math.log2(abs(y.v2) / abs(x.v2)) + 1e-9


def test_membership_nonzero_diag_examples():
    gens = (UTMat(1, 1, 1), UTMat(2, 0, 1))
    t = UTMat(2, 3, 1)
    v = solve_membership_nonzero_diag(gens, t)
    assert v.is_yes and replay(_member(gens, t), v.witness)

    assert solve_membership_nonzero_diag(gens, UTMat.identity()).witness == ()
    assert solve_membership_nonzero_diag((UTMat(2, 0, 1),),
                                         UTMat(3, 0, 1)).is_no
    with pytest.raises(ValueError):
        solve_membership_nonzero_diag((UTMat(0, 1, 1),), UTMat(1, 0, 1))
    with pytest.raises(ValueError):
        solve_membership_nonzero_diag((UTMat(1, 1, 1),), UTMat(1, 0, 0))


def test_membership_nonzero_diag_cross_check():
    rng = random.Random(33)
    for _ in range(120):
        k = rng.randint(0, 3)
        gens = tuple(UTMat(rng.choice((-2, -1, 1, 2)), rng.randint(-2, 2),
                           rng.choice((-2, -1, 1, 2))) for _ in range(k))
        t = UTMat(rng.choice((-4, -2, -1, 1, 2, 4)), rng.randint(-6, 6),
                  rng.choice((-4, -2, -1, 1, 2, 4)))
        got = solve_membership_nonzero_diag(gens, t)
        assert got.definitive
        inst = _member(gens, t)
        if got.is_yes:
            assert replay(inst, got.witness), inst
        want = oracle_solve(inst, B)
        if want.definitive:
            assert got.is_yes == want.is_yes, inst


def test_membership_nonzero_diag_scales_with_target_diagonal():
    # the cost grows with the divisor pairs of the target diagonal, not
    # with the orders of its factors, so 2^10 stays far inside the bound
    start = time.perf_counter()
    gens = (UTMat(1, 2, 1), UTMat(-1, 2, -1), UTMat(2, 2, 2),
            UTMat(2, 0, 1), UTMat(1, 2, 2))
    # every top-right entry stays even
    v = solve_membership_nonzero_diag(gens, UTMat(2 ** 10, 1, 2 ** 10))
    assert v.is_no
    t = UTMat.identity()
    for i in (2, 0, 3, 1, 4) * 5:
        t = t * gens[i]
    assert (t.a, t.c) == (-2 ** 10, -2 ** 10)
    v = solve_membership_nonzero_diag(gens, t)
    assert v.is_yes and replay(_member(gens, t), v.witness)
    # two big generators of magnitudes 2 and 4, five big factors, the
    # planted target's top-right perturbed
    gens = (UTMat(1, -1, 1), UTMat(-1, -1, -1), UTMat(2, -3, 2),
            UTMat(4, 3, 4))
    t = UTMat.identity()
    for i in (2, 0, 3, 2, 1, 3, 0, 2):
        t = t * gens[i]
    v = solve_membership_nonzero_diag(gens, t)
    assert v.is_yes and replay(_member(gens, t), v.witness)
    assert solve_membership_nonzero_diag(
        gens, UTMat(t.a, t.b + 1, t.c)).is_no
    assert time.perf_counter() - start < 2.0


def test_membership_one_zero_examples():
    gens = (UTMat(0, 1, 2), UTMat(1, 1, 1))
    t = UTMat(0, 3, 2)
    v = reduce_membership_to_scalar(gens, t, B, PB)
    assert v.is_yes and replay(_member(gens, t), v.witness)
    # a zero top-left in the target forces a zero top-left factor
    assert any(gens[i].a == 0 for i in v.witness)

    v = reduce_membership_to_scalar((UTMat(2, 1, 1),), UTMat(4, 3, 1), B, PB)
    assert v.is_yes and v.witness == (0, 0)

    assert reduce_membership_to_scalar((UTMat(1, 1, 1),),
                                       UTMat(0, 1, 1), B, PB).is_no


def test_membership_one_zero_mirrored_variant():
    # top-left-nonzero variant by transpose symmetry, witness order kept
    gens = (UTMat(2, 1, 0), UTMat(1, 1, 1))
    t = UTMat(2, 3, 0)
    v = reduce_membership_to_scalar(gens, t, B, PB)
    assert v.is_yes and replay(_member(gens, t), v.witness)


def test_membership_one_zero_cross_check():
    rng = random.Random(34)
    for _ in range(120):
        k = rng.randint(0, 3)
        gens = tuple(UTMat(rng.randint(-2, 2), rng.randint(-2, 2),
                           rng.choice((-2, -1, 1, 2))) for _ in range(k))
        t = UTMat(rng.randint(-4, 4), rng.randint(-6, 6),
                  rng.choice((-4, -2, -1, 1, 2, 4)))
        got = reduce_membership_to_scalar(gens, t, B, PB)
        inst = _member(gens, t)
        if got.is_yes:
            assert replay(inst, got.witness), inst
        want = oracle_solve(inst, B)
        if want.definitive and got.definitive:
            assert got.is_yes == want.is_yes, inst
        if want.is_yes:
            assert got.is_yes, inst


def test_reduce_membership_to_scalar_examples():
    gens = (UTMat(0, 1, 1), UTMat(1, 0, 0))
    v = reduce_membership_to_scalar(gens, UTMat(0, 0, 0), B, PB)
    assert v.is_yes and replay(_member(gens, UTMat(0, 0, 0)), v.witness)
    assert reduce_membership_to_scalar((UTMat(1, 1, 1),),
                                       UTMat(0, 0, 0), B, PB).is_no

    gens2 = (UTMat(0, 1, 0), UTMat(2, 0, 1))
    t = UTMat(0, 2, 0)
    v = reduce_membership_to_scalar(gens2, t, B, PB)
    assert v.is_yes and replay(_member(gens2, t), v.witness)
    assert reduce_membership_to_scalar(gens2, UTMat(0, 5, 0), B, PB).is_no


def _check_against_oracle(gens, t):
    """The split's Yes replays and agrees with the oracle; returns the
    oracle's verdict."""
    got = reduce_membership_to_scalar(gens, t, B, PB)
    inst = _member(gens, t)
    if got.is_yes:
        assert replay(inst, got.witness), inst
    want = oracle_solve(inst, B)
    if want.definitive and got.definitive:
        assert got.is_yes == want.is_yes, inst
    if want.is_yes:
        assert got.is_yes, inst
    return want


def _target_shape(t):
    if t.is_zero():
        return "zero"
    return {(True, True): "both", (False, True): "only T22",
            (True, False): "only T11", (False, False): "(0 b; 0 0)"}[
                t.a != 0, t.c != 0]


def test_reduce_membership_to_scalar_cross_check():
    rng = random.Random(35)
    for _ in range(100):
        k = rng.randint(0, 3)
        gens = tuple(UTMat(rng.randint(-2, 2), rng.randint(-2, 2),
                           rng.randint(-2, 2)) for _ in range(k))
        t = UTMat(rng.randint(-3, 3), rng.randint(-4, 4), rng.randint(-3, 3))
        _check_against_oracle(gens, t)
    # products of the generators, one off in the top-right, and zero:
    # every target shape of the split meets both oracle answers
    seen = set()
    for _ in range(400):
        gens = tuple(UTMat(rng.randint(-2, 2), rng.randint(-2, 2),
                           rng.randint(-2, 2))
                     for _ in range(rng.randint(1, 3)))
        prod = UTMat.identity()
        for _ in range(rng.randint(0, 4)):
            prod = prod * rng.choice(gens)
        for t in (prod, UTMat(prod.a, prod.b + 1, prod.c), UTMat(0, 0, 0)):
            want = _check_against_oracle(gens, t)
            if want.definitive:
                seen.add((_target_shape(t), want.kind))
    for shape in ("zero", "both", "only T22", "only T11", "(0 b; 0 0)"):
        assert {(shape, "yes"), (shape, "no")} <= seen, shape


def _divisor_lengths(values, n, max_len):
    """{d: length of the shortest word over values with product d} for
    the divisors d of n, from all words of up to max_len factors."""
    lengths, level = {}, {1}
    for k in range(max_len + 1):
        for d in level:
            if d and n % d == 0:
                lengths.setdefault(d, k)
        level = {d * v for d in level for v in values}
    return lengths


def test_double_zero_target_divisors_scale():
    # a shortest word has at most one factor -1 and log2 |n| of |v| >= 2
    rng = random.Random(5)
    for _ in range(300):
        values = [rng.choice((-3, -2, -1, 0, 1, 2, 3, 4, 6))
                  for _ in range(rng.randint(0, 3))]
        n = rng.choice((1, -1)) * rng.randint(1, 120)
        words = _diag_words(values, n)
        want = _divisor_lengths(values, n, abs(n).bit_length() + 1)
        assert {d: len(w) for d, w in words.items()} == want, (values, n)
        assert all(math.prod(values[i] for i in w) == d
                   for d, w in words.items())
    # one divisor map per diagonal, built from the generators' entries
    # without factoring 10^8
    gens = (UTMat(3, 1, 0), UTMat(0, 1, 5))
    t = UTMat(0, 10 ** 8, 0)
    start = time.perf_counter()
    v = reduce_membership_to_scalar(gens, t, B, PB)
    assert time.perf_counter() - start < 2.0
    if v.is_yes:
        assert replay(_member(gens, t), v.witness)


def _scalar(gens, x, y, lam):
    return ProblemInstance(P.SCALAR_REACHABILITY, tuple(gens), x=x, y=y,
                           lam=lam)


def _signinv(gens, x, y, budget):
    """Is |y^T M x| = 1 for some product M?  The disjunction of the
    routed scalar-reachability questions for lambda = +1 and -1; a Yes
    must replay on one of them."""
    v = disjunction([dispatch(_scalar(gens, x, y, lam), "auto", budget,
                              PB)[0] for lam in (1, -1)])
    if v.is_yes:
        assert any(replay(_scalar(gens, x, y, lam), v.witness)
                   for lam in (1, -1)), (gens, x, y)
    return v


def test_signinv_reduction_examples():
    # y^T (1 k; 0 1)^n x = n*k with k = 1
    assert _signinv((UTMat(1, 1, 1),), Vec2(0, 1), Vec2(1, 0), B).is_yes
    # parity obstruction: values are always even, and the determinant
    # +-1 route proves it
    v = _signinv((UTMat(1, 1, 1),), Vec2(0, 2), Vec2(1, 0), B)
    assert v.is_no
    # empty generator set, degenerate x2 = 0: identity already scores 1
    assert _signinv((), Vec2(1, 0), Vec2(1, 0), B).is_yes
    assert _signinv((), Vec2(1, 0), Vec2(2, 0), B).is_no


def _signinv_truth(gens, x, y, maxlen):
    """Direct bounded product sweep; None if inconclusive."""
    level = {UTMat.identity()}
    seen = set()
    for _ in range(maxlen + 1):
        for m in level:
            if abs(y.v1 * (m.a * x.v1 + m.b * x.v2)
                   + y.v2 * m.c * x.v2) == 1:
                return True
        seen |= level
        level = {m * g for m in level for g in gens} - seen
        if not level:
            return False
    return None


def test_signinv_reduction_equivalence_exhaustive_tiny():
    mats = [UTMat(a, b, c) for a in (-1, 0, 1) for b in (-1, 0, 1)
            for c in (-1, 0, 1)]
    rng = random.Random(36)
    checked = 0
    for _ in range(400):
        gens = tuple(rng.sample(mats, rng.randint(0, 2)))
        x = Vec2(rng.randint(-2, 2), rng.randint(-2, 2))
        y = Vec2(rng.randint(-2, 2), rng.randint(-2, 2))
        truth = _signinv_truth(gens, x, y, 6)
        got = _signinv(gens, x, y, Budget(6, 10 ** 4))
        if truth is True:
            assert got.is_yes, (gens, x, y)
            checked += 1
        elif truth is False:
            assert not got.is_yes, (gens, x, y)
            checked += 1
        elif got.definitive:
            # solver is definitive; verify against a deeper sweep
            deep = _signinv_truth(gens, x, y, 10)
            if deep is not None:
                assert got.is_yes == deep, (gens, x, y)
    assert checked > 200


def test_ut_mortality():
    def mortal(gens):
        inst = ProblemInstance(P.MORTALITY, gens)
        v, route = dispatch(inst, "auto", B, PB)
        assert route in ("detpm1", "utmember") and v.definitive, gens
        if v.is_yes:
            assert replay(inst, v.witness), gens
        return v.is_yes

    assert mortal((UTMat(0, 1, 1), UTMat(1, 0, 0)))
    assert not mortal((UTMat(1, 5, 2),))
    assert not mortal((UTMat(0, 1, 1),))
    assert mortal((UTMat(0, 1, 0),))
    assert not mortal(())


def _fragment_gens(rng, zero):
    """Generators whose |c| = 1 entries all have |a| = 1: unit-diagonal
    ones and big ones with |c| in {2, 3}, the first big one with a zero
    top-left entry when zero is set."""
    gens = [UTMat(rng.choice((-1, 1)), rng.randint(-2, 2), rng.choice((-1, 1)))
            for _ in range(rng.randint(0, 2))]
    gens += [UTMat(0 if zero and k == 0 else rng.randint(-3, 3),
                   rng.randint(-3, 3), rng.choice((-3, -2, 2, 3)))
             for k in range(rng.randint(1, 2))]
    rng.shuffle(gens)
    return tuple(gens)


def test_exact_vecreach_matches_oracle():
    # inside the fragment the DP's liveness test is exact: a No is never
    # contradicted, and the live-only search finds a witness exactly as
    # short as the oracle's.  With max_steps 1, or values capped at 16,
    # a live start is still a Yes: its witness is read back along the
    # DP's edges (through top-left-zero factors on the flagged half)
    rng = random.Random(37)
    big = PrmBudget(1 << 16, 10 ** 9)
    small = (PrmBudget(1), PrmBudget(4096, 16))
    yes_seen = no_seen = 0
    for i in range(240):
        gens = _fragment_gens(rng, zero=i % 2)
        word = [rng.randrange(len(gens)) for _ in range(rng.randint(0, 5))]
        prod = UTMat.identity()
        for j in word:
            prod = prod * gens[j]
        bump = rng.choice((0, 0, 1, -2))
        if i % 2:
            # flagged: a top-left-zero target, answered through the
            # membership split's flagged search
            t = UTMat(0, prod.b + bump, prod.c)
            inst = _member(gens, t)
            runs = [reduce_membership_to_scalar(gens, t, B, pb)
                    for pb in (big,) + small]
        else:
            x = Vec2(rng.randint(-3, 3), rng.choice((-2, -1, 1, 2)))
            y = prod.apply(x)
            y = Vec2(y.v1 + bump, y.v2)
            inst = _vec(gens, x, y)
            runs = [solve_vecreach_ut22(gens, x, y, pb)
                    for pb in (big,) + small]
        got = runs[0]
        want = oracle_solve(inst, B)
        for v in runs:
            assert v.definitive and v.kind == got.kind, inst
            if v.is_yes:
                assert replay(inst, v.witness), inst
        if got.is_yes:
            yes_seen += 1
        else:
            # a dead start, decided without any search
            assert got.certificate == "structural", inst
            no_seen += 1
            assert not want.is_yes, inst
        if want.is_yes:
            assert got.is_yes and len(got.witness) == len(want.witness), inst
    assert yes_seen > 50 and no_seen > 50
    # Unknown at max_steps=1024 under one register-machine search per
    # big-factor plan; the oracle's witness
    gens = (UTMat(-1, 2, -1), UTMat(-1, 2, -1), UTMat(3, -2, -2),
            UTMat(3, -1, 4))
    v = solve_vecreach_ut22(gens, Vec2(-1, -1), Vec2(683, 128),
                            PrmBudget(1024, 10 ** 6))
    assert v.witness == (2, 0, 0, 3, 3, 0, 2, 0, 2)


def test_live_search_out_of_budget_reads_the_dp_witness():
    # the shortest witness has 10 factors, and the live search stores
    # 1,784 configurations before it finds one; with fewer, the start is
    # still live, and the word read back along the DP's edges is the
    # answer
    gens = (UTMat(1, -2, 1), UTMat(-1, -2, -1), UTMat(3, -3, -2),
            UTMat(-2, -3, 3))
    x, y = Vec2(2, -1), Vec2(-1476, -72)
    inst = _vec(gens, x, y)
    for pb in (PrmBudget(1024, 10 ** 6), PrmBudget(8)):
        v = solve_vecreach_ut22(gens, x, y, pb)
        assert v.is_yes and len(v.witness) == 18 and replay(inst, v.witness)
    v = solve_vecreach_ut22(gens, x, y, PrmBudget(2048, 10 ** 6))
    assert v.is_yes and len(v.witness) == 10 and replay(inst, v.witness)


def _ref_ray_member(b, s, t):
    """The per-ray membership test SemilinearSet.member once made."""
    if s == 0:
        return t == b
    d = t - b
    return d % s == 0 and d // s >= 0


def _ref_ray_sum(b1, s1, b2, s2):
    """The eager sum of two rays: every element of the numerical
    semigroup <u, v> below its conductor is listed as a singleton."""
    b = b1 + b2
    if s1 == 0 and s2 == 0:
        return [(b, 0)]
    if s1 == 0:
        return [(b, s2)]
    if s2 == 0:
        return [(b, s1)]
    g = math.gcd(s1, s2)
    if s1 * s2 < 0:
        return [(b, g), (b, -g)]
    sign = 1 if s1 > 0 else -1
    u, v = abs(s1) // g, abs(s2) // g
    if u == 1 or v == 1:
        return [(b, sign * g)]
    cond = (u - 1) * (v - 1)
    reach = [False] * cond
    reach[0] = True
    for e in range(cond):
        if reach[e]:
            for d in (u, v):
                if e + d < cond:
                    reach[e + d] = True
    comps = [(b + sign * g * e, 0) for e in range(cond) if reach[e]]
    comps.append((b + sign * g * cond, sign * g))
    return comps


def _ref_prune(comps):
    """The distinct rays of comps that lie in no other ray, by the
    per-class end table; comps are distinct."""
    ends = {}
    for b, s in comps:
        if s:
            key = (s, b % s)
            e = ends.get(key)
            if e is None or (b < e if s > 0 else b > e):
                ends[key] = b
    steps = {s for s, _ in ends}
    over = {s: [t for t in steps if s % t == 0 and (s > 0) == (t > 0)]
            for s in steps}
    over[0] = list(steps)
    out = []
    for b, s in comps:
        for t in over[s]:
            e = ends.get((t, b % t))
            if e is not None and (e <= b if t > 0 else e >= b) \
                    and (e != b or t != s):
                break
        else:
            out.append((b, s))
    return out


def _ref_top_right_sets(gens, into, seg_sets, gaps):
    """The eager construction: list every ray sum in full, then prune.
    Appends to gaps, per same-direction sum with a conductor, the node
    and the singletons listed below it."""
    sets, segs = {}, {}
    for node in sorted(into, key=lambda n: (abs(n[1]), abs(n[0]), n[2])):
        comps = [] if into[node] else [(0, 0)]
        for src, label in into[node]:
            C = src[1]
            if isinstance(label, int):
                g = gens[label]
                comps += [(g.a * b + g.b * C, g.a * st)
                          for b, st in sets[src]]
                continue
            s = label[0]
            if (label, C) not in segs:
                segs[label, C] = [(C * b, C * st) for b, st
                                  in seg_sets[label].components]
            for b1, s1 in sets[src]:
                for b2, s2 in segs[label, C]:
                    part = _ref_ray_sum(s * b1, s * s1, b2, s2)
                    if len(part) > 2:
                        gaps.append((node, part[:-1]))
                    comps += part
        sets[node] = tuple(sorted(_ref_prune(list(dict.fromkeys(comps)))))
    return sets


def test_top_right_sets_match_reference():
    # the sets built tail ray first, with the elements below a
    # conductor listed only where no ray covers them, equal the eager
    # enumerate-then-prune construction at every node of the skeleton,
    # both the whole one and the part on a path to a goal
    rng = random.Random(211)
    covered = uncovered = nodes = 0
    for i in range(300):
        gens = [UTMat(rng.choice((-1, 1)), rng.randint(-6, 6),
                      rng.choice((-1, 1)))
                for _ in range(rng.randint(0, 3))]
        gens += [UTMat(rng.choice((-4, -3, -2, 2, 3, 4, 6)),
                       rng.randint(-5, 5), rng.choice((-3, -2, 2, 3)))
                 for _ in range(rng.randint(1, 3))]
        rng.shuffle(gens)
        seg_sets = _segment_sets(gens)[0]
        for seg in seg_sets.values():
            assert sorted(_ref_prune(list(seg.components))) == \
                list(seg.components)
        ratio = rng.choice((6, 12, 18, 36, 72))
        ta = rng.choice((1, -1)) * rng.choice((2, 4, 6, 8, 12, 24))
        tc = rng.choice((1, -1)) * ratio
        for into in (
                _diag_skeleton(gens, seg_sets, lambda A, C: ratio % C == 0),
                _diag_skeleton(gens, seg_sets,
                               lambda A, C: ta % A == 0 and tc % C == 0,
                               (ta, tc, 1))):
            gaps = []
            want = _ref_top_right_sets(gens, into, seg_sets, gaps)
            got = _top_right_sets(gens, into, seg_sets)
            assert set(got) == set(want)
            for node, comps in want.items():
                nodes += 1
                assert got[node].components == comps, (gens, node)
                points = [rng.randint(-400, 400) for _ in range(8)]
                for b, s in rng.sample(comps, min(len(comps), 8)):
                    points += [b - 1, b, b + 1, b + s - 1, b + 2 * s]
                for t in points:
                    assert got[node].member(t) == any(
                        _ref_ray_member(b, s, t) for b, s in comps)
            for node, listed in gaps:
                if set(listed) & set(want[node]):
                    uncovered += 1
                else:
                    covered += 1
    assert nodes > 4000 and covered > 1000 and uncovered > 100, \
        (nodes, covered, uncovered)


def test_sum_union_matches_reference():
    # unions of rays of both directions with sums of rays, against the
    # eager construction: the elements below a conductor that rays of
    # either direction cover are left out, the rest are listed
    rng = random.Random(212)
    steps = (0, 2, -2, 3, -3, 4, -4, 6, -6, 8, -8, 9, -9, 12, -12, 18, -18)

    def rays(k):
        return [(rng.randint(-40, 40), rng.choice(steps)) for _ in range(k)]
    seen = {"covered": 0, "part": 0, "uncovered": 0}
    for _ in range(5000):
        plain = rays(rng.randint(0, 4))
        pairs = [(rays(rng.randint(1, 3)), rays(rng.randint(1, 3)))
                 for _ in range(rng.randint(0, 2))]
        comps = list(plain)
        blocks = []
        for comps1, comps2 in pairs:
            for b1, s1 in comps1:
                for b2, s2 in comps2:
                    part = _ref_ray_sum(b1, s1, b2, s2)
                    if len(part) > 2:
                        blocks.append(set(part[:-1]))
                    comps += part
        want = tuple(sorted(_ref_prune(list(dict.fromkeys(comps)))))
        assert sum_union(plain, pairs).components == want, (plain, pairs)
        for listed in blocks:
            kept = len(listed & set(want))
            seen["covered" if not kept else
                 "uncovered" if kept == len(listed) else "part"] += 1
    assert min(seen.values()) > 50, seen


def _lattice_brute(cs, x2, y2):
    """The values on some x2 -> y2 path under multiplication by cs,
    searched over every |v| <= |y2| without divisibility pruning."""
    succ, todo = {x2: set()}, [x2]
    while todo:
        v = todo.pop()
        for c in cs:
            if abs(c * v) <= abs(y2):
                succ[v].add(c * v)
                if c * v not in succ:
                    succ[c * v] = set()
                    todo.append(c * v)
    on_path = {y2} if y2 in succ else set()
    grew = True
    while grew:
        grew = False
        for v, nxt in succ.items():
            if v not in on_path and nxt & on_path:
                on_path.add(v)
                grew = True
    return on_path


def test_lattice_machine():
    rng = random.Random(41)
    for i in range(200):
        flagged = i % 2 == 1
        gens = tuple(UTMat(rng.randint(-3, 3), rng.randint(-3, 3),
                           rng.choice((-3, -2, -1, 1, 2, 3)))
                     for _ in range(rng.randint(1, 4)))
        x2 = rng.choice((-2, -1, 1, 3))
        # mostly a product of bottom-right entries, sometimes any multiple
        cs = [g.c for g in gens] if i % 4 < 3 else [-6, -3, 2, 4, 8]
        y2 = x2 * math.prod(rng.choice(cs) for _ in range(rng.randint(0, 5)))
        words = _diag_words([g.c for g in gens], y2 // x2)
        prm, origin = _lattice_prm(gens, x2, y2, words, flagged)
        want = _lattice_brute([g.c for g in gens], x2, y2)
        flags = (0, 1) if flagged else (0,)
        assert set(prm.states) == {(f, v) for f in flags for v in want}
        # one transition per generator move inside the lattice
        moves = {((f, v), i) for f, v in prm.states
                 for i, g in enumerate(gens) if g.c * v in want}
        assert len(origin) == len(moves)
        for ((f, v), (nf, nv), p), i in zip(prm.transitions, origin):
            g = gens[i]
            assert ((f, v), i) in moves and nv == g.c * v
            assert nf == (1 if flagged and g.a == 0 else f)
            assert p == (g.b * v, g.a)
    # one search over the lattice, where one search per ordering of the
    # big factors ran 2,187 and 729 of them
    for gens, x, y in (
            ((UTMat(-2, 0, -1), UTMat(-1, 3, -2), UTMat(-2, 0, -2),
              UTMat(-1, 3, -2)), Vec2(-1, 1), Vec2(395, -128)),
            ((UTMat(-3, -2, 2), UTMat(-2, 0, -2), UTMat(0, 2, -2),
              UTMat(3, -3, -1)), Vec2(-3, 1), Vec2(-895, -64))):
        t0 = time.process_time()
        v = solve_vecreach_ut22(gens, x, y, PB)
        assert time.process_time() - t0 < 1.0
        if v.is_yes:
            assert replay(_vec(gens, x, y), v.witness)
