"""End-to-end acceptance checks: one criterion per test, each printing a
single PASS/FAIL line."""

import itertools
import json
import random
from math import gcd

from click.testing import CliRunner

from semireach import problems as P
from semireach.bridge import GEN_HARD_VARIANTS, gen_hard, subset_sum_dp
from semireach.cli import dispatch, main, random_instance, replay_instance
from semireach.core import AffineMap, Mat2, UTMat, Vec2
from semireach.detpm1 import solve_detpm1
from semireach.machines import (Bca, digit_guess_value, reach_bca, reach_prm,
                                reduce_bca_to_arm, sufficient_budget)
from semireach.machines import PrmBudget
from semireach.mortality import solve_mortality, stabilizer_basis
from semireach.oracle import oracle_solve, replay
from semireach.problems import Budget, ProblemInstance, disjunction
from semireach.utsolvers import reduce_membership_to_scalar
from test_oracle import _reference_action, _reference_search

B8 = Budget(8, 10 ** 6)
PB = PrmBudget(4096, 10 ** 9)


def _report(num: int, label: str, ok: bool):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def test_criterion_1_detpm1_cross_validation():
    res = CliRunner().invoke(main, ["xcheck", "--count", "200", "--seed",
                                    "42", "--family", "detpm1"])
    doc = json.loads(res.output)
    ok = (res.exit_code == 0 and doc["disagreements"] == 0
          and doc["bad-witnesses"] == 0)
    _report(1, "det +-1 solver vs oracle, 200 seeded instances", ok)


def test_criterion_2_detminus1_exactness():
    rng = random.Random(42)
    ok = True
    for _ in range(200):
        k = rng.randint(1, 4)
        gens = tuple(UTMat(s, rng.randint(-3, 3), -s)
                     for s in (rng.choice((1, -1)) for _ in range(k)))
        target = UTMat(rng.choice((1, -1)), rng.randint(-5, 5),
                       rng.choice((1, -1)))
        inst = ProblemInstance(P.MATRIX_MEMBERSHIP, gens, target=target)
        got, route = dispatch(inst, "auto", B8, PB)
        if route != "detpm1" or not got.definitive:
            ok = False
            break
        if got.is_yes and not replay(inst, got.witness):
            ok = False
            break
        want = oracle_solve(inst, B8)
        if want.definitive and want.is_yes != got.is_yes:
            ok = False
            break
        if want.is_no and not got.is_no:
            ok = False
            break
    _report(2, "det -1 solver never Unknown, agrees with oracle", ok)


def _gen_hard_inputs(rng, n):
    out = []
    for _ in range(n):
        k = rng.randint(1, 5)
        out.append(([rng.randint(0, 10) for _ in range(k)],
                    rng.randint(0, 40)))
    return out


def test_criterion_3_hardness_generator_fidelity():
    rng = random.Random(43)
    inputs = _gen_hard_inputs(rng, 500)
    ok = True
    for a, t in inputs:
        want = subset_sum_dp(a, t)
        for variant in GEN_HARD_VARIANTS:
            # a zero product factors as kill-row, shears summing to t,
            # kill-row, so its states stay below 2t + 1 in magnitude; the
            # tight cap only prunes dead branches of the mortality search
            cap = 10 ** 5 if variant != "mortality" else 2 * t + 64
            inst = gen_hard(a, t, variant)
            v = oracle_solve(inst, Budget(t + 2, cap))
            if want:
                if not v.is_yes or not replay(inst, v.witness):
                    ok = False
            else:
                if v.is_yes:
                    ok = False
                # the monoid is infinite, so the search cannot certify
                # No; the exact solver supplies the negative side
                if variant == "mortality":
                    probe = ProblemInstance(
                        P.MATRIX_MEMBERSHIP,
                        tuple(UTMat(1, ai, 1) for ai in a),
                        target=UTMat(1, t, 1))
                    exact = solve_detpm1(probe)
                else:
                    exact = solve_detpm1(inst)
                if not exact.is_no:
                    ok = False
            if not ok:
                break
        if not ok:
            break
    _report(3, "gen_hard verdicts match the subset-sum DP on 500 inputs", ok)


def test_criterion_4_counter_to_register_reduction():
    rng = random.Random(44)
    ok = True
    for _ in range(100):
        n = rng.randint(1, 4)
        states = tuple(f"s{i}" for i in range(n))
        b = rng.randint(0, 4)
        trans = tuple((rng.choice(states), rng.randint(-b, b),
                       rng.choice(states))
                      for _ in range(rng.randint(0, 6)))
        m = Bca(states, b, trans)
        src = (rng.choice(states), rng.randint(0, b))
        dst = (rng.choice(states), rng.randint(0, b))
        want = reach_bca(m, src, dst)
        red = reduce_bca_to_arm(m, src, dst)
        got = reach_prm(red.machine, red.source, red.target,
                        sufficient_budget(red))
        if not got.definitive or got.is_yes != want.is_yes:
            ok = False
            break
    _report(4, "counter-automaton reduction, 100 machines, no Unknowns", ok)


def test_criterion_5_guess_value_implications():
    ok = True
    for b in range(0, 51):
        K = 2 * b + 1
        for i in range(0, b + 1):
            for c in range(-2 * b, 2 * b + 1):
                v = digit_guess_value(i, c, K)
                if i == c:
                    if v != c:
                        ok = False
                elif 0 <= c <= b and -b <= v <= 2 * b:
                    ok = False
    _report(5, "digit-guess separation, exhaustive b <= 50", ok)


def test_criterion_6_product_run_correspondence():
    mats = [(a, b, c) for a in (1, -1) for c in (1, -1)
            for b in range(-3, 4)]
    ok = True

    def dfs(gens, pa, pb, pc, s, t, w, depth):
        # product (pa pb; 0 pc) must equal (s, t*w; 0, t)
        if pa != s or pc != t or pb != t * w:
            return False
        if depth == 6:
            return True
        for ga, gb, gc in gens:
            if not dfs(gens, pa * ga, pa * gb + pb * gc, pc * gc,
                       s * ga, t * gc, w + s * t * gc * gb, depth + 1):
                return False
        return True

    for trio in itertools.combinations(mats, 3):
        if not dfs(trio, 1, 0, 1, 1, 1, 0, 0):
            ok = False
            break
    _report(6, "diagonal-sign run value equals top-right, words <= 6", ok)


def test_criterion_7_pairwise_product_structure():
    rng = random.Random(47)
    ok = True
    for _ in range(50):
        k = rng.randint(1, 4)
        gens = tuple(UTMat(s, rng.randint(-3, 3), -s)
                     for s in (rng.choice((1, -1)) for _ in range(k)))
        # products of two determinant -1 factors: diagonal (1,1) entries
        # generate the lattice gZ, the (-1,-1) ones form the set S
        pairs = [A * B for A in gens for B in gens]
        g = 0
        S = set()
        for p in pairs:
            if (p.a, p.c) == (1, 1):
                g = gcd(g, p.b)
            else:
                S.add(p.b)
        if S != {-v for v in S}:
            ok = False
        S = sorted(S) or [0]
        # achievable top-right residues for m minus-class factors
        sums = {0: {0}}
        for m in (1, 2, 3):
            sums[m] = {a + b for a in sums[m - 1] for b in S}

        def matches(value, m):
            for s in sums[m]:
                if (g == 0 and value == s) or (g != 0 and
                                               (value - s) % g == 0):
                    return True
            return False

        prods = [(UTMat(1, 0, 1), 0)]
        for _ in range(3):
            prods = [(p * q, m + (1 if q.a == -1 else 0))
                     for p, m in prods for q in pairs]
            for p, m in prods:
                if (p.a, p.c) != ((-1) ** m, (-1) ** m):
                    ok = False
                if not matches(p.b * p.a, m):
                    ok = False
            # every enumerated product is a member, found by the router
            for target in {p for p, _ in prods}:
                inst = ProblemInstance(P.MATRIX_MEMBERSHIP, gens,
                                       target=target)
                v, _ = dispatch(inst, "auto", B8, PB)
                if not v.is_yes or \
                        replay_instance(inst, v.witness) is not None:
                    ok = False
            if not ok:
                break
        if not ok:
            break
    _report(7, "pair-product top-rights lie in the S-sum plus g lattice", ok)


def test_criterion_8_mortality_pipeline():
    rng = random.Random(48)
    ok = True
    for _ in range(200):
        gens = []
        for _ in range(rng.randint(1, 3)):
            while True:
                m = Mat2(*(rng.randint(-2, 2) for _ in range(4)))
                if m.det() in (0, 1):
                    gens.append(m)
                    break
        gens = tuple(gens)
        got = solve_mortality(gens, B8)
        inst = ProblemInstance(P.MORTALITY, gens)
        if got.is_yes and not replay(inst, got.witness):
            ok = False
            break
        want = oracle_solve(inst, B8)
        if want.definitive and got.definitive and want.is_yes != got.is_yes:
            ok = False
            break
        if want.is_yes and not got.is_yes:
            ok = False
            break
    # positive gen_hard mortality instances must come back Yes (the gcd
    # invariant is asserted inside every orbit step)
    for a, t in _gen_hard_inputs(random.Random(43), 60):
        if not subset_sum_dp(a, t):
            continue
        inst = gen_hard(a, t, "mortality")
        v = solve_mortality(inst.generators, Budget(t + 2, 10 ** 5))
        if not v.is_yes or not replay(inst, v.witness):
            ok = False
            break
    _report(8, "mortality solver vs oracle and hardness instances", ok)


def test_criterion_9_stabilizer_parametrization():
    rng = random.Random(49)
    ok = True
    for _ in range(200):
        while True:
            x = Vec2(rng.randint(-9, 9), rng.randint(-9, 9))
            if not x.is_zero() and gcd(x.v1, x.v2) == 1:
                break
        while True:
            y = Vec2(rng.randint(-9, 9), rng.randint(-9, 9))
            if not y.is_zero() and gcd(y.v1, y.v2) == 1:
                break
        sb = stabilizer_basis(x, y)
        seen = set()
        for k in range(-20, 21):
            m = sb.at(k)
            if m.det() != 1 or m.apply(x) != y:
                ok = False
            key = (m.m11, m.m12, m.m21, m.m22)
            if key in seen:
                ok = False
            seen.add(key)
        if not ok:
            break
    _report(9, "stabilizer basis sound and injective, 200 pairs", ok)


def _agree(a, b):
    """Definitive verdicts must match; a Yes must never face a No."""
    if a.definitive and b.definitive:
        return a.is_yes == b.is_yes
    if a.is_yes and b.is_no:
        return False
    if b.is_yes and a.is_no:
        return False
    return True


def test_criterion_10_reduction_equivalences():
    ok = True
    small = Budget(6, 10 ** 4)
    rng = random.Random(50)

    # integer affine problems, which the oracle runs as their matrix
    # encodings, vs a search that composes and applies the maps
    for _ in range(120):
        kind = rng.choice((P.AFFINE_MEMBERSHIP_Z, P.AFFINE_REACHABILITY_Z))
        k = rng.randint(0, 2)
        gens = tuple(AffineMap(rng.randint(-2, 2), rng.randint(-2, 2))
                     for _ in range(k))
        if kind == P.AFFINE_MEMBERSHIP_Z:
            inst = ProblemInstance(kind, gens, target=AffineMap(
                rng.randint(-3, 3), rng.randint(-3, 3)))
        else:
            inst = ProblemInstance(kind, gens, x=rng.randint(-3, 3),
                                   y=rng.randint(-5, 5))
        start, maps, step, hit, mode = _reference_action(inst)
        want = _reference_search(start, maps, step, hit, small, mode)
        got = oracle_solve(inst, small)
        if (got.kind, got.certificate, got.witness) != \
                (want.kind, want.certificate, want.witness):
            ok = False

    # zero-diagonal membership vs the scalar-reachability case split
    for _ in range(120):
        k = rng.randint(1, 3)
        gens = tuple(UTMat(rng.randint(-2, 2), rng.randint(-2, 2),
                           rng.randint(-2, 2)) for _ in range(k))
        target = UTMat(0, rng.randint(-4, 4), 0)
        inst = ProblemInstance(P.MATRIX_MEMBERSHIP, gens, target=target)
        if not _agree(oracle_solve(inst, small),
                      reduce_membership_to_scalar(list(gens), target,
                                                  small, PB)):
            ok = False

    # sign-invariant scalar reachability (|y^T M x| = 1) as the
    # disjunction of the routed lambda = +1 and lambda = -1 questions, vs
    # a direct product sweep
    mats = [UTMat(a, b, c) for a in (-1, 0, 1) for b in (-1, 0, 1)
            for c in (-1, 0, 1)]
    for _ in range(200):
        gens = tuple(rng.sample(mats, rng.randint(0, 2)))
        x = Vec2(rng.randint(-2, 2), rng.randint(-2, 2))
        y = Vec2(rng.randint(-2, 2), rng.randint(-2, 2))
        level = {UTMat.identity()}
        seen = set()
        truth = None
        for _ in range(7):
            if any(abs(y.v1 * (m.a * x.v1 + m.b * x.v2)
                       + y.v2 * m.c * x.v2) == 1 for m in level):
                truth = True
                break
            seen |= level
            level = {m * g for m in level for g in gens} - seen
            if not level:
                truth = False
                break
        got = disjunction([dispatch(ProblemInstance(
            P.SCALAR_REACHABILITY, gens, x=x, y=y, lam=lam),
            "auto", small, PB)[0] for lam in (1, -1)])
        if truth is True and not got.is_yes:
            ok = False
        if truth is False and got.is_yes:
            ok = False
    _report(10, "reduction equivalences on tiny instances", ok)


def _independent_hit(inst, word):
    """Recheck a witness with direct arithmetic, no solver code."""
    p = inst.problem
    if p in (P.MATRIX_MEMBERSHIP, P.MORTALITY):
        prod = Mat2.identity()
        for i in word:
            g = inst.generators[i]
            g = g.to_mat2() if isinstance(g, UTMat) else g
            prod = prod * g
        if p == P.MORTALITY:
            return prod.is_zero()
        t = inst.target
        t = t.to_mat2() if isinstance(t, UTMat) else t
        return prod == t
    v = inst.x
    for i in reversed(word):
        v = inst.generators[i].apply(v)
    if p == P.VECTOR_REACHABILITY:
        return v == inst.y
    lam = 0 if p == P.ZERO_REACHABILITY else inst.lam
    return inst.y.v1 * v.v1 + inst.y.v2 * v.v2 == lam


def test_criterion_11_witness_integrity():
    rng = random.Random(51)
    budget, prm = B8, PrmBudget(2048, 10 ** 6)
    ok = True
    accepted = mutated = 0
    for family in ("detpm1", "detminus1", "utvec", "utmember", "mortality",
                   "random"):
        for _ in range(40):
            inst = random_instance(rng, family)
            verdict, _ = dispatch(inst, "auto", budget, prm)
            if not verdict.is_yes:
                continue
            if replay_instance(inst, verdict.witness) is not None:
                ok = False
                continue
            accepted += 1
            word = list(verdict.witness)
            n = len(inst.generators)
            for pos in range(len(word)):
                for alt in range(n):
                    if alt == word[pos]:
                        continue
                    bad = word[:pos] + [alt] + word[pos + 1:]
                    if _independent_hit(inst, bad):
                        continue  # genuinely still a witness
                    mutated += 1
                    if replay_instance(inst, tuple(bad)) is None:
                        ok = False
                    break
                else:
                    continue
                break
    ok = ok and accepted >= 50 and mutated >= 50
    _report(11, "verification accepts real witnesses, rejects mutations", ok)
