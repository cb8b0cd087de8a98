"""Brute-force search oracle: canonical witnesses, saturation, replay."""

import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest

from semireach import problems as P
from semireach.cli import random_instance
from semireach.core import AffineMap, Mat2, UTMat, Vec2
from semireach.oracle import oracle_solve, replay
from semireach.problems import Budget, ProblemInstance, no, unknown, yes

B = Budget(8, 10 ** 6)


def test_membership_witness_is_shortest_then_lex_least():
    # both generators equal, so every length-2 word works; lex-least wins
    inst = ProblemInstance(P.MATRIX_MEMBERSHIP,
                           (UTMat(1, 1, 1), UTMat(1, 1, 1)),
                           target=UTMat(1, 2, 1))
    v = oracle_solve(inst, B)
    assert v.is_yes and v.witness == (0, 0)
    assert replay(inst, v.witness)


def test_membership_identity_empty_witness():
    inst = ProblemInstance(P.MATRIX_MEMBERSHIP, (UTMat(1, 5, 1),),
                           target=UTMat.identity())
    v = oracle_solve(inst, B)
    assert v.is_yes and v.witness == ()


def test_no_by_saturation_on_finite_semigroup():
    # involution generates a two-element group; saturation is provable
    inst = ProblemInstance(P.MATRIX_MEMBERSHIP, (UTMat(-1, 0, -1),),
                           target=UTMat(1, 1, 1))
    assert oracle_solve(inst, B).is_no


def test_unknown_when_growth_outruns_budget():
    inst = ProblemInstance(P.MATRIX_MEMBERSHIP, (UTMat(1, 1, 1),),
                           target=UTMat(1, -1, 1))
    v = oracle_solve(inst, Budget(5, 100))
    assert not v.definitive


def test_vector_witness_order_convention():
    # witness [i1..ik] is the product G_i1 * ... * G_ik, G_ik applied first
    a, b = UTMat(1, 1, 1), UTMat(2, 0, 1)
    inst = ProblemInstance(P.VECTOR_REACHABILITY, (a, b),
                           x=Vec2(1, 1), y=Vec2(3, 1))
    v = oracle_solve(inst, B)
    assert v.is_yes
    assert replay(inst, v.witness)
    # both (0,0) and (0,1) reach y; the lex-least witness is canonical
    assert a.apply(b.apply(Vec2(1, 1))) == Vec2(3, 1)
    assert a.apply(a.apply(Vec2(1, 1))) == Vec2(3, 1)
    assert v.witness == (0, 0)


def test_scalar_and_zero_reachability():
    g = UTMat(1, 1, 1)
    inst = ProblemInstance(P.SCALAR_REACHABILITY, (g,),
                           x=Vec2(0, 1), y=Vec2(1, 0), lam=4)
    v = oracle_solve(inst, B)
    assert v.is_yes and len(v.witness) == 4
    zinst = ProblemInstance(P.ZERO_REACHABILITY, (g,),
                            x=Vec2(-3, 1), y=Vec2(1, 0))
    assert oracle_solve(zinst, B).is_yes


def test_affine_problems():
    inst = ProblemInstance(P.AFFINE_MEMBERSHIP_Z, (AffineMap(2, 1),),
                           target=AffineMap(4, 3))
    v = oracle_solve(inst, B)
    assert v.is_yes and v.witness == (0, 0)
    assert replay(inst, v.witness)
    r = ProblemInstance(P.AFFINE_REACHABILITY_Z, (AffineMap(1, 3),), x=1, y=10)
    assert oracle_solve(r, B).is_yes
    q = ProblemInstance(P.AFFINE_REACHABILITY_Q,
                        (AffineMap.make(1, 0, 2, "Q"),),
                        x=Fraction(1), y=Fraction(1, 4))
    v = oracle_solve(q, B)
    assert v.is_yes and len(v.witness) == 2


def test_mortality_search():
    inst = ProblemInstance(P.MORTALITY, (Mat2(0, 1, 0, 1), Mat2(1, 0, 0, 0)))
    v = oracle_solve(inst, B)
    assert v.is_yes and replay(inst, v.witness)
    alive = ProblemInstance(P.MORTALITY, (Mat2(-1, 0, 0, -1),))
    assert oracle_solve(alive, B).is_no


def test_replay_rejects_out_of_range_and_wrong_words():
    inst = ProblemInstance(P.MATRIX_MEMBERSHIP, (UTMat(1, 3, 1),),
                           target=UTMat(1, 6, 1))
    assert replay(inst, (0, 0))
    assert not replay(inst, (0,))
    assert not replay(inst, (1,))


def test_magnitude_cap_blocks_but_never_fakes_no():
    # one generator doubles forever; a tiny cap must give Unknown, not No
    inst = ProblemInstance(P.MATRIX_MEMBERSHIP, (UTMat(2, 0, 1),),
                           target=UTMat(1024, 0, 1))
    assert not oracle_solve(inst, Budget(20, 100)).definitive
    assert oracle_solve(inst, Budget(20, 2000)).is_yes


def test_cap_boundary_uses_rational_height():
    # x -> x/2 from 1 reaches 1/4, whose magnitude is max(|num|, den) = 4
    inst = ProblemInstance(P.AFFINE_REACHABILITY_Q,
                           (AffineMap.make(1, 0, 2, "Q"),),
                           x=Fraction(1), y=Fraction(1, 4))
    assert oracle_solve(inst, Budget(8, 3)).kind == "unknown"
    v = oracle_solve(inst, Budget(8, 4))
    assert v.is_yes and v.witness == (0, 0)


def test_last_level_boundaries():
    # candidates at depth max_len are tested, never stored: saturation
    # there is still No, a hit there keeps its canonical witness, and a
    # hit over the cap there is Unknown
    inv = ProblemInstance(P.MATRIX_MEMBERSHIP, (UTMat(-1, 0, -1),),
                          target=UTMat(1, 1, 1))
    assert oracle_solve(inv, Budget(1)).kind == "unknown"
    assert oracle_solve(inv, Budget(2)) == no("saturation")
    dbl = ProblemInstance(P.MATRIX_MEMBERSHIP,
                          (UTMat(2, 0, 1), UTMat(2, 0, 1)),
                          target=UTMat(4, 0, 1))
    v = oracle_solve(dbl, Budget(2, 4))
    assert v.is_yes and v.witness == (0, 0)
    assert oracle_solve(dbl, Budget(2, 3)).kind == "unknown"


# ---------------------------------------------------------------------------
# Reference: the object-state, witness-per-node search the oracle replaced


def _reference_magnitude(state) -> int:
    if isinstance(state, Mat2):
        return max(abs(state.m11), abs(state.m12), abs(state.m21),
                   abs(state.m22))
    if isinstance(state, UTMat):
        return max(abs(state.a), abs(state.b), abs(state.c))
    if isinstance(state, Vec2):
        return max(abs(state.v1), abs(state.v2))
    if isinstance(state, Fraction):
        return max(abs(state.numerator), state.denominator)
    if isinstance(state, AffineMap):
        return max(abs(state.a), abs(state.b), abs(state.c))
    return abs(state)


def _reference_search(start, gens, step, hit, budget, mode):
    if hit(start):
        return yes(())
    visited = {start}
    frontier = [((), start)]
    pruned = False
    for _ in range(budget.max_len):
        nxt = []
        seen_here = set()
        if mode == "append":
            pairs = ((w, s, j) for (w, s) in frontier
                     for j in range(len(gens)))
        else:
            pairs = ((w, s, j) for j in range(len(gens))
                     for (w, s) in frontier)
        for w, s, j in pairs:
            t = step(s, j)
            if t in visited or t in seen_here:
                continue
            if budget.max_entry is not None and \
                    _reference_magnitude(t) > budget.max_entry:
                pruned = True
                continue
            nw = w + (j,) if mode == "append" else (j,) + w
            if hit(t):
                return yes(nw)
            seen_here.add(t)
            nxt.append((nw, t))
        if not nxt:
            return no("saturation") if not pruned else unknown()
        visited.update(seen_here)
        frontier = nxt
    return unknown()


def _reference_action(inst):
    p = inst.problem
    gens = list(inst.generators)
    if p in (P.MATRIX_MEMBERSHIP, P.MORTALITY):
        extra = [inst.target] if inst.target is not None else []
        if all(isinstance(m, UTMat) for m in gens + extra):
            ident, target = UTMat.identity(), inst.target
        else:
            gens = [m.to_mat2() if isinstance(m, UTMat) else m for m in gens]
            ident = Mat2.identity()
            target = inst.target.to_mat2() \
                if isinstance(inst.target, UTMat) else inst.target
        hit = (lambda s: s.is_zero()) if p == P.MORTALITY \
            else (lambda s: s == target)
        return ident, gens, lambda s, j: s * gens[j], hit, "append"
    if p == P.AFFINE_MEMBERSHIP_Z:
        return (AffineMap.make(1, 0, 1, "Z"), gens,
                lambda s, j: s.compose(gens[j]),
                lambda s: s == inst.target, "append")
    start, y = inst.x, inst.y
    if p in (P.SCALAR_REACHABILITY, P.ZERO_REACHABILITY):
        lam = 0 if p == P.ZERO_REACHABILITY else inst.lam

        def hit(v):
            return y.v1 * v.v1 + y.v2 * v.v2 == lam
    else:
        if p == P.AFFINE_REACHABILITY_Q:
            start, y = Fraction(start), Fraction(y)

        def hit(s):
            return s == y
    return start, gens, lambda s, j: gens[j].apply(s), hit, "prepend"


def _reference_instance(rng, i):
    """Instance i of a seeded stream that rotates through the xcheck
    families and the three affine tags.  Some get a repeated generator;
    some matrix ones get general (Mat2) copies of upper-triangular
    generators, so the search must use one common kind, and half the
    mortality ones are upper triangular."""
    kinds = ("detpm1", "utvec", "utmember", "mortality", "random",
             P.AFFINE_MEMBERSHIP_Z, P.AFFINE_REACHABILITY_Z,
             P.AFFINE_REACHABILITY_Q)
    kind = kinds[i % len(kinds)]
    if not kind.startswith("affine"):
        inst = random_instance(rng, kind)
        gens = list(inst.generators)
        if kind == "mortality" and rng.random() < 0.5:
            gens = [UTMat(rng.randint(-2, 2), rng.randint(-2, 2),
                          rng.randint(-2, 2)) for _ in range(len(gens))]
        elif gens and kind != "mortality" and rng.random() < 0.3:
            gens = [g.to_mat2() if rng.random() < 0.5 else g for g in gens]
    else:
        n = rng.randint(1, 3)
        dom = "Q" if kind == P.AFFINE_REACHABILITY_Q else "Z"
        gens = [AffineMap.make(rng.randint(-3, 3), rng.randint(-3, 3),
                               rng.choice((1, 2, 3)) if dom == "Q" else 1,
                               dom) for _ in range(n)]
        if kind == P.AFFINE_MEMBERSHIP_Z:
            t = AffineMap(1, 0)
            for _ in range(rng.randint(0, 5)):
                t = t.compose(rng.choice(gens))
            inst = ProblemInstance(kind, gens, target=t)
        elif kind == P.AFFINE_REACHABILITY_Z:
            inst = ProblemInstance(kind, gens, x=rng.randint(-5, 5),
                                   y=rng.randint(-9, 9))
        else:
            inst = ProblemInstance(kind, gens,
                                   x=Fraction(rng.randint(-5, 5)),
                                   y=Fraction(rng.randint(-9, 9),
                                              rng.randint(1, 3)))
    if gens and rng.random() < 0.25:
        gens.insert(rng.randrange(len(gens) + 1), rng.choice(gens))
    return dataclasses.replace(inst, generators=gens)


def test_search_matches_object_reference():
    # kind, certificate and witness agree with the object-state search on
    # every tag, both witness orders, and caps that prune
    rng = random.Random(5)
    budgets = (Budget(6, 10 ** 6), Budget(6, 12), Budget(5, None))
    seen = Counter()
    for i in range(1000):
        inst = _reference_instance(rng, i)
        budget = budgets[i % len(budgets)]
        start, gens, step, hit, mode = _reference_action(inst)
        want = _reference_search(start, gens, step, hit, budget, mode)
        got = oracle_solve(inst, budget)
        assert (got.kind, got.certificate, got.witness) == \
            (want.kind, want.certificate, want.witness), (inst, budget)
        if got.is_yes:
            assert replay(inst, got.witness)
        seen[inst.problem, got.kind] += 1
    assert {p for p, _ in seen} == P.PROBLEM_TAGS
    for kind in ("yes", "no", "unknown"):
        assert sum(n for (_, k), n in seen.items() if k == kind) > 50


def test_search_matches_reference_at_every_depth():
    # the last level is handled apart from the others, so compare at
    # every max_len: at 1 the first level is the last
    rng = random.Random(6)
    instances = [_reference_instance(rng, i) for i in range(600)]
    for inst in instances:
        start, gens, step, hit, mode = _reference_action(inst)
        for cap in (None, 12, 10 ** 6):
            for max_len in range(1, 7):
                budget = Budget(max_len, cap)
                want = _reference_search(start, gens, step, hit, budget,
                                         mode)
                got = oracle_solve(inst, budget)
                assert (got.kind, got.certificate, got.witness) == \
                    (want.kind, want.certificate, want.witness), \
                    (inst, budget)


def test_rational_states_match_fraction_reference():
    # maps built without AffineMap.make keep a negative or unreduced
    # denominator; the reduced (num, den) states must still search as the
    # Fraction ones do, from a start of 0 and through steps that land on 0
    growing = (AffineMap(1, 0, -2, "Q"),     # x -> -x/2, fixes 0
               AffineMap(2, -2, 4, "Q"),     # x -> (x - 1)/2, 1 -> 0
               AffineMap(-3, 3, -1, "Q"))    # x -> 3x - 3, 1 -> 0
    finite = (AffineMap(0, 2, -4, "Q"),      # x -> -1/2
              AffineMap(-1, 0, 1, "Q"),      # x -> -x
              AffineMap(0, 0, -3, "Q"))      # x -> 0
    budgets = [Budget(n, cap) for n in (1, 2, 4, 6) for cap in (1, 2, 3, None)]
    seen = Counter()
    for gens in (growing, finite):
        for x in (0, 1, Fraction(-1, 2)):
            for y in (0, 1, -1, Fraction(1, 2), Fraction(-1, 4), 2):
                inst = ProblemInstance(P.AFFINE_REACHABILITY_Q, gens,
                                       x=Fraction(x), y=Fraction(y))
                start, maps, step, hit, mode = _reference_action(inst)
                for budget in budgets:
                    want = _reference_search(start, maps, step, hit, budget,
                                             mode)
                    got = oracle_solve(inst, budget)
                    assert (got.kind, got.certificate, got.witness) == \
                        (want.kind, want.certificate, want.witness), \
                        (inst, budget)
                    if got.is_yes:
                        assert replay(inst, got.witness)
                    seen[got.kind] += 1
    assert set(seen) == {"yes", "no", "unknown"}
