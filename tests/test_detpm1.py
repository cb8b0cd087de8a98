"""Top-right entry sets per diagonal sign pair, words realizing them, and
the exact solver for determinant +-1 generator sets, which the router
also sends every all-determinant--1 generator set."""

import itertools
import random

import pytest

from semireach import problems as P
from semireach.cli import dispatch
from semireach.core import UTMat, Vec2
from semireach.detpm1 import (SIGN_STATES, realize_run, solve_detpm1,
                              value_set)
from semireach.machines import PrmBudget
from semireach.oracle import oracle_solve, replay
from semireach.problems import Budget, ProblemInstance, yes


def test_value_set_and_realize_run_reject_non_unit_diagonal():
    for gens, s, t in (([UTMat(2, 0, 1)], 1, 1), ([UTMat(1, 3, -1),
                       UTMat(-1, 0, 3)], 1, -1), ([], 0, 1), ([], 1, 2)):
        with pytest.raises(ValueError):
            value_set(gens, s, t)
        with pytest.raises(ValueError):
            realize_run(gens, s, t, 0)


def agrees(s, predicate, lo, hi):
    """Sampling comparison of a SemilinearSet against a predicate."""
    return all(s.member(t) == predicate(t) for t in range(lo, hi + 1))


def test_value_set_examples():
    g = [UTMat(1, 2, 1)]
    s = value_set(g, 1, 1)
    assert agrees(s, lambda b: b >= 0 and b % 2 == 0, -10, 30)
    assert value_set(g, -1, -1).is_empty()

    neg = [UTMat(-1, 0, -1)]
    assert agrees(value_set(neg, -1, -1), lambda b: b == 0, -10, 10)
    assert value_set(neg, 1, -1).is_empty()

    assert agrees(value_set([], 1, 1), lambda b: b == 0, -10, 10)
    # (1 3; 0 -1) squares to the identity, so its only product with
    # diagonal (1, -1) is itself: top-right 3, where the run value is -3
    flip = [UTMat(1, 3, -1)]
    assert agrees(value_set(flip, 1, -1), lambda b: b == 3, -10, 10)
    assert realize_run(flip, 1, -1, 3) == [0]
    assert realize_run(flip, 1, -1, -3) is None


def _products_by_state(gens, maxlen):
    """{(s, t): set of top-right entries} over words up to maxlen."""
    out = {}
    level = {UTMat.identity()}
    seen = set()
    for _ in range(maxlen + 1):
        for m in level:
            out.setdefault((m.a, m.c), set()).add(m.b)
        seen |= level
        level = {m * g for m in level for g in gens} - seen
    return out


def test_value_set_matches_word_enumeration():
    rng = random.Random(21)
    for _ in range(60):
        k = rng.randint(0, 3)
        gens = [UTMat(rng.choice((1, -1)), rng.randint(-3, 3),
                      rng.choice((1, -1))) for _ in range(k)]
        got = {st: value_set(gens, *st) for st in SIGN_STATES}
        want = _products_by_state(gens, 6)
        for st in SIGN_STATES:
            for val in want.get(st, ()):
                assert got[st].member(val), (gens, st, val)
        # and realized values really occur as run values of actual words
        for st in SIGN_STATES:
            for b, step in got[st].components[:4]:
                for val in (b, b + 2 * step):
                    word = realize_run(gens, *st, val)
                    assert word is not None, (gens, st, val)
                    prod = UTMat.identity()
                    for i in word:
                        prod = prod * gens[i]
                    assert (prod.a, prod.c) == st
                    assert prod.b == val


def test_solve_detpm1_membership_examples():
    from semireach.bridge import gen_hard
    inst = gen_hard([3, 5], 11, "membership")
    v = solve_detpm1(inst)
    assert v.is_yes and replay(inst, v.witness)

    ident = ProblemInstance(P.MATRIX_MEMBERSHIP,
                            (UTMat(-1, 2, 1), UTMat(1, 0, -1)),
                            target=UTMat.identity())
    assert solve_detpm1(ident).is_yes

    parity = ProblemInstance(P.MATRIX_MEMBERSHIP, (UTMat(1, 2, 1),),
                             target=UTMat(1, 1, 1))
    assert solve_detpm1(parity).is_no

    with pytest.raises(ValueError):
        solve_detpm1(ProblemInstance(P.MATRIX_MEMBERSHIP, (UTMat(2, 0, 1),),
                                     target=UTMat(1, 0, 1)))
    # a target of determinant 2 is no product of determinant +-1 factors
    v = solve_detpm1(ProblemInstance(P.MATRIX_MEMBERSHIP, (UTMat(1, 0, 1),),
                                     target=UTMat(2, 0, 1)))
    assert v.is_no and v.certificate == "structural"


def test_solve_detpm1_vector_and_scalar():
    g = (UTMat(1, 1, 1),)
    inst = ProblemInstance(P.VECTOR_REACHABILITY, g, x=Vec2(1, 1),
                           y=Vec2(4, 1))
    v = solve_detpm1(inst)
    assert v.is_yes and replay(inst, v.witness)
    assert solve_detpm1(ProblemInstance(
        P.VECTOR_REACHABILITY, g, x=Vec2(1, 1), y=Vec2(4, 2))).is_no
    sc = ProblemInstance(P.SCALAR_REACHABILITY, g, x=Vec2(0, 1),
                         y=Vec2(1, 0), lam=7)
    v = solve_detpm1(sc)
    assert v.is_yes and replay(sc, v.witness)
    z = ProblemInstance(P.ZERO_REACHABILITY, g, x=Vec2(-3, 1), y=Vec2(1, 0))
    assert solve_detpm1(z).is_yes


def test_sign_split_without_top_right_coefficient():
    g = (UTMat(-1, 2, 1), UTMat(1, 3, -1))
    # x = y = 0: the empty product is a witness
    zero = ProblemInstance(P.VECTOR_REACHABILITY, g, x=Vec2(0, 0),
                           y=Vec2(0, 0))
    assert solve_detpm1(zero) == yes(())
    # x2*y1 == 0: y^T M x == s*x1*y1 + t*x2*y2 for M's diagonal (s, t)
    for x, y, lam, want in ((Vec2(3, 0), Vec2(1, 5), -3, "yes"),
                            (Vec2(3, 0), Vec2(1, 5), 4, "no"),
                            (Vec2(1, 2), Vec2(0, 3), -6, "yes"),
                            (Vec2(1, 2), Vec2(0, 3), 5, "no")):
        inst = ProblemInstance(P.SCALAR_REACHABILITY, g, x=x, y=y, lam=lam)
        got = solve_detpm1(inst)
        assert got.kind == want, inst
        assert not got.is_yes or replay(inst, got.witness)
    # diagonal (1, 1) is the empty product's, whatever the generators
    inst = ProblemInstance(P.SCALAR_REACHABILITY,
                           (UTMat(-1, 1, -1), UTMat(-1, 2, 1),
                            UTMat(1, -1, -1), UTMat(-1, -2, -1)),
                           x=Vec2(3, 0), y=Vec2(-1, 1), lam=-3)
    assert solve_detpm1(inst) == yes(())


def _random_pm1_instance(rng):
    k = rng.randint(0, 4)
    gens = tuple(UTMat(rng.choice((1, -1)), rng.randint(-3, 3),
                       rng.choice((1, -1))) for _ in range(k))
    p = rng.choice((P.MATRIX_MEMBERSHIP, P.VECTOR_REACHABILITY,
                    P.SCALAR_REACHABILITY, P.ZERO_REACHABILITY))
    if p == P.MATRIX_MEMBERSHIP:
        return ProblemInstance(p, gens, target=UTMat(
            rng.choice((1, -1)), rng.randint(-6, 6), rng.choice((1, -1))))
    x = Vec2(rng.randint(-3, 3), rng.randint(-3, 3))
    y = Vec2(rng.randint(-6, 6), rng.randint(-6, 6))
    if p == P.VECTOR_REACHABILITY:
        return ProblemInstance(p, gens, x=x, y=y)
    if p == P.SCALAR_REACHABILITY:
        return ProblemInstance(p, gens, x=x, y=y, lam=rng.randint(-6, 6))
    return ProblemInstance(p, gens, x=x, y=y)


def test_solve_detpm1_cross_check():
    rng = random.Random(22)
    B = Budget(8, 10 ** 6)
    for _ in range(150):
        inst = _random_pm1_instance(rng)
        got = solve_detpm1(inst)
        assert got.definitive
        if got.is_yes:
            assert replay(inst, got.witness), inst
        want = oracle_solve(inst, B)
        if want.definitive:
            assert got.is_yes == want.is_yes, inst


def _routed(inst):
    """Verdict of the auto router, which must pick detpm1."""
    v, route = dispatch(inst, "auto", Budget(8, 10 ** 6),
                        PrmBudget(1024, 10 ** 6))
    assert route == "detpm1", inst
    return v


def test_det_minus_one_pair_products_example():
    gens = (UTMat(1, 1, -1), UTMat(-1, 0, 1))
    pairs = [A * B for A in gens for B in gens]
    assert len(pairs) == 4
    assert all((m.a, m.c) in ((1, 1), (-1, -1)) for m in pairs)
    # (1,1)-diagonal pair products have top-right 0, the others +-1
    assert {m.b for m in pairs if m.a == 1} == {0}
    assert {m.b for m in pairs if m.a == -1} == {1, -1}
    for m in pairs:
        inst = ProblemInstance(P.MATRIX_MEMBERSHIP, gens, target=m)
        v = _routed(inst)
        assert v.is_yes and replay(inst, v.witness)


def test_det_minus_one_examples():
    g = (UTMat(1, 3, -1),)
    yes_t = ProblemInstance(P.MATRIX_MEMBERSHIP, g, target=UTMat(1, 3, -1))
    v = _routed(yes_t)
    assert v.is_yes and replay(yes_t, v.witness)
    assert _routed(ProblemInstance(
        P.MATRIX_MEMBERSHIP, g, target=UTMat(1, 0, -1))).is_no

    g2 = (UTMat(1, 1, -1), UTMat(-1, 0, 1))
    assert _routed(ProblemInstance(
        P.MATRIX_MEMBERSHIP, g2, target=UTMat(1, 5, 1))).is_no
    assert _routed(ProblemInstance(
        P.MATRIX_MEMBERSHIP, g2, target=UTMat.identity())).is_yes
    assert _routed(ProblemInstance(
        P.MATRIX_MEMBERSHIP, g, target=UTMat.identity())).is_yes


def _random_m1_instance(rng):
    k = rng.randint(1, 4)
    gens = tuple(UTMat(s, rng.randint(-3, 3), -s)
                 for s in (rng.choice((1, -1)) for _ in range(k)))
    p = rng.choice((P.MATRIX_MEMBERSHIP, P.VECTOR_REACHABILITY,
                    P.SCALAR_REACHABILITY, P.ZERO_REACHABILITY))
    if p == P.MATRIX_MEMBERSHIP:
        return ProblemInstance(p, gens, target=UTMat(
            rng.choice((1, -1)), rng.randint(-6, 6), rng.choice((1, -1))))
    x = Vec2(rng.randint(-3, 3), rng.randint(-3, 3))
    y = Vec2(rng.randint(-6, 6), rng.randint(-6, 6))
    if p == P.VECTOR_REACHABILITY:
        return ProblemInstance(p, gens, x=x, y=y)
    if p == P.SCALAR_REACHABILITY:
        return ProblemInstance(p, gens, x=x, y=y, lam=rng.randint(-6, 6))
    return ProblemInstance(p, gens, x=x, y=y)


def test_det_minus_one_cross_check():
    rng = random.Random(23)
    B = Budget(8, 10 ** 6)
    for _ in range(150):
        inst = _random_m1_instance(rng)
        got = _routed(inst)
        assert got.definitive
        if got.is_yes:
            assert replay(inst, got.witness), inst
        want = oracle_solve(inst, B)
        if want.definitive:
            assert got.is_yes == want.is_yes, inst


def test_detminus1_never_unknown_on_large_entries():
    # entries far beyond any search budget still come back definitive
    g = (UTMat(1, 10 ** 9, -1), UTMat(-1, 10 ** 9 + 7, 1))
    inst = ProblemInstance(P.MATRIX_MEMBERSHIP, g,
                           target=UTMat(1, 7, 1))
    v = _routed(inst)
    assert v.definitive
    if v.is_yes:
        assert replay(inst, v.witness)
