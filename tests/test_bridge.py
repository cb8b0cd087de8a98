"""Affine-to-matrix encodings and hardness generators."""

import itertools
import random
from fractions import Fraction

import pytest

from semireach import problems as P
from semireach.bridge import encode_affine, gen_hard, subset_sum_dp
from semireach.core import AffineMap, Mat2, UTMat, Vec2
from semireach.oracle import oracle_solve, replay
from semireach.problems import Budget, ProblemInstance
from test_oracle import _reference_action, _reference_search

B = Budget(8, 10 ** 6)


def test_encode_membership_example():
    inst = ProblemInstance(P.AFFINE_MEMBERSHIP_Z, (AffineMap(2, 1),),
                           target=AffineMap(4, 3))
    enc = encode_affine(inst)
    assert enc.problem == P.MATRIX_MEMBERSHIP
    assert enc.generators == (UTMat(2, 1, 1),)
    assert enc.target == UTMat(4, 3, 1)
    v = oracle_solve(enc, B)
    assert v.is_yes and len(v.witness) == 2
    assert oracle_solve(inst, B).is_yes


def test_encode_reachability_identity_case():
    inst = ProblemInstance(P.AFFINE_REACHABILITY_Z, (), x=7, y=7)
    enc = encode_affine(inst)
    assert enc.x == Vec2(7, 1) and enc.y == Vec2(7, 1)
    assert oracle_solve(enc, B).is_yes


def test_encode_rejects_q_instance():
    # rational maps are not routed through a matrix encoding
    inst = ProblemInstance(P.AFFINE_REACHABILITY_Q,
                           (AffineMap.make(1, 0, 2, "Q"),),
                           x=Fraction(1), y=Fraction(1, 4))
    with pytest.raises(ValueError):
        encode_affine(inst)


def test_encoding_witness_replays_on_affine_instance():
    # the encoding keeps the generators in order, so a word found for the
    # matrix instance is a witness for the affine one
    cases = [
        ProblemInstance(P.AFFINE_MEMBERSHIP_Z, (AffineMap(2, 1),),
                        target=AffineMap(4, 3)),
        ProblemInstance(P.AFFINE_REACHABILITY_Z,
                        (AffineMap(1, 3), AffineMap(-2, 0)), x=1, y=10),
    ]
    for inst in cases:
        v = oracle_solve(encode_affine(inst), B)
        assert v.is_yes and replay(inst, v.witness), inst


def test_encode_preserves_oracle_answer():
    # the oracle runs integer affine maps through encode_affine, so check
    # it against a search that composes and applies the maps themselves
    rng = random.Random(6)
    budget = Budget(6, 10 ** 4)
    for _ in range(100):
        kind = rng.choice((P.AFFINE_MEMBERSHIP_Z, P.AFFINE_REACHABILITY_Z))
        k = rng.randint(0, 2)
        gens = tuple(AffineMap(rng.randint(-2, 2), rng.randint(-2, 2))
                     for _ in range(k))
        if kind == P.AFFINE_MEMBERSHIP_Z:
            t = AffineMap(1, 0)
            for _ in range(rng.randint(0, 3)):
                if gens:
                    t = t.compose(rng.choice(gens))
            inst = ProblemInstance(kind, gens, target=t)
        else:
            inst = ProblemInstance(kind, gens, x=rng.randint(-3, 3),
                                   y=rng.randint(-5, 5))
        start, maps, step, hit, mode = _reference_action(inst)
        want = _reference_search(start, maps, step, hit, budget, mode)
        got = oracle_solve(inst, budget)
        assert (got.kind, got.certificate, got.witness) == \
            (want.kind, want.certificate, want.witness), inst


def test_gen_hard_shapes():
    inst = gen_hard([3, 5], 11, "membership")
    assert inst.generators == (UTMat(1, 3, 1), UTMat(1, 5, 1))
    assert inst.target == UTMat(1, 11, 1)
    dm = gen_hard([3, 5], 11, "det-minus-one")
    assert dm.generators == (UTMat(-1, -3, -1), UTMat(-1, -5, -1),
                             UTMat(-1, 0, -1))
    assert dm.target == UTMat(1, 11, 1)
    mo = gen_hard([3, 5], 11, "mortality")
    assert mo.generators[-1] == Mat2(0, 0, 1, -11)
    with pytest.raises(ValueError):
        gen_hard([3], -1, "membership")
    with pytest.raises(ValueError):
        gen_hard([3], 1, "nope")


def test_gen_hard_t_zero_is_positive_by_empty_product():
    for variant in ("membership", "vector", "zero-reach"):
        inst = gen_hard([2, 7], 0, variant)
        assert oracle_solve(inst, B).is_yes


def test_subset_sum_dp_matches_enumeration():
    rng = random.Random(7)
    for _ in range(150):
        k = rng.randint(0, 4)
        a = [rng.randint(0, 8) for _ in range(k)]
        t = rng.randint(0, 25)
        want = False
        for counts in itertools.product(range(26), repeat=k):
            if sum(x * n for x, n in zip(a, counts)) == t:
                want = True
                break
        assert subset_sum_dp(a, t) == want, (a, t)
