"""The matrix encoding of integer affine-function problems, and
multi-subset-sum hardness-instance generators."""

from __future__ import annotations

from typing import Sequence

from . import problems as P
from .core import Mat2, UTMat, Vec2
from .problems import ProblemInstance


def encode_affine(inst: ProblemInstance) -> ProblemInstance:
    """Translate an integer affine instance into the matching matrix
    instance: x -> a*x + b is (a b; 0 1), and reachability from x to y
    is vector reachability from (x, 1) to (y, 1)."""
    p = inst.problem
    if p == P.AFFINE_MEMBERSHIP_Z:
        return ProblemInstance(
            P.MATRIX_MEMBERSHIP,
            tuple(f.matrix() for f in inst.generators),
            target=inst.target.matrix())
    if p == P.AFFINE_REACHABILITY_Z:
        return ProblemInstance(
            P.VECTOR_REACHABILITY,
            tuple(f.matrix() for f in inst.generators),
            x=Vec2(inst.x, 1), y=Vec2(inst.y, 1))
    raise ValueError(f"not an integer affine instance: {p}")


GEN_HARD_VARIANTS = ("membership", "vector", "zero-reach", "det-minus-one",
                     "mortality")


def gen_hard(a: Sequence[int], t: int, variant: str) -> ProblemInstance:
    """Hardness instance from a multi-subset-sum input: the result is Yes
    iff some nonnegative combination of the a_i sums to t."""
    a = list(a)
    if any(v < 0 for v in a) or t < 0:
        raise ValueError("multi-subset-sum inputs are nonnegative")
    if variant == "membership":
        return ProblemInstance(P.MATRIX_MEMBERSHIP,
                               tuple(UTMat(1, ai, 1) for ai in a),
                               target=UTMat(1, t, 1))
    if variant == "vector":
        return ProblemInstance(P.VECTOR_REACHABILITY,
                               tuple(UTMat(1, ai, 1) for ai in a),
                               x=Vec2(0, 1), y=Vec2(t, 1))
    if variant == "zero-reach":
        # row (1, -t) applied to (sum, 1)
        return ProblemInstance(P.ZERO_REACHABILITY,
                               tuple(UTMat(1, ai, 1) for ai in a),
                               x=Vec2(0, 1), y=Vec2(1, -t))
    if variant == "det-minus-one":
        gens = tuple(UTMat(-1, -ai, -1) for ai in a) + (UTMat(-1, 0, -1),)
        return ProblemInstance(P.MATRIX_MEMBERSHIP, gens,
                               target=UTMat(1, t, 1))
    if variant == "mortality":
        gens = tuple(Mat2(1, ai, 0, 1) for ai in a) + (Mat2(0, 0, 1, -t),)
        return ProblemInstance(P.MORTALITY, gens)
    raise ValueError(f"unknown gen_hard variant {variant!r}")


def subset_sum_dp(a: Sequence[int], t: int) -> bool:
    """Independent dynamic-programming answer to multi-subset-sum: is t a
    nonnegative integer combination of the a_i?"""
    if t < 0:
        return False
    reach = [False] * (t + 1)
    reach[0] = True
    for v in range(1, t + 1):
        reach[v] = any(ai != 0 and ai <= v and reach[v - ai] for ai in a)
    return reach[t]
