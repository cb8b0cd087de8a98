"""Exact 2x2 arithmetic, primitive vectors, and affine maps."""

import random
from fractions import Fraction
from math import gcd

import pytest

from semireach.core import AffineMap, Mat2, UTMat, Vec2, primitive, xgcd


def test_xgcd_identity():
    rng = random.Random(0)
    for _ in range(300):
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        u, v, g = xgcd(a, b)
        assert g == gcd(a, b) >= 0
        assert u * a + v * b == g


def test_mat2_mul_matches_manual():
    a = Mat2(1, 2, 3, 4)
    b = Mat2(5, 6, 7, 8)
    assert a * b == Mat2(19, 22, 43, 50)
    assert a * b == a * b
    assert a * Mat2.identity() == a
    assert (a * b).det() == a.det() * b.det()


def test_utmat_mul_agrees_with_mat2():
    rng = random.Random(1)
    for _ in range(200):
        a = UTMat(*(rng.randint(-4, 4) for _ in range(3)))
        b = UTMat(*(rng.randint(-4, 4) for _ in range(3)))
        assert (a * b).to_mat2() == a.to_mat2() * b.to_mat2()
        assert (a * b).det() == a.det() * b.det()
        v = Vec2(rng.randint(-4, 4), rng.randint(-4, 4))
        assert a.apply(v) == a.to_mat2().apply(v)


def test_apply_is_matrix_vector_product():
    m = Mat2(1, 2, 3, 4)
    assert m.apply(Vec2(5, 6)) == Vec2(17, 39)
    assert UTMat(2, 1, 3).apply(Vec2(1, 1)) == Vec2(3, 3)


def test_primitive_normalization():
    u, g = primitive(Vec2(4, -6))
    assert u == Vec2(2, -3) and g == 2
    u, g = primitive(Vec2(-2, 4))
    assert u == Vec2(1, -2) and g == 2
    u, g = primitive(Vec2(0, -5))
    assert u == Vec2(0, 1) and g == 5
    with pytest.raises(ValueError):
        primitive(Vec2(0, 0))


def test_primitive_properties():
    rng = random.Random(2)
    for _ in range(200):
        v = Vec2(rng.randint(-30, 30), rng.randint(-30, 30))
        if v.is_zero():
            continue
        u, g = primitive(v)
        assert g > 0 and gcd(u.v1, u.v2) == 1
        assert (u.v1 > 0) or (u.v1 == 0 and u.v2 > 0)
        assert Vec2(g * u.v1, g * u.v2) in (v, Vec2(-v.v1, -v.v2))


def test_affine_compose_matches_matrix_product():
    f = AffineMap(2, 1)
    g = AffineMap(3, -1)
    assert f.compose(g).apply(5) == f.apply(g.apply(5))
    assert f.compose(g).matrix() == f.matrix() * g.matrix()


def test_affine_q_canonical_form():
    f = AffineMap.make(2, 4, -6, "Q")
    assert (f.a, f.b, f.c) == (-1, -2, 3)
    assert f.apply(Fraction(3)) == Fraction(-5, 3)
    g = AffineMap.make(1, 0, 2, "Q")
    assert g.compose(g).apply(Fraction(1)) == Fraction(1, 4)


def test_affine_domain_validation():
    with pytest.raises(ValueError):
        AffineMap(1, 0, 2, "Z")
    with pytest.raises(ValueError):
        AffineMap.make(1, 0, 0, "Q")
    with pytest.raises(ValueError):
        AffineMap(1, 0, 1, "R")
    with pytest.raises(ValueError):
        AffineMap(2, 1).apply(Fraction(1, 2))
