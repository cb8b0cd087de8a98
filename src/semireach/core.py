"""Exact 2x2 integer matrices, vectors, affine maps, and gcd helpers.

Everything here is pure and uses Python's arbitrary-precision integers;
no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (u, v, g) with u*a + v*b == g == gcd(a, b), g >= 0."""
    u, nu = 1, 0
    v, nv = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        u, nu = nu, u - q * nu
        v, nv = nv, v - q * nv
        g, ng = ng, g - q * ng
    if g < 0:
        u, v, g = -u, -v, -g
    return u, v, g


@dataclass(frozen=True)
class Mat2:
    """General 2x2 integer matrix."""

    m11: int
    m12: int
    m21: int
    m22: int

    def __mul__(self, other: "Mat2") -> "Mat2":
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def det(self) -> int:
        return self.m11 * self.m22 - self.m12 * self.m21

    def is_zero(self) -> bool:
        return self.m11 == self.m12 == self.m21 == self.m22 == 0

    def apply(self, v: "Vec2") -> "Vec2":
        return Vec2(self.m11 * v.v1 + self.m12 * v.v2,
                    self.m21 * v.v1 + self.m22 * v.v2)

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1, 0, 0, 1)


@dataclass(frozen=True)
class UTMat:
    """Upper-triangular 2x2 integer matrix (a b; 0 c); the bottom-left
    entry is structurally absent."""

    a: int
    b: int
    c: int

    def __mul__(self, other: "UTMat") -> "UTMat":
        if not isinstance(other, UTMat):
            return NotImplemented
        return UTMat(self.a * other.a,
                     self.a * other.b + self.b * other.c,
                     self.c * other.c)

    def det(self) -> int:
        return self.a * self.c

    def is_zero(self) -> bool:
        return self.a == self.b == self.c == 0

    def apply(self, v: "Vec2") -> "Vec2":
        return Vec2(self.a * v.v1 + self.b * v.v2, self.c * v.v2)

    def to_mat2(self) -> Mat2:
        return Mat2(self.a, self.b, 0, self.c)

    @staticmethod
    def identity() -> "UTMat":
        return UTMat(1, 0, 1)


@dataclass(frozen=True)
class Vec2:
    v1: int
    v2: int

    def is_zero(self) -> bool:
        return self.v1 == 0 and self.v2 == 0


def primitive(v: Vec2) -> tuple[Vec2, int]:
    """Reduce v != 0 to (unit, g) with coprime unit components, unit's
    first nonzero component positive, and v == +-g * unit."""
    if v.is_zero():
        raise ValueError("zero vector has no primitive form")
    g = gcd(v.v1, v.v2)
    u1, u2 = v.v1 // g, v.v2 // g
    if u1 < 0 or (u1 == 0 and u2 < 0):
        u1, u2 = -u1, -u2
    return Vec2(u1, u2), g


@dataclass(frozen=True)
class AffineMap:
    """x -> (a*x + b) / c over the tagged domain.

    Z-domain maps have c == 1.  Q-domain maps are stored projectively:
    gcd(a, b, c) == 1 (unless a == b == 0) and c > 0, so structural
    equality is semantic equality.
    """

    a: int
    b: int
    c: int = 1
    domain: str = "Z"

    def __post_init__(self):
        if self.domain not in ("Z", "Q"):
            raise ValueError(f"bad domain tag {self.domain!r}")
        if self.c == 0:
            raise ValueError("affine map denominator must be nonzero")
        if self.domain == "Z" and self.c != 1:
            raise ValueError("Z-domain affine map must have denominator 1")

    @staticmethod
    def make(a: int, b: int, c: int = 1, domain: str = "Z") -> "AffineMap":
        """Construct in canonical form."""
        if c == 0:
            raise ValueError("affine map denominator must be nonzero")
        if domain == "Q":
            if c < 0:
                a, b, c = -a, -b, -c
            if (a, b) != (0, 0):
                g = gcd(gcd(a, b), c)
                a, b, c = a // g, b // g, c // g
        return AffineMap(a, b, c, domain)

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other: (self o other)(x) == self(other(x))."""
        if self.domain != other.domain:
            raise ValueError("domain tag mismatch in composition")
        # (a2((a1 x + b1)/c1) + b2)/c2 == (a2 a1 x + a2 b1 + b2 c1)/(c2 c1)
        return AffineMap.make(self.a * other.a,
                              self.a * other.b + self.b * other.c,
                              self.c * other.c,
                              self.domain)

    def apply(self, x):
        """Exact value at x (int for Z-domain, Fraction allowed for Q)."""
        if self.domain == "Z":
            if not isinstance(x, int):
                raise ValueError("Z-domain affine map applied to non-integer")
            return self.a * x + self.b
        return Fraction(self.a * Fraction(x) + self.b, self.c)

    def matrix(self) -> UTMat:
        """The (a b; 0 c) representative."""
        return UTMat(self.a, self.b, self.c)
