"""Problem envelopes and three-valued verdicts shared by all solvers."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .core import AffineMap, Mat2, UTMat, Vec2

Matrix = Union[Mat2, UTMat]

# problem tags
AFFINE_MEMBERSHIP_Z = "affine-membership-Z"
AFFINE_REACHABILITY_Z = "affine-reachability-Z"
AFFINE_REACHABILITY_Q = "affine-reachability-Q"
MATRIX_MEMBERSHIP = "matrix-membership"
VECTOR_REACHABILITY = "vector-reachability"
SCALAR_REACHABILITY = "scalar-reachability"
ZERO_REACHABILITY = "zero-reachability"
MORTALITY = "mortality"

# each tag's fields in document order, besides its generators
FIELDS = {
    AFFINE_MEMBERSHIP_Z: ("target",),
    AFFINE_REACHABILITY_Z: ("x", "y"),
    AFFINE_REACHABILITY_Q: ("x", "y"),
    MATRIX_MEMBERSHIP: ("target",),
    VECTOR_REACHABILITY: ("x", "y"),
    SCALAR_REACHABILITY: ("x", "y", "lam"),
    ZERO_REACHABILITY: ("x", "y"),
    MORTALITY: (),
}

PROBLEM_TAGS = frozenset(FIELDS)

# the domain of the affine maps each affine tag takes
AFFINE_DOMAINS = {
    AFFINE_MEMBERSHIP_Z: "Z",
    AFFINE_REACHABILITY_Z: "Z",
    AFFINE_REACHABILITY_Q: "Q",
}


@dataclass(frozen=True)
class Budget:
    """Search budget for brute-force exploration."""

    max_len: int
    max_entry: Optional[int] = None

    def __post_init__(self):
        if self.max_len <= 0:
            raise ValueError("max_len must be positive")
        if self.max_entry is not None and self.max_entry <= 0:
            raise ValueError("max_entry must be positive")


@dataclass(frozen=True)
class ProblemInstance:
    """A tagged reachability question.

    Witness index convention: indices [i1, ..., ik] denote the product
    G_i1 * G_i2 * ... * G_ik; for vector/scalar problems G_ik is applied
    to x first.
    """

    problem: str
    generators: Sequence = ()
    target: Optional[Union[Matrix, AffineMap]] = None
    x: Optional[Union[Vec2, int, Fraction]] = None
    y: Optional[Union[Vec2, int, Fraction]] = None
    lam: Optional[int] = None

    def __post_init__(self):
        if self.problem not in FIELDS:
            raise ValueError(f"unknown problem tag {self.problem!r}")
        object.__setattr__(self, "generators", tuple(self.generators))
        need = FIELDS[self.problem]
        for name in ("target", "x", "y", "lam"):
            have = getattr(self, name) is not None
            if have != (name in need):
                word = "missing" if name in need else "unexpected"
                raise ValueError(f"{word} field {name!r} for {self.problem}")
        domain = AFFINE_DOMAINS.get(self.problem)
        if domain is not None:
            maps = self.generators + (() if self.target is None
                                      else (self.target,))
            for f in maps:
                if not isinstance(f, AffineMap) or f.domain != domain:
                    raise ValueError(f"{self.problem} takes {domain}-domain "
                                     f"affine maps, not {f!r}")


@dataclass(frozen=True)
class Verdict:
    """Yes(witness) / No(certificate kind) / Unknown(budget exhausted)."""

    kind: str  # "yes" | "no" | "unknown"
    witness: Optional[tuple] = None
    certificate: Optional[str] = None  # "saturation" | "structural"

    def __post_init__(self):
        if self.kind not in ("yes", "no", "unknown"):
            raise ValueError(f"bad verdict kind {self.kind!r}")
        if self.witness is not None:
            object.__setattr__(self, "witness", tuple(self.witness))
        if self.kind == "no" and self.certificate is None:
            raise ValueError("a No verdict needs a certificate kind")

    @property
    def is_yes(self) -> bool:
        return self.kind == "yes"

    @property
    def is_no(self) -> bool:
        return self.kind == "no"

    @property
    def definitive(self) -> bool:
        return self.kind != "unknown"


def yes(witness) -> Verdict:
    return Verdict("yes", witness=tuple(witness))


def no(certificate: str = "saturation") -> Verdict:
    return Verdict("no", certificate=certificate)


def unknown() -> Verdict:
    return Verdict("unknown")


def disjunction(verdicts: Sequence[Verdict]) -> Verdict:
    """Combine the verdicts of alternative sub-questions: Yes dominates,
    then Unknown, then No.  The No is structural when every No it
    combines is (so also when there are none), else saturation."""
    for v in verdicts:
        if v.is_yes:
            return v
    if any(not v.definitive for v in verdicts):
        return unknown()
    return no("structural" if all(v.certificate == "structural"
                                  for v in verdicts) else "saturation")
