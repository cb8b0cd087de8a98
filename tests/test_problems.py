"""Problem envelopes, budgets, and verdicts."""

import pytest

from semireach import problems as P
from semireach.core import AffineMap, UTMat, Vec2
from semireach.problems import (Budget, ProblemInstance, Verdict, disjunction,
                                no, unknown, yes)


def test_required_fields_enforced():
    g = (UTMat(1, 1, 1),)
    ProblemInstance(P.MATRIX_MEMBERSHIP, g, target=UTMat(1, 2, 1))
    ProblemInstance(P.SCALAR_REACHABILITY, g, x=Vec2(0, 1), y=Vec2(1, 0),
                    lam=3)
    ProblemInstance(P.MORTALITY, g)
    with pytest.raises(ValueError):
        ProblemInstance(P.MATRIX_MEMBERSHIP, g)
    with pytest.raises(ValueError):
        ProblemInstance(P.MORTALITY, g, target=UTMat(1, 0, 1))
    with pytest.raises(ValueError):
        ProblemInstance(P.SCALAR_REACHABILITY, g, x=Vec2(0, 1), y=Vec2(1, 0))
    with pytest.raises(ValueError):
        ProblemInstance("not-a-problem", g)


def test_affine_maps_match_their_tag():
    half = AffineMap.make(1, 0, 2, "Q")
    ProblemInstance(P.AFFINE_REACHABILITY_Q, (half,), x=4, y=1)
    ProblemInstance(P.AFFINE_MEMBERSHIP_Z, (AffineMap(2, 1),),
                    target=AffineMap(4, 3))
    # a Q map under a Z tag would be read one way by the matrix encoding
    # and another by the oracle
    with pytest.raises(ValueError):
        ProblemInstance(P.AFFINE_REACHABILITY_Z, (half,), x=4, y=1)
    with pytest.raises(ValueError):
        ProblemInstance(P.AFFINE_REACHABILITY_Q, (AffineMap(1, 1),),
                        x=4, y=1)
    with pytest.raises(ValueError):
        ProblemInstance(P.AFFINE_MEMBERSHIP_Z, (AffineMap(2, 1),),
                        target=AffineMap.make(1, 0, 1, "Q"))
    with pytest.raises(ValueError):
        ProblemInstance(P.AFFINE_REACHABILITY_Z, (UTMat(1, 1, 1),), x=4, y=1)


def test_budget_validation():
    Budget(1)
    Budget(5, 100)
    with pytest.raises(ValueError):
        Budget(0)
    with pytest.raises(ValueError):
        Budget(5, 0)


def test_verdict_shapes():
    v = yes((1, 2))
    assert v.is_yes and v.definitive and v.witness == (1, 2)
    n = no("saturation")
    assert n.is_no and n.definitive and n.certificate == "saturation"
    u = unknown()
    assert not u.definitive and not u.is_yes and not u.is_no
    with pytest.raises(ValueError):
        Verdict("maybe")
    with pytest.raises(ValueError):
        Verdict("no")  # a No needs a certificate kind


def test_disjunction_ordering():
    assert disjunction([no(), yes((1,))]).is_yes
    assert disjunction([no(), unknown()]).kind == "unknown"
    assert disjunction([no(), no()]).is_no
    assert disjunction([]).is_no
    # the No is structural only when every No it combines is
    structural = no("structural")
    assert disjunction([structural, structural]).certificate == "structural"
    assert disjunction([structural, no()]).certificate == "saturation"
    assert disjunction([no(), no()]).certificate == "saturation"
    assert disjunction([]).certificate == "structural"
