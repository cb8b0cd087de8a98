"""Brute-force breadth-first exploration of finitely generated monoids.

The ground-truth oracle for every problem kind.  Witnesses are canonical:
shortest first, ties broken by lexicographically least index sequence.
"""

from __future__ import annotations

from fractions import Fraction

from . import problems as P
from .core import AffineMap, Mat2, UTMat, Vec2
from .problems import Budget, ProblemInstance, Verdict, no, unknown, yes


def _magnitude(state) -> int:
    if isinstance(state, Mat2):
        return max(abs(state.m11), abs(state.m12), abs(state.m21), abs(state.m22))
    if isinstance(state, UTMat):
        return max(abs(state.a), abs(state.b), abs(state.c))
    if isinstance(state, Vec2):
        return max(abs(state.v1), abs(state.v2))
    if isinstance(state, Fraction):
        return max(abs(state.numerator), state.denominator)
    if isinstance(state, AffineMap):
        return max(abs(state.a), abs(state.b), abs(state.c))
    return abs(state)


def _search(start, gens, step, hit, budget: Budget, mode: str) -> Verdict:
    """Canonical-witness BFS.

    mode "append": step j extends the witness on the right (matrix states).
    mode "prepend": step j extends it on the left (states built by applying
    the new generator to the current state).  Either way each level is
    generated in lexicographic witness order, so the first witness found
    for any state is the canonical one.
    """
    if hit(start):
        return yes(())
    visited = {start}
    frontier = [((), start)]
    pruned = False
    for _ in range(budget.max_len):
        nxt = []
        seen_here = set()
        if mode == "append":
            pairs = ((w, s, j) for (w, s) in frontier for j in range(len(gens)))
        else:
            pairs = ((w, s, j) for j in range(len(gens)) for (w, s) in frontier)
        for w, s, j in pairs:
            t = step(s, j)
            if t in visited or t in seen_here:
                continue
            if budget.max_entry is not None and _magnitude(t) > budget.max_entry:
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


def _as_mat2(m) -> Mat2:
    return m.to_mat2() if isinstance(m, UTMat) else m


def _matrix_gens(inst: ProblemInstance):
    """Generators in one common kind (UTMat when all are, else Mat2)."""
    gens = list(inst.generators)
    extra = [inst.target] if inst.target is not None else []
    if all(isinstance(m, UTMat) for m in gens + extra):
        return gens, inst.target, UTMat.identity()
    return ([_as_mat2(m) for m in gens],
            _as_mat2(inst.target) if inst.target is not None else None,
            Mat2.identity())


def _action(inst: ProblemInstance):
    """(start, generators, step, hit, mode) of the monoid action that
    decides inst: step(s, j) moves state s by generator j, hit says
    whether a state answers the question, and mode says which side of
    the witness a step adds to (see _search).
    """
    p = inst.problem
    if p in (P.MATRIX_MEMBERSHIP, P.MORTALITY):
        gens, target, ident = _matrix_gens(inst)
        hit = (lambda s: s.is_zero()) if p == P.MORTALITY \
            else (lambda s: s == target)
        return ident, gens, lambda s, j: s * gens[j], hit, "append"
    gens = list(inst.generators)
    if p == P.AFFINE_MEMBERSHIP_Z:
        target = inst.target
        return (AffineMap.make(1, 0, 1, "Z"), gens,
                lambda s, j: s.compose(gens[j]), lambda s: s == target,
                "append")
    start, y = inst.x, inst.y
    if p in (P.SCALAR_REACHABILITY, P.ZERO_REACHABILITY):
        lam = 0 if p == P.ZERO_REACHABILITY else inst.lam

        def hit(v: Vec2) -> bool:
            return y.v1 * v.v1 + y.v2 * v.v2 == lam
    else:  # vector or affine reachability
        if p == P.AFFINE_REACHABILITY_Q:
            start, y = Fraction(start), Fraction(y)

        def hit(s) -> bool:
            return s == y
    return start, gens, lambda s, j: gens[j].apply(s), hit, "prepend"


def oracle_solve(inst: ProblemInstance, budget: Budget) -> Verdict:
    """Solve any problem kind by exhaustive search up to the budget.

    Yes comes with a canonical witness.  No is only issued when the
    deduplicated reachable set saturated strictly below the budget with
    no magnitude pruning; everything else is Unknown.
    """
    start, gens, step, hit, mode = _action(inst)
    return _search(start, gens, step, hit, budget, mode)


def replay(inst: ProblemInstance, witness) -> bool:
    """Check that a witness replays exactly to the claimed fact."""
    start, gens, step, hit, mode = _action(inst)
    idx = list(witness)
    if any(not 0 <= i < len(gens) for i in idx):
        return False
    s = start
    for j in (idx if mode == "append" else reversed(idx)):
        s = step(s, j)
    return hit(s)
