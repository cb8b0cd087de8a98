"""Brute-force breadth-first exploration of finitely generated monoids.

The ground-truth oracle for every problem kind.  Witnesses are canonical:
shortest first, ties broken by lexicographically least index sequence.

Every search state is an int tuple: matrix entries, a vector, or a
rational (num, den) in lowest terms with den > 0.  Integer affine maps
x -> a*x + b act as their matrices (a b; 0 1) through encode_affine, so
their states are (a, b, 1) and (x, 1).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd

from . import problems as P
from .bridge import encode_affine
from .core import Mat2, UTMat
from .problems import Budget, ProblemInstance, Verdict, no, unknown, yes


def _pairs(frontier, js, mode: str):
    """The (state, generator) pairs of one level in witness order."""
    if mode == "append":
        return product(frontier, js)
    return ((s, j) for j, s in product(js, frontier))


def _search(start, gens, step, hit, budget: Budget, mode: str) -> Verdict:
    """Canonical-witness BFS.

    mode "append": step j extends the witness on the right (matrix states).
    mode "prepend": step j extends it on the left (states built by applying
    the new generator to the current state).  Either way each level is
    generated in lexicographic witness order, so the first witness found
    for any state is the canonical one.  parent[t] is the state t was first
    reached from; the witness is rebuilt from these links on a Yes.

    Only states of depth below max_len are stored.  The candidates at
    depth max_len are never expanded, so they are only tested: for a hit,
    and for novelty, which decides between No by saturation and Unknown.
    """
    if hit(start):
        return yes(())
    cap = budget.max_entry
    js = range(len(gens))
    parent = {start: None}
    frontier = [start]
    pruned = False
    for _ in range(budget.max_len - 1):
        nxt = []
        for s, j in _pairs(frontier, js, mode):
            t = step(s, j)
            if t in parent:
                continue
            if cap is not None and max(map(abs, t)) > cap:
                pruned = True
                continue
            parent[t] = s
            if hit(t):
                return yes(_word(parent, t, step, js, mode))
            nxt.append(t)
        if not nxt:
            return unknown() if pruned else no("saturation")
        frontier = nxt
    # depth max_len: every stored state failed hit, so a hit is new
    fresh = False
    for s, j in _pairs(frontier, js, mode):
        t = step(s, j)
        if hit(t):
            if cap is not None and max(map(abs, t)) > cap:
                pruned = True
                continue
            parent[t] = s
            return yes(_word(parent, t, step, js, mode))
        if not fresh and t not in parent:
            fresh = True
    return unknown() if pruned or fresh else no("saturation")


def _word(parent, t, step, js, mode: str) -> tuple:
    """The canonical witness of t, read off the parent links.

    Each link s -> t was first made by the least j with step(s, j) == t:
    in "append" order the j loop runs inside a fixed s, and in "prepend"
    order the first pair (j, s) to reach t has the least j for its s.
    """
    word = []
    s = parent[t]
    while s is not None:
        word.append(next(j for j in js if step(s, j) == t))
        t, s = s, parent[s]
    if mode == "append":
        word.reverse()
    return tuple(word)


def _as_mat2(m) -> Mat2:
    return m.to_mat2() if isinstance(m, UTMat) else m


def _entries(m, ut: bool) -> tuple:
    """(a, b, c) of an upper-triangular matrix, or (m11, m12, m21, m22)."""
    if ut:
        return (m.a, m.b, m.c)
    m = _as_mat2(m)
    return (m.m11, m.m12, m.m21, m.m22)


def _action(inst: ProblemInstance):
    """(start, generators, step, hit, mode) of the monoid action that
    decides inst: step(s, j) moves state s by generator j, hit says
    whether a state answers the question, and mode says which side of
    the witness a step adds to (see _search).
    """
    if inst.problem in (P.AFFINE_MEMBERSHIP_Z, P.AFFINE_REACHABILITY_Z):
        inst = encode_affine(inst)
    p = inst.problem
    if p == P.AFFINE_REACHABILITY_Q:
        maps = [(f.a, f.b, f.c) for f in inst.generators]

        def step(s, j):  # (a*n/d + b) / c in lowest terms, den > 0
            n, d = s
            a, b, c = maps[j]
            n, d = a * n + b * d, c * d
            g = gcd(n, d) if d > 0 else -gcd(n, d)
            return (n // g, d // g)
        target = Fraction(inst.y).as_integer_ratio()
        return (Fraction(inst.x).as_integer_ratio(), maps, step,
                lambda s: s == target, "prepend")
    # matrices in one common kind: (a, b, c) when all are upper
    # triangular, else (m11, m12, m21, m22)
    ut = all(isinstance(m, UTMat) for m in inst.generators) and \
        (inst.target is None or isinstance(inst.target, UTMat))
    gens = [_entries(m, ut) for m in inst.generators]
    if p in (P.MATRIX_MEMBERSHIP, P.MORTALITY):
        if p == P.MORTALITY:
            def hit(s) -> bool:
                return not any(s)
        else:
            target = _entries(inst.target, ut)

            def hit(s) -> bool:
                return s == target
        if ut:
            def step(s, j):
                a, b, c = s
                x, y, z = gens[j]
                return (a * x, a * y + b * z, c * z)
            return (1, 0, 1), gens, step, hit, "append"

        def step(s, j):
            a, b, c, d = s
            e, f, g, h = gens[j]
            return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
        return (1, 0, 0, 1), gens, step, hit, "append"
    if ut:
        def step(v, j):
            v1, v2 = v
            a, b, c = gens[j]
            return (a * v1 + b * v2, c * v2)
    else:
        def step(v, j):
            v1, v2 = v
            a, b, c, d = gens[j]
            return (a * v1 + b * v2, c * v1 + d * v2)
    x, y = inst.x, inst.y
    if p == P.VECTOR_REACHABILITY:
        target = (y.v1, y.v2)

        def hit(v) -> bool:
            return v == target
    else:  # scalar or zero reachability
        lam = 0 if p == P.ZERO_REACHABILITY else inst.lam
        y1, y2 = y.v1, y.v2

        def hit(v) -> bool:
            return y1 * v[0] + y2 * v[1] == lam
    return (x.v1, x.v2), gens, step, hit, "prepend"


def oracle_solve(inst: ProblemInstance, budget: Budget) -> Verdict:
    """Solve any problem kind by exhaustive search up to the budget.

    Yes comes with a canonical witness.  No is only issued when the
    deduplicated reachable set saturated within the budget (depth
    max_len adds nothing new) with no magnitude pruning; everything else
    is Unknown.
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
