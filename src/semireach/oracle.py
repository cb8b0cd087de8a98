"""Brute-force breadth-first exploration of finitely generated monoids.

The ground-truth oracle for every problem kind.  Witnesses are canonical:
shortest first, ties broken by lexicographically least index sequence.

Every search state is an int tuple: matrix entries, a vector, or a
rational (num, den) in lowest terms with den > 0.  Integer affine maps
x -> a*x + b act as their matrices (a b; 0 1) through encode_affine, so
their states are (a, b, 1) and (x, 1).  Membership and vector
reachability over upper-triangular matrices skip the states whose
diagonal no product of generators carries to the target's.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
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


def _search(start, gens, step, hit, preimage, budget: Budget,
            mode: str, alive=None) -> Verdict:
    """Canonical-witness BFS.

    mode "append": step j extends the witness on the right (matrix states).
    mode "prepend": step j extends it on the left (states built by applying
    the new generator to the current state).  Either way each level is
    generated in lexicographic witness order, so the first witness found
    for any state is the canonical one.  parent[t] is the state t was first
    reached from; the witness is rebuilt from these links on a Yes.

    Only states of depth below max_len are stored.  At depth max_len the
    candidates are not all stepped: preimage(j) (see _action) gives the
    states generator j moves into the hit set, looked up in parent, or a
    test run over the frontier.  A looked-up state whose image fits the
    cap is on the frontier, since a shallower one would have answered
    Yes a level earlier.  The first hit in witness order wins: (frontier
    position, j) in append mode, (j, frontier position) in prepend mode.
    Without a hit, the answer is No by saturation only when nothing was
    pruned and no live candidate is new to parent.

    alive(start) (see _action) is called once, and gives a test that a
    state can still reach the hit set, or None when every state is
    live.  A dead candidate is dropped before the cap test: it is never
    stored, never counts as pruned and is never new to parent at the
    last level.  A dead start is No at once.  Every state on a witness
    is live, so Yes answers and their witnesses are as without the test,
    and a No means that the live reachable set closed without a hit,
    which holds at every length.
    """
    if hit(start):
        return yes(())
    live = alive(start) if alive else None
    if live and not live(start):
        return no("saturation")
    cap = budget.max_entry
    js = range(len(gens))
    parent = {start: None}
    frontier = [start]
    pruned = False
    for _ in range(budget.max_len - 1):
        nxt = []
        for s, j in _pairs(frontier, js, mode):
            t = step(s, j)
            if t in parent or live and not live(t):
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

    win, limit = None, len(frontier)
    for j in js:
        pre = preimage(j)
        if isinstance(pre, tuple):
            for s in pre:
                if s in parent and _fits(step(s, j), cap):
                    i = frontier.index(s)
                    if i < limit:
                        win, limit = j, i
        else:
            for i in range(limit):
                s = frontier[i]
                if (pre(s) if pre else hit(step(s, j))) and \
                        _fits(step(s, j), cap):
                    win, limit = j, i
                    break
        if win is not None and mode == "prepend":
            break
    if win is not None:
        s = frontier[limit]
        t = step(s, win)
        parent[t] = s
        return yes(_word(parent, t, step, js, mode))
    if not pruned:
        for s, j in product(frontier, js):
            t = step(s, j)
            if t not in parent and (not live or live(t)):
                break
        else:
            return no("saturation")
    return unknown()


def _fits(t, cap) -> bool:
    return cap is None or max(map(abs, t)) <= cap


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


def _square(e: tuple) -> tuple:
    """(m11, m12, m21, m22) of an (a, b, c) or (m11, m12, m21, m22) tuple."""
    return e if len(e) == 4 else (e[0], e[1], 0, e[2])


def _solve2(m: tuple, t: tuple) -> tuple:
    """((v1, v2),) for the integer v with m*v == t, or () when v is not
    integral; m is (m11, m12, m21, m22) with a nonzero determinant."""
    a, b, c, d = m
    det = a * d - b * c
    v1, r1 = divmod(d * t[0] - b * t[1], det)
    v2, r2 = divmod(a * t[1] - c * t[0], det)
    return () if r1 or r2 else ((v1, v2),)


def _diagonal_test(gens, target, pos, start):
    """The liveness test of an upper-triangular search, or None when it
    does not apply (a generator or the target has a nonzero lower-left
    entry, or the target is 0 at every position in pos) or when every
    state that start reaches is live.

    On upper-triangular products the diagonal multiplies entry by entry,
    so a state s reaches the target only if, at each position p in pos
    where target[p] != 0, s[p] divides target[p], and these quotients
    together are the entries at pos of some product of generators.  The
    set of those products, lattice, is built here, breadth first from
    the identity over divisors of the target: a prefix of a word divides
    the word, so no divisor is missed.  Positions index generators,
    states and target alike: (0, -1) is the diagonal of (a, b, c) and
    (m11, m12, m21, m22) tuples, and -1 the second entry of a vector.
    """
    pos = [p for p in pos if target[p]]
    if not pos or any(len(g) == 4 and g[2] for g in (*gens, target)):
        return None
    # pairs throughout; a lone position gets a second one that is 1
    # everywhere
    p, q = pos if len(pos) == 2 else (pos[0], None)
    wp, wq = target[p], 1 if q is None else target[q]
    factors = {(g[p], 1 if q is None else g[q]) for g in gens}
    lattice = {(1, 1)}
    frontier = [(1, 1)]
    while frontier:
        nxt = []
        for x, y in frontier:
            for u, v in factors:
                d = (x * u, y * v)
                if d not in lattice and d[0] and d[1] and \
                        not (wp % d[0] or wq % d[1]):
                    lattice.add(d)
                    nxt.append(d)
        frontier = nxt
    if q is None:
        firsts = {x for x, _ in lattice}

        def live(s) -> bool:
            return bool(s[p]) and not wp % s[p] and wp // s[p] in firsts
    else:
        def live(s) -> bool:
            x, y = s[p], s[q]
            return bool(x and y) and not (wp % x or wq % y) and \
                (wp // x, wq // y) in lattice
    # unit factors: their products form a group, so a state's quotient
    # is in it exactly when the start's is
    if live(start) and all(u in (1, -1) and v in (1, -1)
                           for u, v in factors):
        return None
    return live


def _action(inst: ProblemInstance):
    """(start, generators, step, hit, preimage, mode, alive) of the
    monoid action that decides inst: step(s, j) moves state s by
    generator j, hit says whether a state answers the question, and mode
    says which side of the witness a step adds to (see _search).

    alive(start) gives _diagonal_test's liveness test for matrix
    membership and vector reachability over upper-triangular generators
    (and target), or None.  Like preimage, it is only built when _search
    calls it, so replay does not pay for the lattice.

    preimage(j) tells _search's last level which states generator j, g,
    moves into the hit set:
    - a tuple of the one such state when the hit set is one state and g
      inverts, found by _solve2; () when it does not divide;
    - for the zero matrix and a singular g = u*w^T, the test s*u == 0,
      u a nonzero column of g (0 when g is 0);
    - for scalar and zero reachability, the test (y^T g)*v == lam;
    - None when there is no formula: _search then steps each candidate.
    It captures nothing that step and hit do not, so replay pays only
    for defining it.
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

        def preimage(j):  # x = (c*y - b) / a
            a, b, c = maps[j]
            if not a:
                return None
            n, d = c * target[0] - b * target[1], a * target[1]
            g = gcd(n, d) if d > 0 else -gcd(n, d)
            return ((n // g, d // g),)
        return (Fraction(inst.x).as_integer_ratio(), maps, step,
                target.__eq__, preimage, "prepend", None)
    # matrices in one common kind: (a, b, c) when all are upper
    # triangular, else (m11, m12, m21, m22)
    ut = all(isinstance(m, UTMat) for m in inst.generators) and \
        (inst.target is None or isinstance(inst.target, UTMat))
    gens = [_entries(m, ut) for m in inst.generators]
    if p in (P.MATRIX_MEMBERSHIP, P.MORTALITY):
        if p == P.MORTALITY:
            target = (0, 0, 0) if ut else (0, 0, 0, 0)
        else:
            target = _entries(inst.target, ut)
        hit = target.__eq__
        alive = None if p == P.MORTALITY else \
            partial(_diagonal_test, gens, target, (0, -1))
        if ut:
            def step(s, j):
                a, b, c = s
                x, y, z = gens[j]
                return (a * x, a * y + b * z, c * z)

            start = (1, 0, 1)
        else:
            def step(s, j):
                a, b, c, d = s
                e, f, g, h = gens[j]
                return (a * e + b * g, a * f + b * h,
                        c * e + d * g, c * f + d * h)
            start = (1, 0, 0, 1)

        def preimage(j):
            e, f, g, h = _square(gens[j])
            if e * h != f * g:  # s*g == target, one row at a time
                gt, t = (e, g, f, h), _square(target)
                for r1 in _solve2(gt, t[:2]):
                    for r2 in _solve2(gt, t[2:]):  # ut: g^T lower, s21 0
                        return (r1 + r2[1:] if ut else r1 + r2,)
                return ()
            if any(target):
                return None
            u1, u2 = (e, g) if e or g else (f, h)
            if ut:
                return lambda s: not (s[0] * u1 + s[1] * u2 or s[2] * u2)
            return lambda s: not (s[0] * u1 + s[1] * u2 or
                                  s[2] * u1 + s[3] * u2)
        return start, gens, step, hit, preimage, "append", alive
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
    alive = None
    if p == P.VECTOR_REACHABILITY:
        target = (y.v1, y.v2)
        hit = target.__eq__
        alive = partial(_diagonal_test, gens, target, (-1,))

        def preimage(j):
            g = _square(gens[j])
            return _solve2(g, target) if g[0] * g[3] != g[1] * g[2] else None
    else:  # scalar or zero reachability
        lam = 0 if p == P.ZERO_REACHABILITY else inst.lam
        y1, y2 = y.v1, y.v2

        def hit(v) -> bool:
            return y1 * v[0] + y2 * v[1] == lam

        def preimage(j):
            a, b, c, d = _square(gens[j])
            w1, w2 = y1 * a + y2 * c, y1 * b + y2 * d
            return lambda v: w1 * v[0] + w2 * v[1] == lam
    return (x.v1, x.v2), gens, step, hit, preimage, "prepend", alive


def oracle_solve(inst: ProblemInstance, budget: Budget) -> Verdict:
    """Solve any problem kind by exhaustive search up to the budget.

    Yes comes with a canonical witness.  No is only issued when the
    deduplicated reachable set saturated within the budget (depth
    max_len adds nothing new) with no magnitude pruning; everything else
    is Unknown.  For membership and vector reachability over
    upper-triangular matrices the set is that of live states, whose
    diagonal can still reach the target's (see _diagonal_test), so a
    No there says that no product of any length reaches the target.
    """
    start, gens, step, hit, preimage, mode, alive = _action(inst)
    return _search(start, gens, step, hit, preimage, budget, mode, alive)


def replay(inst: ProblemInstance, witness) -> bool:
    """Check that a witness replays exactly to the claimed fact."""
    start, gens, step, hit, _, mode, _ = _action(inst)
    idx = list(witness)
    if any(not 0 <= i < len(gens) for i in idx):
        return False
    s = start
    for j in (idx if mode == "append" else reversed(idx)):
        s = step(s, j)
    return hit(s)
