"""Upper-triangular solvers beyond the determinant-+-1 fragment: vector
reachability when every bottom-right entry is nonzero, membership for
nonzero diagonals, and the target-shape split of general membership (one
diagonal zero by flagged vector reachability, two by scalar reachability).
"""

from __future__ import annotations

from typing import Optional

from . import problems as P
from .core import UTMat, Vec2
from .detpm1 import realize_run, value_set
from .diophantine import SemilinearSet, nonneg_combination, sum_union
from .machines import Prm, PrmBudget, reach_prm
from .oracle import oracle_solve, replay
from .problems import Budget, ProblemInstance, Verdict, disjunction, no, yes


def _require(gens, field, label):
    for g in gens:
        if not isinstance(g, UTMat) or getattr(g, field) == 0:
            raise ValueError(f"generator {g} has a zero {label} entry")


def _remap(v: Verdict, index_map) -> Verdict:
    """Lift a verdict over a filtered generator list back to the
    original index space."""
    if v.is_yes:
        return yes(tuple(index_map[i] for i in v.witness))
    return v


# ---------------------------------------------------------------------------
# Products of single diagonal entries


def _diag_words(values, n) -> dict:
    """For every divisor of n != 0 that is a product of the values, a
    shortest index word with that product, found breadth first with the
    values in index order.  A prefix of a word divides the word's
    product, so extending only divisors of n misses none."""
    words = {1: ()}
    frontier = [1]
    while frontier:
        nxt = []
        for d in frontier:
            for i, v in enumerate(values):
                nd = d * v
                if v and nd not in words and n % nd == 0:
                    words[nd] = words[d] + (i,)
                    nxt.append(nd)
        frontier = nxt
    return words


def _diag_product_word(values, target) -> Optional[tuple]:
    """Shortest index word whose value product equals target, or None."""
    if target == 0:
        return next(((i,) for i, v in enumerate(values) if v == 0), None)
    return _diag_words(values, target).get(target)


# ---------------------------------------------------------------------------
# Top-right sets over diagonal pairs


def _segment_sets(gens):
    """Per sign pair that unit-diagonal products reach: the set of their
    top-right entries with that diagonal.  Also the unit generators and
    their index map into gens."""
    unit_idx = [i for i, g in enumerate(gens)
                if abs(g.a) == 1 and abs(g.c) == 1]
    unit = [gens[i] for i in unit_idx]
    if not unit:
        return {(1, 1): SemilinearSet.singleton(0)}, unit, unit_idx
    reach, todo = {(1, 1)}, [(1, 1)]
    while todo:
        s, t = todo.pop()
        for g in unit:
            st = (s * g.a, t * g.c)
            if st not in reach:
                reach.add(st)
                todo.append(st)
    sets = {st: value_set(unit, *st) for st in reach}
    return sets, unit, unit_idx


def _diag_skeleton(gens, seg_sets, keep, goal=None):
    """Integer skeleton of the top-right DP: nodes (A, C, phase), the
    diagonal of a product suffix whose last prepended part was a big
    factor or nothing (phase 0) or a unit segment (phase 1), reachable
    from (1, 1, 0) through diagonals that pass keep(A, C).  Maps each
    node to its incoming (predecessor, label) edges, labelled by a
    segment's sign pair or a big generator's index.  Given a goal, only
    the nodes on a path to it are kept."""
    signs = sorted(seg_sets, reverse=True)
    big = [i for i, g in enumerate(gens) if abs(g.a) != 1 or abs(g.c) != 1]
    start = (1, 1, 0)
    into, todo = {start: []}, [start]
    while todo:
        node = todo.pop()
        A, C, phase = node
        if phase == 0:
            steps = [((s * A, t * C, 1), (s, t)) for s, t in signs]
        else:
            steps = [((gens[i].a * A, gens[i].c * C, 0), i) for i in big]
        for dst, label in steps:
            if keep(dst[0], dst[1]):
                if dst not in into:
                    todo.append(dst)
                into.setdefault(dst, []).append((node, label))
    if goal is None:
        return into
    live = set()
    stack = [goal] if goal in into else []
    while stack:
        node = stack.pop()
        if node not in live:
            live.add(node)
            stack += [src for src, _ in into[node]]
    return {node: [e for e in into[node] if e[0] in live] for node in live}


def _top_right_sets(gens, into, seg_sets):
    """The semilinear set of top-right entries B of the products
    (A B; 0 C) at each skeleton node.  Prepending (a b; 0 c) to
    (A B; 0 C) gives (aA, aB + bC; 0, cC), so a big factor maps a set to
    a*B + b*C and a segment of sign pair (s, t) to s*B + C*Seg(s, t).
    Every skeleton edge keeps |C| and |A| and raises the phase, or is a
    big factor that raises |C|, or raises |A| from a nonzero A, so one
    pass in (|C|, |A|, phase) order is complete."""
    sets, segs = {}, {}
    for node in sorted(into, key=lambda n: (abs(n[1]), abs(n[0]), n[2])):
        rays = [] if into[node] else [(0, 0)]
        pairs = []
        for src, label in into[node]:
            C = src[1]
            if isinstance(label, int):
                g = gens[label]
                rays += [(g.a * b + g.b * C, g.a * st)
                         for b, st in sets[src].components]
            else:
                if (label, C) not in segs:
                    segs[label, C] = [(C * b, C * st) for b, st
                                      in seg_sets[label].components]
                comps = sets[src].components
                if label[0] < 0:
                    comps = [(-b, -st) for b, st in comps]
                pairs.append((comps, segs[label, C]))
        sets[node] = sum_union(rays, pairs)
    return sets


def _read_word(gens, seg, into, sets, node, b) -> list:
    """A word, left to right, whose product has the diagonal of the
    skeleton node and the top-right entry b, a member of sets[node]: the
    DP's edges are walked back from node to the start.  seg is what
    _segment_sets returned."""
    seg_sets, unit, unit_idx = seg
    want = UTMat(node[0], b, node[1])
    word = []
    while into[node]:
        for src, label in into[node]:
            if isinstance(label, int):
                g = gens[label]
                if g.a == 0 and b == g.b * src[1]:
                    # prepending (0 b; 0 c) maps every top-right B to b*C
                    word.append(label)
                    y = sets[src].components[0][0]
                    break
                if g.a:
                    y, r = divmod(b - g.b * src[1], g.a)
                    if r == 0 and sets[src].member(y):
                        word.append(label)
                        break
            else:
                s, t = label
                pick = _pick_pair(s, sets[src], src[1], seg_sets[label], b)
                if pick is not None:
                    y, sigma = pick
                    seg_word = realize_run(unit, s, t, sigma)
                    word += [unit_idx[i] for i in seg_word]
                    break
        else:
            raise AssertionError(f"no edge into {node} explains {b}")
        node, b = src, y
    assert replay(ProblemInstance(P.MATRIX_MEMBERSHIP, gens, target=want),
                  word)
    return word


# ---------------------------------------------------------------------------
# Vector reachability for bottom-right nonzero generators


def _lattice_prm(gens, x2, y2, words, flagged):
    """The register machine over the divisor lattice: states (f, v2) pair
    the second-component values v2 with x2 ->* v2 ->* y2 under
    multiplication by bottom-right entries with a seen-a-top-left-zero bit
    f, kept at 0 unless flagged; labels apply r -> a*r + b*v2 for each
    generator moving v2 -> c*v2.  The values are x2*d for the products d
    of bottom-right entries dividing y2/x2 whose cofactor is one too:
    values that cannot reach y2 are left out, since the monotone windows
    of reach_prm do not drop them for slopes <= -1.  words is
    _diag_words of the bottom-right entries and y2/x2.  Returns (machine,
    transition index -> generator index).
    """
    ratio = y2 // x2
    alphas = {x2 * d for d in words if ratio // d in words}
    states = [(f, v2) for f in ((0, 1) if flagged else (0,))
              for v2 in sorted(alphas)]
    trans, origin = [], []
    for f, v2 in states:
        for i, g in enumerate(gens):
            if g.c * v2 in alphas:
                nf = 1 if flagged and g.a == 0 else f
                trans.append(((f, v2), (nf, g.c * v2), (g.b * v2, g.a)))
                origin.append(i)
    return Prm(tuple(states), tuple(trans)), origin


def _liveness(gens, y, ratio, flagged):
    """Exact test live(v2, v1, f) of a configuration v = R*x, where f says
    that R has a zero top-left entry: some left factor L has L*v == y,
    that is C_L == y2/v2 and A_L*v1 + B_L*v2 == y1, and A_L == 0 unless
    f is set when flagged.  Every C_L divides ratio, so the top-right DP
    over the pairs (A, C) with C | ratio lists every candidate L; it is
    finite because each big factor has |c| > 1.  live returns the
    matching (A_L, B_L, C_L), or None for a dead configuration; read
    turns such a triple into a word for L."""
    seg = _segment_sets(gens)
    into = _diag_skeleton(gens, seg[0], lambda A, C: ratio % C == 0)
    sets = _top_right_sets(gens, into, seg[0])
    lefts = {}  # C -> [(A, top-right set)] over whole products
    for (A, C, phase), tops in sets.items():
        if phase == 1:
            lefts.setdefault(C, []).append((A, tops))
    y1, y2 = y.v1, y.v2

    def live(v2, v1, f):
        C, r = divmod(y2, v2)
        if r:
            return None
        for A, tops in lefts.get(C, ()):
            if flagged and A and not f:
                continue
            q, r = divmod(y1 - A * v1, v2)
            if not r and tops.member(q):
                return A, q, C
        return None

    def read(A, B, C):
        return _read_word(gens, seg, into, sets, (A, C, 1), B)
    return live, read


def _live_search(gens, x, y, budget, flagged) -> Verdict:
    """Exact answer for generators whose |c| = 1 entries all have
    |a| = 1.  A dead start is a structural No; otherwise a breadth-first
    search over configurations (v2, v1, f) stores only live ones, so it
    ends at the goal with a shortest witness.  Generators run outer and
    the frontier inner, as in the oracle's prepend order, so a plain
    vector-reachability witness is the oracle's own.  When the search
    spends max_steps or cuts a configuration at max_magnitude, the live
    start still has a witness: the one read back along the DP's edges."""
    live, read = _liveness(gens, y, y.v2 // x.v2, flagged)
    start = (x.v2, x.v1, 0)
    goal = (y.v2, y.v1, int(flagged))
    left = live(*start)
    if left is None:
        return no("structural")
    if start == goal:
        return yes(())
    steps = [(g.a, g.b, g.c, int(flagged and g.a == 0)) for g in gens]
    cap = budget.max_magnitude
    parent = {start: None}
    frontier = [start]
    pruned = False
    while frontier:
        nxt = []
        for j, (a, b, c, z) in enumerate(steps):
            for conf in frontier:
                v2, v1, f = conf
                new = (c * v2, a * v1 + b * v2, f | z)
                if new in parent or live(*new) is None:
                    continue
                if cap is not None and abs(new[1]) > cap:
                    pruned = True
                    continue
                if len(parent) >= budget.max_steps:
                    return yes(tuple(read(*left)))
                parent[new] = (conf, j)
                if new == goal:
                    word = []
                    while parent[new] is not None:
                        new, j = parent[new]
                        word.append(j)
                    return yes(tuple(word))
                nxt.append(new)
        frontier = nxt
    if not pruned:
        raise AssertionError(f"live start {start} never reached {goal}")
    return yes(tuple(read(*left)))


def _vecreach_nonzero(gens, x, y, budget, flagged) -> Verdict:
    """x2 != 0 and y2 != 0 case; when flagged, accepted runs must apply
    at least one generator with a zero top-left entry.  Inside the
    exact-liveness fragment the live search answers; any other generator
    set takes one register-machine search over the divisor lattice."""
    if y.v2 % x.v2 != 0:
        return no("structural")
    if flagged and not any(g.a == 0 for g in gens):
        return no("structural")
    ratio = y.v2 // x.v2
    words = _diag_words([g.c for g in gens], ratio)
    if ratio not in words:
        return no("structural")  # no product has this bottom-right
    if all(abs(g.a) == 1 for g in gens if abs(g.c) == 1):
        return _live_search(gens, x, y, budget, flagged)
    prm, origin = _lattice_prm(gens, x.v2, y.v2, words, flagged)
    v = reach_prm(prm, ((0, x.v2), x.v1), ((int(flagged), y.v2), y.v1),
                  budget)
    if v.is_yes:
        return yes(tuple(origin[i] for i in reversed(v.witness)))
    return v


def solve_vecreach_ut22(gens, x: Vec2, y: Vec2,
                        budget: PrmBudget) -> Verdict:
    """Vector reachability when every generator has a nonzero
    bottom-right entry.

    The second component only ever gets multiplied, so either both x2
    and y2 are zero (reducing to a product over top-left entries) or the
    big bottom-right factors are finitely many: the top-right DP decides
    the question, or, outside its fragment, one register-machine search
    over the divisor lattice of y2/x2 does.
    """
    _require(gens, "c", "bottom-right")
    if x.v2 == 0 or y.v2 == 0:
        if x.v2 != 0 or y.v2 != 0:
            return no("structural")
        if x.v1 == 0:
            return yes(()) if y.v1 == 0 else no("structural")
        if y.v1 % x.v1 != 0:
            return no("structural")
        word = _diag_product_word([g.a for g in gens], y.v1 // x.v1)
        return yes(word) if word is not None else no("structural")
    return _vecreach_nonzero(gens, x, y, budget, flagged=False)


# ---------------------------------------------------------------------------
# Membership for nonzero diagonals


def solve_membership_nonzero_diag(gens, target: UTMat) -> Verdict:
    """Exact membership when generators and target have no zero diagonal
    entries.

    A product alternates unit-diagonal segments with big factors (a
    diagonal entry of magnitude > 1), so the top-right DP over the signed
    divisor pairs (A, C) of the target diagonal decides it; the word is
    read back along the DP's edges."""
    _require(gens, "a", "top-left")
    _require(gens, "c", "bottom-right")
    if not isinstance(target, UTMat) or target.a == 0 or target.c == 0:
        raise ValueError("target must have a nonzero diagonal")
    if target == UTMat.identity():
        return yes(())
    ta, tc = target.a, target.c
    goal = (ta, tc, 1)
    seg = _segment_sets(gens)
    into = _diag_skeleton(gens, seg[0],
                          lambda A, C: ta % A == 0 and tc % C == 0, goal)
    sets = _top_right_sets(gens, into, seg[0])
    if goal not in sets or not sets[goal].member(target.b):
        return no("structural")
    return yes(tuple(_read_word(gens, seg, into, sets, goal, target.b)))


def _pick_pair(k1, set1, k2, set2, rest):
    """(x, y) with x in set1, y in set2 and k1*x + k2*y == rest, or None.
    Pairs with x or y at a component base come first, least |x| + |y|
    first: they keep the words laid out for them short."""
    near = [((rest - k2 * b) // k1, b) for b, _ in set2.components]
    near += [(b, (rest - k1 * b) // k2) for b, _ in set1.components]
    near = [(x, y) for x, y in near if k1 * x + k2 * y == rest
            and set1.member(x) and set2.member(y)]
    if near:
        return min(near, key=lambda p: abs(p[0]) + abs(p[1]))
    for b1, s1 in set1.components:
        for b2, s2 in set2.components:
            counts = nonneg_combination([k1 * s1, k2 * s2],
                                        rest - k1 * b1 - k2 * b2)
            if counts is not None:
                return b1 + s1 * counts[0], b2 + s2 * counts[1]
    return None


# ---------------------------------------------------------------------------
# General membership via scalar reachability


def _flip_ut(m: UTMat) -> UTMat:
    """Conjugate-transpose image swapping the diagonal; products map to
    reversed products of images."""
    return UTMat(m.c, m.b, m.a)


def reduce_membership_to_scalar(gens, target: UTMat, budget: Budget,
                                prm_budget: PrmBudget) -> Verdict:
    """Membership for arbitrary upper-triangular generators, split on
    the target shape; the both-diagonal-zeros case is answered through
    scalar-reachability queries solved by the search oracle.
    """
    if target.is_zero():
        # a product is zero iff some factor kills the top-left entry and
        # some factor kills the bottom-right one
        ia = next((i for i, g in enumerate(gens) if g.a == 0), None)
        ic = next((i for i, g in enumerate(gens) if g.c == 0), None)
        if ia is not None and ic is not None:
            return yes((ia, ic))
        return no("structural")
    if target.a != 0 and target.c != 0:
        keep = [i for i, g in enumerate(gens) if g.a != 0 and g.c != 0]
        return _remap(solve_membership_nonzero_diag(
            [gens[i] for i in keep], target), keep)
    if target.a != 0 or target.c != 0:
        # one diagonal zero: reachability from (0, 1) to (T12, nonzero
        # entry) by the factors nonzero there, where some factor must be
        # zero where the target is, tracked by a state flag; a nonzero
        # top-left is first moved to the bottom right by _flip_ut
        flip = target.c == 0
        keep = [i for i, g in enumerate(gens) if (g.a if flip else g.c)]
        kept = [_flip_ut(gens[i]) if flip else gens[i] for i in keep]
        y = Vec2(target.b, target.a if flip else target.c)
        v = _vecreach_nonzero(kept, Vec2(0, 1), y, prm_budget, flagged=True)
        if v.is_yes and flip:
            v = yes(reversed(v.witness))
        return _remap(v, keep)
    # target (0 T12; 0 0) with T12 != 0: one double-zero generator
    # absorbs everything around it, or a bottom-right zero meets a
    # top-left zero with an arbitrary middle product
    t12 = target.b
    a_words = _diag_words([g.a for g in gens], t12)
    c_words = _diag_words([g.c for g in gens], t12)
    # the divisor loops run |d| ascending, +d before -d
    alphas, betas = (sorted(w, key=lambda d: (abs(d), -d))
                     for w in (a_words, c_words))
    verdicts = []
    for i, A in enumerate(gens):
        if A.a == 0 and A.c == 0 and A.b != 0 and t12 % A.b == 0:
            r = t12 // A.b
            for m in alphas:
                if r % m == 0 and r // m in c_words:
                    return yes(a_words[m] + (i,) + c_words[r // m])
    for i, A in enumerate(gens):
        if A.c != 0 or A.a == 0:
            continue
        for j, B in enumerate(gens):
            if B.a != 0 or B.c == 0:
                continue
            for alpha in alphas:
                for beta in betas:
                    if (t12 // alpha) % beta:
                        continue
                    query = ProblemInstance(
                        P.SCALAR_REACHABILITY, tuple(gens),
                        x=Vec2(B.b, B.c), y=Vec2(A.a, A.b),
                        lam=t12 // (alpha * beta))
                    v = oracle_solve(query, budget)
                    if v.is_yes:
                        return yes(a_words[alpha] + (i,) + v.witness
                                   + (j,) + c_words[beta])
                    verdicts.append(v)
    return disjunction(verdicts)
