"""Upper-triangular solvers beyond the determinant-+-1 fragment: vector
reachability when every bottom-right entry is nonzero, membership for
nonzero diagonals and for one allowed diagonal zero, the case analysis
reducing general membership to scalar reachability, the sign-invariant
scalar-to-membership reduction, and the mortality shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import problems as P
from .bridge import disjunction
from .core import UTMat, Vec2
from .detpm1 import SIGN_STATES, build_zvass, realize_run, value_set
from .diophantine import SemilinearSet, nonneg_combination
from .machines import Prm, PrmBudget, reach_prm
from .oracle import oracle_solve
from .problems import Budget, ProblemInstance, Verdict, no, yes


@dataclass(frozen=True)
class CaseSplit:
    """Generator partition and boundary matrices of the sign-invariant
    scalar-to-membership reduction."""

    A: tuple  # bottom-right zero
    B: tuple  # top-left zero
    C: tuple  # the rest
    X: UTMat
    Y: UTMat
    Aprime: tuple
    Bprime: tuple


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


def _diag_product_word(values, target) -> Optional[list]:
    """Shortest index word whose value product equals target, or None.

    For target != 0 every prefix product divides the target, so a
    breadth-first search over signed divisors is complete.
    """
    if target == 0:
        for i, v in enumerate(values):
            if v == 0:
                return [i]
        return None
    if target == 1:
        return []
    parent = {1: None}
    frontier = [1]
    while frontier:
        nxt = []
        for d in frontier:
            for i, v in enumerate(values):
                if v == 0:
                    continue
                nd = d * v
                if nd in parent or target % nd != 0:
                    continue
                parent[nd] = (d, i)
                if nd == target:
                    word = []
                    while parent[nd] is not None:
                        nd, i = parent[nd]
                        word.append(i)
                    return word[::-1]
                nxt.append(nd)
        frontier = nxt
    return None


# ---------------------------------------------------------------------------
# Vector reachability for bottom-right nonzero generators


def _big_sequences(gens, ratio):
    """Ordered sequences of indices of generators with |bottom-right| > 1
    whose |bottom-right| product is exactly |ratio| (first applied first).
    """
    big = [(i, abs(g.c)) for i, g in enumerate(gens) if abs(g.c) > 1]
    out = []

    def extend(prefix, rem):
        if rem == 1:
            out.append(tuple(prefix))
            return
        for i, m in big:
            if rem % m == 0:
                prefix.append(i)
                extend(prefix, rem // m)
                prefix.pop()

    extend([], abs(ratio))
    return out


def _plan_prm(gens, x2, seq, flagged):
    """The register machine for one big-factor plan: states are the
    plausible second-component values {+-x2 * partial big products}
    (paired with a seen-a-top-left-zero bit when flagged); labels apply
    r -> a*r + b*alpha for each generator consistent with the second
    component moving alpha -> c*alpha.  Returns (machine, transition
    index -> generator index)."""
    alphas = {x2, -x2}
    acc = x2
    for i in seq:
        acc *= gens[i].c
        alphas.update((acc, -acc))
    if flagged:
        states = [(f, a) for f in (0, 1) for a in sorted(alphas)]
    else:
        states = sorted(alphas)
    trans = []
    origin = []
    for st in states:
        f, alpha = st if flagged else (None, st)
        for i, g in enumerate(gens):
            nalpha = g.c * alpha
            if nalpha not in alphas:
                continue
            if flagged:
                nf = 1 if g.a == 0 else f
                dst = (nf, nalpha)
            else:
                dst = nalpha
            trans.append((st, dst, (g.b * alpha, g.a)))
            origin.append(i)
    return Prm(tuple(states), tuple(trans)), origin


def _vecreach_nonzero(gens, x, y, budget, flagged) -> Verdict:
    """x2 != 0 and y2 != 0 case; when flagged, accepted runs must apply
    at least one generator with a zero top-left entry."""
    if y.v2 % x.v2 != 0:
        return no("structural")
    if flagged and not any(g.a == 0 for g in gens):
        return no("structural")
    ratio = y.v2 // x.v2
    verdicts = []
    for seq in _big_sequences(gens, ratio):
        prm, origin = _plan_prm(gens, x.v2, seq, flagged)
        src = ((0, x.v2) if flagged else x.v2, x.v1)
        dst = ((1, y.v2) if flagged else y.v2, y.v1)
        v = reach_prm(prm, src, dst, budget)
        if v.is_yes:
            word = [origin[i] for i in v.witness]
            return yes(tuple(reversed(word)))
        verdicts.append(v)
    return disjunction(verdicts) if verdicts else no("structural")


def solve_vecreach_ut22(gens, x: Vec2, y: Vec2,
                        budget: PrmBudget) -> Verdict:
    """Vector reachability when every generator has a nonzero
    bottom-right entry.

    The second component only ever gets multiplied, so either both x2
    and y2 are zero (reducing to a product over top-left entries) or the
    big bottom-right factors form one of finitely many sequences, each
    checked by a register-machine search.
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


def _scale_set(s: SemilinearSet, k: int) -> SemilinearSet:
    if k == 0:
        return SemilinearSet.empty() if s.is_empty() else \
            SemilinearSet.singleton(0)
    return SemilinearSet(tuple((k * b, k * st) for b, st in s.components))


def _nonzero_big_sequences(gens, ta, tc):
    """Sequences over generators with a diagonal entry of magnitude > 1
    whose top-left magnitudes multiply to |ta| and bottom-right to |tc|.
    """
    big = [(i, abs(g.a), abs(g.c)) for i, g in enumerate(gens)
           if abs(g.a) > 1 or abs(g.c) > 1]
    out = []

    def extend(prefix, ra, rc):
        if ra == 1 and rc == 1:
            out.append(tuple(prefix))
            return
        for i, ma, mc in big:
            if ra % ma == 0 and rc % mc == 0:
                prefix.append(i)
                extend(prefix, ra // ma, rc // mc)
                prefix.pop()

    extend([], abs(ta), abs(tc))
    return out


def _segment_sets(gens):
    """Per sign pair: the set of top-right entries of unit-diagonal
    products with that diagonal, and the index map into gens."""
    unit_idx = [i for i, g in enumerate(gens)
                if abs(g.a) == 1 and abs(g.c) == 1]
    unit = [gens[i] for i in unit_idx]
    zv = build_zvass(unit)
    sets = {}
    for s, t in SIGN_STATES:
        sets[(s, t)] = _scale_set(value_set(zv, (1, 1), (s, t)), t)
    return sets, unit, unit_idx


def _sign_patterns(nseg, feasible):
    if nseg == 0:
        yield ()
        return
    for rest in _sign_patterns(nseg - 1, feasible):
        for st in feasible:
            yield rest + (st,)


def solve_membership_nonzero_diag(gens, target: UTMat) -> Verdict:
    """Exact membership when generators and target have no zero diagonal
    entries.

    Any product factors as unit-diagonal segments interleaved with the
    finitely many big-diagonal factors plus an arbitrary first factor;
    for a fixed interleaving and segment sign pattern the top-right
    entry is linear in the segment top-rights, each of which ranges over
    a semilinear set.
    """
    _require(gens, "a", "top-left")
    _require(gens, "c", "bottom-right")
    if not isinstance(target, UTMat) or target.a == 0 or target.c == 0:
        raise ValueError("target must have a nonzero diagonal")
    if target == UTMat.identity():
        return yes(())
    seg_sets, unit, unit_idx = _segment_sets(gens)
    feasible = [st for st in SIGN_STATES if not seg_sets[st].is_empty()]
    for m1 in range(len(gens)):
        g1 = gens[m1]
        if target.a % g1.a != 0 or target.c % g1.c != 0:
            continue
        for seq in _nonzero_big_sequences(gens, target.a // g1.a,
                                          target.c // g1.c):
            wit = _membership_plan(gens, target, m1, seq, seg_sets,
                                   feasible, unit, unit_idx)
            if wit is not None:
                return yes(wit)
    return no("structural")


def _membership_plan(gens, target, m1, seq, seg_sets, feasible, unit,
                     unit_idx):
    """Try one (first factor, big sequence) plan; returns a witness word
    or None.  seq is in application order; segment j sits between big
    factor j and j+1, segment len(seq) is leftmost."""
    nseg = len(seq) + 1
    fixed = [gens[m1]] + [gens[i] for i in seq]  # application order
    for signs in _sign_patterns(nseg, feasible):
        # factor chain in application order: fixed[0], seg 0, fixed[1],
        # seg 1, ..., fixed[l], seg l
        diag = []
        for j in range(nseg):
            diag.append((fixed[j].a, fixed[j].c))
            diag.append(signs[j])
        prod_a = prod_c = 1
        for a_, c_ in diag:
            prod_a *= a_
            prod_c *= c_
        if prod_a != target.a or prod_c != target.c:
            continue
        # top-right entry: left products use top-left entries (factors
        # applied later), right products bottom-right entries
        n = len(diag)
        left = [1] * (n + 1)   # product of a over positions > i
        right = [1] * (n + 1)  # product of c over positions < i
        for i in range(n - 1, -1, -1):
            left[i] = left[i + 1] * diag[i][0]
        for i in range(1, n + 1):
            right[i] = right[i - 1] * diag[i - 1][1]
        const = 0
        coefs = []
        for j in range(nseg):
            pos_f = 2 * j      # fixed factor position in the chain
            pos_s = 2 * j + 1  # segment position
            const += left[pos_f + 1] * fixed[j].b * right[pos_f]
            coefs.append(left[pos_s + 1] * right[pos_s])
        rest = target.b - const
        sets = [seg_sets[signs[j]] for j in range(nseg)]
        total = SemilinearSet.singleton(0)
        for cf, s in zip(coefs, sets):
            total = total.sum(_scale_set(s, cf))
        if not total.member(rest):
            continue
        alphas = _pick_components(coefs, sets, rest)
        assert alphas is not None
        word = []
        for j in range(nseg - 1, -1, -1):
            s_, t_ = signs[j]
            seg_word = realize_run(unit, (1, 1), (s_, t_), t_ * alphas[j])
            assert seg_word is not None
            word += [unit_idx[i] for i in seg_word]
            word.append(seq[j - 1] if j > 0 else m1)
        prod = UTMat.identity()
        for i in word:
            prod = prod * gens[i]
        assert prod == target
        return tuple(word)
    return None


def _pick_components(coefs, sets, rest):
    """Concrete segment top-rights with sum(coef*alpha) == rest, alpha_j
    drawn from its semilinear set; None only if genuinely infeasible."""

    def search(j, chosen_bases, chosen_steps):
        if j == len(sets):
            tgt = rest - sum(c * b for c, b in zip(coefs, chosen_bases))
            counts = nonneg_combination(
                [c * s for c, s in zip(coefs, chosen_steps)], tgt)
            if counts is None:
                return None
            return [b + s * k for b, s, k in
                    zip(chosen_bases, chosen_steps, counts)]
        for b, s in sets[j].components:
            got = search(j + 1, chosen_bases + [b], chosen_steps + [s])
            if got is not None:
                return got
        return None

    return search(0, [], [])


# ---------------------------------------------------------------------------
# Membership with one diagonal zero allowed


def _flip_ut(m: UTMat) -> UTMat:
    """Conjugate-transpose image swapping the diagonal; products map to
    reversed products of images."""
    return UTMat(m.c, m.b, m.a)


def solve_membership_one_zero(gens, target: UTMat, budget: PrmBudget,
                              nonzero: str = "c") -> Verdict:
    """Membership when every generator is nonzero on one fixed diagonal
    position ("c" = bottom-right, "a" = top-left).

    A target that is nonzero on the other position too routes to the
    nonzero-diagonal solver; otherwise the problem is the constrained
    reachability question from (0,1) to (T12, T22) where some top-left
    zero generator must fire, tracked by a state flag.
    """
    if nonzero == "a":
        v = solve_membership_one_zero([_flip_ut(g) for g in gens],
                                      _flip_ut(target), budget, "c")
        if v.is_yes:
            return yes(tuple(reversed(v.witness)))
        return v
    _require(gens, "c", "bottom-right")
    if not isinstance(target, UTMat) or target.c == 0:
        return no("structural")
    if target.a != 0:
        # a nonzero top-left product cannot use top-left-zero factors
        keep = [i for i, g in enumerate(gens) if g.a != 0]
        return _remap(solve_membership_nonzero_diag(
            [gens[i] for i in keep], target), keep)
    return _vecreach_nonzero(gens, Vec2(0, 1),
                             Vec2(target.b, target.c), budget, flagged=True)


# ---------------------------------------------------------------------------
# General membership via scalar reachability


def _signed_divisors(n):
    n = abs(n)
    out = []
    for d in range(1, n + 1):
        if n % d == 0:
            out += [d, -d]
    return out


def reduce_membership_to_scalar(gens, target: UTMat,
                                budget: Budget,
                                prm_budget: Optional[PrmBudget] = None) \
        -> Verdict:
    """Membership for arbitrary upper-triangular generators, split on
    the target shape; the both-diagonal-zeros case is answered through
    scalar-reachability queries solved by the search oracle.
    """
    if prm_budget is None:
        prm_budget = PrmBudget(max_steps=4096, max_magnitude=10 ** 9)
    if target.is_zero():
        ia = next((i for i, g in enumerate(gens) if g.a == 0), None)
        ic = next((i for i, g in enumerate(gens) if g.c == 0), None)
        if ia is not None and ic is not None:
            return yes((ia, ic))
        return no("structural")
    if target.a != 0 and target.c != 0:
        keep = [i for i, g in enumerate(gens) if g.a != 0 and g.c != 0]
        return _remap(solve_membership_nonzero_diag(
            [gens[i] for i in keep], target), keep)
    if target.c != 0:
        keep = [i for i, g in enumerate(gens) if g.c != 0]
        return _remap(solve_membership_one_zero(
            [gens[i] for i in keep], target, prm_budget, "c"), keep)
    if target.a != 0:
        keep = [i for i, g in enumerate(gens) if g.a != 0]
        return _remap(solve_membership_one_zero(
            [gens[i] for i in keep], target, prm_budget, "a"), keep)
    # target (0 T12; 0 0) with T12 != 0: one double-zero generator
    # absorbs everything around it, or a bottom-right zero meets a
    # top-left zero with an arbitrary middle product
    t12 = target.b
    a_vals = [g.a for g in gens]
    c_vals = [g.c for g in gens]
    verdicts = []
    for i, A in enumerate(gens):
        if A.a == 0 and A.c == 0 and A.b != 0 and t12 % A.b == 0:
            r = t12 // A.b
            for m in _signed_divisors(r):
                if r % m != 0:
                    continue
                wl = _diag_product_word(a_vals, m)
                wr = _diag_product_word(c_vals, r // m)
                if wl is not None and wr is not None:
                    return yes(tuple(wl) + (i,) + tuple(wr))
    for i, A in enumerate(gens):
        if A.c != 0 or A.a == 0:
            continue
        for j, B in enumerate(gens):
            if B.a != 0 or B.c == 0:
                continue
            for alpha in _signed_divisors(t12):
                for beta in _signed_divisors(t12 // alpha):
                    if t12 % (alpha * beta) != 0:
                        continue
                    wl = _diag_product_word(a_vals, alpha)
                    wr = _diag_product_word(c_vals, beta)
                    if wl is None or wr is None:
                        continue
                    query = ProblemInstance(
                        P.SCALAR_REACHABILITY, tuple(gens),
                        x=Vec2(B.b, B.c), y=Vec2(A.a, A.b),
                        lam=t12 // (alpha * beta))
                    v = oracle_solve(query, budget)
                    if v.is_yes:
                        return yes(tuple(wl) + (i,) + tuple(v.witness)
                                   + (j,) + tuple(wr))
                    verdicts.append(v)
    return disjunction(verdicts) if verdicts else no("structural")


# ---------------------------------------------------------------------------
# Sign-invariant scalar reachability to membership


def build_case_split(gens, x: Vec2, y: Vec2) -> CaseSplit:
    A = tuple(g for g in gens if g.c == 0)
    B = tuple(g for g in gens if g.a == 0 and g.c != 0)
    C = tuple(g for g in gens if g.a != 0 and g.c != 0)
    return CaseSplit(
        A=A, B=B, C=C,
        X=UTMat(0, x.v1, x.v2), Y=UTMat(y.v1, y.v2, 0),
        Aprime=A if abs(y.v1) == 1 else (),
        Bprime=B if abs(x.v2) == 1 else ())


def reduce_signinv_scalar_to_membership(gens, x: Vec2, y: Vec2):
    """Membership queries whose disjunction decides whether some product
    M of the generators satisfies y^T M x in {-1, 1}."""
    cs = build_case_split(gens, x, y)
    if x.v2 == 0 or y.v1 == 0:
        # y^T M x collapses to y1*M11*x1 (resp. y2*M22*x2), so the answer
        # is +-1-reachable iff the identity already achieves it; an
        # unguarded query would let a lone X or Y factor fake a hit
        if abs(y.v1 * x.v1 + y.v2 * x.v2) != 1:
            return cs, []
    queries = []
    for A in cs.Aprime + (cs.Y,):
        for B in cs.Bprime + (cs.X,):
            if A.a == 0 and A is not cs.Y and abs(x.v2) != 1:
                # a generator with zero diagonal absorbs its whole context
                # into y1*b*x2; with |x2| != 1 no genuine product through
                # it reaches +-1, yet the bare generator equals the target
                continue
            for sign in (1, -1):
                queries.append(ProblemInstance(
                    P.MATRIX_MEMBERSHIP, cs.C + (A, B),
                    target=UTMat(0, sign, 0)))
    return cs, queries


def solve_signinv_scalar(gens, x: Vec2, y: Vec2, budget: Budget) -> Verdict:
    """Answer the sign-invariant scalar question by running the reduced
    membership queries through the search oracle."""
    _, queries = reduce_signinv_scalar_to_membership(gens, x, y)
    return disjunction([oracle_solve(q, budget) for q in queries])


# ---------------------------------------------------------------------------
# Mortality restricted to upper-triangular generators


def ut_mortality(gens) -> bool:
    """The zero matrix is reachable iff some generator kills the
    top-left and some generator kills the bottom-right."""
    return any(g.a == 0 for g in gens) and any(g.c == 0 for g in gens)
