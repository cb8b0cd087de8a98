"""Exact solvers for upper-triangular generator sets whose determinants
are all +-1: a sign-pair weighted automaton whose run values capture
top-right entries, semilinear run-value sets, and budget-free decision
procedures for membership, vector reachability, and scalar reachability.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import problems as P
from .core import UTMat
from .diophantine import (LinearSystem, SemilinearSet, combo_value_set,
                          nonneg_combination, solve_linear)
from .problems import ProblemInstance, Verdict, no, yes

SIGN_STATES = ((1, 1), (1, -1), (-1, 1), (-1, -1))


@dataclass(frozen=True)
class ZVass:
    """Weighted automaton over the four diagonal-sign pairs.

    One transition per (state, generator): from (s, t), the generator
    (s' a'; 0 t') moves to (s*s', t*t') with weight s*t*t'*a'.  A run
    from (+1,+1) with value a corresponds to a product (s_n, t_n*a;
    0, t_n) where (s_n, t_n) is the state reached.
    """

    transitions: tuple = ()  # (src state, weight, dst state)


def build_zvass(gens) -> ZVass:
    """Transitions in state-major, generator-minor order."""
    trans = []
    for s, t in SIGN_STATES:
        for g in gens:
            if abs(g.a) != 1 or abs(g.c) != 1:
                raise ValueError(f"generator {g} has a diagonal entry "
                                 "outside {-1, 1}")
            trans.append(((s, t), s * t * g.c * g.b, (s * g.a, t * g.c)))
    return ZVass(tuple(trans))


# Per-generator shape, read off the transitions leaving (+1,+1): the
# class is the sign pair the generator moves (+1,+1) to, and the weight
# there is the generator's contribution while the running determinant
# sign is +1.  Applying a "p" or "n" generator keeps the determinant
# sign; "u" and "v" flip it.  A generator contributes +weight when the
# current determinant sign is +1 and -weight when it is -1, so a run's
# value depends only on how often each generator fires under each sign.
_CLASS_OF = {(1, 1): "p", (-1, -1): "n", (1, -1): "u", (-1, 1): "v"}


def _classes(v: ZVass):
    """[(class, weight-from-(+1,+1))] in generator order."""
    return [(_CLASS_OF[dst], w) for src, w, dst in v.transitions
            if src == (1, 1)]


def _det1_part(cls, S, T):
    """Value classes of runs (+1,+1) -> (S,T) using no determinant flips:
    counts z >= 0 per generator, n-class count parity fixed by S."""
    if S != T:
        return SemilinearSet.empty()
    coeffs = [w for k, w in cls if k in "pn"]
    flips = [k == "n" for k, _ in cls if k in "pn"]
    return combo_value_set(coeffs, flips, 1 if S < 0 else 0)


def _flip_part_classes(cls, S, T):
    """Constraint systems for runs using >= 1 determinant flip.

    Net firing balances are free integers: d_i (positive-sign uses minus
    negative-sign uses) for sign-preserving generators, x_j likewise for
    flipping generators.  The flips alternate +,-,+,..., so sum(x) equals
    m mod 2 for m flips; per-class use-count parities pin the reached
    sign pair.  Yields (system, value coefficients) per residual parity
    of the n-class count.
    """
    idx_flip = [i for i, (k, _) in enumerate(cls) if k in "uv"]
    if not idx_flip:
        return
    rm = 0 if S * T > 0 else 1
    idx_n = tuple(i for i, (k, _) in enumerate(cls) if k == "n")
    idx_u = tuple(i for i, (k, _) in enumerate(cls) if k == "u")
    idx_v = tuple(i for i, (k, _) in enumerate(cls) if k == "v")
    nvars = len(cls)
    row = tuple(1 if i in set(idx_flip) else 0 for i in range(nvars))
    for rn in (0, 1):
        ru = (rn + (1 if T < 0 else 0)) % 2
        rv = (rn + (1 if S < 0 else 0)) % 2
        if (rn and not idx_n) or (ru and not idx_u) or (rv and not idx_v):
            continue
        sys = LinearSystem((row,), (rm,),
                           ((idx_n, rn), (idx_u, ru), (idx_v, rv)))
        yield sys


def value_set(v: ZVass, frm, to) -> SemilinearSet:
    """Exact set of run values from frm to to (the empty run included
    when the states coincide)."""
    for st in (frm, to):
        if st not in SIGN_STATES:
            raise ValueError(f"not a sign-pair state: {st!r}")
    cls = _classes(v)
    S, T = frm[0] * to[0], frm[1] * to[1]
    scale = frm[0] * frm[1]
    out = SemilinearSet.empty()
    if (S, T) == (1, 1):
        out = out.union(SemilinearSet.singleton(0))
    out = out.union(_det1_part(cls, S, T))
    weights = [w for _, w in cls]
    for sys in _flip_part_classes(cls, S, T):
        res = solve_linear(sys)
        if res.kind != "some":
            continue
        w0 = sum(c * x for c, x in zip(weights, res.particular))
        h = 0
        for vec in res.basis:
            h = gcd(h, sum(c * x for c, x in zip(weights, vec)))
        part = SemilinearSet.singleton(w0) if h == 0 else \
            SemilinearSet(((w0, h), (w0, -h)))
        out = out.union(part)
    if scale == -1:
        out = SemilinearSet(tuple((-b, -s) for b, s in out.components))
    return out


def realize_run(gens, frm, to, value):
    """A generator-index word whose run frm -> to has the given value, or
    None.  The product of the word (left to right) is then
    (frm[0]*to[0], to[1]*value; 0, frm[1]*to[1]) up to the start scaling.
    """
    v = build_zvass(gens)
    cls = _classes(v)
    S, T = frm[0] * to[0], frm[1] * to[1]
    w = frm[0] * frm[1] * value  # run value as seen from (+1,+1)
    if (S, T) == (1, 1) and w == 0:
        return []
    # no-flip runs: nonneg counts, order irrelevant
    if S == T:
        pn = [i for i, (k, _) in enumerate(cls) if k in "pn"]
        counts = nonneg_combination([cls[i][1] for i in pn], w,
                                    [cls[i][0] == "n" for i in pn],
                                    1 if S < 0 else 0)
        if counts is not None:
            word = []
            for i, zc in zip(pn, counts):
                word += [i] * zc
            return word
    # flip runs: solve a balance system, then lay the word out as
    # positive-sign block, flip, negative-sign block, flip, flip, ...
    weights = [w_ for _, w_ in cls]
    for sys in _flip_part_classes(cls, S, T):
        rows = sys.rows + (tuple(weights),)
        rhs = sys.rhs + (w,)
        res = solve_linear(LinearSystem(rows, rhs, sys.parities))
        if res.kind != "some":
            continue
        bal = list(res.particular)
        flip_idx = [i for i, (k, _) in enumerate(cls) if k in "uv"]
        pos = {i: max(bal[i], 0) for i in flip_idx}
        neg = {i: max(-bal[i], 0) for i in flip_idx}
        if sum(pos.values()) + sum(neg.values()) == 0:
            j = flip_idx[0]
            pos[j] += 1
            neg[j] += 1
        flips = []
        take_pos = True  # odd flip positions run under sign +1
        pool_p = [i for i in flip_idx for _ in range(pos[i])]
        pool_n = [i for i in flip_idx for _ in range(neg[i])]
        while pool_p or pool_n:
            pool = pool_p if take_pos else pool_n
            flips.append(pool.pop())
            take_pos = not take_pos
        block_pos, block_neg = [], []
        for i, (k, _) in enumerate(cls):
            if k in "pn":
                (block_pos if bal[i] >= 0 else block_neg).extend(
                    [i] * abs(bal[i]))
        word = block_pos + [flips[0]] + block_neg + flips[1:]
        return word
    return None


def _word_product(gens, word) -> UTMat:
    prod = UTMat.identity()
    for i in word:
        prod = prod * gens[i]
    return prod


def _membership_word(gens, target: UTMat):
    """Word with product == target (generators all det +-1), or None."""
    s, t = target.a, target.c
    if abs(s) != 1 or abs(t) != 1:
        return None
    word = realize_run(gens, (1, 1), (s, t), t * target.b)
    if word is not None:
        assert _word_product(gens, word) == target
    return word


def _diag_word(gens, s, t):
    """Word whose product has diagonal (s, t), any top-right, or None."""
    if (s, t) == (1, 1):
        return []  # the empty product
    v = build_zvass(gens)
    vs = value_set(v, (1, 1), (s, t))
    if vs.is_empty():
        return None
    a = vs.components[0][0]
    word = realize_run(gens, (1, 1), (s, t), a)
    assert word is not None
    return word


def _check_dets(gens, allowed):
    for g in gens:
        if not isinstance(g, UTMat) or g.det() not in allowed:
            raise ValueError(f"generator {g} has determinant outside "
                             f"{sorted(allowed)}")


def _sign_split(gens, constraints) -> Verdict:
    """Yes with the first word found for a constraint (s, t, k, rem),
    else a structural No.  Each constraint asks for a product
    (s a; 0 t) with k*a == rem: a membership query when k != 0, a
    diagonal query when k == rem == 0."""
    for s, t, k, rem in constraints:
        if k:
            word = _membership_word(gens, UTMat(s, rem // k, t)) \
                if rem % k == 0 else None
        else:
            word = _diag_word(gens, s, t) if rem == 0 else None
        if word is not None:
            return yes(word)
    return no("structural")


def solve_detpm1(inst: ProblemInstance) -> Verdict:
    """Exact Yes/No for membership, vector reachability, and scalar
    (or zero) reachability when every generator has determinant +-1.
    A membership target whose determinant is not +-1 is a structural No.

    A product (s a; 0 t) maps x to (s*x1 + a*x2, t*x2), and
    y^T (s a; 0 t) x == s*x1*y1 + a*x2*y1 + t*x2*y2, so vector and
    scalar questions split into one constraint on a per sign pair."""
    gens = list(inst.generators)
    _check_dets(gens, {1, -1})
    p, x, y = inst.problem, inst.x, inst.y
    if p == P.MATRIX_MEMBERSHIP:
        if not isinstance(inst.target, UTMat):
            raise ValueError("membership target must be upper-triangular")
        word = _membership_word(gens, inst.target)
        return yes(word) if word is not None else no("structural")
    if p == P.VECTOR_REACHABILITY:
        return _sign_split(gens, ((s, t, x.v2, y.v1 - s * x.v1)
                                  for s, t in SIGN_STATES
                                  if t * x.v2 == y.v2))
    if p in (P.SCALAR_REACHABILITY, P.ZERO_REACHABILITY):
        lam = 0 if p == P.ZERO_REACHABILITY else inst.lam
        return _sign_split(gens, ((s, t, x.v2 * y.v1,
                                   lam - s * x.v1 * y.v1 - t * x.v2 * y.v2)
                                  for s, t in SIGN_STATES))
    raise ValueError(f"unsupported problem {p!r}")
