"""Exact solvers for upper-triangular generator sets whose determinants
are all +-1: the semilinear set of top-right entries of the products
with a given diagonal sign pair, a word for each of its members, and
budget-free decision procedures for membership, vector reachability,
and scalar reachability.
"""

from __future__ import annotations

from . import problems as P
from .core import UTMat
from .diophantine import (SemilinearSet, combo_value_set, coset_point,
                          coset_values, nonneg_combination, parity_coset)
from .oracle import replay
from .problems import ProblemInstance, Verdict, no, yes

SIGN_STATES = ((1, 1), (1, -1), (-1, 1), (-1, -1))

# A product (s b; 0 t) has the run value t*b.  Appending a generator
# (a' b'; 0 c') adds s*t*c'*b': the generator's weight c'*b' with the
# sign of the running determinant s*t.  A generator's class is its
# diagonal sign pair: "p" and "n" generators keep the determinant sign,
# "u" and "v" flip it, so a run value depends only on how often each
# generator fires under each sign.
_CLASS_OF = {(1, 1): "p", (-1, -1): "n", (1, -1): "u", (-1, 1): "v"}


def _classes(gens, s, t):
    """[(class, weight)] in generator order, after checking that the
    generators and the diagonal (s, t) have entries in {-1, 1}."""
    if (s, t) not in _CLASS_OF:
        raise ValueError(f"not a sign pair: {(s, t)!r}")
    for g in gens:
        if (g.a, g.c) not in _CLASS_OF:
            raise ValueError(f"generator {g} has a diagonal entry "
                             "outside {-1, 1}")
    return [(_CLASS_OF[g.a, g.c], g.c * g.b) for g in gens]


def _flip_cosets(cls, s, t):
    """Parity cosets of the balances of runs using >= 1 determinant flip.

    Net firing balances are free integers: d_i (positive-sign uses minus
    negative-sign uses) for sign-preserving generators, x_j likewise for
    flipping generators.  The flips alternate +,-,+,..., so over m flips
    sum(x) is exactly m mod 2, the cosets' total; per-class use-count
    parities pin the reached sign pair (s, t).  Yields one coset per
    residual parity of the n-class count that has a point.
    """
    idx = {k: tuple(i for i, (c, _) in enumerate(cls) if c == k)
           for k in "uvn"}
    if not idx["u"] + idx["v"]:
        return
    rm = 0 if s * t > 0 else 1
    for rn in (0, 1):
        ru = (rn + (1 if t < 0 else 0)) % 2
        rv = (rn + (1 if s < 0 else 0)) % 2
        coset = parity_coset(len(cls), ((idx["u"], ru), (idx["v"], rv),
                                        (idx["n"], rn)), rm)
        if coset is not None:
            yield coset


def value_set(gens, s, t) -> SemilinearSet:
    """Exact set of the top-right entries b of the products (s b; 0 t),
    the empty product included when (s, t) == (1, 1)."""
    cls = _classes(gens, s, t)
    comps = [(0, 0)] if (s, t) == (1, 1) else []
    if s == t:  # runs with no determinant flip: counts z >= 0
        pn = [(k, w) for k, w in cls if k in "pn"]
        comps += combo_value_set([w for _, w in pn], [k == "n" for k, _ in pn],
                                 1 if s < 0 else 0).components
    weights = [w for _, w in cls]
    for coset in _flip_cosets(cls, s, t):
        comps += coset_values(coset, weights)
    # the top-right entry is t times the run value
    return SemilinearSet(tuple((t * w, t * st) for w, st in comps))


def realize_run(gens, s, t, b):
    """A generator-index word whose product (left to right) is
    (s b; 0 t), or None."""
    cls = _classes(gens, s, t)
    w = t * b  # the run value
    if (s, t) == (1, 1) and w == 0:
        return []
    # no-flip runs: nonneg counts, order irrelevant
    if s == t:
        pn = [i for i, (k, _) in enumerate(cls) if k in "pn"]
        counts = nonneg_combination([cls[i][1] for i in pn], w,
                                    [cls[i][0] == "n" for i in pn],
                                    1 if s < 0 else 0)
        if counts is not None:
            word = []
            for i, zc in zip(pn, counts):
                word += [i] * zc
            return word
    # flip runs: find balances in a coset, then lay the word out as
    # positive-sign block, flip, negative-sign block, flip, flip, ...
    weights = [w_ for _, w_ in cls]
    for coset in _flip_cosets(cls, s, t):
        bal = coset_point(coset, weights, w)
        if bal is None:
            continue
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


def _check_dets(gens, allowed):
    for g in gens:
        if not isinstance(g, UTMat) or g.det() not in allowed:
            raise ValueError(f"generator {g} has determinant outside "
                             f"{sorted(allowed)}")


def _sign_split(gens, constraints) -> Verdict:
    """Yes with the first word found for a constraint (s, t, k, rem),
    else a structural No.  Each constraint asks for a product
    (s b; 0 t) with k*b == rem: a membership query when k != 0, a
    diagonal query when k == rem == 0, answered with the member b of
    least run value t*b."""
    for s, t, k, rem in constraints:
        if k:
            b = rem // k if rem % k == 0 else None
        elif rem:
            b = None
        elif (s, t) == (1, 1):
            return yes(())  # the empty product
        else:
            runs = [t * base for base, _ in value_set(gens, s, t).components]
            b = t * min(runs) if runs else None
        word = None if b is None else realize_run(gens, s, t, b)
        if word is not None:
            assert replay(ProblemInstance(P.MATRIX_MEMBERSHIP, gens,
                                          target=UTMat(s, b, t)), word)
            return yes(word)
    return no("structural")


def solve_detpm1(inst: ProblemInstance) -> Verdict:
    """Exact Yes/No for membership, vector reachability, and scalar
    (or zero) reachability when every generator has determinant +-1.
    A membership target whose determinant is not +-1 is a structural No.

    A product (s b; 0 t) maps x to (s*x1 + b*x2, t*x2), and
    y^T (s b; 0 t) x == s*x1*y1 + b*x2*y1 + t*x2*y2, so vector and
    scalar questions split into one constraint on b per sign pair."""
    gens = list(inst.generators)
    _check_dets(gens, {1, -1})
    p, x, y = inst.problem, inst.x, inst.y
    if p == P.MATRIX_MEMBERSHIP:
        tg = inst.target
        if not isinstance(tg, UTMat):
            raise ValueError("membership target must be upper-triangular")
        return _sign_split(gens, [(tg.a, tg.c, 1, tg.b)]
                           if (tg.a, tg.c) in SIGN_STATES else [])
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
