"""Polynomial/affine register machines, bounded one-counter automata,
budgeted reachability, and the reduction from bounded-counter reachability
to affine register machines."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .problems import Verdict, no, unknown

NEG_INF = object()
POS_INF = object()


def poly_eval(coeffs, x: int) -> int:
    """Evaluate a polynomial given as (c0, c1, ..., cd) at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class Prm:
    """Register machine: one integer register, polynomial updates on
    transitions.  Parallel transitions between the same state pair with
    different update polynomials are allowed (they stand for distinct
    labeled edges)."""

    states: tuple
    transitions: tuple  # (src, dst, coeff tuple)

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        trans = tuple((s, d, tuple(p)) for s, d, p in self.transitions)
        object.__setattr__(self, "transitions", trans)
        known = set(self.states)
        for s, d, p in trans:
            if s not in known or d not in known:
                raise ValueError(f"transition endpoint not a state: {(s, d)}")
            if not p:
                raise ValueError("empty update polynomial")

    def is_affine(self) -> bool:
        return all(len(p) <= 2 for _, _, p in self.transitions)


@dataclass(frozen=True)
class Bca:
    """One-counter automaton with counter confined to [0, bound]."""

    states: tuple
    bound: int
    transitions: tuple  # (src, p, dst) with |p| <= bound

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "transitions", tuple(self.transitions))
        if self.bound < 0:
            raise ValueError("counter bound must be nonnegative")
        known = set(self.states)
        for s, p, d in self.transitions:
            if s not in known or d not in known:
                raise ValueError(f"transition endpoint not a state: {(s, d)}")
            if abs(p) > self.bound:
                raise ValueError(f"counter update {p} exceeds bound {self.bound}")


@dataclass(frozen=True)
class PrmBudget:
    """max_steps caps how many distinct configurations the search may
    store; max_magnitude caps the register absolute value."""

    max_steps: int
    max_magnitude: Optional[int] = None

    def __post_init__(self):
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")
        if self.max_magnitude is not None and self.max_magnitude <= 0:
            raise ValueError("max_magnitude must be positive")


def reach_bca(m: Bca, src, dst) -> Verdict:
    """Exact reachability between counter configurations; the state space
    Q x [0, bound] is finite so plain BFS is complete.  Yes carries the
    transition-index witness and the configuration path."""
    for name, (q, c) in (("source", src), ("target", dst)):
        if q not in m.states:
            raise ValueError(f"{name} state {q!r} unknown")
        if not 0 <= c <= m.bound:
            raise ValueError(f"{name} counter {c} outside [0, {m.bound}]")
    if src == dst:
        return Verdict("yes", witness=(), path=(src,))
    parent = {src: None}
    frontier = [src]
    while frontier:
        nxt = []
        for conf in frontier:
            q, c = conf
            for i, (s, p, d) in enumerate(m.transitions):
                if s != q or not 0 <= c + p <= m.bound:
                    continue
                nc = (d, c + p)
                if nc in parent:
                    continue
                parent[nc] = (conf, i)
                if nc == dst:
                    return _trace(parent, nc)
                nxt.append(nc)
        frontier = nxt
    return no("saturation")


def _trace(parent, conf) -> Verdict:
    path, wit = [conf], []
    while parent[conf] is not None:
        conf, i = parent[conf]
        path.append(conf)
        wit.append(i)
    return Verdict("yes", witness=tuple(reversed(wit)),
                   path=tuple(reversed(path)))


def _monotone_bounds(m: Prm, dst):
    """Per-state feasibility interval for reaching dst, valid when every
    update is affine with slope >= 1 (so every path map is strictly
    increasing in the start value).

    A value v can reach (qt, vt) through (q, ax+b, q') only if
    (down(q')-b)/a <= v <= (up(q')-b)/a.  The least fixpoint of this
    backward system is approached by Kleene iteration; since slopes > 1
    make the iteration converge only in the limit, the candidate is
    padded with slack and certified as a post-fixpoint (any verified
    post-fixpoint is a sound over-approximation).  States failing the
    certificate are widened to an unbounded interval, which merely
    disables pruning there.
    """
    if not all(len(p) == 2 and p[1] >= 1 for _, _, p in m.transitions):
        return None
    qt, vt = dst
    # states that can reach qt at all; everything else is dead outright
    preds = {}
    for s, d, _ in m.transitions:
        preds.setdefault(d, set()).add(s)
    co = {qt}
    stack = [qt]
    while stack:
        for s in preds.get(stack.pop(), ()):
            if s not in co:
                co.add(s)
                stack.append(s)
    edges = [(s, d, p) for s, d, p in m.transitions if s in co and d in co]
    up = {q: NEG_INF for q in m.states}
    down = {q: POS_INF for q in m.states}
    up[qt] = down[qt] = vt
    # integer Kleene iteration with floor/ceil rounding; since feasible
    # register values are integers, the rounded fixpoint is still a sound
    # envelope, and rounding forces exact convergence.  Slow or divergent
    # relaxations get widened to an unbounded side, which only costs
    # pruning precision.
    huge = 1 << 80

    def relax_once():
        changed = []
        for s, d, (b, a) in edges:
            u = up[d]
            if u is not NEG_INF:
                cand = POS_INF if u is POS_INF else (u - b) // a
                if up[s] is not POS_INF and \
                        (up[s] is NEG_INF or cand is POS_INF or cand > up[s]):
                    up[s] = POS_INF if cand is not POS_INF and \
                        abs(cand) > huge else cand
                    changed.append((s, True))
            w = down[d]
            if w is not POS_INF:
                cand = NEG_INF if w is NEG_INF else -((b - w) // a)
                if down[s] is not NEG_INF and \
                        (down[s] is POS_INF or cand is NEG_INF or
                         cand < down[s]):
                    down[s] = NEG_INF if cand is not NEG_INF and \
                        abs(cand) > huge else cand
                    changed.append((s, False))
        return changed

    rounds = 60 * max(len(m.states), 4)
    while True:
        changed = None
        for _ in range(rounds):
            changed = relax_once()
            if not changed:
                return up, down
        # widen whatever is still moving and keep going to a fixpoint
        for q, is_up in changed:
            if is_up:
                up[q] = POS_INF
            else:
                down[q] = NEG_INF


def reach_prm(m: Prm, src, dst, budget: PrmBudget) -> Verdict:
    """Budgeted forward search over configurations.

    No is issued only when the explored set is provably closed: the
    frontier died out and nothing was cut by the magnitude cap.  For
    machines whose updates are all affine with slope >= 1, configurations
    that provably cannot reach the target (by the monotone interval
    bounds) are discarded without weakening the closure certificate.
    """
    for name, (q, _) in (("source", src), ("target", dst)):
        if q not in m.states:
            raise ValueError(f"{name} state {q!r} unknown")
    if src == dst:
        return Verdict("yes", witness=(), path=(src,))
    bounds = _monotone_bounds(m, dst)

    def dead(q, v):
        if bounds is None:
            return False
        up, down = bounds
        if up[q] is NEG_INF or down[q] is POS_INF:
            return True
        if up[q] is not POS_INF and v > up[q]:
            return True
        if down[q] is not NEG_INF and v < down[q]:
            return True
        return False

    if dead(*src):
        return no("structural")
    out = {q: [] for q in m.states}
    for i, (s, d, p) in enumerate(m.transitions):
        out[s].append((i, d, p))
    parent = {src: None}
    frontier = [src]
    pruned = False
    while frontier:
        nxt = []
        for conf in frontier:
            q, v = conf
            for i, d, p in out[q]:
                nc = (d, poly_eval(p, v))
                if nc in parent or dead(*nc):
                    continue
                if budget.max_magnitude is not None and \
                        abs(nc[1]) > budget.max_magnitude:
                    pruned = True
                    continue
                if len(parent) >= budget.max_steps:
                    # configuration budget spent; anything beyond is
                    # unexplored, so a closure certificate is off the table
                    pruned = True
                    continue
                parent[nc] = (conf, i)
                if nc == dst:
                    return _trace(parent, nc)
                nxt.append(nc)
        frontier = nxt
    return no("saturation") if not pruned else unknown()


@dataclass(frozen=True)
class ReductionParams:
    """Constants of the counter-to-register reduction."""

    b: int
    j: int
    B: int
    K: int

    @staticmethod
    def for_bound(b: int) -> "ReductionParams":
        if b < 0:
            raise ValueError("bound must be nonnegative")
        j = 1 if b == 0 else (b - 1).bit_length() + 1 if b > 1 else 1
        # j = ceil(log2 b) + 1, with j = 1 at b in {0, 1}
        B = 2 ** j - 1
        return ReductionParams(b, j, B, 2 * B + 1)


def digit_guess_value(i: int, c: int, K: int) -> int:
    """(K+1)*c - i*K: the register after one simulated guess of i."""
    return (K + 1) * c - i * K


@dataclass(frozen=True)
class ReducedArm:
    machine: Prm
    source: tuple
    target: tuple
    params: ReductionParams


def reduce_bca_to_arm(m: Bca, src, dst) -> ReducedArm:
    """Reachability-preserving translation of a bounded one-counter
    automaton into an affine register machine.

    Counter transitions are first padded up to the power-of-two bound B
    (add B-b then subtract it again), then each padded transition is
    simulated by multiply-by-(K+1) followed by j binary guess stages that
    subtract 2^k * K, and finally the counter update itself.  A wrong
    guess throws the register out of [0, B] for good.
    """
    params = ReductionParams.for_bound(m.bound)
    B, K, j = params.B, params.K, params.j
    states = [str(q) for q in m.states]
    if len(set(states)) != len(states):
        raise ValueError("state names collide after stringification")
    padded = []  # (src, p, dst) over the padded state set
    for i, (s, p, d) in enumerate(m.transitions):
        q1, q2 = f"@pad:{i}:a", f"@pad:{i}:b"
        states += [q1, q2]
        padded += [(str(s), p, q1), (q1, B - m.bound, q2),
                   (q2, -(B - m.bound), str(d))]
    transitions = []
    for i, (s, p, d) in enumerate(padded):
        guess = [f"@guess:{i}:{k}" for k in range(j + 1)]
        states += guess
        transitions.append((s, guess[0], (0, K + 1)))
        for k in range(j):
            transitions.append((guess[k], guess[k + 1], (-(2 ** k) * K, 1)))
            transitions.append((guess[k], guess[k + 1], (0, 1)))
        transitions.append((guess[j], d, (p, 1)))
    prm = Prm(tuple(states), tuple(transitions))
    return ReducedArm(prm, (str(src[0]), src[1]), (str(dst[0]), dst[1]),
                      params)


def sufficient_budget(red: ReducedArm) -> PrmBudget:
    """A budget under which the reduced machine's search never comes back
    Unknown: magnitudes beyond (B+1)(K+1) only occur on runs already cut
    off by the monotone bounds, and the step count covers every distinct
    live configuration."""
    p = red.params
    n = len(red.machine.states)
    return PrmBudget(max_steps=n * (p.B + 1) * (p.j + 3),
                     max_magnitude=2 * (p.B + 1) * (p.K + 1) + 64)
