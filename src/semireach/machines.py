"""Polynomial/affine register machines, bounded one-counter automata,
budgeted reachability, and the reduction from bounded-counter reachability
to affine register machines."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .problems import Verdict, no, unknown, yes

_INF = float("inf")


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
    transition-index witness."""
    for name, (q, c) in (("source", src), ("target", dst)):
        if q not in m.states:
            raise ValueError(f"{name} state {q!r} unknown")
        if not 0 <= c <= m.bound:
            raise ValueError(f"{name} counter {c} outside [0, {m.bound}]")
    if src == dst:
        return yes(())
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
    wit = []
    while parent[conf] is not None:
        conf, i = parent[conf]
        wit.append(i)
    return yes(reversed(wit))


def _monotone_bounds(m: Prm, dst):
    """Per-state windows for reaching dst: lists lo and hi, indexed like
    m.states, of ints or +-inf, such that (q, v) can reach dst only if
    lo[q] <= v <= hi[q]; lo > hi marks a dead state.  Every window is
    (-inf, inf) unless each update is affine with slope >= 1 or constant.

    Through (q, ax+b, q') with a >= 1, v must lie in
    [ceil((lo(q')-b)/a), floor((hi(q')-b)/a)]: register values are
    integers, so the rounding stays sound and forces exact convergence.
    A constant edge with value b offers (-inf, inf) while b lies in the
    window of q'.  A FIFO worklist from dst computes the least fixpoint
    of the joins, relaxing only the edges into a popped state.  A slope-1
    cycle with a nonzero offset makes a side creep forever, so a side
    that has moved 60 * max(n, 4) times is widened to +-inf, and a
    slope-1 self-loop x -> x + b with b != 0 widens the side it creeps
    (hi when b < 0, lo when b > 0) as soon as that side is finite.
    Widening merely disables pruning there.
    """
    n = len(m.states)
    if not all(len(p) == 1 or len(p) == 2 and p[1] >= 0
               for _, _, p in m.transitions):
        return [-_INF] * n, [_INF] * n
    index = {q: i for i, q in enumerate(m.states)}
    qt, vt = index[dst[0]], dst[1]
    # per-side move counts; a creeping self-loop starts its side one
    # move short of the limit
    limit = 60 * max(n, 4)
    lo_moves, hi_moves = [0] * n, [0] * n
    into = [[] for _ in range(n)]
    for s, d, p in m.transitions:
        s, d = index[s], index[d]
        b, a = p[0], p[1] if len(p) == 2 else 0
        into[d].append((s, b, a))
        if s == d and a == 1 and b:
            (hi_moves if b < 0 else lo_moves)[s] = limit - 1
    lo, hi = [_INF] * n, [-_INF] * n
    lo[qt] = -_INF if lo_moves[qt] else vt
    hi[qt] = _INF if hi_moves[qt] else vt
    # a state is queued only once it has been offered a window, so no
    # popped d has lo[d] == inf or hi[d] == -inf; states that cannot
    # reach qt keep that empty window
    huge = 1 << 80
    work, queued = deque([qt]), {qt}
    while work:
        d = work.popleft()
        queued.discard(d)
        for s, b, a in into[d]:
            # d's window is read per edge, since a self-loop may just have
            # moved it; (clo, chi) is the window it offers to s
            clo, chi = lo[d], hi[d]
            if a:
                # inf // a is nan, so an infinite side passes through as is
                clo = clo if clo == -_INF else -((b - clo) // a)
                chi = chi if chi == _INF else (chi - b) // a
            elif clo <= b <= chi:
                clo, chi = -_INF, _INF
            else:
                continue
            if clo >= lo[s] and chi <= hi[s]:
                continue
            if clo < lo[s]:
                lo_moves[s] += 1
                lo[s] = -_INF if abs(clo) > huge or lo_moves[s] >= limit \
                    else clo
            if chi > hi[s]:
                hi_moves[s] += 1
                hi[s] = _INF if abs(chi) > huge or hi_moves[s] >= limit \
                    else chi
            if s not in queued:
                queued.add(s)
                work.append(s)
    return lo, hi


def reach_prm(m: Prm, src, dst, budget: PrmBudget) -> Verdict:
    """Budgeted forward search over configurations.

    No is issued only when the explored set is provably closed: the
    frontier died out and nothing was cut by the magnitude cap.  For
    machines whose updates are all affine with slope >= 1 or constant,
    configurations outside the [lo, hi] windows of _monotone_bounds
    provably cannot reach the target and are discarded without weakening
    the closure certificate.

    The machine is compiled once per call: states become indices, a
    configuration (state, value) is the int value*n + state, and each
    state has one edge list of (transition index, dst, lo, hi, b, a),
    where [lo, hi] is dst's monotone window and the update is a*x + b
    (a is None and b the coefficients for degree >= 2).  Edges into dead
    states are dropped.  The checks run in the order window, already
    seen, magnitude cap, step budget.  A configuration cut by the cap
    rules out a No; one cut by the budget ends the search with Unknown,
    since nothing after it can be stored.
    """
    n = len(m.states)
    index = {q: i for i, q in enumerate(m.states)}
    for name, (q, _) in (("source", src), ("target", dst)):
        if q not in index:
            raise ValueError(f"{name} state {q!r} unknown")
    if src == dst:
        return yes(())
    lo, hi = _monotone_bounds(m, dst)
    q0 = index[src[0]]
    if not lo[q0] <= src[1] <= hi[q0]:
        return no("structural")
    out = [[] for _ in range(n)]
    for i, (s, d, p) in enumerate(m.transitions):
        d = index[d]
        if lo[d] > hi[d]:
            continue
        if len(p) > 2:
            b, a = p, None
        else:
            b, a = p[0], p[1] if len(p) == 2 else 0
        out[index[s]].append((i, d, lo[d], hi[d], b, a))
    cap = _INF if budget.max_magnitude is None else budget.max_magnitude
    max_steps = budget.max_steps
    ntrans = len(m.transitions)
    start = src[1] * n + q0
    goal = dst[1] * n + index[dst[0]]
    parent = {start: None}  # key -> parent key * ntrans + transition
    frontier = [start]
    pruned = False
    while frontier:
        nxt = []
        for key in frontier:
            v, q = divmod(key, n)
            for i, d, wlo, whi, b, a in out[q]:
                nv = a * v + b if a is not None else poly_eval(b, v)
                if not wlo <= nv <= whi:
                    continue
                nkey = nv * n + d
                if nkey in parent:
                    continue
                if abs(nv) > cap:
                    pruned = True
                    continue
                if len(parent) >= max_steps:
                    # configuration budget spent: nothing more can be
                    # stored, so neither the target nor a closure
                    # certificate can turn up any more
                    return unknown()
                parent[nkey] = key * ntrans + i
                if nkey == goal:
                    return _trace_keys(parent, nkey, ntrans)
                nxt.append(nkey)
        frontier = nxt
    return no("saturation") if not pruned else unknown()


def _trace_keys(parent, key, ntrans) -> Verdict:
    wit = []
    while parent[key] is not None:
        key, i = divmod(parent[key], ntrans)
        wit.append(i)
    return yes(reversed(wit))


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
    if len(set(states)) != len(states):
        raise ValueError("state names clash once stringified or with gadgets")
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
