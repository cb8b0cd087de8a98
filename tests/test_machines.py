"""Register machines, bounded counter automata, and the reduction
between their reachability problems."""

import itertools
import random
import time

import pytest

from semireach.machines import (Bca, Prm, PrmBudget, ReductionParams,
                                _monotone_bounds, poly_eval, reach_bca,
                                reach_prm, reduce_bca_to_arm,
                                sufficient_budget)
from semireach.problems import no, unknown, yes

INF = float("inf")


def test_poly_eval():
    assert poly_eval((3,), 10) == 3
    assert poly_eval((1, 2), 5) == 11
    assert poly_eval((0, 0, 1), 7) == 49
    assert poly_eval((1, -1, 0, 2), -2) == -13


def test_machine_validation():
    with pytest.raises(ValueError):
        Prm(("q",), (("q", "r", (1, 1)),))
    with pytest.raises(ValueError):
        Prm(("q",), (("q", "q", ()),))
    with pytest.raises(ValueError):
        Bca(("q",), 2, (("q", 3, "q"),))
    with pytest.raises(ValueError):
        Bca(("q",), -1, ())


def test_reach_bca_basic():
    m = Bca(("p", "q"), 2, (("p", 2, "q"), ("q", -1, "q")))
    v = reach_bca(m, ("p", 0), ("q", 0))
    assert v.is_yes and v.witness == (0, 1, 1)
    assert reach_bca(m, ("q", 0), ("p", 0)).is_no
    assert reach_bca(m, ("p", 1), ("p", 1)).witness == ()
    with pytest.raises(ValueError):
        reach_bca(m, ("p", 3), ("q", 0))
    with pytest.raises(ValueError):
        reach_bca(m, ("r", 0), ("q", 0))


def test_reach_bca_respects_bound():
    # the +2 step from counter 1 would overflow bound 2, so it is barred
    m = Bca(("p",), 2, (("p", 2, "p"),))
    assert reach_bca(m, ("p", 1), ("p", 0)).is_no
    assert reach_bca(m, ("p", 0), ("p", 2)).is_yes


def test_reach_prm_increment_chain():
    m = Prm(("q",), (("q", "q", (1, 1)),))
    v = reach_prm(m, ("q", 0), ("q", 5), PrmBudget(100))
    assert v.is_yes and v.witness == (0, 0, 0, 0, 0)


def test_reach_prm_monotone_pruning_gives_no():
    # doubling can never hit an odd target from 1; the interval bounds
    # close the search even though the raw orbit is infinite
    m = Prm(("q",), (("q", "q", (0, 2)),))
    assert reach_prm(m, ("q", 1), ("q", 3), PrmBudget(50)).is_no
    assert reach_prm(m, ("q", 1), ("q", 8), PrmBudget(50)).is_yes


def test_reach_prm_budget_exhaustion_gives_unknown():
    # slope below 1 disables the monotone bounds, so the blown budget
    # must come back Unknown rather than a fake No
    m = Prm(("q",), (("q", "q", (1, -2)),))
    v = reach_prm(m, ("q", 1), ("q", 10 ** 9), PrmBudget(30, 10 ** 6))
    assert not v.definitive


def test_reach_prm_trivial_and_errors():
    m = Prm(("q", "r"), ())
    assert reach_prm(m, ("q", 4), ("q", 4), PrmBudget(5)).is_yes
    assert reach_prm(m, ("q", 4), ("r", 4), PrmBudget(5)).is_no
    with pytest.raises(ValueError):
        reach_prm(m, ("zz", 0), ("q", 0), PrmBudget(5))


def _reference_reach_prm(m, src, dst, budget):
    """reach_prm as a plain breadth-first search over (state, value)
    tuples: poly_eval on every edge, and the same check order (monotone
    bounds, already seen, magnitude cap, step budget)."""
    if src == dst:
        return yes(())
    lo, hi = _monotone_bounds(m, dst)
    index = {q: i for i, q in enumerate(m.states)}

    def dead(q, v):
        return not lo[index[q]] <= v <= hi[index[q]]

    if dead(*src):
        return no("structural")
    cap = budget.max_magnitude
    parent = {src: None}
    frontier = [src]
    pruned = False
    while frontier:
        nxt = []
        for conf in frontier:
            for i, (s, d, p) in enumerate(m.transitions):
                if s != conf[0]:
                    continue
                nc = (d, poly_eval(p, conf[1]))
                if dead(*nc) or nc in parent:
                    continue
                if cap is not None and abs(nc[1]) > cap:
                    pruned = True
                    continue
                if len(parent) >= budget.max_steps:
                    pruned = True
                    continue
                parent[nc] = (conf, i)
                if nc == dst:
                    wit = []
                    while parent[nc] is not None:
                        nc, i = parent[nc]
                        wit.append(i)
                    return yes(reversed(wit))
                nxt.append(nc)
        frontier = nxt
    return unknown() if pruned else no("saturation")


def _random_prm(rng, kind):
    """Up to 4 states and 7 transitions.  "monotone": affine with slope
    >= 1, so the monotone bounds are on; "bounded": "monotone" with about
    a third of the updates constant, (b,) or (b, 0), which keeps them on;
    "free": zero, negative and positive slopes and constants; "poly":
    "free" plus degree-2 updates."""
    states = tuple(f"s{i}" for i in range(rng.randint(1, 4)))
    trans = []
    for _ in range(rng.randint(0, 7)):
        b = rng.randint(-4, 4)
        if kind == "bounded" and rng.random() < 0.35:
            p = rng.choice(((b,), (b, 0)))
        elif kind in ("monotone", "bounded"):
            p = (b, rng.randint(1, 3))
        elif kind == "poly" and rng.random() < 0.4:
            p = (b, rng.randint(-2, 2), rng.choice((-1, 1)))
        else:
            p = rng.choice(((b,), (b, rng.randint(-2, 2))))
        trans.append((rng.choice(states), rng.choice(states), p))
    return Prm(states, tuple(trans))


def test_reach_prm_matches_tuple_keyed_search():
    rng = random.Random(5)
    kinds = set()
    for kind in ("monotone", "free", "poly") * 400:
        m = _random_prm(rng, kind)
        src = (rng.choice(m.states), rng.randint(-6, 6))
        dst = (rng.choice(m.states), rng.randint(-10, 40))
        # squaring without a cap would reach numbers of 2^40 bits
        caps = (3, 12, 60, 500) if kind == "poly" else (None, 3, 12, 60, 500)
        budget = PrmBudget(rng.randint(1, 40), rng.choice(caps))
        want = _reference_reach_prm(m, src, dst, budget)
        got = reach_prm(m, src, dst, budget)
        # Verdict equality compares kind, witness and certificate
        assert got == want, (m, src, dst, budget)
        kinds.add((kind, got.kind, got.certificate))
    # every outcome shows up for the bounded and the unbounded searches
    for kind in ("monotone", "free", "poly"):
        for outcome in (("yes", None), ("no", "saturation"),
                        ("unknown", None)):
            assert (kind, *outcome) in kinds, (kind, outcome)
    assert ("monotone", "no", "structural") in kinds


def test_reach_prm_cap_and_budget_edge_cases():
    inc = Prm(("q",), (("q", "q", (1, 1)),))
    square = Prm(("q", "r"), (("q", "q", (0, 0, 1)), ("q", "r", (1, 1)),
                               ("r", "q", (-3, 1))))
    shrink = Prm(("q",), (("q", "q", (0, -1, 1)),))
    cases = [
        # the source is beyond the cap: it is stored, its successor is cut
        (inc, ("q", 100), ("q", 105), PrmBudget(50, 10), "unknown"),
        (inc, ("q", -100), ("q", 105), PrmBudget(50, 10), "unknown"),
        # within the cap but exhausting max_steps
        (inc, ("q", 0), ("q", 40), PrmBudget(20, 1000), "unknown"),
        (inc, ("q", 0), ("q", 19), PrmBudget(20, 1000), "yes"),
        # degree 2: 2 -> 4 -> 16 -> 256 runs into the cap
        (square, ("q", 2), ("r", 257), PrmBudget(100, 200), "unknown"),
        (square, ("q", 2), ("r", 257), PrmBudget(100, 300), "yes"),
        # x^2 - x: 1 -> 0 -> 0 closes; 3 -> 6 -> 30 -> 870 runs into the cap
        (shrink, ("q", 1), ("q", 5), PrmBudget(10), "no"),
        (shrink, ("q", 3), ("q", 5), PrmBudget(10, 40), "unknown"),
    ]
    for m, src, dst, budget, kind in cases:
        got = reach_prm(m, src, dst, budget)
        assert got.kind == kind, (m, src, dst, budget)
        assert got == _reference_reach_prm(m, src, dst, budget)


def _reaching_configs(m, dst, cap):
    """Every (state, value) with |value| <= cap from which dst is reached
    through values within the cap: a backward search, exact for affine
    updates with nonzero slope and for constants."""
    seen = {dst}
    stack = [dst]
    while stack:
        q, v = stack.pop()
        for s, d, p in m.transitions:
            b, a = p[0], p[1] if len(p) == 2 else 0
            if d != q:
                continue
            if a == 0:
                pres = range(-cap, cap + 1) if v == b else ()
            elif (v - b) % a == 0 and abs((v - b) // a) <= cap:
                pres = ((v - b) // a,)
            else:
                pres = ()
            for u in pres:
                if (s, u) not in seen:
                    seen.add((s, u))
                    stack.append((s, u))
    return seen


def test_monotone_bounds_are_sound():
    rng = random.Random(9)
    for _ in range(300):
        m = _random_prm(rng, "bounded")
        dst = (rng.choice(m.states), rng.randint(-20, 20))
        lo, hi = _monotone_bounds(m, dst)
        for q, v in _reaching_configs(m, dst, 400):
            i = m.states.index(q)
            assert lo[i] <= v <= hi[i], (m, dst, q, v)
    # a constant edge that misses the target's window is dead
    assert _monotone_bounds(Prm(("q",), (("q", "q", (1, 0)),)),
                            ("q", 0)) == ([0], [0])
    # a negative slope leaves every window unbounded
    assert _monotone_bounds(Prm(("q",), (("q", "q", (1, -1)),)),
                            ("q", 0)) == ([-INF], [INF])


def test_monotone_bounds_widening_is_pinned():
    # p -> p by x - 1 would raise hi(p) by one per relaxation and r -> r
    # by x + 1 would lower lo(r), so those creeping self-loops widen the
    # two sides to unbounded at once; the other sides settle.  q -> t by
    # 2x + 1 never hits 6: rounding (6 - 1) / 2 up and down gives the
    # empty window [3, 2]
    m = Prm(("p", "q", "r", "t"),
            (("p", "p", (-1, 1)), ("p", "t", (0, 1)), ("q", "t", (1, 2)),
             ("r", "r", (1, 1)), ("r", "t", (0, 1))))
    assert _monotone_bounds(m, ("t", 6)) == ([6, 3, -INF, 6],
                                             [INF, 2, 6, 6])
    assert reach_prm(m, ("r", -50), ("t", 6), PrmBudget(100)).is_yes
    assert reach_prm(m, ("r", 7), ("t", 6), PrmBudget(100)).is_no
    assert reach_prm(m, ("p", 50), ("t", 6), PrmBudget(100)).is_yes
    assert reach_prm(m, ("p", 5), ("t", 6), PrmBudget(100)).is_no
    assert reach_prm(m, ("q", 2), ("t", 6), PrmBudget(100)).certificate \
        == "structural"


def test_monotone_bounds_move_limit_widening_is_pinned():
    # the two-edge cycle p -> r by x + 1, r -> p by x lowers lo(p) and
    # lo(r) by one per trip round it, so both reach the move limit of
    # 60 * 4 and are widened to -inf; hi settles at 6 through p -> t
    m = Prm(("p", "r", "t"),
            (("p", "r", (1, 1)), ("r", "p", (0, 1)), ("p", "t", (0, 1))))
    assert _monotone_bounds(m, ("t", 6)) == ([-INF, -INF, 6], [6, 6, 6])
    assert reach_prm(m, ("p", -40), ("t", 6), PrmBudget(1000)).is_yes
    assert reach_prm(m, ("p", 7), ("t", 6), PrmBudget(1000)).certificate \
        == "structural"
    assert reach_prm(m, ("r", 5), ("t", 6), PrmBudget(1000)).is_yes
    # with x - 2 in place of x + 1 the cycle raises hi instead
    m = Prm(("p", "r", "t"),
            (("p", "r", (-2, 1)), ("r", "p", (0, 1)), ("p", "t", (0, 1))))
    assert _monotone_bounds(m, ("t", 6)) == ([6, 6, 6], [INF, INF, 6])
    assert _monotone_bounds(m, ("t", 6)) == _round_robin_bounds(m, ("t", 6))


NEG_INF = object()
POS_INF = object()


def _as_windows(bounds, n):
    """(up, down) with NEG_INF/POS_INF sentinels, or None, as the (lo, hi)
    windows _monotone_bounds returns."""
    if bounds is None:
        return [-INF] * n, [INF] * n
    up, down = bounds
    return ([-INF if w is NEG_INF else INF if w is POS_INF else w
             for w in down],
            [INF if u is POS_INF else -INF if u is NEG_INF else u
             for u in up])


def _round_robin_bounds(m, dst):
    """_monotone_bounds as a round-robin Kleene loop over (up, down)
    bounds with sentinels: every round relaxes every co-reachable edge,
    and whatever still moves after 60 * max(n, 4) rounds is widened to
    unbounded before the loop goes on."""
    if not all(len(p) == 1 or len(p) == 2 and p[1] >= 0
               for _, _, p in m.transitions):
        return _as_windows(None, len(m.states))
    index = {q: i for i, q in enumerate(m.states)}
    trans = [(index[s], index[d], p[0], p[1] if len(p) == 2 else 0)
             for s, d, p in m.transitions]
    qt, vt = index[dst[0]], dst[1]
    preds = [[] for _ in m.states]
    for s, d, _, _ in trans:
        preds[d].append(s)
    co = [False] * len(m.states)
    co[qt] = True
    stack = [qt]
    while stack:
        for s in preds[stack.pop()]:
            if not co[s]:
                co[s] = True
                stack.append(s)
    edges = [e for e in trans if co[e[0]] and co[e[1]]]
    up = [NEG_INF] * len(m.states)
    down = [POS_INF] * len(m.states)
    up[qt] = down[qt] = vt
    huge = 1 << 80

    def relax_once():
        changed = []  # 2 * state + (1 for up)
        for s, d, b, a in edges:
            if not a:
                u, w = up[d], down[d]
                if u is not NEG_INF and w is not POS_INF \
                        and (u is POS_INF or b <= u) \
                        and (w is NEG_INF or b >= w):
                    if up[s] is not POS_INF:
                        up[s] = POS_INF
                        changed.append(2 * s + 1)
                    if down[s] is not NEG_INF:
                        down[s] = NEG_INF
                        changed.append(2 * s)
                continue
            u = up[d]
            if u is not NEG_INF:
                us = up[s]
                if us is not POS_INF:
                    if u is POS_INF:
                        up[s] = POS_INF
                        changed.append(2 * s + 1)
                    else:
                        cand = (u - b) // a
                        if us is NEG_INF or cand > us:
                            up[s] = POS_INF if abs(cand) > huge else cand
                            changed.append(2 * s + 1)
            w = down[d]
            if w is not POS_INF:
                ws = down[s]
                if ws is not NEG_INF:
                    if w is NEG_INF:
                        down[s] = NEG_INF
                        changed.append(2 * s)
                    else:
                        cand = -((b - w) // a)
                        if ws is POS_INF or cand < ws:
                            down[s] = NEG_INF if abs(cand) > huge else cand
                            changed.append(2 * s)
        return changed

    rounds = 60 * max(len(m.states), 4)
    while True:
        changed = None
        for _ in range(rounds):
            changed = relax_once()
            if not changed:
                return _as_windows((up, down), len(m.states))
        for c in changed:
            if c & 1:
                up[c >> 1] = POS_INF
            else:
                down[c >> 1] = NEG_INF


def test_monotone_bounds_match_round_robin():
    rng = random.Random(15)
    for kind in ("monotone", "bounded") * 1000:
        m = _random_prm(rng, kind)
        dst = (rng.choice(m.states), rng.randint(-10, 40))
        assert _monotone_bounds(m, dst) == _round_robin_bounds(m, dst), \
            (m, dst)
    for bound in (8, 16, 32, 64):
        for _ in range(6):
            states = tuple(f"q{i}" for i in range(rng.randint(2, 4)))
            trans = tuple((rng.choice(states), rng.randint(-bound, bound),
                           rng.choice(states))
                          for _ in range(rng.randint(2, 6)))
            red = reduce_bca_to_arm(
                Bca(states, bound, trans),
                (rng.choice(states), rng.randint(0, bound)),
                (rng.choice(states), rng.randint(0, bound)))
            assert _monotone_bounds(red.machine, red.target) == \
                _round_robin_bounds(red.machine, red.target), red
    m = Prm(("p", "q", "r", "t"),
            (("p", "p", (-1, 1)), ("p", "t", (0, 1)), ("q", "t", (1, 2)),
             ("r", "r", (1, 1)), ("r", "t", (0, 1))))
    assert _monotone_bounds(m, ("t", 6)) == _round_robin_bounds(m, ("t", 6))


def test_monotone_bounds_creeping_self_loop_is_widened_at_once():
    # c0 -> c1 -> ... -> c199 by x + 1, and c190 -> c190 by x - 1: up(c190)
    # creeps by one per relaxation, so it and every state before it are
    # unbounded above, while every lower bound is exact.  Widening after
    # 60 * 200 moves instead takes about a second here, since each move
    # runs up the chain.
    n = 200
    states = tuple(f"c{i}" for i in range(n))
    trans = [(f"c{i}", f"c{i + 1}", (1, 1)) for i in range(n - 1)]
    trans.append(("c190", "c190", (-1, 1)))
    m = Prm(states, tuple(trans))
    start = time.perf_counter()
    got = _monotone_bounds(m, ("c199", 0))
    assert time.perf_counter() - start < 0.25
    assert got == ([i - 199 for i in range(n)],
                   [INF if i <= 190 else i - 199 for i in range(n)])
    assert got == _round_robin_bounds(m, ("c199", 0))


def test_reduction_params():
    p = ReductionParams.for_bound(2)
    assert (p.j, p.B, p.K) == (2, 3, 7)
    assert ReductionParams.for_bound(0).K == 3
    assert ReductionParams.for_bound(1) == ReductionParams(1, 1, 1, 3)
    assert ReductionParams.for_bound(8) == ReductionParams(8, 4, 15, 31)
    with pytest.raises(ValueError):
        ReductionParams.for_bound(-1)


def _guess_registers(b: int):
    """(B, c, registers) for each counter c in [0, B] of the
    one-transition automaton of bound b, B its padded bound: registers[i]
    is the register after reduce_bca_to_arm's @guess:0:k chain under
    guess i, where bit k of i takes the edge out of @guess:0:k that
    adds a constant."""
    red = reduce_bca_to_arm(Bca(("p", "q"), b, (("p", b, "q"),)),
                            ("p", 0), ("q", b))
    polys = {}
    for s, d, p in red.machine.transitions:
        polys.setdefault((s, d), []).append(p)
    chain = ["p"] + [f"@guess:0:{k}" for k in range(red.params.j + 1)]
    (enter,) = polys[chain[0], chain[1]]
    stages = [sorted(polys[s, d], key=lambda p: p[0] != 0)
              for s, d in zip(chain[1:], chain[2:])]
    for c in range(red.params.B + 1):
        regs = [poly_eval(enter, c)]
        for keep, guess in stages:
            regs = [poly_eval(p, r) for p in (keep, guess) for r in regs]
        yield red.params.B, c, regs


def test_digit_guess_value_separation():
    # the emitted gadget keeps the counter c only under the guess c; any
    # other guess leaves [-B, 2B]
    assert list(_guess_registers(2))[2] == (3, 2, [16, 9, 2, -5])
    for b in range(51):
        for B, c, regs in _guess_registers(b):
            assert len(regs) == B + 1
            for i, r in enumerate(regs):
                if i == c:
                    assert r == c, (b, c)
                else:
                    assert not -B <= r <= 2 * B, (b, c, i, r)


def _random_bca(rng):
    n = rng.randint(1, 4)
    states = tuple(f"s{i}" for i in range(n))
    b = rng.randint(0, 4)
    trans = tuple((rng.choice(states), rng.randint(-b, b), rng.choice(states))
                  for _ in range(rng.randint(0, 5)))
    return Bca(states, b, trans)


def test_reduce_bca_to_arm_preserves_reachability():
    rng = random.Random(11)
    for _ in range(60):
        m = _random_bca(rng)
        src = (rng.choice(m.states), rng.randint(0, m.bound))
        dst = (rng.choice(m.states), rng.randint(0, m.bound))
        want = reach_bca(m, src, dst)
        red = reduce_bca_to_arm(m, src, dst)
        assert all(len(p) <= 2 for _, _, p in red.machine.transitions)
        got = reach_prm(red.machine, red.source, red.target,
                        sufficient_budget(red))
        assert got.definitive, (m, src, dst)
        assert got.is_yes == want.is_yes, (m, src, dst)


def test_reduce_bca_to_arm_rejects_state_name_collisions():
    # an input state named like a padding state would merge with it: the
    # machine below cannot reach ("@pad:0:a", 1), its reduction could
    m = Bca(("p", "q", "@pad:0:a"), 1, (("p", 1, "q"),))
    src, dst = ("p", 0), ("@pad:0:a", 1)
    assert reach_bca(m, src, dst).is_no
    with pytest.raises(ValueError):
        reduce_bca_to_arm(m, src, dst)
    with pytest.raises(ValueError):
        reduce_bca_to_arm(Bca(("q", "@guess:0:1"), 1, (("q", 1, "q"),)),
                          ("q", 0), ("q", 1))
    # states that differ only in type collide once stringified
    with pytest.raises(ValueError):
        reduce_bca_to_arm(Bca((1, "1"), 1, ()), (1, 0), ("1", 0))


def test_reduced_machine_guard_invariant():
    # once the register leaves [0, B] at an original (non-gadget) state,
    # it never comes back inside: wrong guesses are unrecoverable
    rng = random.Random(12)
    for _ in range(25):
        m = _random_bca(rng)
        src = (rng.choice(m.states), rng.randint(0, m.bound))
        red = reduce_bca_to_arm(m, src, (m.states[0], 0))
        B, K = red.params.B, red.params.K
        cap = 4 * (B + 1) * (K + 1)
        orig = {str(q) for q in m.states}
        out = {q: [] for q in red.machine.states}
        for s, d, p in red.machine.transitions:
            out[s].append((d, p))
        seen = {red.source}
        frontier = [red.source]
        for _ in range(30):
            nxt = []
            for q, v in frontier:
                for d, p in out[q]:
                    nc = (d, poly_eval(p, v))
                    if nc in seen or abs(nc[1]) > cap:
                        continue
                    seen.add(nc)
                    nxt.append(nc)
            frontier = nxt
        bad = [c for c in seen if c[0] in orig and not 0 <= c[1] <= B]
        # a configuration outside [0, B] at an original state is dead:
        # nothing reachable from it sits inside [0, B] at an original
        # state.  Register magnitudes only grow past the cap, so a
        # cap-bounded exploration covers every candidate return.
        for start in bad:
            reach = {start}
            fr = [start]
            while fr:
                nn = []
                for q, v in fr:
                    for d, p in out[q]:
                        nc = (d, poly_eval(p, v))
                        if nc in reach or abs(nc[1]) > cap:
                            continue
                        reach.add(nc)
                        nn.append(nc)
                fr = nn
            for q, v in reach:
                if q in orig and (q, v) != start:
                    assert not 0 <= v <= B, (start, (q, v))


def test_sufficient_budget_never_unknown_on_exhaustive_sweep():
    # all machines with one state pair, bound <= 2, up to 2 transitions
    states = ("a", "b")
    for b in (0, 1, 2):
        deltas = range(-b, b + 1)
        edges = [(s, p, d) for s in states for p in deltas for d in states]
        for k in (0, 1, 2):
            for trans in itertools.combinations(edges, k):
                m = Bca(states, b, trans)
                src, dst = ("a", 0), ("b", b)
                want = reach_bca(m, src, dst)
                red = reduce_bca_to_arm(m, src, dst)
                got = reach_prm(red.machine, red.source, red.target,
                                sufficient_budget(red))
                assert got.definitive
                assert got.is_yes == want.is_yes, (m,)
