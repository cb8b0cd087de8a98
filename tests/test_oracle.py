"""Brute-force search oracle: canonical witnesses, saturation, replay."""

import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest

from semireach import problems as P
from semireach.cli import random_instance
from semireach.core import AffineMap, Mat2, UTMat, Vec2
from semireach.oracle import _action, _solve2, oracle_solve, replay
from semireach.problems import Budget, ProblemInstance, no, unknown, yes

B = Budget(8, 10 ** 6)


def test_membership_witness_is_shortest_then_lex_least():
    # both generators equal, so every length-2 word works; lex-least wins
    inst = ProblemInstance(P.MATRIX_MEMBERSHIP,
                           (UTMat(1, 1, 1), UTMat(1, 1, 1)),
                           target=UTMat(1, 2, 1))
    v = oracle_solve(inst, B)
    assert v.is_yes and v.witness == (0, 0)
    assert replay(inst, v.witness)


def test_membership_identity_empty_witness():
    inst = ProblemInstance(P.MATRIX_MEMBERSHIP, (UTMat(1, 5, 1),),
                           target=UTMat.identity())
    v = oracle_solve(inst, B)
    assert v.is_yes and v.witness == ()


def test_no_by_saturation_on_finite_semigroup():
    # involution generates a two-element group; saturation is provable
    inst = ProblemInstance(P.MATRIX_MEMBERSHIP, (UTMat(-1, 0, -1),),
                           target=UTMat(1, 1, 1))
    assert oracle_solve(inst, B).is_no


def test_unknown_when_growth_outruns_budget():
    inst = ProblemInstance(P.MATRIX_MEMBERSHIP, (UTMat(1, 1, 1),),
                           target=UTMat(1, -1, 1))
    v = oracle_solve(inst, Budget(5, 100))
    assert not v.definitive


def test_vector_witness_order_convention():
    # witness [i1..ik] is the product G_i1 * ... * G_ik, G_ik applied first
    a, b = UTMat(1, 1, 1), UTMat(2, 0, 1)
    inst = ProblemInstance(P.VECTOR_REACHABILITY, (a, b),
                           x=Vec2(1, 1), y=Vec2(3, 1))
    v = oracle_solve(inst, B)
    assert v.is_yes
    assert replay(inst, v.witness)
    # both (0,0) and (0,1) reach y; the lex-least witness is canonical
    assert a.apply(b.apply(Vec2(1, 1))) == Vec2(3, 1)
    assert a.apply(a.apply(Vec2(1, 1))) == Vec2(3, 1)
    assert v.witness == (0, 0)


def test_scalar_and_zero_reachability():
    g = UTMat(1, 1, 1)
    inst = ProblemInstance(P.SCALAR_REACHABILITY, (g,),
                           x=Vec2(0, 1), y=Vec2(1, 0), lam=4)
    v = oracle_solve(inst, B)
    assert v.is_yes and len(v.witness) == 4
    zinst = ProblemInstance(P.ZERO_REACHABILITY, (g,),
                            x=Vec2(-3, 1), y=Vec2(1, 0))
    assert oracle_solve(zinst, B).is_yes


def test_affine_problems():
    inst = ProblemInstance(P.AFFINE_MEMBERSHIP_Z, (AffineMap(2, 1),),
                           target=AffineMap(4, 3))
    v = oracle_solve(inst, B)
    assert v.is_yes and v.witness == (0, 0)
    assert replay(inst, v.witness)
    r = ProblemInstance(P.AFFINE_REACHABILITY_Z, (AffineMap(1, 3),), x=1, y=10)
    assert oracle_solve(r, B).is_yes
    q = ProblemInstance(P.AFFINE_REACHABILITY_Q,
                        (AffineMap.make(1, 0, 2, "Q"),),
                        x=Fraction(1), y=Fraction(1, 4))
    v = oracle_solve(q, B)
    assert v.is_yes and len(v.witness) == 2


def test_mortality_search():
    inst = ProblemInstance(P.MORTALITY, (Mat2(0, 1, 0, 1), Mat2(1, 0, 0, 0)))
    v = oracle_solve(inst, B)
    assert v.is_yes and replay(inst, v.witness)
    alive = ProblemInstance(P.MORTALITY, (Mat2(-1, 0, 0, -1),))
    assert oracle_solve(alive, B).is_no


def test_replay_rejects_out_of_range_and_wrong_words():
    inst = ProblemInstance(P.MATRIX_MEMBERSHIP, (UTMat(1, 3, 1),),
                           target=UTMat(1, 6, 1))
    assert replay(inst, (0, 0))
    assert not replay(inst, (0,))
    assert not replay(inst, (1,))


def test_magnitude_cap_blocks_but_never_fakes_no():
    # one generator doubles forever; a tiny cap must give Unknown, not No
    inst = ProblemInstance(P.MATRIX_MEMBERSHIP, (UTMat(2, 0, 1),),
                           target=UTMat(1024, 0, 1))
    assert not oracle_solve(inst, Budget(20, 100)).definitive
    assert oracle_solve(inst, Budget(20, 2000)).is_yes


def test_cap_boundary_uses_rational_height():
    # x -> x/2 from 1 reaches 1/4, whose magnitude is max(|num|, den) = 4
    inst = ProblemInstance(P.AFFINE_REACHABILITY_Q,
                           (AffineMap.make(1, 0, 2, "Q"),),
                           x=Fraction(1), y=Fraction(1, 4))
    assert oracle_solve(inst, Budget(8, 3)).kind == "unknown"
    v = oracle_solve(inst, Budget(8, 4))
    assert v.is_yes and v.witness == (0, 0)


def test_last_level_boundaries():
    # candidates at depth max_len are tested, never stored: saturation
    # there is still No, a hit there keeps its canonical witness, and a
    # hit over the cap there is Unknown
    inv = ProblemInstance(P.MATRIX_MEMBERSHIP, (UTMat(-1, 0, -1),),
                          target=UTMat(1, 1, 1))
    assert oracle_solve(inv, Budget(1)).kind == "unknown"
    assert oracle_solve(inv, Budget(2)) == no("saturation")
    dbl = ProblemInstance(P.MATRIX_MEMBERSHIP,
                          (UTMat(2, 0, 1), UTMat(2, 0, 1)),
                          target=UTMat(4, 0, 1))
    v = oracle_solve(dbl, Budget(2, 4))
    assert v.is_yes and v.witness == (0, 0)
    assert oracle_solve(dbl, Budget(2, 3)).kind == "unknown"


# ---------------------------------------------------------------------------
# Reference: the object-state, witness-per-node search the oracle replaced


def _reference_magnitude(state) -> int:
    if isinstance(state, Mat2):
        return max(abs(state.m11), abs(state.m12), abs(state.m21),
                   abs(state.m22))
    if isinstance(state, UTMat):
        return max(abs(state.a), abs(state.b), abs(state.c))
    if isinstance(state, Vec2):
        return max(abs(state.v1), abs(state.v2))
    if isinstance(state, Fraction):
        return max(abs(state.numerator), state.denominator)
    if isinstance(state, AffineMap):
        return max(abs(state.a), abs(state.b), abs(state.c))
    return abs(state)


def _reference_live(factors, want, diag):
    """The liveness rule over objects, or None when it constrains
    nothing.  diag(s) is the tuple of a state's entries that products
    multiply one by one, factors the generators' tuples and want the
    target's.  A state is live when, wherever want is nonzero, the
    state's entry divides it, and the quotients together are the
    entries of a product of factors."""
    keep = [i for i, t in enumerate(want) if t]
    if not keep:
        return None

    def divides(d) -> bool:
        return all(d[k] and Fraction(want[i], d[k]).denominator == 1
                   for k, i in enumerate(keep))

    def quotient(s):
        d = tuple(diag(s)[i] for i in keep)
        return tuple(want[i] // x for x, i in zip(d, keep)) \
            if divides(d) else None

    # a factor of a product that divides the target divides it too, so
    # products through non-divisors never come back
    products = {(1,) * len(keep)}
    while True:
        more = {tuple(x * f[i] for x, i in zip(d, keep))
                for d in products for f in factors} - products
        more = set(filter(divides, more))
        if not more:
            return lambda s: quotient(s) in products
        products |= more


def _reference_search(start, gens, step, hit, budget, mode, live=None):
    if hit(start):
        return yes(())
    if live and not live(start):
        return no("saturation")
    visited = {start}
    frontier = [((), start)]
    pruned = False
    for _ in range(budget.max_len):
        nxt = []
        seen_here = set()
        if mode == "append":
            pairs = ((w, s, j) for (w, s) in frontier
                     for j in range(len(gens)))
        else:
            pairs = ((w, s, j) for j in range(len(gens))
                     for (w, s) in frontier)
        for w, s, j in pairs:
            t = step(s, j)
            if t in visited or t in seen_here or live and not live(t):
                continue
            if budget.max_entry is not None and \
                    _reference_magnitude(t) > budget.max_entry:
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


def _diagonal(m):
    return (m.a, m.c) if isinstance(m, UTMat) else (m.m11, m.m22)


def _triangular(mats) -> bool:
    return all(isinstance(m, UTMat) or not m.m21 for m in mats)


def _reference_action(inst):
    p = inst.problem
    gens = list(inst.generators)
    if p in (P.MATRIX_MEMBERSHIP, P.MORTALITY):
        extra = [inst.target] if inst.target is not None else []
        if all(isinstance(m, UTMat) for m in gens + extra):
            ident, target = UTMat.identity(), inst.target
        else:
            gens = [m.to_mat2() if isinstance(m, UTMat) else m for m in gens]
            ident = Mat2.identity()
            target = inst.target.to_mat2() \
                if isinstance(inst.target, UTMat) else inst.target
        hit = (lambda s: s.is_zero()) if p == P.MORTALITY \
            else (lambda s: s == target)
        live = _reference_live(list(map(_diagonal, gens)),
                               _diagonal(target), _diagonal) \
            if p == P.MATRIX_MEMBERSHIP and _triangular(gens + [target]) \
            else None
        return ident, gens, lambda s, j: s * gens[j], hit, "append", live
    if p == P.AFFINE_MEMBERSHIP_Z:
        return (AffineMap.make(1, 0, 1, "Z"), gens,
                lambda s, j: s.compose(gens[j]),
                lambda s: s == inst.target, "append",
                _reference_live([(f.a,) for f in gens], (inst.target.a,),
                                lambda f: (f.a,)))
    start, y = inst.x, inst.y
    live = None
    if p in (P.SCALAR_REACHABILITY, P.ZERO_REACHABILITY):
        lam = 0 if p == P.ZERO_REACHABILITY else inst.lam

        def hit(v):
            return y.v1 * v.v1 + y.v2 * v.v2 == lam
    else:
        if p == P.AFFINE_REACHABILITY_Q:
            start, y = Fraction(start), Fraction(y)
        elif p == P.VECTOR_REACHABILITY and _triangular(gens):
            live = _reference_live([_diagonal(g)[1:] for g in gens],
                                   (y.v2,), lambda v: (v.v2,))
        # integer affine reachability runs over (x, 1): every state is live

        def hit(s):
            return s == y
    return start, gens, lambda s, j: gens[j].apply(s), hit, "prepend", live


def _reference_instance(rng, i):
    """Instance i of a seeded stream that rotates through the xcheck
    families and the three affine tags.  Some get a repeated generator;
    some matrix ones get general (Mat2) copies of upper-triangular
    generators, so the search must use one common kind, and half the
    mortality ones are upper triangular."""
    kinds = ("detpm1", "utvec", "utmember", "mortality", "random",
             P.AFFINE_MEMBERSHIP_Z, P.AFFINE_REACHABILITY_Z,
             P.AFFINE_REACHABILITY_Q)
    kind = kinds[i % len(kinds)]
    if not kind.startswith("affine"):
        inst = random_instance(rng, kind)
        gens = list(inst.generators)
        if kind == "mortality" and rng.random() < 0.5:
            gens = [UTMat(rng.randint(-2, 2), rng.randint(-2, 2),
                          rng.randint(-2, 2)) for _ in range(len(gens))]
        elif gens and kind != "mortality" and rng.random() < 0.3:
            gens = [g.to_mat2() if rng.random() < 0.5 else g for g in gens]
    else:
        n = rng.randint(1, 3)
        dom = "Q" if kind == P.AFFINE_REACHABILITY_Q else "Z"
        gens = [AffineMap.make(rng.randint(-3, 3), rng.randint(-3, 3),
                               rng.choice((1, 2, 3)) if dom == "Q" else 1,
                               dom) for _ in range(n)]
        if kind == P.AFFINE_MEMBERSHIP_Z:
            t = AffineMap(1, 0)
            for _ in range(rng.randint(0, 5)):
                t = t.compose(rng.choice(gens))
            inst = ProblemInstance(kind, gens, target=t)
        elif kind == P.AFFINE_REACHABILITY_Z:
            inst = ProblemInstance(kind, gens, x=rng.randint(-5, 5),
                                   y=rng.randint(-9, 9))
        else:
            inst = ProblemInstance(kind, gens,
                                   x=Fraction(rng.randint(-5, 5)),
                                   y=Fraction(rng.randint(-9, 9),
                                              rng.randint(1, 3)))
    if gens and rng.random() < 0.25:
        gens.insert(rng.randrange(len(gens) + 1), rng.choice(gens))
    return dataclasses.replace(inst, generators=gens)


def test_search_matches_object_reference():
    # kind, certificate and witness agree with the object-state search on
    # every tag, both witness orders, and caps that prune
    rng = random.Random(5)
    budgets = (Budget(6, 10 ** 6), Budget(6, 12), Budget(5, None))
    seen = Counter()
    for i in range(1000):
        inst = _reference_instance(rng, i)
        budget = budgets[i % len(budgets)]
        start, gens, step, hit, mode, live = _reference_action(inst)
        want = _reference_search(start, gens, step, hit, budget, mode, live)
        got = oracle_solve(inst, budget)
        assert (got.kind, got.certificate, got.witness) == \
            (want.kind, want.certificate, want.witness), (inst, budget)
        if got.is_yes:
            assert replay(inst, got.witness)
        seen[inst.problem, got.kind] += 1
    assert {p for p, _ in seen} == P.PROBLEM_TAGS
    for kind in ("yes", "no", "unknown"):
        assert sum(n for (_, k), n in seen.items() if k == kind) > 50


def test_search_matches_reference_at_every_depth():
    # the last level is handled apart from the others, so compare at
    # every max_len: at 1 the first level is the last
    rng = random.Random(6)
    instances = [_reference_instance(rng, i) for i in range(600)]
    for inst in instances:
        start, gens, step, hit, mode, live = _reference_action(inst)
        for cap in (None, 12, 10 ** 6):
            for max_len in range(1, 7):
                budget = Budget(max_len, cap)
                want = _reference_search(start, gens, step, hit, budget,
                                         mode, live)
                got = oracle_solve(inst, budget)
                assert (got.kind, got.certificate, got.witness) == \
                    (want.kind, want.certificate, want.witness), \
                    (inst, budget)


def test_last_level_preimages():
    # one case of each hit-set shape the last level looks up, each at
    # depth max_len; want is the exact witness, or None for Unknown
    def member(gens, target):
        return ProblemInstance(P.MATRIX_MEMBERSHIP, gens, target=target)

    def vector(gens, x, y):
        return ProblemInstance(P.VECTOR_REACHABILITY, gens, x=Vec2(*x),
                               y=Vec2(*y))

    def rational(gens, x, y):
        return ProblemInstance(P.AFFINE_REACHABILITY_Q,
                               [AffineMap.make(*g, "Q") for g in gens],
                               x=Fraction(x), y=Fraction(y))
    u, m = UTMat, Mat2
    cases = [
        # invertible generators: the one state found by exact division,
        # for every state kind
        (member((u(1, 1, 1), u(2, 0, 1)), u(2, 3, 1)), 3, None, (0, 1, 0)),
        (member((m(1, 1, 0, 1), m(1, 0, 1, 1)), m(2, 3, 1, 2)), 3, None,
         (0, 1, 0)),
        (vector((u(1, 1, 1), u(2, 0, -1)), (1, 1), (6, -1)), 3, None,
         (1, 0, 0)),
        (vector((m(1, 1, 0, 1), m(1, 0, 1, 1)), (1, 0), (3, 2)), 3, None,
         (0, 1, 1)),
        (rational(((1, 1, 2), (3, 0, 1)), 0, Fraction(9, 4)), 3, None,
         (1, 0, 0)),
        (ProblemInstance(P.AFFINE_MEMBERSHIP_Z,
                         (AffineMap(2, 1), AffineMap(1, 3)),
                         target=AffineMap(4, 9)), 3, None, (0, 1, 0)),
        # preimages that are not integral: 3/2 alone (on a zero
        # diagonal, so every state stays live), then beside a hit by the
        # other generator
        (member((u(1, 0, 2),), u(0, 3, 0)), 2, None, None),
        (vector((m(2, 0, 0, 1), m(1, 1, 0, 1)), (1, 1), (3, 1)), 2, None,
         (1, 0)),
        # singular generators hitting: the rank-1 test for general
        # mortality (u the first column, then the second when the first
        # is 0) and upper-triangular mortality (u = (x, 0), and x = z =
        # 0), then the step-and-hit scan for membership with x*z = 0, a
        # singular general vector generator and a constant rational map
        (ProblemInstance(P.MORTALITY, (m(0, -1, 1, 1), m(0, 0, -2, -2))),
         3, None, (1, 0, 1)),
        (ProblemInstance(P.MORTALITY, (m(0, 1, -1, 1), m(0, -1, 0, -1))),
         3, None, (1, 0, 1)),
        (ProblemInstance(P.MORTALITY, (u(1, 1, 1), u(0, 1, 1), u(1, 1, 0))),
         2, None, (1, 2)),
        (ProblemInstance(P.MORTALITY, (u(1, 1, 1), u(0, 2, 0))), 2, None,
         (1, 1)),
        (member((u(1, 1, 1), u(0, 1, 1)), u(0, 3, 1)), 3, None, (0, 0, 1)),
        (vector((u(1, 1, 1), m(1, 1, 1, 1)), (1, 0), (3, 3)), 3, None,
         (1, 0, 1)),
        (rational(((1, 1, 1), (0, 1, 2)), 0, Fraction(1, 2)), 1, None,
         (1,)),
        # scalar and zero lines, (y^T g) v = lam
        (ProblemInstance(P.SCALAR_REACHABILITY, (u(1, 1, 1), u(1, 0, 2)),
                         x=Vec2(0, 1), y=Vec2(1, 0), lam=3), 3, None,
         (0, 0, 0)),
        (ProblemInstance(P.ZERO_REACHABILITY,
                         (m(1, 1, 0, 1), m(1, 0, -1, 1)),
                         x=Vec2(-3, 1), y=Vec2(1, 0)), 3, None, (0, 0, 0)),
        # hits over the cap: the looked-up state is shallower than the
        # frontier, then on it
        (member((u(1, 1, 1), u(1, 100, 1)), u(1, 100, 1)), 3, 50, None),
        (member((u(2, 0, 1),), u(8, 0, 1)), 3, 7, None),
    ]
    # two last-level hits, (frontier position 1, generator 0) and
    # (position 0, generator 1): append order takes the second, prepend
    # order the first, and both read as the word (0, 1)
    for inst in (member((u(1, 1, 1), u(1, 2, 1)), u(1, 3, 1)),
                 vector((u(1, 1, 1), u(1, 2, 1)), (0, 1), (3, 1))):
        assert replay(inst, (1, 0))
        cases.append((inst, 2, None, (0, 1)))
    for inst, max_len, cap, want in cases:
        budget = Budget(max_len, cap)
        start, gens, step, hit, mode, live = _reference_action(inst)
        ref = _reference_search(start, gens, step, hit, budget, mode, live)
        got = oracle_solve(inst, budget)
        assert (got.kind, got.certificate, got.witness) == \
            (ref.kind, ref.certificate, ref.witness), (inst, budget)
        if want is None:
            assert got.kind == "unknown", inst
        else:
            assert got.witness == want and len(want) == max_len, inst
            assert replay(inst, want)


def _triangular_instance(rng, i):
    """Instance i of a seeded stream over the shapes the liveness test
    covers: membership of upper-triangular and of general matrices with
    a zero lower-left entry, vector reachability under either, and
    integer affine membership and reachability.  Targets are products of the
    generators, then some entries are redrawn, often to 0."""
    kind = ("member", "general", "vector", P.AFFINE_MEMBERSHIP_Z,
            P.AFFINE_REACHABILITY_Z)[i % 5]
    n = rng.randint(1, 3)

    def entry():
        return rng.randint(-3, 3)
    if kind == P.AFFINE_MEMBERSHIP_Z:
        gens = [AffineMap(entry(), entry()) for _ in range(n)]
        t = AffineMap(1, 0)
        for _ in range(rng.randint(0, 5)):
            t = t.compose(rng.choice(gens))
        if rng.random() < 0.5:
            t = AffineMap(rng.choice((0, entry(), t.a)), t.b + entry())
        return ProblemInstance(kind, gens, target=t)
    if kind == P.AFFINE_REACHABILITY_Z:
        gens = [AffineMap(entry(), entry()) for _ in range(n)]
        return ProblemInstance(kind, gens, x=entry(), y=rng.randint(-9, 9))
    gens = [UTMat(entry(), entry(), entry()) for _ in range(n)]
    t = UTMat.identity()
    for _ in range(rng.randint(0, 5)):
        t = t * rng.choice(gens)
    if rng.random() < 0.6:
        t = UTMat(rng.choice((0, entry(), t.a)), t.b + entry(),
                  rng.choice((0, entry(), t.c)))
    if kind == "vector":
        x = Vec2(entry(), entry())
        y = t.apply(x)
        if rng.random() < 0.3:
            gens = [g.to_mat2() for g in gens]
        return ProblemInstance(P.VECTOR_REACHABILITY, gens, x=x,
                               y=Vec2(y.v1 + entry(),
                                      rng.choice((0, entry(), y.v2))))
    if kind == "general":
        gens, t = [g.to_mat2() for g in gens], t.to_mat2()
    return ProblemInstance(P.MATRIX_MEMBERSHIP, gens, target=t)


def _hit_within(inst, depth: int) -> bool:
    """Whether some word of length at most depth hits: every state of
    the action, level by level, with no cap and no liveness test."""
    start, gens, step, hit = _action(inst)[:4]
    seen = level = {start}
    for _ in range(depth):
        if any(map(hit, level)):
            return True
        level = {step(s, j) for s in level for j in range(len(gens))} - seen
        seen = seen | level
    return any(map(hit, level))


def test_dead_states_only_turn_unknowns_into_sound_nos():
    # the oracle drops states whose diagonal no product of generators
    # carries to the target's.  Against the search without that test:
    # its Yes witnesses and its Nos stay, and every No the oracle gives
    # is confirmed by an uncapped search to depth 10.  The verdict is
    # the one the reference's own liveness rule gives
    rng = random.Random(29)
    budgets = (Budget(4, None), Budget(6, 20))
    seen = Counter()
    for i in range(400):
        inst = _triangular_instance(rng, i)
        budget = budgets[i % len(budgets)]
        start, gens, step, hit, mode, live = _reference_action(inst)
        want = _reference_search(start, gens, step, hit, budget, mode)
        got = oracle_solve(inst, budget)
        ref = _reference_search(start, gens, step, hit, budget, mode, live)
        assert (got.kind, got.certificate, got.witness) == \
            (ref.kind, ref.certificate, ref.witness), (inst, budget)
        if want.definitive:
            assert (got.kind, got.certificate, got.witness) == \
                (want.kind, want.certificate, want.witness), (inst, budget)
        if got.is_no:
            assert not _hit_within(inst, 10), (inst, budget)
        seen[inst.problem, want.kind, got.kind] += 1
    # every shape gives new Nos, and the unpruned search's answers of
    # every kind are met
    for p in (P.MATRIX_MEMBERSHIP, P.VECTOR_REACHABILITY,
              P.AFFINE_MEMBERSHIP_Z):
        assert seen[p, "unknown", "no"] > 5, seen
    assert {(w, g) for _, w, g in seen} == \
        {("yes", "yes"), ("no", "no"), ("unknown", "unknown"),
         ("unknown", "no")}


def _fraction_solve(m, t):
    """v with m*v == t by Gaussian elimination over the rationals."""
    r0 = [Fraction(m[0]), Fraction(m[1]), Fraction(t[0])]
    r1 = [Fraction(m[2]), Fraction(m[3]), Fraction(t[1])]
    if not r0[0]:
        r0, r1 = r1, r0
    f = r1[0] / r0[0]
    r1 = [y - f * x for x, y in zip(r0, r1)]
    v2 = r1[2] / r1[1]
    return (r0[2] - r0[1] * v2) / r0[0], v2


def test_solve2_matches_fraction_solve():
    rng = random.Random(71)
    seen = Counter()
    while len(seen) < 6 or min(seen.values()) < 50:
        m = tuple(rng.randint(-5, 5) for _ in range(4))
        det = m[0] * m[3] - m[1] * m[2]
        if not det:
            continue
        if rng.random() < 0.5:  # a right-hand side with an integral v
            v = (rng.randint(-9, 9), rng.randint(-9, 9))
            t = (m[0] * v[0] + m[1] * v[1], m[2] * v[0] + m[3] * v[1])
        else:
            t = (rng.randint(-40, 40), rng.randint(-40, 40))
        want = _fraction_solve(m, t)
        integral = all(w.denominator == 1 for w in want)
        assert _solve2(m, t) == \
            ((tuple(map(int, want)),) if integral else ()), (m, t)
        seen[(max(-2, min(det, 2)), integral)] += 1
    # det 1 and -1 always divide
    assert set(seen) == {(d, True) for d in (-2, -1, 1, 2)} | \
        {(-2, False), (2, False)}


def test_upper_triangular_states_match_general_states():
    # an upper-triangular membership or mortality set read as general
    # matrices searches the same products with a zero lower-left entry,
    # and the last level solves s*g == target on both state kinds
    rng = random.Random(73)
    diag = (-2, -1, 0, 1, 2, 3)
    seen = Counter()
    for i in range(240):
        gens = [UTMat(rng.choice(diag), rng.randint(-3, 3), rng.choice(diag))
                for _ in range(rng.randint(1, 3))]
        general = [g.to_mat2() for g in gens]
        if i % 3 == 0:
            pair = (ProblemInstance(P.MORTALITY, gens),
                    ProblemInstance(P.MORTALITY, general))
        else:
            t = UTMat.identity()
            for _ in range(rng.randint(1, 6)):
                t = t * rng.choice(gens)
            if i % 3 == 2:
                t = UTMat(t.a, t.b + rng.choice((-1, 1)), t.c)
            pair = (ProblemInstance(P.MATRIX_MEMBERSHIP, gens, target=t),
                    ProblemInstance(P.MATRIX_MEMBERSHIP, general,
                                    target=t.to_mat2()))
        for cap in (None, 12):
            for max_len in range(1, 7):
                budget = Budget(max_len, cap)
                ut, sq = (oracle_solve(inst, budget) for inst in pair)
                assert (ut.kind, ut.certificate, ut.witness) == \
                    (sq.kind, sq.certificate, sq.witness), (pair[0], budget)
                seen[ut.kind] += 1
    assert set(seen) == {"yes", "no", "unknown"}


def test_rational_states_match_fraction_reference():
    # maps built without AffineMap.make keep a negative or unreduced
    # denominator; the reduced (num, den) states must still search as the
    # Fraction ones do, from a start of 0 and through steps that land on 0
    growing = (AffineMap(1, 0, -2, "Q"),     # x -> -x/2, fixes 0
               AffineMap(2, -2, 4, "Q"),     # x -> (x - 1)/2, 1 -> 0
               AffineMap(-3, 3, -1, "Q"))    # x -> 3x - 3, 1 -> 0
    finite = (AffineMap(0, 2, -4, "Q"),      # x -> -1/2
              AffineMap(-1, 0, 1, "Q"),      # x -> -x
              AffineMap(0, 0, -3, "Q"))      # x -> 0
    budgets = [Budget(n, cap) for n in (1, 2, 4, 6) for cap in (1, 2, 3, None)]
    seen = Counter()
    for gens in (growing, finite):
        for x in (0, 1, Fraction(-1, 2)):
            for y in (0, 1, -1, Fraction(1, 2), Fraction(-1, 4), 2):
                inst = ProblemInstance(P.AFFINE_REACHABILITY_Q, gens,
                                       x=Fraction(x), y=Fraction(y))
                start, maps, step, hit, mode, live = _reference_action(inst)
                for budget in budgets:
                    want = _reference_search(start, maps, step, hit, budget,
                                             mode, live)
                    got = oracle_solve(inst, budget)
                    assert (got.kind, got.certificate, got.witness) == \
                        (want.kind, want.certificate, want.witness), \
                        (inst, budget)
                    if got.is_yes:
                        assert replay(inst, got.witness)
                    seen[got.kind] += 1
    assert set(seen) == {"yes", "no", "unknown"}
