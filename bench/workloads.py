"""Seeded instance corpora for the three benchmark workloads.

Each workload builds its corpus from the seed alone, so the program sees
only generated instances.  Each corpus is sized so that one pass takes
about 30 s of CPU time on the baseline machine: a run times every
instance once, and the more distinct inputs it sees, the less its
figures depend on the seed.  Reference answers are computed separately,
outside both set-up and the timed region.  Every builder imports
semireach when it runs, so it uses whatever copy of the package the
caller has just imported.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Optional

# `semireach solve` defaults: --max-len 12, --max-magnitude 10**6,
# --max-steps 4096.
SOLVE_MAX_LEN = 12
SOLVE_MAX_ENTRY = 10 ** 6
SOLVE_MAX_STEPS = 4096

# msum-exact sweep: weight scale x weight shape x target kind.  The
# scale is drawn log-uniformly from [10**2, 10**4], stratified, so instance
# times spread evenly instead of bunching into one cluster per scale;
# scaling curves group inputs by the nearest power of ten.
MSUM_LOG_SCALE = (2.0, 4.0)
MSUM_SHAPES = ("balanced", "skewed")
MSUM_INPUTS_PER_GROUP = 120  # per (shape, planted/random target)
MSUM_MAX_COUNT = 4  # planted targets use 0..4 copies of each weight

# xcheck-oracle: the `semireach xcheck` loop over every family.
XCHECK_FAMILIES = ("detpm1", "detminus1", "utvec", "utmember", "mortality",
                   "random")
XCHECK_COUNT = 36000
# At max_len 9 instance costs are so heavy-tailed that a 30-s run's
# throughput and p95 spread by 0.16 and 0.28 across seeds; see README.md.
XCHECK_MAX_LEN = 6
# The deep slice runs once, after the timed loop and outside the time
# metrics, so that the oracle's per-node witness tuples set peak RSS.  A
# few rare instances set that peak; with 1800 of them it holds within a
# few MB across seeds, with 600 it moved by 16 MB.
XCHECK_DEEP_COUNT = 1800
XCHECK_DEEP_MAX_LEN = 8

# ut-prm sweep: number of big-diagonal factors, instance kind, counter
# bound of the BCA-to-ARM slice.
UT_BIG_FACTORS = (1, 2, 3, 4, 5)
UT_KINDS = ("utvec", "nonzero-diag", "one-zero-diag")
UT_PER_POINT = 240  # per (m, kind); half planted, half perturbed
# |diagonal| of the big generators, one pair per instance in rotation
UT_BIG_PAIRS = ((2, 3), (2, 4), (3, 4))
# `semireach solve --max-steps 1024`: perturbed targets mostly end when a
# plan's search runs out of steps, so this caps their cost.  At 4096 the
# m = 5 ones took 50-200 ms each, a run saw only ~770 distinct instances,
# and the median's spread across seeds was 0.23.
UT_MAX_STEPS = 1024
ARM_BOUNDS = (8, 16, 32, 64)
ARM_PER_BOUND = 200


@dataclass
class Case:
    """One corpus entry.

    `text` is the instance file `semireach solve` would read; `inst` is
    the in-memory instance the xcheck loop passes around.  `ref` is what
    the workload's reference answer is computed from, and `planted`
    marks instances built from a known word, which must never get a No.
    """

    point: str
    label: str
    text: str = ""
    inst: object = None
    budget: object = None
    prm: object = None
    ref: object = None
    planted: bool = False


def _solve_budgets(max_steps=SOLVE_MAX_STEPS):
    from semireach.machines import PrmBudget
    from semireach.problems import Budget
    return Budget(SOLVE_MAX_LEN, SOLVE_MAX_ENTRY), \
        PrmBudget(max_steps, SOLVE_MAX_ENTRY)


def _as_text(inst) -> str:
    from semireach import cli
    return json.dumps(cli.serialize_instance(inst))


def build_msum(seed: int) -> list[Case]:
    """Three-weight multi-subset-sum inputs, each posed through all seven
    encodings: the five gen_hard variants, affine reachability from 0 to
    t under {x -> x + a_i}, and affine membership of x -> x + t."""
    from semireach import bridge
    from semireach import problems as P
    from semireach.core import AffineMap
    rng = random.Random(seed)
    budget, prm = _solve_budgets()
    lo, hi = MSUM_LOG_SCALE
    n = MSUM_INPUTS_PER_GROUP
    cases = []
    for shape in MSUM_SHAPES:
        for planted in (True, False):
            for k in range(n):
                log_scale = lo + (hi - lo) * (k + rng.random()) / n
                scale = round(10 ** log_scale)
                a = [rng.randint(scale // 2, scale) for _ in range(3)]
                if shape == "skewed":
                    a[0] = rng.randint(3, 20)
                if planted:
                    t = sum(rng.randint(0, MSUM_MAX_COUNT) * w for w in a)
                else:
                    t = rng.randint(0, MSUM_MAX_COUNT * sum(a))
                maps = tuple(AffineMap(1, w) for w in a)
                encodings = [(v, bridge.gen_hard(a, t, v))
                             for v in bridge.GEN_HARD_VARIANTS]
                encodings.append(("affine-reachability-Z", P.ProblemInstance(
                    P.AFFINE_REACHABILITY_Z, maps, x=0, y=t)))
                encodings.append(("affine-membership-Z", P.ProblemInstance(
                    P.AFFINE_MEMBERSHIP_Z, maps, target=AffineMap(1, t))))
                for label, inst in encodings:
                    cases.append(Case(f"s=1e{round(log_scale)}/{shape}",
                                      label,
                                      text=_as_text(inst), budget=budget,
                                      prm=prm, ref=(tuple(a), t),
                                      planted=planted))
    rng.shuffle(cases)
    return cases


def _xcheck_cases(rng, count: int, max_len: int) -> list[Case]:
    from semireach import cli
    from semireach.machines import PrmBudget
    from semireach.problems import Budget
    budget = Budget(max_len, SOLVE_MAX_ENTRY)
    prm = PrmBudget(SOLVE_MAX_STEPS, SOLVE_MAX_ENTRY)
    cases = []
    for i in range(count):
        fam = XCHECK_FAMILIES[i % len(XCHECK_FAMILIES)]
        cases.append(Case(fam, fam, inst=cli.random_instance(rng, fam),
                          budget=budget, prm=prm))
    return cases


def build_xcheck(seed: int) -> list[Case]:
    """cli.random_instance, rotating through the xcheck families."""
    return _xcheck_cases(random.Random(seed), XCHECK_COUNT, XCHECK_MAX_LEN)


def build_xcheck_deep(seed: int) -> list[Case]:
    """The same loop's instances at XCHECK_DEEP_MAX_LEN, from a stream
    of their own."""
    return _xcheck_cases(random.Random(f"deep-{seed}"), XCHECK_DEEP_COUNT,
                         XCHECK_DEEP_MAX_LEN)


def _sign(rng) -> int:
    return rng.choice((1, -1))


def _ut_instance(rng, m: int, kind: str, mags, planted: bool):
    """Upper-triangular instance whose planted word holds exactly m
    big-diagonal factors, with 0-2 unit-diagonal factors around each.

    Unit generators have diagonal (s, s); their top-right entries stay
    within +-2.  The nonzero-diagonal kind gets a single big generator:
    with two of magnitudes {2, 4} the factor-sequence and segment
    component enumeration in utsolvers took more than 10 s on some
    m = 5 instances, which would make the run a timeout count.
    """
    from semireach import problems as P
    from semireach.core import UTMat, Vec2
    unit = []
    for _ in range(2):
        s = _sign(rng)
        unit.append(UTMat(s, rng.choice((-2, -1, 1, 2)), s))
    if kind == "utvec":
        big = [UTMat(_sign(rng) * rng.choice((1, 2, 3)), rng.randint(-3, 3),
                     _sign(rng) * c) for c in mags]
    elif kind == "nonzero-diag":
        big = [UTMat(_sign(rng) * mags[0], rng.randint(-3, 3),
                     _sign(rng) * mags[0])]
    else:
        # the first big generator has a zero top-left entry, and the
        # planted word uses it, so the target's top-left is zero too
        big = [UTMat(0, rng.randint(1, 3), _sign(rng) * mags[0]),
               UTMat(_sign(rng) * mags[1], rng.randint(-3, 3),
                     _sign(rng) * mags[1])]
    gens = tuple(unit + big)
    # the big factors alternate, so m and the magnitude pair fix how many
    # factor sequences the solver has to consider
    word = []
    for k in range(m):
        word += [rng.randrange(len(unit)) for _ in range(rng.randint(0, 2))]
        word.append(len(unit) + k % len(big))
    word += [rng.randrange(len(unit)) for _ in range(rng.randint(0, 2))]
    prod = UTMat.identity()
    for i in word:
        prod = prod * gens[i]
    bump = 0 if planted else 1
    if kind == "utvec":
        x = Vec2(rng.randint(-3, 3), _sign(rng))
        y = prod.apply(x)
        return P.ProblemInstance(P.VECTOR_REACHABILITY, gens, x=x,
                                 y=Vec2(y.v1 + bump, y.v2))
    return P.ProblemInstance(P.MATRIX_MEMBERSHIP, gens,
                             target=UTMat(prod.a, prod.b + bump, prod.c))


def _random_bca(rng, bound: int):
    from semireach.machines import Bca
    states = tuple(f"q{i}" for i in range(rng.randint(2, 4)))
    trans = tuple((rng.choice(states), rng.randint(-bound, bound),
                   rng.choice(states)) for _ in range(rng.randint(2, 6)))
    src = (rng.choice(states), rng.randint(0, bound))
    dst = (rng.choice(states), rng.randint(0, bound))
    return Bca(states, bound, trans), src, dst


def build_ut(seed: int) -> list[Case]:
    """Upper-triangular instances swept over the number of big-diagonal
    factors, plus a slice of BCA-to-ARM reductions swept over the counter
    bound.  The ARM instances run with machines.sufficient_budget, the
    budget `semireach solve --max-steps/--max-magnitude` would need for
    an exact answer."""
    from semireach import cli
    from semireach.machines import reduce_bca_to_arm, sufficient_budget
    rng = random.Random(seed)
    budget, prm = _solve_budgets(UT_MAX_STEPS)
    cases = []
    for m in UT_BIG_FACTORS:
        for kind in UT_KINDS:
            for i in range(UT_PER_POINT):
                planted = i % 2 == 0
                mags = UT_BIG_PAIRS[i // 2 % len(UT_BIG_PAIRS)]
                inst = _ut_instance(rng, m, kind, mags, planted)
                cases.append(Case(f"m={m}", kind, text=_as_text(inst),
                                  budget=budget, prm=prm, planted=planted))
    for bound in ARM_BOUNDS:
        for _ in range(ARM_PER_BOUND):
            bca, src, dst = _random_bca(rng, bound)
            red = reduce_bca_to_arm(bca, src, dst)
            inst = cli.MachineInstance(cli.ARM_REACHABILITY, red.machine,
                                       red.source, red.target)
            cases.append(Case(f"arm b={bound}", "arm-reachability",
                              text=_as_text(inst), budget=budget,
                              prm=sufficient_budget(red),
                              ref=(bca, src, dst)))
    rng.shuffle(cases)
    return cases


def msum_reference(case: Case) -> Optional[bool]:
    from semireach.bridge import subset_sum_dp
    return subset_sum_dp(*case.ref)


def ut_reference(case: Case) -> Optional[bool]:
    """reach_bca on the ARM slice; the matrix instances have none."""
    if case.ref is None:
        return None
    from semireach.machines import reach_bca
    return reach_bca(*case.ref).is_yes


def no_reference(case: Case) -> Optional[bool]:
    """xcheck-oracle is checked against the oracle inside the loop."""
    return None


# name -> (corpus builder, reference answer of one case)
WORKLOADS = {"msum-exact": (build_msum, msum_reference),
             "xcheck-oracle": (build_xcheck, no_reference),
             "ut-prm": (build_ut, ut_reference)}

# name -> builder of the slice run once after the timed loop, for memory
MEMORY_SLICES = {"xcheck-oracle": build_xcheck_deep}
