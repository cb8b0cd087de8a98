"""Command-line surface: JSON (de)serialization of instances, solver
dispatch with structural auto-routing, witness verification, instance
generation, and the solver-vs-oracle cross-check harness.

All integers travel as decimal strings so consumers never face
precision limits.  Exit codes: 0 yes, 1 no, 2 unknown, 3 error.
"""

from __future__ import annotations

import json
import random
import re
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional, Union

import click

from . import problems as P
from .bridge import GEN_HARD_VARIANTS, encode_affine, gen_hard
from .core import AffineMap, Mat2, UTMat, Vec2
from .detpm1 import solve_detpm1
from .machines import (Bca, Prm, PrmBudget, poly_eval, reach_bca,
                       reach_prm, reduce_bca_to_arm)
from .mortality import solve_mortality
from .oracle import oracle_solve, replay
from .problems import Budget, ProblemInstance, Verdict
from .utsolvers import reduce_membership_to_scalar, solve_vecreach_ut22

BCA_REACHABILITY = "bca-reachability"
ARM_REACHABILITY = "arm-reachability"

_INT_RE = re.compile(r"0|-?[1-9][0-9]*")

EXIT_BY_KIND = {"yes": 0, "no": 1, "unknown": 2}


class SchemaError(ValueError):
    pass


@dataclass(frozen=True)
class MachineInstance:
    """A reachability question about a counter or register machine."""

    problem: str  # BCA_REACHABILITY | ARM_REACHABILITY
    machine: Union[Bca, Prm]
    source: tuple
    target: tuple

    def __post_init__(self):
        m = self.machine
        for q, v in (self.source, self.target):
            if q not in m.states or isinstance(m, Bca) \
                    and not 0 <= v <= m.bound:
                raise ValueError(f"configuration {(q, v)} not in the machine")


# ---------------------------------------------------------------------------
# JSON encoding


def _enc_int(n: int) -> str:
    return str(int(n))


def _dec_int(s) -> int:
    if not isinstance(s, str) or not _INT_RE.fullmatch(s):
        raise SchemaError(f"bad integer encoding {s!r}")
    return int(s)


def _enc_rat(q) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _dec_rat(s) -> Fraction:
    if not isinstance(s, str):
        raise SchemaError(f"bad rational encoding {s!r}")
    num, slash, den = s.partition("/")
    if slash:
        d = _dec_int(den)
        if d == 0:
            raise SchemaError(f"bad rational encoding {s!r}")
        return Fraction(_dec_int(num), d)
    return Fraction(_dec_int(num))


def _dec_list(doc, what: str, length) -> list:
    """doc, if it is a JSON list of the given length (None: any)."""
    if not isinstance(doc, list) or length not in (None, len(doc)):
        raise SchemaError(f"bad {what} encoding {doc!r}")
    return doc


def _enc_matrix(m):
    if isinstance(m, UTMat):
        return [_enc_int(m.a), _enc_int(m.b), _enc_int(m.c)]
    return [[_enc_int(m.m11), _enc_int(m.m12)],
            [_enc_int(m.m21), _enc_int(m.m22)]]


def _dec_matrix(doc):
    if len(_dec_list(doc, "matrix", None)) == 3:
        return UTMat(*(_dec_int(v) for v in doc))
    if len(doc) == 2 and all(isinstance(r, list) and len(r) == 2 for r in doc):
        return Mat2(*(_dec_int(v) for r in doc for v in r))
    raise SchemaError(f"bad matrix encoding {doc!r}")


def _enc_affine(f: AffineMap):
    return {"a": _enc_int(f.a), "b": _enc_int(f.b), "c": _enc_int(f.c)}


def _dec_affine(domain: str, doc) -> AffineMap:
    if not isinstance(doc, dict) or set(doc) - {"a", "b", "c"}:
        raise SchemaError(f"bad affine map encoding {doc!r}")
    return AffineMap.make(_dec_int(doc["a"]), _dec_int(doc["b"]),
                          _dec_int(doc.get("c", "1")), domain)


def _enc_vec(v: Vec2):
    return [_enc_int(v.v1), _enc_int(v.v2)]


def _dec_vec(doc) -> Vec2:
    return Vec2(*(_dec_int(v) for v in _dec_list(doc, "vector", 2)))


def _enc_machine(m):
    if isinstance(m, Bca):
        return {"states": list(m.states), "bound": _enc_int(m.bound),
                "transitions": [[s, _enc_int(p), d]
                                for s, p, d in m.transitions]}
    return {"states": list(m.states),
            "transitions": [[s, d, [_enc_int(c) for c in p]]
                            for s, d, p in m.transitions]}


def _dec_machine(doc, problem: str):
    if not isinstance(doc, dict) or "states" not in doc \
            or "transitions" not in doc:
        raise SchemaError("machine needs states and transitions")
    states = tuple(_dec_list(doc["states"], "machine states", None))
    if not all(isinstance(q, str) for q in states):
        raise SchemaError("machine states must be strings")
    bca = problem == BCA_REACHABILITY
    bound = _dec_int(doc["bound"]) if bca else None
    trans = []
    for tr in _dec_list(doc["transitions"], "machine transitions", None):
        s, mid, last = _dec_list(tr, "machine transition", 3)
        if bca:  # [source, counter delta, target]
            trans.append((s, _dec_int(mid), last))
        else:  # [source, target, update coefficients]
            coeffs = _dec_list(last, "ARM polynomial", None)
            trans.append((s, mid, tuple(map(_dec_int, coeffs))))
    if bca:
        return Bca(states, bound, tuple(trans))
    return Prm(states, tuple(trans))


def _enc_config(conf):
    return [conf[0], _enc_int(conf[1])]


def _dec_config(doc):
    q, c = _dec_list(doc, "machine configuration", 2)
    if not isinstance(q, str):
        raise SchemaError(f"bad machine configuration encoding {doc!r}")
    return (q, _dec_int(c))


_VECTOR_TAGS = (P.VECTOR_REACHABILITY, P.SCALAR_REACHABILITY,
                P.ZERO_REACHABILITY)

_INT = (_enc_int, _dec_int)


def _codec(tag):
    """((encode, decode) for generators, ((field, document key, encode,
    decode), ...) for the fields of problems.FIELDS[tag])."""
    if tag == P.AFFINE_REACHABILITY_Q:
        gen, num = (_enc_affine, partial(_dec_affine, "Q")), \
            (_enc_rat, _dec_rat)
    elif tag in (P.AFFINE_MEMBERSHIP_Z, P.AFFINE_REACHABILITY_Z):
        gen, num = (_enc_affine, partial(_dec_affine, "Z")), _INT
    else:
        gen, num = (_enc_matrix, _dec_matrix), (_enc_vec, _dec_vec)
    by_field = {"target": gen, "x": num, "y": num, "lam": _INT}
    return gen, tuple((f, "lambda" if f == "lam" else f) + by_field[f]
                      for f in P.FIELDS[tag])


_CODECS = {tag: _codec(tag) for tag in P.FIELDS}


def serialize_instance(inst) -> dict:
    if isinstance(inst, MachineInstance):
        return {"problem": inst.problem,
                "machine": _enc_machine(inst.machine),
                "x": _enc_config(inst.source),
                "y": _enc_config(inst.target)}
    (enc_gen, _), fields = _CODECS[inst.problem]
    doc = {"problem": inst.problem,
           "generators": [enc_gen(g) for g in inst.generators]}
    for name, key, enc, _ in fields:
        doc[key] = enc(getattr(inst, name))
    return doc


def parse_instance(doc):
    if not isinstance(doc, dict) or "problem" not in doc:
        raise SchemaError("instance file needs a problem tag")
    p = doc["problem"]
    try:
        if p in (BCA_REACHABILITY, ARM_REACHABILITY):
            return MachineInstance(p, _dec_machine(doc.get("machine"), p),
                                   _dec_config(doc.get("x")),
                                   _dec_config(doc.get("y")))
        if p not in _CODECS:
            raise SchemaError(f"unknown problem tag {p!r}")
        (_, dec_gen), fields = _CODECS[p]
        gens = _dec_list(doc.get("generators", []), "generators", None)
        return ProblemInstance(p, tuple(dec_gen(g) for g in gens),
                               **{name: dec(doc[key])
                                  for name, key, _, dec in fields})
    except KeyError as e:
        raise SchemaError(f"missing field {e.args[0]!r}") from None
    except (TypeError, ValueError) as e:
        raise SchemaError(str(e)) from None


def serialize_result(verdict: Verdict, solver: str, budget: dict) -> dict:
    return {"verdict": verdict.kind,
            "witness": [_enc_int(i) for i in verdict.witness]
            if verdict.witness is not None else None,
            "certificate": verdict.certificate,
            "solver": solver,
            "budget": budget}


# ---------------------------------------------------------------------------
# Routing


def _all_ut(inst) -> bool:
    mats = list(inst.generators)
    if inst.problem == P.MATRIX_MEMBERSHIP:
        mats.append(inst.target)
    return all(isinstance(m, UTMat) for m in mats)


_MATRIX_PROBLEMS = (P.MATRIX_MEMBERSHIP,) + _VECTOR_TAGS


def _detpm1_ok(inst) -> bool:
    return inst.problem in _MATRIX_PROBLEMS and _all_ut(inst) \
        and all(g.det() in (1, -1) for g in inst.generators)


def _utmember_ok(inst) -> bool:
    return inst.problem == P.MATRIX_MEMBERSHIP and _all_ut(inst)


def _utvec_ok(inst) -> bool:
    return inst.problem == P.VECTOR_REACHABILITY \
        and all(isinstance(g, UTMat) and g.c != 0 for g in inst.generators)


def _mortality_ok(inst) -> bool:
    """Mortality, or the zero-matrix membership that _rewrite makes of
    upper-triangular mortality, with every determinant in {0, 1}."""
    zero = inst.problem == P.MORTALITY or (
        inst.problem == P.MATRIX_MEMBERSHIP and _all_ut(inst)
        and inst.target == UTMat(0, 0, 0))
    return zero and all(g.det() in (0, 1) for g in inst.generators)


def _solve_machines(mi: MachineInstance, budget: Budget,
                    prm: PrmBudget) -> Verdict:
    if mi.problem == BCA_REACHABILITY:
        return reach_bca(mi.machine, mi.source, mi.target)
    return reach_prm(mi.machine, mi.source, mi.target, prm)


# (route, precondition, run(inst, budget, prm)), most specific
# hypothesis first; the oracle row accepts every ProblemInstance.  The
# run entries look the solvers up by module-level name at call time, so
# rebinding a name (as a tracer does) reaches every route.
ROUTES = (
    ("machines", lambda inst: isinstance(inst, MachineInstance),
     _solve_machines),
    ("detpm1", _detpm1_ok,
     lambda inst, budget, prm: solve_detpm1(inst)),
    ("utmember", _utmember_ok,
     lambda inst, budget, prm: reduce_membership_to_scalar(
         list(inst.generators), inst.target, budget, prm)),
    ("utvec", _utvec_ok,
     lambda inst, budget, prm: solve_vecreach_ut22(
         list(inst.generators), inst.x, inst.y, prm)),
    ("mortality", _mortality_ok,
     lambda inst, budget, prm: solve_mortality(list(inst.generators),
                                               budget)),
    ("oracle", lambda inst: isinstance(inst, ProblemInstance),
     lambda inst, budget, prm: oracle_solve(inst, budget)),
)

SOLVER_NAMES = ("auto",) + tuple(name for name, _, _ in ROUTES)


def _rewrite(inst):
    """The instance the routes see.  Integer affine questions become
    their matrix encodings, and mortality over upper-triangular
    generators becomes membership of the zero matrix.  The generator
    list is kept, so a witness for the rewrite replays on the original.
    """
    if not isinstance(inst, ProblemInstance):
        return inst
    if inst.problem in (P.AFFINE_MEMBERSHIP_Z, P.AFFINE_REACHABILITY_Z):
        return encode_affine(inst)
    if inst.problem == P.MORTALITY and _all_ut(inst):
        return ProblemInstance(P.MATRIX_MEMBERSHIP, inst.generators,
                               target=UTMat(0, 0, 0))
    return inst


def dispatch(inst, solver: str, budget: Budget, prm: PrmBudget):
    """Rewrite the instance, then run the named route, or under "auto"
    the first route whose precondition holds.  Returns (verdict, route
    name); a named route whose precondition fails raises SchemaError."""
    inst = _rewrite(inst)
    for name, applies, run in ROUTES:
        if solver in ("auto", name) and applies(inst):
            return run(inst, budget, prm), name
        if solver == name:
            raise SchemaError(
                f"instance does not meet the {name} preconditions")
    raise SchemaError(f"no {solver} route accepts {type(inst).__name__}")


# ---------------------------------------------------------------------------
# Witness replay with step diagnostics


def replay_machine(mi: MachineInstance, witness) -> Optional[str]:
    """None if the transition-index witness drives source to target,
    else a description of the first divergent step."""
    trans = mi.machine.transitions
    conf = mi.source
    for step, i in enumerate(witness):
        if not 0 <= i < len(trans):
            return f"step {step}: transition index {i} out of range"
        if mi.problem == BCA_REACHABILITY:
            s, p, d = trans[i]
            if s != conf[0]:
                return f"step {step}: transition {i} starts at {s!r}, " \
                       f"machine is at {conf[0]!r}"
            c = conf[1] + p
            if not 0 <= c <= mi.machine.bound:
                return f"step {step}: counter {c} leaves " \
                       f"[0, {mi.machine.bound}]"
            conf = (d, c)
        else:
            s, d, p = trans[i]
            if s != conf[0]:
                return f"step {step}: transition {i} starts at {s!r}, " \
                       f"machine is at {conf[0]!r}"
            conf = (d, poly_eval(p, conf[1]))
    if conf != mi.target:
        return f"step {len(witness)}: run ends at {conf}, " \
               f"target is {mi.target}"
    return None


def replay_instance(inst, witness) -> Optional[str]:
    if isinstance(inst, MachineInstance):
        return replay_machine(inst, witness)
    n = len(inst.generators)
    for step, i in enumerate(witness):
        if not 0 <= i < n:
            return f"step {step}: generator index {i} out of range"
    if not replay(inst, tuple(witness)):
        return f"step {len(witness)}: replayed product misses the target"
    return None


# ---------------------------------------------------------------------------
# Random instance generation (shared by gen random and xcheck)


def _rand_ut(rng, lo=-3, hi=3):
    return UTMat(rng.randint(lo, hi), rng.randint(lo, hi), rng.randint(lo, hi))


def _rand_word_product(rng, gens, ident, max_len=4):
    prod = ident
    for _ in range(rng.randint(0, max_len)):
        if not gens:
            break
        prod = prod * rng.choice(gens)
    return prod


def _rand_vec_problem(rng, problem, gens):
    x = Vec2(rng.randint(-3, 3), rng.randint(-3, 3))
    if rng.random() < 0.5 and gens:
        v = x
        for _ in range(rng.randint(0, 4)):
            v = rng.choice(gens).apply(v)
    else:
        v = Vec2(rng.randint(-6, 6), rng.randint(-6, 6))
    if problem == P.VECTOR_REACHABILITY:
        return ProblemInstance(problem, gens, x=x, y=v)
    y = Vec2(rng.randint(-3, 3), rng.randint(-3, 3))
    if problem == P.ZERO_REACHABILITY:
        return ProblemInstance(problem, gens, x=x, y=y)
    lam = y.v1 * v.v1 + y.v2 * v.v2 if rng.random() < 0.5 \
        else rng.randint(-6, 6)
    return ProblemInstance(problem, gens, x=x, y=y, lam=lam)


def random_instance(rng: random.Random, family: str) -> ProblemInstance:
    if family == "detpm1":
        gens = tuple(UTMat(rng.choice((1, -1)), rng.randint(-3, 3),
                           rng.choice((1, -1)))
                     for _ in range(rng.randint(0, 4)))
    elif family == "detminus1":
        gens = []
        for _ in range(rng.randint(0, 4)):
            a = rng.choice((1, -1))
            gens.append(UTMat(a, rng.randint(-3, 3), -a))
        gens = tuple(gens)
    elif family in ("utvec", "utmember", "random"):
        gens = tuple(_rand_ut(rng) for _ in range(rng.randint(0, 4)))
        if family == "utvec":
            gens = tuple(UTMat(g.a, g.b, g.c if g.c else 1) for g in gens)
    elif family == "mortality":
        gens = []
        for _ in range(rng.randint(1, 4)):
            while True:
                m = Mat2(*(rng.randint(-3, 3) for _ in range(4)))
                if m.det() in (0, 1):
                    gens.append(m)
                    break
        return ProblemInstance(P.MORTALITY, tuple(gens))
    else:
        raise SchemaError(f"unknown family {family!r}")
    if family == "utvec":
        return _rand_vec_problem(rng, P.VECTOR_REACHABILITY, gens)
    if family == "utmember":
        target = _rand_word_product(rng, gens, UTMat.identity()) \
            if rng.random() < 0.6 else _rand_ut(rng, -5, 5)
        return ProblemInstance(P.MATRIX_MEMBERSHIP, gens, target=target)
    problem = rng.choice(_MATRIX_PROBLEMS)
    if problem == P.MATRIX_MEMBERSHIP:
        target = _rand_word_product(rng, gens, UTMat.identity()) \
            if rng.random() < 0.6 else _rand_ut(rng, -5, 5)
        if family in ("detpm1", "detminus1") and rng.random() < 0.7:
            # keep the target inside the solver's hypothesis most times
            target = UTMat(rng.choice((1, -1)), rng.randint(-5, 5),
                           rng.choice((1, -1)))
        return ProblemInstance(problem, gens, target=target)
    return _rand_vec_problem(rng, problem, gens)


def _random_bca(rng: random.Random) -> MachineInstance:
    nstates = rng.randint(2, 4)
    bound = rng.randint(1, 7)
    states = tuple(f"q{i}" for i in range(nstates))
    trans = tuple((rng.choice(states), rng.randint(-bound, bound),
                   rng.choice(states))
                  for _ in range(rng.randint(1, 6)))
    m = Bca(states, bound, trans)
    src = (rng.choice(states), rng.randint(0, bound))
    dst = (rng.choice(states), rng.randint(0, bound))
    return MachineInstance(BCA_REACHABILITY, m, src, dst)


# ---------------------------------------------------------------------------
# Commands


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise SchemaError(str(e))


def _fail(msg: str):
    click.echo(f"error: {msg}", err=True)
    sys.exit(3)


def _crash():
    """Report an uncaught failure as an error (exit 3), never as a
    verdict: exit 1 means "no"."""
    click.echo(traceback.format_exc(), err=True, nl=False)
    _fail(f"internal error: {sys.exc_info()[1]!r}")


class _Cli(click.Group):
    """Usage errors (a bad option value, a missing argument) exit 3 like
    every other error; click's own exit code 2 would read as "unknown"."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as e:
            e.exit_code = 3
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as e:
            e.exit_code = 3
            raise


MAX_STEPS_HELP = ("stored-configuration cap for register-machine search and "
                  "the upper-triangular live search")


@click.group(cls=_Cli)
def main():
    """Decision procedures for 2x2 matrix and affine reachability."""


@main.command()
@click.argument("instance", type=str)
@click.option("--solver", default="auto", type=click.Choice(SOLVER_NAMES))
@click.option("--max-len", default=12, show_default=True,
              help="word-length budget for search-based solvers")
@click.option("--max-magnitude", default=10 ** 6, show_default=True,
              help="entry-magnitude cap for search-based solvers")
@click.option("--max-steps", default=4096, show_default=True,
              help=MAX_STEPS_HELP)
def solve(instance, solver, max_len, max_magnitude, max_steps):
    """Solve the instance in INSTANCE (a JSON file, or - for stdin)."""
    try:
        budget = Budget(max_len, max_magnitude)
        prm = PrmBudget(max_steps, max_magnitude)
        inst = parse_instance(_read_json(instance))
        verdict, used = dispatch(inst, solver, budget, prm)
    except (SchemaError, ValueError) as e:
        _fail(str(e))
    except Exception:
        _crash()
    click.echo(json.dumps(serialize_result(
        verdict, used,
        {"max-len": max_len, "max-magnitude": max_magnitude,
         "max-steps": max_steps}), indent=2))
    sys.exit(EXIT_BY_KIND[verdict.kind])


@main.command()
@click.argument("instance", type=str)
@click.argument("result", type=str)
def verify(instance, result):
    """Replay the witness in RESULT against INSTANCE."""
    try:
        inst = parse_instance(_read_json(instance))
        res = _read_json(result)
        if not isinstance(res, dict) or res.get("verdict") != "yes":
            raise SchemaError("result file must carry a yes verdict")
        witness = res.get("witness")
        if not isinstance(witness, list):
            raise SchemaError(f"bad witness encoding {witness!r}")
        witness = [_dec_int(i) for i in witness]
        diag = replay_instance(inst, witness)
    except (SchemaError, ValueError) as e:
        _fail(str(e))
    except Exception:
        _crash()
    if diag is not None:
        click.echo(f"replay mismatch: {diag}", err=True)
        sys.exit(1)
    click.echo("witness ok")
    sys.exit(0)


@main.command()
@click.argument("family",
                type=click.Choice(("multisubsetsum", "bca2arm", "random")))
@click.option("--a", "avals", default="", help="comma-separated weights")
@click.option("--t", "target_sum", default=0, help="target sum")
@click.option("--variant", default="membership",
              type=click.Choice(GEN_HARD_VARIANTS))
@click.option("--seed", default=0, show_default=True)
@click.option("--problem", default=P.MATRIX_MEMBERSHIP,
              type=click.Choice(sorted(P.PROBLEM_TAGS)))
@click.option("--count", default=3, show_default=True,
              type=click.IntRange(min=0),
              help="generator count for the random family")
def gen(family, avals, target_sum, variant, seed, problem, count):
    """Emit an instance file on standard output."""
    rng = random.Random(seed)
    try:
        if family == "multisubsetsum":
            weights = [int(v) for v in avals.split(",") if v.strip() != ""]
            inst = gen_hard(weights, target_sum, variant)
        elif family == "bca2arm":
            bca = _random_bca(rng)
            red = reduce_bca_to_arm(bca.machine, bca.source, bca.target)
            inst = MachineInstance(ARM_REACHABILITY, red.machine,
                                   red.source, red.target)
        else:
            gens = tuple(_rand_ut(rng) for _ in range(count))
            if problem == P.MORTALITY:
                inst = ProblemInstance(problem, gens)
            elif problem == P.MATRIX_MEMBERSHIP:
                inst = ProblemInstance(
                    problem, gens,
                    target=_rand_word_product(rng, list(gens),
                                              UTMat.identity()))
            elif problem in _VECTOR_TAGS:
                inst = _rand_vec_problem(rng, problem, gens)
            elif problem == P.AFFINE_MEMBERSHIP_Z:
                fs = tuple(AffineMap(rng.randint(-3, 3), rng.randint(-3, 3))
                           for _ in range(count))
                t = AffineMap(1, 0)
                for _ in range(rng.randint(0, 4)):
                    if fs:
                        t = t.compose(rng.choice(fs))
                inst = ProblemInstance(problem, fs, target=t)
            elif problem == P.AFFINE_REACHABILITY_Z:
                fs = tuple(AffineMap(rng.randint(-3, 3), rng.randint(-3, 3))
                           for _ in range(count))
                inst = ProblemInstance(problem, fs, x=rng.randint(-5, 5),
                                       y=rng.randint(-9, 9))
            else:
                fs = tuple(AffineMap.make(rng.randint(-3, 3),
                                          rng.randint(-3, 3),
                                          rng.choice((1, 2, 3)), "Q")
                           for _ in range(count))
                inst = ProblemInstance(
                    problem, fs, x=Fraction(rng.randint(-5, 5)),
                    y=Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
    except (SchemaError, ValueError) as e:
        _fail(str(e))
    click.echo(json.dumps(serialize_instance(inst), indent=2))


@main.command()
@click.option("--count", default=100, show_default=True,
              type=click.IntRange(min=0))
@click.option("--seed", default=0, show_default=True)
@click.option("--family", default="random", show_default=True,
              type=click.Choice(("detpm1", "detminus1", "utvec", "utmember",
                                 "mortality", "random")))
@click.option("--max-len", default=8, show_default=True)
@click.option("--max-magnitude", default=10 ** 6, show_default=True)
@click.option("--max-steps", default=4096, show_default=True,
              help=MAX_STEPS_HELP)
def xcheck(count, seed, family, max_len, max_magnitude, max_steps):
    """Cross-check the routed solver against the brute-force oracle on
    seeded random instances and report definitive disagreements."""
    rng = random.Random(seed)
    report = {"count": count, "seed": seed, "family": family,
              "disagreements": 0, "unknown": 0, "solver-unknown": 0,
              "oracle-unknown": 0, "bad-witnesses": 0, "details": []}
    try:
        budget = Budget(max_len, max_magnitude)
        prm = PrmBudget(max_steps, max_magnitude)
    except ValueError as e:
        _fail(str(e))
    try:
        for idx in range(count):
            inst = random_instance(rng, family)
            verdict, used = dispatch(inst, "auto", budget, prm)
            oracle = oracle_solve(inst, budget)
            if verdict.is_yes and replay_instance(inst, verdict.witness) \
                    is not None:
                report["bad-witnesses"] += 1
                report["details"].append(
                    {"index": idx, "solver": used, "kind": "bad-witness",
                     "instance": serialize_instance(inst)})
            report["solver-unknown"] += not verdict.definitive
            report["oracle-unknown"] += not oracle.definitive
            if not verdict.definitive or not oracle.definitive:
                report["unknown"] += 1
            elif verdict.is_yes != oracle.is_yes:
                report["disagreements"] += 1
                report["details"].append(
                    {"index": idx, "solver": used, "kind": "disagreement",
                     "solver-verdict": verdict.kind, "oracle": oracle.kind,
                     "instance": serialize_instance(inst)})
    except Exception:
        _crash()  # exit 1 would read as a disagreement
    click.echo(json.dumps(report, indent=2))
    sys.exit(0 if report["disagreements"] == 0
             and report["bad-witnesses"] == 0 else 1)


if __name__ == "__main__":
    main()
