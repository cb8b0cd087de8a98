"""Command-line surface: serialization, routing, verification, instance
generation, and the cross-check harness."""

import dataclasses
import json
import random
from fractions import Fraction

import pytest
from click.testing import CliRunner

from semireach import cli
from semireach import problems as P
from semireach.bridge import gen_hard
from semireach.cli import (ARM_REACHABILITY, BCA_REACHABILITY,
                           SOLVER_NAMES, MachineInstance, SchemaError,
                           dispatch, main, oracle_solve, parse_instance,
                           random_instance, replay_instance,
                           serialize_instance, serialize_result)
from semireach.core import AffineMap, Mat2, UTMat, Vec2
from semireach.machines import Bca, Prm, PrmBudget
from semireach.problems import Budget, ProblemInstance
from semireach.utsolvers import _flip_ut


def _round_trip(inst):
    doc = json.loads(json.dumps(serialize_instance(inst)))
    assert parse_instance(doc) == inst


def test_round_trip_matrix_problems():
    _round_trip(ProblemInstance(P.MATRIX_MEMBERSHIP,
                                (UTMat(1, -2, 3), Mat2(0, 1, 1, 0)),
                                target=Mat2(1, 0, 0, 1)))
    _round_trip(ProblemInstance(P.VECTOR_REACHABILITY, (UTMat(1, 1, 1),),
                                x=Vec2(0, 1), y=Vec2(-3, 1)))
    _round_trip(ProblemInstance(P.SCALAR_REACHABILITY, (UTMat(2, 0, 1),),
                                x=Vec2(1, 1), y=Vec2(1, -1),
                                lam=-10 ** 30))
    _round_trip(ProblemInstance(P.ZERO_REACHABILITY, (),
                                x=Vec2(4, 1), y=Vec2(1, -4)))
    _round_trip(ProblemInstance(P.MORTALITY, (Mat2(0, 0, 1, -11),)))


def test_round_trip_affine_problems():
    _round_trip(ProblemInstance(P.AFFINE_MEMBERSHIP_Z, (AffineMap(2, 1),),
                                target=AffineMap(4, 3)))
    _round_trip(ProblemInstance(P.AFFINE_REACHABILITY_Z,
                                (AffineMap(1, 3), AffineMap(-2, 0)),
                                x=1, y=10))
    _round_trip(ProblemInstance(P.AFFINE_REACHABILITY_Q,
                                (AffineMap.make(1, 0, 2, "Q"),),
                                x=Fraction(1), y=Fraction(1, 4)))


# literal documents: key names, "lambda" for lam, and key order
_PINNED = [
    (ProblemInstance(P.AFFINE_MEMBERSHIP_Z, (AffineMap(2, -1),),
                     target=AffineMap(4, -3)),
     {"problem": "affine-membership-Z",
      "generators": [{"a": "2", "b": "-1", "c": "1"}],
      "target": {"a": "4", "b": "-3", "c": "1"}}),
    (ProblemInstance(P.AFFINE_REACHABILITY_Z, (AffineMap(1, 3),),
                     x=1, y=-10),
     {"problem": "affine-reachability-Z",
      "generators": [{"a": "1", "b": "3", "c": "1"}],
      "x": "1", "y": "-10"}),
    (ProblemInstance(P.AFFINE_REACHABILITY_Q,
                     (AffineMap.make(1, 0, 2, "Q"),),
                     x=Fraction(3), y=Fraction(-1, 4)),
     {"problem": "affine-reachability-Q",
      "generators": [{"a": "1", "b": "0", "c": "2"}],
      "x": "3", "y": "-1/4"}),
    (ProblemInstance(P.MATRIX_MEMBERSHIP,
                     (UTMat(1, -2, 3), Mat2(0, 1, -1, 0)),
                     target=UTMat(1, 0, 1)),
     {"problem": "matrix-membership",
      "generators": [["1", "-2", "3"], [["0", "1"], ["-1", "0"]]],
      "target": ["1", "0", "1"]}),
    (ProblemInstance(P.VECTOR_REACHABILITY, (UTMat(2, 0, 1),),
                     x=Vec2(1, -1), y=Vec2(4, -1)),
     {"problem": "vector-reachability",
      "generators": [["2", "0", "1"]],
      "x": ["1", "-1"], "y": ["4", "-1"]}),
    (ProblemInstance(P.SCALAR_REACHABILITY, (UTMat(1, 1, 1),),
                     x=Vec2(0, 1), y=Vec2(1, 0), lam=-10 ** 20),
     {"problem": "scalar-reachability",
      "generators": [["1", "1", "1"]],
      "x": ["0", "1"], "y": ["1", "0"],
      "lambda": "-100000000000000000000"}),
    (ProblemInstance(P.ZERO_REACHABILITY, (),
                     x=Vec2(4, 1), y=Vec2(1, -4)),
     {"problem": "zero-reachability", "generators": [],
      "x": ["4", "1"], "y": ["1", "-4"]}),
    (ProblemInstance(P.MORTALITY, (Mat2(0, 1, 0, 0),)),
     {"problem": "mortality",
      "generators": [[["0", "1"], ["0", "0"]]]}),
]


def test_serialized_documents_are_pinned():
    assert sorted(inst.problem for inst, _ in _PINNED) == sorted(P.FIELDS)
    for inst, doc in _PINNED:
        got = serialize_instance(inst)
        assert list(got.items()) == list(doc.items())
        assert parse_instance(doc) == inst


def test_round_trip_machines():
    bca = MachineInstance(
        BCA_REACHABILITY,
        Bca(("p", "q"), 2, (("p", 2, "q"), ("q", -1, "q"))),
        ("p", 0), ("q", 0))
    _round_trip(bca)
    arm = MachineInstance(
        ARM_REACHABILITY,
        Prm(("q",), (("q", "q", (1, 1)), ("q", "q", (0, 2)))),
        ("q", 0), ("q", 5))
    _round_trip(arm)


_ARM_DOC = {"problem": ARM_REACHABILITY,
            "machine": {"states": ["q"],
                        "transitions": [["q", "q", ["1", "1"]],
                                        ["q", "q", ["0", "2"]]]},
            "x": ["q", "0"], "y": ["q", "5"]}
_BCA_DOC = {"problem": BCA_REACHABILITY,
            "machine": {"states": ["p", "q"], "bound": "2",
                        "transitions": [["p", "2", "q"], ["q", "-1", "q"]]},
            "x": ["p", "0"], "y": ["q", "0"]}


def _with(doc, path, value):
    """A copy of the JSON document doc with the entry at path replaced."""
    if not path:
        return value
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[path[0]] = _with(doc[path[0]], path[1:], value)
    return out


def _paths(doc, path=()):
    """(path, value) for every field and list entry below doc."""
    keys = doc if isinstance(doc, dict) else \
        range(len(doc)) if isinstance(doc, list) else ()
    for k in keys:
        yield path + (k,), doc[k]
        yield from _paths(doc[k], path + (k,))


def _parses(doc) -> bool:
    try:
        parse_instance(doc)
    except SchemaError:
        return False
    return True


def test_parse_rejects_malformed_documents(tmp_path):
    with pytest.raises(SchemaError):
        parse_instance({"problem": "no-such-problem", "generators": []})
    with pytest.raises(SchemaError):
        parse_instance({"generators": []})
    with pytest.raises(SchemaError):
        parse_instance({"problem": P.MATRIX_MEMBERSHIP,
                        "generators": [[1, 2, 3]],  # raw ints, not strings
                        "target": ["1", "0", "1"]})
    with pytest.raises(SchemaError):
        parse_instance({"problem": P.MATRIX_MEMBERSHIP,
                        "generators": [["01", "2", "3"]],  # leading zero
                        "target": ["1", "0", "1"]})
    with pytest.raises(SchemaError):
        parse_instance({"problem": P.MATRIX_MEMBERSHIP, "generators": []})
    no_bound = {"problem": BCA_REACHABILITY,
                "machine": {"states": ["q"],
                            "transitions": [["q", "1", "q"]]},
                "x": ["q", "0"], "y": ["q", "1"]}
    bad_poly = {"problem": ARM_REACHABILITY,
                "machine": {"states": ["q"], "transitions": [["q", "q", 5]]},
                "x": ["q", "0"], "y": ["q", "1"]}
    zero_den = {"problem": P.AFFINE_REACHABILITY_Q,
                "generators": [{"a": "1", "b": "0", "c": "2"}],
                "x": "1/0", "y": "1"}
    no_den = _with(zero_den, ("x",), "1/")
    # source = target, but not a configuration of the machine: an
    # unknown state, a counter outside [0, bound], or both
    bad_configs = [
        {"problem": BCA_REACHABILITY,
         "machine": {"states": ["q"], "bound": "3", "transitions": []},
         "x": ["zz", "99"], "y": ["zz", "99"]},
        _with(_with(_BCA_DOC, ("x",), ["p", "99"]), ("y",), ["p", "99"]),
        _with(_with(_ARM_DOC, ("x",), ["nope", "5"]), ("y",), ["nope", "5"])]
    # strings where lists belong: once read as one state, as the
    # transition ("p", "1", "q"), as the polynomial 1 + 2x, and as no
    # transitions at all
    stringly = [_with(_BCA_DOC, ("machine", "states"), "q"),
                _with(_BCA_DOC, ("machine", "transitions", 0), "p1q"),
                _with(_BCA_DOC, ("machine", "transitions"), ""),
                _with(_ARM_DOC, ("machine", "transitions", 0, 2), "12")]
    # an integer has one spelling: an optional "-", no leading zero, no
    # "+", "_" or whitespace, no trailing newline, and zero only as "0",
    # wherever it sits
    noncanonical = []
    for text in ("5\n", " 5", "+5", "05", "1_0", "-0"):
        noncanonical += [
            _with(_ARM_DOC, ("y", 1), text),
            _with(_ARM_DOC, ("machine", "transitions", 1, 2, 0), text),
            _with(_BCA_DOC, ("machine", "bound"), text),
            _with(_BCA_DOC, ("machine", "transitions", 0, 1), text),
            _with(zero_den, ("x",), text)]
    runner = CliRunner()
    for doc in [no_bound, bad_poly, zero_den, no_den] + stringly \
            + bad_configs + noncanonical:
        with pytest.raises(SchemaError):
            parse_instance(doc)
        res = runner.invoke(main, ["solve", "-"], input=json.dumps(doc))
        assert res.exit_code == 3, res.output
    # verify must not accept a witness for such a document either
    result = tmp_path / "result.json"
    result.write_text(json.dumps({"verdict": "yes", "witness": []}))
    for doc in bad_configs:
        res = runner.invoke(main, ["verify", "-", str(result)],
                            input=json.dumps(doc))
        assert res.exit_code == 3, res.output


def test_parse_fuzz_wrong_json_types():
    docs = [doc for _, doc in _PINNED] + [_BCA_DOC, _ARM_DOC]
    assert all(_parses(doc) for doc in docs)
    others = ("12", "", 5, None, [], {})
    # every field and list entry, replaced by each value of another type;
    # a string where a list belongs never parses
    for doc in docs:
        for path, old in _paths(doc):
            for new in others:
                if type(new) is not type(old):
                    ok = _parses(_with(doc, path, new))
                    assert not (ok and isinstance(old, list)
                                and isinstance(new, str)), (doc, path, new)
    # seeded runs of several replacements: parse or SchemaError, no crash
    rng = random.Random(14)
    for _ in range(600):
        doc = rng.choice(docs)
        for _ in range(rng.randint(2, 4)):
            path, _ = rng.choice(list(_paths(doc)))
            doc = _with(doc, path, rng.choice(others))
        _parses(doc)


def test_dispatch_routing_order():
    budget, prm = Budget(8, 10 ** 6), PrmBudget(1024, 10 ** 6)
    assert SOLVER_NAMES == ("auto", "machines", "detpm1", "utmember",
                            "utvec", "mortality", "oracle")
    bca = MachineInstance(BCA_REACHABILITY,
                          Bca(("p",), 1, (("p", 1, "p"),)),
                          ("p", 0), ("p", 1))
    m1 = ProblemInstance(P.MATRIX_MEMBERSHIP, (UTMat(1, 3, -1),),
                         target=UTMat(1, 3, -1))
    pm = ProblemInstance(P.MATRIX_MEMBERSHIP, (UTMat(1, 3, 1),),
                         target=UTMat(1, 6, 1))
    ut = ProblemInstance(P.MATRIX_MEMBERSHIP, (UTMat(2, 1, 1),),
                         target=UTMat(4, 3, 1))
    vec = ProblemInstance(P.VECTOR_REACHABILITY, (UTMat(2, 1, 3),),
                          x=Vec2(0, 1), y=Vec2(1, 3))
    mo = ProblemInstance(P.MORTALITY, (Mat2(1, 1, 0, 1), Mat2(0, 0, 0, 0)))
    gen_mat = ProblemInstance(P.MORTALITY, (Mat2(0, 1, 1, 0),))  # det -1
    by_route = {"machines": bca, "detpm1": pm, "utmember": ut,
                "utvec": vec, "mortality": mo, "oracle": gen_mat}
    for route, inst in by_route.items():
        assert dispatch(inst, "auto", budget, prm)[1] == route
        assert dispatch(inst, route, budget, prm)[1] == route
    # all-determinant -1 generators take the determinant +-1 route
    assert dispatch(m1, "auto", budget, prm)[1] == "detpm1"
    assert dispatch(pm, "oracle", budget, prm)[1] == "oracle"
    with pytest.raises(SchemaError):
        dispatch(ut, "detpm1", budget, prm)  # determinant is 2
    with pytest.raises(SchemaError):
        dispatch(pm, "machines", budget, prm)
    with pytest.raises(SchemaError):
        dispatch(bca, "oracle", budget, prm)


def test_upper_triangular_mortality_agrees_with_oracle():
    budget, prm = Budget(8, 10 ** 6), PrmBudget(1024, 10 ** 6)
    for gens_doc in ([["1", "1", "1"], ["1", "0", "0"]],
                     [["0", "1", "1"], ["1", "1", "0"]]):
        inst = parse_instance({"problem": P.MORTALITY,
                               "generators": gens_doc})
        verdict, route = dispatch(inst, "auto", budget, prm)
        assert route == "utmember" and verdict.definitive
        oracle = oracle_solve(inst, budget)
        assert not oracle.definitive or oracle.kind == verdict.kind
        if verdict.is_yes:
            assert replay_instance(inst, verdict.witness) is None


def test_upper_triangular_mortality_structural_no():
    # det 6 and det 0: no generator kills the top-left entry, so no
    # product is zero; the search alone cannot tell
    budget, prm = Budget(8, 10 ** 6), PrmBudget(1024, 10 ** 6)
    inst = ProblemInstance(P.MORTALITY, (UTMat(2, 1, 3), UTMat(1, 1, 0)))
    verdict, route = dispatch(inst, "auto", budget, prm)
    assert route == "utmember"
    assert verdict.is_no and verdict.certificate == "structural"
    assert not oracle_solve(inst, budget).definitive


def test_named_mortality_route_takes_upper_triangular_mortality(tmp_path):
    # dispatch rewrites it to membership of UTMat(0, 0, 0); auto still
    # routes that to utmember, and the named route must accept it too
    doc = {"problem": P.MORTALITY,
           "generators": [["1", "1", "0"], ["0", "0", "1"]]}
    inst = parse_instance(doc)
    budget, prm = Budget(8, 10 ** 6), PrmBudget(1024, 10 ** 6)
    assert dispatch(inst, "auto", budget, prm)[1] == "utmember"
    verdict, route = dispatch(inst, "mortality", budget, prm)
    assert route == "mortality" and verdict.is_yes
    assert replay_instance(inst, verdict.witness) is None
    # a determinant outside {0, 1} still fails the precondition
    bad = ProblemInstance(P.MORTALITY, (UTMat(2, 1, 1), UTMat(0, 0, 1)))
    with pytest.raises(SchemaError):
        dispatch(bad, "mortality", budget, prm)

    runner = CliRunner()
    inst_file, res_file = tmp_path / "inst.json", tmp_path / "res.json"
    inst_file.write_text(json.dumps(doc))
    res = runner.invoke(main, ["solve", str(inst_file),
                               "--solver", "mortality"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["solver"] == "mortality"
    res_file.write_text(res.output)
    ver = runner.invoke(main, ["verify", str(inst_file), str(res_file)])
    assert ver.exit_code == 0 and "witness ok" in ver.output


def test_integer_affine_reachability_routes_to_detpm1():
    budget, prm = Budget(8, 10 ** 6), PrmBudget(1024, 10 ** 6)
    inst = ProblemInstance(P.AFFINE_REACHABILITY_Z,
                           (AffineMap(1, 3), AffineMap(1, 5)), x=0, y=1000)
    assert not oracle_solve(inst, budget).definitive
    verdict, route = dispatch(inst, "auto", budget, prm)
    assert route == "detpm1" and verdict.is_yes
    assert replay_instance(inst, verdict.witness) is None


def _random_affine_z(rng):
    """Integer affine membership or reachability: slopes -3..3, so
    constant maps too; targets planted from the generators 60% of the
    time."""
    fs = tuple(AffineMap(rng.randint(-3, 3), rng.randint(-3, 3))
               for _ in range(rng.randint(0, 3)))
    if rng.random() < 0.5:
        t = AffineMap(1, 0)
        if rng.random() < 0.6:
            for _ in range(rng.randint(0, 4)):
                if fs:
                    t = t.compose(rng.choice(fs))
        else:
            t = AffineMap(rng.randint(-3, 3), rng.randint(-9, 9))
        return ProblemInstance(P.AFFINE_MEMBERSHIP_Z, fs, target=t)
    x = y = rng.randint(-5, 5)
    if rng.random() < 0.6:
        for _ in range(rng.randint(0, 4)):
            if fs:
                y = rng.choice(fs).apply(y)
    else:
        y = rng.randint(-9, 9)
    return ProblemInstance(P.AFFINE_REACHABILITY_Z, fs, x=x, y=y)


def test_integer_affine_sweep_agrees_with_oracle():
    rng = random.Random(61)
    budget, prm = Budget(8, 10 ** 6), PrmBudget(4096, 10 ** 6)
    routes, decided = set(), 0
    for _ in range(700):
        inst = _random_affine_z(rng)
        verdict, route = dispatch(inst, "auto", budget, prm)
        routes.add(route)
        oracle = oracle_solve(inst, budget)
        if verdict.is_yes:
            assert replay_instance(inst, verdict.witness) is None, inst
        if oracle.definitive:
            assert verdict.kind == oracle.kind, inst
        elif verdict.definitive:
            decided += 1
    assert routes == {"detpm1", "utmember", "utvec"}
    assert decided > 0


def test_solve_routes_gen_hard_to_detpm1(tmp_path):
    runner = CliRunner()
    gen = runner.invoke(main, ["gen", "multisubsetsum", "--a", "3,5",
                               "--t", "11", "--variant", "membership"])
    assert gen.exit_code == 0
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(gen.output)
    res = runner.invoke(main, ["solve", str(inst_file)])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["verdict"] == "yes" and doc["solver"] == "detpm1"

    # and verify accepts the emitted witness
    res_file = tmp_path / "res.json"
    res_file.write_text(res.output)
    ver = runner.invoke(main, ["verify", str(inst_file), str(res_file)])
    assert ver.exit_code == 0 and "witness ok" in ver.output


def test_gen_multisubsetsum_matches_library(tmp_path):
    runner = CliRunner()
    out = runner.invoke(main, ["gen", "multisubsetsum", "--a", "3,5",
                               "--t", "11", "--variant", "mortality"])
    assert out.exit_code == 0
    assert parse_instance(json.loads(out.output)) == \
        gen_hard([3, 5], 11, "mortality")


def test_forced_solver_precondition_violation_exits_3(tmp_path):
    runner = CliRunner()
    inst = ProblemInstance(P.MATRIX_MEMBERSHIP, (UTMat(2, 1, 1),),
                           target=UTMat(4, 3, 1))
    f = tmp_path / "i.json"
    f.write_text(json.dumps(serialize_instance(inst)))
    res = runner.invoke(main, ["solve", str(f), "--solver", "detpm1"])
    assert res.exit_code == 3


@pytest.mark.parametrize("args", [
    ["solve", "INST", "--max-len", "0"],
    ["solve", "INST", "--max-steps", "0"],
    ["solve", "INST", "--max-magnitude", "0"],
    ["solve", "INST", "--solver", "bogus"],
    ["solve", "INST", "--max-len", "abc"],
    ["solve"],
    ["xcheck", "--count", "2", "--max-len", "0"],
    ["xcheck", "--count", "2", "--max-steps", "0"],
    ["xcheck", "--family", "bogus"],
    ["no-such-command"],
    ["xcheck", "--count", "-3"],
    ["gen", "random", "--count", "-1"],
])
def test_bad_options_exit_3(tmp_path, args):
    # 1 and 2 mean "no" and "unknown" (for xcheck, 1 is a disagreement),
    # so a bad budget or a usage error must exit 3
    f = tmp_path / "i.json"
    f.write_text(json.dumps(serialize_instance(
        ProblemInstance(P.MORTALITY, (Mat2(1, 0, 0, 1),)))))
    res = CliRunner().invoke(main, [str(f) if a == "INST" else a
                                    for a in args])
    assert res.exit_code == 3, res.output
    assert "Traceback" not in res.output


def test_solve_reads_stdin_and_reports_no(tmp_path):
    runner = CliRunner()
    inst = ProblemInstance(P.MATRIX_MEMBERSHIP, (UTMat(1, 2, 1),),
                           target=UTMat(1, 1, 1))
    res = runner.invoke(main, ["solve", "-"],
                        input=json.dumps(serialize_instance(inst)))
    assert res.exit_code == 1
    assert json.loads(res.output)["verdict"] == "no"


def test_verify_rejects_tampered_witness(tmp_path):
    runner = CliRunner()
    inst = ProblemInstance(P.MATRIX_MEMBERSHIP, (UTMat(1, 3, 1),),
                           target=UTMat(1, 6, 1))
    f = tmp_path / "i.json"
    f.write_text(json.dumps(serialize_instance(inst)))
    good = serialize_result(
        dispatch(inst, "auto", Budget(8, 10 ** 6),
                 PrmBudget(1024, 10 ** 6))[0], "x", {})
    bad = dict(good)
    bad["witness"] = list(good["witness"])[:-1]
    g, b = tmp_path / "good.json", tmp_path / "bad.json"
    g.write_text(json.dumps(good))
    b.write_text(json.dumps(bad))
    assert runner.invoke(main, ["verify", str(f), str(g)]).exit_code == 0
    res = runner.invoke(main, ["verify", str(f), str(b)])
    assert res.exit_code == 1 and "replay mismatch" in res.output
    # a witness that is not a list is a malformed file, not a mismatch
    b.write_text(json.dumps(dict(good, witness=5)))
    res = runner.invoke(main, ["verify", str(f), str(b)])
    assert res.exit_code == 3 and "bad witness" in res.output


def test_crash_exits_3(tmp_path, monkeypatch):
    def boom(*args):
        raise RuntimeError("boom")

    runner = CliRunner()
    inst = ProblemInstance(P.MATRIX_MEMBERSHIP, (UTMat(1, 3, 1),),
                           target=UTMat(1, 6, 1))
    f = tmp_path / "i.json"
    f.write_text(json.dumps(serialize_instance(inst)))
    r = tmp_path / "r.json"
    r.write_text(json.dumps({"verdict": "yes", "witness": ["0", "0"]}))
    monkeypatch.setattr(cli, "solve_detpm1", boom)
    monkeypatch.setattr(cli, "replay_instance", boom)
    for args in (["solve", str(f)], ["verify", str(f), str(r)],
                 ["xcheck", "--count", "5", "--family", "detpm1"]):
        res = runner.invoke(main, args)
        assert res.exit_code == 3, res.output
        assert "RuntimeError('boom')" in res.output


def test_machine_pipeline_end_to_end(tmp_path):
    runner = CliRunner()
    gen = runner.invoke(main, ["gen", "bca2arm", "--seed", "5"])
    assert gen.exit_code == 0
    f = tmp_path / "arm.json"
    f.write_text(gen.output)
    res = runner.invoke(main, ["solve", str(f)])
    assert res.exit_code in (0, 1), res.output
    doc = json.loads(res.output)
    assert doc["solver"] == "machines"
    if doc["verdict"] == "yes":
        r = tmp_path / "r.json"
        r.write_text(res.output)
        assert runner.invoke(main, ["verify", str(f), str(r)]).exit_code == 0


def test_machine_witness_diagnostics():
    bca = MachineInstance(
        BCA_REACHABILITY,
        Bca(("p", "q"), 2, (("p", 2, "q"), ("q", -1, "q"))),
        ("p", 0), ("q", 1))
    assert replay_instance(bca, [0, 1]) is None
    assert "starts at" in replay_instance(bca, [1, 0])
    assert "out of range" in replay_instance(bca, [7])
    assert "ends at" in replay_instance(bca, [0])
    loop = MachineInstance(
        BCA_REACHABILITY, Bca(("p",), 2, (("p", 2, "p"),)),
        ("p", 0), ("p", 2))
    assert replay_instance(loop, [0]) is None
    assert "leaves" in replay_instance(loop, [0, 0])


def test_gen_random_families_solvable(tmp_path):
    runner = CliRunner()
    for problem in sorted(P.PROBLEM_TAGS):
        gen = runner.invoke(main, ["gen", "random", "--problem", problem,
                                   "--seed", "3"])
        assert gen.exit_code == 0, (problem, gen.output)
        f = tmp_path / "i.json"
        f.write_text(gen.output)
        res = runner.invoke(main, ["solve", str(f), "--max-len", "6"])
        assert res.exit_code in (0, 1, 2), (problem, res.output)
        # CliRunner reports an uncaught exception as exit 1
        assert res.exception is None \
            or isinstance(res.exception, SystemExit), (problem, res.output)


def test_random_instance_families():
    rng = random.Random(9)
    for family in ("detpm1", "detminus1", "utvec", "utmember", "mortality",
                   "random"):
        for _ in range(20):
            inst = random_instance(rng, family)
            assert inst.problem in P.PROBLEM_TAGS
    with pytest.raises(SchemaError):
        random_instance(rng, "nope")


def test_xcheck_clean_on_exact_families():
    runner = CliRunner()
    for family in ("detpm1", "mortality"):
        res = runner.invoke(main, ["xcheck", "--count", "40", "--seed", "7",
                                   "--family", family])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["disagreements"] == 0 and doc["bad-witnesses"] == 0


def test_xcheck_splits_unknown_by_side():
    res = CliRunner().invoke(main, ["xcheck", "--count", "60", "--seed", "1",
                                    "--family", "detpm1"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    # the determinant +-1 solver never gives Unknown; the oracle does
    assert doc["solver-unknown"] == 0
    assert doc["oracle-unknown"] > 0
    assert doc["unknown"] == doc["oracle-unknown"]


def test_generator_permutation_keeps_verdicts():
    # permuting the generators never turns a definitive verdict into its
    # opposite, and a Yes witness mapped back through the permutation
    # replays on the original instance
    budget, prm = Budget(8, 10 ** 6), PrmBudget(4096, 10 ** 6)
    rng, shuffle = random.Random(1), random.Random(2)
    for family in ("detpm1", "detminus1", "utvec", "utmember", "mortality",
                   "random"):
        for _ in range(200):
            inst = random_instance(rng, family)
            perm = list(range(len(inst.generators)))
            shuffle.shuffle(perm)
            permuted = dataclasses.replace(
                inst, generators=[inst.generators[i] for i in perm])
            before, _ = dispatch(inst, "auto", budget, prm)
            after, _ = dispatch(permuted, "auto", budget, prm)
            assert not (before.definitive and after.definitive
                        and before.is_yes != after.is_yes), inst
            if before.is_yes:
                assert replay_instance(inst, before.witness) is None, inst
            if after.is_yes:
                word = [perm[i] for i in after.witness]
                assert replay_instance(inst, word) is None, inst


def test_flip_keeps_verdicts():
    # _flip_ut maps a product to the reversed product of the images, so a
    # membership instance and its flip have the same answer: neither
    # dispatch nor the oracle gives them opposite definitive verdicts,
    # and a Yes witness reversed replays on the other instance
    budget, prm = Budget(8, 10 ** 6), PrmBudget(4096, 10 ** 6)
    rng = random.Random(1)
    pairs = 0
    for family in ("utmember", "random", "detpm1", "detminus1"):
        for _ in range(400):
            inst = random_instance(rng, family)
            if inst.problem != P.MATRIX_MEMBERSHIP:
                continue
            flip = ProblemInstance(P.MATRIX_MEMBERSHIP,
                                   [_flip_ut(g) for g in inst.generators],
                                   target=_flip_ut(inst.target))
            pairs += 1
            verdicts = []
            for a, b in ((inst, flip), (flip, inst)):
                for v in (dispatch(a, "auto", budget, prm)[0],
                          oracle_solve(a, budget)):
                    verdicts.append(v)
                    if v.is_yes:
                        assert replay_instance(a, v.witness) is None, a
                        assert replay_instance(
                            b, tuple(reversed(v.witness))) is None, a
            assert len({v.is_yes for v in verdicts if v.definitive}) <= 1, \
                inst
    assert pairs > 600


def test_oracle_route_answers_as_oracle_solve():
    # xcheck takes an oracle-routed verdict as the oracle's own, so
    # through _rewrite's encodings (integer affine maps, upper-triangular
    # mortality) it must be oracle_solve's on the instance as given, in
    # kind, certificate and witness
    budget, prm = Budget(6, 10 ** 4), PrmBudget(1024, 10 ** 6)
    rng = random.Random(17)
    families = ("detpm1", "detminus1", "utvec", "utmember", "mortality",
                "random")
    routed = set()
    for i in range(900):
        inst = random_instance(rng, families[i % len(families)])
        gens = [UTMat(*(rng.randint(-3, 3) for _ in range(3)))
                for _ in range(rng.randint(1, 3))]
        maps = [AffineMap(rng.randint(-3, 3), rng.randint(-3, 3))
                for _ in range(rng.randint(1, 3))]
        runs = [(inst, "auto"), (inst, "oracle"),
                (ProblemInstance(P.MORTALITY, gens), "oracle"),
                (ProblemInstance(P.AFFINE_MEMBERSHIP_Z, maps,
                                 target=AffineMap(rng.randint(-4, 4),
                                                  rng.randint(-4, 4))),
                 "oracle"),
                (ProblemInstance(P.AFFINE_REACHABILITY_Z, maps,
                                 x=rng.randint(-3, 3),
                                 y=rng.randint(-9, 9)), "oracle")]
        for one, solver in runs:
            v, used = dispatch(one, solver, budget, prm)
            if used != "oracle":
                continue
            want = oracle_solve(one, budget)
            assert (v.kind, v.certificate, v.witness) == \
                (want.kind, want.certificate, want.witness), one
            routed.add((one.problem, solver, v.kind))
    # every tag the random families and the encodings make, under auto
    # and named, with every kind of answer
    assert {p for p, _, _ in routed} == P.PROBLEM_TAGS - \
        {P.AFFINE_REACHABILITY_Q}
    assert {(s, k) for _, s, k in routed} == \
        {(s, k) for s in ("auto", "oracle") for k in ("yes", "no", "unknown")}


def test_solve_exit_codes_match_documents(tmp_path):
    # exit 0 only with a "yes" that verify accepts, 1 only with "no" and
    # 2 only with "unknown"; short --max-len makes all three common
    runner = CliRunner()
    f, r = tmp_path / "i.json", tmp_path / "r.json"
    rng = random.Random(11)
    families = ("detpm1", "detminus1", "utvec", "utmember", "mortality",
                "random")
    codes = set()
    for i in range(300):
        inst = random_instance(rng, families[i % len(families)])
        f.write_text(json.dumps(serialize_instance(inst)))
        res = runner.invoke(main, ["solve", str(f),
                                   "--max-len", str(1 + i % 4)])
        assert res.exit_code in (0, 1, 2), (inst, res.output)
        verdict = json.loads(res.output)["verdict"]
        assert verdict == ("yes", "no", "unknown")[res.exit_code], inst
        if res.exit_code == 0:
            r.write_text(res.output)
            assert runner.invoke(main, ["verify", str(f), str(r)]) \
                .exit_code == 0, (inst, res.output)
        codes.add(res.exit_code)
    assert codes == {0, 1, 2}
