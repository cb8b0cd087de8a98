#!/usr/bin/env python3
"""semireach benchmark: seeded workloads, each a closed loop with one
client (one thread, one instance at a time) in its own process.

    python3 bench/run.py --workload msum-exact --seed 1 --trace 0
    python3 bench/run.py          # every workload, one process each

Run it from the repository root; it imports semireach from ./src and
nothing else.  Each instance follows the path of `semireach solve`
(msum-exact, ut-prm) or of `semireach xcheck` (xcheck-oracle), minus
process start-up, and every verdict is checked against the workload's
reference.  Times are CPU times, scaled to a reference machine speed
(see KERNEL_REF_S).  With --trace 0 the run prints the end-to-end
metrics, each instance timed on its first run; with
--trace 1 it runs one pass over the corpus untraced, then the same pass
with spans around every call into a semireach module, prints the
per-layer metrics and writes the spans to .bench_traces/.  --seconds
defaults to BENCHMARK.json's run_seconds, the value the corpus sizes are
tuned to.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Exit status is 1 when a verdict contradicts its reference, a witness
does not replay or a solver crashes, and 2 when ./src/semireach is
absent.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, thread_time
from typing import Optional

from workloads import MEMORY_SLICES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_traces"
CAP_S = 10.0  # per-instance wall-clock cap
SETUP_REPEATS = 5
# Machine speed.  On a shared virtual machine the CPU runs 10-40% slower
# for periods of tens of seconds, long enough to cover whole runs, and
# every time metric of a run moves with it.  The run therefore times
# speed_kernel() every KERNEL_EVERY_S and reports times at the speed where
# the kernel takes KERNEL_REF_S: each time is multiplied by
# KERNEL_REF_S / (the run's median kernel time).
KERNEL_REF_S = 0.004
KERNEL_EVERY_S = 0.25
ROUTES = ("detminus1", "detpm1", "utmember", "utvec", "mortality",
          "machines", "oracle")
VERDICTS = ("yes", "no", "unknown")
# failure kinds that mean a wrong or missing answer, not a slow one
INCORRECT = ("contradiction", "bad-witness", "disagreement", "crash")


class InstanceTimeout(BaseException):
    """Raised by SIGALRM when an instance exceeds CAP_S.  Not an
    Exception, so no handler inside the solvers can swallow it."""


def _on_alarm(signum, frame):
    raise InstanceTimeout()


@dataclass
class Result:
    index: int
    seconds: float  # CPU time of the timed path
    kind: str  # a verdict kind, "timeout" or "crash"
    route: str = ""
    failure: Optional[str] = None  # kind of failure, None when correct
    detail: str = ""


def speed_kernel() -> float:
    """CPU time of a fixed pure-Python loop.  It uses nothing from
    semireach and allocates no object the garbage collector tracks, so no
    change to the program can move it; only the machine's speed does."""
    start = thread_time()
    total, table = 0, {}
    for i in range(20000):
        total += i * i % 7
        table[i & 1023] = total
    return thread_time() - start


def speed_scale(samples) -> float:
    """Factor that turns this machine's times into reference-speed times."""
    return KERNEL_REF_S / statistics.median(samples)


# ---------------------------------------------------------------------------
# Set-up


def build_corpus(workload: str, seed: int):
    """Import semireach.cli from ./src and build the workload's corpus and
    memory slice."""
    import semireach.cli
    if Path(semireach.cli.__file__).resolve().parent != SRC / "semireach":
        raise ImportError(f"semireach imported from {semireach.cli.__file__}")
    build, _ = WORKLOADS[workload]
    deep = MEMORY_SLICES.get(workload)
    return semireach.cli, build(seed), deep(seed) if deep else []


def timed_setup(workload: str, seed: int) -> tuple[float, float]:
    """CPU time of one build_corpus in a forked child, which starts with
    no semireach module loaded and takes its import and corpus with it
    when it exits, so neither reaches this process's peak RSS; and the
    speed scale measured right after it."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read)
            start = thread_time()
            build_corpus(workload, seed)
            elapsed = thread_time() - start
            scale = speed_scale([speed_kernel() for _ in range(9)])
            os.write(write, f"{elapsed!r} {scale!r}".encode())
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write)
    with os.fdopen(read) as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not text:
        raise RuntimeError(f"set-up of {workload} failed in a child process")
    elapsed, scale = map(float, text.split())
    return elapsed, scale


def setup(workload: str, seed: int):
    """The median set-up time of SETUP_REPEATS set-ups in child processes,
    at reference speed and as measured, then the set-up this process
    measures with."""
    if any(n.split(".")[0] == "semireach" for n in sys.modules):
        raise RuntimeError("semireach imported before set-up was timed")
    runs = [timed_setup(workload, seed) for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(t * scale for t, scale in runs)
    raw_setup_s = statistics.median(t for t, _ in runs)
    return (*build_corpus(workload, seed), setup_s, raw_setup_s)


def references(workload: str, cases) -> list:
    """The reference answer of each case, computed once per distinct
    input (the msum-exact encodings of one input share theirs)."""
    _, reference = WORKLOADS[workload]
    known = {}
    for case in cases:
        if case.ref not in known:
            known[case.ref] = reference(case)
    return [known[case.ref] for case in cases]


# ---------------------------------------------------------------------------
# One instance: the timed path, then the untimed check


def solve_path(cli, case):
    """`semireach solve` minus process start-up."""
    inst = cli.parse_instance(json.loads(case.text))
    verdict, used = cli.dispatch(inst, "auto", case.budget, case.prm)
    budget = {"max-len": case.budget.max_len,
              "max-magnitude": case.prm.max_magnitude,
              "max-steps": case.prm.max_steps}
    out = json.dumps(cli.serialize_result(verdict, used, budget))
    return verdict.kind, used, (inst, out)


def check_solve(cli, case, expect, kind, route, state):
    """(failure kind, detail) for a solve-path result; (None, "") if it
    holds up."""
    inst, out = state
    doc = json.loads(out)
    verdict = doc["verdict"]
    if verdict == "no" and case.planted:
        return "contradiction", "no on a planted instance"
    if verdict != "unknown" and expect is not None and \
            (verdict == "yes") != expect:
        return "contradiction", f"{verdict}, reference says {expect}"
    if verdict == "yes":
        diag = cli.replay_instance(inst, [int(i) for i in doc["witness"]])
        if diag is not None:
            return "bad-witness", diag
    return None, ""


def xcheck_path(cli, case):
    """One iteration of the `semireach xcheck` loop."""
    verdict, used = cli.dispatch(case.inst, "auto", case.budget, case.prm)
    oracle = cli.oracle_solve(case.inst, case.budget)
    diag = cli.replay_instance(case.inst, verdict.witness) \
        if verdict.is_yes else None
    return verdict.kind, used, (oracle, diag)


def check_xcheck(cli, case, expect, kind, route, state):
    oracle, diag = state
    if diag is not None:
        return "bad-witness", diag
    if kind != "unknown" and oracle.definitive and \
            (kind == "yes") != oracle.is_yes:
        return "disagreement", f"{route} says {kind}, oracle {oracle.kind}"
    return None, ""


PATHS = {"msum-exact": (solve_path, check_solve),
         "xcheck-oracle": (xcheck_path, check_xcheck),
         "ut-prm": (solve_path, check_solve)}


def run_one(cli, workload, cases, refs, index, tracer=None) -> Result:
    """Run one instance under the wall-clock cap, timing its CPU time,
    then check it with the tracer (if any) paused."""
    path, check = PATHS[workload]
    case = cases[index]
    signal.setitimer(signal.ITIMER_REAL, CAP_S)
    start = thread_time()
    try:
        kind, route, state = path(cli, case)
        elapsed = thread_time() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    except InstanceTimeout:
        return Result(index, thread_time() - start, "timeout",
                      failure="timeout", detail=f"over {CAP_S} s")
    except Exception:
        elapsed = thread_time() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        return Result(index, elapsed, "crash", failure="crash",
                      detail=traceback.format_exc(limit=-1).strip())
    if tracer is not None:
        tracer.active = False
    try:
        failure, detail = check(cli, case, refs[index], kind, route, state)
    finally:
        if tracer is not None:
            tracer.active = True
    return Result(index, elapsed, kind, route, failure, detail)


def run_loop(cli, workload, cases, refs, *, until=None, count=None,
             tracer=None, speed=None) -> list[Result]:
    """Closed loop over the corpus in order, wrapping around, until the
    wall-clock deadline `until` passes or `count` instances have run.
    With a `speed` list, a speed_kernel() time is appended to it every
    KERNEL_EVERY_S, between instances."""
    results = []
    i = 0
    next_kernel = perf_counter()
    while (count is None or i < count) and \
            (until is None or perf_counter() < until):
        if speed is not None and perf_counter() >= next_kernel:
            speed.append(speed_kernel())
            next_kernel = perf_counter() + KERNEL_EVERY_S
        index = i % len(cases)
        if tracer is not None:
            tracer.instance = index
        results.append(run_one(cli, workload, cases, refs, index, tracer))
        i += 1
    return results


def first_runs(results) -> list[Result]:
    """The first run of each instance that ran.  Each corpus takes about
    one run's time for one pass; when a faster program wraps round, the
    repeats are not timed again, so state kept across calls gains
    nothing."""
    first = {}
    for r in results:
        first.setdefault(r.index, r)
    return list(first.values())



# ---------------------------------------------------------------------------
# Reporting


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(rows, setup_s, scale=1.0) -> dict:
    """The end-to-end metrics, with instance times multiplied by
    `scale`."""
    times = [r.seconds * scale for r in rows]
    completed = sum(r.kind in VERDICTS for r in rows)
    decided = sum(r.kind in ("yes", "no") for r in rows)
    return {"instances_per_s": completed / sum(times),
            "latency_p50_ms": 1000 * statistics.median(times),
            "latency_p95_ms": 1000 * quantile(times, 0.95),
            "decided_ratio": decided / len(rows),
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": setup_s}


def print_curves(workload, cases, rows, scale):
    """Median and maximum instance time at each sweep point, at reference
    speed."""
    by_point = {}
    for r in rows:
        by_point.setdefault(cases[r.index].point, []).append(
            (r.seconds * scale, r))
    for point in sorted(by_point, key=lambda p: (len(p), p)):
        rows = by_point[point]
        times = [t * 1000 for t, _ in rows]
        print(f"curve {workload} {point}: n={len(rows)} "
              f"median_ms={statistics.median(times):.3f} "
              f"max_ms={max(times):.3f} "
              f"timeouts={sum(r.kind == 'timeout' for _, r in rows)}")


def report_failures(workload, cases, results) -> int:
    """Print each failed instance once; returns the number of failed
    executions."""
    seen = set()
    for r in results:
        if r.failure is None or r.index in seen:
            continue
        seen.add(r.index)
        case = cases[r.index]
        print(f"FAIL {workload} instance #{r.index} ({case.point}, "
              f"{case.label}): {r.failure}: {r.detail}")
    return sum(r.failure is not None for r in results)


def emit(correct, attempted, failed, metrics, units) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))


# ---------------------------------------------------------------------------
# Runs


def untraced_run(args) -> int:
    cli, cases, deep, setup_s, raw_setup_s = setup(args.workload, args.seed)
    refs = references(args.workload, cases)
    signal.signal(signal.SIGALRM, _on_alarm)
    speed = []
    wall = perf_counter()
    results = run_loop(cli, args.workload, cases, refs,
                       until=wall + args.seconds, speed=speed)
    wall = perf_counter() - wall
    rss_before_slice = peak_rss_mb()
    # the memory slice: checked and counted, outside the time metrics
    deep_results = run_loop(cli, args.workload, deep,
                            references(args.workload, deep), count=len(deep))
    failed = report_failures(args.workload, cases, results) + \
        report_failures(f"{args.workload} memory-slice", deep, deep_results)
    attempted = len(results) + len(deep_results)
    incorrect = any(r.failure in INCORRECT for r in results + deep_results)
    rows = first_runs(results)
    scale = speed_scale(speed)
    metrics = end_to_end(rows, setup_s, scale)
    raw = end_to_end(rows, raw_setup_s)
    print(f"workload {args.workload} seed {args.seed}: corpus "
          f"{len(cases)}, attempted {len(results)} "
          f"({len(results) / len(cases):.2f} passes) in {wall:.1f} s wall")
    if deep:
        print(f"memory slice {args.workload}: {len(deep)} instances; peak "
              f"RSS {rss_before_slice:.1f} MB before it")
    print(f"speed {args.workload}: kernel median "
          f"{1000 * KERNEL_REF_S / scale:.4f} ms over {len(speed)} samples "
          f"(reference {1000 * KERNEL_REF_S} ms), scale {scale:.4f}")
    print_curves(args.workload, cases, rows, scale)
    metrics_line = dict(metrics, failed_ratio=failed / attempted)
    units = dict(declared_units("end_to_end"), failed_ratio="ratio")
    for name, value in metrics_line.items():
        print(f"metric {args.workload} {name} {value:.6g} {units[name]}")
    for name in ("instances_per_s", "latency_p50_ms", "latency_p95_ms",
                 "setup_s"):
        print(f"raw {args.workload} {name} {raw[name]:.6g} {units[name]}")
    emit(not incorrect, attempted, failed, metrics, units)
    return 1 if incorrect else 0


def traced_run(args) -> int:
    import tracing
    cli, cases, _ = build_corpus(args.workload, args.seed)
    refs = references(args.workload, cases)
    signal.signal(signal.SIGALRM, _on_alarm)
    kernels = tracing.kernel_ns()
    plain = run_loop(cli, args.workload, cases, refs, count=len(cases))
    tracer = tracing.Tracer()
    tracer.install()
    traced = run_loop(cli, args.workload, cases, refs, count=len(cases),
                      tracer=tracer)
    failed = report_failures(args.workload, cases, plain + traced)
    incorrect = any(r.failure in INCORRECT for r in plain + traced)
    metrics = dict(kernels)
    metrics.update(tracer.metrics())
    for route in ROUTES:
        metrics[f"cli.route.{route}"] = sum(r.route == route for r in traced)
    metrics["trace.overhead_ratio"] = \
        sum(r.seconds for r in traced) / sum(r.seconds for r in plain)
    TRACE_DIR.mkdir(exist_ok=True)
    trace_file = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
    tracer.write(trace_file)
    units = declared_units("per_layer")
    print(f"workload {args.workload} seed {args.seed}: one pass over "
          f"{len(cases)} instances, {len(tracer.spans)} spans "
          f"in {trace_file.relative_to(ROOT)}")
    for name in sorted(metrics):
        print(f"layer {args.workload} {name} {metrics[name]:.6g} "
              f"{units[name]}")
    emit(not incorrect, len(plain) + len(traced), failed, metrics, units)
    return 1 if incorrect else 0


def declared_units(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def all_workloads(args) -> int:
    """Each workload in its own process; prints their output and one
    combined JSON line with workload-prefixed metric names.  A workload
    that exits non-zero or prints no result makes `correct` false."""
    status, correct, attempted, failed, metrics = 0, True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status, correct = proc.returncode, False
        try:
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            status, correct = status or 1, False
            continue
        correct &= doc["correct"]
        attempted += doc["attempted"]
        failed += doc["failed"]
        metrics.update({f"{name}.{k}": v for k, v in doc["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json")
                                           .read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "semireach" / "__init__.py").is_file():
        print(f"error: no semireach package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return all_workloads(args)
    return traced_run(args) if args.trace else untraced_run(args)


if __name__ == "__main__":
    sys.exit(main())
