"""Spans around the calls into each semireach module, for the traced run.

`Tracer.install` wraps every public function of the traced modules and
rebinds each module-level name that refers to one (the copies made by
`from .x import f`), so internal and cross-module calls both go through
the wrapper.  It also counts generator applications by wrapping
`Mat2`/`UTMat` `__mul__` and `apply` and `AffineMap` `compose` and
`apply`, and register-machine configurations
by wrapping `machines.poly_eval`.  Nothing in the package is edited; the
wrappers live until the process ends.

Spans stay in memory as (name, start_ns, end_ns, parent index, instance
id) and are written out by `Tracer.write`.  Self time is a span's
duration minus the time covered by its direct children; it is summed per
module as spans close.  While `Tracer.active` is false the wrappers only
call through, so the benchmark's own reference checks leave no spans.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter
from time import perf_counter_ns

TRACED_MODULES = ("cli", "oracle", "detpm1", "diophantine", "utsolvers",
                  "machines", "mortality")

# Counted, never spanned: a span per call would cost more than the call.
COUNTED_ONLY = {("machines", "poly_eval")}


class _Frame:
    __slots__ = ("index", "label", "module", "child_ns")

    def __init__(self, index, label, module):
        self.index, self.label, self.module = index, label, module
        self.child_ns = 0


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.instance = -1
        self.current = None      # label of the innermost open span
        self.self_ns = Counter()    # module -> self time
        self.total_ns = Counter()   # label -> time in outermost spans
        self.calls = Counter()      # label -> spans
        self.entries = Counter()    # module -> spans entered from outside it
        self.depth = Counter()      # label -> currently open spans
        self.muls = Counter()       # innermost label -> __mul__ calls
        self.applies = Counter()    # innermost label -> apply calls
        self.polys = Counter()      # innermost label -> poly_eval calls
        self.results = Counter()    # counts taken from return values
        self.ut_depth = 0           # open utsolvers spans
        self.active = True          # False while the benchmark checks

    # -- installation ------------------------------------------------------

    def install(self):
        pkg = {name: mod for name, mod in sys.modules.items()
               if name == "semireach" or name.startswith("semireach.")}
        replaced = {}
        for short in TRACED_MODULES:
            mod = pkg[f"semireach.{short}"]
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                if (short, name) in COUNTED_ONLY:
                    replaced[fn] = self._counter(self.polys, fn)
                else:
                    replaced[fn] = self._span(short, name, fn)
        for mod in pkg.values():
            for name, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in replaced:
                    setattr(mod, name, replaced[val])
        core = pkg["semireach.core"]
        for cls in (core.Mat2, core.UTMat):
            cls.__mul__ = self._counter(self.muls, cls.__mul__)
            cls.apply = self._counter(self.applies, cls.apply)
        # the oracle steps affine instances by composing or applying maps
        core.AffineMap.compose = self._counter(self.muls,
                                               core.AffineMap.compose)
        core.AffineMap.apply = self._counter(self.applies,
                                             core.AffineMap.apply)

    def _counter(self, counts, fn):
        def counted(*args):
            if self.active:
                counts[self.current] += 1
            return fn(*args)
        counted.__wrapped__ = fn
        return counted

    def _span(self, module, name, fn):
        label = f"{module}.{name}"
        on_result = _RESULT_HOOKS.get(label)
        spans, stack = self.spans, self.stack
        is_ut = module == "utsolvers"

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = _Frame(len(spans), label, module)
            spans.append(None)
            stack.append(frame)
            self.current = label
            self.depth[label] += 1
            if is_ut:
                self.ut_depth += 1
            elif label == "machines.reach_prm" and self.ut_depth:
                self.results["prm_in_ut"] += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                self.current = parent.label if parent else None
                self.depth[label] -= 1
                if is_ut:
                    self.ut_depth -= 1
                dur = end - start
                self.self_ns[module] += dur - frame.child_ns
                self.calls[label] += 1
                if not self.depth[label]:
                    self.total_ns[label] += dur
                if parent is None or parent.module != module:
                    self.entries[module] += 1
                    if is_ut:
                        self.results["ut_queries"] += 1
                if parent is not None:
                    parent.child_ns += dur
                spans[frame.index] = (label, start, end,
                                      parent.index if parent else -1,
                                      self.instance)
            if on_result is not None and self.depth[label] == 0:
                on_result(self.results, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- output ------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns",
                                            "parent", "instance"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def metrics(self) -> dict:
        """Per-layer numbers over everything traced so far."""
        def secs(ns):
            return ns / 1e9

        def ratio(num, den):
            return num / den if den else 0.0

        c, r = self.calls, self.results
        out = {f"{m}.self_s": secs(self.self_ns[m]) for m in TRACED_MODULES}
        oracle_ns = self.total_ns["oracle.oracle_solve"]
        nodes = self.muls["oracle.oracle_solve"] + \
            self.applies["oracle.oracle_solve"]
        out.update({
            "oracle.calls": c["oracle.oracle_solve"],
            "oracle.nodes": nodes,
            "oracle.nodes_per_s": ratio(nodes, oracle_ns / 1e9),
            "oracle.replay_s": secs(self.total_ns["oracle.replay"]),
            "core.mul_calls": sum(self.muls.values()),
            "core.apply_calls": sum(self.applies.values()),
        })
        for fn in ("nonneg_combination", "combo_value_set", "solve_linear"):
            out[f"diophantine.{fn}_s"] = secs(
                self.total_ns[f"diophantine.{fn}"])
            out[f"diophantine.{fn}_calls"] = c[f"diophantine.{fn}"]
        out["diophantine.components"] = r["components"]
        out["diophantine.solve_linear_unknown_ratio"] = ratio(
            r["solve_linear_unknown"], r["solve_linear_outer"])
        out["detpm1.calls"] = self.entries["detpm1"]
        out["detpm1.value_set_s"] = secs(self.total_ns["detpm1.value_set"])
        out["detpm1.realize_run_s"] = secs(self.total_ns["detpm1.realize_run"])
        for fn in UTSOLVERS_ENTRY_POINTS:
            out[f"utsolvers.{fn}_calls"] = c[f"utsolvers.{fn}"]
        out["utsolvers.prm_per_query"] = ratio(r["prm_in_ut"],
                                               r["ut_queries"])
        prm_ns = self.total_ns["machines.reach_prm"]
        configs = self.polys["machines.reach_prm"]
        out.update({
            "machines.reach_prm_calls": c["machines.reach_prm"],
            "machines.configs": configs,
            "machines.configs_per_s": ratio(configs, prm_ns / 1e9),
            "machines.unknown_ratio": ratio(r["reach_prm_unknown"],
                                            r["reach_prm_outer"]),
            "mortality.calls": self.entries["mortality"],
        })
        return out


UTSOLVERS_ENTRY_POINTS = (
    "solve_vecreach_ut22", "solve_membership_nonzero_diag",
    "solve_membership_one_zero", "reduce_membership_to_scalar",
    "build_case_split", "reduce_signinv_scalar_to_membership",
    "solve_signinv_scalar", "ut_mortality")


def _components(results, value):
    results["components"] += len(value.components)


def _solve_linear(results, value):
    results["solve_linear_outer"] += 1
    results["solve_linear_unknown"] += value.kind == "unknown"


def _reach_prm(results, value):
    results["reach_prm_outer"] += 1
    results["reach_prm_unknown"] += value.kind == "unknown"


# Hooks see the return value of outermost calls only (combo_value_set
# calls itself once per parity).
_RESULT_HOOKS = {"diophantine.combo_value_set": _components,
                 "diophantine.solve_linear": _solve_linear,
                 "machines.reach_prm": _reach_prm}


def kernel_ns(batch: int = 20000, repeats: int = 5) -> dict:
    """Fixed-batch timings of the core matrix kernels, ns per operation,
    median of `repeats` batches.  Run before install()."""
    from statistics import median
    from semireach.core import Mat2, UTMat

    def time_batch(op, *args):
        samples = []
        for _ in range(repeats):
            start = perf_counter_ns()
            for _ in range(batch):
                op(*args)
            samples.append((perf_counter_ns() - start) / batch)
        return median(samples)

    m, n = Mat2(2, -3, 1, 5), Mat2(-1, 4, 7, 2)
    u, v = UTMat(2, -3, 5), UTMat(-1, 4, 2)
    return {"core.mat2_mul_ns": time_batch(Mat2.__mul__, m, n),
            "core.utmat_mul_ns": time_batch(UTMat.__mul__, u, v),
            "core.mat2_hash_ns": time_batch(Mat2.__hash__, m)}
