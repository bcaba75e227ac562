"""Span recorder that measures kfwer's layers from outside.

``Tracer.install`` replaces each wrapped public function in every kfwer
namespace that binds it, because ``from .core import order_pvalues``
and friends copy the binding into the importing module. Spans (group,
start, end, parent) go to arrays in memory and are written out once,
at the end. Self time is a span's duration minus the durations of its
direct children; the program is single-threaded, so children never
overlap.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter

MODULES = ("kfwer", "kfwer.core", "kfwer.bounds", "kfwer.procedures", "kfwer.simulation",
           "kfwer.verify", "kfwer.cli")


def _family_entries(result, args):
    m = result.n - result.k + 1
    return {"procedures.family.entries": m * (m + 1) // 2}


def _decision(result, args):
    return {"procedures.rejected": result.num_rejected}


def _closed(result, args):
    return {"procedures.rejected": result.num_rejected, "procedures.closed_testing.masks": (1 << result.family.n) - 1}


def _d1_terms(result, args):
    m = args[0].n - args[0].k + 1
    return {"bounds.d1.terms": m * (m + 1) // 2}


def _theorem(result, args):
    if result.theorem != "4.3":
        return {}
    return {"verify.t43.accepted": result.trials, "verify.t43.filtered": result.notes.get("condition_filtered", 0)}


# (defining module, function name) -> (metric group, layer, counter hook)
WRAPPED = {
    ("kfwer.cli", "main"): ("cli.main", "cli", None),
    ("kfwer.core", "order_pvalues"): ("core.order_pvalues", "core",
                                      lambda r, a: {"core.order_pvalues.values": r.n}),
    ("kfwer.core", "validate_schedule"): ("core.validate_schedule", "core", None),
    ("kfwer.core", "validate_family"): ("core.validate_family", "core", None),
    ("kfwer.bounds", "d1"): ("bounds.d1", "bounds", _d1_terms),
    ("kfwer.procedures", "lehmann_romano_schedule"): ("procedures.schedule", "procedures", None),
    ("kfwer.procedures", "romano_shaikh_schedule"): ("procedures.schedule", "procedures", None),
    ("kfwer.procedures", "constant_family"): ("procedures.family", "procedures", _family_entries),
    ("kfwer.procedures", "simes_family"): ("procedures.family", "procedures", _family_entries),
    ("kfwer.procedures", "scaled_family"): ("procedures.family", "procedures", _family_entries),
    ("kfwer.procedures", "stepdown_as_family"): ("procedures.family", "procedures", _family_entries),
    ("kfwer.procedures", "stepup_as_family"): ("procedures.family", "procedures", _family_entries),
    ("kfwer.procedures", "stepdown"): ("procedures.stepdown", "procedures", _decision),
    ("kfwer.procedures", "stepup"): ("procedures.stepup", "procedures", _decision),
    ("kfwer.procedures", "generalized_hommel"): ("procedures.generalized_hommel", "procedures", _decision),
    ("kfwer.procedures", "closed_testing"): ("procedures.closed_testing", "procedures", _closed),
    ("kfwer.simulation", "generate_pvalues"): ("simulation.generate_pvalues", "simulation",
                                               lambda r, a: {"simulation.draws": r.n + 1}),
    ("kfwer.simulation", "estimate_kfwer"): ("simulation.estimate_kfwer", "simulation", None),
    ("kfwer.simulation", "build_procedure"): ("simulation.build_procedure", "simulation", None),
    ("kfwer.verify", "random_pvalues"): ("verify.generate", "verify", None),
    ("kfwer.verify", "random_schedule"): ("verify.generate", "verify", None),
    ("kfwer.verify", "random_family"): ("verify.generate", "verify", None),
    ("kfwer.verify", "random_diagonal_family"): ("verify.generate", "verify", None),
    ("kfwer.verify", "schedule_from_family"): ("verify.generate", "verify", None),
    ("kfwer.verify", "run_theorem_trials"): ("verify.run_theorem_trials", "verify", _theorem),
}

GROUPS = sorted({group for group, _, _ in WRAPPED.values()})


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.group_ids = {g: i for i, g in enumerate(GROUPS)}
        self.group = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._patches = []  # (module, attribute, original)

    def _wrap(self, fn, group, layer, hook):
        gid = self.group_ids[group]
        calls_key = group + ".calls"
        errors_key = layer + ".errors"
        g_append, p_append, s_append, e_append = (self.group.append, self.parent.append,
                                                  self.start.append, self.end.append)
        starts, ends, stack, counters = self.start, self.end, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            g_append(gid)
            p_append(stack[-1])
            s_append(0.0)
            e_append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counters[errors_key] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            counters[calls_key] += 1
            if hook is not None:
                counters.update(hook(result, args))
            return result

        return traced

    def install(self) -> None:
        """Patch every kfwer namespace that binds a wrapped function."""
        modules = [importlib.import_module(name) for name in MODULES]
        for (home, name), (group, layer, hook) in WRAPPED.items():
            original = getattr(importlib.import_module(home), name)
            wrapper = self._wrap(original, group, layer, hook)
            for module in modules:
                if getattr(module, name, None) is original:
                    self._patches.append((module, name, original))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def mark(self) -> int:
        """Index of the next span, to delimit one cycle's spans."""
        return len(self.start)

    def self_times(self, lo: int, hi: int) -> dict:
        """Self time per group over spans [lo, hi), in seconds."""
        import numpy as np

        start = np.frombuffer(self.start, dtype=np.float64)[lo:hi]
        end = np.frombuffer(self.end, dtype=np.float64)[lo:hi]
        group = np.frombuffer(self.group, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        duration = end - start
        child = np.zeros(hi - lo + 1)
        inside = parent >= lo
        np.add.at(child, np.where(inside, parent - lo, hi - lo), duration)
        own = duration - child[:-1]
        per_group = np.bincount(group, weights=own, minlength=len(GROUPS))
        return {g: float(per_group[i]) for g, i in self.group_ids.items()}

    def write(self, path: str) -> None:
        """Write all spans: group index, parent span index, start, end."""
        import numpy as np

        np.savez(path, groups=np.array(GROUPS), group=np.frombuffer(self.group, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))
