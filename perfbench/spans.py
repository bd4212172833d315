"""In-memory span tracer wrapped around polyvisc's call sites from outside.

Each wrapped call records one span (name, start, end, parent) while the
tracer is enabled. Wrapping replaces the attribute a caller module looks up
at call time (``uniaxial.integrate``, ``evolution.eig_sym`` ...), so nothing
in ``src/`` changes. A layer's self time is its spans' durations minus the
parts their child spans cover. Counters come from the program's own result
objects (solver step counts, simplex evaluations) or from counting calls.
"""

from __future__ import annotations

import dataclasses
import os
import time
from array import array
from collections import Counter

import numpy as np

# (module attribute holder, attribute, span name); the module objects are
# resolved in ``install`` so importing this file imports nothing of polyvisc.
_PLAIN_SITES = (
    ("uniaxial", "solve_B", "uniaxial.solve_B"),
    ("uniaxial", "simulate_creep", "uniaxial.simulate_creep"),
    ("fitting", "simulate_creep", "uniaxial.simulate_creep"),
    ("dataio", "simulate_creep", "uniaxial.simulate_creep"),
    ("fitting", "creep_error", "fitting.creep_error"),
    ("tensors", "eig_sym", "tensors.eig_sym"),
    ("evolution", "eig_sym", "tensors.eig_sym"),
    ("evolution", "_sylvester_from_decomp", "tensors.sylvester"),
    ("evolution", "check_dissipation_identity", "material.identity_check"),
    ("dataio", "load_dataset", "dataio.load_dataset"),
    ("cli", "main", "cli.main"),
)
_METHOD_SITES = (
    ("odesolve", "OdeSolution", "__call__", "odesolve.dense"),
    ("kinematics", "MotionProtocol", "F", "kinematics.protocol"),
    ("kinematics", "MotionProtocol", "L", "kinematics.protocol"),
)
_EXPORTS = ("save_curve", "save_svg", "save_trajectory")


class Tracer:
    def __init__(self):
        self.enabled = False
        self._names: list = []
        self._ids: dict = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list = []
        self.counts: Counter = Counter()
        self._undo: list = []

    def reset(self) -> None:
        for arr in (self._name, self._parent, self._start, self._end):
            del arr[:]
        self._stack.clear()
        self.counts = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so each call while enabled records a span."""
        nid = self._id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self._start)
            self._name.append(nid)
            self._parent.append(self._stack[-1] if self._stack else -1)
            self._start.append(clock())
            self._end.append(0.0)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end[idx] = clock()
                self._stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _patch(self, holder, attr: str, replacement) -> None:
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, replacement)

    def install(self, mods: dict) -> None:
        """Wrap every call site; ``mods`` maps short names to polyvisc modules."""
        for mod, attr, name in _PLAIN_SITES:
            self._patch(mods[mod], attr, self.span(name, getattr(mods[mod], attr)))

        def count_points(args, result):
            self.counts["odesolve.dense.points"] += int(np.size(args[1]))

        for mod, cls, attr, name in _METHOD_SITES:
            holder = getattr(mods[mod], cls)
            hook = count_points if name == "odesolve.dense" else None
            self._patch(holder, attr, self.span(name, getattr(holder, attr), hook))

        def count_bytes(args, result):
            self.counts["dataio.bytes_written"] += os.path.getsize(args[1])

        for attr in _EXPORTS:
            self._patch(mods["dataio"], attr,
                        self.span("dataio.export", getattr(mods["dataio"], attr), count_bytes))

        def count_samples(args, result):
            self.counts["evolution.samples"] += len(result)

        self._patch(mods["evolution"], "drive",
                    self.span("evolution.drive", mods["evolution"].drive, count_samples))
        for mod in ("uniaxial", "evolution"):
            self._patch(mods[mod], "integrate",
                        self._traced_integrate(mods[mod].integrate, f"{mod}.rhs",
                                               mods["odesolve"].IntegrationError))
        self._patch(mods["fitting"], "nelder_mead",
                    self._traced_simplex(mods["fitting"].nelder_mead, mods["fitting"].PENALTY))

    def _traced_integrate(self, integrate, rhs_name: str, integration_error):
        def add_steps(sol):
            self.counts["odesolve.steps_accepted"] += sol.n_accepted
            self.counts["odesolve.steps_rejected"] += sol.n_rejected

        def run(problem, step_hook=None):
            if not self.enabled:
                return integrate(problem, step_hook)

            problem = dataclasses.replace(problem, rhs=self.span(rhs_name, problem.rhs))
            if step_hook is not None:
                step_hook = self.span("odesolve.step_hook", step_hook)
            try:
                sol = integrate(problem, step_hook)
            except integration_error as exc:
                if exc.partial is not None:
                    add_steps(exc.partial)
                raise
            add_steps(sol)
            return sol

        return self.span("odesolve.integrate", run)

    def _traced_simplex(self, nelder_mead, penalty: float):
        def run(f, x0, **kwargs):
            if not self.enabled:
                return nelder_mead(f, x0, **kwargs)

            def objective(x):
                value = f(x)
                if value >= penalty:
                    self.counts["fitting.penalties"] += 1
                return value

            res = nelder_mead(objective, x0, **kwargs)
            self.counts["fitting.objective_evals"] += res.n_fev
            self.counts["fitting.iterations"] += res.iterations
            return res

        return self.span("fitting.nelder_mead", run)

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def layer_totals(self) -> dict:
        """Per span name: number of calls and summed self time (s)."""
        names = np.frombuffer(self._name, dtype=np.int32)
        parents = np.frombuffer(self._parent, dtype=np.int32)
        dur = np.frombuffer(self._end, dtype=float) - np.frombuffer(self._start, dtype=float)
        covered = np.zeros(dur.size)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], dur[has_parent])
        self_time = dur - covered
        calls = np.bincount(names, minlength=len(self._names))
        total = np.bincount(names, weights=self_time, minlength=len(self._names))
        return {n: (int(calls[i]), float(total[i])) for i, n in enumerate(self._names)}
