"""Spans around the public functions of each batsnum module, from outside.

`Tracer.install` replaces each target with a wrapper on the object the
caller looks the name up on: a module, the package, or a class for
methods. Spans (name, start, end, parent) are kept in memory in parallel
lists; `summary` folds them into calls, total seconds and self seconds
per name, where self time is a span's duration minus that of its direct
children. Hooks on some targets count what a span returned.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self.counters = Counter()
        self._stack = [-1]
        self._patches = []

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """A span of the benchmark's own around a block."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, owner, attr, name, hook=None):
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                out = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer.counters, args, kwargs, out)
            return out

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self, targets):
        for owner, attr, name, hook in targets:
            self.wrap(owner, attr, name, hook)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self, within=None):
        """{name: {"calls", "s", "self_s"}} over spans, optionally only those
        nested in the span index `within` (itself included)."""
        n = len(self.names)
        child = [0.0] * n
        keep = [within is None] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
            if within is not None:
                keep[i] = i == within or (p >= 0 and keep[p])
        out = {}
        for i in range(n):
            if not keep[i]:
                continue
            dur = self.end[i] - self.start[i]
            row = out.setdefault(self.names[i],
                                 {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child[i]
        return out


def _count_moves(counters, args, kwargs, out):
    init_m = kwargs.get("init_m", args[3] if len(args) > 3 else None)
    if init_m is not None and list(out.m) != [int(x) for x in init_m]:
        counters["local_search.moved"] += 1


def _count_rank(counters, args, kwargs, out):
    counters["row_reduce.rows"] += len(args[0])
    counters["row_reduce.rank"] += out[1]


def targets(batsnum):
    """(owner, attribute, span name, hook) for every traced function."""
    from batsnum import ffmat, netmodel, rankcalc, recoding, scenarios, sim, \
        solvers
    return [
        (batsnum, "load_scenario", "scenarios.load_scenario", None),
        (scenarios, "scenario_from_config", "scenarios.scenario_from_config",
         None),
        # Scenario.loss_model looks the estimators up in solvers' namespace
        (solvers, "empirical_loss_model", "loss.empirical_loss_model", None),
        (solvers, "independent_loss_model", "loss.independent_loss_model",
         None),
        (rankcalc, "rank_pmf_table", "rankcalc.rank_pmf_table", None),
        (rankcalc, "hop_tables", "rankcalc.hop_tables", None),
        (rankcalc, "expected_rank_table", "rankcalc.expected_rank_table",
         None),
        (rankcalc, "transition_matrix", "rankcalc.transition_matrix", None),
        (netmodel.Network, "link", "netmodel.Network.link", None),
        (netmodel.Network, "link_index", "netmodel.Network.link_index", None),
        (netmodel, "enumerate_feasible_schedules",
         "netmodel.enumerate_feasible_schedules", None),
        (recoding, "optimize_hop", "recoding.optimize_hop", None),
        (solvers, "solve_up", "solvers.solve_up", None),
        (solvers, "solve_nap", "solvers.solve_nap", None),
        (solvers, "two_step_solve", "solvers.two_step_solve", None),
        (solvers, "flow_subproblem_local_search",
         "solvers.flow_subproblem_local_search", _count_moves),
        (ffmat, "gf_matmul", "ffmat.gf_matmul", None),
        (ffmat, "row_reduce", "ffmat.row_reduce", _count_rank),
        (sim, "run_simulation", "sim.run_simulation", None),
        (sim, "recode_batch", "sim.recode_batch", None),
        (sim, "build_tdma_frame", "sim.build_tdma_frame", None),
    ]
