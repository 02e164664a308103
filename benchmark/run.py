#!/usr/bin/env python3
"""Benchmark of batsnum: one workload in one single-threaded process.

    python3 benchmark/run.py --workload solve_iid_case1 --seed 1 \
        --seconds 20 --trace 0

Workloads (see README.md in this directory):

  solve_iid_case1     solve_up, solve_nap, two_step_solve on case 1, iid loss
  solve_ge_case1      the same pipeline with Gilbert-Elliott loss
  simulate_iid_case1  run_simulation of the committed case-1 solution

`--seed` is the simulator's `rng_seed`. The solve workloads are the preset
instances that `batsnum reproduce` solves (scenario `seeds.loss_model` = 1),
so their inputs are the same for every seed.

With `--trace 0` the run times set-up in separate processes (median of
SETUP_PROBES), sets up itself, then repeats whole rounds of the operation
until `--seconds` have passed (at least one round), checks every round's
outputs, and reports the end-to-end metrics. With `--trace 1` it sets up
once under tracing, runs one untraced and one traced round, and reports
the per-layer metrics. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; a copy with the check
details and the environment goes to benchmark/results/.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
SOLUTION_DOC = HERE / "data" / "case1-iid-two-step.json"

WORKLOADS = {
    "solve_iid_case1": ("solve", "iid"),
    "solve_ge_case1": ("solve", "ge"),
    "simulate_iid_case1": ("simulate", "iid"),
}
SIM_SLOTS = 100_000
SETUP_PROBES = 3

END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB", "kappa_pct": "%"}

# (per-layer metric, unit); BENCHMARK.json lists the same names
PER_LAYER = [
    ("solvers.flow_subproblem_local_search.calls", "count"),
    ("solvers.flow_subproblem_local_search.s", "s"),
    ("solvers.local_search.moved_ratio", "ratio"),
    ("solvers.solve_nap.dual_iterations", "count"),
    ("solvers.solve_nap.candidates", "count"),
    ("solvers.solve_nap.self_s", "s"),
    ("solvers.solve_up.s", "s"),
    ("solvers.two_step_solve.s", "s"),
    ("recoding.optimize_hop.calls", "count"),
    ("recoding.optimize_hop.s", "s"),
    ("rankcalc.transition_matrix.calls", "count"),
    ("rankcalc.transition_matrix.s", "s"),
    ("netmodel.Network.link_index.calls", "count"),
    ("netmodel.Network.link.calls", "count"),
    ("loss.empirical_loss_model.calls", "count"),
    ("loss.empirical_loss_model.s", "s"),
    ("rankcalc.rank_pmf_table.s", "s"),
    ("rankcalc.hop_tables.s", "s"),
    ("sim.run_simulation.self_s", "s"),
    ("sim.recode_batch.calls", "count"),
    ("sim.recode_batch.s", "s"),
    ("ffmat.gf_matmul.calls", "count"),
    ("ffmat.gf_matmul.s", "s"),
    ("ffmat.row_reduce.calls", "count"),
    ("ffmat.row_reduce.s", "s"),
    ("ffmat.row_reduce.innovative_ratio", "ratio"),
    ("sim.buffer_trace_mb", "MB"),
    ("trace.base_op_s", "s"),
    ("trace.op_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.overhead_pct", "%"),
]


def import_program():
    """Import batsnum from this checkout's src/, never from elsewhere."""
    if not (SRC / "batsnum" / "__init__.py").is_file():
        raise SystemExit(f"error: no batsnum sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import batsnum
    return batsnum


def setup(batsnum, workload):
    """Load the scenario and build every loss model and hop table (they stay
    in the process-wide caches); return the simulation's solution document,
    read and checked for feasibility, or None for the solve workloads."""
    kind, family = WORKLOADS[workload]
    sc = batsnum.load_scenario("case1", loss_family=family)
    for link in sc.network.links:
        sc.hop_tables(link.id)
    sol = None
    if kind == "simulate":
        sol = batsnum.Solution.from_json(SOLUTION_DOC.read_text())
        viol = sol.constraint_violation(sc)
        if viol > 1e-9:
            raise SystemExit(f"error: {SOLUTION_DOC.name} violates a link "
                             f"constraint by {viol:.3e}")
    return sol


def operation(batsnum, workload, seed, sc, sol):
    if WORKLOADS[workload][0] == "solve":
        up = batsnum.solvers.solve_up(sc)
        nap = batsnum.solvers.solve_nap(sc)
        two = batsnum.solvers.two_step_solve(sc, nap_solution=nap)
        return up, nap, two
    return batsnum.sim.run_simulation(sc, sol, slots=SIM_SLOTS, rng_seed=seed,
                                      frame_length=checks.FRAME_LENGTH)


def check_round(workload, sc, sol, out):
    kind, family = WORKLOADS[workload]
    if kind == "solve":
        up, nap, two = out
        return checks.check_solve(sc, family, up, nap, two), two.kappa * 100
    res = checks.check_simulation(sc, sol, out, SIM_SLOTS)
    u_sim = sum(out.utilities.values())
    return res, checks.kappa_pct(u_sim, sol.u_tilde, len(sc.flows))


def probe_setup(args):
    """Child process: set up, then print the monotonic clock."""
    batsnum = import_program()
    setup(batsnum, args.workload)
    print(repr(time.monotonic()))


def setup_seconds(args):
    """Median of set-up times, each from the start of a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--probe-setup"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=150, check=True)
        times.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(times), times


def environment(batsnum):
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "batsnum": batsnum.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def outputs_digest(workload, out):
    """The numbers a later change must leave as they are."""
    if WORKLOADS[workload][0] == "solve":
        up, nap, two = out
        return {"u_tilde": repr(up.u_tilde),
                "nap_utilities": [repr(float(u)) for u in nap.utilities],
                "two_step_utilities": [repr(float(u)) for u in two.utilities]}
    return {"utilities": {f: repr(u) for f, u in out.utilities.items()},
            "rank_hist": {f: [int(x) for x in h]
                          for f, h in out.rank_hist.items()}}


def run_plain(batsnum, args):
    setup_s, setup_all = setup_seconds(args)
    sol = setup(batsnum, args.workload)
    family = WORKLOADS[args.workload][1]
    op_times, cpu_times, results = [], [], []
    started = time.perf_counter()
    while True:
        sc_round = batsnum.load_scenario("case1", loss_family=family)
        t0, c0 = time.perf_counter(), time.process_time()
        out = operation(batsnum, args.workload, args.seed, sc_round, sol)
        op_times.append(time.perf_counter() - t0)
        cpu_times.append(time.process_time() - c0)
        results.append(check_round(args.workload, sc_round, sol, out))
        if time.perf_counter() - started >= args.seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    values = {"setup_s": setup_s, "op_s": statistics.median(op_times),
              "peak_rss_mb": rss_mb, "kappa_pct": results[-1][1]}
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    extra = {"setup_samples_s": setup_all, "op_samples_s": op_times,
             "op_cpu_samples_s": cpu_times,
             "outputs": outputs_digest(args.workload, out)}
    return [c for res, _ in results for c in res], len(op_times), metrics, extra


def run_traced(batsnum, args):
    tracer = tracing.Tracer()
    tracer.install(tracing.targets(batsnum))
    with tracer.span("bench.setup"):
        sol = setup(batsnum, args.workload)
    tracer.uninstall()
    family = WORKLOADS[args.workload][1]
    sc_base = batsnum.load_scenario("case1", loss_family=family)
    t0 = time.perf_counter()
    operation(batsnum, args.workload, args.seed, sc_base, sol)
    base = time.perf_counter() - t0
    sc_round = batsnum.load_scenario("case1", loss_family=family)
    tracer.install(tracing.targets(batsnum))
    root = len(tracer.names)
    t0 = time.perf_counter()
    with tracer.span("bench.op"):
        out = operation(batsnum, args.workload, args.seed, sc_round, sol)
    traced = time.perf_counter() - t0
    tracer.uninstall()
    res, _ = check_round(args.workload, sc_round, sol, out)

    layers = tracer.summary()
    in_op = tracer.summary(within=root)

    def row(name):
        return layers.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    cnt = tracer.counters
    ls_calls = row("solvers.flow_subproblem_local_search")["calls"]
    rows_reduced = cnt["row_reduce.rows"]
    status = out[1].status if WORKLOADS[args.workload][0] == "solve" else {}
    buffers = getattr(out, "buffer_series", None)
    values = {
        "solvers.local_search.moved_ratio":
            cnt["local_search.moved"] / ls_calls if ls_calls else 0.0,
        "solvers.solve_nap.dual_iterations": status.get("dual_iterations", 0),
        "solvers.solve_nap.candidates": status.get("candidates_evaluated", 0),
        "ffmat.row_reduce.innovative_ratio":
            cnt["row_reduce.rank"] / rows_reduced if rows_reduced else 0.0,
        "sim.buffer_trace_mb": buffers.nbytes / 1e6 if buffers is not None
        else 0.0,
        "trace.base_op_s": base,
        "trace.op_s": traced,
        "trace.self_sum_s": sum(r["self_s"] for n, r in in_op.items()
                                if n != "bench.op"),
        "trace.overhead_pct": 100.0 * (traced - base) / base,
    }
    metrics = {}
    for name, unit in PER_LAYER:
        if name not in values:
            layer, field = name.rsplit(".", 1)
            values[name] = row(layer)[field]
        metrics[name] = (values[name], unit)
    extra = {"spans": len(tracer.names), "layers": layers,
             "layers_in_op": in_op, "counters": dict(cnt)}
    return res, 1, metrics, extra


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe_setup:
        probe_setup(args)
        return 0
    batsnum = import_program()
    run = run_traced if args.trace else run_plain
    results, rounds, metrics, extra = run(batsnum, args)
    failed = [c for c in results if not c.ok]
    for c in failed:
        print(f"FAILED {c.name}: {c.detail}", file=sys.stderr)
    # one operation per round, plus one per check
    line = {"correct": not failed, "attempted": rounds + len(results),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}
    RESULTS.mkdir(exist_ok=True)
    tag = "-trace" if args.trace else ""
    path = RESULTS / f"{args.workload}-seed{args.seed}{tag}.json"
    path.write_text(json.dumps(
        {**line, "workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "rounds": rounds,
         "environment": environment(batsnum),
         "checks": [asdict(c) for c in results], **extra},
        indent=1, default=float))
    print(f"{args.workload} seed {args.seed}: {rounds} round(s), "
          f"{len(results) - len(failed)}/{len(results)} checks passed "
          f"({path.relative_to(HERE.parent)})")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
