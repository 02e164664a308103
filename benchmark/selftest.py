#!/usr/bin/env python3
"""Self-test of the benchmark's checks; runs in seconds.

    python3 benchmark/selftest.py

Solves a tiny two-link, two-flow scenario, simulates it for a few hundred
slots (with a short TDMA frame), and requires every check to pass on those outputs. Then it
corrupts one output at a time and requires the matching check to reject
it: a schedule weight that makes the weights sum above one, weights too
small for the link loads, a colliding activation vector, a wrong utility,
and a rank histogram that does not sum to the completed batches. It also
requires BENCHMARK.json to list the workloads and metrics run.py reports.
Exits 1 if any expectation fails.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json
import sys
from dataclasses import replace

import checks
import run

SLOTS = 500
FRAME_LENGTH = 100  # several frames in a short run

TINY = {
    "name": "selftest-two-link",
    "nodes": ["a", "b", "c"],
    "links": [
        {"id": "e1", "from": "a", "to": "b", "capacity": 8.0,
         "loss": {"kind": "independent", "epsilon": 0.2}},
        {"id": "e2", "from": "b", "to": "c", "capacity": 8.0,
         "loss": {"kind": "independent", "epsilon": 0.1}},
    ],
    "interference": "two-hop",
    "flows": [{"id": "f1", "links": ["e1", "e2"], "batch_size": 8},
              {"id": "f2", "links": ["e2"], "batch_size": 8}],
    "code": {"field_size": 256, "batch_size": 8, "m0_factor": 3},
    "seeds": {"loss_model": 1},
    "solver": {"dual_iters": 300, "stability_window": 50, "tail_window": 20},
}


def failing(results):
    return {c.name for c in results if not c.ok}


def declared_metrics_match():
    doc = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    return ({w["name"] for w in doc["workloads"]} == set(run.WORKLOADS)
            and {m["name"]: m["unit"] for m in doc["end_to_end"]}
            == run.END_TO_END
            and [(m["name"], m["unit"]) for m in doc["per_layer"]]
            == run.PER_LAYER)


def main():
    batsnum = run.import_program()
    sc = batsnum.load_scenario(TINY)
    up = batsnum.solvers.solve_up(sc)
    nap = batsnum.solvers.solve_nap(sc)
    two = batsnum.solvers.two_step_solve(sc, nap_solution=nap)
    rep = batsnum.sim.run_simulation(sc, two, slots=SLOTS, rng_seed=3,
                                     frame_length=FRAME_LENGTH)

    def solve_checks(sol):
        return checks.check_solve(sc, "iid", up, nap, sol, ranges=False)

    weights = two.schedule_weights
    (s0, w0), rest = weights[0], weights[1:]
    collide = replace(s0, active=tuple(1 for _ in s0.active))
    bad_u = two.utilities.copy()
    bad_u[0] += 1e-6
    bad_hist = {f: h.copy() for f, h in rep.rank_hist.items()}
    bad_hist["f1"][-1] += 1

    cases = [
        ("true solve outputs", solve_checks(two), set()),
        ("true simulation outputs",
         checks.check_simulation(sc, two, rep, SLOTS, FRAME_LENGTH), set()),
        ("schedule weight raised so the weights sum above 1",
         solve_checks(replace(two, schedule_weights=[(s0, w0 + 1.0)] + rest)),
         {"two_step.weights"}),
        ("schedule weights halved below the link loads",
         solve_checks(replace(two, schedule_weights=[
             (s, w / 2) for s, w in weights])),
         {"two_step.load"}),
        ("scheduled activation vector with colliding links",
         solve_checks(replace(two, schedule_weights=[(collide, w0)] + rest)),
         {"two_step.collisions"}),
        ("utility of f1 off by 1e-6",
         solve_checks(replace(two, utilities=bad_u)),
         {"two_step.utilities"}),
        ("rank histogram of f1 one batch over the completed count",
         checks.check_simulation(sc, two, replace(rep, rank_hist=bad_hist),
                                 SLOTS, FRAME_LENGTH),
         {"f1.histogram"}),
    ]
    ok = True
    for label, results, expected in cases:
        got = failing(results)
        passed = got == expected
        ok = ok and passed
        print(f"{'ok  ' if passed else 'FAIL'} {label}: "
              f"rejected by {sorted(got) or 'no check'}"
              f"{'' if passed else f' (expected {sorted(expected)})'}")
        if not passed:
            for c in results:
                print(f"       {c.name}: {c.detail}")
    same = declared_metrics_match()
    print(f"{'ok  ' if same else 'FAIL'} BENCHMARK.json lists the workloads "
          "and metrics of run.py")
    ok = ok and same
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
