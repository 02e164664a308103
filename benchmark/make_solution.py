#!/usr/bin/env python3
"""Write the solution document that the simulate_iid_case1 workload reads.

    python3 benchmark/make_solution.py

Solves built-in case 1 with independent loss (`two_step_solve`, which runs
`solve_nap` first) with the preset's default settings and writes the
solution as `Solution.to_json` gives it to benchmark/data/.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import sys

import run


def main():
    batsnum = run.import_program()
    sc = batsnum.load_scenario("case1", loss_family="iid")
    sol = batsnum.solvers.two_step_solve(sc)
    run.SOLUTION_DOC.parent.mkdir(exist_ok=True)
    run.SOLUTION_DOC.write_text(sol.to_json() + "\n")
    print(f"kappa = {sol.kappa * 100:.3f}%  ({run.SOLUTION_DOC})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
