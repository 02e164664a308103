"""Command line entry point: solve, simulate, reproduce.

Exit codes: 0 ok, 2 validation error, 3 solver non-convergence,
4 infeasible simulation input.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from itertools import repeat

from . import sim, solvers
from .netmodel import ValidationError
from .scenarios import load_scenario, scenario_to_config
from .sim import SimulationInputError
from .solvers import Solution

OUTDIR_ENV = "BATSNUM_OUTDIR"

TABLE_COLUMNS = ["case", "U1", "U2", "U_tilde", "kappa", "mode", "loss_family"]


def _outdir(args):
    out = args.outdir or os.environ.get(OUTDIR_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _load(args):
    if args.scenario:
        return load_scenario(args.scenario, loss_family=args.loss)
    return load_scenario(f"case{args.case}", loss_family=args.loss)


SOLVERS = {"up": solvers.solve_up, "nap": solvers.solve_nap,
           "two-step": solvers.two_step_solve}


def cmd_solve(args):
    scenario = _load(args)
    t0 = time.time()
    solution = SOLVERS[args.mode](scenario)
    elapsed = time.time() - t0
    base = os.path.join(_outdir(args), f"{scenario.name}-{args.mode}")
    path = f"{base}.json"
    if args.mode == "up":
        doc = {"mode": "up", "u_tilde": solution.u_tilde,
               "utilities": [float(u) for u in solution.utilities],
               "f": [float(x) for x in solution.f], "status": solution.status}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
        print(f"U_tilde = {solution.u_tilde:.6f}  ({path})")
        return 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(solution.to_json())
    report = {"scenario": scenario.name, "mode": args.mode,
              "u_total": solution.u_total, "u_tilde": solution.u_tilde,
              "kappa": solution.kappa, "wall_clock_s": elapsed}
    with open(f"{base}-report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
    us = " ".join(f"{u:.4f}" for u in solution.utilities)
    print(f"{scenario.name} {args.mode}: U = [{us}] "
          f"U_tilde = {solution.u_tilde:.4f} kappa = {solution.kappa*100:.2f}%  "
          f"({path})")
    return 0


def _read_solution(path):
    """The solution document at `path`; a ValidationError names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return Solution.from_json(fh.read())
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as e:
        raise ValidationError(f"--solution {path}: cannot read a solution "
                              f"document ({e!r})") from None


def cmd_simulate(args):
    scenario = _load(args)
    solution = _read_solution(args.solution)
    if ([(fid, len(p)) for fid, p in zip(solution.flow_ids, solution.policies)]
            != [(f.id, len(f.links)) for f in scenario.flows]):
        raise ValidationError(f"--solution {args.solution}: its flows and "
                              f"hops differ from {scenario.name}'s")
    t0 = time.time()
    report = sim.run_simulation(scenario, solution, slots=args.slots,
                                rng_seed=args.seed)
    elapsed = time.time() - t0
    out = _outdir(args)
    base = f"{scenario.name}-sim"
    with open(os.path.join(out, f"{base}.json"), "w", encoding="utf-8") as fh:
        doc = report.to_json_dict()
        stability = sim.buffer_stability(report)
        doc["buffer_stability"] = {"stable": stability.stable,
                                   "slopes": stability.slopes}
        doc["wall_clock_s"] = elapsed  # kept out of SimReport and its digests
        json.dump(doc, fh, sort_keys=True, indent=2)
    csv_path = os.path.join(out, f"{base}-buffers.csv")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["slot", "node", "buffer_size"])
        stride, series = args.buffer_stride, report.buffer_series
        slots = range(0, series.shape[0], stride)
        for j, node in enumerate(report.buffer_nodes):
            w.writerows(zip(slots, repeat(node), series[::stride, j].tolist()))
    for fid, predicted in zip(report.flow_ids, solution.utilities):
        print(f"{fid}: simulated utility = {report.utilities[fid]:.4f} "
              f"vs predicted {predicted:.4f} "
              f"completed = {report.completed[fid]}")
    print(f"buffers stable: {stability.stable}  ({csv_path})")
    print(f"simulated {args.slots} slots in {elapsed:.2f} s "
          f"({args.slots / max(elapsed, 1e-9):.0f} slots/s)")
    return 0


def cmd_reproduce(args):
    out = _outdir(args)
    families = [args.loss] if args.loss else ["iid", "ge"]
    cases = [args.case] if args.case else list(range(1, 12))
    rows = []
    for family in families:
        for n in cases:
            scenario = load_scenario(f"case{n}", loss_family=family)
            nap = solvers.solve_nap(scenario)
            two = solvers.two_step_solve(scenario, nap_solution=nap)
            for mode, sol in (("nap", nap), ("two-step", two)):
                rows.append([n, f"{sol.utilities[0]:.6f}",
                             f"{sol.utilities[1]:.6f}", f"{sol.u_tilde:.6f}",
                             f"{sol.kappa:.6f}", mode, family])
            print(f"case {n} [{family}]: nap kappa = {nap.kappa*100:.2f}% "
                  f"two-step kappa = {two.kappa*100:.2f}%")
    path = os.path.join(out, "tables.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(TABLE_COLUMNS)
        w.writerows(rows)
    print(f"wrote {path}")
    return 0


def cmd_export(args):
    scenario = _load(args)
    print(json.dumps(scenario_to_config(scenario), sort_keys=True, indent=2))
    return 0


def _at_least(least):
    """argparse type: an integer no smaller than `least`."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"{value} is below {least}")
        return value
    return parse


def build_parser():
    p = argparse.ArgumentParser(prog="batsnum")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--case", type=int, choices=range(1, 12),
                        metavar="1..11", help="built-in line-network case")
        sp.add_argument("--scenario", help="path to a scenario JSON document")
        sp.add_argument("--loss", choices=["iid", "ge"], default="iid",
                        help="loss family for built-in cases")
        sp.add_argument("--outdir", default=None,
                        help=f"output directory (default ${OUTDIR_ENV} or cwd)")

    sp = sub.add_parser("solve", help="run one solver on one scenario")
    common(sp)
    sp.add_argument("--mode", choices=["nap", "two-step", "up"], required=True)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("simulate", help="packet-level run of a solved config")
    common(sp)
    sp.add_argument("--solution", required=True, help="solution JSON path")
    sp.add_argument("--slots", type=_at_least(1), default=1_000_000)
    sp.add_argument("--seed", type=_at_least(0), default=7)
    sp.add_argument("--buffer-stride", type=_at_least(1), default=1,
                    help="CSV downsampling stride for the buffer series")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("reproduce",
                        help="solve the built-in cases and emit summary tables")
    sp.add_argument("--loss", choices=["iid", "ge"], default=None,
                    help="restrict to one loss family")
    sp.add_argument("--case", type=int, choices=range(1, 12), default=None,
                    metavar="1..11", help="restrict to one case")
    sp.add_argument("--outdir", default=None)
    sp.set_defaults(func=cmd_reproduce)

    sp = sub.add_parser("export-config", help="print a scenario as JSON")
    common(sp)
    sp.set_defaults(func=cmd_export)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    if getattr(args, "command", None) in ("solve", "simulate", "export-config"):
        if not args.scenario and args.case is None:
            print("error: provide --case or --scenario", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except ValidationError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return 2
    except SimulationInputError as e:
        print(f"infeasible simulation input: {e}", file=sys.stderr)
        return 4
    except RuntimeError as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
