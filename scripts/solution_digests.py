#!/usr/bin/env python3
"""Solve the 22 built-in instances and write their digests as JSON.

Per instance (case and loss family) the document holds the SHA-1 of the
NAP and two-step `Solution.to_json()` (the digests frozen in
`tests/test_solver_regression.py`), the utilities by `repr`, the NAP
counts per flow and hop, the NAP schedule count, the candidate-pool size,
the column-generation rounds, columns per flow and bound, the NAP and
two-step wall times (loss models and search tables built beforehand),
the seconds and rows of the NAP's allocations (`alloc_s`, `alloc_rows`:
its cut-set bound and every pool row, timed around
`solvers._exact_concave_allocation`), the ±1 neighborhoods the NAP's
search built (`neighborhoods`: its memo sizes summed over flows), the
two-step's `recoding.optimize_hop` calls (`hop_calls`), the allocation
certificate and the scheduled link rates. Under `estimation` it holds, per
distinct bursty channel (keyed `s_good/s_bad/p_gb/p_bg`), the SHA-1 of the
estimated q-table and the seconds its estimation took; under `sweep_s`, the
wall time of the whole sweep, estimation included; under `model_builds`, how
many independent and bursty loss models the sweep built (counted by wrapping
the two estimators in the `solvers` namespace, where `Scenario.loss_model`
looks them up).

    python scripts/solution_digests.py --out new.json
    python scripts/solution_digests.py --out new.json --compare old.json

With `--compare` it prints, per instance, whether the NAP and two-step
SHA-1s are unchanged, the signed change of U(nap) and U(two-step), |dU~|,
whether the NAP counts are unchanged, the pool sizes, the schedule
counts, the largest move of a link rate, the rounds, the NAP and
two-step wall times, the allocation seconds and rows, the neighborhoods
and the `optimize_hop` calls, then per channel whether the q-table is
unchanged and the estimation seconds, the sweep's wall time and the model
builds. It
exits 1, naming them on standard error, when an instance's NAP or
two-step SHA-1 or a channel's q-table SHA-1 differs, else 0.
"""

import argparse
import hashlib
import json
import sys
import time

from batsnum import recoding, solvers
from batsnum.scenarios import load_scenario

INSTANCES = [(case, family) for family in ("iid", "ge") for case in range(1, 12)]


def digest(sol):
    return hashlib.sha1(sol.to_json().encode()).hexdigest()


def counted(inner, counts, key):
    """`inner`, adding one to counts[key] per call."""
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return inner(*args, **kwargs)
    return wrapper


def estimation():
    """SHA-1 and first-call seconds of each distinct bursty channel's model."""
    out = {}
    for case in range(1, 12):
        sc = load_scenario(f"case{case}", loss_family="ge")
        for link in sc.network.links:
            ge = link.loss.ge
            key = f"{ge.s_good}/{ge.s_bad}/{ge.p_gb}/{ge.p_bg}"
            if key not in out:
                start = time.perf_counter()
                table = sc.loss_model(link.id).q_table
                out[key] = {"s": round(time.perf_counter() - start, 3),
                            "sha1": hashlib.sha1(table.tobytes()).hexdigest()}
    return out


def record(case, family):
    sc = load_scenario(f"case{case}", loss_family=family)
    for flow in sc.flows:
        sc.flow_search(flow)
    alloc, inner = {"s": 0.0, "rows": 0}, solvers._exact_concave_allocation

    def timed(A, R):
        start = time.perf_counter()
        try:
            return inner(A, R)
        finally:
            alloc["s"] += time.perf_counter() - start
            # a checkout before the stacked allocation solves one A (E, k)
            alloc["rows"] += len(A) if A.ndim == 3 else 1

    hop, inner_hop = {"calls": 0}, recoding.optimize_hop
    solvers._exact_concave_allocation = timed
    try:
        start = time.perf_counter()
        nap = solvers.solve_nap(sc)
        nap_s = time.perf_counter() - start
    finally:
        solvers._exact_concave_allocation = inner
    recoding.optimize_hop = counted(inner_hop, hop, "calls")
    try:
        start = time.perf_counter()
        two = solvers.two_step_solve(sc, nap_solution=nap)
        two_step_s = time.perf_counter() - start
    finally:
        recoding.optimize_hop = inner_hop
    return {
        "nap_sha1": digest(nap),
        "two_step_sha1": digest(two),
        "nap_utilities": [repr(float(u)) for u in nap.utilities],
        "two_step_utilities": [repr(float(u)) for u in two.utilities],
        "u_tilde": repr(nap.u_tilde),
        "nap_counts": [[round(x) for x in mb] for mb in nap.mbar],
        "schedules": len(nap.schedule_weights),
        "candidates": nap.status["candidates_evaluated"],
        # absent before column generation, so older checkouts can be timed
        "rounds": nap.status.get("rounds"),
        "columns": nap.status.get("columns"),
        "bound": repr(nap.status.get("bound")),
        "nap_s": round(nap_s, 3),
        "two_step_s": round(two_step_s, 3),
        "alloc_s": round(alloc["s"], 3),
        "alloc_rows": alloc["rows"],
        "neighborhoods": sum(len(sc.flow_search(f).memo) for f in sc.flows),
        "hop_calls": hop["calls"],
        "allocation": nap.status["allocation"],
        "rate_vector": [repr(float(r)) for r in nap.rate_vector],
    }


def max_delta(old, new):
    return max(abs(float(a) - float(b)) for a, b in zip(old, new))


def delta_total(old, new):
    return sum(map(float, new)) - sum(map(float, old))


def compare(old, new):
    """Print the differences; return the instances and channels whose
    SHA-1s changed."""
    changed = []
    print("| instance | same SHA-1s | dU(nap) | dU(two-step) | \\|dU~\\| "
          "| same NAP counts "
          "| pool | schedules | max \\|d rate\\| | rounds | NAP s "
          "| two-step s | alloc s | alloc rows | neighborhoods | hop calls |")
    print("|---" * 16 + "|")
    for case, family in INSTANCES:
        key = f"{family} {case}"
        o, n = old[key], new[key]
        same = ["yes" if o[f] == n[f] else "NO"
                for f in ("nap_sha1", "two_step_sha1")]
        if "NO" in same:
            changed.append(key)
        print(f"| {key} | {'/'.join(same)} "
              f"| {delta_total(o['nap_utilities'], n['nap_utilities']):+.2g} "
              f"| {delta_total(o['two_step_utilities'], n['two_step_utilities']):+.2g} "
              f"| {abs(float(o['u_tilde']) - float(n['u_tilde'])):.2g} "
              f"| {'yes' if o['nap_counts'] == n['nap_counts'] else 'NO'} "
              f"| {o['candidates']} -> {n['candidates']} "
              f"| {o['schedules']} -> {n['schedules']} "
              f"| {max_delta(o['rate_vector'], n['rate_vector']):.2g} "
              f"| {n['rounds']} "
              f"| {o.get('nap_s', '-')} -> {n['nap_s']} "
              f"| {o.get('two_step_s', '-')} -> {n['two_step_s']} "
              f"| {o.get('alloc_s', '-')} -> {n['alloc_s']} "
              f"| {o.get('alloc_rows', '-')} -> {n['alloc_rows']} "
              f"| {o.get('neighborhoods', '-')} -> {n['neighborhoods']} "
              f"| {o.get('hop_calls', '-')} -> {n['hop_calls']} |")
    print("\n| channel | same q-table | estimation s |\n|---|---|---|")
    for key, n in new["estimation"].items():
        o = old.get("estimation", {}).get(key, {})
        if o.get("sha1") != n["sha1"]:
            changed.append(key)
        print(f"| {key} | {'yes' if o.get('sha1') == n['sha1'] else 'NO'} "
              f"| {o.get('s', '-')} -> {n['s']} |")
    print(f"\nsweep: {old.get('sweep_s', '-')} -> {new['sweep_s']} s")
    builds = old.get("model_builds", {})
    print("model builds: " + ", ".join(
        f"{kind} {builds.get(kind, '-')} -> {n}"
        for kind, n in new["model_builds"].items()))
    return changed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON document to write")
    ap.add_argument("--compare", metavar="OLD.json",
                    help="earlier document to print the differences against")
    args = ap.parse_args()
    builds = {"independent": 0, "bursty": 0}
    for attr, kind in (("independent_loss_model", "independent"),
                       ("empirical_loss_model", "bursty")):
        setattr(solvers, attr, counted(getattr(solvers, attr), builds, kind))
    start = time.perf_counter()
    doc = {"estimation": estimation()}
    doc.update({f"{family} {case}": record(case, family)
                for case, family in INSTANCES})
    doc["sweep_s"] = round(time.perf_counter() - start, 3)
    doc["model_builds"] = builds
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            changed = compare(json.load(fh), doc)
        if changed:
            print("changed SHA-1: " + ", ".join(changed), file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
