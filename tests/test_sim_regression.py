"""Frozen per-seed outputs of short packet-level runs.

The digests were recorded from the simulator that stacked each batch's
received rows and re-eliminated them when the batch closed. Any receiver
basis spans the same space, the coefficient draws consume the generators
in the same order, and rows beyond the sender's rank cannot be
innovative, so these runs must reproduce the recorded outputs exactly.
The `ge-adaptive` run replaced a run of the same scenario under the
deleted systematic recoding mode; its digest was recorded with uniform
recoding before that deletion and reproduced after it.

`ACCOUNTING` freezes the per-link innovative/redundant counts and the
per-hop vanished batches of the same four runs, which `report_digest`
does not hash; `CASE1` freezes a whole report of the committed case-1
benchmark solution. Both were recorded from the simulator that recoded
in global coefficients (each recoded row multiplied out over the
sender's basis) and drew one loss variate per call; recoding in the
sender's local coefficients must reproduce them exactly.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

import batsnum
from batsnum import solvers
from batsnum.loss import LossSpec
from batsnum.netmodel import Flow, Link, Network, Schedule
from batsnum.recoding import RecodingPolicy
from batsnum.sim import run_simulation
from oracles import support_columns

M = 16


def line_scenario(losses):
    """Line v0 - v1 - v2 - v3; f1 crosses all three links, f2 the last two."""
    nodes = ["v0", "v1", "v2", "v3"]
    links = [Link(f"e{i + 1}", nodes[i], nodes[i + 1], 1.0, loss)
             for i, loss in enumerate(losses)]
    flows = [Flow(id="f1", links=("e1", "e2", "e3"), batch_size=M),
             Flow(id="f2", links=("e2", "e3"), batch_size=M)]
    return solvers.Scenario(network=Network(nodes=nodes, links=links),
                            flows=flows, M=M)


def adaptive_policy(seed, cols=24):
    """Rank-adaptive policy with random rows over a few counts; low ranks
    may send nothing, so some batches vanish on the way."""
    rng = np.random.default_rng(seed)
    p = np.zeros((M + 1, cols))
    p[0, 0] = 1.0
    for r in range(1, M + 1):
        counts = rng.choice(np.arange(1, cols), size=3, replace=False)
        if r <= 3:
            counts[0] = 0
        w = rng.random(3)
        p[r, counts] += w / w.sum()
    return RecodingPolicy.adaptive(p)


def line_solution(sc, policies, alpha):
    """Each link alone in a third of the frame; alpha sized to fit."""
    mbar = [[float(support_columns(pol) - 1) for pol in pols]
            for pols in policies]
    n = len(sc.flows)
    return solvers.Solution(
        mode="nap", flow_ids=[f.id for f in sc.flows], alpha=np.array(alpha),
        eta=np.ones(n), policies=policies, mbar=mbar,
        expected_rank=np.ones(n), utilities=np.zeros(n), u_total=0.0,
        u_tilde=0.0, kappa=1.0, rate_vector=np.full(3, 1 / 3),
        schedule_weights=[(Schedule(active=tuple(int(j == i)
                                                 for j in range(3))), 1 / 3)
                          for i in range(3)],
        status={})


def report_digest(rep):
    doc = {
        "emitted": rep.emitted,
        "completed": rep.completed,
        "delivered_rank": {f: repr(v) for f, v in rep.delivered_rank.items()},
        "utilities": {f: repr(v) for f, v in rep.utilities.items()},
        "rank_hist": {f: [int(x) for x in h] for f, h in rep.rank_hist.items()},
        "link_stats": rep.link_stats,
        "buffers": hashlib.sha1(rep.buffer_series.tobytes()).hexdigest(),
    }
    return hashlib.sha1(json.dumps(doc, sort_keys=True).encode()).hexdigest()


IID = [LossSpec.independent(0.2), LossSpec.independent(0.1),
       LossSpec.independent(0.3)]
GE = [LossSpec.independent(0.2),
      LossSpec.gilbert_elliott(1.0, 0.6, 1e-2, 1e-2),
      LossSpec.gilbert_elliott(0.95, 0.3, 5e-3, 2e-2)]
NONADAPTIVE = [[RecodingPolicy.nonadaptive(m) for m in (20, 18, 22)],
               [RecodingPolicy.nonadaptive(m) for m in (19, 21)]]
ADAPTIVE = [[adaptive_policy(s) for s in (1, 2, 3)],
            [adaptive_policy(s) for s in (4, 5)]]

RUNS = {
    "iid-uniform": (IID, NONADAPTIVE, 11,
                    "1ee74d046be7cbef9bf42e22c44b176a4000af10"),
    "ge-uniform": (GE, NONADAPTIVE, 13,
                   "defe2972c7cb7e62bca93c35431387506e47148e"),
    "iid-adaptive": (IID, ADAPTIVE, 14,
                     "012f8ce55a543f1b810ffa8fbc0dff2876687d10"),
    "ge-adaptive": (GE, ADAPTIVE, 15,
                    "6f381a6836028228661440ae315eba6ed984012a"),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_simulation_outputs_frozen(name):
    losses, policies, seed, want = RUNS[name]
    sc = line_scenario(losses)
    sol = line_solution(sc, policies, alpha=[0.0065, 0.007])
    rep = run_simulation(sc, sol, slots=40_000, rng_seed=seed)
    assert report_digest(rep) == want


ACCOUNTING = {
    "iid-uniform": "f0e825af12b71bb840e0343a5a1b0fce78e40c81",
    "ge-uniform": "89f917272e5a081e550902659ac5017bb91bef57",
    "iid-adaptive": "b9ecf81486dfaba46bf06592462a7391eb74ce51",
    "ge-adaptive": "045517b9ee08323a0bc9e17d68cd75c83cf6c00e",
}


@pytest.mark.parametrize("name", sorted(ACCOUNTING))
def test_innovation_and_vanished_batches_frozen(name):
    losses, policies, seed, _ = RUNS[name]
    sc = line_scenario(losses)
    sol = line_solution(sc, policies, alpha=[0.0065, 0.007])
    rep = run_simulation(sc, sol, slots=40_000, rng_seed=seed)
    doc = {"link_innovation": rep.link_innovation, "died": rep.died}
    got = hashlib.sha1(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert got == ACCOUNTING[name]


CASE1_SOLUTION = (pathlib.Path(__file__).resolve().parent.parent
                  / "benchmark" / "data" / "case1-iid-two-step.json")
# SHA-1 of the sorted-key JSON of `to_json_dict()`, and of the buffer series
CASE1 = ("eb049a4ed81078b33113630fbe7cef48d2e20cca",
         "40221c3b85b551dd48ddaa803678adea44d24b1c")


def test_case1_benchmark_solution_report_frozen():
    sc = batsnum.load_scenario("case1", loss_family="iid")
    sol = batsnum.Solution.from_json(CASE1_SOLUTION.read_text())
    rep = run_simulation(sc, sol, slots=20_000, rng_seed=1)
    doc = json.dumps(rep.to_json_dict(), sort_keys=True).encode()
    assert (hashlib.sha1(doc).hexdigest(),
            hashlib.sha1(rep.buffer_series.tobytes()).hexdigest()) == CASE1


def test_report_accounts_for_packets_and_batches():
    sc = line_scenario(IID)
    sol = line_solution(sc, ADAPTIVE, alpha=[0.0065, 0.007])
    rep = run_simulation(sc, sol, slots=40_000, rng_seed=14)
    for lid, st in rep.link_stats.items():
        inn = rep.link_innovation[lid]
        assert inn["innovative"] + inn["redundant"] == st["received"]
        assert inn["innovative"] > 0 and inn["redundant"] > 0
    # e1 carries only f1, whose source batches have rank 16
    assert rep.link_innovation["e1"]["innovative"] <= 16 * rep.emitted["f1"]
    for f in sc.flows:
        assert len(rep.died[f.id]) == len(f.links)
        assert rep.completed[f.id] + sum(rep.died[f.id]) <= rep.emitted[f.id]
    # low ranks may send nothing under these policies
    assert sum(rep.died["f1"]) > 0
