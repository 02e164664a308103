"""The whole pipeline on seeded random networks (`random_networks`).

Per instance, solve_up, solve_nap and two_step_solve must return
certified allocations, loads inside the schedule region, and the ordering
U(nap) <= U(two-step) <= U~ with criterion 13's tolerances. Every fourth
instance also simulates its two-step solution for 20,000 slots, and the
report's batch and packet counts must add up.
"""

import functools
import math

import pytest
from random_networks import random_network_config

from batsnum import sim, solvers
from batsnum.scenarios import load_scenario

SEEDS = range(20)
SLOTS = 20_000


@functools.cache
def solved(seed):
    sc = load_scenario(random_network_config(seed))
    up = solvers.solve_up(sc)
    nap = solvers.solve_nap(sc)
    return sc, up, nap, solvers.two_step_solve(sc, nap_solution=nap)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_network_solves(seed):
    sc, up, nap, two = solved(seed)
    for sol in (up, nap, two):
        cert = sol.status["allocation"]
        assert -1e-12 <= cert["gap"] <= 1e-10
        assert cert["max_violation"] <= 1e-12
    for sol in (nap, two):
        assert sol.constraint_violation(sc) <= sim.FEASIBILITY_TOL
        assert all(math.isfinite(u) for u in sol.utilities)
    assert nap.u_total <= two.u_total + 1e-9 <= up.u_tilde + 1e-6


@pytest.mark.parametrize("seed", SEEDS[::4])
def test_random_network_simulation(seed):
    sc, _, _, two = solved(seed)
    rep = sim.run_simulation(sc, two, slots=SLOTS, rng_seed=seed)
    for flow, alpha in zip(sc.flows, two.alpha):
        fid = flow.id
        assert abs(rep.emitted[fid] - alpha * SLOTS) < 1 + 1e-9
        assert rep.completed[fid] + sum(rep.died[fid]) <= rep.emitted[fid]
        assert rep.completed[fid] > 0
        assert rep.rank_hist[fid].sum() == rep.completed[fid]
        assert len(rep.died[fid]) == len(flow.links)
    used = {e for flow in sc.flows for e in flow.links}
    for link in sc.network.links:
        sent = rep.link_stats[link.id]["sent"]
        received = rep.link_stats[link.id]["received"]
        counted = sum(rep.link_innovation[link.id].values())
        assert counted <= received <= sent
        assert (sent > 0) == (link.id in used)
