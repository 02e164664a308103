"""Acceptance criteria, one test per numbered criterion.

Each test prints a `criterion N PASS/FAIL` line (run with -s to stream
them). Solver results are shared through the session-scoped cache, so
the full sweep is computed once.
"""

import math

import numpy as np
import pytest

from batsnum import loss, rankcalc, recoding, sim, solvers
from batsnum.loss import LossSpec
from batsnum.netmodel import Flow, Link, Network, two_hop_interference
from batsnum.recoding import RecodingPolicy
from oracles import (almost_deterministic_exhaustive, check_monotone_concave,
                     cutset_bound, empirical_rank_distribution,
                     expected_rank_gradient, gf2_rank_pmf_by_enumeration,
                     prob_rank, propagate)

TABLE_NAP_IID = {1: (-2.119, -2.119, 90.12), 2: (-1.452, -1.495, 85.94),
                 3: (-2.159, -2.186, 85.43), 4: (-2.610, -2.821, 89.76),
                 5: (-1.969, -1.969, 93.05), 6: (-2.071, -2.071, 91.03),
                 7: (-2.119, -2.119, 90.12), 8: (-2.120, -2.120, 90.03),
                 9: (-2.191, -2.191, 83.86), 10: (-2.172, -2.172, 85.47),
                 11: (-2.137, -2.137, 88.51)}

SYMMETRIC_CASES = (1, 5, 6, 7, 8, 9, 10, 11)


def report(criterion, ok, detail):
    line = f"criterion {criterion} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


# --- criterion 1: upper bound values ---------------------------------------

def test_criterion_1_upper_bound(solved):
    up = solved.up(1)
    single = Network(nodes=["a", "b"],
                     links=[Link("e1", "a", "b", 1.0, LossSpec.independent(0.2))])
    sc1 = solvers.Scenario(network=single,
                           flows=[Flow(id="f", links=("e1",), batch_size=16)],
                           M=16)
    u1 = solvers.solve_up(sc1).u_tilde
    ok = abs(up.u_tilde + 4.030) <= 0.005 and abs(u1 - math.log(0.8)) <= 1e-9
    report(1, ok, f"case1 U~={up.u_tilde:.6f} (target -4.030+-0.005), "
                  f"single-link err={abs(u1 - math.log(0.8)):.2e} (<=1e-9)")


# --- criterion 2: nonadaptive solver against the reference table -----------

@pytest.mark.parametrize("case", list(range(1, 12)))
def test_criterion_2_nap_iid(solved, case):
    sol = solved.nap(case)
    u1_t, u2_t, kap_t = TABLE_NAP_IID[case]
    kap = sol.kappa * 100
    if case == 1:
        kap_ok = 89.1 <= kap <= 91.1
    else:
        kap_ok = abs(kap - kap_t) <= 1.5
    du1 = abs(sol.utilities[0] - u1_t)
    du2 = abs(sol.utilities[1] - u2_t)
    elapsed = solved.wall_clock.get(("nap", case, "iid"), 0.0)
    ok = kap_ok and du1 <= 0.05 and du2 <= 0.05 and elapsed < 300
    report(2, ok, f"case {case}: kappa={kap:.2f}% (table {kap_t}), "
                  f"|dU|=({du1:.3f},{du2:.3f})<=0.05, {elapsed:.0f}s")


# --- criterion 3: two-step on independent loss ------------------------------

def test_criterion_3_two_step_iid(solved):
    kap1 = solved.two_step(1).kappa * 100
    ok = 91.3 <= kap1 <= 93.3
    gains = []
    for case in range(1, 12):
        gain = (solved.two_step(case).kappa - solved.nap(case).kappa) * 100
        gains.append(gain)
        ok = ok and gain >= 1.0
    report(3, ok, f"case1 kappa={kap1:.2f}% in [91.3,93.3]; "
                  f"gains={[f'{g:.2f}' for g in gains]} all >= 1pt")


# --- criterion 4: two-step on bursty loss -----------------------------------

def test_criterion_4_two_step_ge(solved):
    nap1 = solved.nap(1, "ge").kappa * 100
    two1 = solved.two_step(1, "ge").kappa * 100
    gains = [(solved.two_step(c, "ge").kappa - solved.nap(c, "ge").kappa) * 100
             for c in range(1, 12)]
    n_big = sum(g >= 2.5 for g in gains)
    ok = abs(nap1 - 76.01) <= 2.5 and abs(two1 - 80.50) <= 2.5 and n_big >= 8
    report(4, ok, f"case1 nap={nap1:.2f}% (76.01+-2.5), "
                  f"two-step={two1:.2f}% (80.50+-2.5); "
                  f"gain>=2.5pt on {n_big}/11")


# --- criterion 5: fairness ---------------------------------------------------

def test_criterion_5_fairness(solved):
    worst = 0.0
    worst_at = None
    for family in ("iid", "ge"):
        for case in SYMMETRIC_CASES:
            for sol in (solved.nap(case, family), solved.two_step(case, family)):
                gap = float(abs(sol.utilities[0] - sol.utilities[1]))
                if gap > worst:
                    worst, worst_at = gap, (case, family, sol.mode)
    ok = worst <= 0.05
    report(5, ok, f"worst |U1-U2| = {worst:.4f} at {worst_at} (<= 0.05)")


# --- criterion 6: simulation consistency ------------------------------------

@pytest.mark.parametrize("family,seed", [("iid", 11), ("ge", 13)])
def test_criterion_6_simulation(solved, family, seed):
    sc = solved.scenario(1, family)
    two = solved.two_step(1, family)
    rep = sim.run_simulation(sc, two, slots=1_000_000, rng_seed=seed)
    gaps = [abs(rep.utilities[fid] - float(two.utilities[i]))
            for i, fid in enumerate(rep.flow_ids)]
    stab = sim.buffer_stability(rep)
    ok = max(gaps) <= 0.05 and stab.stable
    sims = {fid: round(rep.utilities[fid], 4) for fid in rep.flow_ids}
    report(6, ok, f"[{family}] sim={sims} vs predicted="
                  f"{np.round(two.utilities, 4).tolist()}, "
                  f"gaps={[f'{g:.3f}' for g in gaps]}<=0.05, "
                  f"stable={stab.stable}")


# --- criterion 7: rank pmf against exhaustive enumeration -------------------

def test_criterion_7_rank_pmf_enumeration():
    worst = 0.0
    for i in range(4):
        for k in range(4):
            pmf = gf2_rank_pmf_by_enumeration(i, k)
            for j, want in enumerate(pmf):
                got = prob_rank(i, k, j, 2)
                worst = max(worst, abs(got - want))
    ok = worst <= 1e-12
    report(7, ok, f"worst |pmf error| over i,k<=3: {worst:.2e} (<= 1e-12)")


# --- criterion 8: transition matrices stay stochastic -----------------------

def test_criterion_8_transition_stochastic():
    rng = np.random.default_rng(42)
    M = 6
    worst_sum, worst_tri = 0.0, 0.0
    for trial in range(1000):
        m_max = int(rng.integers(4, 14))
        tab = np.zeros((m_max + 1, m_max + 1))
        tab[0, 0] = 1.0
        for m in range(1, m_max + 1):
            row = rng.dirichlet(np.ones(m + 1) * rng.uniform(0.3, 3.0))
            tab[m, :m + 1] = row
        model = loss.BatchLossModel(m_max=m_max, q_table=tab)
        if trial % 2:
            pol = RecodingPolicy.nonadaptive(int(rng.integers(0, m_max + 1)))
        else:
            p = rng.dirichlet(np.ones(m_max + 1), size=M + 1)
            p[0] = 0.0
            p[0, 0] = 1.0
            pol = RecodingPolicy.adaptive(p)
        P = rankcalc.transition_matrix(pol, model, 256, M)
        worst_sum = max(worst_sum, float(np.abs(P.sum(axis=1) - 1).max()))
        worst_tri = max(worst_tri, float(np.abs(np.triu(P, k=1)).max()))
    ok = worst_sum <= 1e-9 and worst_tri == 0.0
    report(8, ok, f"1000 random (policy, model): worst row-sum error "
                  f"{worst_sum:.2e}, upper-triangle mass {worst_tri:.2e}")


# --- criterion 9: expected-rank gradient vs finite differences --------------

def test_criterion_9_gradient_fd():
    rng = np.random.default_rng(7)
    M = 6
    worst = 0.0
    for _ in range(100):
        eps = float(rng.uniform(0.05, 0.5))
        model = loss.independent_loss_model(eps, 16)
        pols, mats = [], []
        for _ in range(3):
            t = rng.uniform(0, 10, M + 1)
            t[0] = 0.0
            pol = recoding.expand_almost_deterministic(t, 16)
            pols.append(pol)
            mats.append(rankcalc.transition_matrix(pol, model, 256, M))
        h0 = rankcalc.source_distribution(M)
        hop = int(rng.integers(0, 3))
        G = expected_rank_gradient(h0, mats, hop, pols[hop], model, 256)
        Z = rankcalc.rank_pmf_table(M, model.m_max, 256)
        g_scale = float(np.abs(G).max())
        for _ in range(3):
            r = int(rng.integers(1, M + 1))
            m = int(rng.integers(0, 17))
            D = np.zeros((M + 1, M + 1))
            for j in range(min(r, m) + 1):
                D[r, j] = sum(model.q_table[m, kk] * Z[r, kk, j]
                              for kk in range(j, m + 1))
            step = 1e-6
            hi = list(mats)
            hi[hop] = mats[hop] + step * D
            lo = list(mats)
            lo[hop] = mats[hop] - step * D
            fd = (propagate(h0, hi)[1]
                  - propagate(h0, lo)[1]) / (2 * step)
            # entries far below the gradient scale sit inside the FD
            # subtraction noise (~1e-10 absolute at this step), so the
            # relative comparison floors the denominator at 1% of scale
            denom = max(abs(fd), abs(G[r, m]), 1e-2 * g_scale)
            worst = max(worst, abs(G[r, m] - fd) / denom)
    ok = worst < 1e-6
    report(9, ok, f"100 random 3-hop instances: worst relative error "
                  f"{worst:.2e} (< 1e-6)")


# --- criterion 10: per-hop curves monotone and concave ----------------------

def test_criterion_10_monotone_concave(solved):
    worst = 0.0
    details = []
    model_iid = loss.independent_loss_model(0.2, 100)
    rep = check_monotone_concave(model_iid, 16, 256)
    worst = max(worst, rep.worst_monotone_violation,
                rep.worst_concavity_violation)
    details.append(f"iid: {rep.worst_concavity_violation:.2e}")
    sc = solved.scenario(8, "ge")  # loads the 0.2 and 0.4 channel models
    sc5 = solved.scenario(5, "ge")  # loads the 0.1 channel model
    seen = set()
    for scenario in (sc, sc5):
        for link in scenario.network.links:
            rate = round(link.loss.average_loss_rate, 3)
            if rate in seen:
                continue
            seen.add(rate)
            rep = check_monotone_concave(
                scenario.loss_model(link.id), 16, 256)
            worst = max(worst, rep.worst_monotone_violation,
                        rep.worst_concavity_violation)
            details.append(f"ge[{rate}]: {rep.worst_concavity_violation:.2e}")
    ok = worst <= 1e-6
    report(10, ok, f"worst violation {worst:.2e} (<= 1e-6) over {details}")


# --- criterion 11: chain expected rank monotone in each hop count ------------

def test_criterion_11_chain_monotone():
    model = loss.independent_loss_model(0.2, 41)
    h0 = rankcalc.source_distribution(16)
    base = [19, 23, 17]
    worst = 0.0
    for vary in range(3):
        prev = -1.0
        for m in range(41):
            ms = list(base)
            ms[vary] = m
            mats = [rankcalc.transition_matrix(
                RecodingPolicy.nonadaptive(x), model, 256, 16) for x in ms]
            _, e = propagate(h0, mats)
            worst = max(worst, prev - e)
            prev = e
    ok = worst <= 1e-10
    report(11, ok, f"3-hop chain, each count swept 0..40: worst decrease "
                   f"{worst:.2e}")


# --- criterion 12: per-hop optimizer equals exhaustive search ---------------

def test_criterion_12_optimize_hop_exhaustive():
    model = loss.independent_loss_model(0.2, 130)
    E1 = rankcalc.expected_rank_table(model, 256, 4)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(8):
        h = np.zeros(5)
        r1, r2 = rng.choice([1, 2, 3, 4], size=2, replace=False)
        w = float(rng.uniform(0.15, 0.85))
        h[r1], h[r2] = w, 1 - w
        budget = float(rng.uniform(0.5, 11.0))
        res = recoding.optimize_hop(h, model, budget, 256, 4, 12)
        got = float(sum(h[r] * sum(p * E1[r, m] for m, p in res.policy.support(r))
                        for r in range(5)))
        want = almost_deterministic_exhaustive(h, E1, budget, 12)
        worst = max(worst, abs(got - want))
        assert abs(recoding.average_packets(res.policy, h) - budget) <= 1e-9
        for r in (r1, r2):
            ms = [m for m, _ in res.policy.support(r)]
            assert len(ms) <= 2 and (len(ms) == 1 or ms[1] == ms[0] + 1)
    ok = worst <= 1e-9
    report(12, ok, f"8 random instances (M=4, cap 12): worst objective gap "
                   f"{worst:.2e} (<= 1e-9); budgets exact, supports two-point")


# --- criterion 13: solver ordering and cut-set domination -------------------

def test_criterion_13_ordering(solved):
    ok = True
    details = []
    for family in ("iid", "ge"):
        for case in range(1, 12):
            nap = solved.nap(case, family)
            two = solved.two_step(case, family)
            u_up = solved.up(case, family).u_tilde
            good = nap.u_total <= two.u_total + 1e-9 <= u_up + 1e-6
            sc = solved.scenario(case, family)
            for i, flow in enumerate(sc.flows):
                per_edge = [(nap.mbar[i][j],
                             sc.network.link(e).loss.average_loss_rate)
                            for j, e in enumerate(flow.links)]
                bound = cutset_bound(sc.M, per_edge)
                good = good and nap.expected_rank[i] <= bound + 1e-9
            ok = ok and good
            if not good:
                details.append(f"{case}/{family}")
    report(13, ok, "U(nap) <= U(two-step) <= U~ and cut-set bound dominates "
                   f"E[h] on all 22 instances{'; FAILED: ' + str(details) if details else ''}")


# --- criterion 14: joint search escapes the coordinate-wise stall -----------

def test_criterion_14_stall_escape():
    nodes = [f"v{i}" for i in range(3)]
    links = [Link(f"e{i+1}", f"v{i}", f"v{i+1}", 1.0,
                  LossSpec.independent(0.2)) for i in range(2)]
    net = Network(nodes=nodes, links=links)
    net.interference = two_hop_interference(net)
    net.__post_init__()
    sc = solvers.Scenario(network=net,
                          flows=[Flow(id="f", links=("e1", "e2"),
                                      batch_size=16)], M=16)
    lam = np.array([0.5, 0.5])
    W = [sc.hop_tables("e1"), sc.hop_tables("e2")]

    def obj(m1, m2):
        h = np.zeros(17)
        h[16] = 1.0
        h = h @ W[0][m1] @ W[1][m2]
        return float(h @ np.arange(17)) / (0.5 * (m1 + m2))

    m = [5, 5]
    for _ in range(20):
        before = list(m)
        for coord in (1, 0):
            best = max(range(1, 41),
                       key=lambda v: obj(*(m[:coord] + [v] + m[coord + 1:])))
            m[coord] = best
        if m == before:
            break
    stalled = m == [5, 5]
    # the search's first move from (5,5): its best joint +-1 neighbor
    first, first_obj = solvers._neighborhood_best(sc.flow_search(sc.flows[0]),
                                                  [5, 5], lam, sc.M)
    escaped = first == [6, 6] and first_obj > obj(5, 5)
    ok = stalled and escaped
    report(14, ok, f"coordinate-wise stalls at {m}; joint neighborhood "
                   f"first move {first} with objective "
                   f"{first_obj:.6f} > {obj(5, 5):.6f}")


# --- criterion 15: packet-level simulator against the analytic chain --------

def test_criterion_15_sim_vs_analytic():
    net = Network(nodes=["a", "b"],
                  links=[Link("e1", "a", "b", 20.0,
                              LossSpec.independent(0.2))])
    sc = solvers.Scenario(network=net,
                          flows=[Flow(id="f", links=("e1",), batch_size=16)],
                          M=16)
    pol = RecodingPolicy.nonadaptive(20)
    P = rankcalc.transition_matrix(pol, sc.loss_model("e1"), 256, 16)
    _, want = propagate(rankcalc.source_distribution(16), [P])
    from batsnum.netmodel import Schedule
    sol = solvers.Solution(
        mode="nap", flow_ids=["f"], alpha=np.array([0.8]), eta=np.ones(1),
        policies=[[pol]], mbar=[[20.0]], expected_rank=np.array([want]),
        utilities=np.array([math.log(0.8 * want)]),
        u_total=float(math.log(0.8 * want)), u_tilde=0.0, kappa=1.0,
        rate_vector=np.array([20.0]),
        schedule_weights=[(Schedule(active=(1,)), 1.0)], status={})
    slots = 126_000  # > 1e5 batches at 0.8 per slot
    rep = sim.run_simulation(sc, sol, slots=slots, rng_seed=21)
    n = int(rep.rank_hist["f"].sum())
    emp = empirical_rank_distribution(rep, "f")
    got = float(emp @ np.arange(17))
    sd = math.sqrt(float(emp @ (np.arange(17) - got) ** 2))
    tol = 3 * sd / math.sqrt(n)
    ok = n >= 100_000 and abs(got - want) <= tol
    report(15, ok, f"{n} batches: empirical E={got:.4f} vs analytic "
                   f"{want:.4f}, |gap|={abs(got - want):.4f} <= 3se={tol:.4f}")
