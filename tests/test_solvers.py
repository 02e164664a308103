import math

import numpy as np
import pytest
from oracles import flow_two_step_grid_loop, local_search_reference, propagate

import batsnum
from batsnum import rankcalc, solvers
from batsnum.loss import LossSpec
from batsnum.netmodel import Flow, Link, Network, two_hop_interference
from batsnum.recoding import RecodingPolicy
from batsnum.solvers import (SEARCH_THRESHOLD, Scenario, Solution,
                             SolverConfig, _neighborhood_best,
                             flow_subproblem_local_search,
                             solve_fixed_policy, solve_nap, solve_up,
                             utility_ratio)


def make_line_scenario(n_links, eps=0.2, caps=None, flows=None, M=16,
                       interference="two-hop", m0=None, **solver_kw):
    caps = caps or [1.0] * n_links
    if np.isscalar(eps):
        eps = [eps] * n_links
    nodes = [f"v{i}" for i in range(n_links + 1)]
    links = [Link(f"e{i+1}", f"v{i}", f"v{i+1}", caps[i],
                  LossSpec.independent(eps[i])) for i in range(n_links)]
    net = Network(nodes=nodes, links=links)
    if interference == "two-hop":
        net.interference = two_hop_interference(net)
    elif interference == "all":
        ids = [l.id for l in links]
        net.interference = {e: frozenset(set(ids) - {e}) for e in ids}
    net.__post_init__()
    if flows is None:
        flows = [tuple(f"e{i+1}" for i in range(n_links))]
    flow_objs = [Flow(id=f"f{j+1}", links=fl, batch_size=M)
                 for j, fl in enumerate(flows)]
    cfg = SolverConfig(**solver_kw) if solver_kw else SolverConfig()
    return Scenario(network=net, flows=flow_objs, M=M, solver=cfg, m0=m0)


def test_utility_ratio():
    assert utility_ratio(-4.0, -4.0, 2) == pytest.approx(1.0)
    assert utility_ratio(-4.238, -4.030, 2) == pytest.approx(0.9012, abs=2e-4)
    assert utility_ratio(-5.0, -4.0, 2) < 1.0
    with pytest.raises(ValueError):
        utility_ratio(-1.0, -1.0, 0)


def test_fixed_policy_single_link():
    sc = make_line_scenario(1)
    policies = [[RecodingPolicy.nonadaptive(20)]]
    res = solve_fixed_policy(sc, policies)
    assert res.alpha[0] == pytest.approx(1 / 20, abs=1e-9)
    P = rankcalc.transition_matrix(policies[0][0], sc.loss_model("e1"), 256, 16)
    _, e = propagate(rankcalc.source_distribution(16), [P])
    assert res.utilities[0] == pytest.approx(math.log(e / 20), abs=1e-9)


def test_fixed_policy_capacity_scaling():
    sc1 = make_line_scenario(4, flows=[("e1", "e2"), ("e2", "e3", "e4")])
    sc2 = make_line_scenario(4, caps=[2.0] * 4,
                             flows=[("e1", "e2"), ("e2", "e3", "e4")])
    pols = [[RecodingPolicy.nonadaptive(20)] * 2,
            [RecodingPolicy.nonadaptive(20)] * 3]
    r1 = solve_fixed_policy(sc1, pols)
    r2 = solve_fixed_policy(sc2, pols)
    assert np.allclose(r2.alpha, 2 * r1.alpha, rtol=1e-6)


def test_fixed_policy_case1_table_values(solved):
    # frozen reference counts for this case; the recovered utilities
    # should land on the frozen reference pair
    sc = solved.scenario(1)
    m1 = [32, 31, 19, 19, 19]
    m2 = [19, 19, 19, 29, 33, 31]
    pols = [[RecodingPolicy.nonadaptive(m) for m in m1],
            [RecodingPolicy.nonadaptive(m) for m in m2]]
    res = solve_fixed_policy(sc, pols)
    assert res.utilities[0] == pytest.approx(-2.119, abs=0.03)
    assert res.utilities[1] == pytest.approx(-2.119, abs=0.03)


def test_local_search_single_link_lossless_ratio():
    sc = make_line_scenario(1, eps=0.0)
    lam = np.array([1.0])
    res = flow_subproblem_local_search(sc, sc.flows[0], lam)
    # lossless ratio E/m is ~1 on the whole plateau m <= M (up to the
    # finite-field rank deficiency); the search must stay on the plateau
    # and reach the sweep optimum within its stopping threshold
    sweep = max(_equal_m_rank_one_link(sc, m) / m for m in range(1, 33))
    assert 1 <= res.m[0] <= 16
    assert res.objective == pytest.approx(1.0, abs=1e-6)
    assert res.objective >= sweep - 1e-6


def _equal_m_rank_one_link(sc, m):
    W = sc.hop_tables("e1")
    h = np.zeros(17)
    h[16] = 1.0
    return float((h @ W[m]) @ np.arange(17))


def test_local_search_joint_escape_and_reference_values():
    # two-hop flow, both prices 0.5: single-coordinate sweeps stall at
    # (5,5) but the joint neighborhood improves through (6,6)
    sc = make_line_scenario(2)
    lam = np.array([0.5, 0.5])
    W = [sc.hop_tables("e1"), sc.hop_tables("e2")]

    def obj(m1, m2):
        h = np.zeros(17)
        h[16] = 1.0
        h = h @ W[0][m1] @ W[1][m2]
        return float(h @ np.arange(17)) / (0.5 * (m1 + m2))

    assert obj(5, 5) == pytest.approx(0.7046350070467768, abs=1e-9)
    assert obj(6, 6) == pytest.approx(0.712021492331114, abs=1e-9)
    # coordinate-wise alternation from (5,5)
    m = [5, 5]
    for _ in range(10):
        before = list(m)
        for coord in (1, 0):
            cand = [(obj(*(m[:coord] + [v] + m[coord + 1:])), v)
                    for v in range(1, 41)]
            m[coord] = max(cand)[1]
        if m == before:
            break
    assert m == [5, 5]
    # joint neighborhood search escapes via (6,6): its first move
    first, _ = _neighborhood_best(sc.flow_search(sc.flows[0]), [5, 5], lam,
                                  sc.M)
    assert first == [6, 6]
    res = flow_subproblem_local_search(sc, sc.flows[0], lam, init_m=[5, 5])
    assert res.objective > obj(5, 5)


def test_local_search_all_zero_prices_threshold_stop():
    # free links: the search climbs the expected rank alone and stops when
    # a step gains less than SEARCH_THRESHOLD, well below the caps
    sc = make_line_scenario(2)
    flow = sc.flows[0]
    res = flow_subproblem_local_search(sc, flow, np.zeros(2))
    m, objective, threshold_stop = local_search_reference(
        [sc.hop_tables(e) for e in flow.links], np.zeros(2),
        sc.flow_caps(flow), sc.flow_search(flow).init_m, sc.M,
        SEARCH_THRESHOLD)
    assert threshold_stop and (res.m, res.objective) == (m, objective)
    assert all(m < cap for m, cap in zip(res.m, sc.flow_caps(sc.flows[0])))
    assert math.isinf(res.alpha)


@pytest.mark.parametrize("flow_index", [0, 1])
def test_local_search_matches_unmemoized_reference(flow_index):
    # the memoized search against the plain 3^L forward stack, on one
    # scenario so the memo fills across price vectors; bit-identical
    sc = batsnum.load_scenario("case1", loss_family="iid")
    flow = sc.flows[flow_index]
    E = len(sc.network.links)
    idx = [sc.network.link_index(e) for e in flow.links]
    caps = sc.flow_caps(flow)
    W_list = [sc.hop_tables(e) for e in flow.links]
    default_m = [min(int(c), math.ceil(sc.M / (1.0 - sc.network.link(e)
                                                 .loss.average_loss_rate)))
                 for c, e in zip(caps, flow.links)]
    rng = np.random.default_rng(5)
    prices = [rng.uniform(0.0, 0.5, E) for _ in range(50)]
    for p in prices[:10]:
        zeroed = p.copy()
        zeroed[rng.choice(E, size=rng.integers(1, E), replace=False)] = 0.0
        prices.append(zeroed)
    prices.append(np.zeros(E))
    warm = None
    for lam in prices:
        for init_m in (None, warm):
            res = flow_subproblem_local_search(sc, flow, lam, init_m=init_m)
            ref = local_search_reference(
                W_list, lam[idx], caps,
                default_m if init_m is None else init_m, sc.M,
                SEARCH_THRESHOLD)
            assert (res.m, res.objective) == ref[:2]
        warm = res.m
    memo = sc.flow_search(flow).memo
    assert len(memo) > 1
    for record in memo.values():  # expected ranks and candidate loads
        assert len(record) == 2
        assert all(isinstance(a, np.ndarray) and not a.flags.writeable
                   for a in record)


def test_local_search_counts_above_255_match_reference():
    # caps of 300 need 16-bit loads in the memo; walks start at the caps
    sc = make_line_scenario(3, eps=[0.1, 0.3, 0.2], m0=300)
    flow = sc.flows[0]
    caps = sc.flow_caps(flow)
    assert caps.min() > 255
    W_list = [sc.hop_tables(e) for e in flow.links]
    rng = np.random.default_rng(11)
    for _ in range(10):
        lam = rng.uniform(0.0, 0.5, 3)
        lam[rng.integers(3)] *= rng.integers(2)  # some zero prices
        for init_m in (caps.tolist(), (caps - [0, 20, 45]).tolist()):
            res = flow_subproblem_local_search(sc, flow, lam, init_m=init_m)
            ref = local_search_reference(W_list, lam, caps, init_m, sc.M,
                                         SEARCH_THRESHOLD)
            assert (res.m, res.objective) == ref[:2]
    assert max(max(k) for k in sc.flow_search(flow).memo) > 255


def test_cached_tables_read_only():
    sc = make_line_scenario(1)
    model = sc.loss_model("e1")
    for table in (sc.hop_tables("e1"),
                  rankcalc.expected_rank_table(model, sc.q, sc.M),
                  rankcalc.rank_pmf_table(sc.M, model.m_max, sc.q)):
        with pytest.raises(ValueError):
            table[1] += 1.0


def test_single_flow_all_collision():
    # one link at a time: unit prices on the flow's links make the joint
    # search maximize E[h] / (m1 + m2), checked over the full grid
    sc = make_line_scenario(2, M=4, interference="all")
    flow = sc.flows[0]
    lam = np.zeros(len(sc.network.links))
    lam[sc.flow_search(flow).idx] = 1.0
    res = flow_subproblem_local_search(sc, flow, lam)
    W1, W2 = sc.hop_tables("e1"), sc.hop_tables("e2")
    source = rankcalc.source_distribution(4)
    best = max(float(source @ W1[m1] @ W2[m2] @ np.arange(5)) / (m1 + m2)
               for m1 in range(41) for m2 in range(41) if m1 + m2)
    assert res.objective == pytest.approx(best, rel=1e-9)


def test_solve_up_single_link_exact():
    sc = make_line_scenario(1)
    up = solve_up(sc)
    assert up.u_tilde == pytest.approx(math.log(0.8), abs=1e-9)


def test_solve_up_case1(solved):
    up = solved.up(1)
    assert up.u_tilde == pytest.approx(-4.030, abs=0.005)


def test_solve_nap_case1(solved):
    sol = solved.nap(1)
    assert 0.891 <= sol.kappa <= 0.911
    assert sol.utilities[0] == pytest.approx(-2.119, abs=0.05)
    assert sol.utilities[1] == pytest.approx(-2.119, abs=0.05)
    assert sol.constraint_violation(solved.scenario(1)) <= 1e-9
    # sanity: the schedule weights really decompose the rate vector
    total = sum(w for _, w in sol.schedule_weights)
    assert total <= 1.0 + 1e-9


def test_two_step_never_worse(solved):
    nap = solved.nap(1)
    two = solved.two_step(1)
    assert two.u_total >= nap.u_total - 1e-9
    assert np.all(two.eta >= 1.0 - 1e-12)


@pytest.mark.parametrize("case,family", [(1, "iid"), (10, "iid"), (4, "ge")])
def test_flow_two_step_equals_grid_loop(solved, case, family):
    # the stacked grid scan against one scalar hop chain per grid scale;
    # iid 10 has 8 hops
    sc, nap = solved.scenario(case, family), solved.nap(case, family)
    for i, flow in enumerate(sc.flows):
        m_vec = [int(round(mb)) for mb in nap.mbar[i]]
        alpha = float(nap.alpha[i])
        eta, rank, hops = solvers._flow_two_step(sc, flow, m_vec, alpha)
        want_eta, want_rank, want_hops = flow_two_step_grid_loop(
            sc, flow, m_vec, alpha)
        assert (eta, rank) == (want_eta, want_rank)
        assert len(hops) == len(want_hops) == len(flow.links)
        for got, want in zip(hops, want_hops):
            assert np.array_equal(got.targets, want.targets)
            assert got.budget_used == want.budget_used


def test_every_solver_result_is_one_solution(solved):
    # the fixed-policy solve on the NAP pick's policies is that pick, and
    # the two-step keeps the NAP's flows, bound and schedule
    sc, nap, two = solved.scenario(1), solved.nap(1), solved.two_step(1)
    fixed = solve_fixed_policy(sc, nap.policies)
    assert fixed.mode == "fixed" and np.all(fixed.eta == 1.0)
    assert math.isnan(fixed.u_tilde) and math.isnan(fixed.kappa)
    for name in ("alpha", "utilities", "rate_vector"):
        assert np.array_equal(getattr(fixed, name), getattr(nap, name)), name
    assert fixed.schedule_weights == nap.schedule_weights
    assert fixed.status["allocation"] == nap.status["allocation"]
    assert two.flow_ids == nap.flow_ids and two.u_tilde == nap.u_tilde
    assert np.array_equal(two.rate_vector, nap.rate_vector)
    assert two.schedule_weights == nap.schedule_weights


def test_solution_json_roundtrip(solved):
    sol = solved.two_step(1)
    back = Solution.from_json(sol.to_json())
    assert back.mode == sol.mode
    assert np.allclose(back.alpha, sol.alpha)
    assert np.allclose(back.utilities, sol.utilities)
    assert back.to_json() == sol.to_json()


def test_nap_deterministic():
    sc1 = make_line_scenario(3, flows=[("e1", "e2"), ("e2", "e3")],
                             dual_iters=400)
    sc2 = make_line_scenario(3, flows=[("e1", "e2"), ("e2", "e3")],
                             dual_iters=400)
    s1 = solve_nap(sc1)
    s2 = solve_nap(sc2)
    assert s1.to_json() == s2.to_json()
    # again on sc1, whose search contexts are now warm
    assert solve_nap(sc1).to_json() == s2.to_json()


def test_nap_skips_candidates_with_an_idle_flow():
    # the groupwise polish clips f2's only count to 0; that candidate has
    # no load for f2 and must be skipped, not sent to the allocation
    links = [Link("e1", "a", "b", 8.0, LossSpec.independent(0.2)),
             Link("e2", "b", "c", 8.0, LossSpec.independent(0.1))]
    net = Network(nodes=["a", "b", "c"], links=links)
    net.interference = two_hop_interference(net)
    net.__post_init__()
    flows = [Flow(id="f1", links=("e1", "e2"), batch_size=4),
             Flow(id="f2", links=("e2",), batch_size=4)]
    sc = Scenario(network=net, flows=flows, M=4, m0=12)
    sol = solve_nap(sc)
    assert sol.constraint_violation(sc) <= 1e-9
    assert sol.u_total <= sol.u_tilde + 1e-9
