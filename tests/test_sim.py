import math

import numpy as np
import pytest

from batsnum import ffmat, rankcalc, sim, solvers
from batsnum.loss import LossSpec
from batsnum.netmodel import Flow, Link, Network, Schedule
from batsnum.recoding import RecodingPolicy
from batsnum.sim import (BatchSource, SimulationInputError, build_tdma_frame,
                         buffer_stability, recode_batch, run_simulation)
from oracles import (SteppedBatchSource, empirical_rank_distribution,
                     gf256_rank_stacked, matrix_rank, propagate,
                     recode_batch_global)


def single_link_scenario(eps=0.2, cap=1.0, M=16):
    net = Network(nodes=["a", "b"],
                  links=[Link("e1", "a", "b", cap, LossSpec.independent(eps))])
    return solvers.Scenario(network=net,
                            flows=[Flow(id="f1", links=("e1",), batch_size=M)],
                            M=M)


def manual_solution(sc, m, alpha, rate=None):
    pol = RecodingPolicy.nonadaptive(m)
    P = rankcalc.transition_matrix(pol, sc.loss_model("e1"), sc.q, sc.M)
    _, e = propagate(rankcalc.source_distribution(sc.M), [P])
    rate = rate if rate is not None else sc.network.links[0].capacity
    return solvers.Solution(
        mode="nap", flow_ids=["f1"], alpha=np.array([alpha]),
        eta=np.ones(1), policies=[[pol]], mbar=[[float(m)]],
        expected_rank=np.array([e]),
        utilities=np.array([math.log(alpha * e)]),
        u_total=float(math.log(alpha * e)), u_tilde=0.0, kappa=1.0,
        rate_vector=np.array([rate]),
        schedule_weights=[(Schedule(active=(1,)), 1.0)], status={})


def test_batch_source_rate():
    n = len(BatchSource(0.877e-2).emission_slots(1_000_000))
    assert n == pytest.approx(0.877e-2 * 1_000_000, rel=0.01)
    with pytest.raises(SimulationInputError):
        BatchSource(0.0)


def test_batch_source_unit_rate():
    assert BatchSource(1.0).emission_slots(5) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("alpha", [0.877e-2, 1.0, 1.7])
def test_emission_slots_follow_the_stepped_clock(alpha):
    ref = SteppedBatchSource(alpha)
    want = [slot for slot in range(100_000) for _ in range(ref.step())]
    assert BatchSource(alpha).emission_slots(100_000) == want


def test_tdma_frame_single_and_split():
    s1 = Schedule(active=(1, 0))
    s2 = Schedule(active=(0, 1))
    frame = build_tdma_frame([(s1, 1.0)], frame_length=50)
    assert len(frame) == 50 and all(f is s1 for f in frame)
    frame = build_tdma_frame([(s1, 0.5), (s2, 0.5)], frame_length=10)
    assert sum(f is s1 for f in frame) == 5
    assert sum(f is s2 for f in frame) == 5


def test_tdma_frame_rounding_bound():
    s1 = Schedule(active=(1, 0))
    s2 = Schedule(active=(0, 1))
    weights = [(s1, 0.371), (s2, 0.482)]
    F = 1000
    frame = build_tdma_frame(weights, frame_length=F)
    assert len(frame) == F
    for s, w in weights:
        share = sum(f is s for f in frame) / F
        assert abs(share - w) <= 1.0 / F + 1e-12


def test_tdma_frame_weight_overflow():
    s1 = Schedule(active=(1,))
    with pytest.raises(SimulationInputError):
        build_tdma_frame([(s1, 0.7), (s1, 0.5)], frame_length=10)


def test_recode_rank_zero_sends_nothing():
    pol = RecodingPolicy.adaptive(_point_mass_rows(16, 5))
    rows = recode_batch(0, pol, 256, np.random.default_rng(0))
    assert rows.shape == (0, 0)


def sender_basis(rank, M, rng):
    """A receiver basis of the given rank, grown from random rows with zero
    and repeated rows among them."""
    basis = ffmat.RowBasis()
    while basis.rank < rank:
        row = ffmat.random_matrix(1, M, rng)
        if rng.random() < 0.2:
            row[:] = 0
        for coeff in ffmat.int_rows(np.vstack([row, row])):
            basis.absorb(coeff)
    return basis


@pytest.mark.parametrize("m", [0, 3, 40])
def test_local_recode_is_innovative_where_global_is(m):
    # the sender's basis B has full row rank, so c -> cB is injective and a
    # row cB is innovative exactly when c is: same flags, same ranks
    M = 16
    pol = RecodingPolicy.nonadaptive(m)
    for rank in range(M + 1):
        for seed in range(4):
            B = sender_basis(rank, M, np.random.default_rng([rank, seed]))
            local = recode_batch(rank, pol, 256, np.random.default_rng(seed))
            rows = recode_batch_global(B.to_array(M), pol, rank, 256,
                                       np.random.default_rng(seed))
            assert local.shape == (m, rank) and rows.shape == (m, M)
            # zero and repeated rows, each side's image of the same rows
            extra = np.vstack([np.zeros((1, rank), np.uint8), local[:2]])
            local = np.vstack([extra, local, extra])
            rows = np.vstack([ffmat.gf_matmul(extra, B.to_array(M)), rows,
                              ffmat.gf_matmul(extra, B.to_array(M))])
            got, want = ffmat.RowBasis(), ffmat.RowBasis()
            assert ([got.absorb(c) for c in ffmat.int_rows(local)]
                    == [want.absorb(c) for c in ffmat.int_rows(rows)])
            assert got.rank == want.rank <= rank


def _point_mass_rows(M, m):
    p = np.zeros((M + 1, m + 1))
    p[0, 0] = 1.0
    for r in range(1, M + 1):
        p[r, m] = 1.0
    return p


def test_uniform_recode_downstream_rank_matches_transition_row():
    # rank-16 batch, 20 recoded, independent 0.2 loss; empirical next-rank
    # distribution against the analytic transition row
    M, m, eps, n = 16, 20, 0.2, 100_000
    sc = single_link_scenario(eps=eps)
    pol = RecodingPolicy.nonadaptive(m)
    P = rankcalc.transition_matrix(pol, sc.loss_model("e1"), 256, M)
    rng = np.random.default_rng(2)
    kept = np.zeros((n, m, M), dtype=np.uint8)  # zero rows keep the rank
    for i in range(n):
        rows = recode_batch(M, pol, 256, rng)
        rows = rows[rng.random(m) < 1 - eps]
        kept[i, :len(rows)] = rows
    ranks = gf256_rank_stacked(kept)
    assert ranks[:2000].tolist() == [matrix_rank(a) for a in kept[:2000]]
    emp = np.bincount(ranks, minlength=M + 1) / n
    for j in range(M + 1):
        se = math.sqrt(max(P[M, j] * (1 - P[M, j]), 1e-9) / n)
        assert abs(emp[j] - P[M, j]) <= 3 * se + 5e-4


def test_lossless_single_link_delivers_full_rank():
    sc = single_link_scenario(eps=0.0)
    sol = manual_solution(sc, m=16, alpha=1 / 16)
    rep = run_simulation(sc, sol, slots=20_000, rng_seed=5)
    assert rep.link_stats["e1"]["sent"] == rep.link_stats["e1"]["received"]
    # uniform recoding keeps a ~1/q rank-deficiency even without loss
    emp = empirical_rank_distribution(rep, "f1")
    assert float(emp @ np.arange(17)) == pytest.approx(
        sol.expected_rank[0], abs=0.01)
    assert rep.completed["f1"] <= rep.emitted["f1"]


def test_single_link_matches_propagate():
    sc = single_link_scenario(eps=0.2)
    sol = manual_solution(sc, m=20, alpha=0.05)
    rep = run_simulation(sc, sol, slots=400_000, rng_seed=6)
    emp = empirical_rank_distribution(rep, "f1")
    got = float(emp @ np.arange(17))
    want = sol.expected_rank[0]
    n = rep.rank_hist["f1"].sum()
    sd = math.sqrt(float(emp @ (np.arange(17) - got) ** 2))
    assert abs(got - want) <= 3 * sd / math.sqrt(n)


def test_simulation_deterministic():
    sc = single_link_scenario(eps=0.2)
    sol = manual_solution(sc, m=20, alpha=0.05)
    r1 = run_simulation(sc, sol, slots=30_000, rng_seed=9)
    r2 = run_simulation(sc, sol, slots=30_000, rng_seed=9)
    assert np.array_equal(r1.rank_hist["f1"], r2.rank_hist["f1"])
    assert r1.utilities == r2.utilities
    assert np.array_equal(r1.buffer_series, r2.buffer_series)


def test_infeasible_solution_rejected():
    sc = single_link_scenario(eps=0.2)
    sol = manual_solution(sc, m=20, alpha=0.06)  # load 1.2 > capacity 1
    with pytest.raises(SimulationInputError):
        run_simulation(sc, sol, slots=1000, rng_seed=1)


def test_overdriven_run_is_unstable():
    sc = single_link_scenario(eps=0.2)
    # load 1.5 on the capacity-1 link, passed off as a rate-1.5 solution
    sol = manual_solution(sc, m=20, alpha=0.075, rate=1.5)
    rep = run_simulation(sc, sol, slots=30_000, rng_seed=3)
    st = buffer_stability(rep)
    assert not st.stable
    assert st.slopes["a"] > 0.01


def test_idle_network_stable():
    sc = single_link_scenario(eps=0.2)
    sol = manual_solution(sc, m=16, alpha=1e-3)
    rep = run_simulation(sc, sol, slots=20_000, rng_seed=4)
    st = buffer_stability(rep)
    assert st.stable and abs(st.slopes["a"]) < 1e-3


def test_fractional_capacity_served():
    sc = single_link_scenario(eps=0.0, cap=0.25)
    sol = manual_solution(sc, m=16, alpha=0.25 / 16 * 0.9, rate=0.25)
    rep = run_simulation(sc, sol, slots=80_000, rng_seed=8)
    assert rep.completed["f1"] >= 0.9 * rep.emitted["f1"] - 5
    st = buffer_stability(rep)
    assert st.stable


def test_ge_chain_advances_per_packet():
    net = Network(nodes=["a", "b"],
                  links=[Link("e1", "a", "b", 1.0,
                              LossSpec.gilbert_elliott(1.0, 0.6, 1e-3, 1e-3))])
    sc = solvers.Scenario(network=net,
                          flows=[Flow(id="f1", links=("e1",), batch_size=16)],
                          M=16)
    pol = RecodingPolicy.nonadaptive(20)
    P = rankcalc.transition_matrix(pol, sc.loss_model("e1"), 256, 16)
    _, e = propagate(rankcalc.source_distribution(16), [P])
    sol = solvers.Solution(
        mode="nap", flow_ids=["f1"], alpha=np.array([0.04]), eta=np.ones(1),
        policies=[[pol]], mbar=[[20.0]], expected_rank=np.array([e]),
        utilities=np.array([math.log(0.04 * e)]),
        u_total=float(math.log(0.04 * e)), u_tilde=0.0, kappa=1.0,
        rate_vector=np.array([1.0]),
        schedule_weights=[(Schedule(active=(1,)), 1.0)], status={})
    rep = run_simulation(sc, sol, slots=300_000, rng_seed=12)
    stats = rep.link_stats["e1"]
    got_loss = 1 - stats["received"] / stats["sent"]
    # sticky two-state channel: wide tolerance around the exact 0.2
    assert got_loss == pytest.approx(0.2, abs=0.03)
    emp = empirical_rank_distribution(rep, "f1")
    got = float(emp @ np.arange(17))
    assert got == pytest.approx(e, abs=0.25)


def test_route_revisiting_a_node_sends_on_every_hop():
    # a -> b -> c -> b -> d passes b twice: a batch closed at b must go on
    # by its hop, e2 after e1 and e4 after e3
    links = [Link(lid, tail, head, 1.0, LossSpec.independent(0.0))
             for lid, tail, head in [("e1", "a", "b"), ("e2", "b", "c"),
                                     ("e3", "c", "b"), ("e4", "b", "d")]]
    net = Network(nodes=["a", "b", "c", "d"], links=links)
    flow = Flow(id="f1", links=("e1", "e2", "e3", "e4"), batch_size=16)
    sc = solvers.Scenario(network=net, flows=[flow], M=16)
    sol = solvers.solve_fixed_policy(sc, [[RecodingPolicy.nonadaptive(6)] * 4])
    rep = run_simulation(sc, sol, slots=2_000, rng_seed=1)
    done = rep.completed["f1"]
    assert done >= rep.emitted["f1"] - 4 > 300  # a few are still in flight
    assert rep.died["f1"] == [0, 0, 0, 0]
    for lid in flow.links:
        # every delivered batch crossed every hop as six packets
        assert rep.link_stats[lid]["sent"] >= 6 * done
    assert rep.rank_hist["f1"].sum() == done
    assert rep.delivered_rank["f1"] >= 5.9 * done


def test_report_json_dict():
    sc = single_link_scenario(eps=0.2)
    sol = manual_solution(sc, m=18, alpha=0.05)
    rep = run_simulation(sc, sol, slots=5_000, rng_seed=2)
    doc = rep.to_json_dict()
    assert doc["slots"] == 5000
    assert "f1" in doc["flows"]
    assert len(doc["flows"]["f1"]["rank_histogram"]) == 17


def test_batches_lost_on_a_hop_are_counted_as_died():
    # two packets per batch through 0.9 loss: most batches lose both
    sc = single_link_scenario(eps=0.9)
    sol = manual_solution(sc, m=2, alpha=0.1)
    rep = run_simulation(sc, sol, slots=20_000, rng_seed=3)
    died = rep.died["f1"]
    assert len(died) == 1
    n = rep.emitted["f1"]
    assert rep.completed["f1"] + died[0] in (n, n - 1)  # one may be in flight
    assert died[0] == pytest.approx(0.81 * n, rel=0.05)
    assert rep.rank_hist["f1"].sum() == rep.completed["f1"]
    st, inn = rep.link_stats["e1"], rep.link_innovation["e1"]
    assert inn["innovative"] + inn["redundant"] == st["received"]
    doc = rep.to_json_dict()
    assert doc["died"] == {"f1": died}
    assert doc["link_innovation"] == rep.link_innovation
