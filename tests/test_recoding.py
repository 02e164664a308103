import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from batsnum import loss, recoding
from batsnum.recoding import (AlmostDeterministicSpec, RecodingPolicy,
                              average_packets, average_packets_gradient,
                              expand_almost_deterministic, optimize_hop,
                              project_stochastic)
from oracles import (almost_deterministic_exhaustive, optimize_hop_budget_loop,
                     simplex_projection_qp)
from batsnum import rankcalc


def unit_h(M, r):
    h = np.zeros(M + 1)
    h[r] = 1.0
    return h


def test_average_packets_nonadaptive():
    h = np.array([0.1, 0.2, 0.7])
    assert average_packets(RecodingPolicy.nonadaptive(19), h) == pytest.approx(19.0)


def test_average_packets_almost_deterministic():
    t = np.array([0.0, 7.5, 7.5, 7.5])
    pol = expand_almost_deterministic(AlmostDeterministicSpec(t=t), 12)
    h = np.array([0.0, 0.3, 0.3, 0.4])
    assert average_packets(pol, h) == pytest.approx(7.5)


def test_average_packets_point_mass():
    M = 5
    p = np.zeros((M + 1, 11))
    p[0, 0] = 1.0
    for r in range(1, M + 1):
        p[r, 3] = 0.25
        p[r, 9] = 0.75
    pol = RecodingPolicy.adaptive(p)
    got = average_packets(pol, unit_h(M, M))
    assert got == pytest.approx(0.25 * 3 + 0.75 * 9)


def test_average_packets_gradient():
    M = 4
    h = np.array([0.0, 0.5, 0.0, 0.3, 0.2])
    pol = expand_almost_deterministic(np.array([0, 1, 2, 3, 4.0]), 8)
    G = average_packets_gradient(pol, h)
    assert np.allclose(G[2], 0.0)
    assert np.allclose(G[:, 0], 0.0)
    # the map is linear in the policy entries, so central differences on
    # the raw functional sum_{r,m} m p(m|r) h(r) are exact
    def raw(p):
        cols = np.arange(p.shape[1])
        return float(h @ (p @ cols))
    eps = 1e-6
    for (r, m) in [(1, 5), (3, 0), (4, 8)]:
        p_hi, p_lo = pol.p.copy(), pol.p.copy()
        p_hi[r, m] += eps
        p_lo[r, m] -= eps
        fd = (raw(p_hi) - raw(p_lo)) / (2 * eps)
        assert G[r, m] == pytest.approx(fd, abs=1e-9)
        assert G[r, m] == pytest.approx(m * h[r], abs=1e-12)


def test_expand_integer_and_fractional():
    pol = expand_almost_deterministic(np.array([0, 3.0]), 6)
    assert pol.support(1) == [(3, 1.0)]
    pol = expand_almost_deterministic(np.array([0, 2.3]), 6)
    assert dict(pol.support(1)) == pytest.approx({2: 0.7, 3: 0.3})
    with pytest.raises(ValueError):
        expand_almost_deterministic(np.array([0, 7.0]), 6)


@given(st.lists(st.floats(0, 12), min_size=4, max_size=4))
def test_expand_average_linearity(ts):
    t = np.array([0.0] + ts)
    pol = expand_almost_deterministic(t, 13)
    h = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
    assert average_packets(pol, h) == pytest.approx(float(h @ t), abs=1e-9)


def test_project_stochastic_identity_and_symmetric():
    p = np.array([[1.0, 0.0], [0.3, 0.7]])
    assert np.allclose(project_stochastic(p), p)
    out = project_stochastic(np.array([[1.0, 0.0], [0.6, 0.6]]))
    assert np.allclose(out[1], [0.5, 0.5])


def test_project_stochastic_rank0_pinned():
    out = project_stochastic(np.array([[0.2, 0.9], [0.1, 0.4]]))
    assert out[0, 0] == 1.0 and np.allclose(out[0, 1:], 0.0)


@given(st.lists(st.floats(-2, 2), min_size=3, max_size=7),
       st.integers(0, 1000))
def test_project_matches_qp_oracle(row, seed):
    rng = np.random.default_rng(seed)
    v = np.array(row) + rng.normal(0, 0.1, len(row))
    got = project_stochastic(np.vstack([np.zeros_like(v), v]))[1]
    want = simplex_projection_qp(v)
    assert np.allclose(got, want, atol=1e-8)


def test_optimize_hop_zero_budget():
    model = loss.independent_loss_model(0.2, 20)
    res = optimize_hop(unit_h(4, 4), model, 0.0, 256, 4, 12)
    assert res.expected_rank == 0.0
    assert average_packets(res.policy, unit_h(4, 4)) == 0.0


def test_optimize_hop_single_rank_takes_whole_budget():
    model = loss.independent_loss_model(0.2, 170)
    res = optimize_hop(unit_h(16, 16), model, 23.4, 256, 16, 160)
    assert res.targets[16] == pytest.approx(23.4)
    assert average_packets(res.policy, unit_h(16, 16)) == pytest.approx(23.4)


def test_optimize_hop_budget_exhaustion_and_two_point_support():
    model = loss.independent_loss_model(0.2, 130)
    h = np.zeros(5)
    h[2], h[4] = 0.4, 0.6
    res = optimize_hop(h, model, 9.7, 256, 4, 12)
    assert average_packets(res.policy, h) == pytest.approx(9.7, abs=1e-9)
    for r in (2, 4):
        sup = res.policy.support(r)
        ms = [m for m, _ in sup]
        assert len(sup) <= 2 and (len(ms) == 1 or ms[1] == ms[0] + 1)


def test_optimize_hop_matches_exhaustive():
    model = loss.independent_loss_model(0.2, 130)
    E1 = rankcalc.expected_rank_table(model, 256, 4)
    rng = np.random.default_rng(8)
    for _ in range(6):
        h = np.zeros(5)
        r1, r2 = rng.choice([1, 2, 3, 4], size=2, replace=False)
        w = rng.uniform(0.2, 0.8)
        h[r1], h[r2] = w, 1 - w
        budget = float(rng.uniform(1.0, 10.0))
        res = optimize_hop(h, model, budget, 256, 4, 12)
        got = float(h @ [_policy_value(res.policy, E1, r) for r in range(5)])
        want = almost_deterministic_exhaustive(h, E1, budget, 12)
        assert got == pytest.approx(want, abs=1e-9)


def _policy_value(policy, E1, r):
    return sum(p * E1[r, m] for m, p in policy.support(r))


def test_optimize_hop_beats_nonadaptive_blend():
    model = loss.independent_loss_model(0.2, 130)
    M = 8
    h = np.array([0, 0, 0.15, 0.1, 0.2, 0.15, 0.1, 0.1, 0.2])
    budget = 11.3
    res = optimize_hop(h, model, budget, 256, M, 40)
    lo = int(np.floor(budget))
    frac = budget - lo
    E1 = rankcalc.expected_rank_table(model, 256, M)
    blend = float(h @ ((1 - frac) * E1[:, lo] + frac * E1[:, lo + 1]))
    assert res.expected_rank >= blend - 1e-9


def test_optimize_hop_monotone_in_budget():
    model = loss.independent_loss_model(0.3, 130)
    M = 8
    h = np.array([0, 0.05, 0.15, 0.1, 0.2, 0.15, 0.1, 0.1, 0.15])
    prev = -1.0
    for budget in np.linspace(0, 30, 16):
        res = optimize_hop(h, model, float(budget), 256, M, 60)
        assert res.expected_rank >= prev - 1e-9
        prev = res.expected_rank


def _nonconcave_model():
    m_max = 8
    tab = np.zeros((m_max + 1, m_max + 1))
    tab[0, 0] = 1.0
    for m in range(1, m_max + 1):
        tab[m, m] = 1.0
    tab[6] = 0.0
    tab[6, 0] = 1.0
    return loss.BatchLossModel(m_max=m_max, q_table=tab)


def test_optimize_hop_flags_nonconcave_model():
    res = optimize_hop(unit_h(4, 4), _nonconcave_model(), 5.0, 256, 4, 8)
    assert not res.concave


def _random_h(rng, M):
    if rng.random() < 0.2:
        return unit_h(M, int(rng.integers(0, M + 1)))
    h = rng.dirichlet(np.ones(M + 1))
    h[rng.random(M + 1) < 0.4] = 0.0  # ranks nobody can fund
    if h.sum() == 0:
        h[M] = 1.0
    return h / h.sum()


def test_optimize_hop_bit_equal_to_budget_loop():
    ge = loss.LossSpec.gilbert_elliott(0.9, 0.3, 0.1, 0.3)
    models = [loss.independent_loss_model(0.2, 24),
              loss.independent_loss_model(0.4, 24),
              loss.empirical_loss_model(ge, m_max=24, samples=2000,
                                        rng_seed=5, stationarize=True),
              loss.empirical_loss_model(ge, m_max=24, samples=2000,
                                        rng_seed=5, stationarize=False),
              _nonconcave_model()]
    rng = np.random.default_rng(2016)
    checked = 0
    for model in models:
        for M in (4, 8, 16):
            for _ in range(15):
                h = _random_h(rng, M)
                m0 = int(rng.integers(0, model.m_max + 1))
                fundable = h > 0
                fundable[0] = False
                order, _ = recoding._greedy_order(
                    model, 256, M, min(m0, model.m_max), fundable)
                costs = h[order]
                full = float(costs.sum())
                # 0 and 1e-13 sit at or below BUDGET_TOL; a prefix sum of
                # the grant costs lands on a unit boundary
                edge = (float(np.cumsum(costs)[rng.integers(len(costs))])
                        if len(costs) else 1.0)
                for budget in (0.0, 1e-13, float(rng.uniform(0, full)),
                               edge, full * 1.5 + 1.0):
                    got = optimize_hop(h, model, budget, 256, M, m0)
                    want = optimize_hop_budget_loop(h, model, budget, 256, M, m0)
                    assert np.array_equal(got.targets, want.targets)
                    assert got.budget_used == want.budget_used
                    assert got.expected_rank == want.expected_rank
                    assert got.concave == want.concave
                    assert np.array_equal(got.policy.p, want.policy.p)
                    assert np.array_equal(got.h_out, want.h_out)
                    checked += 1
    assert checked >= 1000


def test_greedy_order_cached_read_only():
    model = loss.independent_loss_model(0.2, 20)
    fundable = np.ones(5, dtype=bool)
    fundable[0] = False
    order, concave = recoding._greedy_order(model, 256, 4, 12, fundable)
    assert concave and len(order) == 4 * 12
    with pytest.raises(ValueError):
        order[0] = 1
    assert recoding._greedy_order(model, 256, 4, 12, fundable)[0] is order


def test_policy_json_roundtrip():
    pol = expand_almost_deterministic(np.array([0, 2.25, 5.0]), 8)
    back = RecodingPolicy.from_json(pol.to_json())
    assert np.allclose(back.p, pol.p)
    na = RecodingPolicy.nonadaptive(19)
    assert RecodingPolicy.from_json(na.to_json()).m == 19
