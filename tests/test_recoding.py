import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from batsnum import loss, recoding
from batsnum.recoding import (RecodingPolicy, average_packets,
                              expand_almost_deterministic, optimize_hop)
from oracles import (almost_deterministic_exhaustive, average_packets_by_rank,
                     greedy_order_masked, optimize_hop_budget_loop,
                     optimize_hop_scalar)
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
    pol = expand_almost_deterministic(t, 12)
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


def test_expand_integer_and_fractional():
    pol = expand_almost_deterministic(np.array([0, 3.0]), 6)
    assert pol.support(1) == [(3, 1.0)]
    pol = expand_almost_deterministic(np.array([0, 2.3]), 6)
    assert dict(pol.support(1)) == pytest.approx({2: 0.7, 3: 0.3})
    with pytest.raises(ValueError):
        expand_almost_deterministic(np.array([0, 7.0]), 6)
    with pytest.raises(ValueError):
        expand_almost_deterministic(np.array([0, -0.5]), 6)


@given(st.lists(st.floats(0, 12), min_size=4, max_size=4))
def test_expand_average_linearity(ts):
    t = np.array([0.0] + ts)
    pol = expand_almost_deterministic(t, 13)
    h = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
    assert average_packets(pol, h) == pytest.approx(float(h @ t), abs=1e-9)


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
                                        rng_seed=5),
              loss.empirical_loss_model(
                  loss.LossSpec.gilbert_elliott(1.0, 0.6, 1e-2, 1e-2),
                  m_max=24, samples=2000, rng_seed=5),
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
                order = greedy_order_masked(
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
                    assert np.array_equal(got.policy.p, want.policy.p)
                    assert np.array_equal(got.h_out, want.h_out)
                    checked += 1
    assert checked >= 1000


def _stack_budgets(h, model, M, m0, rng):
    """One budget per row, cycling through zero, below BUDGET_TOL, inside
    the grant order, on a unit boundary and past the whole order."""
    budgets = []
    for i, row in enumerate(h):
        fundable = row > 0
        fundable[0] = False
        order = greedy_order_masked(model, 256, M, min(m0, model.m_max),
                                    fundable)
        prefix = np.cumsum(row[order])
        full = float(prefix[-1]) if len(order) else 0.0
        edge = float(prefix[rng.integers(len(order))]) if len(order) else 1.0
        budgets.append((0.0, 1e-13, float(rng.uniform(0, full)), edge,
                        full * 1.5 + 1.0)[i % 5])
    return np.array(budgets)


def test_stacked_optimize_hop_bit_equal_to_scalar():
    ge = loss.LossSpec.gilbert_elliott(0.9, 0.3, 0.1, 0.3)
    models = [loss.independent_loss_model(0.2, 24),
              loss.empirical_loss_model(ge, m_max=24, samples=2000,
                                        rng_seed=5),
              _nonconcave_model()]
    rng = np.random.default_rng(23)
    for model in models:
        built = set()
        for M in (4, 16):
            # m0 below, at and above the model's m_max
            for m0 in (0, 3, model.m_max, model.m_max + 7):
                h = [_random_h(rng, M) for _ in range(15)]
                # dyadic costs land exactly on a unit boundary; rank 0 alone
                # funds nothing
                dyadic = np.zeros(M + 1)
                dyadic[[1, M // 2, M]] = 0.25, 0.25, 0.5
                h = np.array(h + [dyadic, unit_h(M, 0)])
                budgets = _stack_budgets(h, model, M, m0, rng)
                budgets[-2] = 1.0
                assert len({tuple(row > 0) for row in h}) > 2
                got = optimize_hop(h, model, budgets, 256, M, m0)
                # one cached order per (M, cap), whatever ranks rows fund
                built.add(("greedy_order", 256, M, min(m0, model.m_max)))
                assert {k for k in model._cache
                        if k[0] == "greedy_order"} == built
                for i, row in enumerate(h):
                    want = optimize_hop_scalar(row, model, budgets[i], 256,
                                               M, m0)
                    assert np.array_equal(got.targets[i], want.targets)
                    assert got.budget_used[i] == want.budget_used
                    assert got.expected_rank[i] == want.expected_rank
                    assert np.array_equal(got.h_out[i], want.h_out)
                # a stack of one, and a single distribution
                one = optimize_hop(h[:1], model, budgets[:1], 256, M, m0)
                assert one.expected_rank.shape == (1,)
                assert one.expected_rank[0] == got.expected_rank[0]
                flat = optimize_hop(h[0], model, budgets[0], 256, M, m0)
                assert type(flat.expected_rank) is float
                assert type(flat.budget_used) is float
                assert np.array_equal(flat.targets, got.targets[0])
                assert np.array_equal(flat.h_out, got.h_out[0])


def test_average_packets_bit_equal_to_rank_loop():
    rng = np.random.default_rng(31)
    for M in (4, 16, 40):
        for _ in range(40):
            h = _random_h(rng, M)
            t = rng.uniform(0, 30, M + 1)
            policies = [RecodingPolicy.nonadaptive(m) for m in (0, 1, 7, 19, 160)]
            policies.append(expand_almost_deterministic(t, 30))
            for pol in policies:
                assert average_packets(pol, h) == average_packets_by_rank(pol, h)


def test_greedy_order_cached_read_only():
    model = loss.independent_loss_model(0.2, 20)
    order = recoding._greedy_order(model, 256, 4, 12)
    assert len(order) == 4 * 12
    with pytest.raises(ValueError):
        order[0] = 1
    assert recoding._greedy_order(model, 256, 4, 12) is order


def _first_marginal_tie(model, M):
    """(lo, hi), lo < hi, two ranks whose first grants gain the same."""
    E1 = rankcalc.expected_rank_table(model, 256, M)
    gain = E1[1:M + 1, 1] - E1[1:M + 1, 0]
    for lo in range(M):
        for hi in range(lo + 1, M):
            if gain[lo] == gain[hi]:
                return lo + 1, hi + 1
    raise AssertionError("no tie")


def test_greedy_order_restricted_equals_masked_oracle():
    # the one order per (model, cap), kept to the funded ranks, is the
    # greedy's order over those ranks alone, concave curves or not
    ge = loss.LossSpec.gilbert_elliott(0.9, 0.3, 0.1, 0.3)
    models = [loss.independent_loss_model(0.2, 24),
              loss.empirical_loss_model(ge, m_max=24, samples=2000,
                                        rng_seed=5),
              _nonconcave_model()]
    rng = np.random.default_rng(24)
    for model in models:
        for M in (4, 16):
            masks = [np.zeros(M + 1, dtype=bool)]
            for r in (1, M // 2, M):
                masks.append(unit_h(M, r) > 0)
            masks += [rng.random(M + 1) < 0.5 for _ in range(10)]
            if M == 16 and model.m_max == 24:
                # 256^-r vanishes against 1 for large r, so two ranks tie
                # on their first grant; fund only the higher one
                lo, hi = _first_marginal_tie(model, M)
                tie = rng.random(M + 1) < 0.5
                tie[lo], tie[hi] = False, True
                masks.append(tie)
            for cap in (0, 3, model.m_max):
                order = recoding._greedy_order(model, 256, M, cap)
                for mask in masks:
                    want = greedy_order_masked(model, 256, M, cap, mask)
                    assert np.array_equal(order[mask[order]], want)


def test_policy_json_roundtrip():
    pol = expand_almost_deterministic(np.array([0, 2.25, 5.0]), 8)
    back = RecodingPolicy.from_dict(pol.to_dict())
    assert np.allclose(back.p, pol.p)
    na = RecodingPolicy.nonadaptive(19)
    assert RecodingPolicy.from_dict(na.to_dict()).m == 19


def test_sample_count_draws_as_generator_choice():
    # the cached-CDF draw must give rng.choice's index and leave the
    # generator in the same state, draw after draw
    rng = np.random.default_rng(11)
    M, cols = 16, 30
    policies = []
    for k in (2, 5, cols):
        p = np.zeros((M + 1, cols))
        p[0, 0] = 1.0
        for r in range(1, M + 1):
            support = rng.choice(cols, size=k, replace=False)
            w = rng.random(k)
            p[r, support] = w / w.sum()
        policies.append(RecodingPolicy.adaptive(p))
    t = rng.uniform(0, cols - 1, M + 1)
    t[0] = 0.0
    policies.append(expand_almost_deterministic(t, cols - 1))
    mine, ref = np.random.default_rng(5), np.random.default_rng(5)
    for i in range(20_000):
        pol = policies[i % len(policies)]
        r = int(rng.integers(0, M + 1))
        row = pol.p[r]
        assert pol.sample_count(r, mine) == int(ref.choice(len(row), p=row))
        assert mine.bit_generator.state == ref.bit_generator.state
    fixed = RecodingPolicy.nonadaptive(7)
    before = mine.bit_generator.state
    assert [fixed.sample_count(r, mine) for r in range(M + 1)] == [7] * (M + 1)
    assert mine.bit_generator.state == before
