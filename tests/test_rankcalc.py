import math

import numpy as np
import pytest

from batsnum import ffmat, loss, rankcalc
from batsnum.recoding import RecodingPolicy, expand_almost_deterministic
from oracles import (cutset_bound, expected_rank_after_hop,
                     expected_rank_gradient, matrix_rank, prob_rank, propagate)


def test_rank_pmf_edges():
    assert prob_rank(0, 5, 0, 2) == pytest.approx(1.0)
    assert prob_rank(2, 2, 2, 2) == pytest.approx(0.375)
    assert prob_rank(3, 2, 3, 256) == 0.0


@pytest.mark.parametrize("q", [2, 256])
def test_rank_pmf_normalized(q):
    for i in range(9):
        for k in range(9):
            s = sum(prob_rank(i, k, j, q) for j in range(min(i, k) + 1))
            assert s == pytest.approx(1.0, abs=1e-12)


def test_rank_pmf_table_matches_scalar():
    Z = rankcalc.rank_pmf_table(6, 12, 256)
    for i in (0, 3, 6):
        for k in (0, 5, 12):
            for j in range(min(i, k) + 1):
                assert Z[i, k, j] == pytest.approx(
                    prob_rank(i, k, j, 256), rel=1e-12)


def test_expected_rank_edges():
    model = loss.independent_loss_model(0.2, 30)
    assert expected_rank_after_hop(5, 0, model, 256, M=16) == 0.0
    assert expected_rank_after_hop(0, 9, model, 256, M=16) == 0.0
    with pytest.raises(ValueError):
        expected_rank_after_hop(5, 31, model, 256, M=16)


def test_expected_rank_monte_carlo():
    # rank-16 batch, 20 sent, independent 0.2 loss: simulate the hop
    model = loss.independent_loss_model(0.2, 30)
    want = expected_rank_after_hop(16, 20, model, 256, M=16)
    rng = np.random.default_rng(123)
    n = 100_000
    total = 0
    sd_acc = []
    for _ in range(n):
        sent = ffmat.random_matrix(20, 16, rng)
        kept = sent[rng.random(20) < 0.8]
        r = matrix_rank(kept)
        total += r
        sd_acc.append(r)
    got = total / n
    se = np.std(sd_acc) / math.sqrt(n)
    assert abs(got - want) <= 3 * se


def test_transition_matrix_send_nothing():
    model = loss.independent_loss_model(0.2, 20)
    P = rankcalc.transition_matrix(RecodingPolicy.nonadaptive(0), model, 256, 16)
    assert np.allclose(P[:, 0], 1.0)


def test_transition_matrix_stochastic_lower_triangular():
    model = loss.independent_loss_model(0.2, 40)
    P = rankcalc.transition_matrix(RecodingPolicy.nonadaptive(19), model, 256, 16)
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-9)
    assert np.allclose(np.triu(P, k=1), 0.0)


def test_transition_consistent_with_expected_rank():
    model = loss.independent_loss_model(0.2, 40)
    P = rankcalc.transition_matrix(RecodingPolicy.nonadaptive(19), model, 256, 16)
    E1 = rankcalc.expected_rank_table(model, 256, 16)
    rng = np.random.default_rng(0)
    h = rng.random(17)
    h /= h.sum()
    via_matrix = float((h @ P) @ np.arange(17))
    via_curves = float(h @ E1[:, 19])
    assert via_matrix == pytest.approx(via_curves, rel=1e-12)


def test_almost_deterministic_transition_matches_expanded_policy():
    rng = np.random.default_rng(44)
    M = 8
    for model in (loss.independent_loss_model(0.3, 20),
                  loss.empirical_loss_model(
                      loss.LossSpec.gilbert_elliott(0.9, 0.3, 0.1, 0.3),
                      m_max=20, samples=500, rng_seed=2)):
        for m0 in (0, 1, 7, 20):
            for kind in ("integer", "fractional", "cap", "zero", "mixed"):
                for _ in range(10):
                    if kind == "integer":
                        t = rng.integers(0, m0 + 1, M + 1).astype(float)
                    elif kind == "fractional":
                        t = rng.uniform(0, m0, M + 1)
                    elif kind == "cap":
                        t = np.full(M + 1, float(m0))
                    elif kind == "zero":
                        t = np.zeros(M + 1)
                    else:
                        t = rng.choice([0.0, float(m0), rng.uniform(0, m0),
                                        float(rng.integers(0, m0 + 1))], M + 1)
                    want = rankcalc.transition_matrix(
                        expand_almost_deterministic(t, m0), model, 256, M)
                    got = rankcalc.almost_deterministic_transition(
                        t, model, 256, M)
                    assert np.array_equal(got, want)


def test_almost_deterministic_transition_stack_mixes_only_fractions():
    # a (2, 3, M+1) stack: integral rows, rows with several fractional
    # ranks, and fractional targets at rank 0 (which sends nothing)
    M, m0 = 8, 20
    model = loss.independent_loss_model(0.3, m0)
    rng = np.random.default_rng(45)
    t = rng.integers(0, m0 + 1, (2, 3, M + 1)).astype(float)
    t[0, 1, [2, 3, 7]] += [0.25, 0.5, 0.75]
    t[1, 0, 0] = 3.5
    t[1, 2] = rng.uniform(0, m0, M + 1)
    t[1, 2, -1] = m0
    got = rankcalc.almost_deterministic_transition(t, model, 256, M)
    assert got.shape == (2, 3, M + 1, M + 1)
    for idx in np.ndindex(2, 3):
        want = rankcalc.transition_matrix(
            expand_almost_deterministic(t[idx], m0), model, 256, M)
        assert np.array_equal(got[idx], want)
        assert np.array_equal(
            got[idx], rankcalc.almost_deterministic_transition(t[idx], model,
                                                               256, M))


@pytest.mark.parametrize("family", ["iid", "ge"])
def test_nonadaptive_transition_is_the_mixing_path(family):
    model = (loss.independent_loss_model(0.2, 24) if family == "iid" else
             loss.empirical_loss_model(
                 loss.LossSpec.gilbert_elliott(0.9, 0.3, 0.1, 0.3),
                 m_max=24, samples=2000, rng_seed=5))
    M = 16
    W = rankcalc.hop_tables(model, 256, M)
    before = W.copy()
    for m in range(model.m_max + 1):
        # the same count as a one-hot adaptive policy, mixed rank by rank
        p = np.zeros((M + 1, model.m_max + 1))
        p[0, 0] = 1.0
        p[1:, m] = 1.0
        mixed = rankcalc.transition_matrix(RecodingPolicy.adaptive(p), model,
                                           256, M)
        got = rankcalc.transition_matrix(RecodingPolicy.nonadaptive(m), model,
                                         256, M)
        assert np.array_equal(got[1:], mixed[1:])
        assert np.array_equal(got[0], W[m, 0])
        got[:] = -1.0
    assert np.array_equal(W, before)
    with pytest.raises(ValueError):
        rankcalc.transition_matrix(RecodingPolicy.nonadaptive(model.m_max + 1),
                                   model, 256, M)


def test_policy_support_exceeding_model_raises():
    model = loss.independent_loss_model(0.2, 10)
    with pytest.raises(ValueError):
        rankcalc.transition_matrix(RecodingPolicy.nonadaptive(11), model, 256, 4)


def test_propagate_empty_and_monotone():
    h0 = rankcalc.source_distribution(16)
    h, e = propagate(h0, [])
    assert np.allclose(h, h0) and e == pytest.approx(16.0)
    model = loss.independent_loss_model(0.2, 40)
    P = rankcalc.transition_matrix(RecodingPolicy.nonadaptive(20), model, 256, 16)
    prev = 16.0
    mats = []
    for _ in range(6):
        mats.append(P)
        _, e = propagate(h0, mats)
        assert e <= prev + 1e-12
        prev = e


FIG_POINTS = {
    # (m1, m2) -> E[h] / (0.5 (m1 + m2)) for the two-hop, 0.2-loss flow,
    # frozen as regression references for the whole transition pipeline.
    (5, 5): 0.7046350070467768,
    (6, 6): 0.712021492331114,
    (4, 4): 0.6951462712499902,
    (5, 6): 0.6901017880348363,
    (7, 7): 0.7179581161898583,
    (8, 10): 0.6946042301472493,
}


def test_two_hop_objective_reference_values():
    model = loss.independent_loss_model(0.2, 40)
    h0 = rankcalc.source_distribution(16)
    for (m1, m2), want in FIG_POINTS.items():
        P1 = rankcalc.transition_matrix(RecodingPolicy.nonadaptive(m1), model, 256, 16)
        P2 = rankcalc.transition_matrix(RecodingPolicy.nonadaptive(m2), model, 256, 16)
        _, e = propagate(h0, [P1, P2])
        assert e / (0.5 * (m1 + m2)) == pytest.approx(want, abs=1e-9)


def test_gradient_matches_finite_differences():
    M = 8
    model = loss.independent_loss_model(0.25, 20)
    rng = np.random.default_rng(5)
    t = rng.uniform(0, 12, M + 1)
    t[0] = 0
    pols = [expand_almost_deterministic(t, 20) for _ in range(3)]
    mats = [rankcalc.transition_matrix(p, model, 256, M) for p in pols]
    h0 = rankcalc.source_distribution(M)
    for hop in range(3):
        G = expected_rank_gradient(h0, mats, hop, pols[hop], model, 256)
        # transition matrices are linear in the policy: exercise a few entries
        for (r, m) in [(3, 7), (8, 0), (5, 12)]:
            step = 1e-6
            P_plus = mats[hop] + step * _unit_dP(model, r, m, M)
            P_minus = mats[hop] - step * _unit_dP(model, r, m, M)
            up = _chain_value(h0, mats, hop, P_plus, M)
            dn = _chain_value(h0, mats, hop, P_minus, M)
            fd = (up - dn) / (2 * step)
            denom = max(abs(fd), 1e-12)
            assert abs(G[r, m] - fd) / denom < 1e-6


def _unit_dP(model, r, m, M):
    Z = rankcalc.rank_pmf_table(M, model.m_max, 256)
    D = np.zeros((M + 1, M + 1))
    for j in range(min(r, m) + 1):
        D[r, j] = sum(model.q_table[m, kk] * Z[r, kk, j]
                      for kk in range(j, m + 1))
    return D


def _chain_value(h0, mats, hop, P_sub, M):
    seq = list(mats)
    seq[hop] = P_sub
    _, e = propagate(h0, seq)
    return e


def test_gradient_rows_zero_off_rank():
    M = 6
    model = loss.independent_loss_model(0.2, 15)
    pol = RecodingPolicy.nonadaptive(8)
    mats = [rankcalc.transition_matrix(pol, model, 256, M)] * 2
    h0 = rankcalc.source_distribution(M)
    G = expected_rank_gradient(h0, mats, 1, pol, model, 256)
    # only ranks reachable at the hop contribute: the gradient row r is
    # left[r] * (...), so rows with zero incoming mass vanish
    left = h0 @ mats[0]
    for r in range(M + 1):
        if left[r] == 0:
            assert np.allclose(G[r], 0.0)


def test_gradient_sign_single_hop():
    M = 6
    model = loss.independent_loss_model(0.2, 15)
    pol = expand_almost_deterministic(np.array([0, 2, 2, 3, 3, 4, 5.0]), 15)
    mats = [rankcalc.transition_matrix(pol, model, 256, M)]
    h0 = rankcalc.source_distribution(M)
    G = expected_rank_gradient(h0, mats, 0, pol, model, 256)
    assert np.all(G[1:, 1:] >= -1e-12)


def test_cutset_bound():
    per_edge = [(32, 0.2), (31, 0.2), (19, 0.2), (19, 0.2), (19, 0.2)]
    assert cutset_bound(16, per_edge) == pytest.approx(15.2)
    assert cutset_bound(16, [(0, 0.2)]) == 0.0
    with pytest.raises(ValueError):
        cutset_bound(16, [(5, 1.0)])


def test_chain_monotone_in_single_count():
    # three-hop chain: destination expected rank never decreases when any
    # single hop's count grows, all others fixed
    model = loss.independent_loss_model(0.2, 41)
    h0 = rankcalc.source_distribution(16)
    base = [20, 18, 22]
    for vary in range(3):
        prev = -1.0
        for m in range(0, 41):
            ms = list(base)
            ms[vary] = m
            mats = [rankcalc.transition_matrix(RecodingPolicy.nonadaptive(x),
                                               model, 256, 16) for x in ms]
            _, e = propagate(h0, mats)
            assert e >= prev - 1e-10
            prev = e
