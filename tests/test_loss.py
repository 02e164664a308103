import hashlib
import itertools
import math

import numpy as np
import pytest

from batsnum import loss
from batsnum.scenarios import GE_BY_LOSS_RATE
from batsnum.solvers import LossModelOptions
from oracles import (ScalarChannel, check_monotone_concave,
                     empirical_loss_model_reference)


def test_independent_lossless():
    model = loss.independent_loss_model(0.0, 8)
    for m in range(9):
        assert model.q_table[m, m] == pytest.approx(1.0)


def test_independent_binomial_value():
    model = loss.independent_loss_model(0.2, 10)
    assert model.q_table[2, 1] == pytest.approx(0.32)


def test_rows_sum_to_one():
    model = loss.independent_loss_model(0.37, 60)
    assert np.allclose(model.q_table.sum(axis=1), 1.0, atol=1e-9)


def test_parameter_errors():
    with pytest.raises(loss.ParameterError):
        loss.independent_loss_model(1.0, 10)
    with pytest.raises(loss.ParameterError):
        loss.independent_loss_model(-0.1, 10)
    with pytest.raises(loss.ParameterError):
        loss.BatchLossModel(m_max=1, q_table=np.array([[0.5, 0.5], [0.5, 0.5]]))


@pytest.mark.parametrize("params,rate", [
    ((1.0, 0.8, 1e-3, 1e-3), 0.1),
    ((1.0, 0.6, 1e-3, 1e-3), 0.2),
    ((0.8, 0.4, 1e-3, 1e-3), 0.4),
])
def test_ge_average_loss_rates_exact(params, rate):
    ge = loss.GEParams(*params)
    assert ge.average_loss_rate() == pytest.approx(rate, abs=1e-12)
    pi_g, pi_b = ge.steady_state()
    assert pi_g + pi_b == pytest.approx(1.0)


def test_ge_step_always_received_in_good_state():
    # s_good 1, s_bad 0: a packet arrives iff the channel sends it from G
    spec = loss.LossSpec.gilbert_elliott(1.0, 0.0, 0.5, 0.5)
    rng = np.random.default_rng(0)
    for _ in range(200):
        ch = ScalarChannel(spec, rng)
        for _ in range(5):
            good = ch.good
            assert ch.transmit() == good


def test_ge_long_run_loss_rate():
    ch = loss.Channel(loss.LossSpec.gilbert_elliott(1.0, 0.8, 1e-3, 1e-3),
                      np.random.default_rng(5))
    n = 200_000
    lost = sum(1 for arrived in itertools.islice(ch, n) if not arrived)
    se = math.sqrt(0.1 * 0.9 / n)
    # state is sticky, so allow a generous multiple of the iid deviation
    assert abs(lost / n - 0.1) < 30 * se


def test_ge_symmetric_state_occupancy():
    ch = ScalarChannel(loss.LossSpec.gilbert_elliott(1.0, 0.0, 0.02, 0.02),
                       np.random.default_rng(9))
    n = 100_000
    good = 0
    for _ in range(n):
        good += ch.good
        ch.transmit()
    # effective samples ~ n * p_switch; 3 sigma on that scale
    se = 0.5 / math.sqrt(n * 0.02)
    assert abs(good / n - 0.5) <= 3 * se


def test_independent_channel_one_draw_per_packet():
    ch = loss.Channel(loss.LossSpec.independent(0.3), np.random.default_rng(4))
    got = list(itertools.islice(ch, 50))
    assert got == list(np.random.default_rng(4).random(50) < 1.0 - 0.3)


CHANNEL_SPECS = [
    loss.LossSpec.independent(0.3),
    loss.LossSpec.gilbert_elliott(1.0, 0.6, 1e-2, 1e-2),
    loss.LossSpec.gilbert_elliott(0.95, 0.3, 5e-2, 8e-2),
    loss.LossSpec.gilbert_elliott(1.0, 0.0, 0.5, 0.5),
]


@pytest.mark.parametrize("spec", CHANNEL_SPECS,
                         ids=["iid", "ge-s_good-1", "ge", "ge-alternating"])
def test_block_channel_matches_scalar_draws(spec):
    # a bursty link's first double is its steady-state draw; then four
    # block boundaries
    n = 4 * loss.CHANNEL_BLOCK + 5
    for seed in range(5):
        ch = loss.Channel(spec, np.random.default_rng(seed))
        ref = ScalarChannel(spec, np.random.default_rng(seed))
        want = [ref.transmit() for _ in range(n)]
        assert list(itertools.islice(ch, n)) == want


def test_empirical_rejects_independent_loss():
    # independent loss has the exact binomial model; nothing estimates it
    with pytest.raises(loss.ParameterError):
        loss.empirical_loss_model(loss.LossSpec.independent(0.2), m_max=12)


def test_empirical_single_sample_point_mass():
    # one path: its only window of length m_max is the path itself
    spec = loss.LossSpec.gilbert_elliott(1.0, 0.6, 1e-3, 1e-3)
    model = loss.empirical_loss_model(spec, m_max=6, samples=1, rng_seed=1)
    assert np.isclose(model.q_table[6].max(), 1.0)


def test_empirical_deterministic():
    spec = loss.LossSpec.gilbert_elliott(1.0, 0.6, 1e-3, 1e-3)
    a = loss.empirical_loss_model(spec, m_max=10, samples=500, rng_seed=6)
    b = loss.empirical_loss_model(spec, m_max=10, samples=500, rng_seed=6)
    assert np.array_equal(a.q_table, b.q_table)


def test_empirical_ge_mean_loss():
    spec = loss.LossSpec.gilbert_elliott(1.0, 0.6, 1e-3, 1e-3)
    model = loss.empirical_loss_model(spec, m_max=40, samples=4000, rng_seed=2)
    got = 1.0 - float(model.q_table[40] @ np.arange(41)) / 40
    assert got == pytest.approx(0.2, abs=0.02)


def test_monotone_concave_independent():
    model = loss.independent_loss_model(0.2, 40)
    rep = check_monotone_concave(model, 16, 256)
    assert rep.monotone and rep.concave


def test_monotone_concave_stationarized_ge():
    spec = loss.LossSpec.gilbert_elliott(1.0, 0.6, 1e-3, 1e-3)
    model = loss.empirical_loss_model(spec, m_max=60, samples=3000,
                                      rng_seed=3)
    rep = check_monotone_concave(model, 16, 256)
    assert rep.concave and rep.worst_concavity_violation <= 1e-6
    assert rep.monotone


def test_monotone_concave_adversarial():
    m_max = 8
    tab = np.zeros((m_max + 1, m_max + 1))
    tab[0, 0] = 1.0
    for m in range(1, m_max + 1):
        tab[m, m] = 1.0
    tab[5] = 0.0
    tab[5, 5] = 1.0
    tab[6] = 0.0
    tab[6, 0] = 1.0  # sending more delivers nothing
    model = loss.BatchLossModel(m_max=m_max, q_table=tab)
    rep = check_monotone_concave(model, 4, 256)
    assert not rep.monotone


def test_path_sampler_matches_stepped_chain():
    # run-length path sampling must agree with the packet-by-packet chain;
    # row m_max is the full-path count, the only cyclic window of that length
    params = loss.GEParams(1.0, 0.6, 0.05, 0.08)
    spec = loss.LossSpec(kind="gilbert_elliott", ge=params)
    m, n = 12, 30000
    model = loss.empirical_loss_model(spec, m_max=m, samples=n, rng_seed=10)
    rng = np.random.default_rng(99)
    counts = np.zeros(m + 1)
    for _ in range(n):
        ch = ScalarChannel(spec, rng)
        got = sum(1 for _ in range(m) if ch.transmit())
        counts[got] += 1
    stepped = counts / n
    for r in range(m + 1):
        p = stepped[r]
        se = math.sqrt(max(p * (1 - p), 1e-6) / n)
        assert abs(model.q_table[m, r] - p) <= 4 * se + 2e-3


@pytest.mark.parametrize("rate,sha1", [
    (0.1, "eb79ad9c7d95c7b10a09ae9d6a4d10e8ac59d3c4"),
    (0.2, "3b553c65d141ea96cfb2fdeb71c8e112b2f6cc8d"),
    (0.4, "af263c7df1f3627cb7ef2481db6e2d299495831a"),
])
def test_default_ge_q_tables_frozen(rate, sha1):
    # the bursty presets' tables at default options, as the windowed
    # histogram of `empirical_loss_model_reference` counts them; every GE
    # digest rests on them
    opts = LossModelOptions()
    spec = loss.LossSpec.gilbert_elliott(*GE_BY_LOSS_RATE[rate])
    table = loss.empirical_loss_model(spec, m_max=opts.m_max,
                                      samples=opts.samples,
                                      rng_seed=opts.seed).q_table
    assert hashlib.sha1(table.tobytes()).hexdigest() == sha1


GRID_CHANNELS = {
    **{f"ge{rate}": GE_BY_LOSS_RATE[rate] for rate in GE_BY_LOSS_RATE},
    "whole": (1.0, 1.0, 0.5, 0.5),        # every packet arrives
    "none": (0.0, 0.0, 0.5, 0.5),         # no packet ever arrives
    "alternating": (1.0, 0.0, 1.0, 1.0),  # states alternate every packet
}


@pytest.mark.parametrize("samples", [1, 37, 2000])
@pytest.mark.parametrize("m_max", [1, 2, 63, 64, 100, 300])
@pytest.mark.parametrize("channel", sorted(GRID_CHANNELS))
def test_empirical_equals_reference_grid(channel, m_max, samples):
    # m_max 63 -> 64 moves the cumulative sums from int8 to int16
    spec = loss.LossSpec.gilbert_elliott(*GRID_CHANNELS[channel])
    got = loss.empirical_loss_model(spec, m_max=m_max, samples=samples,
                                    rng_seed=7)
    ref = empirical_loss_model_reference(spec, m_max, samples, 7)
    assert np.array_equal(got.q_table, ref)


def test_q_tables_read_only():
    # models are shared process-wide through the scenario cache
    tab = np.eye(3)
    iid = loss.BatchLossModel(m_max=2, q_table=tab)
    tab[0, 0] = 0.5  # the model holds its own copy
    assert iid.q_table[0, 0] == 1.0 and tab.flags.writeable
    ge = loss.empirical_loss_model(
        loss.LossSpec.gilbert_elliott(1.0, 0.6, 1e-3, 1e-3), m_max=8,
        samples=20, rng_seed=1)
    for model in (iid, loss.independent_loss_model(0.2, 8), ge):
        with pytest.raises(ValueError):
            model.q_table[1, 0] = 0.25
