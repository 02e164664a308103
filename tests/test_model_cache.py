"""Loss models are shared process-wide, keyed by what determines them, and
the tables derived from a model are built once on it and read-only.

Builds are counted by wrapping the estimators in the `solvers` namespace,
where `Scenario.loss_model` looks them up (as benchmark/tracing.py does).
The caches live for the whole process, so every test uses channels of
its own that no other test builds.
"""

from dataclasses import replace

import numpy as np
import pytest

from batsnum import rankcalc, recoding, solvers
from batsnum.loss import LossSpec
from batsnum.netmodel import Flow, Link, Network
from batsnum.solvers import LossModelOptions, Scenario

OPTS = LossModelOptions(m_max=12, samples=300, seed=5)


def scenario(specs, m0=8, opts=OPTS, M=4):
    """A line with one link per spec and one flow over all of them."""
    nodes = [f"v{i}" for i in range(len(specs) + 1)]
    links = [Link(f"e{i + 1}", nodes[i], nodes[i + 1], 1.0, spec)
             for i, spec in enumerate(specs)]
    flow = Flow("f1", tuple(l.id for l in links), M)
    return Scenario(network=Network(nodes=nodes, links=links), flows=[flow],
                    M=M, m0=m0, loss_options=opts)


@pytest.fixture
def builds(monkeypatch):
    """Models built so far, per estimator, from here on."""
    counts = {"independent": 0, "bursty": 0}
    for attr, kind in (("independent_loss_model", "independent"),
                       ("empirical_loss_model", "bursty")):
        def counted(*args, _inner=getattr(solvers, attr), _kind=kind,
                    **kwargs):
            counts[_kind] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(solvers, attr, counted)
    return counts


def test_equal_specs_share_one_model(builds):
    iid, ge = 0.1234, (0.97, 0.31, 0.021, 0.071)
    a = scenario([LossSpec.independent(iid), LossSpec.gilbert_elliott(*ge)])
    # equal values in new objects, on other links of another scenario
    b = scenario([LossSpec.gilbert_elliott(*ge), LossSpec.independent(iid),
                  LossSpec.independent(iid)])
    assert a.loss_model("e1") is b.loss_model("e2") is b.loss_model("e3")
    assert a.loss_model("e2") is b.loss_model("e1")
    assert builds == {"independent": 1, "bursty": 1}


def test_bursty_model_ignores_m0(builds):
    spec = LossSpec.gilbert_elliott(0.96, 0.32, 0.022, 0.072)
    models = {m0: scenario([spec], m0=m0).loss_model("e1")
              for m0 in (4, 8, 40)}
    assert len({id(m) for m in models.values()}) == 1
    assert models[4].m_max == OPTS.m_max
    assert builds == {"independent": 0, "bursty": 1}


def test_bursty_model_follows_options(builds):
    spec = LossSpec.gilbert_elliott(0.95, 0.33, 0.023, 0.073)
    base = scenario([spec]).loss_model("e1")
    for i, change in enumerate(({"m_max": 13}, {"samples": 301}, {"seed": 6})):
        opts = replace(OPTS, **change)
        other = scenario([spec], opts=opts).loss_model("e1")
        assert other is not base and other.m_max == opts.m_max
        assert scenario([spec], opts=opts).loss_model("e1") is other
        assert builds["bursty"] == i + 2
    assert scenario([spec]).loss_model("e1") is base
    assert builds == {"independent": 0, "bursty": 4}


def test_independent_model_follows_m0_not_options(builds):
    spec = LossSpec.independent(0.1235)
    at8 = scenario([spec], m0=8).loss_model("e1")
    at9 = scenario([spec], m0=9).loss_model("e1")
    assert (at8.m_max, at9.m_max) == (8, 9)
    for opts in (replace(OPTS, m_max=30), replace(OPTS, samples=7),
                 replace(OPTS, seed=11), LossModelOptions()):
        assert scenario([spec], m0=8, opts=opts).loss_model("e1") is at8
    assert builds == {"independent": 2, "bursty": 0}


@pytest.mark.parametrize("spec", [
    LossSpec.independent(0.1236),
    LossSpec.gilbert_elliott(0.94, 0.34, 0.024, 0.074)])
def test_derived_tables_read_only_and_shared(spec):
    sc = scenario([spec])
    model = sc.loss_model("e1")
    cap = sc.m_cap("e1")
    tables = {
        ("hop_tables", sc.q, sc.M):
            lambda: rankcalc.hop_tables(model, sc.q, sc.M),
        ("expected_rank", sc.q, sc.M):
            lambda: rankcalc.expected_rank_table(model, sc.q, sc.M),
        ("greedy_order", sc.q, sc.M, cap):
            lambda: recoding._greedy_order(model, sc.q, sc.M, cap),
    }
    for key, get in tables.items():
        table = get()
        assert get() is table is model._cache[key]
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[..., 0] += 1
    assert sc.hop_tables("e1") is model._cache[("hop_tables", sc.q, sc.M)]


def test_derived_builds_once_per_key():
    model = solvers.independent_loss_model(0.2, 6)
    calls = []

    def build():
        calls.append(1)
        return np.arange(3.0)

    first = model.derived(("test", 1), build)
    assert model.derived(("test", 1), build) is first
    assert not first.flags.writeable
    model.derived(("test", 2), build)
    assert len(calls) == 2
