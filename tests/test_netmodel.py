import itertools

import numpy as np
import pytest

from batsnum import netmodel
from batsnum.loss import LossSpec
from batsnum.netmodel import (Flow, Link, Network, Schedule, ValidationError,
                              enumerate_feasible_schedules,
                              two_hop_interference)
from batsnum.scenarios import load_scenario
from batsnum.solvers import Scenario
from oracles import (DecompositionError, decompose_rate_vector,
                     max_weight_schedule, schedule_is_feasible)
from random_networks import random_network_config


def line_network(n, caps=None):
    caps = caps or [1.0] * n
    nodes = [f"v{i}" for i in range(n + 1)]
    links = [Link(f"e{i+1}", f"v{i}", f"v{i+1}", caps[i],
                  LossSpec.independent(0.2)) for i in range(n)]
    net = Network(nodes=nodes, links=links)
    net.interference = two_hop_interference(net)
    net.__post_init__()
    return net


def test_two_hop_interference_line():
    net = line_network(8)
    assert net.interference["e1"] == frozenset({"e2", "e3"})
    assert net.interference["e4"] == frozenset({"e2", "e3", "e5", "e6"})
    for e, conf in net.interference.items():
        for e2 in conf:
            assert e in net.interference[e2]


def test_three_link_line_only_singletons():
    net = line_network(3)
    scheds = enumerate_feasible_schedules(net)
    actives = {s.active for s in scheds}
    assert actives == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_enumeration_matches_brute_force():
    net = line_network(8)
    scheds = enumerate_feasible_schedules(net)
    brute = []
    for bits in itertools.product((0, 1), repeat=8):
        s = Schedule(active=bits)
        if schedule_is_feasible(s, net):
            brute.append(bits)
    assert sorted(s.active for s in scheds) == sorted(brute)
    assert (1, 0, 0, 1, 0, 0, 1, 0) in {s.active for s in scheds}
    assert (0,) * 8 in {s.active for s in scheds}


def test_enumeration_guard():
    net = line_network(8)
    too_big = Network(
        nodes=[f"n{i}" for i in range(27)],
        links=[Link(f"l{i}", f"n{i}", f"n{i+1}", 1.0,
                    LossSpec.independent(0.0)) for i in range(26)])
    with pytest.raises(ValidationError):
        enumerate_feasible_schedules(too_big)
    assert enumerate_feasible_schedules(net)  # cache path


def test_max_weight_schedule():
    net = line_network(8)
    w = np.zeros(8)
    w[0] = 1.0
    s, val = max_weight_schedule(net, w)
    assert s.active[0] == 1 and val == pytest.approx(1.0)
    # the tie-break keeps the activation vector lexicographically smallest
    assert s.active == (1, 0, 0, 0, 0, 0, 0, 0)
    s, val = max_weight_schedule(net, np.ones(8))
    assert val == pytest.approx(3.0)
    s, val = max_weight_schedule(net, np.zeros(8))
    assert val == 0.0 and s.active == (0,) * 8


def test_max_weight_index_relative_tie():
    # e1 and e2 conflict, so the schedules are (0,0) < (0,1) < (1,0)
    net = line_network(2)
    scheds, rates = netmodel.schedule_rate_matrix(net)
    assert [s.active for s in scheds] == [(0, 0), (0, 1), (1, 0)]
    # (1,0) is larger by 1.5e-12 near 2: more than an absolute 1e-12 but
    # less than 1e-12 * |best|, so the lexicographically first schedule wins
    w = np.array([2.0 + 1.5e-12, 2.0])
    vals = rates @ w
    assert int(np.argmax(vals)) == 2
    assert vals[2] - vals[1] > 1e-12
    assert netmodel.max_weight_index(rates, w) == 1
    assert max_weight_schedule(net, w)[0].active == (0, 1)
    # beyond the relative tolerance the larger value wins
    w = np.array([2.0 + 3e-12, 2.0])
    assert netmodel.max_weight_index(rates, w) == 2


def test_max_weight_equals_enumeration_max():
    net = line_network(8, caps=[1, 2, 1, 0.5, 1, 1, 2, 1])
    rng = np.random.default_rng(3)
    scheds = enumerate_feasible_schedules(net)
    for _ in range(25):
        w = rng.random(8)
        _, val = max_weight_schedule(net, w)
        best = max(float(np.array(s.active) @ (w * net.capacities))
                   for s in scheds)
        assert val == pytest.approx(best, rel=1e-12)


def test_decompose_single_schedule_and_zero():
    net = line_network(8)
    target = np.zeros(8)
    assert decompose_rate_vector(net, target) == []
    s = Schedule(active=(1, 0, 0, 1, 0, 0, 1, 0))
    target = np.array(s.active, dtype=float)
    out = decompose_rate_vector(net, target)
    mix = np.zeros(8)
    total = 0.0
    for sched, share in out:
        mix += np.array(sched.active) * net.capacities * share
        total += share
        assert schedule_is_feasible(sched, net)
    assert total <= 1.0 + 1e-9
    assert np.all(mix >= target - 1e-9)


def test_decompose_midpoint():
    net = line_network(8)
    s1 = np.array((1, 0, 0, 1, 0, 0, 1, 0), dtype=float)
    s2 = np.array((0, 1, 0, 0, 1, 0, 0, 1), dtype=float)
    target = 0.5 * s1 + 0.5 * s2
    out = decompose_rate_vector(net, target)
    mix = sum(np.array(s.active) * net.capacities * w for s, w in out)
    assert np.all(mix >= target - 1e-9)
    assert sum(w for _, w in out) <= 1.0 + 1e-9


def test_decompose_infeasible_certificate():
    net = line_network(3)
    with pytest.raises(DecompositionError) as ei:
        decompose_rate_vector(net, np.array([1.0, 1.0, 1.0]))
    err = ei.value
    assert err.achievable_scale is not None and err.achievable_scale < 1.0
    assert err.binding_links


def test_flow_validation():
    net = line_network(4)
    Flow(id="ok", links=("e1", "e2", "e3"), batch_size=16).validate_against(net)
    with pytest.raises(ValidationError):
        Flow(id="gap", links=("e1", "e3"), batch_size=16).validate_against(net)
    with pytest.raises(ValidationError):
        Flow(id="dup", links=("e1", "e1"), batch_size=16)
    with pytest.raises(ValidationError):
        Flow(id="empty", links=(), batch_size=16)


def test_scenario_rejects_flow_over_unknown_link():
    # a link id the network lacks reached Network.link's dict lookup
    net = line_network(2)
    for links in (("e9",), ("e1", "e9"), (1,)):
        flow = Flow(id="f", links=links, batch_size=16)
        with pytest.raises(ValidationError, match="flow f: no link"):
            Scenario(network=net, flows=[flow])


def test_network_validation():
    with pytest.raises(ValidationError, match="duplicate node"):
        Network(nodes=["a", "b", "a"], links=[])
    with pytest.raises(ValidationError):
        Network(nodes=["a"], links=[Link("e", "a", "missing", 1.0,
                                         LossSpec.independent(0.0))])
    with pytest.raises(ValidationError):
        net = line_network(3)
        Network(nodes=net.nodes, links=net.links,
                interference={"e1": frozenset({"e2"}),
                              "e2": frozenset(),
                              "e3": frozenset()})


def test_link_lookup_follows_list_order():
    spec = LossSpec.independent(0.1)
    links = [Link("e3", "c", "d", 1.0, spec), Link("e1", "a", "b", 1.0, spec),
             Link("e2", "b", "c", 1.0, spec)]
    net = Network(nodes=["a", "b", "c", "d"], links=links)
    net.interference = two_hop_interference(net)
    net.__post_init__()  # rebuilding after new interference keeps the index
    assert [net.link_index(e) for e in ("e3", "e1", "e2")] == [0, 1, 2]
    assert all(net.link(l.id) is l for l in links)
    with pytest.raises(KeyError):
        net.link_index("e4")
    with pytest.raises(KeyError):
        net.link("e4")


def two_hop_by_definition(network):
    """Links conflict when some endpoint of one equals, or shares a link
    with, some endpoint of the other."""
    joined = {frozenset((l.tail, l.head)) for l in network.links}

    def near(a, b):
        return any(x == y or frozenset((x, y)) in joined
                   for x in a.endpoints() for y in b.endpoints())

    return {a.id: frozenset(b.id for b in network.links
                            if b is not a and near(a, b))
            for a in network.links}


PRESETS = [(f"case{c}", family) for family in ("iid", "ge")
           for c in range(1, 12)]


@pytest.mark.parametrize("source", PRESETS + [
    (random_network_config(seed), "iid") for seed in range(20)],
    ids=[f"{c}-{f}" for c, f in PRESETS] + [f"random-{s}" for s in range(20)])
def test_schedules_and_conflicts_match_definitions(source):
    # the enumeration's order is lexicographic, as itertools.product's
    net = load_scenario(*source).network
    assert net.interference == two_hop_by_definition(net)
    brute = [bits for bits in itertools.product((0, 1), repeat=len(net.links))
             if schedule_is_feasible(Schedule(active=bits), net)]
    assert [s.active for s in enumerate_feasible_schedules(net)] == brute
