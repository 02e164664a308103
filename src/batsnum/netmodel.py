"""Network graph, flows, interference, and TDMA schedule machinery."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .loss import LossSpec

ENUMERATION_LIMIT = 25


class ValidationError(ValueError):
    pass


@dataclass(frozen=True)
class Link:
    id: str
    tail: str
    head: str
    capacity: float
    loss: LossSpec

    def endpoints(self):
        return {self.tail, self.head}


@dataclass
class Network:
    """Directed links with per-link conflict sets; immutable once built."""

    nodes: list
    links: list
    interference: dict = field(default_factory=dict)
    _schedule_cache: list | None = field(default=None, init=False, repr=False,
                                         compare=False)
    _index: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        ids = [l.id for l in self.links]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate link ids")
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise ValidationError("duplicate node names")
        for l in self.links:
            if l.tail not in node_set or l.head not in node_set:
                raise ValidationError(f"link {l.id} references unknown node")
            if l.capacity <= 0:
                raise ValidationError(f"link {l.id} capacity must be positive")
        if not self.interference:
            self.interference = {l.id: frozenset() for l in self.links}
        known = set(ids)
        for e, conf in self.interference.items():
            if e not in known:
                raise ValidationError(f"interference set for unknown link {e}")
            for e2 in conf:
                if e2 not in known:
                    raise ValidationError(f"unknown link {e2} in I[{e}]")
                if e not in self.interference.get(e2, frozenset()):
                    raise ValidationError(
                        f"interference not symmetric: {e2} in I[{e}] only")
        self.interference = {e: frozenset(c) for e, c in self.interference.items()}
        self._index = {l.id: i for i, l in enumerate(self.links)}

    def link(self, link_id):
        return self.links[self._index[link_id]]

    def link_index(self, link_id):
        return self._index[link_id]

    @property
    def capacities(self):
        return np.array([l.capacity for l in self.links])

    def conflict_matrix(self):
        n = len(self.links)
        C = np.zeros((n, n), dtype=bool)
        for e, conf in self.interference.items():
            for e2 in conf:
                C[self.link_index(e), self.link_index(e2)] = True
        return C


@dataclass(frozen=True)
class Flow:
    """A path of consecutive links with a batch size."""

    id: str
    links: tuple
    batch_size: int

    def __post_init__(self):
        object.__setattr__(self, "links", tuple(self.links))
        if len(set(self.links)) != len(self.links):
            raise ValidationError(f"flow {self.id} repeats a link")
        if not self.links:
            raise ValidationError(f"flow {self.id} has no links")

    def validate_against(self, network):
        prev_head = None
        for lid in self.links:
            if lid not in network._index:
                raise ValidationError(f"flow {self.id}: no link {lid!r}")
            link = network.link(lid)
            if prev_head is not None and link.tail != prev_head:
                raise ValidationError(
                    f"flow {self.id}: link {lid} does not start at {prev_head}")
            prev_head = link.head


@dataclass(frozen=True)
class Schedule:
    """0/1 activation vector over the network's links, in link order."""

    active: tuple


def two_hop_interference(network):
    """Conflict sets where links within two hops of each other collide.

    Links conflict when they share an endpoint or some endpoint of one is
    adjacent (via any link, direction ignored) to an endpoint of the other.
    """
    adj = {n: set() for n in network.nodes}
    for l in network.links:
        adj[l.tail].add(l.head)
        adj[l.head].add(l.tail)
    out = {}
    for a in network.links:
        conf = set()
        ea = a.endpoints()
        reach = set(ea)
        for n in ea:
            reach |= adj[n]
        for b in network.links:
            if b.id == a.id:
                continue
            if reach & b.endpoints():
                conf.add(b.id)
        out[a.id] = frozenset(conf)
    return out


def all_collision_interference(network):
    """Complete conflict graph: one link at a time."""
    ids = [l.id for l in network.links]
    return {e: frozenset(set(ids) - {e}) for e in ids}


def enumerate_feasible_schedules(network):
    """All collision-free 0/1 activation vectors, lexicographically sorted."""
    n = len(network.links)
    if n > ENUMERATION_LIMIT:
        raise ValidationError(
            f"{n} links exceeds enumeration limit {ENUMERATION_LIMIT}")
    if network._schedule_cache is not None:
        return network._schedule_cache
    C = network.conflict_matrix()
    out = []

    def rec(i, cur, banned):
        if i == n:
            out.append(Schedule(active=tuple(cur)))
            return
        cur.append(0)
        rec(i + 1, cur, banned)
        cur.pop()
        if not banned[i]:
            cur.append(1)
            rec(i + 1, cur, banned | C[i])
            cur.pop()

    rec(0, [], np.zeros(n, dtype=bool))  # 0 before 1: lexicographic
    network._schedule_cache = out
    return out


def schedule_rate_matrix(network):
    """(S, E) matrix of rate vectors c_e * s_e for the enumerated schedules."""
    scheds = enumerate_feasible_schedules(network)
    arr = np.array([s.active for s in scheds], dtype=float)
    return scheds, arr * network.capacities


def max_weight_index(rates, weights):
    """Row of the (S, E) schedule rate matrix maximizing rates @ weights.

    Values within 1e-12 * max(1, |best|) of the best tie, and ties break
    toward the first row: for `schedule_rate_matrix` that is the
    lexicographically smallest activation vector, so picks are
    deterministic.
    """
    vals = rates @ weights
    best = float(vals.max())
    return int(np.flatnonzero(vals >= best - 1e-12 * max(1.0, abs(best)))[0])
