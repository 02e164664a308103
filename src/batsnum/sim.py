"""Timeslotted packet-level simulator with real coefficient-vector recoding.

Batches are tracked by their coefficient vectors over GF(q); every hop
regenerates packets by linear combination, links lose packets through
their own channel instances, and a TDMA frame built from the solver's
schedule decomposition keeps interfering links apart by construction.
Receivers reduce each arriving packet into the batch's basis at once
(`ffmat.RowBasis`) and stop reducing when the basis reaches the sender's
rank: every later packet lies in the sender's span and is redundant.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import ffmat
from .loss import GEChannel
from .netmodel import Schedule


@dataclass
class SimReport:
    slots: int
    flow_ids: list
    rank_hist: dict          # flow id -> counts over ranks 0..M
    emitted: dict            # flow id -> batches emitted
    completed: dict          # flow id -> batches closed at the destination
    delivered_rank: dict     # flow id -> total delivered rank
    utilities: dict          # flow id -> log(delivered rank per slot)
    buffer_series: np.ndarray | None   # (slots, nodes) packets awaiting send
    buffer_nodes: list
    link_stats: dict         # link id -> {"sent": n, "received": n}
    link_innovation: dict    # link id -> {"innovative": n, "redundant": n}
    died: dict               # flow id -> per-hop batches that vanished there

    def to_json_dict(self):
        return {
            "slots": self.slots,
            "flows": {
                fid: {
                    "emitted": int(self.emitted[fid]),
                    "completed": int(self.completed[fid]),
                    "delivered_rank": float(self.delivered_rank[fid]),
                    "utility": float(self.utilities[fid]),
                    "rank_histogram": [int(x) for x in self.rank_hist[fid]],
                }
                for fid in self.flow_ids
            },
            "link_stats": self.link_stats,
            "link_innovation": self.link_innovation,
            "died": self.died,
            "buffer_nodes": self.buffer_nodes,
        }


class SimulationInputError(ValueError):
    pass


def build_tdma_frame(decomposition, frame_length=1000):
    """Slot-indexed schedule list realizing the given time shares.

    Each schedule gets floor(weight * frame_length) slots; leftover slots
    go to the largest remainders (idle weight included), so the realized
    share of every schedule is within 1/frame_length of its target.
    Weights too small for a single slot are dropped.
    """
    total = sum(w for _, w in decomposition)
    if total > 1.0 + 1e-9:
        raise SimulationInputError(f"schedule weights sum to {total} > 1")
    entries = [(s, w) for s, w in decomposition]
    idle_weight = max(0.0, 1.0 - total)
    quotas = [w * frame_length for _, w in entries] + [idle_weight * frame_length]
    bases = [int(math.floor(q)) for q in quotas]
    rest = frame_length - sum(bases)
    order = sorted(range(len(quotas)), key=lambda i: (-(quotas[i] - bases[i]), i))
    for i in order[:rest]:
        bases[i] += 1
    for (s, w), n in zip(entries, bases[:-1]):
        if w > 1e-9 and n == 0:
            warnings.warn(f"schedule weight {w:.2e} below 1/{frame_length}; "
                          "dropped from the frame")
    frame = []
    n_links = len(entries[0][0].active) if entries else 0
    idle = Schedule(active=tuple([0] * n_links))
    for (s, _), n in zip(entries, bases[:-1]):
        frame.extend([s] * n)
    frame.extend([idle] * bases[-1])
    if not frame:
        frame = [idle]
    return frame


class BatchSource:
    """Accumulator-based batch clock: long-run emission rate equals alpha."""

    def __init__(self, alpha):
        if alpha <= 0:
            raise SimulationInputError("batch rate must be positive")
        self.alpha = alpha
        self.acc = 0.0

    def step(self):
        """Number of batches to emit this slot."""
        self.acc += self.alpha
        n = int(self.acc)
        self.acc -= n
        return n


@dataclass
class _RxState:
    batch: int = -1
    basis: ffmat.RowBasis = field(default_factory=ffmat.RowBasis)


class _LossChannel:
    """Per-link loss process advanced once per transmitted packet."""

    def __init__(self, spec, rng):
        self.rng = rng
        if spec.kind == "independent":
            self.p_recv = 1.0 - spec.epsilon
            self.ge = None
        else:
            self.ge = GEChannel(spec.ge)
            self.ge.reset_from_steady_state(rng)

    def transmit(self):
        if self.ge is None:
            return self.rng.random() < self.p_recv
        return self.ge.step(self.rng)[0]


def _uniform_recode(basis, m, q, rng):
    """m random linear combinations of the basis rows (m x M coefficients)."""
    if m == 0 or basis.shape[0] == 0:
        return np.zeros((m, basis.shape[1]), dtype=np.uint8)
    coef = ffmat.random_matrix(m, basis.shape[0], rng, q=q)
    return ffmat.gf_matmul(coef, basis, q=q)


def recode_batch(basis, policy, rank, q, rng):
    """Generate the transmit coefficient rows for a closed batch."""
    return _uniform_recode(basis, policy.sample_count(rank, rng), q, rng)


def run_simulation(scenario, solution, slots=1_000_000, rng_seed=7,
                   frame_length=1000, record_buffers=True, feasibility_tol=1e-6):
    """Drive the solved configuration through a packet-level run.

    Per slot: sources emit batches at their solved rates, links active in
    the TDMA frame serve their FIFO queues up to the per-slot credit,
    each transmitted packet passes the link's loss channel, and receivers
    close batches on the marked last packet or on the arrival of a newer
    batch. Returns per-flow empirical rank statistics, throughput
    utilities, per-node buffer occupancy, per-link innovative/redundant
    arrivals, and per-hop counts of vanished batches (all packets lost,
    or none sent).
    """
    net = scenario.network
    M, q = scenario.M, scenario.q
    if q not in ffmat.SUPPORTED_FIELDS:
        raise SimulationInputError(f"code.field_size {q} cannot be simulated; "
                                   f"supported: {ffmat.SUPPORTED_FIELDS}")
    viol = solution.constraint_violation(scenario)
    if viol > feasibility_tol:
        raise SimulationInputError(
            f"solution violates a link constraint by {viol:.3e}")
    frame = build_tdma_frame(solution.schedule_weights, frame_length)
    master = np.random.default_rng(rng_seed)
    seeds = master.spawn(3)
    chan_rng = seeds[0].spawn(len(net.links))
    flow_rng = {f.id: r for f, r in zip(scenario.flows,
                                        seeds[2].spawn(len(scenario.flows)))}

    channels = {l.id: _LossChannel(l.loss, r)
                for l, r in zip(net.links, chan_rng)}
    queues = {l.id: deque() for l in net.links}
    credit = {l.id: 0.0 for l in net.links}
    # flow structures
    next_hop = {}       # (flow, node) -> link id, or None at the destination
    policy_for = {}     # (flow, link) -> policy used on that link
    in_link = {}        # (flow, link) -> receiving state
    for i, f in enumerate(scenario.flows):
        nodes = f.nodes(net)
        for j, lid in enumerate(f.links):
            next_hop[(f.id, nodes[j])] = lid
            policy_for[(f.id, lid)] = solution.policies[i][j]
            in_link[(f.id, lid)] = _RxState()
        next_hop[(f.id, nodes[-1])] = None
    link_head = {l.id: l.head for l in net.links}

    sources = {f.id: BatchSource(float(solution.alpha[i]))
               for i, f in enumerate(scenario.flows)}
    emitted = {f.id: 0 for f in scenario.flows}
    completed = {f.id: 0 for f in scenario.flows}
    rank_hist = {f.id: np.zeros(M + 1, dtype=np.int64) for f in scenario.flows}
    delivered = {f.id: 0.0 for f in scenario.flows}
    link_sent = {l.id: 0 for l in net.links}
    link_recv = {l.id: 0 for l in net.links}
    innovative = {l.id: 0 for l in net.links}
    redundant = {l.id: 0 for l in net.links}
    died = {key: 0 for key in in_link}

    buffer_nodes = list(net.nodes)
    buffers = (np.zeros((slots, len(buffer_nodes)), dtype=np.int32)
               if record_buffers else None)
    queued_at_node = {n: 0 for n in buffer_nodes}  # in buffer_nodes order

    def enqueue(flow_id, lid, batch_id, rows, sender_rank):
        # a packet is (flow, batch, coefficient row packed as in
        # ffmat.RowBasis, rank of the batch at the sender, last of batch)
        n = rows.shape[0]
        if n == 0:
            died[(flow_id, lid)] += 1
            return
        queues[lid].extend((flow_id, batch_id, coeff, sender_rank, i == n - 1)
                           for i, coeff in enumerate(ffmat.int_rows(rows)))
        queued_at_node[net.link(lid).tail] += n

    def close_batch(flow_id, lid, state):
        if state.batch < 0:
            return
        rank = state.basis.rank
        out_link = next_hop[(flow_id, link_head[lid])]
        if out_link is None:
            rank_hist[flow_id][rank] += 1
            delivered[flow_id] += rank
            completed[flow_id] += 1
        else:
            pol = policy_for[(flow_id, out_link)]
            rows_out = recode_batch(state.basis.to_array(M), pol, rank, q,
                                    flow_rng[flow_id])
            enqueue(flow_id, out_link, state.batch, rows_out, rank)
        state.batch = -1

    identity = np.eye(M, dtype=np.uint8)
    active_links = [[l for l, a in zip(net.links, s.active) if a]
                    for s in frame]

    for slot in range(slots):
        # sources
        for f in scenario.flows:
            for _ in range(sources[f.id].step()):
                bid = emitted[f.id]
                emitted[f.id] += 1
                rows = recode_batch(identity, policy_for[(f.id, f.links[0])],
                                    M, q, flow_rng[f.id])
                enqueue(f.id, f.links[0], bid, rows, M)
        # scheduled transmissions
        for link in active_links[slot % len(frame)]:
            qq = queues[link.id]
            credit[link.id] += link.capacity
            while credit[link.id] >= 1.0 and qq:
                credit[link.id] -= 1.0
                fid, bid, coeff, sender_rank, last = qq.popleft()
                queued_at_node[link.tail] -= 1
                link_sent[link.id] += 1
                st = in_link[(fid, link.id)]
                if not channels[link.id].transmit():
                    # receivers cannot react to lost packets; a batch none
                    # of whose packets arrived vanishes on this hop
                    if last and st.batch != bid:
                        died[(fid, link.id)] += 1
                    continue
                link_recv[link.id] += 1
                if bid > st.batch:
                    if st.batch >= 0:
                        close_batch(fid, link.id, st)
                    st.batch = bid
                    st.basis = ffmat.RowBasis()
                if bid == st.batch:
                    # past the sender's rank no row can be innovative
                    if st.basis.rank < sender_rank and st.basis.absorb(coeff):
                        innovative[link.id] += 1
                    else:
                        redundant[link.id] += 1
                    if last:
                        close_batch(fid, link.id, st)
            if not qq:
                credit[link.id] = 0.0  # service is use-it-or-lose-it when idle
        if record_buffers:
            buffers[slot] = tuple(queued_at_node.values())

    # every emitted batch was delivered or vanished, or is queued or open
    in_flight = {pkt[:2] for qq in queues.values() for pkt in qq}
    in_flight |= {(fid, st.batch) for (fid, _), st in in_link.items()
                  if st.batch >= 0}
    died_per_hop = {f.id: [died[(f.id, lid)] for lid in f.links]
                    for f in scenario.flows}
    for f in scenario.flows:
        n_flight = sum(fid == f.id for fid, _ in in_flight)
        assert emitted[f.id] == (completed[f.id] + sum(died_per_hop[f.id])
                                 + n_flight), f"flow {f.id} lost track of a batch"

    utilities = {}
    for f in scenario.flows:
        tput = delivered[f.id] / slots
        utilities[f.id] = math.log(tput) if tput > 0 else -math.inf
    return SimReport(
        slots=slots,
        flow_ids=[f.id for f in scenario.flows],
        rank_hist=rank_hist,
        emitted=emitted,
        completed=completed,
        delivered_rank=delivered,
        utilities=utilities,
        buffer_series=buffers,
        buffer_nodes=buffer_nodes,
        link_stats={lid: {"sent": link_sent[lid], "received": link_recv[lid]}
                    for lid in link_sent},
        link_innovation={lid: {"innovative": innovative[lid],
                               "redundant": redundant[lid]}
                         for lid in link_sent},
        died=died_per_hop,
    )


STABLE_SLOPE = 0.01  # packets/slot a stable node's buffer grows by, at most


@dataclass
class StabilityReport:
    slopes: dict
    stable: bool


def buffer_stability(report):
    """Least-squares buffer growth over the final half of the run.

    Stable when every node's slope stays below STABLE_SLOPE.
    """
    if report.buffer_series is None:
        raise ValueError("report carries no buffer series")
    n = report.buffer_series.shape[0]
    if n < 2:
        return StabilityReport(slopes={}, stable=True)
    half = n // 2
    ys = report.buffer_series[half:]
    x = np.arange(ys.shape[0], dtype=float)
    x -= x.mean()
    denom = float((x * x).sum())
    slopes = {}
    for j, node in enumerate(report.buffer_nodes):
        y = ys[:, j].astype(float)
        slopes[node] = float((x * (y - y.mean())).sum() / denom)
    stable = all(s < STABLE_SLOPE for s in slopes.values())
    return StabilityReport(slopes=slopes, stable=stable)
