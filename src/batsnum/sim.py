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
from .loss import Channel
from .netmodel import Schedule

FEASIBILITY_TOL = 1e-6  # link-constraint violation a solution may carry
STABLE_SLOPE = 0.01  # packets/slot a stable node's buffer grows by, at most


@dataclass
class SimReport:
    slots: int
    flow_ids: list
    rank_hist: dict          # flow id -> counts over ranks 0..M
    emitted: dict            # flow id -> batches emitted
    completed: dict          # flow id -> batches closed at the destination
    delivered_rank: dict     # flow id -> total delivered rank
    utilities: dict          # flow id -> log(delivered rank per slot)
    buffer_series: np.ndarray  # (slots, nodes) packets awaiting send
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


def recode_batch(basis, policy, rank, q, rng):
    """Transmit coefficient rows for a closed batch: as many uniform random
    combinations of the basis rows as the policy draws for its rank."""
    m = policy.sample_count(rank, rng)
    if m == 0 or basis.shape[0] == 0:
        return np.zeros((m, basis.shape[1]), dtype=np.uint8)
    coef = ffmat.random_matrix(m, basis.shape[0], rng, q=q)
    return ffmat.gf_matmul(coef, basis, q=q)


def run_simulation(scenario, solution, slots=1_000_000, rng_seed=7,
                   frame_length=1000):
    """Drive the solved configuration through a packet-level run.

    Per slot: sources emit batches at their solved rates, links active in
    the TDMA frame serve their FIFO queues up to the per-slot credit,
    each transmitted packet passes the link's loss channel, and receivers
    close batches on the marked last packet or on the arrival of a newer
    batch. A closed batch moves to its flow's next hop, so a route may
    pass a node more than once. Returns per-flow empirical rank
    statistics, throughput utilities, per-node buffer occupancy, per-link
    innovative/redundant arrivals, and per-hop counts of vanished batches
    (all packets lost, or none sent).
    """
    net = scenario.network
    M, q = scenario.M, scenario.q
    if q not in ffmat.SUPPORTED_FIELDS:
        raise SimulationInputError(f"code.field_size {q} cannot be simulated; "
                                   f"supported: {ffmat.SUPPORTED_FIELDS}")
    viol = solution.constraint_violation(scenario)
    if viol > FEASIBILITY_TOL:
        raise SimulationInputError(
            f"solution violates a link constraint by {viol:.3e}")
    frame = build_tdma_frame(solution.schedule_weights, frame_length)
    seeds = np.random.default_rng(rng_seed).spawn(3)
    links, flows, policies = net.links, scenario.flows, solution.policies
    flow_rng = seeds[2].spawn(len(flows))

    # flow i's hop j is link position hops[i][j]; packets carry (i, j)
    hops = [[net.link_index(lid) for lid in f.links] for f in flows]
    rx = [[_RxState() for _ in f.links] for f in flows]
    died = [[0] * len(f.links) for f in flows]
    # per link position
    channels = [Channel(l.loss, r)
                for l, r in zip(links, seeds[0].spawn(len(links)))]
    queues = [deque() for _ in links]
    credit = [0.0] * len(links)
    sent, received = [0] * len(links), [0] * len(links)
    innovative, redundant = [0] * len(links), [0] * len(links)
    # per node, in buffer_nodes order
    buffer_nodes = list(net.nodes)
    tail = [buffer_nodes.index(l.tail) for l in links]
    queued = [0] * len(buffer_nodes)
    buffers = np.zeros((slots, len(buffer_nodes)), dtype=np.int32)

    sources = [BatchSource(float(a)) for a in solution.alpha]
    emitted, completed = [0] * len(flows), [0] * len(flows)
    rank_hist = [np.zeros(M + 1, dtype=np.int64) for _ in flows]
    delivered = [0.0] * len(flows)

    def enqueue(i, j, batch_id, rows, sender_rank):
        # a packet is (flow, hop, batch, coefficient row packed as in
        # ffmat.RowBasis, rank of the batch at the sender, last of batch)
        n = rows.shape[0]
        if n == 0:
            died[i][j] += 1
            return
        k = hops[i][j]
        queues[k].extend((i, j, batch_id, coeff, sender_rank, x == n - 1)
                         for x, coeff in enumerate(ffmat.int_rows(rows)))
        queued[tail[k]] += n

    def close_batch(i, j, state):
        if state.batch < 0:
            return
        rank = state.basis.rank
        if j + 1 == len(hops[i]):
            rank_hist[i][rank] += 1
            delivered[i] += rank
            completed[i] += 1
        else:
            rows = recode_batch(state.basis.to_array(M), policies[i][j + 1],
                                rank, q, flow_rng[i])
            enqueue(i, j + 1, state.batch, rows, rank)
        state.batch = -1

    identity = np.eye(M, dtype=np.uint8)
    active_links = [[(k, links[k].capacity) for k, a in enumerate(s.active)
                     if a] for s in frame]

    for slot in range(slots):
        # sources
        for i, src in enumerate(sources):
            for _ in range(src.step()):
                rows = recode_batch(identity, policies[i][0], M, q,
                                    flow_rng[i])
                enqueue(i, 0, emitted[i], rows, M)
                emitted[i] += 1
        # scheduled transmissions
        for k, cap in active_links[slot % len(frame)]:
            qq = queues[k]
            credit[k] += cap
            while credit[k] >= 1.0 and qq:
                credit[k] -= 1.0
                i, j, bid, coeff, sender_rank, last = qq.popleft()
                queued[tail[k]] -= 1
                sent[k] += 1
                st = rx[i][j]
                if not channels[k].transmit():
                    # receivers cannot react to lost packets; a batch none
                    # of whose packets arrived vanishes on this hop
                    if last and st.batch != bid:
                        died[i][j] += 1
                    continue
                received[k] += 1
                if bid > st.batch:
                    if st.batch >= 0:
                        close_batch(i, j, st)
                    st.batch = bid
                    st.basis = ffmat.RowBasis()
                if bid == st.batch:
                    # past the sender's rank no row can be innovative
                    if st.basis.rank < sender_rank and st.basis.absorb(coeff):
                        innovative[k] += 1
                    else:
                        redundant[k] += 1
                    if last:
                        close_batch(i, j, st)
            if not qq:
                credit[k] = 0.0  # service is use-it-or-lose-it when idle
        buffers[slot] = queued

    # every emitted batch was delivered or vanished, or is queued or open
    for i, f in enumerate(flows):
        in_flight = {pkt[2] for qq in queues for pkt in qq if pkt[0] == i}
        in_flight |= {st.batch for st in rx[i] if st.batch >= 0}
        assert emitted[i] == completed[i] + sum(died[i]) + len(in_flight), \
            f"flow {f.id} lost track of a batch"

    ids, lids = [f.id for f in flows], [l.id for l in links]
    return SimReport(
        slots=slots, flow_ids=ids, rank_hist=dict(zip(ids, rank_hist)),
        emitted=dict(zip(ids, emitted)), completed=dict(zip(ids, completed)),
        delivered_rank=dict(zip(ids, delivered)),
        utilities={fid: math.log(d / slots) if d > 0 else -math.inf
                   for fid, d in zip(ids, delivered)},
        buffer_series=buffers, buffer_nodes=buffer_nodes,
        link_stats={lid: {"sent": s, "received": r}
                    for lid, s, r in zip(lids, sent, received)},
        link_innovation={lid: {"innovative": n, "redundant": r}
                         for lid, n, r in zip(lids, innovative, redundant)},
        died=dict(zip(ids, died)))


@dataclass
class StabilityReport:
    slopes: dict
    stable: bool


def buffer_stability(report):
    """Least-squares buffer growth over the final half of the run.

    Stable when every node's slope stays below STABLE_SLOPE.
    """
    n = report.buffer_series.shape[0]
    if n < 2:
        return StabilityReport(slopes={}, stable=True)
    ys = report.buffer_series[n // 2:]
    x = np.arange(ys.shape[0], dtype=float)
    x -= x.mean()
    denom = float((x * x).sum())
    slopes = {}
    for j, node in enumerate(report.buffer_nodes):
        y = ys[:, j].astype(float)
        slopes[node] = float((x * (y - y.mean())).sum() / denom)
    stable = all(s < STABLE_SLOPE for s in slopes.values())
    return StabilityReport(slopes=slopes, stable=stable)
