"""Timeslotted packet-level simulator with random linear recoding over GF(q).

A recoded packet is a uniform random combination of the sender's basis
for its batch, and it carries its coefficients over that basis, not over
the source packets: BATS recoding only combines packets of one batch, so
the receiver needs nothing more. The sender's basis B has full row rank,
so c -> cB is injective; a received row cB is innovative exactly when c
lies outside the span of the earlier c's, and every rank equals the rank
the source coordinates would give. Sources send in their own coordinates
(their basis is the identity). Links lose packets through their own
channels, and a TDMA frame built from the solver's schedule decomposition
keeps interfering links apart by construction. Receivers reduce each
arriving packet into the batch's basis at once (`ffmat.RowBasis`) and
stop reducing when the basis reaches the sender's rank: every later
packet lies in the sender's span and is redundant.
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

    def emission_slots(self, slots):
        """The slot of every batch emitted in the first `slots` slots, in
        order: each slot adds alpha to the accumulator and emits its whole
        part, which leaves the accumulator."""
        acc, alpha, out = 0.0, self.alpha, []
        for slot in range(slots):
            acc += alpha
            if acc >= 1.0:
                n = int(acc)
                acc -= n
                out += [slot] * n
        return out


@dataclass
class _RxState:
    flow: int
    hop: int
    batch: int = -1
    basis: ffmat.RowBasis = field(default_factory=ffmat.RowBasis)


def recode_batch(rank, policy, q, rng):
    """Coefficients of a closed batch's recoded packets over the sender's
    basis: as many uniform random rows of length `rank` as the policy draws
    for the rank, all of them empty when the rank is 0."""
    m = policy.sample_count(rank, rng)
    if m == 0 or rank == 0:
        return np.zeros((m, rank), dtype=np.uint8)
    return ffmat.random_matrix(m, rank, rng, q=q)


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

    # flow i's hop j is link position hops[i][j], received into rx[i][j]
    hops = [[net.link_index(lid) for lid in f.links] for f in flows]
    rx = [[_RxState(i, j) for j in range(len(f.links))]
          for i, f in enumerate(flows)]
    died = [[0] * len(f.links) for f in flows]
    # per link position
    arrivals = [iter(Channel(l.loss, r)).__next__
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

    # every source batch as (slot, flow), flows in index order within a slot
    due = sorted((s, i) for i, a in enumerate(solution.alpha)
                 for s in BatchSource(float(a)).emission_slots(slots))
    due.append((slots, -1))
    emitted, completed = [0] * len(flows), [0] * len(flows)
    rank_hist = [np.zeros(M + 1, dtype=np.int64) for _ in flows]
    delivered = [0.0] * len(flows)

    def enqueue(st, batch_id, rows, sender_rank):
        # a packet is (receiver state, batch, coefficient row over the
        # sender's basis packed as in ffmat.RowBasis, rank of the batch at
        # the sender, last of batch)
        n = rows.shape[0]
        if n == 0:
            died[st.flow][st.hop] += 1
            return
        k = hops[st.flow][st.hop]
        queues[k].extend((st, batch_id, coeff, sender_rank, x == n - 1)
                         for x, coeff in enumerate(ffmat.int_rows(rows)))
        queued[tail[k]] += n

    def close_batch(st):
        i, j, rank = st.flow, st.hop, st.basis.rank
        if j + 1 == len(hops[i]):
            rank_hist[i][rank] += 1
            delivered[i] += rank
            completed[i] += 1
        else:
            rows = recode_batch(rank, policies[i][j + 1], q, flow_rng[i])
            enqueue(rx[i][j + 1], st.batch, rows, rank)
        st.batch = -1

    active_links = [[(k, links[k].capacity) for k, a in enumerate(s.active)
                     if a] for s in frame]

    d, next_due = 0, due[0][0]
    for slot in range(slots):
        # sources
        while next_due == slot:
            i = due[d][1]
            rows = recode_batch(M, policies[i][0], q, flow_rng[i])
            enqueue(rx[i][0], emitted[i], rows, M)
            emitted[i] += 1
            d += 1
            next_due = due[d][0]
        # scheduled transmissions
        for k, cap in active_links[slot % len(frame)]:
            qq = queues[k]
            credit[k] += cap
            while credit[k] >= 1.0 and qq:
                credit[k] -= 1.0
                st, bid, coeff, sender_rank, last = qq.popleft()
                queued[tail[k]] -= 1
                sent[k] += 1
                if not arrivals[k]():
                    # receivers cannot react to lost packets; a batch none
                    # of whose packets arrived vanishes on this hop
                    if last and st.batch != bid:
                        died[st.flow][st.hop] += 1
                    continue
                received[k] += 1
                if bid > st.batch:
                    if st.batch >= 0:
                        close_batch(st)
                    st.batch = bid
                    st.basis = ffmat.RowBasis()
                if bid == st.batch:
                    # past the sender's rank no row can be innovative
                    if st.basis.rank < sender_rank and st.basis.absorb(coeff):
                        innovative[k] += 1
                    else:
                        redundant[k] += 1
                    if last:
                        close_batch(st)
            if not qq:
                credit[k] = 0.0  # service is use-it-or-lose-it when idle
        buffers[slot] = queued

    # every emitted batch was delivered or vanished, or is queued or open
    for i, f in enumerate(flows):
        in_flight = {pkt[1] for qq in queues for pkt in qq
                     if pkt[0].flow == i}
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
