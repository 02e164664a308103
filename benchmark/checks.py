"""Checks of batsnum outputs, computed apart from the program.

Nothing here calls into `batsnum`: the checks read the scenario and the
solver or simulator outputs as data and recompute what they claim with
their own implementations.

- Rank distributions: the rank pmf of uniform random matrices over GF(q)
  is built row by row (a new uniform row leaves the span of j independent
  rows in GF(q)^r with probability 1 - q^(j-r)), not from the product
  formula in `rankcalc`.
- Collisions: two-hop conflicts are derived from the link endpoints.
- The cut-set bound: a small convex solve (SLSQP in log rates over the
  enumerated schedules), then an LP that scales the rate direction onto
  the boundary of the schedule region.

Each check yields a `Check(name, ok, detail)`; a failed check is a failed
operation of the benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

FEASIBILITY_TOL = 1e-9   # load minus scheduled rate, packets per slot
UTILITY_TOL = 1e-9       # |log(alpha * E[rank]) - claimed utility|
MBAR_TOL = 1e-9          # |recomputed average packets - claimed mbar|
U_TILDE_TOL = 1e-6       # |own cut-set bound - solver's U~|
SIM_Z = 5.0              # standard errors allowed for a simulated mean rank
FRAME_LENGTH = 1000      # TDMA frame length passed to the simulator

# Paper reference ranges for kappa in percent, with the tolerances of the
# acceptance tests (criteria 2, 3 and 4), keyed by (loss family, mode).
KAPPA_RANGES = {
    ("iid", "nap"): (89.1, 91.1),
    ("iid", "two-step"): (91.3, 93.3),
    ("ge", "nap"): (76.01 - 2.5, 76.01 + 2.5),
    ("ge", "two-step"): (80.50 - 2.5, 80.50 + 2.5),
}


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


# ---------------------------------------------------------------------------
# rank distributions


def rank_pmf_rows(r, k_max, q):
    """P[k, j] = P(rank j) of a k x r matrix with i.i.d. uniform GF(q) entries."""
    P = np.zeros((k_max + 1, r + 1))
    P[0, 0] = 1.0
    grow = 1.0 - float(q) ** (np.arange(r + 1) - r)
    for k in range(1, k_max + 1):
        prev = P[k - 1]
        P[k] = prev * (1.0 - grow)
        P[k, 1:] += prev[:-1] * grow[:-1]
    return P


class RankModel:
    """Hop transition matrices built from the q(r|m) tables of a scenario."""

    def __init__(self, scenario):
        self.M = scenario.M
        self.q = scenario.q
        self._scenario = scenario
        self._pmf = {}

    def _received_rank(self, q_table):
        """W[r][m, j]: P(rank j at the receiver | rank r, m packets sent)."""
        k_max = q_table.shape[0] - 1
        if k_max not in self._pmf:
            self._pmf[k_max] = [rank_pmf_rows(r, k_max, self.q)
                                for r in range(self.M + 1)]
        return [q_table @ Z for Z in self._pmf[k_max]]

    def policy_matrix(self, policy, m_max):
        """p[r, m] = P(send m | rank r) as a dense (M+1, m_max+1) matrix."""
        p = np.zeros((self.M + 1, m_max + 1))
        if policy.kind == "nonadaptive":
            if policy.m > m_max:
                raise ValueError(f"policy sends {policy.m} > m_max {m_max}")
            p[:, policy.m] = 1.0
            return p
        cols = policy.p.shape[1]
        if cols > m_max + 1 and np.any(policy.p[:, m_max + 1:] > 0):
            raise ValueError(f"policy sends more than m_max {m_max}")
        cols = min(cols, m_max + 1)
        p[:, :cols] = policy.p[:, :cols]
        return p

    def forward(self, flow, policies):
        """(per-hop average packets, destination rank distribution)."""
        M = self.M
        h = np.zeros(M + 1)
        h[M] = 1.0
        mbars = []
        for lid, pol in zip(flow.links, policies):
            q_table = self._scenario.loss_model(lid).q_table
            m_max = q_table.shape[0] - 1
            p = self.policy_matrix(pol, m_max)
            mbars.append(float(h @ (p @ np.arange(m_max + 1))))
            W = self._received_rank(q_table)
            T = np.zeros((M + 1, M + 1))
            for r in range(M + 1):
                T[r, :r + 1] = p[r] @ W[r]
            h = h @ T
        return mbars, h


# ---------------------------------------------------------------------------
# schedules and the cut-set bound


def two_hop_conflicts(links):
    """Pairs of link ids that collide: a shared or adjacent endpoint."""
    adj = {}
    for l in links:
        adj.setdefault(l.tail, set()).add(l.head)
        adj.setdefault(l.head, set()).add(l.tail)
    out = set()
    for a in links:
        reach = {a.tail, a.head} | adj[a.tail] | adj[a.head]
        for b in links:
            if b.id != a.id and reach & {b.tail, b.head}:
                out.add((a.id, b.id))
    return out


def collision_free(links, active, conflicts):
    on = [l.id for l, a in zip(links, active) if a]
    return all((a, b) not in conflicts for a in on for b in on)


def feasible_schedules(links):
    conflicts = two_hop_conflicts(links)
    E = len(links)
    out = []
    for mask in range(1 << E):
        active = [(mask >> i) & 1 for i in range(E)]
        if collision_free(links, active, conflicts):
            out.append(active)
    return np.array(out, dtype=float)


def average_loss(spec):
    if spec.kind == "independent":
        return spec.epsilon
    ge = spec.ge
    pi_good = ge.p_bg / (ge.p_gb + ge.p_bg)
    return 1.0 - pi_good * ge.s_good - (1.0 - pi_good) * ge.s_bad


def cutset_bound(scenario):
    """max sum_i log f_i  s.t.  A f <= R_eff^T w, sum w <= 1, w >= 0."""
    links = scenario.network.links
    ids = [l.id for l in links]
    E, k = len(links), len(scenario.flows)
    A = np.zeros((E, k))
    for i, flow in enumerate(scenario.flows):
        for e in flow.links:
            A[ids.index(e), i] = 1.0
    eff = np.array([l.capacity * (1.0 - average_loss(l.loss)) for l in links])
    R = feasible_schedules(links) * eff
    S = R.shape[0]
    w0 = np.full(S, 1.0 / S)
    cap0 = R.T @ w0
    f0 = 0.5 * min(cap0[A[:, i] > 0].min() / A.sum(axis=1).max()
                   for i in range(k))
    x0 = np.concatenate([np.full(k, math.log(f0)), w0])
    cons = [
        {"type": "ineq",
         "fun": lambda x: R.T @ x[k:] - A @ np.exp(x[:k]),
         "jac": lambda x: np.hstack([-A * np.exp(x[:k]), R.T])},
        {"type": "ineq",
         "fun": lambda x: np.array([1.0 - x[k:].sum()]),
         "jac": lambda x: np.concatenate([np.zeros(k), -np.ones(S)])[None]},
    ]
    res = optimize.minimize(
        lambda x: -x[:k].sum(), x0,
        jac=lambda x: np.concatenate([-np.ones(k), np.zeros(S)]),
        method="SLSQP", constraints=cons,
        bounds=[(None, None)] * k + [(0.0, None)] * S,
        options={"ftol": 1e-15, "maxiter": 1000})
    d = np.exp(res.x[:k])
    # scale the direction d onto the region boundary: max t, t A d <= R^T w
    Aub = np.zeros((E + 1, 1 + S))
    Aub[:E, 0] = A @ d
    Aub[:E, 1:] = -R.T
    Aub[E, 1:] = 1.0
    bub = np.zeros(E + 1)
    bub[E] = 1.0
    lp = optimize.linprog(np.concatenate([[-1.0], np.zeros(S)]), A_ub=Aub,
                          b_ub=bub, bounds=[(0, None)] * (1 + S),
                          method="highs")
    if not lp.success:
        raise RuntimeError(f"cut-set ray LP failed: {lp.message}")
    return float(np.sum(np.log(lp.x[0] * d)))


# ---------------------------------------------------------------------------
# solver outputs


def check_feasible(scenario, sol, label):
    """Schedule weights, collisions and link loads of one solution."""
    links = scenario.network.links
    ids = [l.id for l in links]
    conflicts = two_hop_conflicts(links)
    weights = [w for _, w in sol.schedule_weights]
    total = float(sum(weights))
    bad = [s.active for s, w in sol.schedule_weights
           if w > 0 and not collision_free(links, s.active, conflicts)]
    caps = np.array([l.capacity for l in links])
    rate = sum(w * np.array(s.active) * caps for s, w in sol.schedule_weights)
    load = np.zeros(len(links))
    for i, flow in enumerate(scenario.flows):
        for e, mb in zip(flow.links, sol.mbar[i]):
            load[ids.index(e)] += sol.alpha[i] * mb
    over = float(np.max(load - rate))
    viol = sol.constraint_violation(scenario)
    return [
        Check(f"{label}.weights", total <= 1.0 + 1e-12 and min(weights) >= 0,
              f"schedule weights sum to {total:.12f} (<= 1), "
              f"min {min(weights):.3e} (>= 0)"),
        Check(f"{label}.collisions", not bad,
              f"{len(bad)} scheduled activation vectors collide: {bad[:3]}"),
        Check(f"{label}.load", over <= FEASIBILITY_TOL
              and viol <= FEASIBILITY_TOL,
              f"max load - scheduled rate = {over:.3e}, "
              f"constraint_violation = {viol:.3e} (<= {FEASIBILITY_TOL})"),
    ]


def check_utilities(scenario, sol, rank_model, label):
    """Recompute per-hop mbar and each flow's utility from its policies."""
    worst_u, worst_mb = 0.0, 0.0
    for i, flow in enumerate(scenario.flows):
        mbars, h = rank_model.forward(flow, sol.policies[i])
        rank = float(h @ np.arange(scenario.M + 1))
        u = math.log(sol.alpha[i] * rank)
        worst_u = max(worst_u, abs(u - float(sol.utilities[i])))
        worst_mb = max(worst_mb, max(abs(a - b)
                                     for a, b in zip(mbars, sol.mbar[i])))
    total_gap = abs(float(np.sum(sol.utilities)) - sol.u_total)
    return [
        Check(f"{label}.utilities",
              worst_u <= UTILITY_TOL and total_gap <= UTILITY_TOL,
              f"max |log(alpha E[rank]) - U_i| = {worst_u:.3e}, "
              f"|sum U_i - U| = {total_gap:.3e} (<= {UTILITY_TOL})"),
        Check(f"{label}.mbar", worst_mb <= MBAR_TOL,
              f"max |recomputed mbar - claimed| = {worst_mb:.3e} "
              f"(<= {MBAR_TOL})"),
    ]


def kappa_pct(u_total, u_tilde, k):
    return 100.0 * math.exp((u_total - u_tilde) / k)


def check_solve(scenario, family, up, nap, two, ranges=True):
    """Every check of the solve workloads; `ranges` adds the paper ranges."""
    rank_model = RankModel(scenario)
    k = len(scenario.flows)
    u_own = cutset_bound(scenario)
    out = []
    for label, sol in (("nap", nap), ("two_step", two)):
        out += check_feasible(scenario, sol, label)
        out += check_utilities(scenario, sol, rank_model, label)
    gaps = [abs(u_own - x) for x in (up.u_tilde, nap.u_tilde, two.u_tilde)]
    out.append(Check("u_tilde", max(gaps) <= U_TILDE_TOL,
                     f"own U~ = {u_own:.9f}, solver U~ = {up.u_tilde:.9f}, "
                     f"max gap {max(gaps):.3e} (<= {U_TILDE_TOL})"))
    out.append(Check("ordering", nap.u_total <= two.u_total <= u_own,
                     f"U(nap) = {nap.u_total:.9f} <= U(two-step) = "
                     f"{two.u_total:.9f} <= U~ = {u_own:.9f}"))
    if ranges:
        for mode, sol in (("nap", nap), ("two-step", two)):
            lo, hi = KAPPA_RANGES[(family, mode)]
            kap = kappa_pct(sol.u_total, u_own, k)
            out.append(Check(f"kappa.{mode}", lo <= kap <= hi,
                             f"kappa = {kap:.3f}% in [{lo:.2f}, {hi:.2f}]"))
    return out


# ---------------------------------------------------------------------------
# simulator outputs


def scheduled_slots_bound(sol, link_index, slots, frame_length):
    """Most slots a link can be active in the TDMA frame over `slots` slots.

    Each schedule gets floor or ceil of weight * frame_length slots a frame.
    """
    per_frame = sum(math.floor(w * frame_length) + 1
                    for s, w in sol.schedule_weights if s.active[link_index])
    return per_frame * math.ceil(slots / frame_length)


def check_simulation(scenario, sol, rep, slots, frame_length=FRAME_LENGTH):
    u_own = cutset_bound(scenario)
    out = [Check("u_tilde", abs(u_own - sol.u_tilde) <= U_TILDE_TOL,
                 f"own U~ = {u_own:.9f}, solution U~ = {sol.u_tilde:.9f} "
                 f"(<= {U_TILDE_TOL})")]
    rank_model = RankModel(scenario)
    ranks = np.arange(scenario.M + 1)
    for i, flow in enumerate(scenario.flows):
        fid = flow.id
        want = math.floor(sol.alpha[i] * slots)
        out.append(Check(f"{fid}.emitted", abs(rep.emitted[fid] - want) <= 1,
                         f"emitted {rep.emitted[fid]} batches, "
                         f"floor(alpha * slots) = {want}"))
        hist = np.asarray(rep.rank_hist[fid])
        out.append(Check(f"{fid}.histogram",
                         int(hist.sum()) == rep.completed[fid],
                         f"rank histogram sums to {int(hist.sum())}, "
                         f"completed = {rep.completed[fid]}"))
        # batches of rank 0 can vanish in flight, so compare rank >= 1 only
        _, h = rank_model.forward(flow, sol.policies[i])
        p = h[1:] / h[1:].sum()
        mu = float(p @ ranks[1:])
        sd = math.sqrt(float(p @ (ranks[1:] - mu) ** 2))
        n = int(hist[1:].sum())
        got = float(hist[1:] @ ranks[1:]) / n if n else float("nan")
        se = sd / math.sqrt(n) if n else float("inf")
        out.append(Check(f"{fid}.mean_rank",
                         n > 0 and abs(got - mu) <= SIM_Z * se,
                         f"mean delivered rank {got:.4f} over {n} batches vs "
                         f"analytic {mu:.4f}: |gap| <= {SIM_Z} se = "
                         f"{SIM_Z * se:.4f}"))
    for j, link in enumerate(scenario.network.links):
        st = rep.link_stats[link.id]
        cap = link.capacity * scheduled_slots_bound(sol, j, slots,
                                                    frame_length)
        out.append(Check(f"{link.id}.traffic",
                         st["received"] <= st["sent"] <= cap + 1e-9,
                         f"received {st['received']} <= sent {st['sent']} "
                         f"<= capacity over scheduled slots {cap:.0f}"))
    return out
