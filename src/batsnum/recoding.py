"""Recoding policies and the per-hop transmit-count optimizer."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rankcalc

BUDGET_TOL = 1e-12
PAY_CHUNK = 128  # grants in the first payment step; most rows stop in it


@dataclass(frozen=True)
class RecodingPolicy:
    """Transmit-count rule per received rank.

    nonadaptive: send m packets for every rank. adaptive: stochastic
    matrix p with p[r, m] = P(send m | rank r); row 0 is the point mass
    at 0 (nothing to send for an empty batch).
    """

    kind: str
    m: int | None = None
    p: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "nonadaptive":
            if self.m is None or self.m < 0:
                raise ValueError("nonadaptive policy needs m >= 0")
        elif self.kind == "adaptive":
            if self.p is None:
                raise ValueError("adaptive policy needs a matrix")
            p = np.asarray(self.p, dtype=float)
            object.__setattr__(self, "p", p)
            if np.any(p < -1e-12):
                raise ValueError("negative policy entries")
            sums = p.sum(axis=1)
            if np.any(np.abs(sums - 1.0) > 1e-9):
                raise ValueError("policy rows must sum to 1")
            if abs(p[0, 0] - 1.0) > 1e-9:
                raise ValueError("rank-0 row must be the point mass at 0")
            object.__setattr__(self, "_cdf", {})  # rank -> sampling CDF
        else:
            raise ValueError(f"unknown policy kind {self.kind!r}")

    @staticmethod
    def nonadaptive(m):
        return RecodingPolicy(kind="nonadaptive", m=int(m))

    @staticmethod
    def adaptive(p):
        return RecodingPolicy(kind="adaptive", p=np.asarray(p, dtype=float))

    def support(self, r):
        """[(m, prob)] pairs with prob > 0 for rank r."""
        if self.kind == "nonadaptive":
            return [(self.m, 1.0)]
        row = self.p[r]
        return [(int(m), float(row[m])) for m in np.flatnonzero(row > 0)]

    def sample_count(self, r, rng):
        """Transmit count for rank r, drawn as `rng.choice(len(row), p=row)`
        draws it, from the row's CDF built once per policy."""
        if self.kind == "nonadaptive":
            return self.m
        cdf = self._cdf.get(r)
        if cdf is None:
            cdf = self.p[r].cumsum()
            cdf /= cdf[-1]
            self._cdf[r] = cdf
        return int(cdf.searchsorted(rng.random(), side="right"))

    def to_dict(self):
        if self.kind == "nonadaptive":
            return {"variant": "nonadaptive", "m": self.m}
        rows = [[[int(m), p] for m, p in self.support(r)]
                for r in range(self.p.shape[0])]
        return {"variant": "adaptive", "columns": self.p.shape[1], "rows": rows}

    @staticmethod
    def from_dict(data):
        if data["variant"] == "nonadaptive":
            return RecodingPolicy.nonadaptive(data["m"])
        cols = int(data["columns"])
        p = np.zeros((len(data["rows"]), cols))
        for r, row in enumerate(data["rows"]):
            for m, prob in row:
                p[r, int(m)] = prob
        return RecodingPolicy.adaptive(p)


def expand_almost_deterministic(t, m0):
    """Two-point-support policy from real transmit targets t(r): each rank
    sends floor or ceil of t(r); integer targets degenerate."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t(r) must be nonnegative")
    if np.any(t > m0):
        raise ValueError(f"t exceeds the transmit cap {m0}")
    M = len(t) - 1
    p = np.zeros((M + 1, m0 + 2))
    for r in range(M + 1):
        lo = int(math.floor(t[r]))
        frac = t[r] - lo
        p[r, lo] += 1.0 - frac
        if frac > 0:
            p[r, lo + 1] += frac
    if p[0, 0] != 1.0:
        p[0] = 0.0
        p[0, 0] = 1.0
    return RecodingPolicy.adaptive(p[:, :m0 + 1])


def average_packets(policy, h):
    """Expected transmitted packets per batch under rank distribution h."""
    total = 0.0
    # rank by rank: a vectorized sum can move the result in the last bit
    for r, x in enumerate(np.asarray(h, dtype=float).tolist()):
        if x:
            total += x * (policy.m if policy.kind == "nonadaptive" else
                          sum(m * p for m, p in policy.support(r)))
    return total


@dataclass
class HopResult:
    expected_rank: float
    targets: np.ndarray
    m0: int
    budget_used: float
    h_out: np.ndarray  # next-hop rank distribution under `policy`

    @cached_property
    def policy(self):
        """The almost-deterministic policy of `targets`, expanded on first
        use: a solve reads only its final hops' policies."""
        return expand_almost_deterministic(self.targets, self.m0)

    def row(self, i):
        """Row i of a stacked result, as a single-row call returns it."""
        return HopResult(float(self.expected_rank[i]), self.targets[i],
                         self.m0, float(self.budget_used[i]), self.h_out[i])


def _greedy_order(model, q, M, cap):
    """Ranks in the order the greedy grants them, with an unlimited budget.

    The greedy picks the largest marginal gain E1[r, t+1] - E1[r, t]
    (ties to the lower rank) among the ranks still below the cap. A
    rank's marginal moves only when it is granted, so this order
    restricted to any set of ranks is the greedy's order over that set:
    neither h nor the budget enters it, and a budget only decides how
    long a prefix is paid for. Cached on the loss model; read-only.
    """
    key = ("greedy_order", q, M, cap)
    got = model._cache.get(key)
    if got is not None:
        return got
    E1 = rankcalc.expected_rank_table(model, q, M)
    ti = np.zeros(M + 1, dtype=int)
    marg = np.full(M + 1, -np.inf)
    if cap >= 1:
        marg[1:] = E1[1:M + 1, 1] - E1[1:M + 1, 0]
    order = []
    # zero marginals stay grantable so a monotone model exhausts the budget
    while np.any(marg >= -1e-12):
        r = int(np.argmax(marg))
        order.append(r)
        ti[r] += 1
        marg[r] = (E1[r, ti[r] + 1] - E1[r, ti[r]]) if ti[r] < cap else -np.inf
    order = np.array(order, dtype=np.intp)
    order.flags.writeable = False
    model._cache[key] = order
    return order


def optimize_hop(h_in, model, budget, q, M, m0):
    """Maximize next-hop expected rank under an average-transmit budget.

    Greedy marginal allocation on the per-hop curves E_r(t): repeatedly
    grant one transmit count to the rank with the largest marginal gain
    (ties to the lower rank), paying h(r) of budget per unit; the last
    unit is granted fractionally so the budget is exhausted exactly. For
    monotone-concave curves, which every model the package builds has,
    this is the exact optimum and the result is almost deterministic.

    `h_in` may be a stack (E, M+1) with a budget per row; the fields are
    then stacked and `policy` is undefined. Every row pays the model's one
    cached grant order (`_greedy_order`); a rank with h(r) = 0 costs
    nothing there, so it leaves the remainders as they are, and its
    target is set back to 0.
    """
    h = np.asarray(h_in, dtype=float)
    H = np.atleast_2d(h)
    budgets = np.broadcast_to(np.asarray(budget, dtype=float), H.shape[:1])
    if np.any(budgets < 0):
        raise ValueError("budget must be nonnegative")
    order = _greedy_order(model, q, M, min(m0, model.m_max))
    funded = H > 0
    t, remaining = _pay(order, np.where(funded, H, 0.0), budgets, M)
    t[~funded] = 0.0
    P = rankcalc.almost_deterministic_transition(t, model, q, M)
    # per-row gemv and dot: the bits of `h @ P` and `h_out @ arange` per row
    h_out = np.matmul(H[:, None, :], P)[:, 0]
    rank = np.matmul(h_out[:, None, :], np.arange(M + 1.0)[:, None])[:, 0, 0]
    used = budgets - remaining
    res = HopResult(rank, t, m0, used, h_out)
    return res.row(0) if h.ndim == 1 else res


def _pay(order, h, budgets, M):
    """Targets and unspent budget of rows h paying `order` from the left.

    A row stops before the first grant that its remainder no longer funds
    (at most BUDGET_TOL, or below the cost) and buys a fraction of it.
    Each chunk of grants (PAY_CHUNK, then doubling) is one accumulate down
    a (chunk+1, rows) array: per row, the subtractions of one 1-D pass.
    """
    n, k, rem = len(order), np.full(len(h), len(order)), budgets.copy()
    live, c0, w = np.arange(len(h)), 0, PAY_CHUNK
    while c0 < n and live.size:
        costs = h[live][:, order[c0:c0 + w]].T
        acc = np.subtract.accumulate(np.vstack([rem[live], costs]), axis=0)
        stop = (acc[:-1] <= BUDGET_TOL) | (costs > acc[:-1])
        hit, j = stop.any(axis=0), stop.argmax(axis=0)
        k[live[hit]] = c0 + j[hit]
        rem[live] = acc[np.where(hit, j, -1), np.arange(live.size)]
        live, c0, w = live[~hit], c0 + w, 2 * w
    # paid counts: grants between consecutive sorted stops, summed up
    by_k = np.argsort(k, kind="stable")
    seg = np.searchsorted(k[by_k], np.arange(k.max()), side="right")
    counts = np.bincount(seg * (M + 1) + order[:k.max()],
                         minlength=len(k) * (M + 1)).reshape(len(k), M + 1)
    t = np.empty((len(k), M + 1))
    t[by_k] = counts.cumsum(axis=0)
    part = np.flatnonzero((rem > BUDGET_TOL) & (k < n))
    r = order[k[part]]
    t[part, r] += rem[part] / h[part, r]
    rem[part] = 0.0
    return t, rem
