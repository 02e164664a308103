"""Recoding policies and the per-hop transmit-count optimizer."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import rankcalc

BUDGET_TOL = 1e-12


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

    def support_columns(self):
        """Number of transmit-count columns (max m + 1)."""
        if self.kind == "nonadaptive":
            return self.m + 1
        return self.p.shape[1]

    def max_count(self):
        if self.kind == "nonadaptive":
            return self.m
        return int(max((m for r in range(self.p.shape[0])
                        for m, _ in self.support(r)), default=0))

    def sample_count(self, r, rng):
        if self.kind == "nonadaptive":
            return self.m
        row = self.p[r]
        return int(rng.choice(len(row), p=row))

    def to_json(self):
        if self.kind == "nonadaptive":
            return json.dumps({"variant": "nonadaptive", "m": self.m})
        rows = [[[int(m), p] for m, p in self.support(r)]
                for r in range(self.p.shape[0])]
        return json.dumps({"variant": "adaptive",
                           "columns": self.p.shape[1], "rows": rows})

    @staticmethod
    def from_json(doc):
        data = json.loads(doc)
        if data["variant"] == "nonadaptive":
            return RecodingPolicy.nonadaptive(data["m"])
        cols = int(data["columns"])
        p = np.zeros((len(data["rows"]), cols))
        for r, row in enumerate(data["rows"]):
            for m, prob in row:
                p[r, int(m)] = prob
        return RecodingPolicy.adaptive(p)


@dataclass(frozen=True)
class AlmostDeterministicSpec:
    """Real transmit targets t(r); each rank's count is floor/ceil of t(r)."""

    t: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        object.__setattr__(self, "t", t)
        if np.any(t < 0):
            raise ValueError("t(r) must be nonnegative")


def expand_almost_deterministic(spec, m0):
    """Two-point-support policy from real targets; integer targets degenerate."""
    t = spec.t if isinstance(spec, AlmostDeterministicSpec) else np.asarray(spec, float)
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
    h = np.asarray(h.h if hasattr(h, "h") else h, dtype=float)
    total = 0.0
    for r in range(len(h)):
        if h[r] == 0:
            continue
        total += h[r] * sum(m * p for m, p in policy.support(r))
    return total


def average_packets_gradient(policy, h):
    """d(average packets)/d p(m|r) = m * h(r); shaped like the policy matrix."""
    h = np.asarray(h.h if hasattr(h, "h") else h, dtype=float)
    cols = policy.support_columns()
    return np.outer(h, np.arange(cols, dtype=float))


def project_stochastic(A):
    """Row-wise Euclidean projection onto the simplex; row 0 pinned to e0."""
    A = np.asarray(A, dtype=float)
    out = np.empty_like(A)
    for r in range(A.shape[0]):
        out[r] = _project_simplex(A[r])
    out[0] = 0.0
    out[0, 0] = 1.0
    return out


def _project_simplex(v):
    """Euclidean projection of v onto {x >= 0, sum x = 1} (sort method)."""
    n = len(v)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.flatnonzero(u * np.arange(1, n + 1) > (css - 1.0))[-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


@dataclass
class HopResult:
    policy: RecodingPolicy
    expected_rank: float
    targets: np.ndarray
    budget_used: float
    concave: bool
    h_out: np.ndarray  # next-hop rank distribution under `policy`


def _greedy_order(model, q, M, cap, fundable):
    """Ranks in the order the greedy grants them, with an unlimited budget.

    The greedy picks the largest marginal gain E1[r, t+1] - E1[r, t]
    (ties to the lower rank) among the fundable ranks still below the
    cap; neither h's values nor the budget enter the choice, so a budget
    only decides how long a prefix of this order is paid for. Cached on
    the loss model with the concavity flag of its curves; the order is
    read-only.
    """
    key = ("greedy_order", q, M, cap, fundable.tobytes())
    got = model._cache.get(key)
    if got is not None:
        return got
    E1 = rankcalc.expected_rank_table(model, q, M)
    d2 = np.diff(E1[1:, :cap + 1], n=2, axis=1)
    concave = bool(d2.size == 0 or d2.max() <= 1e-6)
    ti = np.zeros(M + 1, dtype=int)
    marg = np.full(M + 1, -np.inf)
    for r in range(1, M + 1):
        if fundable[r] and cap >= 1:
            marg[r] = E1[r, 1] - E1[r, 0]
    order = []
    # zero marginals stay grantable so a monotone model exhausts the budget
    while np.any(marg >= -1e-12):
        r = int(np.argmax(marg))
        order.append(r)
        ti[r] += 1
        marg[r] = (E1[r, ti[r] + 1] - E1[r, ti[r]]) if ti[r] < cap else -np.inf
    order = np.array(order, dtype=np.intp)
    order.flags.writeable = False
    got = model._cache[key] = (order, concave)
    return got


def optimize_hop(h_in, model, budget, q, M, m0):
    """Maximize next-hop expected rank under an average-transmit budget.

    Greedy marginal allocation on the per-hop curves E_r(t): repeatedly
    grant one transmit count to the rank with the largest marginal gain
    (ties to the lower rank), paying h(r) of budget per unit; the last
    unit is granted fractionally so the budget is exhausted exactly. For
    monotone-concave curves this is the exact optimum and the result is
    almost deterministic. A failed concavity check is reported in the
    result (greedy still returned).

    The grant order is cached (`_greedy_order`); a call pays the units of
    that order from left to right until the budget falls to BUDGET_TOL or
    the next unit no longer fits.
    """
    h = np.asarray(h_in.h if hasattr(h_in, "h") else h_in, dtype=float)
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    cap = min(m0, model.m_max)
    fundable = h > 0
    fundable[0] = False
    order, concave = _greedy_order(model, q, M, cap, fundable)
    costs = h[order]
    # rem[k]: budget left before the k-th grant, subtracted in grant order
    rem = np.subtract.accumulate(np.concatenate(([float(budget)], costs)))
    stops = np.flatnonzero((rem[:-1] <= BUDGET_TOL) | (costs > rem[:-1]))
    k = int(stops[0]) if stops.size else len(order)
    t = np.bincount(order[:k], minlength=M + 1).astype(float)
    remaining = rem[k]
    if remaining > BUDGET_TOL and k < len(order):
        t[order[k]] += remaining / costs[k]
        remaining = 0.0
    policy = expand_almost_deterministic(AlmostDeterministicSpec(t=t), m0)
    h_out = h @ rankcalc.almost_deterministic_transition(t, model, q, M)
    return HopResult(policy=policy,
                     expected_rank=float(h_out @ np.arange(M + 1)),
                     targets=t,
                     budget_used=float(budget - remaining),
                     concave=concave,
                     h_out=h_out)
