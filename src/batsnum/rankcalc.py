"""Rank-distribution calculus for batched linear coding over lossy hops.

Core quantities: the rank pmf of uniformly random matrices over GF(q),
the per-hop expected-rank curves E_r(t), hop transition matrices for a
recoding policy under a batch-wise loss model, the chain-rule gradient
of the destination expected rank with respect to a hop's policy, and
the cut-set bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RankDistribution:
    """Probability vector over batch ranks 0..M."""

    M: int
    h: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        object.__setattr__(self, "h", h)
        if h.shape != (self.M + 1,):
            raise ValueError(f"h shape {h.shape} != ({self.M + 1},)")
        if np.any(h < -1e-12) or abs(h.sum() - 1.0) > 1e-9:
            raise ValueError("h must be a probability vector")

    @property
    def expected_rank(self):
        return float(self.h @ np.arange(self.M + 1))

    @staticmethod
    def source(M):
        """Fresh batches carry full rank M."""
        h = np.zeros(M + 1)
        h[M] = 1.0
        return RankDistribution(M=M, h=h)


def log_prob_rank(i, k, j, q):
    """log P(rank of an i x k uniform matrix over GF(q) equals j)."""
    if j > min(i, k) or j < 0:
        return -math.inf
    lq = math.log(q)
    s = -i * k * lq
    for t in range(j):
        s += i * lq + math.log1p(-q ** (t - i))
        s += k * lq + math.log1p(-q ** (t - k))
        s -= j * lq + math.log1p(-q ** (t - j))
    return s


def prob_rank(i, k, j, q):
    """P(rank = j) for an i x k uniform random matrix over GF(q)."""
    lz = log_prob_rank(i, k, j, q)
    return 0.0 if lz == -math.inf else math.exp(lz)


_rank_pmf_cache: dict = {}


def rank_pmf_table(M, k_max, q):
    """Z[i, k, j] = prob_rank(i, k, j, q) for i, j <= M and k <= k_max."""
    key = (M, k_max, q)
    got = _rank_pmf_cache.get(key)
    if got is not None:
        return got
    lq = math.log(q)
    xmax = max(M, k_max)
    # cum[x, j] = sum_{t<j} log(1 - q^(t-x)), j <= x
    cum = np.zeros((xmax + 1, M + 2))
    for x in range(xmax + 1):
        for j in range(1, min(x, M + 1) + 1):
            cum[x, j] = cum[x, j - 1] + math.log1p(-q ** ((j - 1) - x))
    Z = np.zeros((M + 1, k_max + 1, M + 1))
    for i in range(M + 1):
        for k in range(k_max + 1):
            jm = min(i, k)
            j = np.arange(jm + 1)
            lz = (-lq * (i - j) * (k - j)
                  + cum[i, np.minimum(j, i)]
                  + cum[k, np.minimum(j, k)] - cum[j, j])
            Z[i, k, :jm + 1] = np.exp(lz)
    Z.flags.writeable = False  # shared by every caller in the process
    _rank_pmf_cache[key] = Z
    return Z


def hop_tables(model, q, M):
    """W[m, i, j] = P(next rank j | rank i, m packets sent) for m <= m_max.

    W[m] is the transition matrix of the deterministic send-m policy;
    general policies mix these slices. Cached on the loss model and
    returned read-only.
    """
    key = ("hop_tables", q, M)
    got = model._cache.get(key)
    if got is not None:
        return got
    Z = rank_pmf_table(M, model.m_max, q)
    W = np.einsum("mk,ikj->mij", model.q_table, Z)
    W.flags.writeable = False
    model._cache[key] = W
    return W


def expected_rank_table(model, q, M):
    """E1[r, t] = expected next-hop rank of a rank-r batch with t packets sent."""
    key = ("expected_rank", q, M)
    got = model._cache.get(key)
    if got is not None:
        return got
    W = hop_tables(model, q, M)
    E1 = np.einsum("mij,j->im", W, np.arange(M + 1, dtype=float))
    E1.flags.writeable = False
    model._cache[key] = E1
    return E1


def transition_matrix(policy, model, q, M):
    """Rank transition matrix of one hop under `policy` and `model`.

    Row-stochastic and lower-triangular: recoding cannot raise rank.
    """
    W = hop_tables(model, q, M)
    P = np.zeros((M + 1, M + 1))
    for r in range(M + 1):
        for m, p in policy.support(r):
            if m > model.m_max:
                raise ValueError(
                    f"policy sends {m} > model m_max {model.m_max}")
            if p:
                P[r] += p * W[m, r]
    return P


def almost_deterministic_transition(t, model, q, M):
    """Transition matrix of the almost-deterministic policy with targets t.

    Row r mixes the send-floor(t[r]) and send-ceil(t[r]) slices of the
    hop tables; row 0 sends nothing. Equal, bit for bit, to
    `transition_matrix(expand_almost_deterministic(t, m0), ...)` for
    targets within the model's support.
    """
    W = hop_tables(model, q, M)
    t = np.asarray(t, dtype=float)
    lo = np.floor(t).astype(int)
    frac = t - lo
    lo[0], frac[0] = 0, 0.0
    r = np.arange(M + 1)
    hi = np.minimum(lo + 1, model.m_max)
    return (1.0 - frac)[:, None] * W[lo, r] + frac[:, None] * W[hi, r]


def chain_gradient(h0, path_matrices, hop_index, model, q, m_cols):
    """Gradient of the expected destination rank h0 . P_1 ... P_L . (0..M)
    with respect to hop `hop_index`'s policy.

    Entry (r, m) is the derivative with respect to p(m|r). The hop's
    transition matrix is linear in its policy, so the derivative of P at
    (i, j) w.r.t. p(m|r) is W[m, i, j] for i = r and 0 elsewhere; the
    chain collapses to left[r] * (W[m] @ right)[r].
    """
    h = np.asarray(h0.h if isinstance(h0, RankDistribution) else h0, dtype=float)
    M = len(h) - 1
    L = len(path_matrices)
    if not 0 <= hop_index < L:
        raise ValueError(f"hop_index {hop_index} outside [0, {L})")
    left = h.copy()
    for P in path_matrices[:hop_index]:
        left = left @ P
    right = np.arange(M + 1, dtype=float)
    for P in reversed(path_matrices[hop_index + 1:]):
        right = P @ right
    W = hop_tables(model, q, M)
    if m_cols > W.shape[0]:
        raise ValueError(f"m_cols {m_cols} exceeds model support {W.shape[0]}")
    T = W[:m_cols] @ right            # (m_cols, M+1)
    return left[:, None] * T.T        # (M+1, m_cols)


def cutset_bound(M, per_edge):
    """min over the batch size and per-edge expected deliveries m̄(1-eps)."""
    bound = float(M)
    for m_bar, eps in per_edge:
        if m_bar < 0 or not 0.0 <= eps < 1.0:
            raise ValueError(f"bad edge parameters ({m_bar}, {eps})")
        bound = min(bound, m_bar * (1.0 - eps))
    return bound
