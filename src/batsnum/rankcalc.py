"""Rank-distribution calculus for batched linear coding over lossy hops.

Core quantities: the rank pmf of uniformly random matrices over GF(q),
the per-hop expected-rank curves E_r(t), and hop transition matrices
for a recoding policy under a batch-wise loss model.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def source_distribution(M):
    """Rank distribution over 0..M of fresh batches: full rank M."""
    h = np.zeros(M + 1)
    h[M] = 1.0
    return h


@functools.cache
def rank_pmf_table(M, k_max, q):
    """Z[i, k, j] = P(an i x k uniform matrix over GF(q) has rank j) for
    i, j <= M and k <= k_max."""
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
    return Z


def hop_tables(model, q, M):
    """W[m, i, j] = P(next rank j | rank i, m packets sent) for m <= m_max.

    W[m] is the transition matrix of the deterministic send-m policy;
    general policies mix these slices. Cached on the loss model and
    returned read-only.
    """
    return model.derived(("hop_tables", q, M), lambda: np.einsum(
        "mk,ikj->mij", model.q_table, rank_pmf_table(M, model.m_max, q)))


def expected_rank_table(model, q, M):
    """E1[r, t] = expected next-hop rank of a rank-r batch with t packets
    sent. Cached on the loss model and returned read-only."""
    return model.derived(("expected_rank", q, M), lambda: np.einsum(
        "mij,j->im", hop_tables(model, q, M), np.arange(M + 1, dtype=float)))


def transition_matrix(policy, model, q, M):
    """Rank transition matrix of one hop under `policy` and `model`.

    Row-stochastic and lower-triangular: recoding cannot raise rank.
    """
    W = hop_tables(model, q, M)
    if policy.kind == "nonadaptive" and policy.m <= model.m_max:
        return W[policy.m].copy()  # the loop's 0.0 + 1.0 * W[m, r], exactly
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
    hop tables; row 0 sends nothing. A stack of targets (..., M+1) gives
    a stack of matrices. Equal, bit for bit, to
    `transition_matrix(expand_almost_deterministic(t, m0), ...)` for
    targets within the model's support.
    """
    W = hop_tables(model, q, M)
    t = np.asarray(t, dtype=float)
    lo = np.floor(t).astype(int)
    frac = t - lo
    lo[..., 0], frac[..., 0] = 0, 0.0
    P = W[lo, np.arange(M + 1)]
    at = np.nonzero(frac > 0)  # 1.0 * x + 0.0 * y is x: mix only fractions
    f = frac[at][:, None]
    P[at] = (1.0 - f) * P[at] + f * W[np.minimum(lo[at] + 1, model.m_max), at[-1]]
    return P
