"""Independent reference implementations used to freeze expected values.

Everything here is deliberately brute force and shares no code with the
package paths it checks.
"""

import itertools
import math

import numpy as np


def gf256_mul_shift_reduce(a, b, poly=0x11B):
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        if a & 0x100:
            a ^= poly
        b >>= 1
    return r


def gf2_det(mat):
    """Determinant over GF(2) by permutation expansion (tiny matrices)."""
    n = len(mat)
    total = 0
    for perm in itertools.permutations(range(n)):
        prod = 1
        for i in range(n):
            prod &= mat[i][perm[i]]
        total ^= prod
    return total


def gf2_rank_by_minors(mat):
    """Rank = largest j with a nonzero j x j minor."""
    mat = np.asarray(mat, dtype=int)
    rows, cols = mat.shape
    for j in range(min(rows, cols), 0, -1):
        for rsel in itertools.combinations(range(rows), j):
            for csel in itertools.combinations(range(cols), j):
                sub = mat[np.ix_(rsel, csel)]
                if gf2_det(sub.tolist()):
                    return j
    return 0


def gf2_rank_pmf_by_enumeration(i, k):
    """Exact rank pmf of i x k binary matrices by full enumeration."""
    counts = np.zeros(min(i, k) + 1)
    if i == 0 or k == 0:
        counts[0] = 1.0
        return counts
    for bits in range(2 ** (i * k)):
        mat = [[(bits >> (r * k + c)) & 1 for c in range(k)] for r in range(i)]
        counts[gf2_rank_elim(mat)] += 1
    return counts / counts.sum()


def gf2_rank_elim(mat):
    """Row reduction over GF(2), independent of the package implementation."""
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(rows):
            if i != r and m[i][c]:
                m[i] = [x ^ y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def simplex_projection_qp(v):
    """Projection onto the probability simplex by KKT active-set enumeration.

    With the support guessed as the indices kept active, the optimum is
    v_i - theta on the support; enumerate supports by the sorted order.
    """
    v = np.asarray(v, dtype=float)
    n = len(v)
    order = np.argsort(v)[::-1]
    best = None
    for size in range(1, n + 1):
        sel = order[:size]
        theta = (v[sel].sum() - 1.0) / size
        x = np.zeros(n)
        x[sel] = v[sel] - theta
        if np.all(x[sel] >= -1e-12):
            x = np.maximum(x, 0.0)
            val = float(np.sum((x - v) ** 2))
            if best is None or val < best[0] - 1e-15:
                best = (val, x)
    return best[1]


def almost_deterministic_exhaustive(h, E1, budget, cap):
    """Exact optimum of the budgeted per-rank allocation.

    The objective is piecewise linear and concave in each coordinate, so
    an optimum exists with at most one fractional coordinate; enumerate
    integer grids for all ranks but one, filling the remaining budget
    into the free rank.
    """
    h = np.asarray(h, dtype=float)
    support = [r for r in range(1, len(h)) if h[r] > 0]

    def value(t):
        tot = 0.0
        for r in support:
            lo = int(math.floor(t[r]))
            fr = t[r] - lo
            v = (1 - fr) * E1[r, lo]
            if fr > 0:
                v += fr * E1[r, lo + 1]
            tot += h[r] * v
        return tot

    best = -np.inf
    grids = [range(cap + 1)] * (len(support) - 1)
    for frac_rank in support:
        others = [r for r in support if r != frac_rank]
        for combo in itertools.product(*grids):
            t = np.zeros(len(h))
            used = 0.0
            for r, tv in zip(others, combo):
                t[r] = tv
                used += h[r] * tv
            rem = budget - used
            if rem < -1e-12:
                continue
            t[frac_rank] = min(cap, rem / h[frac_rank])
            best = max(best, value(t))
    return best


def neighborhood_best_reference(W_list, m, lam_path, caps, M):
    """Best candidate in the +-1 joint neighborhood of m, nothing memoized.

    Clips all 3^L candidates, then rebuilds their expected destination
    ranks with a forward stack of batched products (3 per hop).
    """
    L = len(m)
    D = np.array(list(itertools.product((-1, 0, 1), repeat=L)), dtype=int)
    cand = np.clip(np.asarray(m)[None, :] + D, 0, np.asarray(caps)[None, :])
    X = np.zeros((1, M + 1))
    X[0, M] = 1.0
    for l in range(L):
        opts = np.clip(np.array([m[l] - 1, m[l], m[l] + 1]), 0, caps[l])
        parts = [X @ W_list[l][int(o)] for o in opts]
        X = np.stack(parts, axis=1).reshape(-1, M + 1)
    vals = X @ np.arange(M + 1, dtype=float)
    dens = cand @ lam_path
    if np.all(dens <= 0):
        obj = vals
    else:
        obj = np.where(dens > 0, vals / np.where(dens > 0, dens, 1.0), -np.inf)
    best = int(np.argmax(obj))
    mid = (3 ** L - 1) // 2
    if obj[best] <= obj[mid] + 1e-15:
        return list(m), float(obj[mid])
    return [int(x) for x in cand[best]], float(obj[best])


def local_search_reference(W_list, lam_path, caps, init_m, M, threshold,
                           max_rounds=1000):
    """Repeated neighborhood steps from init_m; (m, objective, history,
    threshold_stop) with the stopping rules of the package's search."""
    m = [int(x) for x in init_m]
    cur = -np.inf
    history = []
    threshold_stop = False
    for _ in range(max_rounds):
        m2, obj = neighborhood_best_reference(W_list, m, lam_path, caps, M)
        if m2 == m:
            cur = max(cur, obj)
            break
        if obj - cur < threshold and np.isfinite(cur):
            threshold_stop = True
            break
        m, cur = m2, obj
        history.append((tuple(m), cur))
    return m, cur, history, threshold_stop
