"""Independent reference implementations used to freeze expected values.

The reference implementations are deliberately brute force and share no
code with the package paths they check. The helpers below them are read
by tests only, never by a package path: `expected_rank_gradient` with
`chain_gradient` and `support_columns`, the closed-form rank pmf
`prob_rank` and `log_prob_rank`, `matrix_rank`, `cutset_bound`,
`check_monotone_concave` over a loss model's expected-rank curves,
`empirical_rank_distribution` of a simulation report, the GF(256)
scalar operations `gf_mul` and `gf_inv`, `expected_rank_after_hop` and
`propagate` over the rank calculus, and `schedule_is_feasible`,
`max_weight_schedule` and `decompose_rate_vector` (with
`DecompositionError`) over the schedules. `empirical_loss_model_reference`
shares the package's path sampler and recounts the windows the slow way.
The simulator's former paths are kept as oracles of its current ones:
`recode_batch_global` (recoded rows multiplied out over the sender's
basis), `ScalarChannel` (one scalar draw per call) and
`SteppedBatchSource` (one accumulator step per slot). The two-step's
former scalar paths are kept the same way: `greedy_order_masked` (the
grant order over the fundable ranks only), `optimize_hop_scalar` (one
rank distribution, that whole grant order paid by one accumulate),
`flow_two_step_grid_loop` (one `optimize_hop_scalar` chain per grid
scale) and `average_packets_by_rank` (a policy's support summed rank by
rank). `gf256_rank_stacked` ranks a stack of GF(256) matrices at once.
The allocation's single-problem interior-point loop is kept as the
reference of the stacked core: `interior_point_single`, with
`concave_allocation_single` and `column_master_single` on top of it.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg, optimize

from batsnum import ffmat, loss, rankcalc, solvers
from batsnum.ffmat import _INV256, _MUL256, _check_field
from batsnum.netmodel import (ValidationError, max_weight_index,
                              schedule_rate_matrix)
from batsnum.recoding import (BUDGET_TOL, HopResult,
                              expand_almost_deterministic)
from batsnum.solvers import ConcaveAllocation


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


def row_reduce_numpy(A, q=256):
    """Row-echelon reduction on numpy rows, one column at a time; the
    package's elimination before rows were packed into ints."""
    _check_field(q)
    A = np.array(A, dtype=np.uint8)
    if A.size == 0:
        return A.reshape(0, A.shape[1] if A.ndim == 2 else 0), 0
    rows, cols = A.shape
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if A[i, c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        if q == 256 and A[r, c] != 1:
            A[r] = _MUL256[_INV256[A[r, c]], A[r]]
        below = A[r + 1:, c] != 0
        if np.any(below):
            if q == 2:
                A[r + 1:][below] ^= A[r]
            else:
                A[r + 1:][below] ^= _MUL256[A[r + 1:, c][below][:, None], A[r][None, :]]
        r += 1
        if r == rows:
            break
    return A[:r], r


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
    """Repeated neighborhood steps from init_m; (m, objective,
    threshold_stop) with the stopping rules of the package's search."""
    m = [int(x) for x in init_m]
    cur = -np.inf
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
    return m, cur, threshold_stop


def optimize_hop_budget_loop(h_in, model, budget, q, M, m0):
    """The per-unit budget loop `recoding.optimize_hop` replaced.

    Grants one transmit count per iteration to the largest marginal gain
    (ties to the lower rank) until the budget is spent, and builds the
    hop transition from the expanded policy. The package's version must
    agree with it bit for bit.
    """
    h = np.asarray(h_in, dtype=float)
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    cap = min(m0, model.m_max)
    E1 = rankcalc.expected_rank_table(model, q, M)
    t = np.zeros(M + 1)
    ti = np.zeros(M + 1, dtype=int)
    remaining = float(budget)
    fundable = h > 0
    fundable[0] = False
    marg = np.full(M + 1, -np.inf)
    for r in range(1, M + 1):
        if fundable[r] and cap >= 1:
            marg[r] = E1[r, 1] - E1[r, 0]
    # zero marginals stay grantable so a monotone model exhausts the budget
    while remaining > BUDGET_TOL and np.any(marg >= -1e-12):
        r = int(np.argmax(marg))
        cost = h[r]
        if cost <= remaining:
            ti[r] += 1
            t[r] = ti[r]
            remaining -= cost
            marg[r] = (E1[r, ti[r] + 1] - E1[r, ti[r]]) if ti[r] < cap else -np.inf
        else:
            t[r] = ti[r] + remaining / cost
            remaining = 0.0
    policy = expand_almost_deterministic(t, m0)
    P = rankcalc.transition_matrix(policy, model, q, M)
    h_out = h @ P
    return HopResult(expected_rank=float(h_out @ np.arange(M + 1)),
                     targets=t,
                     m0=m0,
                     budget_used=float(budget - remaining),
                     h_out=h_out)


def greedy_order_masked(model, q, M, cap, fundable):
    """`recoding._greedy_order` as it was keyed by the fundable ranks: the
    greedy's grant order over the ranks r with fundable[r] only, cached on
    the loss model under its own key."""
    key = ("greedy_order_masked", q, M, cap, fundable.tobytes())
    if key in model._cache:
        return model._cache[key]
    E1 = rankcalc.expected_rank_table(model, q, M)
    ti = np.zeros(M + 1, dtype=int)
    marg = np.full(M + 1, -np.inf)
    for r in range(1, M + 1):
        if fundable[r] and cap >= 1:
            marg[r] = E1[r, 1] - E1[r, 0]
    order = []
    while np.any(marg >= -1e-12):
        r = int(np.argmax(marg))
        order.append(r)
        ti[r] += 1
        marg[r] = (E1[r, ti[r] + 1] - E1[r, ti[r]]) if ti[r] < cap else -np.inf
    model._cache[key] = np.array(order, dtype=np.intp)
    return model._cache[key]


def optimize_hop_scalar(h_in, model, budget, q, M, m0):
    """`recoding.optimize_hop` for one rank distribution, as it was before
    it took stacks: the cached grant order's costs accumulated in one 1-D
    `subtract.accumulate`, the paid counts by `bincount`, over the grant
    order of the ranks that h funds (`greedy_order_masked`)."""
    h = np.asarray(h_in, dtype=float)
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    cap = min(m0, model.m_max)
    fundable = h > 0
    fundable[0] = False
    order = greedy_order_masked(model, q, M, cap, fundable)
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
    h_out = h @ rankcalc.almost_deterministic_transition(t, model, q, M)
    return HopResult(expected_rank=float(h_out @ np.arange(M + 1)),
                     targets=t,
                     m0=m0,
                     budget_used=float(budget - remaining),
                     h_out=h_out)


def flow_two_step_grid_loop(scenario, flow, m_vec, alpha):
    """`solvers._flow_two_step` with one scalar hop chain per grid scale:
    the grid point kept is the first strict maximum of eta * alpha * rank,
    then the same golden section. Returns (eta, rank, hops)."""
    models = [scenario.loss_model(e) for e in flow.links]
    caps = scenario.flow_caps(flow)

    def realloc(eta):
        h, hops = rankcalc.source_distribution(scenario.M), []
        for (model, me, cap) in zip(models, m_vec, caps):
            hops.append(optimize_hop_scalar(h, model, me / eta, scenario.q,
                                            scenario.M, int(cap)))
            h = hops[-1].h_out
        return hops[-1].expected_rank, hops

    step = solvers.ETA_STEP
    grid = np.arange(solvers.ETA_START, solvers.ETA_STOP + step / 2, step)
    best_eta, best_val = 1.0, -np.inf
    for eta in grid:
        rank, _ = realloc(eta)
        val = eta * alpha * rank
        if val > best_val:
            best_eta, best_val = float(eta), val
    lo = max(solvers.ETA_START, best_eta - step)
    hi = min(solvers.ETA_STOP, best_eta + step)
    phi = (math.sqrt(5) - 1) / 2
    x1, x2 = hi - phi * (hi - lo), lo + phi * (hi - lo)
    f = lambda e: e * alpha * realloc(e)[0]
    f1, f2 = f(x1), f(x2)
    while hi - lo > solvers.ETA_TOL:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + phi * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - phi * (hi - lo)
            f1 = f(x1)
    eta_mid = (lo + hi) / 2
    rank_mid, hops = realloc(eta_mid)
    if eta_mid * alpha * rank_mid < best_val:
        eta_mid = best_eta
        rank_mid, hops = realloc(best_eta)
    return eta_mid, rank_mid, hops


def average_packets_by_rank(policy, h):
    """Expected transmitted packets: each rank's support summed, rank by
    rank, for every policy kind."""
    h = np.asarray(h, dtype=float)
    total = 0.0
    for r in range(len(h)):
        if h[r] == 0:
            continue
        total += h[r] * sum(m * p for m, p in policy.support(r))
    return total


def gf256_rank_stacked(A):
    """Ranks over GF(256) of a stack (n, rows, cols) of matrices: one
    forward elimination run on every matrix at once, column by column."""
    A = np.array(A, dtype=np.uint8)
    n, R, C = A.shape
    rank = np.zeros(n, dtype=np.intp)
    rows, every = np.arange(R), np.arange(n)
    for c in range(C):
        cand = (A[:, :, c] != 0) & (rows >= rank[:, None])
        has = cand.any(axis=1)
        idx = np.flatnonzero(has)
        p, r = cand[idx].argmax(axis=1), rank[idx]
        A[idx, r], A[idx, p] = A[idx, p], A[idx, r]
        A[idx, r] = _MUL256[_INV256[A[idx, r, c]][:, None], A[idx, r]]
        # clear column c below each pivot; matrices without one stay put,
        # and columns left of c are zero there already
        below = slice(rank.min() + 1, R)
        f = np.where((rows[below] > rank[:, None]) & has[:, None],
                     A[:, below, c], 0)
        pivot = A[every, np.minimum(rank, R - 1), c:]
        A[:, below, c:] ^= _MUL256[f[:, :, None], pivot[:, None, :]]
        rank += has
    return rank


def empirical_loss_model_reference(spec, m_max, samples, rng_seed):
    """The windowed q-table of `loss.empirical_loss_model`, counted with one
    int64 gather, subtraction and bincount per window length t."""
    rng = np.random.default_rng(rng_seed)
    tab = np.zeros((m_max + 1, m_max + 1))
    tab[0, 0] = 1.0
    Z = loss._ge_paths(spec.ge, samples, m_max, rng)
    ZZ = np.concatenate([Z, Z], axis=1)
    C = np.zeros((samples, 2 * m_max + 1), dtype=np.int64)
    np.cumsum(ZZ, axis=1, out=C[:, 1:])
    offs = np.arange(m_max)
    for t in range(1, m_max + 1):
        sums = C[:, offs + t] - C[:, offs]
        tab[t, :t + 1] = np.bincount(sums.ravel(), minlength=t + 1) / sums.size
    return tab


def recode_batch_global(basis, policy, rank, q, rng):
    """Recoded rows over the source packets: the policy's count of uniform
    random combinations of the sender's basis rows, multiplied out."""
    m = policy.sample_count(rank, rng)
    if m == 0 or basis.shape[0] == 0:
        return np.zeros((m, basis.shape[1]), dtype=np.uint8)
    coef = ffmat.random_matrix(m, basis.shape[0], rng, q=q)
    return ffmat.gf_matmul(coef, basis, q=q)


class ScalarChannel:
    """A link's loss process, advanced once per `transmit` call by scalar
    draws. A bursty link starts in a steady-state draw, receives from its
    state, then transitions."""

    def __init__(self, spec, rng):
        self.rng, self.ge = rng, spec.ge
        if self.ge is None:
            self.p_recv = 1.0 - spec.epsilon
        else:
            self.good = rng.random() < self.ge.steady_state()[0]

    def transmit(self):
        if self.ge is None:
            return self.rng.random() < self.p_recv
        p, good = self.ge, self.good
        received = self.rng.random() < (p.s_good if good else p.s_bad)
        if self.rng.random() < (p.p_gb if good else p.p_bg):
            self.good = not good
        return received


class SteppedBatchSource:
    """Batch clock stepped once per slot: add alpha, emit the whole part."""

    def __init__(self, alpha):
        self.alpha = alpha
        self.acc = 0.0

    def step(self):
        self.acc += self.alpha
        n = int(self.acc)
        self.acc -= n
        return n


def support_columns(policy):
    """Number of transmit-count columns of a recoding policy (max m + 1)."""
    if policy.kind == "nonadaptive":
        return policy.m + 1
    return policy.p.shape[1]


def chain_gradient(h0, path_matrices, hop_index, model, q, m_cols):
    """Gradient of the expected destination rank h0 . P_1 ... P_L . (0..M)
    with respect to hop `hop_index`'s policy.

    Entry (r, m) is the derivative with respect to p(m|r). The hop's
    transition matrix is linear in its policy, so the derivative of P at
    (i, j) w.r.t. p(m|r) is W[m, i, j] for i = r and 0 elsewhere; the
    chain collapses to left[r] * (W[m] @ right)[r].
    """
    h = np.asarray(h0, dtype=float)
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
    W = rankcalc.hop_tables(model, q, M)
    if m_cols > W.shape[0]:
        raise ValueError(f"m_cols {m_cols} exceeds model support {W.shape[0]}")
    T = W[:m_cols] @ right            # (m_cols, M+1)
    return left[:, None] * T.T        # (M+1, m_cols)


def expected_rank_gradient(h0, path_matrices, hop_index, policy, model, q):
    """d E[h_L] / d p(m|r) for the policy at `hop_index` (0-based)."""
    return chain_gradient(h0, path_matrices, hop_index, model, q,
                          support_columns(policy))


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


def matrix_rank(A, q=256):
    """Rank over GF(q) by `RowBasis`, without building `row_reduce`'s basis
    rows (tests call it 10^5 times in a loop); empty matrices have rank 0."""
    _check_field(q)
    A = np.asarray(A, dtype=np.uint8)
    basis = ffmat.RowBasis()
    for row in ffmat.int_rows(A) if A.size else ():
        if basis.absorb(row) and basis.rank == A.shape[1]:
            break
    return basis.rank


def cutset_bound(M, per_edge):
    """min over the batch size and per-edge expected deliveries m̄(1-eps)."""
    bound = float(M)
    for m_bar, eps in per_edge:
        if m_bar < 0 or not 0.0 <= eps < 1.0:
            raise ValueError(f"bad edge parameters ({m_bar}, {eps})")
        bound = min(bound, m_bar * (1.0 - eps))
    return bound


@dataclass
class MonotoneConcaveReport:
    monotone: bool
    concave: bool
    worst_monotone_violation: float
    worst_concavity_violation: float


def check_monotone_concave(model, M, q_field, tol=1e-6):
    """Test the per-hop expected-rank curves E_r(t) for every rank r <= M.

    Monotone: E_r(t+1) >= E_r(t) - tol. Concave: second differences
    <= tol. Reports the worst signed violations (positive = violated);
    empirical models are sampling-noisy, so the magnitudes matter more
    than the booleans.
    """
    E1 = rankcalc.expected_rank_table(model, q_field, M)
    worst_mono = 0.0
    worst_conc = 0.0
    for r in range(1, M + 1):
        d1 = np.diff(E1[r])
        worst_mono = max(worst_mono, float((-d1).max()))
        d2 = np.diff(d1)
        worst_conc = max(worst_conc, float(d2.max()))
    return MonotoneConcaveReport(
        monotone=worst_mono <= tol,
        concave=worst_conc <= tol,
        worst_monotone_violation=worst_mono,
        worst_concavity_violation=worst_conc,
    )


def empirical_rank_distribution(report, flow_id):
    """A simulated flow's delivered-rank histogram, normalized."""
    counts = report.rank_hist[flow_id]
    total = counts.sum()
    return counts / total if total > 0 else counts


def gf_mul(a, b, q=256):
    """Product of two field elements (ints or uint8 arrays)."""
    _check_field(q)
    if q == 2:
        return a & b
    return _MUL256[a, b]


def gf_inv(a, q=256):
    """Multiplicative inverse of a nonzero element."""
    _check_field(q)
    if np.any(np.asarray(a) == 0):
        raise ZeroDivisionError("zero has no inverse")
    return 1 if q == 2 else _INV256[a]


def expected_rank_after_hop(r, t, model, q, M=None):
    """Expected rank at the next node given rank r and t transmitted packets."""
    if t > model.m_max or t < 0:
        raise ValueError(f"t={t} outside model support [0, {model.m_max}]")
    if M is None:
        M = r
    if not 0 <= r <= M:
        raise ValueError(f"r={r} outside [0, {M}]")
    return float(rankcalc.expected_rank_table(model, q, M)[r, t])


def propagate(h0, path_matrices):
    """Push a rank distribution through a chain of hop transition matrices."""
    h = np.asarray(h0, dtype=float)
    M = len(h) - 1
    for P in path_matrices:
        if P.shape != (M + 1, M + 1):
            raise ValueError(f"transition matrix shape {P.shape} != {(M+1, M+1)}")
        h = h @ P
    return h, float(h @ np.arange(M + 1))


def schedule_is_feasible(schedule, network):
    """No two active links of `schedule` interfere."""
    for i, l in enumerate(network.links):
        if not schedule.active[i]:
            continue
        for other in network.interference[l.id]:
            if schedule.active[network.link_index(other)]:
                return False
    return True


def max_weight_schedule(network, weights):
    """Feasible schedule maximizing sum_e weight_e * c_e * s_e."""
    weights = np.asarray(weights, dtype=float)
    scheds, rates = schedule_rate_matrix(network)
    idx = max_weight_index(rates, weights)
    return scheds[idx], float(rates[idx] @ weights)


class DecompositionError(ValueError):
    def __init__(self, message, achievable_scale=None, binding_links=None):
        super().__init__(message)
        self.achievable_scale = achievable_scale
        self.binding_links = binding_links


def decompose_rate_vector(network, target):
    """Time shares over feasible schedules whose mix dominates `target`.

    Solves a feasibility LP (minimize total time, cover every link's
    target rate, total share <= 1). Raises DecompositionError with the
    best achievable uniform scale when the target is outside the region.
    """
    target = np.asarray(target, dtype=float)
    if np.any(target < 0):
        raise ValidationError("target rates must be nonnegative")
    scheds, rates = schedule_rate_matrix(network)
    S = len(scheds)
    if not np.any(target > 0):
        return []
    res = optimize.linprog(
        c=np.ones(S),
        A_ub=np.vstack([-rates.T, np.ones((1, S))]),
        b_ub=np.concatenate([-target, [1.0]]),
        bounds=[(0, None)] * S,
        method="highs",
    )
    if not res.success:
        # certificate: the largest sigma with sigma*target schedulable
        lp = optimize.linprog(
            c=np.concatenate([[-1.0], np.zeros(S)]),
            A_ub=np.block([[target[:, None], -rates.T],
                           [np.zeros((1, 1)), np.ones((1, S))]]),
            b_ub=np.concatenate([np.zeros(len(target)), [1.0]]),
            bounds=[(0, None)] * (S + 1),
            method="highs",
        )
        sigma = float(lp.x[0]) if lp.success else 0.0
        mix = rates.T @ lp.x[1:] if lp.success else np.zeros(len(target))
        binding = [network.links[i].id for i in range(len(target))
                   if target[i] > 0 and mix[i] <= target[i] * sigma + 1e-9]
        raise DecompositionError(
            f"target rate vector infeasible; at most {sigma:.6f} of it is "
            f"schedulable (binding links: {binding})",
            achievable_scale=sigma, binding_links=binding)
    out = [(scheds[i], float(res.x[i])) for i in range(S) if res.x[i] > 1e-12]
    return out


def trust_constr_allocation(A, R):
    """The trust-constr allocation the interior-point solver replaced.

    Dual: minimize sum_i -log(lam . a_i) + z over lam >= 0, z >= (R lam)_S.
    The primal direction 1/(lam . a_i) is then scaled to exact feasibility
    by an LP over schedule weights; the log objective is first-order flat
    in the direction at the optimum, so dual solver tolerance enters the
    utility only at second order.
    """
    E, k = A.shape
    S = R.shape[0]
    if np.any(A.sum(axis=0) <= 0):
        raise ValueError("every flow must place positive load on some link")

    def fun(x):
        d = A.T @ x[:E]
        if np.any(d <= 1e-300):
            return np.inf
        return float(-np.sum(np.log(d)) + x[E])

    def jac(x):
        d = A.T @ x[:E]
        g = np.zeros(E + 1)
        g[:E] = -A @ (1.0 / d)
        g[E] = 1.0
        return g

    def hess(x):
        d = A.T @ x[:E]
        H = np.zeros((E + 1, E + 1))
        H[:E, :E] = (A / d**2) @ A.T
        return H

    C = np.hstack([R, -np.ones((S, 1))])
    x0 = np.ones(E + 1)
    x0[E] = float(np.max(R @ x0[:E])) + 1.0
    res = optimize.minimize(
        fun, x0, jac=jac, hess=hess, method="trust-constr",
        constraints=[optimize.LinearConstraint(C, -np.inf, np.zeros(S))],
        bounds=optimize.Bounds(np.concatenate([np.zeros(E), [-np.inf]]),
                               np.full(E + 1, np.inf)),
        options={"gtol": 1e-12, "xtol": 1e-14, "maxiter": 5000})
    lam = np.maximum(res.x[:E], 0.0)
    rho = 1.0 / np.maximum(A.T @ lam, 1e-300)
    # scale the ray into the region: max t s.t. A(t rho) <= R^T w, sum w <= 1
    Aub = np.zeros((E + 1, 1 + S))
    Aub[:E, 0] = A @ rho
    Aub[:E, 1:] = -R.T
    Aub[E, 1:] = 1.0
    bub = np.zeros(E + 1)
    bub[E] = 1.0
    cvec = np.zeros(1 + S)
    cvec[0] = -1.0
    lp = optimize.linprog(cvec, A_ub=Aub, b_ub=bub,
                          bounds=[(0, None)] * (1 + S), method="highs")
    if not lp.success:
        raise RuntimeError(f"rate-ray LP failed: {lp.message}")
    t, w = float(lp.x[0]), lp.x[1:]
    alpha = t * rho
    return ConcaveAllocation(
        alpha=alpha, weights=w, duals=lam,
        u_total=float(np.sum(np.log(np.maximum(alpha, 1e-300)))),
        status={"dual_converged": bool(res.success), "dual_iters": int(res.nit)})


def interior_point_single(G, h, x0, derivs, retries=None):
    """The interior-point core on one problem, the loop that
    `solvers._interior_point` stacks; `derivs(x)` returns the gradient
    and Hessian of f, or None outside its domain. Appends to `retries`
    each iteration whose corrector fails and takes plain Newton."""
    E, n = G.shape[1], G.shape[0]
    x = np.concatenate([x0, h - G @ x0, np.ones(n)])  # x, slacks s, duals z
    K = np.block([[np.zeros((E, E)), G.T], [G, np.zeros((n, n))]])
    getrs, = linalg.lapack.get_lapack_funcs(("getrs",), (K,))

    def residuals(x, target=0.0):
        got, s, z = derivs(x[:E]), x[E:E + n], x[E + n:]
        if got is None:
            return None, np.full(E + 2 * n, np.inf)
        return got[1], np.concatenate([G.T @ z + got[0], G @ x[:E] + s - h,
                                       s * z - target])

    def to_boundary(dx):  # largest step in (0, 1] keeping s, z >= 0
        neg = dx[E:] < 0
        return float(np.min(-x[E:][neg] / dx[E:][neg], initial=1.0))

    for it in range(1, solvers.ALLOCATION_MAX_ITERS + 1):
        H, r = residuals(x)
        s, z = x[E:E + n], x[E + n:]
        if s @ z <= 1e-13 and np.max(np.abs(r[:E] * x[:E])) <= 1e-13:
            return x[:E], z, it
        K[:E, :E] = H
        K[E:, E:].flat[::n + 1] = -s / z
        lu, piv = linalg.lu_factor(K, check_finite=False)

        def direction(rc):  # LAPACK's solve on the factors, as lu_solve calls it
            y = getrs(lu, piv, np.concatenate([-r[:E], rc / z - r[E:E + n]]))[0]
            return np.concatenate([y[:E], -(rc + s * y[E:]) / z, y[E:]])

        dx = direction(s * z)
        a, ds, dz = to_boundary(dx), dx[E:E + n], dx[E + n:]
        # Mehrotra's centering: sigma * mu = mu_affine^3 / mu^2
        sigma_mu = ((s + a * ds) @ (z + a * dz)) ** 3 / (n * (s @ z) ** 2)
        merit = np.sum(residuals(x, sigma_mu)[1] ** 2)
        # if the corrector's ds * dz term spoils descent, take plain Newton
        for plain, dx in enumerate(map(direction, (s * z + ds * dz - sigma_mu,
                                                   s * z - sigma_mu))):
            if plain and retries is not None:
                retries.append(it)
            a = 0.99 * to_boundary(dx)
            while a > 1e-10 and np.sum(residuals(x + a * dx, sigma_mu)[1] ** 2) > (
                    1 - 1e-4 * a) * merit:
                a *= 0.5
            if a > 1e-10:
                break
        x = x + a * dx
    raise RuntimeError("allocation dual not solved in "
                       f"{solvers.ALLOCATION_MAX_ITERS} interior-point iterations")


def concave_allocation_single(A, R):
    """`solvers._exact_concave_allocation` of one load matrix A (E, k) on
    `interior_point_single`: the core's x and z, and the allocation."""
    (S, E), k = R.shape, A.shape[1]

    def derivs(lam):  # of the dual objective -sum_i log(a_i . lam)
        d = A.T @ lam
        return None if d.min() <= 0 else (-(A @ (1.0 / d)), (A / d**2) @ A.T)

    x, z, iters = interior_point_single(
        np.vstack([R, -np.eye(E)]), np.concatenate([np.ones(S), np.zeros(E)]),
        np.full(E, 0.5 / R.sum(axis=1).max()), derivs)
    lam = np.maximum(x, 0.0)
    d = A.T @ lam
    load = A @ (1.0 / d)
    w = z[:S] / z[:S].sum()
    while w.sum() > 1.0:  # rounding can leave the sum an ulp above 1
        w *= 1.0 - np.finfo(float).eps
    pos = load > 0
    alpha = float(np.min((R.T @ w)[pos] / load[pos])) / d
    u_total = float(np.sum(np.log(np.maximum(alpha, 1e-300))))
    top = float(np.max(R @ lam))
    gap = float(-np.sum(np.log(d)) - k * math.log(k) + k * math.log(top)) - u_total
    violation = max(float(np.max(A @ alpha - R.T @ w)), w.sum() - 1.0, -w.min())
    return x, z, ConcaveAllocation(
        alpha=alpha, weights=w, duals=k * lam / top, u_total=u_total,
        status={"gap": gap, "max_violation": float(violation),
                "iterations": iters})


def column_master_single(cols, R, retries=None):
    """`solvers._column_master` on `interior_point_single`."""
    (S, E), k = R.shape, len(cols)
    C = np.column_stack([c for cs in cols for c in cs])
    sizes = [len(cs) for cs in cols]
    owner, starts = np.repeat(np.arange(k), sizes), np.cumsum([0] + sizes[:-1])

    def derivs(x):
        t = x[E:]
        return None if t.min() <= 0 else (np.concatenate([np.zeros(E), -1.0 / t]),
                                          np.diag(np.r_[np.zeros(E), 1.0 / t**2]))

    lam0 = np.full(E, 0.5 / R.sum(axis=1).max())
    x, z, _ = interior_point_single(
        np.block([[R, np.zeros((S, k))], [-np.eye(E), np.zeros((E, k))],
                  [-C.T, np.eye(k)[owner]]]),
        np.r_[np.ones(S), np.zeros(E + len(owner))],
        np.r_[lam0, 0.5 * np.minimum.reduceat(lam0 @ C, starts)], derivs, retries)
    lam, w, beta = np.maximum(x[:E], 0.0), z[:S], z[S + E:]
    bound = float(-np.sum(np.log(np.minimum.reduceat(lam @ C, starts)))
                  - k * math.log(k) + k * math.log(np.max(R @ lam)))
    return lam, x[E:], np.split(beta, starts[1:]), w, bound
