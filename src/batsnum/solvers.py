"""Utility-maximization solvers over the schedule rate region.

Three problems on the same scenario: the nonadaptive solver (column
generation over per-hop transmit counts priced by a joint local search,
a short dual subgradient tail, then exact feasibility recovery), the
cut-set upper bound, and the two-step adaptive solver that reallocates
each flow's transmit budget rank by rank.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import linalg

from . import rankcalc, recoding
from .loss import empirical_loss_model, independent_loss_model
from .netmodel import Network, Schedule, max_weight_index, schedule_rate_matrix
from .recoding import RecodingPolicy

# loss models keyed by their full parameterization; estimation is costly
_GLOBAL_MODEL_CACHE: dict = {}


@dataclass(frozen=True)
class LossModelOptions:
    """How per-link batch-wise models are instantiated from loss specs."""

    m_max: int = 100          # support of empirically estimated models
    samples: int = 10000
    seed: int = 1


@dataclass(frozen=True)
class SolverConfig:
    dual_iters: int = 50      # NAP: subgradient steps after column generation
    stability_window: int = 500
    tail_window: int = 100    # unread; benchmark/selftest.py's scenario sets it


@dataclass
class Scenario:
    """Solver input: network, flows, code parameters, model options."""

    network: Network
    flows: list
    q: int = 256
    M: int = 16
    m0: int | None = None
    loss_options: LossModelOptions = field(default_factory=LossModelOptions)
    solver: SolverConfig = field(default_factory=SolverConfig)
    name: str = "scenario"
    _models: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)
    _searches: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        if self.m0 is None:
            self.m0 = 10 * self.M
        for f in self.flows:
            f.validate_against(self.network)
            if f.batch_size != self.M:
                raise ValueError(
                    f"flow {f.id} batch size {f.batch_size} != scenario M {self.M}")

    def loss_model(self, link_id):
        got = self._models.get(link_id)
        if got is not None:
            return got
        link = self.network.link(link_id)
        opts = self.loss_options
        if link.loss.kind == "independent":
            key = ("independent", link.loss.epsilon, self.m0)
        else:
            ge = link.loss.ge
            key = ("ge", ge.s_good, ge.s_bad, ge.p_gb, ge.p_bg,
                   opts.m_max, opts.samples, opts.seed)
        model = _GLOBAL_MODEL_CACHE.get(key)
        if model is None:
            if link.loss.kind == "independent":
                model = independent_loss_model(link.loss.epsilon, self.m0)
            else:
                model = empirical_loss_model(
                    link.loss, m_max=opts.m_max, samples=opts.samples,
                    rng_seed=opts.seed)
            _GLOBAL_MODEL_CACHE[key] = model
        self._models[link_id] = model
        return model

    def hop_tables(self, link_id):
        return rankcalc.hop_tables(self.loss_model(link_id), self.q, self.M)

    def m_cap(self, link_id):
        return min(self.m0, self.loss_model(link_id).m_max)

    def flow_caps(self, flow):
        return np.array([self.m_cap(e) for e in flow.links], dtype=int)

    def flow_search(self, flow):
        """The price-independent part of `flow`'s +-1 count search.

        Built on first use and kept per link tuple, so it lives as long as
        the scenario and is shared by every dual iteration of a solve.
        """
        ctx = self._searches.get(flow.links)
        if ctx is None:
            links = flow.links
            caps = self.flow_caps(flow)
            digits = np.array(list(itertools.product((-1, 0, 1),
                                                     repeat=len(links))))
            # start where the expected deliveries match the batch size
            init_m = [min(int(c), math.ceil(
                self.M / (1.0 - self.network.link(e).loss.average_loss_rate)))
                for c, e in zip(caps, links)]
            ctx = self._searches[links] = _FlowSearch(
                W_list=[self.hop_tables(e) for e in links], caps=caps,
                idx=np.array([self.network.link_index(e) for e in links]),
                init_m=init_m, pick=3 * np.arange(len(links)) + digits + 1)
        return ctx

    def eps_vector(self):
        return np.array([l.loss.average_loss_rate for l in self.network.links])


@dataclass
class Solution:
    mode: str                         # "fixed", "nap" or "two-step"
    flow_ids: list
    alpha: np.ndarray                 # batches per slot, per flow
    eta: np.ndarray                   # batch-rate scale from the adaptive step
    policies: list                    # per flow: list of RecodingPolicy per hop
    mbar: list                        # per flow: average packets per batch per hop
    expected_rank: np.ndarray
    utilities: np.ndarray
    u_total: float
    u_tilde: float
    kappa: float
    rate_vector: np.ndarray           # per link, scheduled packet rate
    schedule_weights: list            # [(Schedule, time share)]
    status: dict = field(default_factory=dict)

    def constraint_violation(self, scenario):
        """max_e (sum_i alpha_i mbar_e^i - s_e); feasible when <= ~1e-9."""
        load = _load_matrix(scenario, self.mbar) @ self.alpha
        return float(np.max(load - self.rate_vector))

    def to_json(self):
        doc = {
            "mode": self.mode,
            "flows": [
                {
                    "id": fid,
                    "alpha": float(self.alpha[i]),
                    "eta": float(self.eta[i]),
                    "expected_rank": float(self.expected_rank[i]),
                    "utility": float(self.utilities[i]),
                    "hops": [
                        {"mbar": float(self.mbar[i][l]),
                         "policy": self.policies[i][l].to_dict()}
                        for l in range(len(self.mbar[i]))
                    ],
                }
                for i, fid in enumerate(self.flow_ids)
            ],
            "u_total": self.u_total,
            "u_tilde": self.u_tilde,
            "kappa": self.kappa,
            "rate_vector": list(map(float, self.rate_vector)),
            "schedule_weights": [
                {"active": list(s.active), "weight": float(w)}
                for s, w in self.schedule_weights
            ],
            "status": self.status,
        }
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(doc):
        d = json.loads(doc)
        flows = d["flows"]
        return Solution(
            mode=d["mode"],
            flow_ids=[f["id"] for f in flows],
            alpha=np.array([f["alpha"] for f in flows]),
            eta=np.array([f["eta"] for f in flows]),
            policies=[[RecodingPolicy.from_dict(h["policy"]) for h in f["hops"]]
                      for f in flows],
            mbar=[[h["mbar"] for h in f["hops"]] for f in flows],
            expected_rank=np.array([f["expected_rank"] for f in flows]),
            utilities=np.array([f["utility"] for f in flows]),
            u_total=d["u_total"],
            u_tilde=d["u_tilde"],
            kappa=d["kappa"],
            rate_vector=np.array(d["rate_vector"]),
            schedule_weights=[(Schedule(active=tuple(s["active"])), s["weight"])
                              for s in d["schedule_weights"]],
            status=d["status"],
        )


def utility_ratio(u_total, u_tilde, k):
    """Geometric mean of per-flow throughput ratios against the bound."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return math.exp((u_total - u_tilde) / k)


# ---------------------------------------------------------------------------
# concave core: max sum_i log a_i  s.t.  A a <= R^T w, sum w <= 1, w >= 0.


@dataclass
class ConcaveAllocation:
    alpha: np.ndarray
    weights: np.ndarray
    duals: np.ndarray
    u_total: float
    status: dict                      # certificate: gap, max_violation, iterations


ALLOCATION_MAX_ITERS = 100
ALLOCATION_GAP_TOL = 1e-10
STEP_A = 0.5              # NAP dual tail: step t is STEP_A / (STEP_B + t)
STEP_B = 10.0
MULTIPLIER_TOL = 1e-5     # the tail stops once no multiplier moves this far
SEARCH_THRESHOLD = 1e-9   # the +-1 search stops on a smaller gain
SEARCH_MAX_ROUNDS = 1000
POLISH_ROUNDS = 40        # passes of the NAP's groupwise +-1 polish, at most
FAIRNESS_SPREAD = 0.05    # the NAP's fair pick: utility spread at most this,
FAIRNESS_SLACK = 0.02     # total within this of the best


def _interior_point(G, h, x0, derivs):
    """Mehrotra predictor-corrector on a stack of problems min f(x) s.t.
    G x <= h, one from each strictly feasible row of x0. `derivs(X, rows)`
    returns the gradients of the problems `rows` at the rows of X (NaN
    outside f's domain) and a function giving their Hessians. Returns the
    stacked x, multipliers of the rows of G and iterations.

    Newton steps solve the augmented KKT system [[H, G^T], [G, -S/Z]], not
    its normal equations, which lose definiteness when the optimum is a
    face with several rows active. f is not quadratic, so steps backtrack.
    A problem leaves the stack once converged, with the bits of a solve on
    its own: LAPACK per row, per-row BLAS dots, scalar centering powers.
    """
    (n, E), B, N = G.shape, len(x0), sum(G.shape)
    dots = lambda a, b: np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]
    X = np.concatenate([x0, h - np.matmul(G, x0[:, :, None])[:, :, 0],
                        np.ones((B, n))], axis=1)  # x, slacks s, duals z
    rows, out = np.arange(B), (np.empty((B, E)), np.empty((B, n)), np.zeros(B, int))
    K0 = np.block([[np.zeros((E, E)), G.T], [G, np.zeros((n, n))]])
    getrf, getrs = linalg.lapack.get_lapack_funcs(("getrf", "getrs"), (K0,))

    def residuals(X, rows, target):  # target: 0, or one column per row
        g, hess = derivs(X[:, :E], rows)
        s, z = X[:, E:N], X[:, N:]
        return hess, np.concatenate([np.matmul(z[:, None, :], G)[:, 0] + g,
                                     np.matmul(G, X[:, :E, None])[:, :, 0] + s - h,
                                     s * z - target], axis=1)

    def to_boundary(X, dX):  # largest steps in (0, 1] keeping s, z >= 0
        neg = dX[:, E:] < 0
        return np.where(neg, -X[:, E:] / np.where(neg, dX[:, E:], -1.0),
                        1.0).min(axis=1, initial=1.0)

    for it in range(1, ALLOCATION_MAX_ITERS + 1):
        hess, r = residuals(X, rows, 0.0)
        H, sz = hess(), dots(X[:, E:N], X[:, N:])
        done = (sz <= 1e-13) & (np.abs(r[:, :E] * X[:, :E]).max(axis=1) <= 1e-13)
        if done.any():
            for o, v in zip(out, (X[done, :E], X[done, N:], it)):
                o[rows[done]] = v
            if done.all():
                return out
            X, rows, H, r, sz = X[~done], rows[~done], H[~done], r[~done], sz[~done]
        s, z, i = X[:, E:N], X[:, N:], np.arange(len(rows))
        K = np.repeat(K0[None], len(rows), axis=0)
        K[:, :E, :E] = H
        K.reshape(len(K), -1)[:, E * (N + 1)::N + 1] = -s / z
        factors = [getrf(k)[:2] for k in K]  # lu_factor's call, unchecked

        def direction(i, rc):  # LAPACK's solve on the factors of rows i
            rhs = np.concatenate([-r[i, :E], rc / z[i] - r[i, E:N]], axis=1)
            y = np.array([getrs(*factors[j], b)[0] for j, b in zip(i, rhs)])
            return np.concatenate([y[:, :E], -(rc + s[i] * y[:, E:]) / z[i],
                                   y[:, E:]], axis=1)

        dx = direction(i, s * z)
        a, ds, dz = to_boundary(X, dx), dx[:, E:N], dx[:, N:]
        # Mehrotra's centering: sigma * mu = mu_affine^3 / mu^2
        sigma_mu = np.array([[ma ** 3 / (n * mu ** 2)] for ma, mu in zip(
            dots(s + a[:, None] * ds, z + a[:, None] * dz), sz)])
        merit = (np.concatenate([r[:, :N], s * z - sigma_mu], axis=1) ** 2).sum(axis=1)
        # where the corrector's ds * dz term spoils descent, take plain Newton
        for rc in (s * z + ds * dz - sigma_mu, s * z - sigma_mu):
            dx[i] = direction(i, rc[i])
            a[i] = 0.99 * to_boundary(X[i], dx[i])
            j = i[a[i] > 1e-10]
            while len(j):  # halve until the merit falls enough (never NaN)
                trial = residuals(X[j] + a[j, None] * dx[j], rows[j], sigma_mu[j])[1]
                j = j[~((trial ** 2).sum(axis=1) <= (1 - 1e-4 * a[j]) * merit[j])]
                a[j] *= 0.5
                j = j[a[j] > 1e-10]
            if not len(i := i[a[i] <= 1e-10]):
                break
        X = X + a[:, None] * dx
    raise RuntimeError("allocation dual not solved in "
                       f"{ALLOCATION_MAX_ITERS} interior-point iterations")


def _exact_concave_allocation(A, R):
    """Exact allocation of each load matrix in the stack A, one dual solve.

    Stationarity reads A (1/d) = R^T z_R - z_I with d = A^T lam, so the
    weights w = z_R / sum(z_R) (positive: the multipliers stay interior)
    carry the ray 1/d up to scale; it is shortened to fit them exactly.
    Any lam >= 0 bounds the optimum by UB = -sum_i log(a_i . lam)
    - k log k + k log max_s (R lam)_s; the status carries the gap UB - U.
    """
    (S, E), k = R.shape, A.shape[2]
    if np.any(A.sum(axis=1) <= 0):
        raise ValueError("every flow must place positive load on some link")

    def derivs(lam, rows):  # of the dual objectives -sum_i log(a_i . lam)
        At = A[rows]
        d = np.matmul(lam[:, None, :], At)[:, 0]
        d[d <= 0] = np.nan
        return -np.matmul(At, (1.0 / d)[:, :, None])[:, :, 0], lambda: np.matmul(
            At / (d**2)[:, None, :], At.transpose(0, 2, 1))

    lams, zs, iters = _interior_point(
        np.vstack([R, -np.eye(E)]), np.concatenate([np.ones(S), np.zeros(E)]),
        np.full((len(A), E), 0.5 / R.sum(axis=1).max()), derivs)
    out = []
    for a, lam, z, it in zip(A, lams, zs, iters):
        lam = np.maximum(lam, 0.0)
        d = a.T @ lam
        load = a @ (1.0 / d)
        w = z[:S] / z[:S].sum()
        while w.sum() > 1.0:  # rounding can leave the sum an ulp above 1
            w *= 1.0 - np.finfo(float).eps
        pos = load > 0
        alpha = float(np.min((R.T @ w)[pos] / load[pos])) / d
        u_total = float(np.sum(np.log(np.maximum(alpha, 1e-300))))
        top = float(np.max(R @ lam))
        gap = float(-np.sum(np.log(d)) - k * math.log(k) + k * math.log(top)) - u_total
        if not gap <= ALLOCATION_GAP_TOL:
            raise RuntimeError(f"allocation duality gap {gap:.3g} above "
                               f"{ALLOCATION_GAP_TOL:g}")
        violation = max(float(np.max(a @ alpha - R.T @ w)), w.sum() - 1.0, -w.min())
        out.append(ConcaveAllocation(
            alpha=alpha, weights=w, duals=k * lam / top, u_total=u_total,
            status={"gap": gap, "max_violation": float(violation),
                    "iterations": int(it)}))
    return out


def _column_master(cols, R):
    """min -sum_i log t_i s.t. R lam <= 1, lam >= 0, t_i <= lam . c for
    each column c of flow i. Returns lam, t, per flow the multipliers beta
    of its column rows, those of the schedule rows w (stationarity gives
    sum_ij beta_ij c_ij <= R^T w, so beta weights the columns) and the
    bound of `_exact_concave_allocation` on every mix of the columns."""
    (S, E), k = R.shape, len(cols)
    C = np.column_stack([c for cs in cols for c in cs])
    sizes = [len(cs) for cs in cols]
    owner, starts = np.repeat(np.arange(k), sizes), np.cumsum([0] + sizes[:-1])

    def derivs(x, rows):  # of the stack of one
        t = np.where(x[0, E:] > 0, x[0, E:], np.nan)
        return (np.concatenate([np.zeros(E), -1.0 / t])[None],
                lambda: np.diag(np.r_[np.zeros(E), 1.0 / t**2])[None])

    lam0 = np.full(E, 0.5 / R.sum(axis=1).max())
    (x,), (z,), _ = _interior_point(
        np.block([[R, np.zeros((S, k))], [-np.eye(E), np.zeros((E, k))],
                  [-C.T, np.eye(k)[owner]]]),
        np.r_[np.ones(S), np.zeros(E + len(owner))],
        np.r_[lam0, 0.5 * np.minimum.reduceat(lam0 @ C, starts)][None], derivs)
    lam, w, beta = np.maximum(x[:E], 0.0), z[:S], z[S + E:]
    bound = float(-np.sum(np.log(np.minimum.reduceat(lam @ C, starts)))
                  - k * math.log(k) + k * math.log(np.max(R @ lam)))
    return lam, x[E:], np.split(beta, starts[1:]), w, bound


# ---------------------------------------------------------------------------


def _policy_mbar_and_rank(scenario, flow, policies):
    """Per-hop average packets, the destination rank dist and its mean."""
    h = rankcalc.source_distribution(scenario.M)
    mbars = []
    for lid, pol in zip(flow.links, policies):
        mbars.append(recoding.average_packets(pol, h))
        h = h @ rankcalc.transition_matrix(pol, scenario.loss_model(lid),
                                           scenario.q, scenario.M)
    return mbars, h, float(h @ np.arange(scenario.M + 1))


def _load_matrix(scenario, mbar_per_flow):
    """(E, k) link loads: A[e, i] packets on link e per batch of flow i."""
    A = np.zeros((len(scenario.network.links), len(scenario.flows)))
    for i, flow in enumerate(scenario.flows):
        for e, mb in zip(flow.links, mbar_per_flow[i]):
            A[scenario.network.link_index(e), i] += mb
    return A


def solve_fixed_policy(scenario, policies):
    """Best batch rates and schedule for frozen recoding policies.

    With the policies fixed the per-flow expected ranks are constants, so
    the problem is the classic concave rate/schedule allocation, solved
    exactly and recovered to a feasible (alpha, s). No bound is solved, so
    u_tilde and kappa are NaN.
    """
    return _solve_fixed_policies(scenario, [policies])[0]


def _solve_fixed_policies(scenario, policy_sets):
    """`solve_fixed_policy` of each policy set, the allocations one stack."""
    passes = [[_policy_mbar_and_rank(scenario, flow, pols)
               for flow, pols in zip(scenario.flows, policies)]
              for policies in policy_sets]
    scheds, R = schedule_rate_matrix(scenario.network)
    allocs = _exact_concave_allocation(np.stack(
        [_load_matrix(scenario, [p[0] for p in ps]) for ps in passes]), R)
    out = []
    for policies, ps, alloc in zip(policy_sets, passes, allocs):
        mbar, ranks = [p[0] for p in ps], np.array([p[2] for p in ps])
        utilities = np.log(np.maximum(alloc.alpha * ranks, 1e-300))
        out.append(Solution(
            mode="fixed", flow_ids=[f.id for f in scenario.flows],
            alpha=alloc.alpha, eta=np.ones(len(scenario.flows)), policies=policies,
            mbar=mbar, expected_rank=ranks, utilities=utilities,
            u_total=float(utilities.sum()), u_tilde=math.nan, kappa=math.nan,
            rate_vector=R.T @ alloc.weights,
            schedule_weights=[(scheds[i], float(alloc.weights[i]))
                              for i in np.flatnonzero(alloc.weights > 1e-9)],
            status={"allocation": alloc.status,
                    "duals": [float(x) for x in alloc.duals]}))
    return out


@dataclass
class UpperBoundResult:
    u_tilde: float
    utilities: np.ndarray
    f: np.ndarray
    status: dict


def solve_up(scenario):
    """Cut-set upper-bound problem: per-flow delivery rates f_i.

    Same machinery as the fixed-policy solve with unit per-hop loads and
    link rates derated by the average loss.
    """
    A = _load_matrix(scenario, [[1.0] * len(f.links) for f in scenario.flows])
    R = schedule_rate_matrix(scenario.network)[1]
    alloc = _exact_concave_allocation(A[None], R * (1.0 - scenario.eps_vector()))[0]
    utilities = np.log(np.maximum(alloc.alpha, 1e-300))
    return UpperBoundResult(
        u_tilde=float(utilities.sum()), utilities=utilities, f=alloc.alpha,
        status={"allocation": alloc.status})


# ---------------------------------------------------------------------------
# per-flow joint local search (nonadaptive recoding numbers)


@dataclass
class _FlowSearch:
    """What a flow's +-1 search reuses at every price vector."""

    W_list: list             # per-hop tables W[m, i, j]
    caps: np.ndarray         # per-hop transmit-count caps
    idx: np.ndarray          # the hops' positions in the network's link order
    init_m: list             # default starting counts
    pick: np.ndarray         # (3^L, L) flat positions in the L x 3 option table
    # tuple(m) -> read-only (ranks, loads) of m's 3^L neighbours: expected
    # destination ranks and (3^L, L) per-hop counts in the narrowest
    # unsigned dtype holding the caps (float64 would cost 8x the memory)
    memo: dict = field(default_factory=dict)


_STEPS = np.array([-1, 0, 1])


@dataclass
class LocalSearchResult:
    alpha: float
    m: list
    objective: float


def _neighborhood_ranks(W_list, opts, M):
    """Expected destination ranks of the 3^L candidates built from `opts`.

    A forward stack, one stacked product per hop written straight in
    candidate order (numpy runs the same GEMM per table as three separate
    products); the order is that of itertools.product, first hop slowest.
    """
    X = np.zeros((1, M + 1))
    X[0, M] = 1.0
    for W, o in zip(W_list, opts):
        Y = np.empty((len(X), 3, M + 1))
        np.matmul(X, W[o], out=Y.swapaxes(0, 1))
        X = Y.reshape(-1, M + 1)
    vals = X @ np.arange(M + 1, dtype=float)
    vals.flags.writeable = False
    return vals


def _neighborhood_best(ctx, m, lam_path, M):
    """Best candidate in the +-1 joint neighborhood of m.

    Nothing but the prices changes between calls at the same m, so one
    memo record per distinct m holds the candidates' expected ranks and
    per-hop counts. Each call widens the counts to float64 (exact for
    integers) and pays one GEMV, the division and an argmax.
    """
    key = tuple(m)
    rec = ctx.memo.get(key)
    if rec is None:
        opts = np.minimum(np.maximum(np.array(m)[:, None] + _STEPS, 0),
                          ctx.caps[:, None])
        loads = opts.take(ctx.pick).astype(np.min_scalar_type(ctx.caps.max()))
        loads.flags.writeable = False
        rec = ctx.memo[key] = (_neighborhood_ranks(ctx.W_list, opts, M), loads)
    vals, loads = rec
    dens = loads.astype(float) @ lam_path
    if dens[0] > 0:  # least: counts and prices are >= 0, candidate 0 lowest
        obj = vals / dens
    elif dens.max() <= 0:
        obj = vals  # free links everywhere: climb the expected rank alone
    else:
        obj = np.where(dens > 0, vals / np.where(dens > 0, dens, 1.0), -np.inf)
    best = int(obj.argmax())
    mid = len(obj) // 2  # the all-zero move, i.e. m itself
    if obj[best] <= obj[mid] + 1e-15:
        return m, float(obj[mid])
    return loads[best].tolist(), float(obj[best])


def flow_subproblem_local_search(scenario, flow, multipliers, init_m=None):
    """Maximize E[h] / sum_e lam_e m_e over the joint +-1 neighborhoods.

    Starts from `init_m` (default: the per-link count whose expected
    deliveries equal the batch size) and repeats the exhaustive
    neighborhood step until it stalls or the improvement drops below
    SEARCH_THRESHOLD (the stopping rule for zero-price links). Returns the
    log-utility-optimal batch rate alpha = 1 / sum_e lam_e m_e for the
    final counts.
    """
    ctx = scenario.flow_search(flow)
    lam_path = np.asarray(multipliers, dtype=float)[ctx.idx]
    m = [int(x) for x in (ctx.init_m if init_m is None else init_m)]
    cur = -np.inf
    for _ in range(SEARCH_MAX_ROUNDS):
        m2, obj = _neighborhood_best(ctx, m, lam_path, scenario.M)
        if m2 == m:
            cur = max(cur, obj)
            break
        if obj - cur < SEARCH_THRESHOLD and np.isfinite(cur):
            break
        m, cur = m2, obj
    den = float(lam_path @ np.array(m))
    alpha = 1.0 / den if den > 0 else math.inf
    return LocalSearchResult(alpha=alpha, m=m, objective=cur)


# ---------------------------------------------------------------------------
# nonadaptive solver


def _shared_masks(searches, n_links):
    """Per flow, which of its hops also carry another flow."""
    count = np.bincount(np.concatenate([ctx.idx for ctx in searches]),
                        minlength=n_links)
    return [count[ctx.idx] >= 2 for ctx in searches]


def _groupwise_moves(key, caps, shared):
    """Candidate recoding vectors: +-1 on shared/private link groups."""
    deltas = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))

    def moved(i, ds, dp):
        mv = np.array(key[i]) + ds * shared[i] + dp * ~shared[i]
        return tuple(int(x) for x in np.clip(mv, 0, caps[i]))

    k = len(key)
    return ([tuple(moved(i, ds, dp) if j == i else key[j] for j in range(k))
             for i in range(k) for ds, dp in deltas]
            + [tuple(moved(i, ds, dp) for i in range(k))
               for ds, dp in deltas + ((1, 1), (-1, -1))])


def _symmetrized_seed(key, caps, shared):
    """Every shared hop at the mean shared count, every private hop at the
    mean private count, clipped to the caps."""
    sh_vals = [m for mv, sh in zip(key, shared) for m, s in zip(mv, sh) if s]
    pr_vals = [m for mv, sh in zip(key, shared) for m, s in zip(mv, sh) if not s]
    msh = int(round(np.mean(sh_vals))) if sh_vals else 0
    mpr = int(round(np.mean(pr_vals))) if pr_vals else 0
    return tuple(tuple(int(min(msh if s else mpr, c)) for s, c in zip(sh, cap))
                 for sh, cap in zip(shared, caps))


def _column_generation(scenario, R):
    """Rounds of the master and, per flow, +-1 searches at its prices from
    `init_m` and the heaviest column, until no flow's better result beats
    1 / t_i. Returns the columns' count vectors per flow, the last master,
    the rounds and each round's joint count vector."""
    def column(ctx, m):  # per-link counts of m over its expected rank
        h = rankcalc.source_distribution(scenario.M)
        for W, me in zip(ctx.W_list, m):
            h = h @ W[me]
        c = np.zeros(len(scenario.network.links))
        np.add.at(c, ctx.idx, m)
        return c / float(h @ np.arange(scenario.M + 1))

    searches = [scenario.flow_search(f) for f in scenario.flows]
    cols = [{tuple(ctx.init_m): column(ctx, ctx.init_m)} for ctx in searches]
    visited = {}
    for rounds in itertools.count(1):
        master = _column_master([list(cs.values()) for cs in cols], R)
        (lam, t, beta), joint, added = master[:3], [], False
        for i, (flow, ctx) in enumerate(zip(scenario.flows, searches)):
            res = max((flow_subproblem_local_search(scenario, flow, lam, init_m=m)
                       for m in (ctx.init_m, list(cols[i])[np.argmax(beta[i])])),
                      key=lambda r: r.objective)
            joint.append(tuple(res.m))
            if joint[-1] not in cols[i] and res.objective * t[i] > 1 + 1e-9:
                cols[i][joint[-1]] = column(ctx, res.m)
                added = True
        visited[tuple(joint)] = None
        if not added:
            return [list(cs) for cs in cols], master, rounds, visited


def solve_nap(scenario):
    """Nonadaptive solver: column generation, dual tail, recovery, polish.

    Column generation (priced by the +-1 search) solves the dual of the
    relaxation in which flows time-share count vectors; a short dual
    subgradient loop starts at its prices and heaviest columns. The joint
    count vectors either visits are recovered exactly in one stack, and a
    groupwise +-1 polish (one stack of new moves per pass) escapes dual-gap
    basins; the pick prefers a fair split among near-best candidates,
    polished among fair ones. Pool, order and bits are those of one-by-one.
    """
    cfg = scenario.solver
    up = solve_up(scenario)
    R = schedule_rate_matrix(scenario.network)[1]
    searches = [scenario.flow_search(f) for f in scenario.flows]
    caps = [ctx.caps for ctx in searches]
    shared = _shared_masks(searches, len(scenario.network.links))
    keys, (lam, _, beta, _, bound), rounds, visited = _column_generation(scenario, R)
    ms = [list(kk[np.argmax(b)]) for kk, b in zip(keys, beta)]
    lam = lam * len(ms) / np.max(R @ lam)
    stable = t = 0
    for t in range(1, cfg.dual_iters + 1):
        load = np.zeros(len(scenario.network.links))
        changed = False
        for i, flow in enumerate(scenario.flows):
            res = flow_subproblem_local_search(scenario, flow, lam, init_m=ms[i])
            changed = changed or (res.m != ms[i])
            ms[i] = res.m
            alpha_i = res.alpha if math.isfinite(res.alpha) else 0.0
            load[searches[i].idx] += alpha_i * np.array(ms[i])
        si = max_weight_index(R, lam)
        step = STEP_A / (STEP_B + t)
        prev, lam = lam, np.maximum(0.0, lam + step * (load - R[si]))
        drift = float(np.max(np.abs(lam - prev)))
        stable = 0 if changed else stable + 1
        visited[tuple(tuple(mv) for mv in ms)] = None
        if (stable >= cfg.stability_window and t >= 2 * cfg.stability_window
                or drift < MULTIPLIER_TOL):
            break

    pool = {}

    def evaluate(keys):  # those not pooled yet, in order, as one stack
        # a flow whose counts are all zero has no load and utility -inf
        new = [kk for kk in dict.fromkeys(keys)
               if kk not in pool and all(any(mv) for mv in kk)]
        if new:
            pool.update(zip(new, _solve_fixed_policies(scenario, [
                [[RecodingPolicy.nonadaptive(m) for m in mv] for mv in kk]
                for kk in new])))

    def total(kk):
        return pool[kk].u_total

    def spread(kk):
        return pool[kk].utilities.max() - pool[kk].utilities.min()

    def polish(best_key, max_spread):
        for _ in range(POLISH_ROUNDS):
            improved, moves = False, _groupwise_moves(best_key, caps, shared)
            evaluate(moves)
            for kk in moves:
                if kk != best_key and kk in pool and (
                        total(kk) > total(best_key) + 1e-10
                        and spread(kk) <= max_spread):
                    best_key = kk
                    improved = True
            if not improved:
                break
        return best_key

    evaluate(visited)
    evaluate([_symmetrized_seed(max(pool, key=total), caps, shared)])
    best_key = polish(max(pool, key=total), math.inf)
    # fairness-aware pick among near-best candidates
    best_total = total(best_key)
    fair = [kk for kk in pool
            if total(kk) >= best_total - FAIRNESS_SLACK
            and spread(kk) <= FAIRNESS_SPREAD]
    if fair and spread(best_key) > FAIRNESS_SPREAD:
        best_key = polish(max(fair, key=total), FAIRNESS_SPREAD)
    chosen = pool[best_key]
    return replace(
        chosen, mode="nap", u_tilde=up.u_tilde,
        kappa=utility_ratio(chosen.u_total, up.u_tilde, len(scenario.flows)),
        status={**chosen.status, "dual_iterations": t,
                "candidates_evaluated": len(pool), "rounds": rounds,
                "columns": [len(kk) for kk in keys], "bound": bound})


# ---------------------------------------------------------------------------
# two-step adaptive solver


# the rate scale eta: a grid from ETA_START to ETA_STOP in ETA_STEP, then a
# golden-section refinement around the best grid point down to ETA_TOL
ETA_START = 1.0
ETA_STOP = 3.0
ETA_STEP = 0.01
ETA_TOL = 1e-4
ETA_LOOKAHEAD = 3  # golden-section iterations evaluated ahead of a miss
PHI = (math.sqrt(5) - 1) / 2


def _golden_step(lo, hi, x1, x2, right):
    """One golden-section iteration on (lo, hi) with x1 < x2 inside: keep
    [x1, hi] if `right` (f(x1) < f(x2)), else [lo, x2]; (state, new point)."""
    if right:
        lo, x1, x2 = x1, x2, x1 + PHI * (hi - x1)
        return (lo, hi, x1, x2), x2
    hi, x1, x2 = x2, x2 - PHI * (x2 - lo), x1
    return (lo, hi, x1, x2), x1


def _flow_two_step(scenario, flow, m_vec, alpha):
    """Scan the batch-rate scale eta with per-hop budgets m_e/eta greedily
    realloc'd; (eta, rank, per-hop HopResults).

    The grid is one stack. The golden section reads f(eta) from a table
    that a miss fills with one stack: the missing points and every point
    `_golden_step` can reach in the next ETA_LOOKAHEAD iterations on
    either branch, final midpoints included. Stacked rows equal single
    ones, so this is the sequential loop's result to the bit.
    """
    models = [scenario.loss_model(e) for e in flow.links]
    caps = scenario.flow_caps(flow)
    source = rankcalc.source_distribution(scenario.M)

    def realloc(etas):  # one stacked hop chain; f(eta) per row
        h, hops = np.broadcast_to(source, etas.shape + source.shape), []
        for (model, me, cap) in zip(models, m_vec, caps):
            hops.append(recoding.optimize_hop(h, model, me / etas, scenario.q,
                                              scenario.M, int(cap)))
            h = hops[-1].h_out
        return etas * alpha * hops[-1].expected_rank, hops

    table = {}  # eta -> (f(eta), the stacked hops, its row)

    def lookup(state, etas):  # f(etas); a miss stacks the look-ahead
        if any(e not in table for e in etas):
            stack, level = list(etas), [state]
            for depth in range(ETA_LOOKAHEAD + 1):
                deeper = []
                for lo, hi, x1, x2 in level:
                    if hi - lo <= ETA_TOL:
                        stack.append((lo + hi) / 2)
                    elif depth < ETA_LOOKAHEAD:
                        for right in (False, True):
                            nxt, e = _golden_step(lo, hi, x1, x2, right)
                            stack.append(e)
                            deeper.append(nxt)
                level = deeper
            stack = [e for e in dict.fromkeys(stack) if e not in table]
            vals, hops = realloc(np.array(stack))
            table.update((e, (vals[i], hops, i)) for i, e in enumerate(stack))
        return [table[e][0] for e in etas]

    grid = np.arange(ETA_START, ETA_STOP + ETA_STEP / 2, ETA_STEP)
    vals, grid_hops = realloc(grid)
    best = int(np.argmax(vals))  # the first strict maximum along the grid
    best_eta, best_val = float(grid[best]), vals[best]
    lo = max(ETA_START, best_eta - ETA_STEP)
    hi = min(ETA_STOP, best_eta + ETA_STEP)
    state = (lo, hi, hi - PHI * (hi - lo), lo + PHI * (hi - lo))
    while state[1] - state[0] > ETA_TOL:
        f1, f2 = lookup(state, state[2:])
        state = _golden_step(*state, f1 < f2)[0]
    eta = (state[0] + state[1]) / 2
    lookup(state, [eta])
    val, hops, i = table[eta]
    if val < best_val:
        eta, hops, i = best_eta, grid_hops, best
    return eta, float(hops[-1].expected_rank[i]), [hop.row(i) for hop in hops]


def two_step_solve(scenario, nap_solution=None):
    """Adaptive solver: nonadaptive first, then per-flow rank reallocation.

    Step two never increases any link's average load (the per-hop budget
    is the nonadaptive count divided by the rate scale), so the step-one
    schedule stays feasible, and its allocation certificate is carried.
    """
    base = nap_solution if nap_solution is not None else solve_nap(scenario)
    etas, alphas, ranks, utils, policies, mbars = [], [], [], [], [], []
    for i, flow in enumerate(scenario.flows):
        m_vec = [int(round(mb)) for mb in base.mbar[i]]
        eta, rank, hops = _flow_two_step(scenario, flow, m_vec,
                                         float(base.alpha[i]))
        etas.append(eta)
        alphas.append(eta * float(base.alpha[i]))
        ranks.append(rank)
        utils.append(math.log(max(alphas[-1] * rank, 1e-300)))
        policies.append([hop.policy for hop in hops])
        mbars.append([hop.budget_used for hop in hops])
    u_total = float(np.sum(utils))
    return replace(
        base, mode="two-step", alpha=np.array(alphas), eta=np.array(etas),
        policies=policies, mbar=mbars, expected_rank=np.array(ranks),
        utilities=np.array(utils), u_total=u_total,
        kappa=utility_ratio(u_total, base.u_tilde, len(scenario.flows)),
        status={"base_alpha": [float(a) for a in base.alpha],
                "base_u_total": base.u_total,
                "base_kappa": base.kappa,
                "duals": base.status.get("duals", []),
                "allocation": base.status["allocation"]})
