"""Utility-maximization solvers over the schedule rate region.

Three problems on the same scenario: the nonadaptive solver (dual
subgradient with a joint local search over per-hop transmit counts,
then exact feasibility recovery), the cut-set upper bound, and the
two-step adaptive solver that reallocates each flow's transmit budget
rank by rank. A projected-gradient adaptive variant is included for
comparison.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import optimize

from . import rankcalc, recoding
from .loss import empirical_loss_model, independent_loss_model
from .netmodel import Network, Schedule, schedule_rate_matrix
from .recoding import RecodingPolicy

CONSTRAINT_TOL = 1e-9

# loss models keyed by their full parameterization; estimation is costly
_GLOBAL_MODEL_CACHE: dict = {}


@dataclass(frozen=True)
class LossModelOptions:
    """How per-link batch-wise models are instantiated from loss specs."""

    m_max: int = 100          # support of empirically estimated models
    samples: int = 10000
    seed: int = 1
    stationarize: bool = True  # exact-concavity estimator for bursty links


@dataclass(frozen=True)
class SolverConfig:
    dual_iters: int = 5000
    step_a: float = 0.5
    step_b: float = 10.0
    multiplier_tol: float = 1e-5
    stability_window: int = 500
    tail_window: int = 100
    polish_rounds: int = 40
    fairness_spread: float = 0.05
    fairness_slack: float = 0.02
    search_threshold: float = 1e-9
    eta_start: float = 1.0
    eta_stop: float = 3.0
    eta_step: float = 0.01
    eta_tol: float = 1e-4
    pd_steps: int = 200
    pd_step_a: float = 0.05
    pd_step_b: float = 10.0


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
    _models: dict = field(default_factory=dict, repr=False, compare=False)
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
                   opts.m_max, opts.samples, opts.seed, opts.stationarize)
        model = _GLOBAL_MODEL_CACHE.get(key)
        if model is None:
            if link.loss.kind == "independent":
                model = independent_loss_model(link.loss.epsilon, self.m0)
            else:
                model = empirical_loss_model(
                    link.loss, m_max=opts.m_max, samples=opts.samples,
                    rng_seed=opts.seed, stationarize=opts.stationarize)
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
class DualState:
    multipliers: np.ndarray
    iteration: int = 0
    step_a: float = 0.5
    step_b: float = 10.0

    def step_size(self):
        return self.step_a / (self.step_b + self.iteration)

    def update(self, violation):
        self.iteration += 1
        self.multipliers = np.maximum(
            0.0, self.multipliers + self.step_size() * violation)


@dataclass
class Solution:
    mode: str
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
        load = np.zeros(len(scenario.network.links))
        for i, flow in enumerate(scenario.flows):
            for e, mb in zip(flow.links, self.mbar[i]):
                load[scenario.network.link_index(e)] += self.alpha[i] * mb
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
                         "policy": json.loads(self.policies[i][l].to_json())}
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
            policies=[[RecodingPolicy.from_json(json.dumps(h["policy"]))
                       for h in f["hops"]] for f in flows],
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
    status: dict


def _exact_concave_allocation(A, R):
    """Exact allocation via the smooth dual epigraph plus an LP ray search.

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


# ---------------------------------------------------------------------------


def _policy_mbar_and_rank(scenario, flow, policies):
    """Forward pass: per-hop average packets and the destination rank dist."""
    h = rankcalc.RankDistribution.source(scenario.M).h
    mbars = []
    for lid, pol in zip(flow.links, policies):
        mbars.append(recoding.average_packets(pol, h))
        P = rankcalc.transition_matrix(pol, scenario.loss_model(lid),
                                       scenario.q, scenario.M)
        h = h @ P
    return mbars, h, float(h @ np.arange(scenario.M + 1))


def _load_matrix(scenario, mbar_per_flow):
    E = len(scenario.network.links)
    k = len(scenario.flows)
    A = np.zeros((E, k))
    for i, flow in enumerate(scenario.flows):
        for e, mb in zip(flow.links, mbar_per_flow[i]):
            A[scenario.network.link_index(e), i] += mb
    return A


@dataclass
class FixedPolicyResult:
    alpha: np.ndarray
    rate_vector: np.ndarray
    utilities: np.ndarray
    weights: list
    duals: np.ndarray
    expected_rank: np.ndarray
    mbar: list
    status: dict


def solve_fixed_policy(scenario, policies):
    """Best batch rates and schedule for frozen recoding policies.

    With the policies fixed the per-flow expected ranks are constants, so
    the problem is the classic concave rate/schedule allocation, solved
    exactly and recovered to a feasible (alpha, s).
    """
    mbar, ranks = [], []
    for flow, pols in zip(scenario.flows, policies):
        mb, _, er = _policy_mbar_and_rank(scenario, flow, pols)
        mbar.append(mb)
        ranks.append(er)
    A = _load_matrix(scenario, mbar)
    scheds, R = schedule_rate_matrix(scenario.network)
    alloc = _exact_concave_allocation(A, R)
    ranks = np.array(ranks)
    utilities = np.log(np.maximum(alloc.alpha * ranks, 1e-300))
    weights = [(scheds[i], float(alloc.weights[i]))
               for i in np.flatnonzero(alloc.weights > 1e-9)]
    return FixedPolicyResult(
        alpha=alloc.alpha, rate_vector=R.T @ alloc.weights,
        utilities=utilities, weights=weights, duals=alloc.duals,
        expected_rank=ranks, mbar=mbar, status=alloc.status)


@dataclass
class UpperBoundResult:
    u_tilde: float
    utilities: np.ndarray
    f: np.ndarray
    duals: np.ndarray
    rate_vector: np.ndarray
    weights: list
    status: dict


def solve_up(scenario):
    """Cut-set upper-bound problem: per-flow delivery rates f_i.

    Same machinery as the fixed-policy solve with unit per-hop loads and
    link rates derated by the average loss.
    """
    E = len(scenario.network.links)
    k = len(scenario.flows)
    A = np.zeros((E, k))
    for i, flow in enumerate(scenario.flows):
        for e in flow.links:
            A[scenario.network.link_index(e), i] = 1.0
    scheds, R = schedule_rate_matrix(scenario.network)
    R_eff = R * (1.0 - scenario.eps_vector())
    alloc = _exact_concave_allocation(A, R_eff)
    utilities = np.log(np.maximum(alloc.alpha, 1e-300))
    weights = [(scheds[i], float(alloc.weights[i]))
               for i in np.flatnonzero(alloc.weights > 1e-9)]
    return UpperBoundResult(
        u_tilde=float(utilities.sum()), utilities=utilities, f=alloc.alpha,
        duals=alloc.duals, rate_vector=R_eff.T @ alloc.weights,
        weights=weights, status=alloc.status)


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
    # tuple(m) -> read-only expected destination ranks of m's 3^L candidates
    ranks: dict = field(default_factory=dict)


_STEPS = np.array([-1, 0, 1])


@dataclass
class LocalSearchResult:
    alpha: float
    m: list
    objective: float
    history: list
    threshold_stop: bool


def _neighborhood_ranks(W_list, opts, M):
    """Expected destination ranks of the 3^L candidates built from `opts`.

    A forward stack of batched matrix products (3 GEMMs per hop); the
    candidate order is that of itertools.product, first hop slowest.
    """
    X = np.zeros((1, M + 1))
    X[0, M] = 1.0
    for W, (lo, mid, hi) in zip(W_list, opts):
        X = np.stack([X @ W[lo], X @ W[mid], X @ W[hi]],
                     axis=1).reshape(-1, M + 1)
    vals = X @ np.arange(M + 1, dtype=float)
    vals.flags.writeable = False
    return vals


def _neighborhood_best(ctx, m, lam_path, M):
    """Best candidate in the +-1 joint neighborhood of m.

    The expected ranks depend on m alone, so they are computed once per
    distinct m and memoized on the flow's search context; only the
    price-weighted denominators are formed per call.
    """
    opts = np.minimum(np.maximum(np.array(m)[:, None] + _STEPS, 0),
                      ctx.caps[:, None])
    key = tuple(m)
    vals = ctx.ranks.get(key)
    if vals is None:
        vals = ctx.ranks[key] = _neighborhood_ranks(ctx.W_list, opts, M)
    dens = opts.astype(float).take(ctx.pick) @ lam_path
    if dens.min() > 0:
        obj = vals / dens
    elif dens.max() <= 0:
        obj = vals  # free links everywhere: climb the expected rank alone
    else:
        obj = np.where(dens > 0, vals / np.where(dens > 0, dens, 1.0), -np.inf)
    best = int(np.argmax(obj))
    mid = len(obj) // 2  # the all-zero move, i.e. m itself
    if obj[best] <= obj[mid] + 1e-15:
        return m, float(obj[mid])
    return opts.take(ctx.pick[best]).tolist(), float(obj[best])


def flow_subproblem_local_search(scenario, flow, multipliers, init_m=None,
                                 threshold=None, max_rounds=1000):
    """Maximize E[h] / sum_e lam_e m_e over the joint +-1 neighborhoods.

    Starts from `init_m` (default: the per-link count whose expected
    deliveries equal the batch size) and repeats the exhaustive
    neighborhood step until it stalls or the improvement drops below the
    threshold (the stopping rule for zero-price links, reported via
    threshold_stop). Returns the log-utility-optimal batch rate
    alpha = 1 / sum_e lam_e m_e for the final counts.
    """
    cfg = scenario.solver
    if threshold is None:
        threshold = cfg.search_threshold
    ctx = scenario.flow_search(flow)
    lam_path = np.asarray(multipliers, dtype=float)[ctx.idx]
    m = [int(x) for x in (ctx.init_m if init_m is None else init_m)]
    cur = -np.inf
    history = []
    threshold_stop = False
    for _ in range(max_rounds):
        m2, obj = _neighborhood_best(ctx, m, lam_path, scenario.M)
        if m2 == m:
            cur = max(cur, obj)
            break
        if obj - cur < threshold and np.isfinite(cur):
            threshold_stop = True
            break
        m, cur = m2, obj
        history.append((tuple(m), cur))
    den = float(lam_path @ np.array(m))
    alpha = 1.0 / den if den > 0 else math.inf
    return LocalSearchResult(alpha=alpha, m=m, objective=cur,
                             history=history, threshold_stop=threshold_stop)


# ---------------------------------------------------------------------------
# nonadaptive solver


def _recover_candidate(scenario, key, R):
    policies = [[RecodingPolicy.nonadaptive(mm) for mm in key[i]]
                for i in range(len(scenario.flows))]
    mbar, ranks = [], []
    for flow, pols in zip(scenario.flows, policies):
        mb, _, er = _policy_mbar_and_rank(scenario, flow, pols)
        mbar.append(mb)
        ranks.append(er)
    A = _load_matrix(scenario, mbar)
    alloc = _exact_concave_allocation(A, R)
    ranks = np.array(ranks)
    utilities = np.log(np.maximum(alloc.alpha * ranks, 1e-300))
    return {"key": key, "alloc": alloc, "ranks": ranks, "utilities": utilities,
            "mbar": mbar, "policies": policies}


def _groupwise_moves(scenario, key, caps):
    """Candidate recoding vectors: +-1 on shared/private link groups."""
    count = np.zeros(len(scenario.network.links), dtype=int)
    for flow in scenario.flows:
        for e in flow.links:
            count[scenario.network.link_index(e)] += 1
    shared = [np.array([count[scenario.network.link_index(e)] >= 2
                        for e in flow.links])
              for flow in scenario.flows]
    k = len(scenario.flows)
    deltas = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))
    out = []
    for i in range(k):
        for ds, dp in deltas:
            mv = np.clip(np.array(key[i]) + ds * shared[i] + dp * ~shared[i],
                         0, caps[i])
            out.append(tuple(tuple(int(x) for x in mv) if j == i else key[j]
                             for j in range(k)))
    for ds, dp in deltas + ((1, 1), (-1, -1)):
        kk = []
        for i in range(k):
            mv = np.clip(np.array(key[i]) + ds * shared[i] + dp * ~shared[i],
                         0, caps[i])
            kk.append(tuple(int(x) for x in mv))
        out.append(tuple(kk))
    return out


def _symmetrized_seed(scenario, key, caps):
    count = np.zeros(len(scenario.network.links), dtype=int)
    for flow in scenario.flows:
        for e in flow.links:
            count[scenario.network.link_index(e)] += 1
    sh_vals, pr_vals = [], []
    for i, flow in enumerate(scenario.flows):
        for j, e in enumerate(flow.links):
            (sh_vals if count[scenario.network.link_index(e)] >= 2
             else pr_vals).append(key[i][j])
    msh = int(round(np.mean(sh_vals))) if sh_vals else 0
    mpr = int(round(np.mean(pr_vals))) if pr_vals else 0
    out = []
    for i, flow in enumerate(scenario.flows):
        mv = [msh if count[scenario.network.link_index(e)] >= 2 else mpr
              for e in flow.links]
        out.append(tuple(int(min(v, c)) for v, c in zip(mv, caps[i])))
    return tuple(out)


def solve_nap(scenario, config=None):
    """Nonadaptive solver: dual loop, feasibility recovery, primal polish.

    The dual loop alternates per-flow local searches at the current link
    prices, a max-weight schedule, and a projected multiplier step
    (prices warm-started from the upper-bound duals). Distinct tail
    iterates are recovered exactly with frozen counts; a groupwise +-1
    polish on the recovered utility escapes dual-gap basins, and the
    final pick prefers a fair utility split among near-best candidates.
    """
    cfg = config or scenario.solver
    k = len(scenario.flows)
    up = solve_up(scenario)
    eps = scenario.eps_vector()
    lam = up.duals * (1.0 - eps)
    if not np.any(lam > 0):
        lam = 1.0 / scenario.network.capacities
    scheds, R = schedule_rate_matrix(scenario.network)
    searches = [scenario.flow_search(f) for f in scenario.flows]
    caps = [ctx.caps for ctx in searches]
    ms = [list(ctx.init_m) for ctx in searches]
    state = DualState(multipliers=lam.copy(), step_a=cfg.step_a, step_b=cfg.step_b)
    tail = []
    stable = 0
    for t in range(1, cfg.dual_iters + 1):
        load = np.zeros(len(scenario.network.links))
        changed = False
        for i, flow in enumerate(scenario.flows):
            res = flow_subproblem_local_search(
                scenario, flow, state.multipliers, init_m=ms[i],
                threshold=cfg.search_threshold)
            changed = changed or (res.m != ms[i])
            ms[i] = res.m
            alpha_i = res.alpha if math.isfinite(res.alpha) else 0.0
            load[searches[i].idx] += alpha_i * np.array(ms[i])
        vals = R @ state.multipliers
        si = int(np.flatnonzero(vals >= vals.max() - 1e-12)[0])
        prev = state.multipliers.copy()
        state.update(load - R[si])
        drift = float(np.max(np.abs(state.multipliers - prev)))
        stable = 0 if changed else stable + 1
        if t > cfg.dual_iters - cfg.tail_window:
            kk = tuple(tuple(mv) for mv in ms)
            if kk not in tail:
                tail.append(kk)
        if stable >= cfg.stability_window and t >= 2 * cfg.stability_window:
            tail.append(tuple(tuple(mv) for mv in ms))
            break
        if drift < cfg.multiplier_tol:
            tail.append(tuple(tuple(mv) for mv in ms))
            break

    pool = {}

    def evaluate(kk):
        # a flow whose counts are all zero has no load and utility -inf
        if kk not in pool and all(any(mv) for mv in kk):
            pool[kk] = _recover_candidate(scenario, kk, R)
        return pool.get(kk)

    for kk in dict.fromkeys(tail):
        evaluate(kk)
    best_key = max(pool, key=lambda kk: float(pool[kk]["utilities"].sum()))
    seed = _symmetrized_seed(scenario, best_key, caps)
    evaluate(seed)
    best_key = max(pool, key=lambda kk: float(pool[kk]["utilities"].sum()))
    for _ in range(cfg.polish_rounds):
        improved = False
        for kk in _groupwise_moves(scenario, best_key, caps):
            if kk == best_key:
                continue
            r = evaluate(kk)
            if r is not None and (r["utilities"].sum()
                                  > pool[best_key]["utilities"].sum() + 1e-10):
                best_key = kk
                improved = True
        if not improved:
            break
    # fairness-aware pick among near-best candidates
    best_total = float(pool[best_key]["utilities"].sum())
    fair = [kk for kk, r in pool.items()
            if r["utilities"].sum() >= best_total - cfg.fairness_slack
            and (r["utilities"].max() - r["utilities"].min()
                 <= cfg.fairness_spread)]
    if fair and (pool[best_key]["utilities"].max()
                 - pool[best_key]["utilities"].min() > cfg.fairness_spread):
        best_key = max(fair, key=lambda kk: float(pool[kk]["utilities"].sum()))
    chosen = pool[best_key]
    alloc = chosen["alloc"]
    weights = [(scheds[i], float(alloc.weights[i]))
               for i in np.flatnonzero(alloc.weights > 1e-9)]
    u_total = float(chosen["utilities"].sum())
    return Solution(
        mode="nap",
        flow_ids=[f.id for f in scenario.flows],
        alpha=alloc.alpha,
        eta=np.ones(k),
        policies=chosen["policies"],
        mbar=chosen["mbar"],
        expected_rank=chosen["ranks"],
        utilities=chosen["utilities"],
        u_total=u_total,
        u_tilde=up.u_tilde,
        kappa=utility_ratio(u_total, up.u_tilde, k),
        rate_vector=R.T @ alloc.weights,
        schedule_weights=weights,
        status={"dual_iterations": state.iteration,
                "candidates_evaluated": len(pool),
                "duals": [float(x) for x in alloc.duals]},
    )


# ---------------------------------------------------------------------------
# single-flow special cases


def solve_single_flow_no_collision(scenario, flow, c):
    """Equal per-link rate c, no interference: equal counts, ratio sweep.

    Maximizes c E[h] / m over integer m (ties to the smaller m); the
    batch rate is c / m*.
    """
    caps = scenario.flow_caps(flow)
    W_list = [scenario.hop_tables(e) for e in flow.links]
    arange = np.arange(scenario.M + 1, dtype=float)
    best_m, best_val = None, -np.inf
    for m in range(1, int(caps.min()) + 1):
        h = np.zeros(scenario.M + 1)
        h[scenario.M] = 1.0
        for W in W_list:
            h = h @ W[m]
        val = c * float(h @ arange) / m
        if val > best_val + 1e-12:
            best_m, best_val = m, val
    return c / best_m, best_m, best_val


def solve_single_flow_all_collision(scenario, flow, c):
    """One link at a time: maximize c E[h] / sum_e m_e via joint local search."""
    lam = np.zeros(len(scenario.network.links))
    for e in flow.links:
        lam[scenario.network.link_index(e)] = 1.0
    res = flow_subproblem_local_search(scenario, flow, lam)
    total = sum(res.m)
    return c / total, res.m, c * res.objective


# ---------------------------------------------------------------------------
# two-step adaptive solver


def _flow_two_step(scenario, flow, m_vec, alpha, cfg):
    """Scan the batch-rate scale eta; per-hop budget m_e/eta greedily realloc'd."""
    models = [scenario.loss_model(e) for e in flow.links]
    caps = scenario.flow_caps(flow)
    arange = np.arange(scenario.M + 1, dtype=float)

    def realloc(eta):
        h = np.zeros(scenario.M + 1)
        h[scenario.M] = 1.0
        pols, mbars = [], []
        for (model, me, cap) in zip(models, m_vec, caps):
            hop = recoding.optimize_hop(h, model, me / eta, scenario.q,
                                        scenario.M, int(cap))
            pols.append(hop.policy)
            mbars.append(hop.budget_used)
            h = hop.h_out
        return float(h @ arange), pols, mbars

    grid = np.arange(cfg.eta_start, cfg.eta_stop + cfg.eta_step / 2, cfg.eta_step)
    best_eta, best_val = 1.0, -np.inf
    for eta in grid:
        rank, _, _ = realloc(eta)
        val = eta * alpha * rank
        if val > best_val:
            best_eta, best_val = float(eta), val
    lo = max(cfg.eta_start, best_eta - cfg.eta_step)
    hi = min(cfg.eta_stop, best_eta + cfg.eta_step)
    phi = (math.sqrt(5) - 1) / 2
    x1, x2 = hi - phi * (hi - lo), lo + phi * (hi - lo)
    f = lambda e: e * alpha * realloc(e)[0]
    f1, f2 = f(x1), f(x2)
    while hi - lo > cfg.eta_tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + phi * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - phi * (hi - lo)
            f1 = f(x1)
    eta_mid = (lo + hi) / 2
    rank_mid, pols_mid, mbar_mid = realloc(eta_mid)
    if eta_mid * alpha * rank_mid < best_val:
        eta_mid = best_eta
        rank_mid, pols_mid, mbar_mid = realloc(best_eta)
    return eta_mid, rank_mid, pols_mid, mbar_mid


def two_step_solve(scenario, config=None, nap_solution=None):
    """Adaptive solver: nonadaptive first, then per-flow rank reallocation.

    Step two never increases any link's average load (the per-hop budget
    is the nonadaptive count divided by the rate scale), so the step-one
    schedule stays feasible.
    """
    cfg = config or scenario.solver
    base = nap_solution if nap_solution is not None else solve_nap(scenario, cfg)
    k = len(scenario.flows)
    etas, alphas, ranks, utils, policies, mbars = [], [], [], [], [], []
    for i, flow in enumerate(scenario.flows):
        m_vec = [int(round(mb)) for mb in base.mbar[i]]
        eta, rank, pols, mbar = _flow_two_step(scenario, flow, m_vec,
                                               float(base.alpha[i]), cfg)
        etas.append(eta)
        alphas.append(eta * float(base.alpha[i]))
        ranks.append(rank)
        utils.append(math.log(max(alphas[-1] * rank, 1e-300)))
        policies.append(pols)
        mbars.append(mbar)
    u_total = float(np.sum(utils))
    return Solution(
        mode="two-step",
        flow_ids=[f.id for f in scenario.flows],
        alpha=np.array(alphas),
        eta=np.array(etas),
        policies=policies,
        mbar=mbars,
        expected_rank=np.array(ranks),
        utilities=np.array(utils),
        u_total=u_total,
        u_tilde=base.u_tilde,
        kappa=utility_ratio(u_total, base.u_tilde, k),
        rate_vector=base.rate_vector,
        schedule_weights=base.schedule_weights,
        status={"base_alpha": [float(a) for a in base.alpha],
                "base_u_total": base.u_total,
                "base_kappa": base.kappa,
                "duals": base.status.get("duals", [])},
    )


# ---------------------------------------------------------------------------
# projected-gradient adaptive solver


def _ratio_gradients(scenario, flow, policies, lam):
    """Per-hop gradients of E[h] / sum_e lam_e mbar_e w.r.t. each policy.

    The denominator depends on upstream policies through the rank
    distributions, so the quotient rule needs chain terms for every
    downstream hop's average count, not only the direct m * h(r) part.
    """
    M, q = scenario.M, scenario.q
    L = len(flow.links)
    models = [scenario.loss_model(e) for e in flow.links]
    mats = [rankcalc.transition_matrix(pol, models[l], q, M)
            for l, pol in enumerate(policies)]
    h0 = rankcalc.RankDistribution.source(M).h
    hs = [h0]
    for P in mats:
        hs.append(hs[-1] @ P)
    lam_path = np.array([lam[scenario.network.link_index(e)]
                         for e in flow.links])
    mbar = [recoding.average_packets(pol, hs[l])
            for l, pol in enumerate(policies)]
    E_val = float(hs[-1] @ np.arange(M + 1))
    D_val = float(lam_path @ np.array(mbar))
    w_vecs = [np.array([sum(m * p for m, p in pol.support(r))
                        for r in range(M + 1)]) for pol in policies]
    grads = []
    for l, pol in enumerate(policies):
        cols = pol.support_columns()
        gE = rankcalc.chain_gradient(h0, mats, l, models[l], q, cols)
        gD = lam_path[l] * recoding.average_packets_gradient(pol, hs[l])[:, :cols]
        for j in range(l + 1, L):
            if lam_path[j] == 0:
                continue
            gD = gD + lam_path[j] * rankcalc.chain_gradient(
                h0, mats[:j], l, models[l], q, cols, terminal=w_vecs[j])
        grads.append((gE * D_val - E_val * gD) / D_val**2)
    return grads, mbar, E_val, D_val


def primal_dual_adaptive(scenario, init_solution=None, config=None):
    """Projected-gradient ascent on the recoding matrices.

    Initialized from the two-step solution; each iteration lifts every
    policy along the priced-ratio gradient, projects back onto the
    stochastic matrices (rank-0 row pinned), then updates rates,
    schedule, and prices. A final fixed-policy solve restores exact
    feasibility; if the result is worse than the initialization, the
    initialization is returned (status records the fallback).
    """
    cfg = config or scenario.solver
    base = init_solution if init_solution is not None else two_step_solve(scenario, cfg)
    k = len(scenario.flows)
    policies = []
    for i, flow in enumerate(scenario.flows):
        pols = []
        for l, pol in enumerate(base.policies[i]):
            cap = scenario.m_cap(flow.links[l])
            if pol.kind == "nonadaptive":
                t = np.full(scenario.M + 1, min(pol.m, cap), dtype=float)
                t[0] = 0.0
                pol = recoding.expand_almost_deterministic(t, cap)
            pols.append(pol)
        policies.append(pols)
    lam = np.array(base.status.get("duals",
                                   1.0 / scenario.network.capacities),
                   dtype=float)
    if lam.shape != (len(scenario.network.links),):
        lam = 1.0 / scenario.network.capacities
    scheds, R = schedule_rate_matrix(scenario.network)
    state = DualState(multipliers=lam, step_a=cfg.step_a, step_b=cfg.step_b)
    for t in range(1, cfg.pd_steps + 1):
        beta = cfg.pd_step_a / (cfg.pd_step_b + t)
        load = np.zeros(len(scenario.network.links))
        for i, flow in enumerate(scenario.flows):
            grads, mbar, E_val, D_val = _ratio_gradients(
                scenario, flow, policies[i], state.multipliers)
            new_pols = []
            for l, pol in enumerate(policies[i]):
                lifted = pol.p + beta * grads[l]
                new_pols.append(RecodingPolicy.adaptive(
                    recoding.project_stochastic(lifted)))
            policies[i] = new_pols
            mbar = _policy_mbar_and_rank(scenario, flow, new_pols)[0]
            alpha_i = 1.0 / max(float(
                np.array([state.multipliers[scenario.network.link_index(e)]
                          for e in flow.links]) @ np.array(mbar)), 1e-12)
            for e, mb in zip(flow.links, mbar):
                load[scenario.network.link_index(e)] += alpha_i * mb
        vals = R @ state.multipliers
        si = int(np.flatnonzero(vals >= vals.max() - 1e-12)[0])
        state.update(load - R[si])
    fixed = solve_fixed_policy(scenario, policies)
    u_total = float(fixed.utilities.sum())
    reverted = u_total < base.u_total
    if reverted:
        sol = replace(base, mode="pd",
                      status={**base.status, "reverted_to_init": True})
        return sol
    return Solution(
        mode="pd",
        flow_ids=[f.id for f in scenario.flows],
        alpha=fixed.alpha,
        eta=np.ones(k),
        policies=policies,
        mbar=fixed.mbar,
        expected_rank=fixed.expected_rank,
        utilities=fixed.utilities,
        u_total=u_total,
        u_tilde=base.u_tilde,
        kappa=utility_ratio(u_total, base.u_tilde, k),
        rate_vector=fixed.rate_vector,
        schedule_weights=fixed.weights,
        status={"reverted_to_init": False, "pd_steps": cfg.pd_steps},
    )
