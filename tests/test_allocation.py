"""The interior-point allocation and its certificate.

Every allocation must report a duality gap in [-1e-12, 1e-10], weights
that are nonnegative and carry the rates exactly (max violation at most
1e-12), and a utility no lower than the trust-constr oracle's wherever
the oracle's allocation is feasible to 1e-12. Nonnegative oracle weights
are not enough: HiGHS answers within its feasibility tolerance, and on
random instances the oracle's rates overran a link row by up to 9e-8,
claiming up to 1e-7 more utility than the certified optimum.
"""

import numpy as np
import oracles
import pytest
from oracles import (column_master_single, concave_allocation_single,
                     trust_constr_allocation)
from scipy import optimize
from test_solvers import make_line_scenario

from batsnum import cli, solvers
from batsnum.netmodel import schedule_rate_matrix

CASES = [(case, family) for family in ("iid", "ge") for case in range(1, 12)]


def check_allocation(A, R):
    alloc, = solvers._exact_concave_allocation(A[None], R)
    cert = alloc.status
    assert -1e-12 <= cert["gap"] <= 1e-10
    assert cert["max_violation"] <= 1e-12
    w = alloc.weights
    assert np.all(w >= 0)
    # the certificate's violation, recomputed from the returned allocation
    assert np.max(A @ alloc.alpha - R.T @ w) <= 1e-12
    assert w.sum() <= 1 + 1e-12
    ref = trust_constr_allocation(A, R)
    feasible = max(np.max(A @ ref.alpha - R.T @ ref.weights),
                   ref.weights.sum() - 1, np.max(-ref.weights)) <= 1e-12
    if feasible:
        assert alloc.u_total >= ref.u_total - 1e-9
    return alloc, feasible


def recorded_allocations(monkeypatch, solve, scenario):
    """Every (A, R) that `solve(scenario)` passes to the allocation, each
    stack split into its rows, and the solve's result."""
    seen = []
    inner = solvers._exact_concave_allocation

    def record(A, R):
        seen.extend((a.copy(), R.copy()) for a in A)
        return inner(A, R)

    monkeypatch.setattr(solvers, "_exact_concave_allocation", record)
    result = solve(scenario)
    monkeypatch.undo()
    return seen, result


@pytest.mark.parametrize("case,family", CASES)
def test_upper_bound_allocation_of_every_preset(solved, case, family):
    # the cut-set duals of the presets are faces: several schedules tie
    sc = solved.scenario(case, family)
    A = solvers._load_matrix(sc, [[1.0] * len(f.links) for f in sc.flows])
    R = schedule_rate_matrix(sc.network)[1] * (1.0 - sc.eps_vector())
    alloc, _ = check_allocation(A, R)
    assert solved.up(case, family).status["allocation"] == alloc.status


@pytest.mark.parametrize("family", ["iid", "ge"])
def test_case1_nap_candidates(solved, monkeypatch, family):
    seen, _ = recorded_allocations(monkeypatch, solvers.solve_nap,
                                   solved.scenario(1, family))
    assert len(seen) > 40
    for A, R in seen:
        check_allocation(A, R)


def test_line_with_a_flow_on_one_shared_link(monkeypatch):
    sc = make_line_scenario(2, flows=[("e1", "e2"), ("e2",)], dual_iters=300)
    seen, sol = recorded_allocations(monkeypatch, solvers.solve_nap, sc)
    for A, R in seen:
        check_allocation(A, R)
    assert sol.status["allocation"]["gap"] <= 1e-10


def random_loads(rng, E, k):
    A = rng.random((E, k)) * (rng.random((E, k)) < 0.6) * 30
    for i in np.flatnonzero(A.sum(axis=0) == 0):
        A[rng.integers(E), i] = 10.0
    return A


def random_rates(rng, S, E):
    R = (rng.random((S, E)) < 0.4) * rng.uniform(0.5, 2.0, (S, E))
    for e in np.flatnonzero(R.sum(axis=0) == 0):
        R[rng.integers(S), e] = 1.0
    return R


def random_instance(rng):
    E, k, S = int(rng.integers(2, 9)), int(rng.integers(1, 4)), int(rng.integers(1, 12))
    return random_loads(rng, E, k), random_rates(rng, S, E)


def test_random_instances():
    rng = np.random.default_rng(20261018)
    compared = sum(check_allocation(*random_instance(rng))[1]
                   for _ in range(200))
    assert compared >= 150


def test_backtracking_instance():
    # two links, one schedule serving both and the idle schedule (which
    # `schedule_rate_matrix` also lists): full Mehrotra steps cycle here
    # without converging, so the step must backtrack
    A = np.array([[2.078, 0.0, 28.848], [23.409, 10.0, 29.327]])
    R = np.array([[0.959, 1.001], [0.0, 0.0]])
    check_allocation(A, R)


@pytest.mark.parametrize("source", ["iid", "ge", "random"])
def test_allocation_solves_no_lp(solved, monkeypatch, source):
    # the schedule weights are the multipliers of R lam <= 1, so the
    # allocation holds with every LP raising (the oracle still solves one)
    if source == "random":
        rng = np.random.default_rng(20261018)
        instances = [random_instance(rng) for _ in range(200)]
    else:
        instances, _ = recorded_allocations(monkeypatch, solvers.solve_nap,
                                            solved.scenario(1, source))
    inner = solvers._exact_concave_allocation

    def no_lp(*args, **kw):
        raise AssertionError("the allocation solved an LP")

    def without_lp(A, R):
        with monkeypatch.context() as m:
            m.setattr(optimize, "linprog", no_lp)
            return inner(A, R)

    monkeypatch.setattr(solvers, "_exact_concave_allocation", without_lp)
    for A, R in instances:
        check_allocation(A, R)


def check_master(cols, R, master):
    """The master's column weights and its gap against the mix they give."""
    lam, t, beta, w, bound = master
    C = np.column_stack([c for cs in cols for c in cs])
    b = np.concatenate(beta)
    assert np.all(b >= 0)
    load = C @ b
    assert np.max(load - R.T @ w) <= 1e-12
    scale = np.min((R.T @ w)[load > 0] / load[load > 0]) / w.sum()
    gap = bound - sum(np.log(scale * bi.sum()) for bi in beta)
    assert -1e-12 <= gap <= 1e-10


@pytest.mark.parametrize("source", ["iid", "ge", "random"])
def test_master_with_one_column_is_the_allocation(solved, source):
    if source == "random":
        rng = np.random.default_rng(20261018)
        instances = [random_instance(rng) for _ in range(200)]
    else:
        sc, nap = solved.scenario(1, source), solved.nap(1, source)
        instances = [(solvers._load_matrix(sc, nap.mbar) / nap.expected_rank,
                      schedule_rate_matrix(sc.network)[1])]
    for A, R in instances:
        cols = [[a] for a in A.T]
        master = solvers._column_master(cols, R)
        check_master(cols, R, master)
        assert master[4] == pytest.approx(
            solvers._exact_concave_allocation(A[None], R)[0].u_total, abs=1e-9)


@pytest.mark.parametrize("family", ["iid", "ge"])
def test_column_generation_stops_priced_out(solved, monkeypatch, family):
    sc = solved.scenario(1, family)
    R = schedule_rate_matrix(sc.network)[1]
    masters, inner = [], solvers._column_master

    def record(cols, R):
        masters.append(([list(cs) for cs in cols], inner(cols, R)))
        return masters[-1][1]

    monkeypatch.setattr(solvers, "_column_master", record)
    keys, master, rounds, _ = solvers._column_generation(sc, R)
    assert rounds == len(masters) and master is masters[-1][1]
    for cols, got in masters:
        check_master(cols, R, got)
    lam, t, beta = master[:3]
    for i, flow in enumerate(sc.flows):
        ctx = sc.flow_search(flow)
        for start in (ctx.init_m, keys[i][np.argmax(beta[i])]):
            res = solvers.flow_subproblem_local_search(sc, flow, lam, init_m=start)
            assert res.objective * t[i] <= 1 + 1e-9


def test_master_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(solvers, "ALLOCATION_MAX_ITERS", 1)
    with pytest.raises(RuntimeError):
        solvers._column_master([[np.array([2.0, 1.0])], [np.array([0.0, 3.0])]],
                               np.array([[1.0, 0.0], [0.0, 1.0]]))


def test_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(solvers, "ALLOCATION_MAX_ITERS", 1)
    with pytest.raises(RuntimeError):
        solvers.solve_up(make_line_scenario(2))


def test_cli_solve_exits_3_at_iteration_cap(monkeypatch, tmp_path):
    monkeypatch.setattr(solvers, "ALLOCATION_MAX_ITERS", 1)
    assert cli.main(["solve", "--case", "1", "--mode", "up",
                     "--outdir", str(tmp_path)]) == 3


def core_of(monkeypatch, owner, name, solve, *args):
    """`solve(*args)` and the x, z and iterations that the interior-point
    core `owner.name` returned inside it."""
    core, inner = [], getattr(owner, name)

    def record(*a):
        core.append(inner(*a))
        return core[-1]

    with monkeypatch.context() as m:
        m.setattr(owner, name, record)
        out = solve(*args)
    return out, core[0]


def assert_stack_bit_equal_to_single(monkeypatch, A, R):
    """Every row of the stacked allocation of A (B, E, k), its core's x, z
    and iterations and its certificate, equals the single-problem loop."""
    allocs, (x, z, iters) = core_of(monkeypatch, solvers, "_interior_point",
                                    solvers._exact_concave_allocation, A, R)
    for i, alloc in enumerate(allocs):
        x1, z1, ref = concave_allocation_single(A[i], R)
        assert np.array_equal(x[i], x1) and np.array_equal(z[i], z1)
        assert iters[i] == ref.status["iterations"]
        assert alloc.status == ref.status
        for f in ("alpha", "weights", "duals"):
            assert np.array_equal(getattr(alloc, f), getattr(ref, f))
        assert alloc.u_total == ref.u_total
    return iters


@pytest.mark.parametrize("case,family", CASES)
def test_nap_pools_bit_equal_to_single(solved, monkeypatch, case, family):
    stacks, inner = [], solvers._exact_concave_allocation

    def record(A, R):
        stacks.append((A.copy(), R.copy()))
        return inner(A, R)

    with monkeypatch.context() as m:
        m.setattr(solvers, "_exact_concave_allocation", record)
        nap = solvers.solve_nap(solved.scenario(case, family))
    # the cut-set bound, then the pool's batches
    assert sum(len(A) for A, _ in stacks[1:]) == nap.status["candidates_evaluated"]
    for A, R in stacks:
        assert_stack_bit_equal_to_single(monkeypatch, A, R)


def test_random_stack_bit_equal_to_single(monkeypatch):
    rng = np.random.default_rng(20261018)
    R = random_rates(rng, 11, 8)
    A = np.stack([random_loads(rng, 8, 3) for _ in range(200)])
    iters = assert_stack_bit_equal_to_single(monkeypatch, A, R)
    assert len(set(iters.tolist())) > 3  # rows leave the stack at different steps


def test_backtracking_instance_stacked_beside_an_easy_row(monkeypatch):
    A = np.array([[[2.078, 0.0, 28.848], [23.409, 10.0, 29.327]],
                  [[1.0, 0.0, 1.0], [1.0, 1.0, 1.0]]])
    R = np.array([[0.959, 1.001], [0.0, 0.0]])
    iters = assert_stack_bit_equal_to_single(monkeypatch, A, R)
    assert iters[0] != iters[1]


def test_retrying_masters_bit_equal_to_single(monkeypatch):
    # one-column masters of the random instances whose corrector fails
    # at some step, so that the step falls back to plain Newton
    rng = np.random.default_rng(20261018)
    retried = 0
    for _ in range(200):
        A, R = random_instance(rng)
        cols, retries = [[a] for a in A.T], []
        want, (x1, z1, it1) = core_of(monkeypatch, oracles, "interior_point_single",
                                      column_master_single, cols, R, retries)
        if not retries:
            continue
        retried += 1
        got, (x, z, iters) = core_of(monkeypatch, solvers, "_interior_point",
                                     solvers._column_master, cols, R)
        assert np.array_equal(x, [x1]) and np.array_equal(z, [z1])
        assert iters.tolist() == [it1]
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert all(np.array_equal(a, b) for a, b in zip(got[2], want[2]))
        assert np.array_equal(got[3], want[3]) and got[4] == want[4]
    assert retried >= 20
