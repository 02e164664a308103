"""Frozen digests and outcome floors of solved scenarios.

Each digest is the SHA-1 of `Solution.to_json()`: every utility, rate,
policy, schedule share and status field, including the allocation
certificate. They were recorded with the interior-point allocation and
the NAP candidate pool drawn from every count vector the dual loop
visits, so they freeze that arithmetic to the last bit. The earlier
trust-constr allocation moved utilities at the 1e-8 level and is kept
in `oracles.trust_constr_allocation`. The two-step digests were
re-recorded when two-step solutions began to carry their NAP base's
certificate as `status["allocation"]`; without that field each document
hashes to its earlier digest. Every digest was re-recorded again when
the schedule weights began to come from the interior-point multipliers
of `R lam <= 1` instead of a HiGHS LP: on a degenerate optimal face the
LP returned a vertex and the multipliers return an interior point, so
eight instances report more schedules and move rates on links that do
not bind, while every NAP count vector and candidate pool stayed the
same and no utility moved by more than 5.4e-14. The NAP digests were
re-recorded once more when column generation on an interior-point
master, followed by a 50-step dual tail, replaced the 5,000-step dual
loop: every NAP status gained `rounds`, `columns` and `bound`, and the
candidate pools changed. Ten instances pick better count vectors (no
utility fell); the other twelve, case 1 of both families among them,
keep their NAP counts and utilities bit for bit, and so their two-step
digests. In the line scenario of `test_three_hop_line_frozen` only the
NAP digest moved. That test also froze the projected-gradient adaptive
solver until the solver was deleted; its NAP and two-step digests
stayed as they were.

To re-record, run `scripts/solution_digests.py --out new.json` before
and after a change, print the differences with `--compare old.json`,
and copy the new SHA-1s here.

`TRUST_CONSTR_OUTCOMES` holds, per built-in instance, the NAP counts and
the utilities (by `repr`) that the trust-constr allocation with the
last-100-iterate candidate pool reached. No instance may fall below them.
"""

import hashlib

import pytest
from test_solvers import make_line_scenario

from batsnum.solvers import solve_nap, two_step_solve

# (case, loss family) -> (NAP digest, two-step digest)
CASES = {
    (1, "iid"): ("717c73e44f699df0ab594df204d6cbdcf53757fe",
                 "86b00f04738f87fdcdb85df20bca9369463dfaa9"),
    (2, "iid"): ("4e841283f3909c6977f1b8e982c2b9281c69d278",
                 "96c3fd1afb4b2395bea317dfa6d9c0243a94c69c"),
    (3, "iid"): ("c850037dfde8dd6ebbd33e2fd235a4c41c0d3b5a",
                 "c08c7af594d8276b7b2fc210ef6a03ab2f2d5925"),
    (4, "iid"): ("ab445328c34146ccee00900ef3056364693bc08b",
                 "ca1b873c896e06ecd93eef8de6dc3a909dcaf44e"),
    (5, "iid"): ("1cec9226c8e912102d21ebb00a3255abf1a6e031",
                 "1c4f3e82ce3be821bc5b5c45e728bf340f447632"),
    (6, "iid"): ("26d6e1118d2fd23b7687ef7bbae1783cc83bf192",
                 "879ad8de86d52ffe9b974e9f068de3e6c0e37185"),
    (7, "iid"): ("a57a244c10e636d5a8dfe4c34a3685cc1123709d",
                 "96f36cbb24acd7b900464c3192a81faeba467cb0"),
    (8, "iid"): ("13e3593f9177fb7ecdf01517eeef162df946185e",
                 "b76eda8cfd14c834fcba14ab63f89edc4b72cf71"),
    (9, "iid"): ("9f32d138c86c5f9e81964cb080b6c743ca194e1e",
                 "01ffb0affa94708f096b4af20e50ac42a77d8189"),
    (10, "iid"): ("72e8ea527a1cc7e64823bb070c3f9805b7acbeab",
                  "76f19a5fad252bb4d88f185c2e508d6d2191331d"),
    (11, "iid"): ("111caee4417242c14c21141aecd528d019de5fec",
                  "3da482514247f380af461f59f9d245a13a9d8a52"),
    (1, "ge"): ("326690e524633fc08f2cd172d16d8d3dce570177",
                "97f1506d2864e0056152fa0564cbaa6011871a14"),
    (2, "ge"): ("7f1dbc992ebc56bda82bc470321fddd433fedacb",
                "7e95ee47e5e43c18826edc92ddd9c790fc08b2ad"),
    (3, "ge"): ("74d7376ab896024e0d5d949b2f710e4541315e53",
                "c1080dfead9e43888a6ce990beae6ff8d5304df4"),
    (4, "ge"): ("4b48faaa60e329149214490d68cb4e4686dfef04",
                "ac27ccffc9e953cee5535001d73ab99a8d5242d8"),
    (5, "ge"): ("ac80c3726bf01632e34f2b0bead16dc28120b36e",
                "b4b63211218da73bbb3ac0e39d3f7a7f99bc5734"),
    (6, "ge"): ("16ad21c56170b06e97b72b493b4157afec550319",
                "d9ea37a30ae51f42bac53b04075dab79d819799a"),
    (7, "ge"): ("1c0116082ec0eab038f928670a63debbc6a6c318",
                "0a4c0845476fc7a452706b7ffe89e763e886f3a2"),
    (8, "ge"): ("3b68181f8d032f7431407c534e741944823408af",
                "387b82c3f142d2c3c43f825d489125d7126f6bbd"),
    (9, "ge"): ("131dc11486766d727f449b576d207e69ce5277ea",
                "a6d7d35d58f36477c44c242230f776217338e9a9"),
    (10, "ge"): ("f6a0a31c7e3ffa1e6811a74e8427e348fe8967b2",
                 "2748975eaeea10e5f808fdb2c33cc65f8622f8d0"),
    (11, "ge"): ("3028104e510aab297a3f8a5d65496ba630e28dc7",
                 "26ed17633ff54ce03d8558c97473c585ec2308e0"),
}


# (case, loss family) -> (NAP counts per flow and hop, U(nap), U(two-step))
TRUST_CONSTR_OUTCOMES = {
    (1, "iid"): ([[38, 38, 19, 19, 19], [19, 19, 19, 38, 38, 38]],
                 -4.237434209887214, -4.189573002628135),
    (2, "iid"): ([[21, 21, 21, 21, 21], [21, 21, 21, 21, 21, 21]],
                 -2.945089507847219, -2.8913584061494064),
    (3, "iid"): ([[21, 21, 21, 21, 21], [21, 21, 21, 21, 21, 21]],
                 -4.331383869586636, -4.277652767888824),
    (4, "iid"): ([[19, 19, 21, 36, 33], [21, 35, 33, 19, 19, 19]],
                 -5.428316219579941, -5.380326800709855),
    (5, "iid"): ([[34, 34, 17, 17, 17], [17, 17, 17, 34, 34, 34]],
                 -3.9374801439477967, -3.902547338408719),
    (6, "iid"): ([[39, 36, 17, 19, 19], [17, 19, 19, 34, 31, 35]],
                 -4.141806940924093, -4.108249639402743),
    (7, "iid"): ([[32, 32, 19, 19, 19], [19, 19, 19, 32, 32, 32]],
                 -4.237434206743549, -4.189572974959226),
    (8, "iid"): ([[38, 38, 19, 19, 19], [19, 19, 19, 38, 38, 38]],
                 -4.238497530830665, -4.190565664276129),
    (9, "iid"): ([[21, 21, 21, 21, 21, 21, 21, 21], [21, 21, 21, 21, 21, 21, 21, 21]],
                 -4.3842557632847114, -4.3314273180884095),
    (10, "iid"): ([[41, 41, 21, 21, 21, 21, 21, 21], [21, 21, 21, 21, 21, 21]],
                  -4.343598324723822, -4.290933062202901),
    (11, "iid"): ([[34, 38, 20, 19, 19, 20, 34, 38], [20, 19, 19, 20]],
                  -4.274733210540244, -4.222428037468746),
    (1, "ge"): ([[32, 32, 16, 16, 16], [16, 16, 16, 32, 32, 32]],
                -4.562506947084964, -4.455577206261607),
    (2, "ge"): ([[23, 23, 23, 23, 23], [23, 23, 23, 23, 23, 23]],
                -3.45846962879106, -3.302216559165373),
    (3, "ge"): ([[23, 23, 23, 23, 23], [23, 23, 23, 23, 23, 23]],
                -4.844763990530478, -4.688510920904791),
    (4, "ge"): ([[16, 16, 28, 28, 28], [26, 26, 26, 16, 16, 16]],
                -5.814160437983592, -5.702653309900622),
    (5, "ge"): ([[32, 31, 16, 16, 16], [16, 16, 16, 31, 32, 32]],
                -4.048943888433012, -3.9920068867942264),
    (6, "ge"): ([[32, 32, 16, 16, 16], [16, 16, 16, 32, 32, 32]],
                -4.422504388569777, -4.367095377552569),
    (7, "ge"): ([[32, 32, 16, 16, 16], [16, 16, 16, 32, 32, 32]],
                -4.557372447835938, -4.455345874133822),
    (8, "ge"): ([[36, 36, 18, 18, 18], [18, 18, 18, 36, 36, 36]],
                -4.680569903265907, -4.498654711140238),
    (9, "ge"): ([[26, 26, 26, 26, 26, 26, 26, 26], [26, 26, 26, 26, 26, 26, 26, 26]],
                -4.942661420876219, -4.824655445328587),
    (10, "ge"): ([[48, 48, 24, 24, 24, 24, 24, 24], [24, 24, 24, 24, 24, 24]],
                 -4.870749000814582, -4.72281561013938),
    (11, "ge"): ([[32, 32, 19, 16, 16, 19, 32, 33], [19, 16, 16, 19]],
                 -4.6899620712862236, -4.516054731020385),
}


def digest(sol):
    return hashlib.sha1(sol.to_json().encode()).hexdigest()


@pytest.mark.parametrize("case,family", sorted(CASES))
def test_case_solutions_frozen(solved, case, family):
    # the acceptance criteria solve every built-in case through `solved`
    got = (digest(solved.nap(case, family)), digest(solved.two_step(case, family)))
    assert got == CASES[case, family]


@pytest.mark.parametrize("case,family", sorted(TRUST_CONSTR_OUTCOMES))
def test_outcomes_at_least_trust_constr(solved, case, family):
    counts, u_nap, u_two = TRUST_CONSTR_OUTCOMES[case, family]
    nap, two = solved.nap(case, family), solved.two_step(case, family)
    assert nap.u_total >= u_nap - 1e-9
    assert two.u_total >= u_two - 1e-9
    if [[round(x) for x in mb] for mb in nap.mbar] == counts:
        # same pick: only the allocation's accuracy moves the utility
        assert nap.u_total == pytest.approx(u_nap, abs=1e-6)
    cert = nap.status["allocation"]
    assert -1e-12 <= cert["gap"] <= 1e-10
    assert cert["max_violation"] <= 1e-12


def test_two_step_carries_nap_certificate(solved):
    # rates and schedule weights are the NAP allocation's, so is the gap
    nap, two = solved.nap(1, "iid"), solved.two_step(1, "iid")
    assert two.status["allocation"] == nap.status["allocation"]
    assert two.status["allocation"]["gap"] <= 1e-10


def test_three_hop_line_frozen():
    # f1 crosses e1-e3 and f2 shares e2-e3, so the polish mixes shared and
    # private hops
    sc = make_line_scenario(3, flows=[("e1", "e2", "e3"), ("e2", "e3")],
                            dual_iters=300)
    nap = solve_nap(sc)
    two = two_step_solve(sc, nap_solution=nap)
    assert [digest(s) for s in (nap, two)] == [
        "c52e4deca157bfce42f8d5d5122d6126c3c05fa4",
        "516552350d0cec780191e3c13d819fb70013e972",
    ]
