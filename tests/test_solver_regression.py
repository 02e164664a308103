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
same and no utility moved by more than 5.4e-14.

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

from batsnum.solvers import primal_dual_adaptive, solve_nap, two_step_solve

# (case, loss family) -> (NAP digest, two-step digest)
CASES = {
    (1, "iid"): ("68d83d2ee2d55c08fbe04f8e1b1b00419b0e134e",
                 "86b00f04738f87fdcdb85df20bca9369463dfaa9"),
    (2, "iid"): ("dc28cff2f64aa218c3220144bb56e2eb24cbd704",
                 "96c3fd1afb4b2395bea317dfa6d9c0243a94c69c"),
    (3, "iid"): ("24b553815939b16aa4698d1ce15b63c7de55b2b9",
                 "c08c7af594d8276b7b2fc210ef6a03ab2f2d5925"),
    (4, "iid"): ("59c62e9994a4dbe2619fc168f93f8a97ec1459b1",
                 "043c7d57aca19cb647a456e007237ed3c96770ea"),
    (5, "iid"): ("dcaa73992849fa8ddde2de173b892f8351d187c5",
                 "1c4f3e82ce3be821bc5b5c45e728bf340f447632"),
    (6, "iid"): ("c998d4d83439f581504831e32e457395a94028ec",
                 "aae9a4a0e8441f55e3b0fa1dea7d39c8adc159bc"),
    (7, "iid"): ("1f689dc881cb75451bd54034df9a73cc5ab74c83",
                 "96f36cbb24acd7b900464c3192a81faeba467cb0"),
    (8, "iid"): ("c29af9edf45de434f1015814aeee52d5acfe8f94",
                 "b76eda8cfd14c834fcba14ab63f89edc4b72cf71"),
    (9, "iid"): ("87316b404d61116f9c3b89af2ab0fa4b67aee951",
                 "002796369822fa259f10bc8337d858948a0c24a9"),
    (10, "iid"): ("b1e39e3ebb831389132369582d22946aaf331852",
                  "76f19a5fad252bb4d88f185c2e508d6d2191331d"),
    (11, "iid"): ("468cdd43885f42effc68009f8eff85801cc20f35",
                  "3da482514247f380af461f59f9d245a13a9d8a52"),
    (1, "ge"): ("5b7ec2d1d972228d7a0b9550b8d62ed3042b93a3",
                "97f1506d2864e0056152fa0564cbaa6011871a14"),
    (2, "ge"): ("c96f35a2e1ef5c24b8615ace98f9a09ada833f56",
                "af06f8fefc123ae287ce40d6cfbafee13fda4e14"),
    (3, "ge"): ("05f5262f78b9aab4f237d5b5d28ab548990a333e",
                "d041460ce5a2e35d41e2497154f59c1b71d13ea1"),
    (4, "ge"): ("25da5f27f7abd6019eb8ba5213eeff0f65876751",
                "bfd706ff21e9cd2a2bfa13cf44cc42253a0623c7"),
    (5, "ge"): ("162dd4da1c1fadb2435b02c06558e70b6c0a8596",
                "94105fb913478bfe23d4be50c92f64b651dc8ca0"),
    (6, "ge"): ("2eb631e1bd8092d72d80b9ec1b6b77905552e539",
                "162d64fd84d74c5141c86de1814e7ac30c1e9395"),
    (7, "ge"): ("86f9a692e1f9ddc6eb784b0ec660c6f828356cf0",
                "0a4c0845476fc7a452706b7ffe89e763e886f3a2"),
    (8, "ge"): ("b71bdd7eb2be76eb7544c39d27fbb87a660e81f1",
                "2feecdd68bd565632aa7f62f18a3192358492c5f"),
    (9, "ge"): ("4f33bd11a54af54b46150eeeaaae9769fabeac8c",
                "cf17190f9256c8d1a786fe7718e44e6ca1f52c3b"),
    (10, "ge"): ("4b79669c5320b4caf1eeb80a478fc494e268d44d",
                 "2748975eaeea10e5f808fdb2c33cc65f8622f8d0"),
    (11, "ge"): ("67cbc75371d92d158c8eaaf24216ee2e37d146d6",
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


def test_primal_dual_line_frozen():
    # f1 crosses e1-e3 and f2 shares e2-e3, so the polish mixes shared and
    # private hops and f1's gradients carry two downstream chain terms
    sc = make_line_scenario(3, flows=[("e1", "e2", "e3"), ("e2", "e3")],
                            dual_iters=300, pd_steps=20)
    nap = solve_nap(sc)
    two = two_step_solve(sc, nap_solution=nap)
    pd = primal_dual_adaptive(sc, init_solution=two)
    assert pd.status["reverted_to_init"] is False
    assert [digest(s) for s in (nap, two, pd)] == [
        "ba164e235cb786db13cb3878a1551f4498a0df8c",
        "516552350d0cec780191e3c13d819fb70013e972",
        "e9bb20d18bfb461ddf018231e261097c622c8f35",
    ]
