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
hashes to its earlier digest.

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
    (1, "iid"): ("70e5bcb9eb7158a8868ab24ba05fb035290f76ab",
                 "00a6edeba09ce764660b0f446d687f94b8a3be31"),
    (2, "iid"): ("c2532d9fbaeab53ec9a3190eb3a9288d0c0fce0d",
                 "9d99bd688804f54e90ebe3c5cb9c5d21f7891c2d"),
    (3, "iid"): ("c0c18ccc6d696b37062ceb4bbefbb24aeddd6ae8",
                 "43062b608d910296b0d1b43a33478700ff52ca46"),
    (4, "iid"): ("f0969847669e4878fc1ddb7c57a3ed9b8c51be4f",
                 "514c88431ba258c34e14c6950a9d906baf57d080"),
    (5, "iid"): ("2590430673a3126e3b717e6b6eabff3f02808adb",
                 "992923393b35d7e7932ea4c9559dad749823a098"),
    (6, "iid"): ("c4fa059ea729bc50e20dd47e15d093858cdb3d30",
                 "36001b0df1f53571437f41b04f9f9c589f86cc0d"),
    (7, "iid"): ("6c0e8d1d5da289b3af991bb11971119cdc66f550",
                 "8fb3028c38dff0c5d4e77bc35c45dc869edcb916"),
    (8, "iid"): ("15fb34d82de8226af23edd9a797a843201c7eb98",
                 "50183a0af1e75907467ec1446a8acf3d0a26d710"),
    (9, "iid"): ("bab8d2ea17b4e5f669a1056c487a888731fdfeaf",
                 "ae948c87c23caac7c3adad955ac1b4bf96ece938"),
    (10, "iid"): ("a7e98a0599a396d66e29f93d2b534a7e5a0086e2",
                  "48ffef93ebfc613aed0a2e15ced7167145350d61"),
    (11, "iid"): ("c838bdcf9a02a0ce3cbe2e6513cbae3f240d7964",
                  "862312bee1863af7eb41534dbc3c24aa5543178d"),
    (1, "ge"): ("3b72052d593151fef4be3c4e768ccf4a1fa81f47",
                "8d2a0a47919811348db878f063c7e29c0aa3802f"),
    (2, "ge"): ("fd22c57aa140218d32a0b29d1f3c936cb4c92208",
                "58ff814ac94d7e2dabb1d345f92dc10539b72cef"),
    (3, "ge"): ("1f01b0154c8b4885af247c4f8ac823af9ee8d112",
                "36cbdeaaa928e75b473e586ec2ba8b86eb6c65b1"),
    (4, "ge"): ("0fc59624792437c9b3a2c160c48593faf5b6f166",
                "2d56f64bf7ff391f5a06844e993c9126e129ed2a"),
    (5, "ge"): ("92e82c3c4b3ed7183b6e7576532fa0d46e579115",
                "20736e0fb3cfe2ba531d7564806f47223a419d7c"),
    (6, "ge"): ("06fb051d69fc24a708bc9c79a51965d4441be74d",
                "cea42a2ee9477c6762afdbdedb46db55d2bfe8ab"),
    (7, "ge"): ("9e6e6539dbc9f1c44209d95a25cfdc7db9640fb8",
                "140296c1399a57b5f44eec0e6f072390a218e1d4"),
    (8, "ge"): ("66422d0bf4f80f8eea3a60e1d9d46bbbef20fba9",
                "4a0450cdf2fbc911670d9c967443dc1e5790818b"),
    (9, "ge"): ("698ce5c4c9cd1887f6da24a6a5ffc43c6e07176a",
                "15001e12f0f62e446c360dc0d3daacee9173035c"),
    (10, "ge"): ("b68190f6fc47ada8c2768fe36409a6cc2619ddaf",
                 "03803ba9f8d576a1762e5c26124d6cbd5ff303b7"),
    (11, "ge"): ("caaca4e0ecf6f025df170f1f808a06474d6a98f1",
                 "42c8a0feea73dc5fcc87b5a60ae9f1bbd3dbb293"),
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
        "bd3ff74756531c5f13199ea25f4f967f607af3ac",
        "690664939d98997bd96b1e6aa52d1d0fdea402fc",
        "2f48177aa4e86f0c3b9c623210c3fe0e0dec37b4",
    ]
