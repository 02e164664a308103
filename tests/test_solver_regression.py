"""Frozen digests and outcome floors of solved scenarios.

Each digest is the SHA-1 of `Solution.to_json()`: every utility, rate,
policy, schedule share and status field, including the allocation
certificate. They were recorded with the interior-point allocation and
the NAP candidate pool drawn from every count vector the dual loop
visits, so they freeze that arithmetic to the last bit. The earlier
trust-constr allocation moved utilities at the 1e-8 level and is kept
in `oracles.trust_constr_allocation`.

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
                 "a4386850a7b81e155fdc789e87dcd3e511914b36"),
    (2, "iid"): ("c2532d9fbaeab53ec9a3190eb3a9288d0c0fce0d",
                 "a577f2680d31a507d47dc8cd8e58cd4582830db9"),
    (3, "iid"): ("c0c18ccc6d696b37062ceb4bbefbb24aeddd6ae8",
                 "dd4a1f17ce64bc218ed968fe5e01c9418f8e43d1"),
    (4, "iid"): ("f0969847669e4878fc1ddb7c57a3ed9b8c51be4f",
                 "01d97d33faac744a22342b78cc3b22c0a0c3bf8c"),
    (5, "iid"): ("2590430673a3126e3b717e6b6eabff3f02808adb",
                 "24f549442db4f9a0bcbff0094327bbe89b7c5ffa"),
    (6, "iid"): ("c4fa059ea729bc50e20dd47e15d093858cdb3d30",
                 "9c32b17523e87c84813780beadad3db32d242fb8"),
    (7, "iid"): ("6c0e8d1d5da289b3af991bb11971119cdc66f550",
                 "e1c8d441358fd4a15edc1dac5517e64a74f908eb"),
    (8, "iid"): ("15fb34d82de8226af23edd9a797a843201c7eb98",
                 "90aa8a1a56715261589692e7b77e7df8b2bf6429"),
    (9, "iid"): ("bab8d2ea17b4e5f669a1056c487a888731fdfeaf",
                 "da59c2ff51125bf211fc663a85625cd49515be7b"),
    (10, "iid"): ("a7e98a0599a396d66e29f93d2b534a7e5a0086e2",
                  "cf89b3486efe2c909dbde896d65c67058df80c3e"),
    (11, "iid"): ("c838bdcf9a02a0ce3cbe2e6513cbae3f240d7964",
                  "fff51381f95455b91a0537f08b4907e07bef2b2f"),
    (1, "ge"): ("3b72052d593151fef4be3c4e768ccf4a1fa81f47",
                "1dc3f1698a0130d378706d0f1082b6d80c743142"),
    (2, "ge"): ("fd22c57aa140218d32a0b29d1f3c936cb4c92208",
                "2519c3759e201d63961657f734b175e3bccfe9fd"),
    (3, "ge"): ("1f01b0154c8b4885af247c4f8ac823af9ee8d112",
                "bf664c42d7445f1a7423550eae690297c972087d"),
    (4, "ge"): ("0fc59624792437c9b3a2c160c48593faf5b6f166",
                "862cdcd3df4e96b48f1c53a2a9dbae84f8828e0a"),
    (5, "ge"): ("92e82c3c4b3ed7183b6e7576532fa0d46e579115",
                "9d779161eb8b8a848020f3df39bfc85657b2197a"),
    (6, "ge"): ("06fb051d69fc24a708bc9c79a51965d4441be74d",
                "c9b806f27aaf89d2ab459002615c4c3d5b7a9dc3"),
    (7, "ge"): ("9e6e6539dbc9f1c44209d95a25cfdc7db9640fb8",
                "d94b6cdb986a34ddb9ad4549a503eb58d009157e"),
    (8, "ge"): ("66422d0bf4f80f8eea3a60e1d9d46bbbef20fba9",
                "555238a5abfc180c9e42f783e8f66cc6fac6a8ff"),
    (9, "ge"): ("698ce5c4c9cd1887f6da24a6a5ffc43c6e07176a",
                "d2db9e83c21194b5df73a356069c8017a47e4693"),
    (10, "ge"): ("b68190f6fc47ada8c2768fe36409a6cc2619ddaf",
                 "f498758a2990199aaed7e8915f16a680c875cdf8"),
    (11, "ge"): ("caaca4e0ecf6f025df170f1f808a06474d6a98f1",
                 "4331e4cbeb715550cda114d12f592d477cfaaf5b"),
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
        "817df75005d9f31bfe1d0c43cfaa44e7f7426d44",
        "2f48177aa4e86f0c3b9c623210c3fe0e0dec37b4",
    ]
