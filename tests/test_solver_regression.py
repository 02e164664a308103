"""Frozen digests of solved scenarios.

Each digest is the SHA-1 of `Solution.to_json()`: every utility, rate,
policy, schedule share and status field. They were recorded from the
solvers in which the concave allocation, the rank forward pass, the
max-weight pick and the shared-link count were each written out in
several places. Merging those copies keeps the arithmetic, so these
solves must reproduce the recorded documents bit for bit.
"""

import hashlib

import pytest
from test_solvers import make_line_scenario

from batsnum.solvers import primal_dual_adaptive, solve_nap, two_step_solve

# (case, loss family) -> (NAP digest, two-step digest)
CASES = {
    (1, "iid"): ("d28fba80f73135fb7ccb5d30bb0f7380e9b92c67",
                 "0ae2b758bf644bb9aca1c47ab390eb66a312a094"),
    (2, "iid"): ("bb6ac3893eaa72673381e8c68acc0cfc5177a692",
                 "9eac9519908974dab200d613fdea4af4145ff6e3"),
    (3, "iid"): ("b843f0293aacec429b98d9c388976da8972b5b15",
                 "aeb2c795c6e33729a639ac96ebba29cb07232611"),
    (4, "iid"): ("576e5d3029984751f3bf8d2963a4eef379b0b15e",
                 "8bb2922e688c81d176f39b69896df29e74b8f171"),
    (5, "iid"): ("6b16b4d64eff11093d32e5e6ba21fae4b861f098",
                 "981f92a0f136b91d2aa9bc8b17b7857493ddfe84"),
    (6, "iid"): ("2ce066c660a32af341364573ddeb4e79753ad477",
                 "5e1d82b6319e17d9d0fe47333e85cba1fee3f1e8"),
    (7, "iid"): ("b16f13ddea9f1d5bf4b7b7c64c0dd21f4a90ed4c",
                 "fe861fb8cb2d043dcff0851cac731b62cdd980e0"),
    (8, "iid"): ("47a0ccc59ea7106c1342ccc8bff4384b82594af9",
                 "f93b49197a8c2ad89858c5b28a6ec90b0eac06b5"),
    (9, "iid"): ("117ce7d7e37cd7465858e7dc4a2c4fd082da2836",
                 "0dc93dd1d0daf90196f00beec654c7745513c2bd"),
    (10, "iid"): ("06aca10cdc2fd1b1762d4c2176c4c282aea4ad73",
                  "d35365b1e0199375a06a160981a5c35b2afb23ec"),
    (11, "iid"): ("a6603bd842015aa65405e819325f3d3278e2de8c",
                  "6e0cc4b559ce23cdcfc2a4969a4f6c21001a80c2"),
    (1, "ge"): ("8fae5509ce0df1f942cca38b4ca03df9e421174c",
                "b1ed461bf67c8d22fd6d3852f56e52540404fea3"),
    (2, "ge"): ("4d4e0568716082962ef25d72034b461882d77da9",
                "2e1b96dcf8340974df538ecfc52e975ab751c931"),
    (3, "ge"): ("20b30ea5fc63a81bdfa43957255f64922621c462",
                "ecc1c2091104a551ea04a5de30c55efe9e8d703c"),
    (4, "ge"): ("e3cc16b7b02c10b1a454957efb69f4cdf1395199",
                "76f686b0461585c2cbccc01cd8e6aed59e198083"),
    (5, "ge"): ("b101215f38a982c47d576b55249cec27355af2d1",
                "7e37fa154e34ad7a717efced0378095d4e845e58"),
    (6, "ge"): ("50cd18e4e118eeef7713d31d6f1f151758177da3",
                "fa465bebf1d47611173227c7804544e767d48518"),
    (7, "ge"): ("738ad81a93c6c29f1fbe00c8f482007ff081b0d1",
                "7ba35bc3fdd14a0a62ef73cdc2313e48b90e0284"),
    (8, "ge"): ("7dab1a348bd392f1b416ce1023afc3b297c15cde",
                "d002bdbb69608c060eb23c6167ea11dca195058d"),
    (9, "ge"): ("44a62ce488451c71fe3bbedd9a3e07c1725cdcc0",
                "a096a2e1f3def433c606952f9c924c92754a5883"),
    (10, "ge"): ("1a7e68fc640ef472d38a0029007bf2168d5d4731",
                 "202d44621be9bd1be54a05d57173978e2a418e9f"),
    (11, "ge"): ("9a56ece4511c750c5cec6ed1c6faf3919fd75a65",
                 "91cafdaaed89a6df2c220fa785c4a9ea6a6fff7a"),
}


def digest(sol):
    return hashlib.sha1(sol.to_json().encode()).hexdigest()


@pytest.mark.parametrize("case,family", sorted(CASES))
def test_case_solutions_frozen(solved, case, family):
    # the acceptance criteria solve every built-in case through `solved`
    got = (digest(solved.nap(case, family)), digest(solved.two_step(case, family)))
    assert got == CASES[case, family]


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
        "68d35247b71eb19b1831c89bf217b4f6b8f57f39",
        "600ac819790aeba92e19b63a6b21dc04f35350f7",
        "55590398169684471e9b1b10e642ad19b3326242",
    ]
