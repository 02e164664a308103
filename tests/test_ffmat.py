import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from batsnum import ffmat
from oracles import (gf256_mul_shift_reduce, gf2_rank_by_minors, gf_inv, gf_mul,
                     matrix_rank, prob_rank)


def test_mul_zero_and_identity():
    rng = np.random.default_rng(0)
    for x in rng.integers(0, 256, 50):
        assert gf_mul(0, int(x)) == 0
        assert gf_mul(1, int(x)) == int(x)


def test_mul_against_shift_reduce_everywhere():
    for a in range(256):
        for b in range(256):
            assert int(gf_mul(a, b)) == gf256_mul_shift_reduce(a, b)


def test_mul_known_value():
    assert gf_mul(2, 0x80) == 0x1B
    assert gf256_mul_shift_reduce(2, 0x80) == 0x1B


def test_inverses():
    for a in range(1, 256):
        assert int(gf_mul(a, gf_inv(a))) == 1
    with pytest.raises(ZeroDivisionError):
        gf_inv(0)


def test_unsupported_field():
    with pytest.raises(ValueError):
        gf_mul(1, 1, q=7)


@pytest.mark.parametrize("q", [2, 256])
def test_rank_identity_and_zero(q):
    for n in (1, 3, 8):
        assert matrix_rank(np.eye(n, dtype=np.uint8), q=q) == n
        assert matrix_rank(np.zeros((n, n), dtype=np.uint8), q=q) == 0
    assert matrix_rank(np.zeros((0, 5), dtype=np.uint8), q=q) == 0


def test_random_matrix_empty_and_deterministic():
    r1 = ffmat.random_matrix(0, 4, np.random.default_rng(1))
    assert r1.shape == (0, 4) and matrix_rank(r1) == 0
    a = ffmat.random_matrix(5, 7, np.random.default_rng(42))
    b = ffmat.random_matrix(5, 7, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_random_matrix_entry_uniformity():
    # chi-square over 256 bins, 1e6 draws; 3-sigma bound on the statistic
    draws = ffmat.random_matrix(1000, 1000, np.random.default_rng(7))
    counts = np.bincount(draws.ravel(), minlength=256)
    expect = draws.size / 256
    chi2 = float(((counts - expect) ** 2 / expect).sum())
    dof = 255
    assert chi2 < dof + 3 * np.sqrt(2 * dof)


def test_rank_histogram_matches_rank_pmf():
    # 1e5 random 4x4 GF(2) matrices vs the closed-form rank pmf, 3 sigma
    rng = np.random.default_rng(11)
    n = 100_000
    mats = rng.integers(0, 2, size=(n, 4, 4), dtype=np.uint8)
    counts = np.zeros(5)
    for i in range(n):
        counts[matrix_rank(mats[i], q=2)] += 1
    for j in range(5):
        p = prob_rank(4, 4, j, 2)
        se = np.sqrt(p * (1 - p) / n)
        assert abs(counts[j] / n - p) <= 3 * se + 1e-12


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 2**31 - 1), st.sampled_from([2, 256]))
def test_rank_of_product_bounded(n, k, p, seed, q):
    rng = np.random.default_rng(seed)
    A = ffmat.random_matrix(n, k, rng, q=q)
    B = ffmat.random_matrix(k, p, rng, q=q)
    r = matrix_rank(ffmat.gf_matmul(A, B, q=q), q=q)
    assert r <= min(matrix_rank(A, q=q), matrix_rank(B, q=q))


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**31 - 1),
       st.sampled_from([2, 256]))
def test_appending_column_monotone(n, k, seed, q):
    rng = np.random.default_rng(seed)
    A = ffmat.random_matrix(n, k, rng, q=q)
    col = ffmat.random_matrix(n, 1, rng, q=q)
    r0 = matrix_rank(A, q=q)
    r1 = matrix_rank(np.hstack([A, col]), q=q)
    assert r0 <= r1 <= r0 + 1


@given(st.integers(0, 2**9 - 1))
def test_gf2_rank_matches_minor_enumeration(bits):
    mat = np.array([[(bits >> (3 * r + c)) & 1 for c in range(3)]
                    for r in range(3)], dtype=np.uint8)
    assert matrix_rank(mat, q=2) == gf2_rank_by_minors(mat)


def test_row_reduce_spans_row_space():
    rng = np.random.default_rng(3)
    A = ffmat.random_matrix(10, 6, rng)
    basis, r = ffmat.row_reduce(A)
    assert basis.shape == (r, 6)
    assert matrix_rank(basis) == r == matrix_rank(A)
    stacked = np.vstack([A, basis])
    assert matrix_rank(stacked) == r


@pytest.mark.parametrize("n,k,p", [(4, 7, 5), (3, 300, 2), (1, 1, 1),
                                   (0, 5, 3), (3, 0, 4), (2, 6, 0)])
def test_gf2_matmul_is_integer_product_mod_2(n, k, p):
    # over the subfield {0, 1}, GF(256) products and sums are AND and XOR;
    # k = 300 sums more terms than a byte counts
    rng = np.random.default_rng(n * 1000 + k * 10 + p)
    for _ in range(5):
        A = ffmat.random_matrix(n, k, rng, q=2)
        B = ffmat.random_matrix(k, p, rng, q=2)
        got = ffmat.gf_matmul(A, B, q=2)
        want = (A.astype(np.int64) @ B.astype(np.int64)) % 2
        assert got.dtype == np.uint8 and got.shape == (n, p)
        assert np.array_equal(got, want)
