"""Row-by-row elimination on int rows against the numpy column sweep."""

import numpy as np
import pytest

from batsnum import ffmat
from oracles import matrix_rank, row_reduce_numpy

SHAPES = [(3, 16), (5, 40), (20, 16), (40, 6), (16, 16), (8, 8), (1, 5),
          (7, 1)]


def structured_matrices(q, seed):
    """Seeded matrices of every shape: full random, low rank, and with
    zero and duplicate rows spliced in."""
    rng = np.random.default_rng(seed)
    for rows, cols in SHAPES:
        yield ffmat.random_matrix(rows, cols, rng, q=q)
        k = int(rng.integers(0, min(rows, cols) + 1))
        low = ffmat.gf_matmul(ffmat.random_matrix(rows, k, rng, q=q),
                              ffmat.random_matrix(k, cols, rng, q=q), q=q)
        yield low
        A = ffmat.random_matrix(rows, cols, rng, q=q)
        A[rng.integers(0, rows)] = 0
        dup = rng.integers(0, rows, size=2)
        A[dup[0]] = A[dup[1]]
        yield A
        yield np.vstack([np.zeros((2, cols), dtype=np.uint8), A, A[:1]])
        yield np.zeros((0, cols), dtype=np.uint8)
        yield np.zeros((rows, cols), dtype=np.uint8)


@pytest.mark.parametrize("q", [2, 256])
def test_row_reduce_matches_numpy_oracle(q):
    checked = 0
    for seed in range(25):
        for A in structured_matrices(q, seed):
            basis, r = ffmat.row_reduce(A)
            want, r_want = row_reduce_numpy(A, q=q)
            assert r == r_want == matrix_rank(A, q=q)
            assert basis.shape == want.shape == (r, A.shape[1])
            # same span: neither basis adds rank to the other
            assert row_reduce_numpy(basis, q=q)[1] == r
            assert row_reduce_numpy(np.vstack([basis, want]), q=q)[1] == r
            # echelon order with unit leading entries
            lead = [int(np.flatnonzero(row)[0]) for row in basis]
            assert lead == sorted(set(lead))
            assert all(basis[i, c] == 1 for i, c in enumerate(lead))
            if q == 2:
                assert basis.max(initial=0) <= 1
            checked += 1
    assert checked == 25 * 6 * len(SHAPES)


@pytest.mark.parametrize("q", [2, 256])
def test_absorb_reports_innovation_row_by_row(q):
    for A in structured_matrices(q, 99):
        basis = ffmat.RowBasis()
        for i, row in enumerate(ffmat.int_rows(A)):
            grew = row_reduce_numpy(A[:i + 1], q=q)[1] > basis.rank
            assert basis.absorb(row) == grew
        assert basis.rank == row_reduce_numpy(A, q=q)[1]


def test_row_reduce_empty_shapes():
    for A in (np.zeros((0, 4), dtype=np.uint8), np.zeros((3, 0), dtype=np.uint8),
              np.zeros((0,), dtype=np.uint8)):
        got, r = ffmat.row_reduce(A)
        want, r_want = row_reduce_numpy(A)
        assert r == r_want == 0 and got.shape == want.shape


def test_int_rows_pack_column_zero_highest():
    A = np.array([[1, 0, 2], [0, 0, 255]], dtype=np.uint8)
    assert ffmat.int_rows(A) == [0x010002, 0x0000FF]
    basis = ffmat.RowBasis()
    assert basis.absorb(0x0000FF) and basis.to_array(3).tolist() == [[0, 0, 1]]
