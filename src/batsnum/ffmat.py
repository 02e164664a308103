"""Finite-field matrix arithmetic over GF(2) and GF(256).

Matrices are numpy uint8 arrays. GF(256) uses the reduction polynomial
x^8+x^4+x^3+x+1 (0x11B); multiplication goes through 256x256 lookup
tables built from exp/log tables over generator 3. Elimination works on
rows packed into Python ints (`RowBasis`), one row at a time, so the
simulator can reduce each packet as it arrives. Everything here is
pure given an explicit numpy Generator, so callers own all RNG state.
"""

from __future__ import annotations

import numpy as np

POLY_GF256 = 0x11B
SUPPORTED_FIELDS = (2, 256)


def _build_tables():
    exp = np.zeros(512, dtype=np.int16)
    log = np.zeros(256, dtype=np.int16)
    # generator 3: x itself is not primitive for 0x11B
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x ^= x << 1
        if x & 0x100:
            x ^= POLY_GF256
    exp[255:510] = exp[:255]
    mul = np.zeros((256, 256), dtype=np.uint8)
    nz = np.arange(1, 256)
    mul[1:, 1:] = exp[(log[nz][:, None] + log[nz][None, :]) % 255]
    inv = np.zeros(256, dtype=np.uint8)
    inv[1:] = exp[(255 - log[nz]) % 255]
    return mul, inv


_MUL256, _INV256 = _build_tables()


def _check_field(q):
    if q not in SUPPORTED_FIELDS:
        raise ValueError(f"unsupported field size {q}; supported: {SUPPORTED_FIELDS}")


def random_matrix(rows, cols, rng, q=256):
    """Uniform i.i.d. matrix over GF(q); deterministic given the generator."""
    _check_field(q)
    return rng.integers(0, q, size=(rows, cols), dtype=np.uint8)


def gf_matmul(A, B, q=256):
    """Matrix product over GF(q); GF(2) is the subfield {0, 1} of GF(256)."""
    _check_field(q)
    A = np.asarray(A, dtype=np.uint8)
    B = np.asarray(B, dtype=np.uint8)
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"shape mismatch {A.shape} @ {B.shape}")
    if A.shape[0] == 0 or B.shape[1] == 0 or A.shape[1] == 0:
        return np.zeros((A.shape[0], B.shape[1]), dtype=np.uint8)
    prod = _MUL256[A[:, :, None], B[None, :, :]]
    return np.bitwise_xor.reduce(prod, axis=1)


# _SCALE[c] maps every byte x to c * x, for bytes.translate
_SCALE = [bytes(row) for row in _MUL256]
_from_bytes = int.from_bytes


class RowBasis:
    """Row space over GF(256), grown one row at a time.

    A row is an int with one byte per column, column 0 the most
    significant, so its byte length nb names its pivot column (cols - nb).
    `pivots` maps nb to the basis row with that pivot as nb bytes, the
    first of them 1. GF(2) is the subfield {0, 1} of GF(256) and ranks do
    not depend on the field, so 0/1 rows take the same path.
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def absorb(self, row):
        """Reduce `row` against the basis; keep it and return True when it is
        innovative (outside the span), else return False."""
        pivots = self.pivots
        while row:
            nb = (row.bit_length() + 7) >> 3
            piv = pivots.get(nb)
            if piv is None:
                piv = row.to_bytes(nb, "big")
                if piv[0] != 1:
                    piv = piv.translate(_SCALE[_INV256[piv[0]]])
                pivots[nb] = piv
                return True
            row ^= _from_bytes(piv.translate(_SCALE[row >> ((nb - 1) << 3)]),
                               "big")
        return False

    def to_array(self, cols):
        """Basis rows as a (rank, cols) uint8 array in echelon order."""
        data = bytearray().join(bytes(cols - nb) + self.pivots[nb]
                                for nb in sorted(self.pivots, reverse=True))
        return np.frombuffer(data, dtype=np.uint8).reshape(self.rank, cols)


def int_rows(A):
    """The rows of a 2-D uint8 array as ints (see `RowBasis`); a row of no
    columns is 0."""
    data, cols = A.tobytes(), A.shape[1]
    return [_from_bytes(data[i * cols:(i + 1) * cols], "big")
            for i in range(A.shape[0])]


def row_reduce(A):
    """Row-echelon reduction; returns (basis rows, rank).

    The returned rows span the row space of A and are linearly
    independent (not necessarily the original rows); each row's leading
    entry is 1 and the rows are ordered by their leading column.
    """
    A = np.asarray(A, dtype=np.uint8)
    basis = RowBasis()
    for row in int_rows(A) if A.size else ():
        if basis.absorb(row) and basis.rank == A.shape[1]:
            break
    return basis.to_array(A.shape[1] if A.ndim == 2 else 0), basis.rank
