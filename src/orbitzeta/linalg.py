"""Exact linear algebra over Z/p on integer coordinate rows.

Subspaces are always represented by reduced row echelon bases so that
equality of subspaces is literal equality of the representations.  The
elimination runs on int64 arrays and reduces mod p after every row
operation, so no entry exceeds p^2 on the way.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------- mod p ----

def _echelon(rows, p: int):
    """(reduced echelon array, pivot columns) of the rows, taken mod p."""
    mat = np.array(rows, dtype=np.int64) % p
    if mat.ndim != 2 or not mat.size:
        return np.zeros((0, mat.shape[-1] if mat.ndim == 2 else 0), dtype=np.int64), []
    nrows, ncols = mat.shape
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        nonzero = np.flatnonzero(mat[row:, col])
        if not nonzero.size:
            continue
        pivot = row + int(nonzero[0])
        if pivot != row:
            mat[[row, pivot]] = mat[[pivot, row]]
        inv = pow(int(mat[row, col]), -1, p)
        if inv != 1:
            mat[row] = mat[row] * inv % p
        factors = mat[:, col].copy()
        factors[row] = 0
        hit = np.flatnonzero(factors)
        if hit.size:
            mat[hit] = (mat[hit] - np.outer(factors[hit], mat[row])) % p
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return mat[:row], pivots


def rref_mod_p(rows, p: int):
    """Reduced row echelon form over Z/p. Returns (rows, pivot_cols); input unchanged."""
    mat, pivots = _echelon(rows, p)
    return [tuple(r) for r in mat.tolist()], pivots


def nullspace_mod_p(rows, ncols: int, p: int):
    """Echelon basis of {x : A x = 0} for A given by rows of length ncols."""
    ech, pivots = _echelon(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return []
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    if pivots:
        basis[:, pivots] = (-ech[:, free]).T % p
    return rref_mod_p(basis, p)[0]


def reduce_mod_p(echelon_rows, pivots, vecs, p: int) -> np.ndarray:
    """Residues of vecs (any leading shape) against a reduced echelon basis.

    A residue is zero exactly when its vector lies in the span; the
    coordinates of a member in the echelon basis are its pivot entries.
    """
    vecs = np.asarray(vecs, dtype=np.int64) % p
    if not pivots:
        return vecs
    ech = np.asarray(echelon_rows, dtype=np.int64)
    return (vecs - (vecs[..., pivots] @ ech) % p) % p


# ------------------------------------------------------- mod 2, packed ----

def rank_nullspace_mod2_packed(rows_packed: list[int], ncols: int):
    """Rank and nullspace basis for a mod-2 matrix with rows packed as ints.

    Bit i of a row is column i. Returns (rank, nullspace_rows_packed).
    """
    rows = [r for r in rows_packed]
    pivots: list[int] = []
    basis: list[int] = []
    for col in range(ncols):
        mask = 1 << col
        pivot = None
        for idx, r in enumerate(rows):
            if r & mask and (pivot is None):
                pivot = idx
        if pivot is None:
            continue
        pr = rows.pop(pivot)
        for idx, r in enumerate(rows):
            if r & mask:
                rows[idx] = r ^ pr
        basis.append(pr)
        pivots.append(col)
    rank = len(pivots)
    # back substitution for the kernel
    null_rows = []
    free = [c for c in range(ncols) if c not in pivots]
    for fc in free:
        vec = 1 << fc
        # solve for pivot coordinates against the echelon rows, bottom up
        for row, pc in sorted(zip(basis, pivots), key=lambda t: -t[1]):
            # parity of row . vec determines the pc coordinate
            if bin(row & vec).count("1") % 2:
                vec ^= 1 << pc
        null_rows.append(vec)
    return rank, null_rows
