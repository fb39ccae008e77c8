"""Exact linear algebra over Z/p on integer coordinate rows, and the Smith
form over Z/p^v.

A subspace is one pair (rows, pivots): an int64 array of its reduced row
echelon basis and the list of its pivot columns, made by one elimination,
so that equality of subspaces is equality of the arrays.  The one-matrix
elimination (rref_mod_p) reduces mod p after every row operation.  The
elimination of a stack of matrices (rref_stack_mod_p) delays the reduction:
it reduces only the residues of the current column, each new pivot row and
the result, in an unsigned dtype sized by the number of updates an entry
can take.  A kernel, of one matrix or of each matrix of a stack, takes one
elimination, of the column-reversed rows (see _kernel_rows); the census
checks the F_q-closure of its kernels by one product, not by eliminating
again.  The Smith form valuations over Z/p^v (smith_valuations_mod_pv) take
one elimination on int64 or exact object arrays.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------- mod p ----

# every integer of magnitude at most 2^53 is a float64
_FLOAT64_EXACT = 2**53


def matmul_mod_p(A, B, p: int) -> np.ndarray:
    """A @ B mod p as int64 residues, for integer arrays with entries in
    (-p, p), with matmul broadcasting.

    With inner dimension m, every partial sum of the product, in whatever
    order BLAS takes, is an integer of magnitude at most m (p-1)^2.  Below
    2^53 each such integer is a float64, so every rounded operation is exact
    and so is the float64 product.  Otherwise the product is int64, exact
    while m (p-1)^2 < 2^63 (nilalg._check_size).  The residues are
    x - (x // p) p in int64: a float % costs more than the product, and
    numpy's int64 // by a scalar is several times faster than its %.
    """
    A, B = np.asarray(A), np.asarray(B)
    if A.shape[-1] * (p - 1) ** 2 < _FLOAT64_EXACT:
        prod = (A.astype(np.float64) @ B.astype(np.float64)).astype(np.int64)
    else:
        prod = A.astype(np.int64) @ B.astype(np.int64)
    prod -= prod // p * p
    return prod


def base_p_digits(codes, p: int, width: int) -> np.ndarray:
    """(len(codes), width) base-p digits of the codes, least significant first,
    in the least unsigned dtype holding p - 1, filled one column at a time:
    no temporary is larger than the vector of codes (int64, or object)."""
    rest = np.array(codes)
    digits = np.empty((rest.size, width), dtype=np.min_scalar_type(p - 1))
    for t in range(width):
        digits[:, t] = rest % p
        rest //= p
    return digits


def rref_mod_p(rows, p: int):
    """Reduced row echelon form over Z/p: (int64 array of the nonzero rows,
    list of their pivot columns).  Input unchanged."""
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


def nullspace_mod_p(rows, ncols: int, p: int) -> np.ndarray:
    """Reduced echelon basis, int64 rows, of {x : A x = 0} for A given by rows
    of length ncols: one elimination, of the column-reversed rows (see
    _kernel_rows)."""
    ech, pivots = rref_mod_p(np.reshape(rows, (-1, ncols))[:, ::-1], p)
    is_pivot = np.zeros((1, ncols), dtype=bool)
    is_pivot[0, pivots] = True
    return _kernel_rows(ech[None], is_pivot, p)[0, :ncols - len(pivots)]


def reduce_mod_p(echelon_rows, pivots, vecs, p: int) -> np.ndarray:
    """Residues of vecs (any leading shape) against the reduced echelon basis
    (echelon_rows, pivots) of a subspace, echelon_rows an int64 array.

    A residue is zero exactly when its vector lies in the span; the
    coordinates of a member in the echelon basis are its pivot entries.
    """
    vecs = np.asarray(vecs, dtype=np.int64) % p
    return (vecs - (vecs[..., pivots] @ echelon_rows) % p) % p


# ------------------------------------------------------------- stacks ----

def _stack_dtype(p: int, m: int, n: int):
    """The least unsigned dtype of a lazily reduced (B, m, n) elimination:
    entries start below p and take at most min(m, n) rank-one updates, each
    adding at most (p - 1)^2."""
    return np.min_scalar_type(p - 1 + min(m, n) * (p - 1) ** 2)


def rref_stack_mod_p(mats, p: int):
    """Reduced row echelon forms over Z/p of a stack of matrices (B, m, n).

    One elimination runs on the whole stack, column by column, and reduces
    mod p only where it must (delayed reduction): the residues of the current
    column, the new pivot row and the final result.  Every other entry is a
    nonnegative integer congruent to its residue.  A pivot adds (p - factor)
    times the reduced pivot row to the other rows, at most (p - 1)^2 per
    entry, and each matrix has at most min(m, n) pivots, so no entry exceeds
    p - 1 + min(m, n) (p - 1)^2, which _stack_dtype holds.  The pivot row is
    0 left of its pivot column: those columns are cleared below the rank, so
    an update touches only the columns from the pivot on.

    Returns (ech, ranks, is_pivot): ech[b], in the dtype of _stack_dtype, is
    the reduced echelon form of mats[b] with its ranks[b] nonzero rows on
    top, and is_pivot[b, c] marks the pivot columns.  Input unchanged.
    """
    mats = np.asarray(mats)
    nmat, m, n = mats.shape
    dtype = _stack_dtype(p, m, n)
    ech = (mats % p).astype(dtype)
    ranks = np.zeros(nmat, dtype=np.int64)
    is_pivot = np.zeros((nmat, n), dtype=bool)
    below = np.arange(m)
    for col in range(n):
        residues = ech[:, :, col] % p
        live = (residues != 0) & (below >= ranks[:, None])
        b = np.flatnonzero(live.any(axis=1))
        if not b.size:
            continue
        row, src = ranks[b], live[b].argmax(axis=1)
        lead = ech[b, src] % p
        ech[b, src], residues[b, src] = ech[b, row], residues[b, row]
        distinct, where = np.unique(lead[:, col], return_inverse=True)  # one pow each
        inv = np.array([pow(int(v), -1, p) for v in distinct], dtype=dtype)[where]
        pivot_row = lead * inv[:, None] % p
        ech[b, row] = pivot_row
        # add (p - factor) times the pivot row to every other row of the
        # matrices b, the ones with a pivot in this column
        factors = residues[b]
        factors[np.arange(b.size), row] = 0
        ech[b, :, col:] += ((p - factors) % p)[:, :, None] * pivot_row[:, None, col:]
        is_pivot[b, col] = True
        ranks[b] += 1
    np.remainder(ech, p, out=ech)
    return ech, ranks, is_pivot


def _kernel_rows(ech, is_pivot, p: int) -> np.ndarray:
    """Kernels from the echelon forms (ech, is_pivot) of column-reversed
    matrices, as nullspace_stack_mod_p returns them.

    Read in the original order, each pivot column c of a reversed echelon
    form has entries only at free columns f < c, so the kernel row of a free
    column f has its leading 1 at f and 0 at every other free column.  By
    ascending f, the rows are reduced.
    """
    nmat, m, n = ech.shape
    ranks = is_pivot.sum(axis=1)
    # placed[b, c] is the echelon row whose pivot is (reversed) column c:
    # pivot columns ascend with the rows, so both masks list them in order
    placed = np.zeros((nmat, n, n), dtype=ech.dtype)
    placed[is_pivot] = ech[np.arange(m) < ranks[:, None]]
    # row f: e_f minus the pivot coordinates forced by x_f = 1, for each free
    # column f, as p + e_f - placed^T (positive and below 2p, which the
    # unsigned dtype holds).  Reversing rows and columns returns to the
    # original order, where the free rows, in ascending order, go on top
    free = ((p + np.eye(n, dtype=ech.dtype)) - placed.transpose(0, 2, 1)) % p
    kernels = np.zeros_like(placed)
    kernels[np.arange(n) < n - ranks[:, None]] = free[:, ::-1, ::-1][~is_pivot[:, ::-1]]
    return kernels


def nullspace_stack_mod_p(mats, p: int):
    """Kernels over Z/p of a stack of matrices (B, m, n).

    Returns (ranks, kernels): kernels[b, :n - ranks[b]] is the reduced echelon
    basis of {x : mats[b] x = 0}, the same rows nullspace_mod_p gives, and
    the rows below it are zero; kernels has the dtype of rref_stack_mod_p.
    One elimination, of mats[..., ::-1] (see _kernel_rows).
    """
    ech, ranks, is_pivot = rref_stack_mod_p(np.asarray(mats)[..., ::-1], p)
    return ranks, _kernel_rows(ech, is_pivot, p)


# ------------------------------------------------------------ mod p^v ----

_INT64_MAX = 2**63 - 1


def smith_valuations_mod_pv(rows, p: int, v: int, ncols: int | None = None) -> list[int]:
    """Diagonal p-valuations of the Smith form over Z/p^v, one per column,
    ascending; v stands for a zero diagonal entry.

    Each step takes a pivot of least valuation w in the remaining block,
    makes it p^w by a unit and clears its column with it.  Clearing its
    row would then change nothing else, so its row and column are dropped.
    Every entry left is a multiple of p^w, so w never falls.
    The block is int64 when (p^v)^2 < 2^63, which holds every product of
    two residues, and exact Python ints (dtype=object) otherwise.
    """
    mod = p ** v
    if ncols is None:
        ncols = len(rows[0]) if len(rows) else 0
    block = np.array(rows, dtype=object).reshape(len(rows), ncols) % mod
    if mod * mod <= _INT64_MAX:
        block = block.astype(np.int64)
    vals: list[int] = []
    w = 0
    while block.size:
        while w < v and not (hit := block % p ** (w + 1) != 0).any():
            w += 1
        if w == v:
            break
        i, j = divmod(int(np.argmax(hit)), block.shape[1])
        unit = int(block[i, j]) // p ** w
        pivot_row = block[i] * pow(unit, -1, mod) % mod
        block = (block - np.outer(block[:, j] // p ** w, pivot_row)) % mod
        block = np.delete(np.delete(block, i, axis=0), j, axis=1)
        vals.append(w)
    return vals + [v] * (ncols - len(vals))
