"""Exact linear algebra over Z/p on integer coordinate rows, and the Smith
form over Z/p^v.

A subspace is one pair (rows, pivots): an int64 array of its reduced row
echelon basis and the list of its pivot columns, made by one elimination,
so that equality of subspaces is equality of the arrays.  At p = 2 a row
is packed into bits and a row operation is one XOR (after M4RI, Albrecht,
Bard and Hart, ACM TOMS 2010): one Python int per row of one matrix
(rref_mod_p), one uint64 word per row of a stack of up to 64 columns
(rref_stack_mod_p).  Otherwise the elimination runs column by column: one
matrix reduces mod p after every row operation, and a stack delays the
reduction to the residues of the current column, each new pivot row and
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
_INT64_MAX = 2**63 - 1


def exact_dtype(bound: int):
    """int64 when bound, proven for the absolute value of everything about
    to be formed, fits; else exact Python ints (dtype=object)."""
    return np.int64 if bound <= _INT64_MAX else object


def matmul_exact(A, B, bound: int) -> np.ndarray:
    """A @ B exactly, for integer arrays and a proven bound on
    sum_k |A[i, k]| |B[k, j]| for every entry, with matmul broadcasting.

    That sum bounds every product of two entries and every partial sum of
    the product, in whatever order BLAS takes them.  Below 2^53 each such
    integer is a float64, so every rounded operation is exact and so is the
    float64 product, returned as int64.  Otherwise the product is taken in
    exact_dtype(bound): int64 up to 2^63 - 1, exact Python ints above.
    """
    if bound < _FLOAT64_EXACT:
        A, B = np.asarray(A, dtype=np.float64), np.asarray(B, dtype=np.float64)
        return (A @ B).astype(np.int64)
    dtype = exact_dtype(bound)
    return np.asarray(A).astype(dtype) @ np.asarray(B).astype(dtype)


def matmul_mod_p(A, B, p: int) -> np.ndarray:
    """A @ B mod p as int64 residues, for integer arrays with entries in
    (-p, p), with matmul broadcasting.

    With inner dimension m, the product is matmul_exact with the bound
    m (p-1)^2: float64 BLAS below 2^53, then int64 (nilalg._check_size keeps
    algebra products below 2^63), then exact ints.  The residues are
    x - (x // p) p: a float % costs more than the product, and numpy's int64
    // by a scalar is several times faster than its %.
    """
    A = np.asarray(A)
    prod = matmul_exact(A, B, A.shape[-1] * (p - 1) ** 2)
    prod -= prod // p * p
    return prod.astype(np.int64, copy=False)


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


def int_rows(lines, width: int):
    """The lines of a file body as one (len(lines), width) int64 array, in a
    single numpy conversion, when every line holds exactly width tokens of
    decimal digits below 2^63 - 1; None otherwise, so that the caller reads
    the lines one by one and names the first bad one.

    Each line gets a sentinel -1: a line of another token count shifts a
    sentinel out of the last column.  Besides the sentinels, only digits and
    blanks reach np.fromstring, which would read "+ 1" as 1, and which
    saturates values past int64 at 2^63 - 1.
    """
    text = " -1\n".join(lines + [""])
    if (not text.isascii() or text.count("-") != len(lines)
            or text.encode().translate(None, b"0123456789 \t\n-")):
        return None
    values = np.fromstring(text, dtype=np.int64, sep=" ")
    if values.size != len(lines) * (width + 1):
        return None
    rows = values.reshape(len(lines), width + 1)
    if (rows[:, width] != -1).any() or (rows[:, :width] == _INT64_MAX).any():
        return None
    return rows[:, :width]


def rref_mod_p(rows, p: int):
    """Reduced row echelon form over Z/p: (int64 array of the nonzero rows,
    list of their pivot columns).  Input unchanged."""
    mat = np.asarray(rows, dtype=np.int64)
    if mat.ndim != 2:
        return np.zeros((0, 0), dtype=np.int64), []
    return _rref_mod_2(mat) if p == 2 else _rref_by_columns(mat, p)


def _rref_by_columns(mat: np.ndarray, p: int):
    """rref_mod_p of a 2-D int64 array column by column, reducing mod p after
    every row operation: the route for p > 2, and the reference at p = 2."""
    mat = mat[mat.any(axis=1)] % p  # a zero row takes part in no step
    nrows, ncols = mat.shape
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
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
    return mat[:row], pivots


def _rref_mod_2(mat: np.ndarray):
    """rref_mod_p at p = 2 on rows packed into Python ints, column c at bit
    n - 1 - c (np.packbits, behind zero bits that fill whole 64-bit words),
    so that the leading bit is the pivot.  A basis keyed by leading bit takes
    each distinct row, reduced by XOR until its leading bit is new or it
    vanishes; back-substitution by ascending leading bit clears the other
    pivot bits, with basis rows that are already reduced."""
    n = mat.shape[1]
    nwords = max(1, -(-n // 64))  # one at n = 0 too, for words[:, 0]
    lead = 64 * nwords - n
    bits = np.zeros((len(mat), lead + n), dtype=bool)
    bits[:, lead:] = mat & 1
    words = np.packbits(bits, axis=1).view(">u8")
    ints = words[:, 0].tolist()
    for w in range(1, nwords):
        ints = [high << 64 | low for high, low in zip(ints, words[:, w].tolist())]
    basis: dict[int, int] = {}
    for row in set(ints):
        while row and (top := row.bit_length() - 1) in basis:
            row ^= basis[top]
        if row:
            basis[top] = row
    mask = 0
    for top in sorted(basis):
        low = basis[top] & mask
        while low:
            bit = low & -low
            basis[top] ^= basis[bit.bit_length() - 1]
            low ^= bit
        mask |= 1 << top
    tops = sorted(basis, reverse=True)
    data = b"".join(basis[t].to_bytes(8 * nwords, "big") for t in tops)
    ech = np.unpackbits(np.frombuffer(data, dtype=np.uint8).reshape(len(tops), 8 * nwords), axis=1)
    return ech[:, lead:].astype(np.int64), [n - 1 - t for t in tops]


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
    """Reduced row echelon forms over Z/p of a stack of matrices (B, m, n),
    by _rref_stack_mod_2 at p = 2 when n <= 64.

    Otherwise one elimination runs on the whole stack, column by column, and
    reduces mod p only where it must (delayed reduction): the residues of the
    current column, the new pivot row and the final result.  Every other
    entry is a nonnegative integer congruent to its residue.  A pivot adds
    (p - factor) times the reduced pivot row to the other rows, at most
    (p - 1)^2 per entry, and each matrix has at most min(m, n) pivots, so no
    entry exceeds p - 1 + min(m, n) (p - 1)^2, which _stack_dtype holds.  The
    pivot row is 0 left of its pivot column: those columns are cleared below
    the rank, so an update touches only the columns from the pivot on.

    Returns (ech, ranks, is_pivot): ech[b], in the dtype of _stack_dtype, is
    the reduced echelon form of mats[b] with its ranks[b] nonzero rows on
    top, and is_pivot[b, c] marks the pivot columns.  Input unchanged.
    """
    mats = np.asarray(mats)
    nmat, m, n = mats.shape
    if p == 2 and n <= 64:
        return _rref_stack_mod_2(mats)
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


def _rref_stack_mod_2(mats: np.ndarray):
    """rref_stack_mod_p at p = 2 and n <= 64, each row one uint64 word with
    column c at bit n - 1 - c.  As in rref_stack_mod_p, the matrices with a
    live row in a column swap it up to their rank; it then clears the column
    in their other rows by one masked XOR across the batch."""
    nmat, m, n = mats.shape
    bits = np.uint64(1) << np.arange(n - 1, -1, -1, dtype=np.uint64)
    words = (mats & 1).astype(np.uint64) @ bits
    ranks = np.zeros(nmat, dtype=np.int64)
    is_pivot = np.zeros((nmat, n), dtype=bool)
    below = np.arange(m)
    for col in range(n):
        has = (words & bits[col]) != 0
        live = has & (below >= ranks[:, None])
        b = np.flatnonzero(live.any(axis=1))
        if not b.size:
            continue
        row, src, at = ranks[b], live[b].argmax(axis=1), np.arange(b.size)
        lead, words[b, src] = words[b, src], words[b, row]
        hit = has[b]
        hit[at, src], hit[at, row] = hit[at, row], False
        words[b] ^= hit * lead[:, None]
        words[b, row] = lead
        is_pivot[b, col] = True
        ranks[b] += 1
    return (words[..., None] & bits != 0).astype(_stack_dtype(2, m, n)), ranks, is_pivot


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
