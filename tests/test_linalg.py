import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitzeta.linalg import (matmul_mod_p, nullspace_mod_p, nullspace_stack_mod_p,
                              rref_mod_p, rref_stack_mod_p)

PRIMES = (2, 3, 5, 7, 251)


@st.composite
def stacks(draw):
    """(p, stack): 1 to 4 matrices of one shape with entries in [-p, 2p), so
    that the reduction mod p is exercised too; a third of them are zero."""
    p = draw(st.sampled_from(PRIMES))
    count, m, n = (draw(st.integers(1, hi)) for hi in (4, 6, 6))
    mats = np.array(draw(st.lists(st.integers(-p, 2 * p - 1), min_size=count * m * n,
                                  max_size=count * m * n)), dtype=np.int64)
    mats = mats.reshape(count, m, n)
    mats[draw(st.lists(st.booleans(), min_size=count, max_size=count))] = 0
    return p, mats


def _full_rank(p, m, n):
    """An m x n matrix of rank min(m, n): identity plus entries above it."""
    mat = np.triu(np.arange(1, m * n + 1).reshape(m, n) % p, 1)
    mat[np.arange(min(m, n)), np.arange(min(m, n))] = 1
    return mat


def _past_a_byte(m, n):
    """A stack at p = 7 of m x n matrices of rank min(m, n), I + 1 and
    I + 1 + i + j with i, j the row and column, whose elimination without
    reduction drives entries past 255 (up to 15 updates of up to 36)."""
    i, j = np.arange(m)[:, None], np.arange(n)[None, :]
    ones_plus_eye = 1 + (i == j)
    mats = np.stack([ones_plus_eye, ones_plus_eye + i + j, (ones_plus_eye + i + j)[::-1]]) % 7
    assert all(len(rref_mod_p(mat, 7)[0]) == min(m, n) for mat in mats)
    return mats


EXAMPLES = [
    (251, np.array([[[0]], [[250]], [[-1]]])),                        # 1 x 1
    (2, np.zeros((2, 3, 4), dtype=np.int64)),                         # all zero
    (7, np.stack([_full_rank(7, 3, 5), np.zeros((3, 5), np.int64)])),  # m < n
    (5, np.stack([_full_rank(5, 4, 4), _full_rank(5, 4, 4)[::-1]])),  # m = n
    (3, np.stack([_full_rank(3, 6, 2), np.ones((6, 2), np.int64)])),  # m > n
    (251, np.stack([_full_rank(251, 5, 5) * 250])),
    # a square full-rank matrix reduces to the identity whatever wraps on
    # the way; the free columns of the wide stack keep the wrapped entries
    (7, _past_a_byte(15, 15)),
    (7, _past_a_byte(15, 18)),
]


def _examples(test):
    for p, mats in EXAMPLES:
        test = example(case=(p, mats))(test)
    return test


@settings(max_examples=300, deadline=None)
@given(case=stacks())
@_examples
def test_rref_stack_matches_rref_mod_p(case):
    p, mats = case
    ech, ranks, is_pivot = rref_stack_mod_p(mats, p)
    assert ech.shape == mats.shape
    for b, mat in enumerate(mats):
        rows, pivots = rref_mod_p(mat, p)
        assert ranks[b] == len(rows)
        assert ech[b, :ranks[b]].tolist() == [list(r) for r in rows]
        assert not ech[b, ranks[b]:].any()
        assert np.flatnonzero(is_pivot[b]).tolist() == pivots


@settings(max_examples=300, deadline=None)
@given(case=stacks())
@_examples
def test_nullspace_stack_matches_nullspace_mod_p(case):
    p, mats = case
    n = mats.shape[2]
    ranks, kernels = nullspace_stack_mod_p(mats, p)
    assert kernels.shape == (len(mats), n, n)
    for b, mat in enumerate(mats):
        rows = nullspace_mod_p(mat, n, p)
        assert ranks[b] == n - len(rows)
        assert kernels[b, :n - ranks[b]].tolist() == [list(r) for r in rows]
        assert not kernels[b, n - ranks[b]:].any()
        assert not (mat @ kernels[b].T % p).any()


# m (p-1)^2 < 2^53 takes the float64 route: 33554393 = prevprime(2^25) up to
# m = 8, 94906249 = prevprime(sqrt(2^53)) at m = 1 only; the others always take
# int64, and 3037000493, the largest prime with (p-1)^2 < 2^63, only at m = 1
MATMUL_PRIMES = (2, 3, 251, 33554393, 94906249, 134217689, 3037000493)


@st.composite
def residue_products(draw):
    """(p, A, B): A of shape (k, m) and B of shape (m, n) or a stack (s, m, n),
    entries in (-p, p) with a bias to +-(p - 1); m keeps m (p-1)^2 < 2^63."""
    p = draw(st.sampled_from(MATMUL_PRIMES))
    m = draw(st.integers(1, min(12, (2**63 - 1) // (p - 1) ** 2)))
    k, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    shape_b = (m, n) if draw(st.booleans()) else (draw(st.integers(1, 3)), m, n)
    entry = st.one_of(st.sampled_from([p - 1, 1 - p, 0]), st.integers(1 - p, p - 1))
    A = np.array(draw(st.lists(entry, min_size=k * m, max_size=k * m))).reshape(k, m)
    B = np.array(draw(st.lists(entry, min_size=int(np.prod(shape_b)),
                               max_size=int(np.prod(shape_b))))).reshape(shape_b)
    return p, A, B


@settings(max_examples=150, deadline=None)
@given(case=residue_products())
@example(case=(33554393, np.full((2, 8), 33554392), np.full((8, 3), 33554392)))
@example(case=(33554393, np.full((2, 9), 33554392), np.full((9, 3), -33554392)))
@example(case=(94906249, np.full((1, 1), 94906248), np.full((1, 1), 94906248)))
@example(case=(94906249, np.full((1, 2), 94906248), np.full((2, 2), 94906248)))
@example(case=(3037000493, np.full((3, 1), 3037000492), np.full((1, 2), 3037000492)))
def test_matmul_mod_p_matches_exact_products(case):
    p, A, B = case
    want = (A.astype(object) @ B.astype(object)) % p
    got = matmul_mod_p(A, B, p)
    assert got.dtype == np.int64
    assert got.shape == want.shape
    assert got.tolist() == want.tolist()
