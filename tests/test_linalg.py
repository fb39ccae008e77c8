import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitzeta import coadjoint, corpus, linalg
from orbitzeta.algroup import AlgebraGroup
from orbitzeta.linalg import (base_p_digits, matmul_exact, matmul_mod_p,
                              nullspace_mod_p, nullspace_stack_mod_p, rref_mod_p,
                              rref_stack_mod_p)
from orbitzeta.nilalg import parse_algebra_file, serialize_algebra

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


# ------------------------------------------------ the packed p = 2 arms ----

# widths about the packing edges: rref_mod_p packs a row into 64-bit words,
# one up to 64 columns and two up to 128; rref_stack_mod_p packs a row into
# one uint64 word up to 64 columns
EDGE_WIDTHS = (1, 61, 62, 63, 64, 65, 127, 128)


def _binary_rows(rng, m, n, kind):
    """An m x n matrix with entries in [-2, 4), random, of rank at most 3
    (so that duplicate rows are likely) or zero mod 2, and its first row
    again at the end."""
    if kind == "low rank":
        mat = rng.integers(0, 2, (m, 3)) @ rng.integers(0, 2, (3, n)) % 2
    else:
        mat = rng.integers(0, 2, (m, n)) * (kind == "random")
    mat = mat + 2 * rng.integers(-1, 2, (m, n))  # other representatives mod 2
    return np.concatenate([mat, mat[:1]]) if m else mat


@st.composite
def binary_matrices(draw):
    """One matrix with entries in [-2, 4): width at a packing edge or small,
    and 0 to 2n rows, or n^2 rows (the shape of T) when n <= 16."""
    n = draw(st.one_of(st.sampled_from(EDGE_WIDTHS), st.integers(1, 16)))
    m = draw(st.sampled_from([0, 1, 3, n, 2 * n] + ([n * n] if n <= 16 else [])))
    kind = draw(st.sampled_from(["random", "low rank", "zero"]))
    return _binary_rows(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), m, n, kind)


@settings(max_examples=200, deadline=None)
@given(mat=binary_matrices())
@example(mat=_binary_rows(np.random.default_rng(1), 128 * 128, 128, "low rank"))
@example(mat=_binary_rows(np.random.default_rng(2), 62 * 62, 62, "random"))
@example(mat=np.zeros((4, 63), dtype=np.int64))
def test_packed_rref_mod_2_matches_the_column_loop(mat):
    before = mat.copy()
    got, got_pivots = rref_mod_p(mat, 2)
    want, want_pivots = linalg._rref_by_columns(mat, 2)
    assert np.array_equal(mat, before)
    assert got.dtype == want.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want) and got_pivots == want_pivots


@st.composite
def binary_stacks(draw):
    """1 to 4 matrices of one shape, entries in [-2, 4), of width at most 64
    and m x m, or m^2 x m (tall) when m <= 8."""
    n = draw(st.one_of(st.sampled_from([w for w in EDGE_WIDTHS if w <= 64]),
                       st.integers(1, 16)))
    m = draw(st.sampled_from([1, 3, n] + ([n * n] if n <= 8 else [])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["random", "low rank", "zero"]), min_size=1, max_size=4))
    return np.stack([_binary_rows(rng, m, n, kind) for kind in kinds])


@settings(max_examples=200, deadline=None)
@given(mats=binary_stacks(), unsigned=st.booleans())
def test_packed_rref_stack_mod_2_matches_the_column_loop(mats, unsigned):
    if unsigned:  # a stack that an earlier elimination returned
        mats = (mats % 2).astype(np.uint8)
    before = mats.copy()
    ech, ranks, is_pivot = rref_stack_mod_p(mats, 2)
    assert np.array_equal(mats, before)
    assert ech.dtype == linalg._stack_dtype(2, *mats.shape[1:]) and ech.shape == mats.shape
    assert ranks.dtype == np.int64 and is_pivot.dtype == bool
    for b, mat in enumerate(mats):
        rows, pivots = linalg._rref_by_columns(mat.astype(np.int64), 2)
        assert ranks[b] == len(rows) and np.flatnonzero(is_pivot[b]).tolist() == pivots
        assert np.array_equal(ech[b, :ranks[b]], rows) and not ech[b, ranks[b]:].any()


def test_rref_mod_p_of_empty_and_one_dimensional_input():
    for p in (2, 3):
        for rows, shape in (([], (0, 0)), ([1, 0, 1], (0, 0)), (np.zeros((0, 5)), (0, 5)),
                            (np.zeros((3, 0)), (0, 0)), (np.zeros((3, 4)), (0, 4))):
            ech, pivots = rref_mod_p(rows, p)
            assert ech.dtype == np.int64 and ech.shape == shape and pivots == []


def test_packed_rref_mod_2_on_squares_and_brackets():
    # the n^2 x n products and brackets of T, as the power chain and the
    # derived subalgebra eliminate them; I_F2[g128] (n = 127) takes two words
    for alg in (corpus.unitriangular(5, 2), corpus.unitriangular(3, 2, 2),
                corpus.augmentation_ideal("D8", 2), corpus.augmentation_ideal("g128", 2)):
        n = alg.T.shape[0]
        for T in (alg.T, alg.T - alg.T.transpose(1, 0, 2)):
            rows = T.reshape(n * n, n)
            got, got_pivots = rref_mod_p(rows, 2)
            want, want_pivots = linalg._rref_by_columns(rows, 2)
            assert np.array_equal(got, want) and got_pivots == want_pivots


def test_no_p2_elimination_reaches_the_column_loops(monkeypatch):
    # the column loop of one matrix refuses p = 2, and every p = 2 stack of
    # at most 64 columns must go to the packed arm; fresh constructions,
    # censuses, polarizations, kernels and the group engine over F_2 and F_4
    # then still run
    honest = {name: getattr(linalg, name)
              for name in ("_rref_by_columns", "rref_stack_mod_p", "_rref_stack_mod_2")}
    calls = {"stacks": 0, "packed stacks": 0}

    def by_columns(mat, p):
        assert p != 2
        return honest["_rref_by_columns"](mat, p)

    def stack(mats, p):
        calls["stacks"] += p == 2 and np.shape(mats)[2] <= 64
        return honest["rref_stack_mod_p"](mats, p)

    def packed_stack(mats):
        calls["packed stacks"] += 1
        return honest["_rref_stack_mod_2"](mats)
    monkeypatch.setattr(linalg, "_rref_by_columns", by_columns)
    monkeypatch.setattr(linalg, "_rref_stack_mod_2", packed_stack)
    for module in (linalg, coadjoint):
        monkeypatch.setattr(module, "rref_stack_mod_p", stack)
    for alg in (corpus.unitriangular(4, 2), corpus.unitriangular(3, 2, 2),
                corpus.augmentation_ideal("D8", 2), corpus.augmentation_ideal("Q16", 2)):
        alg = parse_algebra_file(serialize_algebra(alg))  # construction runs again
        alg.refine_to_flag()
        census = coadjoint.orbit_census(alg)
        lam_rows = base_p_digits(census.reps, 2, alg.T.shape[0]).astype(np.int64)
        coadjoint._polarizations(alg, lam_rows)
        coadjoint.transitivity_check(alg, census.count - 1, census)
        eng = AlgebraGroup(alg)
        eng.k(), eng.abelianization_order()
    assert calls["packed stacks"] == calls["stacks"] > 0


def _nullspace_by_two_eliminations(rows, ncols, p):
    """Reference kernel: eliminate the rows, set each free variable to 1 in
    turn, solve for the pivot variables, and eliminate those rows again."""
    ech, pivots = rref_mod_p(np.reshape(rows, (-1, ncols)), p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    if pivots:
        basis[:, pivots] = (-ech[:, free]).T % p
    return rref_mod_p(basis, p)[0]


@st.composite
def matrices(draw):
    """(p, mat): one m x n matrix, entries in [-p, 2p); a third of them zero."""
    p, mats = draw(stacks())
    return p, mats[0]


def _matrix_examples(test):
    for p, mats in EXAMPLES:
        for mat in mats:
            test = example(case=(p, mat))(test)
    return test


@settings(max_examples=300, deadline=None)
@given(case=matrices())
@_matrix_examples
def test_nullspace_mod_p_matches_two_eliminations(case):
    p, mat = case
    n = mat.shape[1]
    rows = nullspace_mod_p(mat, n, p)
    want = _nullspace_by_two_eliminations(mat, n, p)
    assert rows.dtype == np.int64 and rows.shape == want.shape == (len(want), n)
    assert rows.tolist() == want.tolist()


@st.composite
def small_spaces(draw):
    """(p, mat) with mat of shape (m, n) and p^n <= 4096."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, int(np.log(4096.5) / np.log(p))))
    m = draw(st.integers(1, 6))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=m * n, max_size=m * n))
    return p, np.array(entries, dtype=np.int64).reshape(m, n)


@settings(max_examples=100, deadline=None)
@given(case=small_spaces())
@example(case=(2, np.zeros((3, 12), dtype=np.int64)))
@example(case=(3, _full_rank(3, 7, 7)))
@example(case=(5, _full_rank(5, 6, 5)))
def test_nullspace_mod_p_is_the_kernel_by_brute_force(case):
    # every x in (Z/p)^n with A x = 0, against the span of the kernel rows
    p, mat = case
    n = mat.shape[1]
    points = base_p_digits(np.arange(p ** n), p, n).astype(np.int64)
    kernel = np.flatnonzero(~(points @ mat.T % p).any(axis=1))
    rows = nullspace_mod_p(mat, n, p)
    span = base_p_digits(np.arange(p ** len(rows)), p, len(rows)) @ rows % p
    assert np.array_equal(np.unique(span @ p ** np.arange(n)), kernel)


def test_nullspace_mod_p_takes_one_elimination(monkeypatch):
    calls = []
    for name in ("rref_mod_p", "rref_stack_mod_p"):
        honest = getattr(linalg, name)
        monkeypatch.setattr(linalg, name,
                            lambda *args, honest=honest: calls.append(args) or honest(*args))
    for p, mats in EXAMPLES:
        for mat in mats:
            calls.clear()
            nullspace_mod_p(mat, mat.shape[1], p)
            assert len(calls) == 1


def test_base_p_digits_match_divmod():
    for p, width, codes in ((2, 5, range(32)), (3, 4, [0, 80, 41]), (251, 2, [63000]),
                            (2, 70, [2 ** 69 + 5, 3])):
        digits = base_p_digits(codes, p, width)
        assert digits.dtype == np.min_scalar_type(p - 1)
        assert digits.tolist() == [[c // p ** t % p for t in range(width)] for c in codes]


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


def test_matmul_exact_takes_each_route_within_its_bound():
    # sum |a||b| = 2^53 - 2^26: float64; (2^27 + 1)(2^26 + 1), odd and past
    # 2^53: int64; 2^80: exact ints
    for A, B, dtype in (([[2**26, 2**26]], [[2**26 - 1], [2**26]], np.int64),
                        ([[2**27 + 1]], [[-(2**26) - 1]], np.int64),
                        ([[2**40, 1]], [[2**40], [-1]], object)):
        A, B = np.array(A, dtype=object), np.array(B, dtype=object)
        want = A @ B
        got = matmul_exact(A, B, int((np.abs(A) @ np.abs(B)).max()))
        assert got.dtype == dtype and got.tolist() == want.tolist()


def test_matmul_exact_float_route_fails_past_its_bound(monkeypatch):
    # (2^27 + 1)(2^26 + 1) = 2^53 + 3 * 2^26 + 1 is odd and past 2^53, so no
    # float64 holds it: the float route forced past its bound rounds it
    A, B = np.array([[2**27 + 1]]), np.array([[2**26 + 1]])
    want = (2**27 + 1) * (2**26 + 1)
    assert matmul_exact(A, B, want).tolist() == [[want]]
    monkeypatch.setattr(linalg, "_FLOAT64_EXACT", 2**63)
    assert matmul_exact(A, B, want).tolist() != [[want]]
