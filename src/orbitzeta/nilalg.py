"""Finite dimensional nilpotent associative algebras over F_q, given by
structure constants on a fixed basis.

An element of J is a digit row: its coefficient on b_i is the F_q
element with digits row[i*e : (i+1)*e], constant term first, so the row is
also its coordinates on the prime basis omega^m b_i at t = i*e + m, and
its code is sum_t row[t] p^t.  Products have two routes.  The C route,
_fq_products, multiplies batches of F_q digit arrays through the structure
constants C with polynomial arithmetic reduced by the modulus; it is the
reference that T is checked against.  Bulk work runs over Z/p: the
structure tensor T[s, t] holds the prime coordinates of b_s * b_t.  A
subspace is a pair (rows, pivots) as in linalg: an int64 array of its
reduced echelon rows on that basis and their pivot columns, so subspace
equality is array equality and an F_q-dimension is len(rows) // e.  Every
algebra proves itself associative and nilpotent at construction time, by
Light's test over a complement V of J^2 and the power chain through V
(NilAlgebra._verified_power_chain).
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .ffield import Field, make_field, p_adic
from .linalg import base_p_digits, int_rows, matmul_mod_p, reduce_mod_p, rref_mod_p


# T holds n^3 int64 entries (16 MB at n = 128); augmentation ideals of
# groups of order 128 are the largest algebras the corpus builds
_PRIME_DIM_MAX = 128

# pair products x_s y_t per block of NilAlgebra._mul_rows: bounds its
# (rows, n^2) temporaries
_PAIRS_BATCH = 2 ** 16


def _check_size(field: Field, d: int) -> None:
    """The bounds on J that hold before any array of its size exists."""
    if d < 1:
        raise ValidationError("algebra dimension must be >= 1")
    n = d * field.e
    if n > _PRIME_DIM_MAX:
        raise ValidationError(
            f"J has dimension {n} over Z/p; the structure tensor needs n^3 "
            f"entries and supports n <= {_PRIME_DIM_MAX}")
    # a Z/p contraction sums n products of residues in int64
    if n * (field.p - 1) ** 2 >= 2**63:
        raise ValidationError(f"J has dimension {n} over Z/{field.p}; int64 "
                              "contractions need n (p-1)^2 < 2^63")


def _support(X):
    """The columns of X with a nonzero entry; a slice when that is all of
    them, so that indexing by it copies nothing."""
    cols = X.any(axis=0)
    return slice(None) if cols.all() else np.flatnonzero(cols)


def _zero_constants(field: Field, d: int) -> np.ndarray:
    _check_size(field, d)
    return np.zeros((d, d, d, field.e), dtype=np.int64)


class NilAlgebra:
    """Nilpotent associative F_q-algebra given by its structure constants.

    C[i, j, k] holds the F_q digits (constant term first) of the
    coefficient of b_k in b_i * b_j.  T is the same multiplication over Z/p
    on the prime basis t = i*e + m (see the module docstring): b_s * b_t has
    prime coordinates T[s, t].  omega is the matrix of multiplication by
    omega on prime coordinate rows.
    """

    def __init__(self, field: Field, C, *, name: str | None = None):
        C = np.asarray(C, dtype=np.int64)
        d = len(C)
        if C.shape != (d, d, d, field.e):
            raise ValidationError(
                f"structure constants need shape (d, d, d, {field.e}), got {C.shape}")
        _check_size(field, d)
        self.field = field
        self.dim = d
        self.name = name or f"nilalg(d={d},{field.name})"
        self.C = C % field.p
        self._build_tensor()
        self.powers = self._verified_power_chain()
        self.nilpotency_class = len(self.powers)  # least n with J^n = 0
        self._flag = None

    def _build_tensor(self) -> None:
        p, e, d = self.field.p, self.field.e, self.dim
        n = d * e
        # companion matrix: digits(omega * x) = comp @ digits(x)
        comp = np.zeros((e, e), dtype=np.int64)
        comp[np.arange(1, e), np.arange(e - 1)] = 1
        comp[:, e - 1] = [-c % p for c in self.field.modulus[:e]]
        pw = [np.eye(e, dtype=np.int64)]
        for _ in range(2 * e - 2):
            pw.append(comp @ pw[-1] % p)
        # (omega^a b_i)(omega^c b_j) = omega^(a+c) b_i b_j
        shift = np.array([[pw[a + c] for c in range(e)] for a in range(e)])
        self.T = np.einsum("acrs,ijks->iajckr", shift, self.C).reshape(n, n, n) % p
        self.omega = np.kron(np.eye(d, dtype=np.int64), comp.T)

    # ------------------------------------------------------- products --

    def _fq_products(self, U, V) -> np.ndarray:
        """Row-wise products u_b * v_b over F_q from C, for digit arrays U and
        V of shape (B, d, e) (or flat rows of length d e), as a (B, d, e)
        array: the C route, which uses neither T nor omega.

        Two contractions over the basis: left[b, j, k], the coefficient of
        b_k in u_b * b_j, is sum_i u_bi C[i, j, k]; then the coefficient of
        b_k in u_b * v_b is sum_j left[b, j, k] v_bj.  Each stage forms the
        products of the digits of its F_q factors and sums at most d <= n of
        them per entry in matmul_mod_p, exact while n (p-1)^2 < 2^63 (the
        bound of _check_size), reduced mod p; ffield then collects the digit
        products by degree and reduces them by the modulus, to residues
        again before the next stage.
        """
        f, d, e = self.field, self.dim, self.field.e
        U, V = (np.asarray(X, dtype=np.int64).reshape(-1, d, e) for X in (U, V))
        # left[b, (j, k, c), a] = sum_i C[i, j, k, c] U[b, i, a]
        left = matmul_mod_p(self.C.reshape(d, d * d * e).T, U, f.p)
        left = f.reduce_digit_products(left.reshape(-1, d, d, e, e))
        # out[b, (k, c), a] = sum_j left[b, j, k, c] V[b, j, a]
        out = matmul_mod_p(left.transpose(0, 2, 3, 1).reshape(-1, d * e, d), V, f.p)
        return f.reduce_digit_products(out.reshape(-1, d, e, e))

    # -------------------------------------------- prime coordinate rows --

    def _mul_rows(self, X, Y) -> np.ndarray:
        """Row-wise products x_r * y_r of prime coordinate rows, as residues.

        x y = sum_(s,t) x_s y_t T[s, t], so one product per block of rows:
        pairs[r, s n + t] = x_rs y_rt mod p against T as an (n^2, n) matrix,
        float64 BLAS while n^2 (p-1)^2 < 2^53 (matmul_mod_p).  A block holds
        at most _PAIRS_BATCH pairs."""
        p, n = self.field.p, self.T.shape[0]
        X = np.asarray(X, dtype=np.int64).reshape(-1, n)
        Y = np.asarray(Y, dtype=np.int64).reshape(-1, n)
        T = self.T.reshape(n * n, n)
        out = np.empty(X.shape, dtype=np.int64)
        step = max(1, _PAIRS_BATCH // (n * n))
        for lo in range(0, len(X), step):
            pairs = X[lo:lo + step, :, None] * Y[lo:lo + step, None, :]
            pairs -= pairs // p * p
            out[lo:lo + step] = matmul_mod_p(pairs.reshape(-1, n * n), T, p)
        return out

    def _products_of(self, U, V) -> np.ndarray:
        """All products u_i * v_j of prime coordinate rows, shape (|U|, |V|, n)."""
        p, n = self.field.p, self.T.shape[0]
        # left[i, t] = u_i * b_t, and u_i * v_j = sum_t v_jt left[i, t]
        left = matmul_mod_p(np.reshape(U, (-1, n)), self.T.reshape(n, n * n), p)
        return matmul_mod_p(np.reshape(V, (-1, n)), left.reshape(-1, n, n), p)

    def is_fq_subspace(self, rows) -> bool:
        """Whether the Z/p-span of reduced echelon rows is an F_q-subspace,
        that is, invariant under multiplication by omega.  The pivot of a
        reduced row is its first nonzero column.

        The slow reference, one span at a time, of the batched closure tests
        in the census (_radicals_by_row) and the polarizations, which the
        tests compare with it."""
        if self.field.e == 1:
            return True
        pivots = np.argmax(rows != 0, axis=1)
        return not reduce_mod_p(rows, pivots, rows @ self.omega, self.field.p).any()

    # ------------------------------------------- verification and chain --

    def _verified_power_chain(self):
        """Echelon bases of the powers J = J^1 > J^2 > .. > J^c = 0, the last
        one empty, so the nilpotency class c is the length of the list; made
        while proving that J is associative and nilpotent, without a scan
        of all basis triples.

        1. J^2 is the span of the n^2 products b_s b_t, the rows of T: one
           elimination, which presumes no associativity.
        2. V is spanned by the prime unit vectors off the pivots of J^2, so
           J = V + J^2.
        3. Light's test: (x a) y = x (a y) for all F_q basis vectors x, a
           and y, where a = b_j runs over the b_j whose F_q-span meets V in a
           prime unit vector (_light_test).  T is F_q-bilinear, so the
           associator is F_q-trilinear: this holds for all x and y in J and
           every a in the F_q-span of those b_j, V included.
        4. The chain P_1 = J, P_(k+1) = P_k V, one product with the g columns
           of T at V and one elimination per step; it must fall strictly to
           P_c = 0.
        5. The certificate: P_2 = J V, which lies in J^2, has its dimension.

        Why that suffices.  M = {a : (x a) y = x (a y) for all x, y} is a
        subspace, the associator being trilinear, and it is closed under
        products (Light's argument): for a and b in M, x (a b) = (x a) b,
        so (x (a b)) y = ((x a) b) y = (x a) (b y) = x (a (b y))
        = x ((a b) y).  Step 3 puts V in M.  Steps 2 and 5 give
        J = V + J V, and then P_k <= V^k + P_(k+1) for every k, with V^k the
        span of the left-normed products of k elements of V: P_1 = V + P_2,
        and P_(k+1) = P_k V <= V^(k+1) + P_(k+2).  So at P_c = 0 every
        element of J is a sum of products of elements of V, which M holds:
        M = J, and J is associative.  Then a product of m >= k elements of
        J is a sum of products of at least k elements of V, each of which
        lies in J V^(k-1) = P_k: the P_k are the powers J^k, and J^c = 0.

        Conversely an associative nilpotent J passes every step:
        J^2 = J V + J^m for every m, so J V = J^2, and P_k = J^k falls
        strictly to 0.  So when a step fails, J is not associative or not
        nilpotent, and _reject tells which.
        """
        p, e, n = self.field.p, self.field.e, self.T.shape[0]
        # keep only the pivots of J^2: its echelon rows are a view that would
        # keep the whole matrix of n^2 products alive
        square_pivots = rref_mod_p(self.T.reshape(n * n, n), p)[1]
        in_v = np.ones(n, dtype=bool)
        in_v[square_pivots] = False
        if not self._light_test(np.flatnonzero(in_v.reshape(-1, e).any(axis=1)) * e):
            self._reject()
        # row s: the products b_s a for the g vectors a of V
        times_v = self.T[:, in_v].reshape(n, -1)
        chain = [(np.eye(n, dtype=np.int64), list(range(n)))]
        while len(chain[-1][0]):
            rows = chain[-1][0]
            chain.append(rref_mod_p(matmul_mod_p(rows, times_v, p).reshape(-1, n), p))
            if len(chain[-1][0]) >= len(rows):
                self._reject()
        if len(chain[1][0]) != len(square_pivots):
            self._reject()
        return chain

    def _light_test(self, middle) -> bool:
        """Whether (b_i a) b_k = b_i (a b_k) for every prime basis vector a
        at an index in middle and all F_q basis vectors b_i and b_k: two
        products per a, one at a time, each over the prime coordinates on
        which some b_i a, or some a b_k, is nonzero."""
        p, e, d = self.field.p, self.field.e, self.dim
        T, n = self.T, self.T.shape[0]
        # row s: b_s b_k for every k; and b_i b_u for every i and u
        times_basis = T[:, ::e].reshape(n, d * n)
        basis_times = T[::e]
        for a in middle:
            xa, ay = T[::e, a], T[a, ::e]
            if not (xa.any() or ay.any()):
                continue  # a annihilates J on both sides
            s, u = _support(xa), _support(ay)
            left = matmul_mod_p(xa[:, s], times_basis[s], p)
            right = matmul_mod_p(ay[:, u], basis_times[:, u], p)
            if not np.array_equal(left.reshape(d, d, n), right):
                return False
        return True

    def _reject(self):
        """Raise for an algebra that a step of _verified_power_chain refused:
        at its first nonassociative basis triple (i, j, k), found by a scan
        of every triple, or, if there is none, as not nilpotent."""
        p, e, d = self.field.p, self.field.e, self.dim
        T, n = self.T, self.T.shape[0]
        # (b_i b_j) b_k and b_i (b_j b_k) over the F_q basis, one i at a time,
        # each over the prime coordinates where some b_i b_j, or some b_i b_u,
        # is nonzero; a b_i with b_i J = 0 has no nonzero associator
        lower = T[::e, ::e].reshape(d * d, n)
        upper = T[:, ::e].reshape(n, d * n)
        for i in np.flatnonzero(T[::e].any(axis=(1, 2))):
            s, u = _support(T[i * e, ::e]), _support(T[i * e].T)
            left = matmul_mod_p(T[i * e, ::e][:, s], upper[s], p).reshape(d, d, n)
            right = matmul_mod_p(lower[:, u], T[i * e][u], p).reshape(d, d, n)
            if not np.array_equal(left, right):
                j, k = (int(x) for x in np.argwhere((left != right).any(axis=2))[0])
                raise ValidationError(
                    f"structure constants not associative at basis triple ({i},{j},{k})")
        raise ValidationError("algebra is not nilpotent: power chain stalled")

    # ----------------------------------------------------------- chains --

    def is_p_nilpotent(self) -> bool:
        return self.nilpotency_class <= self.field.p

    def derived_lie_subspace(self):
        """Echelon basis of the span of all brackets [b_s, b_t], from those
        with s < t: [b_t, b_s] = -[b_s, b_t], and [b_s, b_s] = 0."""
        s, t = np.triu_indices(self.T.shape[0], 1)
        return rref_mod_p(self.T[s, t] - self.T[t, s], self.field.p)

    def refine_to_flag(self) -> np.ndarray:
        """An (n, n) int64 basis B of J, n = dim * e, whose suffixes B[e i:]
        for i = 0 .. dim - 1 span a chain of ideals J = J_1 > J_2 > .. > 0
        with F_q-codimension-1 steps: the ideal flag.

        It refines the power chain.  Above J^(m+1), each step adds the
        F_q-multiples of the earliest echelon row of J^m outside the span so
        far; B holds each layer's blocks in reverse order, so the suffixes are
        those spans, J^(m+1) last.  A block adds e rows, as J^m and J^(m+1)
        are F_q-subspaces.  Every W with J^(m+1) <= W <= J^m is a two-sided
        ideal: J W + W J <= J^(m+1) <= W.
        """
        if self._flag is None:
            p, e = self.field.p, self.field.e
            layers = []
            for (upper_rows, _), (cur_rows, cur_piv) in zip(self.powers, self.powers[1:]):
                blocks = []
                for v in upper_rows:
                    if reduce_mod_p(cur_rows, cur_piv, v, p).any():
                        block = [v]
                        for _ in range(e - 1):
                            block.append(block[-1] @ self.omega % p)
                        blocks.append(block)
                        cur_rows, cur_piv = rref_mod_p(np.concatenate([cur_rows, block]), p)
                layers += blocks[::-1]
            self._flag = np.concatenate(layers)
        return self._flag


# ------------------------------------------------------------ constructors --

def make_unitriangular(n: int, field: Field) -> NilAlgebra:
    """u_n(F_q): strictly upper triangular n x n matrices.

    Basis e_ij (i < j) ordered by (j - i, i); nilpotency class is n.
    """
    if n < 2:
        raise ValidationError("unitriangular algebra needs n >= 2")
    C = _zero_constants(field, n * (n - 1) // 2)
    pairs = np.array(sorted(((i, j) for i in range(n) for j in range(i + 1, n)),
                            key=lambda ij: (ij[1] - ij[0], ij[0])))
    index = np.zeros((n, n), dtype=np.int64)
    index[pairs[:, 0], pairs[:, 1]] = np.arange(len(pairs))
    # e_ij e_kl = e_il when j = k
    a, b = np.nonzero(pairs[:, 1, None] == pairs[None, :, 0])
    C[a, b, index[pairs[a, 0], pairs[b, 1]], 0] = 1
    alg = NilAlgebra(field, C, name=f"u_{n}({field.name})")
    if alg.nilpotency_class != n:
        raise ValidationError(f"u_{n} must have class {n}, got {alg.nilpotency_class}")
    return alg


def make_augmentation_ideal(group, field: Field) -> NilAlgebra:
    """I_F[pi]: the augmentation ideal of the group algebra of a p-group over
    a field of the same characteristic, on the basis {g - 1 : g != 1}.
    """
    m = group.order
    if m == 1 or p_adic(m, field.p)[1] != 1:
        raise ValidationError(
            f"group of order {m} is not a nontrivial {field.p}-group; "
            "characteristic must match")
    _check_size(field, m - 1)
    # (g - 1)(h - 1) = (gh - 1) - (g - 1) - (h - 1) over the whole group,
    # then the identity drops out: its g - 1 is zero
    g, h = np.indices((m, m))
    C = np.zeros((m, m, m, field.e), dtype=np.int64)
    C[g, h, group.table, 0] += 1
    C[g, h, g, 0] -= 1
    C[g, h, h, 0] -= 1
    keep = np.arange(m) != group.identity
    return NilAlgebra(field, C[np.ix_(keep, keep, keep)],
                      name=f"I_{field.name}[{group.name}]")


def make_zero_algebra(dim: int, field: Field) -> NilAlgebra:
    """J with J*J = 0; the algebra group 1+J is elementary abelian."""
    return NilAlgebra(field, _zero_constants(field, dim),
                      name=f"zero(d={dim},{field.name})")


# ----------------------------------------------------------------- files --

def parse_algebra_file(text: str, name=None) -> NilAlgebra:
    """Parse 'alg p e d' followed by sparse structure lines 'i j k coeff'.

    coeff is the integer code of a field element (base-p digits, constant
    term least significant); repeated (i, j, k) lines add up.  The body is
    read as one (lines, 4) int64 array by linalg.int_rows; when that fails,
    the lines are checked in order, so an error names the first offending
    line.
    """
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValidationError("empty algebra file")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "alg":
        raise ValidationError("algebra header must be 'alg p e d'")
    try:
        p, e, d = (int(x) for x in header[1:])
    except ValueError:
        raise ValidationError(f"algebra header has non-integer tokens: {lines[0]!r}") from None
    field = make_field(p, e)
    C = _zero_constants(field, d)
    rows = int_rows(lines[1:], 4)
    if rows is None or (rows[:, :3] >= d).any() or (rows[:, 3] >= field.q).any():
        # the first offending line raises; valid lines only get here with
        # codes past int64, when q > 2^63, or with tokens such as +1 or 1_0
        # that int() reads
        rows = np.array([_structure_line(ln, field, d) for ln in lines[1:]],
                        dtype=object).reshape(-1, 4)
    np.add.at(C, tuple(rows[:, :3].astype(np.int64).T), base_p_digits(rows[:, 3], p, e))
    return NilAlgebra(field, C, name=name)


def _structure_line(ln: str, field: Field, d: int) -> tuple[int, ...]:
    """The checked tokens (i, j, k, code) of one structure line."""
    toks = ln.split()
    if len(toks) != 4:
        raise ValidationError(f"bad structure line: {ln!r}")
    try:
        i, j, k, code = (int(x) for x in toks)
    except ValueError:
        raise ValidationError(f"structure line has non-integer tokens: {ln!r}") from None
    if not (0 <= i < d and 0 <= j < d and 0 <= k < d):
        raise ValidationError(f"structure constant index ({i},{j},{k}) out of range")
    if not (0 <= code < field.q):
        raise ValidationError(f"element code {code} out of range for {field.name}")
    return i, j, k, code


def serialize_algebra(alg: NilAlgebra) -> str:
    f = alg.field
    nonzero = np.argwhere(alg.C.any(axis=3))
    # codes as exact Python ints: q may pass 2^63
    codes = alg.C[tuple(nonzero.T)].astype(object) @ np.array(
        [f.p ** m for m in range(f.e)], dtype=object)
    out = [f"alg {f.p} {f.e} {alg.dim}"]
    out += [f"{i} {j} {k} {code}" for (i, j, k), code in zip(nonzero.tolist(), codes.tolist())]
    return "\n".join(out) + "\n"
