"""Finite dimensional nilpotent associative algebras over F_q, given by
structure constants on a fixed basis.

AlgVector coefficient tuples over F_q are the element API and the reference
route for products.  Bulk work runs over Z/p instead: J has the prime basis
omega^m b_i at t = i*e + m, and the structure tensor T[s, t] holds the prime
coordinates of b_s * b_t.  A subspace is a pair (rows, pivots) as in
linalg: an int64 array of its reduced echelon rows on that basis and their
pivot columns, so subspace equality is array equality and an F_q-dimension
is len(rows) // e.  Every algebra verifies associativity and nilpotency at
construction time.
"""

from __future__ import annotations

import random

import numpy as np

from .budgets import Budgets
from .errors import ValidationError
from .ffield import Field, FieldElement, make_field, p_adic
from .linalg import base_p_digits, matmul_mod_p, reduce_mod_p, rref_mod_p


# T holds n^3 int64 entries (16 MB at n = 128); augmentation ideals of
# groups of order 128 are the largest algebras the corpus builds
_PRIME_DIM_MAX = 128


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


def _zero_constants(field: Field, d: int) -> np.ndarray:
    _check_size(field, d)
    return np.zeros((d, d, d, field.e), dtype=np.int64)


class AlgVector:
    """An element of J, a coefficient tuple over the algebra's basis."""

    __slots__ = ("alg", "coeffs")

    def __init__(self, alg: "NilAlgebra", coeffs):
        self.alg = alg
        self.coeffs = tuple(coeffs)

    def __add__(self, other: "AlgVector") -> "AlgVector":
        return AlgVector(self.alg, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "AlgVector") -> "AlgVector":
        return AlgVector(self.alg, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "AlgVector":
        return AlgVector(self.alg, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "AlgVector") -> "AlgVector":
        return self.alg.multiply(self, other)

    def scale(self, c: FieldElement) -> "AlgVector":
        return AlgVector(self.alg, tuple(c * a for a in self.coeffs))

    def bracket(self, other: "AlgVector") -> "AlgVector":
        return self * other - other * self

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.coeffs)

    def flat(self) -> tuple[int, ...]:
        """Prime-field coordinates, field coefficients expanded in place."""
        out = []
        for a in self.coeffs:
            out.extend(a.coeffs)
        return tuple(out)

    def pack(self) -> int:
        p = self.alg.field.p
        out = 0
        for digit in reversed(self.flat()):
            out = out * p + digit
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, AlgVector) and self.alg is other.alg
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((id(self.alg), self.coeffs))

    def __repr__(self) -> str:
        return "vec(" + ", ".join(repr(c) for c in self.coeffs) + ")"


class NilAlgebra:
    """Nilpotent associative F_q-algebra given by its structure constants.

    C[i, j, k] holds the F_q digits (constant term first) of the
    coefficient of b_k in b_i * b_j.  T is the same multiplication over Z/p
    on the prime basis t = i*e + m (see prime_basis_vector): b_s * b_t has
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
        self._verify_associativity()
        self.powers = self._power_ideal_chain()
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

    # ------------------------------------------------------- vector ops --

    def zero_vector(self) -> AlgVector:
        return AlgVector(self, (self.field.zero,) * self.dim)

    def basis_vector(self, i: int) -> AlgVector:
        z = self.field.zero
        return AlgVector(self, tuple(self.field.one if t == i else z for t in range(self.dim)))

    def prime_basis_vector(self, t: int) -> AlgVector:
        """Basis of J as a Z/p-space: omega^m * b_i at t = i*e + m."""
        i, m = divmod(t, self.field.e)
        coeffs = [0] * self.field.e
        coeffs[m] = 1
        z = self.field.zero
        scalar = self.field.element(coeffs)
        return AlgVector(self, tuple(scalar if s == i else z for s in range(self.dim)))

    def vector(self, coeffs) -> AlgVector:
        vals = []
        for c in coeffs:
            vals.append(c if isinstance(c, FieldElement) else self.field.from_int(c))
        if len(vals) != self.dim:
            raise ValidationError(f"vector needs {self.dim} coordinates")
        return AlgVector(self, vals)

    def from_flat(self, flat) -> AlgVector:
        e = self.field.e
        return AlgVector(self, tuple(
            self.field.element(flat[i * e:(i + 1) * e]) for i in range(self.dim)))

    def unpack(self, code: int) -> AlgVector:
        digits = base_p_digits([code], self.field.p, self.dim * self.field.e)
        return self.from_flat(digits[0].tolist())

    def iter_vectors(self):
        for code in range(self.field.q ** self.dim):
            yield self.unpack(code)

    def multiply(self, u: AlgVector, v: AlgVector) -> AlgVector:
        """The product over F_q from C, the reference route for T."""
        f = self.field
        dense = [f.zero] * self.dim
        rows = [i for i, a in enumerate(u.coeffs) if not a.is_zero()]
        cols = [j for j, b in enumerate(v.coeffs) if not b.is_zero()]
        block = self.C[rows][:, cols]
        x, y, k = np.nonzero(block.any(axis=3))  # sorted by (x, y)
        pair = ab = None
        for i, j, t, c in zip(x.tolist(), y.tolist(), k.tolist(), block[x, y, k].tolist()):
            if (i, j) != pair:
                pair, ab = (i, j), u.coeffs[rows[i]] * v.coeffs[cols[j]]
            dense[t] = dense[t] + ab * FieldElement(f, tuple(c))
        return AlgVector(self, dense)

    # -------------------------------------------- prime coordinate rows --

    def _mul_rows(self, X, Y) -> np.ndarray:
        """Row-wise products x_r * y_r of prime coordinate rows."""
        p = self.field.p
        X = np.asarray(X, dtype=np.int64)
        Y = np.asarray(Y, dtype=np.int64)
        out = np.zeros(Y.shape, dtype=np.int64)
        for s in np.flatnonzero(X.any(axis=0)):
            out = (out + X[:, s, None] * (Y @ self.T[s] % p)) % p
        return out

    def _products_of(self, U, V) -> np.ndarray:
        """All products u_i * v_j of prime coordinate rows, shape (|U|, |V|, n)."""
        p, n = self.field.p, self.T.shape[0]
        # left[i, t] = u_i * b_t, and u_i * v_j = sum_t v_jt left[i, t]
        left = matmul_mod_p(np.reshape(U, (-1, n)), self.T.reshape(n, n * n), p)
        return matmul_mod_p(np.reshape(V, (-1, n)), left.reshape(-1, n, n), p)

    def _ideal_products(self, rows) -> np.ndarray:
        """The rows v * b_t and b_t * v for every row v and prime basis vector b_t."""
        p, n = self.field.p, self.T.shape[0]
        rows = np.reshape(rows, (-1, n))
        # b_t * v = sum_s v_s T[t, s]
        return np.concatenate([matmul_mod_p(rows, T.reshape(n, n * n), p).reshape(-1, n)
                               for T in (self.T, self.T.transpose(1, 0, 2))])

    def is_fq_subspace(self, rows) -> bool:
        """Whether the Z/p-span of reduced echelon rows is an F_q-subspace,
        that is, invariant under multiplication by omega.  The pivot of a
        reduced row is its first nonzero column."""
        if self.field.e == 1:
            return True
        pivots = np.argmax(rows != 0, axis=1)
        return not reduce_mod_p(rows, pivots, rows @ self.omega, self.field.p).any()

    # ----------------------------------------------------- verification --

    def _verify_associativity(self) -> None:
        p, e, d = self.field.p, self.field.e, self.dim
        T, n = self.T, self.T.shape[0]
        if d > 64:
            # above the exhaustive cutoff: 20000 seeded triples, evaluated as
            # one product per k for (b_i b_j) b_k and per i for b_i (b_j b_k)
            rng = random.Random(0xA550C)
            i, j, k = np.array([[rng.randrange(d) for _ in range(3)]
                                for _ in range(20000)]).T
            left, right = (np.empty((len(i), n), dtype=np.int64) for _ in range(2))
            for g in np.unique(k):
                at = np.flatnonzero(k == g)
                left[at] = matmul_mod_p(T[i[at] * e, j[at] * e], T[:, g * e], p)
            for g in np.unique(i):
                at = np.flatnonzero(i == g)
                right[at] = matmul_mod_p(T[j[at] * e, k[at] * e], T[g * e], p)
            bad = np.flatnonzero((left != right).any(axis=1))
            if bad.size:
                t = bad[0]
                raise ValidationError("structure constants not associative at basis "
                                      f"triple ({i[t]},{j[t]},{k[t]})")
            return
        # (b_i b_j) b_k and b_i (b_j b_k) over the F_q basis, one i at a time
        lower = T[::e, ::e].reshape(d * d, n)
        upper = T[:, ::e].reshape(n, d * n)
        for i in range(d):
            left = matmul_mod_p(T[i * e, ::e], upper, p).reshape(d, d, n)
            right = matmul_mod_p(lower, T[i * e], p).reshape(d, d, n)
            if not np.array_equal(left, right):
                j, k = (int(x) for x in np.argwhere((left != right).any(axis=2))[0])
                raise ValidationError(
                    f"structure constants not associative at basis triple ({i},{j},{k})")

    # ----------------------------------------------------------- chains --

    def _power_ideal_chain(self):
        """Echelon bases of J = J^1 >= J^2 >= ..., stopping at the first zero power.

        Returns the list [basis(J^1), .., basis(J^{c-1})] where J^c = 0; the
        nilpotency class is one more than the list length of nonzero powers.
        J^(k+1) is spanned by the products v * b_t of the rows v of J^k with
        the prime basis, one product with T.  That one side suffices because
        every NilAlgebra verifies associativity before its chain, and in an
        associative algebra J^k J = J J^k = J^(k+1).  J^1 is the identity,
        which is reduced.
        """
        p, n = self.field.p, self.T.shape[0]
        chain = [(np.eye(n, dtype=np.int64), list(range(n)))]
        while True:
            prev_rows, _ = chain[-1]
            if not len(prev_rows):
                break
            prods = matmul_mod_p(prev_rows, self.T.reshape(n, n * n), p)
            nxt = rref_mod_p(prods.reshape(-1, n), p)
            if len(nxt[0]) >= len(prev_rows):
                raise ValidationError("algebra is not nilpotent: power chain stalled")
            chain.append(nxt)
            if len(chain) > self.dim + 1:
                raise ValidationError("algebra is not nilpotent")
        return chain  # chain[k] is basis of J^{k+1}; last entry is empty

    def power_basis(self, k: int):
        """Echelon basis (rows, pivots) of J^k, k >= 1; empty from the class on."""
        if k < 1:
            raise ValidationError("power index must be >= 1")
        return self.powers[min(k, len(self.powers)) - 1]

    def is_p_nilpotent(self) -> bool:
        return self.nilpotency_class <= self.field.p

    def derived_lie_subspace(self):
        """Echelon basis of the span of all brackets [b_s, b_t]."""
        n = self.T.shape[0]
        return rref_mod_p((self.T - self.T.transpose(1, 0, 2)).reshape(n * n, n),
                          self.field.p)

    def refine_to_flag(self):
        """A chain of ideals J = J_1 > J_2 > .. > 0 with F_q-codimension-1 steps.

        Refines the power chain deterministically: each layer J^m extends
        J^{m+1} by the F_q-multiples of the earliest echelon rows of J^m.
        Verifies J*J_i + J_i*J <= J_{i+1} for every step, which makes each
        member a two-sided ideal.
        """
        if self._flag is not None:
            return self._flag
        p, e = self.field.p, self.field.e
        flag = [self.powers[0]]
        for m in range(len(self.powers) - 1, 0, -1):
            lower_rows, lower_piv = self.powers[m]  # J^{m+1}
            upper_rows, _ = self.powers[m - 1]      # J^m
            cur_rows, cur_piv = lower_rows, lower_piv
            intermediates = []
            for v in upper_rows:
                if not reduce_mod_p(cur_rows, cur_piv, v, p).any():
                    continue
                multiples = [v]
                for _ in range(e - 1):
                    multiples.append(multiples[-1] @ self.omega % p)
                cur_rows, cur_piv = rref_mod_p(np.concatenate([cur_rows, multiples]), p)
                intermediates.append((cur_rows, cur_piv))
            # the last extension re-derives J^m itself; keep strict ones only
            for space in intermediates[:-1]:
                flag.append(space)
            flag.append(self.powers[m])
        flag = sorted(flag, key=lambda sp: -len(sp[0]))
        dims = [len(rows) for rows, _ in flag]
        if dims != [e * k for k in range(self.dim, -1, -1)]:
            raise ValidationError(f"flag refinement produced dimensions {dims}")
        self._verify_flag_ideals(flag)
        self._flag = flag
        return flag

    def _verify_flag_ideals(self, flag) -> None:
        # J*J_i + J_i*J <= J_{i+1} holds for the power-chain refinement and
        # makes every member a two-sided ideal; check it on basis vectors.
        for (rows, _), (nxt_rows, nxt_piv) in zip(flag, flag[1:]):
            prods = self._ideal_products(rows)
            if reduce_mod_p(nxt_rows, nxt_piv, prods, self.field.p).any():
                raise ValidationError("flag member is not an ideal with codim-1 drop")


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

def parse_algebra_file(text: str, budgets: Budgets | None = None,
                       name=None) -> NilAlgebra:
    """Parse 'alg p e d' followed by sparse structure lines 'i j k coeff'.

    coeff is the integer code of a field element (base-p digits, constant
    term least significant); repeated (i, j, k) lines add up.  The body is
    read as one (lines, 4) int64 array; when that fails, the lines are
    checked in order, so an error names the first offending line.
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
    field = make_field(p, e, budgets)
    C = _zero_constants(field, d)
    try:
        rows = np.fromiter(_line_tokens(lines[1:]), dtype=np.int64,
                           count=4 * (len(lines) - 1)).reshape(-1, 4)
        valid = (rows >= 0).all() and (rows[:, :3] < d).all() and (rows[:, 3] < field.q).all()
    except (ValueError, OverflowError):
        valid = False
    if not valid:
        # the first offending line raises; valid lines only get here with
        # codes past int64, when q > 2^63
        rows = np.array([_structure_line(ln, field, d) for ln in lines[1:]],
                        dtype=object).reshape(-1, 4)
    np.add.at(C, tuple(rows[:, :3].astype(np.int64).T), base_p_digits(rows[:, 3], p, e))
    return NilAlgebra(field, C, name=name)


def _line_tokens(lines):
    """The integers of structure lines of four tokens each, in order."""
    for ln in lines:
        toks = ln.split()
        if len(toks) != 4:
            raise ValueError(ln)
        yield from map(int, toks)


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
    field.from_code(code)  # raises unless 0 <= code < q
    return i, j, k, code


def serialize_algebra(alg: NilAlgebra) -> str:
    f = alg.field
    out = [f"alg {f.p} {f.e} {alg.dim}"]
    for i, j, k in np.argwhere(alg.C.any(axis=3)).tolist():
        out.append(f"{i} {j} {k} {f.element(alg.C[i, j, k]).code}")
    return "\n".join(out) + "\n"
