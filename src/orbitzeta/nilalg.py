"""Finite dimensional nilpotent associative algebras over F_q, given by
structure constants on a fixed basis.

AlgVector coefficient tuples over F_q are the element API and the reference
route for products.  Bulk work runs over Z/p instead: J has the prime basis
omega^m b_i at t = i*e + m, and the structure tensor T[s, t] holds the prime
coordinates of b_s * b_t.  Subspaces are reduced echelon bases of Z/p rows
on that basis, so subspace equality is representation equality and an
F_q-dimension is len(rows) // e.  Every algebra verifies associativity and
nilpotency at construction time.
"""

from __future__ import annotations

import numpy as np

from .budgets import Budgets
from .errors import ValidationError
from .ffield import Field, FieldElement, make_field, p_adic
from .linalg import reduce_mod_p, rref_mod_p


# T holds n^3 int64 entries (16 MB at n = 128); augmentation ideals of
# groups of order 128 are the largest algebras the corpus builds
_PRIME_DIM_MAX = 128


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
    """Nilpotent associative F_q-algebra with sparse structure constants.

    table maps a basis pair (i, j) to a tuple of (k, coeff) terms giving
    b_i * b_j; absent pairs multiply to zero.  T is the same multiplication
    over Z/p on the prime basis t = i*e + m (see prime_basis_vector):
    b_s * b_t has prime coordinates T[s, t].  omega is the matrix of
    multiplication by omega on prime coordinate rows.
    """

    def __init__(self, field: Field, dim: int, table, *, name: str | None = None,
                 check: bool = True):
        if dim < 1:
            raise ValidationError("algebra dimension must be >= 1")
        self.field = field
        self.dim = dim
        self.name = name or f"nilalg(d={dim},{field.name})"
        self.table: dict[tuple[int, int], tuple[tuple[int, FieldElement], ...]] = {}
        for (i, j), terms in table.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValidationError(f"structure constant index ({i},{j}) out of range")
            clean = tuple((k, c) for (k, c) in terms if not c.is_zero())
            for k, _ in clean:
                if not 0 <= k < dim:
                    raise ValidationError(f"structure constant target {k} out of range")
            if clean:
                self.table[(i, j)] = clean
        self._build_tensor()
        if check:
            self._verify_associativity()
        self.powers = self._power_ideal_chain()
        self.nilpotency_class = len(self.powers)  # least n with J^n = 0
        self._flag = None

    def _build_tensor(self) -> None:
        p, e, d = self.field.p, self.field.e, self.dim
        n = d * e
        if n > _PRIME_DIM_MAX:
            raise ValidationError(
                f"J has dimension {n} over Z/p; the structure tensor needs n^3 "
                f"entries and supports n <= {_PRIME_DIM_MAX}")
        # companion matrix: digits(omega * x) = comp @ digits(x)
        comp = np.zeros((e, e), dtype=np.int64)
        comp[np.arange(1, e), np.arange(e - 1)] = 1
        comp[:, e - 1] = [-c % p for c in self.field.modulus[:e]]
        pw = [np.eye(e, dtype=np.int64)]
        for _ in range(2 * e - 2):
            pw.append(comp @ pw[-1] % p)
        # (omega^a b_i)(omega^c b_j) = omega^(a+c) b_i b_j
        shift = np.array([[pw[a + c] for c in range(e)] for a in range(e)])
        coeffs = np.zeros((d, d, d, e), dtype=np.int64)
        for (i, j), terms in self.table.items():
            for k, c in terms:
                coeffs[i, j, k] += c.coeffs  # repeated targets add up
        self.T = np.einsum("acrs,ijks->iajckr", shift, coeffs).reshape(n, n, n) % p
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
        p = self.field.p
        n = self.dim * self.field.e
        digits = []
        for _ in range(n):
            digits.append(code % p)
            code //= p
        return self.from_flat(digits)

    def iter_vectors(self):
        for code in range(self.field.q ** self.dim):
            yield self.unpack(code)

    def multiply(self, u: AlgVector, v: AlgVector) -> AlgVector:
        dense = [self.field.zero] * self.dim
        ui = [(i, a) for i, a in enumerate(u.coeffs) if not a.is_zero()]
        vj = [(j, b) for j, b in enumerate(v.coeffs) if not b.is_zero()]
        for i, a in ui:
            for j, b in vj:
                terms = self.table.get((i, j))
                if not terms:
                    continue
                ab = a * b
                for k, c in terms:
                    dense[k] = dense[k] + ab * c
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
        left = np.asarray(U, dtype=np.int64).reshape(-1, n) @ self.T.reshape(n, n * n) % p
        return np.einsum("jt,itx->ijx", np.asarray(V, dtype=np.int64).reshape(-1, n),
                         left.reshape(-1, n, n)) % p

    def _ideal_products(self, rows) -> np.ndarray:
        """The rows v * b_t and b_t * v for every row v and prime basis vector b_t."""
        n = self.T.shape[0]
        eye = np.eye(n, dtype=np.int64)
        return np.concatenate([self._products_of(rows, eye).reshape(-1, n),
                               self._products_of(eye, rows).reshape(-1, n)])

    def is_fq_subspace(self, rows) -> bool:
        """Whether the Z/p-span of prime coordinate rows is an F_q-subspace,
        that is, invariant under multiplication by omega."""
        if self.field.e == 1:
            return True
        ech, piv = rref_mod_p(rows, self.field.p)
        scaled = np.asarray(ech, dtype=np.int64).reshape(-1, self.T.shape[0]) @ self.omega
        return not reduce_mod_p(ech, piv, scaled, self.field.p).any()

    # ----------------------------------------------------- verification --

    def _verify_associativity(self) -> None:
        p, e, d = self.field.p, self.field.e, self.dim
        T, n = self.T, self.T.shape[0]
        if d > 64:  # sampled above the exhaustive cutoff
            import random

            rng = random.Random(0xA550C)
            for _ in range(20000):
                i, j, k = (rng.randrange(d) for _ in range(3))
                left = T[i * e, j * e] @ T[:, k * e] % p
                right = T[j * e, k * e] @ T[i * e] % p
                if not np.array_equal(left, right):
                    raise ValidationError(
                        f"structure constants not associative at basis triple ({i},{j},{k})")
            return
        # (b_i b_j) b_k and b_i (b_j b_k) over the F_q basis, one i at a time
        lower = T[::e, ::e].reshape(d * d, n)
        upper = T[:, ::e].reshape(n, d * n)
        for i in range(d):
            left = (T[i * e, ::e] @ upper % p).reshape(d, d, n)
            right = (lower @ T[i * e] % p).reshape(d, d, n)
            bad = np.argwhere((left != right).any(axis=2))
            if bad.size:
                j, k = (int(x) for x in bad[0])
                raise ValidationError(
                    f"structure constants not associative at basis triple ({i},{j},{k})")

    # ----------------------------------------------------------- chains --

    def _power_ideal_chain(self):
        """Echelon bases of J = J^1 >= J^2 >= ..., stopping at the first zero power.

        Returns the list [basis(J^1), .., basis(J^{c-1})] where J^c = 0; the
        nilpotency class is one more than the list length of nonzero powers.
        """
        p, n = self.field.p, self.T.shape[0]
        chain = [rref_mod_p(np.eye(n, dtype=np.int64), p)]
        while True:
            prev_rows, _ = chain[-1]
            if not prev_rows:
                break
            nxt = rref_mod_p(self._ideal_products(prev_rows), p)
            if len(nxt[0]) >= len(prev_rows):
                raise ValidationError("algebra is not nilpotent: power chain stalled")
            chain.append(nxt)
            if len(chain) > self.dim + 1:
                raise ValidationError("algebra is not nilpotent")
        return chain  # chain[k] is basis of J^{k+1}; last entry is empty

    def power_basis(self, k: int):
        """Echelon basis (rows, pivots) of J^k, k >= 1; empty beyond the class."""
        if k < 1:
            raise ValidationError("power index must be >= 1")
        if k - 1 < len(self.powers):
            return self.powers[k - 1]
        return [], []

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
            cur_rows, cur_piv = list(lower_rows), list(lower_piv)
            intermediates = []
            for v in upper_rows:
                if not reduce_mod_p(cur_rows, cur_piv, v, p).any():
                    continue
                multiples = [np.asarray(v, dtype=np.int64)]
                for _ in range(e - 1):
                    multiples.append(multiples[-1] @ self.omega % p)
                cur_rows, cur_piv = rref_mod_p(cur_rows + [tuple(w) for w in multiples], p)
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

    # ------------------------------------------------------ subalgebras --

    def subalgebra(self, rows, *, name: str | None = None,
                   check: bool = True) -> tuple["NilAlgebra", list[tuple[int, ...]]]:
        """The algebra structure on an F_q-subspace closed under multiplication.

        rows span the subspace in ambient prime coordinates.  Its reduced
        echelon rows are omega^m v_i at t = i*e + m, where v_i are the F_q
        echelon rows; they become the prime basis of the new algebra, with
        basis v_i.  Returns the new algebra and those echelon rows.
        """
        p, e = self.field.p, self.field.e
        ech, piv = rref_mod_p(rows, p)
        if not ech:
            raise ValidationError("zero subalgebra has no basis")
        if not self.is_fq_subspace(ech):
            raise ValidationError("subspace is not closed under F_q scaling")
        basis = np.asarray(ech, dtype=np.int64)[::e]
        prods = self._products_of(basis, basis)
        if reduce_mod_p(ech, piv, prods, p).any():
            raise ValidationError("subspace is not closed under multiplication")
        coords = prods[..., piv]  # prime coordinates in the new algebra
        sub_dim = len(basis)
        table = {}
        for i in range(sub_dim):
            for j in range(sub_dim):
                terms = tuple((k, self.field.element(coords[i, j, k * e:(k + 1) * e]))
                              for k in range(sub_dim) if coords[i, j, k * e:(k + 1) * e].any())
                if terms:
                    table[(i, j)] = terms
        sub = NilAlgebra(self.field, sub_dim, table, name=name or f"{self.name}|sub",
                         check=check)
        return sub, ech


# ------------------------------------------------------------ constructors --

def make_unitriangular(n: int, field: Field) -> NilAlgebra:
    """u_n(F_q): strictly upper triangular n x n matrices.

    Basis e_ij (i < j) ordered by (j - i, i); nilpotency class is n.
    """
    if n < 2:
        raise ValidationError("unitriangular algebra needs n >= 2")
    pairs = sorted(((i, j) for i in range(n) for j in range(i + 1, n)),
                   key=lambda ij: (ij[1] - ij[0], ij[0]))
    index = {ij: t for t, ij in enumerate(pairs)}
    one = field.one
    table = {}
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            if j == k:
                table[(a, b)] = ((index[(i, l)], one),)
    alg = NilAlgebra(field, len(pairs), table, name=f"u_{n}({field.name})")
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
    e = group.identity
    elems = [x for x in range(m) if x != e]
    index = {x: t for t, x in enumerate(elems)}
    one = field.one
    minus = -field.one
    table = {}
    for a, g in enumerate(elems):
        for b, h in enumerate(elems):
            gh = group.mult(g, h)
            terms: dict[int, FieldElement] = {}
            if gh != e:
                terms[index[gh]] = one
            terms[a] = terms.get(a, field.zero) + minus
            terms[b] = terms.get(b, field.zero) + minus
            clean = tuple((k, c) for k, c in sorted(terms.items()) if not c.is_zero())
            if clean:
                table[(a, b)] = clean
    return NilAlgebra(field, m - 1, table, name=f"I_{field.name}[{group.name}]")


def make_zero_algebra(dim: int, field: Field) -> NilAlgebra:
    """J with J*J = 0; the algebra group 1+J is elementary abelian."""
    return NilAlgebra(field, dim, {}, name=f"zero(d={dim},{field.name})")


# ----------------------------------------------------------------- files --

def parse_algebra_file(text: str, budgets: Budgets | None = None,
                       name=None) -> NilAlgebra:
    """Parse 'alg p e d' followed by sparse structure lines 'i j k coeff'.

    coeff is the integer code of a field element (base-p digits, constant
    term least significant).
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
    table: dict[tuple[int, int], list] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 4:
            raise ValidationError(f"bad structure line: {ln!r}")
        try:
            i, j, k, code = (int(x) for x in parts)
        except ValueError:
            raise ValidationError(f"structure line has non-integer tokens: {ln!r}") from None
        coeff = field.from_code(code)
        table.setdefault((i, j), []).append((k, coeff))
    return NilAlgebra(field, d, {ij: tuple(t) for ij, t in table.items()}, name=name)


def serialize_algebra(alg: NilAlgebra) -> str:
    f = alg.field
    out = [f"alg {f.p} {f.e} {alg.dim}"]
    for (i, j), terms in sorted(alg.table.items()):
        for k, c in terms:
            out.append(f"{i} {j} {k} {c.code}")
    return "\n".join(out) + "\n"
