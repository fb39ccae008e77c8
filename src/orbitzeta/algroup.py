"""The algebra group 1+J of a nilpotent algebra J.

Group elements are identified with their J-part, so the tuple of an
AlgVector x stands for 1+x.  Multiplication is (1+x)(1+y) = 1+(x+y+xy);
inversion is the finite geometric series.  For enumeration-scale work the
group action is linearized: conjugation by a fixed element is F_q-linear
on J, so orbit computations run on integer coordinate arrays.
"""

from __future__ import annotations

import functools
import random

import numpy as np

from .budgets import Budgets, check_budget
from .errors import InternalInconsistencyError, ValidationError
from .grouptab import (OrbitPartition, derived_subgroup, generating_set,
                       orbit_partition)
from .linalg import base_p_digits
from .nilalg import AlgVector, NilAlgebra

_SPOT_SEED = 0x11EA5


# ------------------------------------------------------- element algebra --

def gmul(x: AlgVector, y: AlgVector) -> AlgVector:
    """(1+x)(1+y) = 1 + (x + y + xy)."""
    return x + y + x * y


def ginv(x: AlgVector) -> AlgVector:
    """y with (1+x)(1+y) = 1, the truncated geometric series."""
    alg = x.alg
    acc = alg.zero_vector()
    term = alg.zero_vector() - x
    neg = term
    while not term.is_zero():
        acc = acc + term
        term = term * neg
    return acc


def gconj(x: AlgVector, g: AlgVector) -> AlgVector:
    """The J-part of (1+g)^(-1) (1+x) (1+g)."""
    return gmul(gmul(ginv(g), x), g)


def gcomm(x: AlgVector, y: AlgVector) -> AlgVector:
    """The J-part of the group commutator [1+x, 1+y]."""
    return gmul(gmul(ginv(x), ginv(y)), gmul(x, y))


def gexp(x: AlgVector) -> AlgVector:
    """The J-part of exp(x); needs J^p = 0 so the factorials invert."""
    alg = x.alg
    c = alg.nilpotency_class
    if c > alg.field.p:
        raise ValidationError(
            f"exp needs J^p = 0: class {c} exceeds characteristic {alg.field.p}")
    acc = x
    term = x
    fact = 1
    for k in range(2, c):
        term = term * x
        fact *= k
        acc = acc + term.scale(alg.field.from_int(fact).inverse())
    return acc


def glog(y: AlgVector) -> AlgVector:
    """log(1+y) as an element of J; needs J^p = 0."""
    alg = y.alg
    c = alg.nilpotency_class
    if c > alg.field.p:
        raise ValidationError(
            f"log needs J^p = 0: class {c} exceeds characteristic {alg.field.p}")
    acc = y
    term = y
    for k in range(2, c):
        term = term * y
        scalar = alg.field.from_int(k).inverse()
        if k % 2 == 0:
            scalar = -scalar
        acc = acc + term.scale(scalar)
    return acc


def bch(x: AlgVector, y: AlgVector) -> AlgVector:
    """Baker-Campbell-Hausdorff sum truncated at bracket degree 3.

    Exact when J^4 = 0; the factorial denominators force class <= p.
    """
    alg = x.alg
    c = alg.nilpotency_class
    if c > alg.field.p:
        raise ValidationError("BCH needs J^p = 0")
    if c > 4:
        raise ValidationError("BCH truncation implemented only up to class 4")
    out = x + y
    if c > 2:
        half = alg.field.from_int(2).inverse()
        out = out + x.bracket(y).scale(half)
    if c > 3:
        twelfth = alg.field.from_int(12).inverse()
        out = out + (x.bracket(x.bracket(y)) + y.bracket(y.bracket(x))).scale(twelfth)
    return out


# ------------------------------------------------------ linearized group --

# the number of block codes of affine_perm at most: one byte each
_BLOCK_CODE_MAX = 256


def _block_width(p: int) -> int:
    """The largest w with p^w <= _BLOCK_CODE_MAX, and 1 when p exceeds it."""
    w = 1
    while p ** (w + 1) <= _BLOCK_CODE_MAX:
        w += 1
    return w


@functools.cache
def _digit_sum_table(p: int) -> np.ndarray:
    """table[a, b] is the block code of the digit-wise sum mod p of the
    blocks of codes a and b, w = _block_width(p) digits each, as uint8."""
    w = _block_width(p)
    digits = base_p_digits(np.arange(p ** w), p, w)
    return ((digits[:, None] + digits[None, :]) % p @ p ** np.arange(w)).astype(np.uint8)


def _moving(mats) -> list[np.ndarray]:
    """The matrices that are not the identity."""
    return [mat for mat in mats if not np.array_equal(mat, np.eye(len(mat), dtype=mat.dtype))]


class AlgebraGroup:
    """Vectorized view of 1+J: coordinate arrays, conjugation matrices,
    orbit machinery for conjugacy classes and the coadjoint action.

    Group elements are prime coordinate rows of their J-part; the matrices
    come from the structure tensor of J, and a seeded spot check compares
    them with the scalar route gconj."""

    def __init__(self, alg: NilAlgebra, budgets: Budgets | None = None):
        self.alg = alg
        self.budgets = budgets
        self.p = alg.field.p
        self.e = alg.field.e
        self.n = alg.dim * alg.field.e          # prime-field dimension
        self.N = self.p ** self.n               # |1+J|
        self.powers = self.p ** np.arange(self.n, dtype=np.int64)
        self._X = None
        self._L = None
        self._group_perms = None
        self._dual_perms = None
        self._classes = None
        self._dual_orbits = None
        self._gens = None
        self._gen_mats = None
        # 1 + omega^m b_i need not generate 1+J: inside I_F2[D8] they are the
        # embedded dihedral elements and close at order 8.  Orbit machinery
        # uses _generators(), which extends this seed set until the subgroup
        # closure is everything.
        self.prime_generators = np.eye(self.n, dtype=np.int64)
        self._spot_check_linearity()

    # ---------------------------------------------------------- helpers --

    def pack_digits(self, digits: np.ndarray) -> np.ndarray:
        return digits.astype(np.int64) @ self.powers

    def digit_rows(self) -> np.ndarray:
        if self._X is None:
            check_budget(self.budgets, "group_enumeration_max", self.N)
            self._X = base_p_digits(np.arange(self.N), self.p, self.n)
        return self._X

    def log_digit_rows(self) -> np.ndarray:
        """Row x is log(1+x) for every x in code order, in the digit dtype;
        needs J^p = 0."""
        if self._L is None:
            X = self.digit_rows()
            self._L = self._log_rows(X).astype(X.dtype)
        return self._L

    def vector_digits(self, v: AlgVector) -> np.ndarray:
        return np.array(v.flat(), dtype=np.int64)

    def dual_matrix_for(self, g) -> np.ndarray:
        """Matrix of the coadjoint action of 1+g on dual rows: lambda @ M.

        g is the J-part as a prime coordinate row."""
        return self._conjugation_matrix(self._inverse(g))

    def _right_mul_matrix(self, y) -> np.ndarray:
        """Row s is b_s * y, so x * y = x @ R."""
        return np.tensordot(self.alg.T, np.asarray(y, dtype=np.int64), axes=([1], [0])) % self.p

    def _inverse(self, g) -> np.ndarray:
        """J-part of (1+g)^(-1): the truncated series -g + g^2 - ..."""
        minus_r = -self._right_mul_matrix(g) % self.p
        acc = np.zeros(self.n, dtype=np.int64)
        term = -np.asarray(g, dtype=np.int64) % self.p
        while term.any():
            acc = (acc + term) % self.p
            term = term @ minus_r % self.p
        return acc

    def _conjugation_matrix(self, g) -> np.ndarray:
        """M with (1+g)^(-1)(1+x)(1+g) = 1 + (M @ x) % p, x a column."""
        h = self._inverse(g)
        n, p = self.n, self.p
        left_h = h @ self.alg.T.reshape(n, n * n) % p   # row t is h * b_t
        eye = np.eye(n, dtype=np.int64)
        # x -> x + xg + hx + hxg = x (1 + R_g)(1 + L_h) on rows
        rows = (eye + self._right_mul_matrix(g)) @ (eye + left_h.reshape(n, n)) % p
        return rows.T

    def _gmul_rows(self, X, Y) -> np.ndarray:
        """(1+x)(1+y) row-wise, as J-parts."""
        return (X + Y + self.alg._mul_rows(X, Y)) % self.p

    def _log_rows(self, Y) -> np.ndarray:
        """glog row-wise on prime coordinate rows; needs J^p = 0."""
        alg, p = self.alg, self.p
        c = alg.nilpotency_class
        if c > p:
            raise ValidationError(
                f"log needs J^p = 0: class {c} exceeds characteristic {p}")
        Y = np.asarray(Y, dtype=np.int64).reshape(-1, self.n)
        acc = Y % p
        term = acc
        for k in range(2, c):
            term = alg._mul_rows(term, Y)
            scalar = pow(k, -1, p) * (-1 if k % 2 == 0 else 1)
            acc = (acc + scalar % p * term) % p
        return acc

    def _spot_check_linearity(self) -> None:
        rng = random.Random(_SPOT_SEED ^ self.N)
        for g in self.prime_generators[:4]:
            mat, gv = self._conjugation_matrix(g), self.alg.from_flat(g)
            for _ in range(2):
                v = self.alg.unpack(rng.randrange(self.N))
                direct = self.vector_digits(gconj(v, gv))
                linear = (mat @ self.vector_digits(v)) % self.p
                if not np.array_equal(direct, linear):
                    raise InternalInconsistencyError(
                        "conjugation matrix disagrees with direct conjugation")

    # ------------------------------------------------------ permutations --

    def affine_perm(self, mat, shift=None) -> np.ndarray:
        """Packed codes of (x @ mat + shift) % p for every point x, in code order.

        The output digits go in blocks of w, the largest w with p^w <= 256
        (w = 1 when p > 16), and each block is one N-vector of its codes,
        never an N x n digit array.  Digit doubling on block codes: the
        points below p^(t+1) with digit d at t are the points below p^t plus
        d e_t, so their block codes are those below p^t plus the block code
        of d * mat[t], added digit-wise mod p.  For w > 1 that sum is a
        lookup in the p^w x p^w table of _digit_sum_table, and the codes
        stay below p^w <= 256, one byte each.  For w = 1 a code is its digit
        and is added directly: sums stay below 2p - 1, which the unsigned
        digit dtype holds; it then has at least 2p values, so for a digit
        x < p the difference x - p wraps above x and min(x, x - p) is x mod p.
        The blocks are then summed with their powers of p, from the top.
        """
        check_budget(self.budgets, "group_enumeration_max", self.N)
        p, n, N = self.p, self.n, self.N
        mat = np.asarray(mat, dtype=np.int64) % p
        shift = np.zeros(n, dtype=np.int64) if shift is None else np.asarray(
            shift, dtype=np.int64) % p
        # steps[d - 1, t] is the digit row of d * mat[t]
        steps = np.arange(1, p, dtype=np.int64)[:, None, None] * mat % p
        w = _block_width(p)
        table = _digit_sum_table(p) if w > 1 else None
        packed = np.zeros(N, dtype=np.int64)
        for lo in reversed(range(0, n, w)):
            width = min(w, n - lo)
            block_powers = p ** np.arange(width, dtype=np.int64)
            step_codes = steps[:, :, lo:lo + width] @ block_powers
            # uint8 when w > 1, as p <= 16
            codes = np.empty(N, dtype=np.min_scalar_type(2 * p - 2))
            codes[0] = shift[lo:lo + width] @ block_powers
            size = 1
            for t in range(n):
                block = codes[size:p * size].reshape(p - 1, size)
                if table is not None:
                    np.take(table[step_codes[:, t]], codes[:size], axis=1, out=block,
                            mode="clip")
                else:
                    np.add(codes[:size], step_codes[:, t, None].astype(codes.dtype), out=block)
                    np.minimum(block, block - p, out=block)
                size *= p
            packed *= p ** width
            packed += codes
        return packed

    def right_mul_perm(self, y) -> np.ndarray:
        """x -> (1+x)(1+y) on packed codes: x (1 + R_y) + y."""
        y = np.asarray(y, dtype=np.int64)
        return self.affine_perm(np.eye(self.n, dtype=np.int64) + self._right_mul_matrix(y), y)

    def _right_mul_code(self, code) -> np.ndarray:
        return self.right_mul_perm(self.digit_rows()[code])

    def group_perms(self) -> list[np.ndarray]:
        """Permutations of packed J-coordinates: x -> x^g per generator whose
        conjugation is not the identity; a central generator moves nothing."""
        if self._group_perms is None:
            mats, _ = self._generator_matrices()
            self._group_perms = [self.affine_perm(mat.T) for mat in _moving(mats)]
        return self._group_perms

    def dual_perms(self) -> list[np.ndarray]:
        """Permutations of packed dual coordinates under the coadjoint action.

        lambda^g(a) = lambda(a^(g^-1)), i.e. row vectors act through the
        conjugation matrix of the inverse: lambda -> lambda @ M.
        """
        if self._dual_perms is None:
            check_budget(self.budgets, "dual_census_max", self.N)
            _, mats_inv = self._generator_matrices()
            self._dual_perms = [self.affine_perm(mat) for mat in _moving(mats_inv)]
        return self._dual_perms

    # ------------------------------------------------------- generators --

    def _generators(self) -> np.ndarray:
        """A verified generating set of 1+J as digit rows: those seeds
        1 + omega^m b_i that the earlier ones do not generate, then least
        coset representatives until the closure is everything."""
        if self._gens is None:
            T = self.alg.T
            if np.array_equal(T, T.transpose(1, 0, 2)):
                # J commutative: every conjugation is trivial and any seed
                # set serves the orbits
                self._gens = self.prime_generators
            else:
                check_budget(self.budgets, "group_enumeration_max", self.N)
                # the seeds at codes p^t, then least non-members; each coset
                # representative at least doubles the closure
                codes = generating_set(self.N, 0, self._right_mul_code, self.powers)
                self._gens = self.digit_rows()[codes].astype(np.int64)
        return self._gens

    def _generator_matrices(self):
        if self._gen_mats is None:
            gens = self._generators()
            self._gen_mats = ([self._conjugation_matrix(g) for g in gens],
                              [self.dual_matrix_for(g) for g in gens])
        return self._gen_mats

    # ----------------------------------------------------------- classes --

    def conjugacy_classes(self) -> OrbitPartition:
        """Conjugation orbits on J; the orbit of x is the class of 1+x."""
        if self._classes is None:
            check_budget(self.budgets, "group_enumeration_max", self.N)
            self._classes = orbit_partition(self.group_perms(), self.N)
        return self._classes

    def k(self) -> int:
        return self.conjugacy_classes().count

    def dual_orbits(self) -> OrbitPartition:
        if self._dual_orbits is None:
            self._dual_orbits = orbit_partition(self.dual_perms(), self.N)
        return self._dual_orbits

    # ------------------------------------------------- derived subgroup --

    def commutator_subgroup_packed(self) -> np.ndarray:
        """Sorted packed indices of the derived subgroup of 1+J."""
        check_budget(self.budgets, "group_enumeration_max", self.N)
        gens = self._generators()
        inv = np.array([self._inverse(g) for g in gens])
        k = len(gens)
        # [1+u, 1+v] = (1+u)^-1 (1+v)^-1 (1+u)(1+v) for every generator pair
        comms = self._gmul_rows(
            self._gmul_rows(np.repeat(inv, k, axis=0), np.tile(inv, (k, 1))),
            self._gmul_rows(np.repeat(gens, k, axis=0), np.tile(gens, (k, 1))))
        return derived_subgroup(self.N, 0, self._right_mul_code, self.group_perms,
                                self.pack_digits(comms))

    def abelianization_order(self) -> int:
        return self.N // int(self.commutator_subgroup_packed().size)

