"""The algebra group 1+J of a nilpotent algebra J.

Group elements are identified with their J-part, so the digit row of x
(see nilalg) stands for 1+x.  Multiplication is (1+x)(1+y) = 1+(x+y+xy);
inversion is the finite geometric series.  Both have two routes: the
engine's, through the structure tensor T, and the C route (_c_route_law,
_c_route_inverse), through the structure constants alone, which checks
it.  For enumeration-scale work the group action is linearized:
conjugation by a fixed element is F_q-linear on J, so orbit computations
run on integer coordinate arrays.
"""

from __future__ import annotations

import functools
import random

import numpy as np

from .budgets import check_budget
from .errors import InternalInconsistencyError, ValidationError
from .grouptab import OrbitPartition, derived_subgroup, orbit_partition
from .linalg import base_p_digits, matmul_mod_p, reduce_mod_p, rref_mod_p
from .nilalg import NilAlgebra

_SPOT_SEED = 0x11EA5


# ------------------------------------------------------------ C route --

def _c_route_law(alg: NilAlgebra, X, Y) -> np.ndarray:
    """(1+x)(1+y) = 1 + (x + y + xy) row-wise on digit rows, the product xy
    from the structure constants C (NilAlgebra._fq_products): neither T nor
    omega is read."""
    X, Y = np.asarray(X, dtype=np.int64), np.asarray(Y, dtype=np.int64)
    return (X + Y + alg._fq_products(X, Y).reshape(X.shape)) % alg.field.p


def _c_route_inverse(alg: NilAlgebra, G) -> np.ndarray:
    """The J-parts of (1+g)^(-1) row-wise: -g + g^2 - ..., finite as J is
    nilpotent, each power from C."""
    p = alg.field.p
    neg = -np.asarray(G, dtype=np.int64) % p
    inv, term = np.zeros_like(neg), neg
    while term.any():
        inv = (inv + term) % p
        term = alg._fq_products(term, neg).reshape(neg.shape)
    return inv


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
    blocks of codes a and b, w = _block_width(p) digits each, as uint8.
    affine_perm reads it for 3 <= p <= 16 only: at p = 2 the sum is XOR,
    and for p > 16 a block is one digit, added directly."""
    w = _block_width(p)
    digits = base_p_digits(np.arange(p ** w), p, w)
    return ((digits[:, None] + digits[None, :]) % p @ p ** np.arange(w)).astype(np.uint8)


def _graded_generators(alg: NilAlgebra) -> np.ndarray:
    """Digit rows g whose 1 + g generate 1+J, read off the power chain
    P_k = J^k with no enumeration of the group.

    Layer k is the echelon rows of P_k whose pivots are not pivots of
    P_(k+1); they span P_k modulo P_(k+1).  The coordinates on layer k of
    an x in P_k, modulo P_(k+1), are the entries at those pivots of x
    reduced against the echelon rows of P_(k+1).  A layer row is kept
    unless it lies, modulo P_(k+1), in the span of the layer rows kept
    before it, the brackets ab - ba of layer rows whose degrees sum to k
    and the p-th powers a^p of layer rows of degree k/p.

    Why they generate.  The 1 + P_k form an N_p-series: for a in P_i and b
    in P_j, [1+a, 1+b] = 1 + (ab - ba) modulo P_(i+j+1), and
    (1+a)^p = 1 + a^p with a^p in P_(ip).  Let H be the subgroup of the
    kept rows, and say it meets 1 + P_i in all of P_i modulo P_(i+1) for
    every i < k.  Its commutators then give every bracket of degree k
    modulo P_(k+1), and its p-th powers every a^p for a in P_(k/p): the
    p-th power of a sum differs from the sum of the p-th powers by brackets
    of degree k (Jacobson's formula).  With the kept rows of layer k, H
    meets 1 + P_k in all of P_k modulo P_(k+1), and by induction on k,
    |H| = N.  (Jennings' restricted Lie algebra of the series; the set need
    not be minimal.)"""
    p, chain = alg.field.p, alg.powers
    layers = []
    for (rows, piv), (_, lower_piv) in zip(chain, chain[1:]):
        top = [i for i, col in enumerate(piv) if col not in lower_piv]
        layers.append((rows[top], [piv[i] for i in top]))
    # the layer rows, a basis of J, with their degrees; every bracket of two
    # of them, and the p-th power of each whose degree times p is below c
    basis = np.concatenate([rows for rows, _ in layers])
    degree = np.repeat(np.arange(1, len(chain)), [len(rows) for rows, _ in layers])
    prods = alg._products_of(basis, basis)
    brackets, bracket_degree = prods - prods.transpose(1, 0, 2), np.add.outer(degree, degree)
    low = degree * p < len(chain)
    powers = basis[low]
    if low.any():  # then p < c, so at most n products
        for _ in range(p - 1):
            powers = alg._mul_rows(powers, basis[low])
    gens = []
    for k, (layer, layer_piv) in enumerate(layers, start=1):
        made = np.concatenate([brackets[bracket_degree == k], powers[p * degree[low] == k]])
        coords = reduce_mod_p(*chain[k], made, p)[:, layer_piv]
        # layer row t lies in the span of the made rows and the rows before
        # it exactly when a combination of the made rows ends at column t:
        # a pivot of the column-reversed echelon form
        ends = {len(layer) - 1 - col for col in rref_mod_p(coords[:, ::-1], p)[1]}
        gens.append(layer[[t for t in range(len(layer)) if t not in ends]])
    return np.concatenate(gens)


class AlgebraGroup:
    """Vectorized view of 1+J: coordinate arrays, conjugation matrices,
    orbit machinery for conjugacy classes and the coadjoint action.

    Group elements are prime coordinate rows of their J-part; the matrices
    come from the structure tensor T of J, and a seeded spot check compares
    them with conjugation computed from the structure constants C by the
    C route."""

    def __init__(self, alg: NilAlgebra):
        self.alg = alg
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
        self._spot_check_linearity()

    # ---------------------------------------------------------- helpers --

    def pack_digits(self, digits: np.ndarray) -> np.ndarray:
        return digits.astype(np.int64) @ self.powers

    def digit_rows(self) -> np.ndarray:
        if self._X is None:
            check_budget("group_enumeration_max", self.N)
            self._X = base_p_digits(np.arange(self.N), self.p, self.n)
        return self._X

    def log_digit_rows(self) -> np.ndarray:
        """Row x is log(1+x) for every x in code order, in the digit dtype;
        needs J^p = 0."""
        if self._L is None:
            X = self.digit_rows()
            self._L = self._log_rows(X).astype(X.dtype)
        return self._L

    def conjugation_matrices(self, G) -> np.ndarray:
        """M[i] for the rows g of G, stacked: (1+g)^(-1)(1+x)(1+g) =
        1 + (M[i] @ x) % p, x a column; on dual rows, lambda -> lambda @ M[i]
        is the coadjoint action of (1+g)^(-1).  On rows, x -> x + xg + hx + hxg
        = x (1 + R_g)(1 + L_h), h the J-part of (1+g)^(-1) and row t of L_h
        the product h * b_t."""
        G = np.asarray(G, dtype=np.int64).reshape(-1, self.n)
        n, p = self.n, self.p
        left = matmul_mod_p(self._inverse_rows(G), self.alg.T.reshape(n, n * n), p)
        left = (np.eye(n, dtype=np.int64) + left.reshape(-1, n, n)) % p
        return matmul_mod_p(self._right_mul_matrices(G), left, p).transpose(0, 2, 1)

    def _right_mul_matrices(self, Y) -> np.ndarray:
        """I + R_y for the rows y of Y, stacked, as residues: row s is
        b_s + b_s y, so the J-part of (1+x)(1+y) is x (I + R_y) + y."""
        n, p = self.n, self.p
        T = self.alg.T.transpose(1, 0, 2).reshape(n, n * n)   # row t holds b_s b_t
        R = matmul_mod_p(np.asarray(Y, dtype=np.int64).reshape(-1, n), T, p).reshape(-1, n, n)
        return (np.eye(n, dtype=np.int64) + R) % p

    def _inverse_rows(self, G) -> np.ndarray:
        """The J-parts of (1+g)^(-1) row-wise: the truncated series
        -g + g^2 - ..., each power through T (_mul_rows)."""
        p = self.p
        neg = -np.asarray(G, dtype=np.int64) % p
        inv, term = np.zeros_like(neg), neg
        while term.any():
            inv = (inv + term) % p
            term = self.alg._mul_rows(term, neg)
        return inv

    def _gmul_rows(self, X, Y) -> np.ndarray:
        """(1+x)(1+y) row-wise, as J-parts."""
        return (X + Y + self.alg._mul_rows(X, Y)) % self.p

    def _log_rows(self, Y) -> np.ndarray:
        """log(1+y) = y - y^2/2 + y^3/3 - ... row-wise on prime coordinate
        rows; needs J^p = 0."""
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
        """The conjugation matrices of up to five seeds, from T, against
        conjugation of two seeded points each by the C route: the group law
        and the geometric-series inverse on digit rows, in one batch.

        The seeds are 1 + b_t for the first four prime basis vectors and 1 + g
        for the all-ones digit row g.  On u_n(F_q) every b_t^2 = 0, so the
        inverse series of 1 + b_t has one term and a truncated series passes
        there; g^2 != 0 for n >= 3 exposes it.  A law with yx in place of xy
        conjugates by the inverse of what the true law conjugates by, and the
        two agree when every square is central, as in u_3(F_2) and I_F2[D8]:
        no conjugation shows it there, and verify-corpus compares the law
        itself with the C route."""
        alg, p = self.alg, self.p
        rng = random.Random(_SPOT_SEED ^ self.N)
        gens = np.concatenate([np.eye(self.n, dtype=np.int64)[:4],
                               np.ones((1, self.n), dtype=np.int64)])
        # Python-int codes: N may pass 2^63
        points = base_p_digits([rng.randrange(self.N) for _ in gens for _ in range(2)],
                               p, self.n).astype(np.int64)
        inv = _c_route_inverse(alg, gens)
        direct = _c_route_law(alg, _c_route_law(alg, np.repeat(inv, 2, axis=0), points),
                              np.repeat(gens, 2, axis=0))
        mats = np.repeat(self.conjugation_matrices(gens), 2, axis=0)
        if not np.array_equal(direct, (mats @ points[:, :, None])[:, :, 0] % p):
            raise InternalInconsistencyError(
                "conjugation matrix disagrees with direct conjugation")

    # ------------------------------------------------------ permutations --

    def affine_perm(self, mat, shift=None) -> np.ndarray:
        """Packed codes of (x @ mat + shift) % p for every point x, in code order.

        Digit doubling, never an N x n digit array: the points below p^(t+1)
        with digit d at t are the points below p^t plus d e_t, so their
        images are the images of the points below p^t plus d * mat[t],
        added digit-wise mod p.  At p = 2 that sum is XOR, which carries
        nothing between digits, so the whole packed code is one block and
        each step is one XOR of the first 2^t codes with the code of mat[t].
        For p > 2 the output digits go in blocks of w, the largest w with
        p^w <= 256 (w = 1 when p > 16), and each block is one N-vector of
        its codes.  For w > 1 the digit-wise sum is a lookup in the
        p^w x p^w table of _digit_sum_table, and the codes stay below
        p^w <= 256, one byte each.  For w = 1 a code is its digit and is
        added directly: sums stay below 2p - 1, which the unsigned digit
        dtype holds; it then has at least 2p values, so for a digit x < p
        the difference x - p wraps above x and min(x, x - p) is x mod p.
        The blocks are then summed with their powers of p, from the top.
        """
        check_budget("group_enumeration_max", self.N)
        p, n, N = self.p, self.n, self.N
        mat = np.asarray(mat, dtype=np.int64) % p
        shift = np.zeros(n, dtype=np.int64) if shift is None else np.asarray(
            shift, dtype=np.int64) % p
        if p == 2:
            step_codes = mat @ self.powers
            packed = np.empty(N, dtype=np.int64)
            packed[0] = shift @ self.powers
            for t in range(n):
                np.bitwise_xor(packed[:1 << t], step_codes[t], out=packed[1 << t:2 << t])
            return packed
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
        return self.affine_perm(self._right_mul_matrices(y)[0], y)

    def _right_mul_code(self, code) -> np.ndarray:
        return self.right_mul_perm(base_p_digits([code], self.p, self.n)[0])

    def group_perms(self) -> list[np.ndarray]:
        """Permutations of packed J-coordinates: x -> x^g per generator."""
        if self._group_perms is None:
            self._group_perms = [self.affine_perm(mat.T) for mat in self._generator_matrices()]
        return self._group_perms

    def dual_perms(self) -> list[np.ndarray]:
        """Permutations of packed dual coordinates, lambda -> lambda @ M_g per
        generator g: the coadjoint action of g^(-1), lambda^(g^-1)(a) =
        lambda(a^g).  The inverses of a generating set generate the same
        group, so these have the orbits of the coadjoint action."""
        if self._dual_perms is None:
            self._dual_perms = [self.affine_perm(mat) for mat in self._generator_matrices()]
        return self._dual_perms

    # ------------------------------------------------------- generators --

    def _generators(self) -> np.ndarray:
        """The non-central rows of _graded_generators(alg), a generating set
        of 1+J, as digit rows.  A central generator moves no point and adds
        no commutator, so the orbits and the derived subgroup need only the
        others, whose matrices (conjugation_matrices) are kept."""
        if self._gens is None:
            T = self.alg.T
            if np.array_equal(T, T.transpose(1, 0, 2)):
                # J commutative: every element is central
                gens = np.zeros((0, self.n), dtype=np.int64)
            else:
                gens = _graded_generators(self.alg)
            mats = self.conjugation_matrices(gens)
            moving = (mats != np.eye(self.n, dtype=np.int64)).any(axis=(1, 2))
            self._gens, self._gen_mats = gens[moving], mats[moving]
        return self._gens

    def _generator_matrices(self) -> np.ndarray:
        """The stacked conjugation matrices of _generators()."""
        self._generators()
        return self._gen_mats

    # ----------------------------------------------------------- classes --

    def conjugacy_classes(self) -> OrbitPartition:
        """Conjugation orbits on J; the orbit of x is the class of 1+x."""
        if self._classes is None:
            check_budget("group_enumeration_max", self.N)
            self._classes = orbit_partition(self.group_perms(), self.N)
        return self._classes

    def k(self) -> int:
        return self.conjugacy_classes().count

    def dual_orbits(self) -> OrbitPartition:
        if self._dual_orbits is None:
            self._dual_orbits = orbit_partition(self.dual_perms(), self.N)
        return self._dual_orbits

    # ------------------------------------------------- derived subgroup --

    def commutator_subgroup(self) -> np.ndarray:
        """Sorted packed indices of the derived subgroup of 1+J."""
        check_budget("group_enumeration_max", self.N)
        gens = self._generators()
        inv = self._inverse_rows(gens)
        k = len(gens)
        # [1+u, 1+v] = (1+u)^-1 (1+v)^-1 (1+u)(1+v) for every generator pair
        comms = self._gmul_rows(
            self._gmul_rows(np.repeat(inv, k, axis=0), np.tile(inv, (k, 1))),
            self._gmul_rows(np.repeat(gens, k, axis=0), np.tile(gens, (k, 1))))
        return derived_subgroup(self.N, 0, self._right_mul_code, self.group_perms,
                                self.pack_digits(comms))

    def abelianization_order(self) -> int:
        return self.N // self.commutator_subgroup().size

