"""Coadjoint orbits of 1+J on the prime-field dual of J, and the orbit
method character theory at desk scale.

Dual functionals are Z/p-linear maps J -> Z/p, stored as coordinate rows of
length dim(J)*e.  The group acts by lambda^g(a) = lambda(a^(g^-1)); orbits,
the alternating forms B_lambda(a,b) = lambda([a,b]), their radicals, fake
degrees, polarizations (sums of radicals on the ideal flag of J) and the
exact character values all live here.

A character table is one integer array H[o, c, r] of residue counts, with
chi_o(c) = sum_r H[o, c, r] zeta_p^r / d_o; the class constancy,
orthonormality and induction checks are integer array operations on such
histograms.  CharacterTable.reduced() is the scalar view, every value as
(den, vec) in lowest terms; CyclotomicValue wraps one such value.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algroup import AlgebraGroup
from .budgets import Budgets, check_budget
from .errors import InternalInconsistencyError, ValidationError
from .grouptab import OrbitPartition, _adjoin, orbit_partition
from .linalg import (base_p_digits, matmul_mod_p, nullspace_mod_p, nullspace_stack_mod_p,
                     reduce_mod_p, rref_mod_p)
from .nilalg import AlgVector, NilAlgebra


def engine_for(alg: NilAlgebra, budgets: Budgets | None = None) -> AlgebraGroup:
    """The engine cached on alg, after bounding |1+J| by the caller's budgets:
    the cached engine keeps the budgets of the call that built it."""
    check_budget(budgets, "group_enumeration_max", alg.field.q ** alg.dim)
    return _engine(alg, budgets)


def _engine(alg: NilAlgebra, budgets: Budgets | None = None) -> AlgebraGroup:
    eng = getattr(alg, "_engine", None)
    if eng is None:
        eng = alg._engine = AlgebraGroup(alg, budgets)
    return eng


# ------------------------------------------------------------ cyclotomic --

class CyclotomicValue:
    """An element of Q(zeta_p): integer vector over the basis
    {zeta_p, .., zeta_p^(p-1)} divided by a positive integer denominator.

    Rational numbers embed via 1 = -(zeta + .. + zeta^(p-1)).
    """

    __slots__ = ("p", "vec", "denom")

    def __init__(self, p: int, vec, denom: int = 1):
        if denom == 0:
            raise ValidationError("zero denominator")
        if denom < 0:
            vec = [-a for a in vec]
            denom = -denom
        vec = tuple(int(a) for a in vec)
        if len(vec) != p - 1:
            raise ValidationError(f"need {p - 1} coordinates for p={p}")
        g = denom
        for a in vec:
            g = math.gcd(g, a)
        if g > 1:
            vec = tuple(a // g for a in vec)
            denom //= g
        self.p = p
        self.vec = vec
        self.denom = denom

    @classmethod
    def from_int(cls, p: int, value: int) -> "CyclotomicValue":
        return cls(p, (-value,) * (p - 1))

    @classmethod
    def from_histogram(cls, p: int, counts, denom: int = 1) -> "CyclotomicValue":
        """Sum of counts[r] * zeta^r over residues r."""
        c0 = int(counts[0])
        return cls(p, tuple(int(counts[k]) - c0 for k in range(1, p)), denom)

    def as_rational(self) -> Fraction | None:
        first = self.vec[0]
        if all(x == first for x in self.vec):
            return Fraction(-first, self.denom)
        return None

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.vec)

    def __eq__(self, other) -> bool:
        return (isinstance(other, CyclotomicValue) and self.p == other.p
                and self.vec == other.vec and self.denom == other.denom)

    def __hash__(self) -> int:
        return hash((self.p, self.vec, self.denom))

    def __repr__(self) -> str:
        r = self.as_rational()
        if r is not None:
            return str(r)
        body = "+".join(f"{x}z^{k}" for k, x in enumerate(self.vec, start=1) if x)
        return f"({body})/{self.denom}" if self.denom != 1 else body


# ------------------------------------------------------ dual functionals --

class DualFunctional:
    """Additive character coordinates: a Z/p-linear functional on J, read
    through x -> zeta_p^(lambda(x)).  Row vector of length dim*e."""

    __slots__ = ("alg", "row")

    def __init__(self, alg: NilAlgebra, row):
        row = tuple(int(x) % alg.field.p for x in row)
        if len(row) != alg.dim * alg.field.e:
            raise ValidationError(f"functional needs {alg.dim * alg.field.e} coordinates")
        self.alg = alg
        self.row = row

    def __call__(self, v: AlgVector) -> int:
        flat = v.flat()
        return sum(a * b for a, b in zip(self.row, flat)) % self.alg.field.p

    def pack(self) -> int:
        p = self.alg.field.p
        return sum(c * p ** t for t, c in enumerate(self.row))

    def __eq__(self, other) -> bool:
        return (isinstance(other, DualFunctional) and self.alg is other.alg
                and self.row == other.row)

    def __hash__(self) -> int:
        return hash((id(self.alg), self.row))

    def __repr__(self) -> str:
        return f"DualFunctional{self.row}"


def coadjoint_act(lam: DualFunctional, g: AlgVector) -> DualFunctional:
    """lambda^g with lambda^g(a) = lambda(a^((1+g)^-1)); (lam^g)^h = lam^(gh)."""
    if g.alg is not lam.alg:
        raise ValidationError("functional and group element live on different algebras")
    eng = _engine(lam.alg)  # one matrix, no enumeration
    M = eng.dual_matrix_for(g.flat())
    row = (np.array(lam.row, dtype=np.int64) @ M) % eng.p
    return DualFunctional(lam.alg, row)


# -------------------------------------------------------------- censuses --

@dataclass
class OrbitRecord:
    rep: int                      # packed dual coordinates, least in the orbit
    size: int
    fake_degree: int
    radical_prime_rows: tuple     # echelon rows over Z/p


@dataclass
class CensusResult:
    """Per-orbit arrays in the order of partition.reps: rows [:n - ranks[o]] of
    radical_rows[o] are the prime echelon rows of Rad B_lambda, the rest 0."""
    alg: NilAlgebra
    partition: OrbitPartition
    reps: np.ndarray              # packed duals, least in their orbit, int64
    sizes: np.ndarray             # int64
    ranks: np.ndarray             # rank of B_lambda, int64
    fake_degrees: np.ndarray      # q^(rank / 2e), int64
    radical_rows: np.ndarray      # (orbits, n, n), in the digit dtype
    fixed_points: int

    @property
    def count(self) -> int:
        return len(self.reps)

    @property
    def records(self) -> OrbitRecords:
        """The orbits as a read-only sequence of OrbitRecords, each built
        from the arrays when it is read."""
        return OrbitRecords(self)

    def fake_degree_multiset(self) -> list[tuple[int, int]]:
        degrees, counts = np.unique(self.fake_degrees, return_counts=True)
        return list(zip(degrees.tolist(), counts.tolist()))


class OrbitRecords(Sequence):
    """Read-only view of a census as OrbitRecords, one built per index read;
    the orbits of rank 0, whose radical is all of J, share one tuple."""

    def __init__(self, census: CensusResult):
        self._census = census
        n = census.radical_rows.shape[-1]
        self._full = tuple(map(tuple, np.eye(n, dtype=np.int64).tolist()))

    def __len__(self) -> int:
        return self._census.count

    def __getitem__(self, i: int) -> OrbitRecord:
        c = self._census
        rank, rows = int(c.ranks[i]), c.radical_rows[i]
        radical = tuple(map(tuple, rows[:len(rows) - rank].tolist())) if rank else self._full
        return OrbitRecord(int(c.reps[i]), int(c.sizes[i]), int(c.fake_degrees[i]), radical)


def gram_matrix(alg: NilAlgebra, lam_digits) -> np.ndarray:
    """K[s,t] = lambda([b_s, b_t]) over the prime basis."""
    p = alg.field.p
    lam_prod = alg.T @ np.asarray(lam_digits, dtype=np.int64) % p  # lambda(b_s b_t)
    return (lam_prod - lam_prod.T) % p


def radical_of(alg: NilAlgebra, lam_digits):
    """(rank, prime echelon rows of Rad B_lambda, an int64 array)."""
    K = gram_matrix(alg, lam_digits)
    rows = nullspace_mod_p(K, len(K), alg.field.p)
    return len(K) - len(rows), rows


# Gram matrices per batched elimination: bounds the n x n stacks in memory
_RADICAL_BATCH = 1024


def _radicals_by_row(alg: NilAlgebra, lam_rows: np.ndarray):
    """(ranks, radical rows, closed) of the dual rows, as arrays: rows [:n - rank]
    of radical rows are the prime echelon rows of Rad B_lambda that radical_of
    gives, in the dtype of lam_rows; one batched elimination per _RADICAL_BATCH.

    The rows span ker K, K the Gram matrix, so they are F_q-closed exactly
    when omega maps each row into ker K: K (rows omega)^T = 0 mod p."""
    p, n = alg.field.p, alg.dim * alg.field.e
    # lambda([b_s, b_t]) = sum_k lambda_k (T[s, t, k] - T[t, s, k])
    lie = ((alg.T - alg.T.transpose(1, 0, 2)) % p).reshape(n * n, n).T
    batches = []
    for lo in range(0, len(lam_rows), _RADICAL_BATCH):
        K = matmul_mod_p(lam_rows[lo:lo + _RADICAL_BATCH], lie, p).reshape(-1, n, n)
        ranks, kernel = nullspace_stack_mod_p(K, p)
        closed = np.ones(len(K), dtype=bool)
        if alg.field.e > 1:
            images = kernel @ alg.omega % p
            closed = ~(K @ images.transpose(0, 2, 1) % p).any(axis=(1, 2))
        batches.append((ranks, kernel.astype(lam_rows.dtype), closed))
    return tuple(np.concatenate(parts) for parts in zip(*batches))


def _require_fq_closed(alg: NilAlgebra, rows, what: str) -> None:
    if not alg.is_fq_subspace(rows):
        raise InternalInconsistencyError(f"{what} is not F_q-closed")


def radical(alg: NilAlgebra, lam):
    """Prime echelon rows of Rad B_lambda, an int64 array: the kernel rows
    of radical_of, which are reduced.

    The radical is always closed under F_q scaling; for e > 1 that is a real
    condition and it is checked.
    """
    row = lam.row if isinstance(lam, DualFunctional) else tuple(int(x) for x in lam)
    _, rows = radical_of(alg, row)
    _require_fq_closed(alg, rows, "radical")
    return rows


def orbit_size(alg: NilAlgebra, lam) -> int:
    row = lam.row if isinstance(lam, DualFunctional) else tuple(int(x) for x in lam)
    rank, _ = radical_of(alg, row)
    if rank % (2 * alg.field.e):
        raise InternalInconsistencyError(
            "orbit size is not an even power of q; the pairing is defective")
    return alg.field.p ** rank


def fake_degree(alg: NilAlgebra, lam) -> int:
    size = orbit_size(alg, lam)
    root = math.isqrt(size)
    if root * root != size:
        raise InternalInconsistencyError(f"orbit size {size} is not a square")
    return root


def orbit_census(alg: NilAlgebra, budgets: Budgets | None = None) -> CensusResult:
    """Full orbit decomposition of the dual with per-orbit invariants.

    Cross-checks inside, as array comparisons: orbit sizes partition the dual,
    every orbit size equals |J| / |Rad B_lambda| at its representative, sizes
    are even q-powers, radicals are F_q-closed (substantive only when e > 1),
    and the fixed point count matches |J| / |[J,J]_L|.
    """
    eng = engine_for(alg, budgets)
    check_budget(budgets, "dual_census_max", eng.N)
    part = eng.dual_orbits()
    p, q, e, n = eng.p, alg.field.q, alg.field.e, eng.n
    reps, sizes = (np.asarray(a, dtype=np.int64) for a in (part.reps, part.sizes))
    digits = eng.digit_rows()
    derived_rows, _ = alg.derived_lie_subspace()
    if len(derived_rows):
        ranks, rads, closed = _radicals_by_row(alg, digits[reps])
    else:  # J is commutative: every radical is J, one array shared by all orbits
        ranks, closed = np.zeros(reps.size, dtype=np.int64), np.ones(reps.size, dtype=bool)
        rads = np.broadcast_to(np.eye(n, dtype=digits.dtype), (reps.size, n, n))
    checks = [(sizes != p ** ranks, "orbit size {0} != |J|/|Rad| = {1} at dual {2}"),
              (ranks % (2 * e) != 0, "orbit size {0} is not an even power of q at dual {2}"),
              (~closed, "radical at dual {2} is not F_q-closed")]
    for bad, message in checks:
        if bad.any():
            i = bad.argmax()
            raise InternalInconsistencyError(message.format(sizes[i], p ** ranks[i], reps[i]))
    fixed = int(np.count_nonzero(sizes == 1))
    expected_fixed = p ** (n - len(derived_rows))
    if fixed != expected_fixed:
        raise InternalInconsistencyError(
            f"fixed duals {fixed} != |J|/|[J,J]_L| = {expected_fixed}")
    return CensusResult(alg, part, reps, sizes, ranks, q ** (ranks // (2 * e)), rads, fixed)


def conjecture_probe(alg: NilAlgebra, budgets: Budgets | None = None) -> dict:
    """Compare |J/[J,J]_L| with |(1+J)_ab|.

    Equality holds on many algebras (and conjecturally failed in general);
    disagreement is reported, never raised.
    """
    eng = engine_for(alg, budgets)
    derived_rows, _ = alg.derived_lie_subspace()
    lie_index = eng.p ** (eng.n - len(derived_rows))
    group_ab = eng.abelianization_order()
    return {
        "lie_index": lie_index,
        "group_abelianization": group_ab,
        "equal": lie_index == group_ab,
    }


def fake_degree_identities(census: CensusResult) -> dict:
    """Aggregate identities: sum of squares, count, abelianization count."""
    return {
        "orbit_count": census.count,
        "dual_size": int(census.sizes.sum()),
        "sum_fake_squares": int((census.fake_degrees ** 2).sum()),
        "group_order": census.alg.field.q ** census.alg.dim,
        "linear_count": int(np.count_nonzero(census.fake_degrees == 1)),
        "fixed_points": census.fixed_points,
    }


# ------------------------------------------------- isotropic subalgebras --

def max_isotropic_subalgebra(alg: NilAlgebra, lam_digits):
    """Vergne's polarization of lambda: H is the sum of the radicals
    rad(B|V) = {x in V : B(x, V) = 0} over the members V of the ideal flag
    of refine_to_flag, B = B_lambda.  Returns its prime echelon basis
    (rows, pivots).  Why H is a polarization, for flag members V <= W,
    x in rad(B|V), y in rad(B|W), and B(a, b) = lambda(ab - ba):
    - Isotropic: B(x, y) = 0, because x lies in W.
    - A subalgebra: xy and yx lie in V, because V is an ideal.  For v in V,
      B(xy, v) = B(x, yv) + B(y, vx) and B(yx, v) = B(y, xv) + B(x, vy).
      Every term is 0, so xy and yx lie in rad(B|V).
    - F_q-closed: B(omega x, y) = B(x, omega y), so every radical is
      omega-stable.
    - Maximal: write lambda = Tr o mu with mu F_q-linear; then rad(B|V) =
      rad(B_mu|V).  The flag steps have F_q-codimension 1, so Vergne's count
      gives dim H = dim J - rank(B) / 2e, the rank of the V = J term.

    Verifies all four on exit.  When B = 0, H is J.
    """
    p, e, n = alg.field.p, alg.field.e, alg.dim * alg.field.e
    K = gram_matrix(alg, lam_digits)
    ech, piv, rank = np.eye(n, dtype=np.int64), list(range(n)), 0
    if K.any():
        # R[i]: the rows of flag member i, padded with zero rows to n x n.
        # c R[i] lies in rad(B|V_i) exactly when c R[i] K R[i]^T = 0; a zero
        # row adds a kernel coordinate that R[i] maps to 0
        R = np.stack([np.pad(rows, ((0, n - len(rows)), (0, 0)))
                      for rows, _ in alg.refine_to_flag()[:-1]])
        ranks, kernels = nullspace_stack_mod_p(
            matmul_mod_p(matmul_mod_p(R, K, p), R.transpose(0, 2, 1), p), p)
        ech, piv = rref_mod_p(matmul_mod_p(kernels, R, p).reshape(-1, n), p)
        rank = int(ranks[0])
    _require_fq_closed(alg, ech, "polarization")
    if (ech @ K % p @ ech.T % p).any():
        raise InternalInconsistencyError("constructed subalgebra is not isotropic")
    if reduce_mod_p(ech, piv, alg._products_of(ech, ech), p).any():
        raise InternalInconsistencyError("constructed space is not a subalgebra")
    expected_dim = alg.dim - rank // (2 * e)
    if len(ech) != e * expected_dim:
        raise InternalInconsistencyError(
            f"isotropic subalgebra has dim {len(ech) // e}, expected {expected_dim}")
    return ech, piv


# ------------------------------------------------------------ characters --

@dataclass
class CharacterTable:
    """chi_o(c) = sum_r H[o, c, r] zeta_p^r / fake_degrees[o], where H[o, c, r]
    counts the duals mu in orbit o with mu(log c) = r."""
    alg: NilAlgebra
    class_reps: list[int]          # packed J-parts, one per conjugacy class
    class_sizes: list[int]
    orbit_reps: list[int]          # packed duals, one per coadjoint orbit
    fake_degrees: list[int]
    H: np.ndarray                  # int64 residue counts, shape (orbits, classes, p)

    @property
    def k(self) -> int:
        return len(self.class_reps)

    def reduced(self, orbits=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """(den, vec) with chi_o(c) = sum_k vec[o, c, k-1] zeta_p^k / den[o, c]
        in lowest terms, den > 0, for the orbits selected: the coordinates
        H[o, c, k] - H[o, c, 0], divided once by their gcd with the degree."""
        H = self.H[orbits]
        vec = H[..., 1:] - H[..., :1]
        deg = np.asarray(self.fake_degrees, dtype=np.int64)[orbits]
        den = np.broadcast_to(deg[..., None], H.shape[:-1])
        g = np.gcd(np.gcd.reduce(vec, axis=-1), den)
        return den // g, vec // g[..., None]

    def row(self, i: int) -> list[CyclotomicValue]:
        den, vec = self.reduced(i)
        p = self.alg.field.p
        return [CyclotomicValue(p, v, d) for d, v in zip(den.tolist(), vec.tolist())]

    @property
    def values(self) -> list[list[CyclotomicValue]]:
        """values[orbit][class], built from H on every access."""
        return [self.row(i) for i in range(len(self.fake_degrees))]


def _dual_histograms(eng: AlgebraGroup, part: OrbitPartition, points) -> np.ndarray:
    """hist[i, o, r]: the duals mu in orbit o with mu(log x) = r, x = points[i]."""
    p, nd = eng.p, part.count
    residues = eng.log_digit_rows()[points].astype(np.int64) @ eng.digit_rows().T % p
    idx = (np.arange(len(residues))[:, None] * nd + part.labels) * p + residues
    return np.bincount(idx.ravel(), minlength=len(residues) * nd * p).reshape(-1, nd, p)


def character_table(alg: NilAlgebra, budgets: Budgets | None = None,
                    census: CensusResult | None = None) -> CharacterTable:
    """Exact character table of 1+J by the orbit method.

    Requires nilpotency class < p so that log is available.  chi_Omega(1+x)
    = |Omega|^(-1/2) sum over mu in Omega of zeta_p^(mu(log(1+x))).
    Verifies chi(1) = fake degree for every orbit and constancy of each
    character on each conjugacy class.
    """
    if not alg.is_p_nilpotent():
        raise ValidationError(
            f"orbit method characters need class < p; class is "
            f"{alg.nilpotency_class} at p={alg.field.p}")
    eng = engine_for(alg, budgets)
    if census is None:
        census = orbit_census(alg, budgets)
    classes = eng.conjugacy_classes()
    check_budget(budgets, "character_table_max", census.count * classes.count * eng.p)
    H = np.ascontiguousarray(
        _dual_histograms(eng, census.partition, classes.reps).transpose(1, 0, 2))
    table = CharacterTable(alg, [int(r) for r in classes.reps],
                           [int(s) for s in classes.sizes],
                           census.reps.tolist(), census.fake_degrees.tolist(), H)
    # chi(1) = fake degree: identity class is packed 0, always class rep 0
    if table.class_reps[0] != 0:
        raise InternalInconsistencyError("identity class is not first")
    # chi_o(1) = d_o: every coordinate (H[o,0,r] - H[o,0,0]) / d_o on zeta^r is -d_o
    deg = np.array(table.fake_degrees, dtype=np.int64)
    bad = np.flatnonzero((H[:, 0, 1:] - H[:, 0, :1] != -(deg * deg)[:, None]).any(axis=1))
    if bad.size:
        raise InternalInconsistencyError(f"chi(1) != fake degree on orbit {bad[0]}")
    _verify_class_constancy(eng, census, classes, H)
    return table


# class members per residue block: bounds the (members x N) residues in memory
_CONSTANCY_BATCH = 2 ** 18


def _verify_class_constancy(eng, census, classes, H) -> None:
    """Each chi_Omega is constant on each conjugacy class: every member of a
    class with more than one member has the (orbit, residue) histogram of
    that class's column of H."""
    labels = classes.labels
    members = np.flatnonzero(np.asarray(classes.sizes)[labels] > 1)
    columns = H.transpose(1, 0, 2)
    step = max(1, _CONSTANCY_BATCH // eng.N)
    for lo in range(0, members.size, step):
        chunk = members[lo:lo + step]
        if not np.array_equal(_dual_histograms(eng, census.partition, chunk),
                              columns[labels[chunk]]):
            raise InternalInconsistencyError("character histogram varies inside a class")


def orbit_method_character(alg: NilAlgebra, lam,
                           budgets: Budgets | None = None):
    """chi_Omega for the orbit through lam, as (class packed reps, values).

    Computes the full table (the census is shared work anyway) and returns
    the row of the orbit containing lam.
    """
    eng = engine_for(alg, budgets)
    row = lam.row if isinstance(lam, DualFunctional) else tuple(int(x) for x in lam)
    packed = int(np.array(row, dtype=np.int64) @ eng.powers)
    census = orbit_census(alg, budgets)
    table = character_table(alg, budgets, census)
    oid = int(census.partition.labels[packed])
    return table.class_reps, table.row(oid)


def _shift_grams(table: CharacterTable, a=slice(None), b=slice(None)) -> np.ndarray:
    """G[t, a, b] = sum_c |c| sum_r H[a, c, r] H[b, c, r - t], one matrix product
    per shift t, so that <chi_a, chi_b> = sum_t G[t, a, b] zeta^t / (N d_a d_b).

    No entry exceeds N max|O|^2: int64 below 2^63, exact Python ints above.
    """
    N = table.alg.field.q ** table.alg.dim
    max_orbit = int(table.H.sum(axis=2).max())
    dtype = np.int64 if N * max_orbit ** 2 < 2 ** 63 else object
    left = table.H[a].astype(dtype) * np.array(table.class_sizes, dtype=dtype)[:, None]
    right = table.H[b].astype(dtype)
    left = left.reshape(len(left), -1)
    return np.stack([left @ np.roll(right, t, axis=2).reshape(len(right), -1).T
                     for t in range(table.alg.field.p)])


def inner_product(table: CharacterTable, a: int, b: int) -> CyclotomicValue:
    """Exact <chi_a, chi_b> = |G|^(-1) sum_c |c| chi_a(c) conj(chi_b(c))."""
    N = table.alg.field.q ** table.alg.dim
    G = _shift_grams(table, [a], [b])[:, 0, 0]
    return CyclotomicValue.from_histogram(table.alg.field.p, G,
                                          N * table.fake_degrees[a] * table.fake_degrees[b])


def orthonormality_check(table: CharacterTable) -> bool:
    """Exact first orthogonality: <chi_a, chi_b> = delta_ab in Q(zeta_p), for
    all pairs at once.  sum_t G_t zeta^t is rational iff G_1 = G_t for every
    t >= 2, and it is then G_0 - G_1, which must be delta_ab N d_a^2.

    Raises on any failure, returns True otherwise.
    """
    N = table.alg.field.q ** table.alg.dim
    G = _shift_grams(table)
    deg = np.array(table.fake_degrees, dtype=object)
    bad = (G[1:] != G[1]).any(axis=0) | (G[0] - G[1] != np.diag(N * deg * deg))
    if bad.any():
        a, b = (int(i) for i in np.argwhere(bad)[0])
        raise InternalInconsistencyError(
            f"<chi_{a}, chi_{b}> = {inner_product(table, a, b)}, expected {int(a == b)}")
    return True


# ------------------------------------------------------ induced characters --

def _span_points(rows, p: int) -> np.ndarray:
    """Every Z/p-combination of the rows, one point per row of the result."""
    return base_p_digits(np.arange(p ** len(rows)), p, len(rows)) @ rows % p


def _subspace_packed_set(eng: AlgebraGroup, rows) -> np.ndarray:
    """All packed codes of the span of the given prime echelon rows."""
    return np.unique(_span_points(rows, eng.p) @ eng.powers)


def _induced_histogram(eng: AlgebraGroup, lam_digits):
    """(I, prime echelon rows of H): I[c, r] counts the x in class c inside
    1+H with lambda(log x) = r, H the maximal isotropic subalgebra for lambda."""
    p = eng.p
    rows, _ = max_isotropic_subalgebra(eng.alg, lam_digits)
    inside = _subspace_packed_set(eng, rows)
    if inside.size != p ** len(rows):
        raise InternalInconsistencyError("isotropic span enumeration mismatch")
    classes = eng.conjugacy_classes()
    residues = eng.log_digit_rows()[inside] @ np.asarray(lam_digits, dtype=np.int64) % p
    counts = np.bincount(classes.labels[inside] * p + residues, minlength=classes.count * p)
    return counts.reshape(classes.count, p), rows


def induced_character_values(alg: NilAlgebra, lam_digits,
                             budgets: Budgets | None = None):
    """Values of Ind_{1+H}^{1+J} psi_lambda on the class reps, computed by
    the stabilizer-count formula, where H is the maximal isotropic
    subalgebra for lambda and psi_lambda(1+v) = zeta^(lambda(log(1+v))).

    Returns (values list aligned with conjugacy classes, prime echelon rows of H).
    """
    eng = engine_for(alg, budgets)
    I, rows = _induced_histogram(eng, lam_digits)
    hsize = eng.p ** len(rows)
    # Ind psi (u) = |G| / (|H| |class u|) * sum over class members in 1+H
    return [CyclotomicValue.from_histogram(eng.p, [eng.N * x for x in counts], hsize * size)
            for counts, size in zip(I.tolist(), eng.conjugacy_classes().sizes)], rows


def verify_induced_matches_orbit(alg: NilAlgebra, orbit_index: int,
                                 budgets: Budgets | None = None,
                                 census: CensusResult | None = None,
                                 table: CharacterTable | None = None) -> bool:
    """Induced character from the isotropic polarization equals the orbit
    method character, exactly, on every conjugacy class:
    N d_o (I[c, r] - I[c, 0]) = |H| |c| (H[o, c, r] - H[o, c, 0]) for all c, r."""
    eng = engine_for(alg, budgets)
    if census is None:
        census = orbit_census(alg, budgets)
    if table is None:
        table = character_table(alg, budgets, census)
    lam = eng.digit_rows()[census.reps[orbit_index]]
    I, rows = _induced_histogram(eng, lam)
    I, Ho = I.astype(object), table.H[orbit_index].astype(object)
    hsize, deg = eng.p ** len(rows), table.fake_degrees[orbit_index]
    sizes = np.array(table.class_sizes, dtype=object)[:, None]
    bad = np.flatnonzero((eng.N * deg * (I[:, 1:] - I[:, :1])
                          != hsize * sizes * (Ho[:, 1:] - Ho[:, :1])).any(axis=1))
    if bad.size:
        c = int(bad[0])
        got = CyclotomicValue.from_histogram(eng.p, I[c] * eng.N, hsize * table.class_sizes[c])
        raise InternalInconsistencyError(
            f"induced value differs from orbit character at class {c}: "
            f"{got} vs {table.row(orbit_index)[c]}")
    return True


def transitivity_check(alg: NilAlgebra, orbit_index: int,
                       budgets: Budgets | None = None,
                       census: CensusResult | None = None) -> bool:
    """The subgroup 1+H acts transitively on the functionals agreeing with
    lambda on H.  That set is lambda + Ann(H); the check compares it with
    the orbit of lambda under 1+H, generated by adjoining the rows of H, then
    its points, since 1 + (rows of H) may generate a proper subgroup."""
    eng = engine_for(alg, budgets)
    if census is None:
        census = orbit_census(alg, budgets)
    p = eng.p
    lamv = eng.digit_rows()[census.reps[orbit_index]].astype(np.int64)
    rows, _ = max_isotropic_subalgebra(alg, lamv)
    # Ann(H): functionals vanishing on the prime basis of H
    ann = nullspace_mod_p(rows, eng.n, p)
    coset = (_span_points(ann, p) + lamv) % p
    inside = _subspace_packed_set(eng, rows)
    closure = np.zeros(eng.N, dtype=bool)
    closure[0] = True
    gens = _adjoin(closure, eng._right_mul_code, np.concatenate([rows @ eng.powers, inside]))
    if inside.size != p ** len(rows) or not np.array_equal(np.flatnonzero(closure), inside):
        raise InternalInconsistencyError("generators of 1+H do not close to 1+H")
    digits = eng.digit_rows()[gens].astype(np.int64)
    labels = orbit_partition([eng.affine_perm(eng.dual_matrix_for(g)) for g in digits],
                             eng.N).labels
    orbit = np.flatnonzero(labels == labels[lamv @ eng.powers])
    if not np.array_equal(orbit, np.unique(coset @ eng.powers)):
        raise InternalInconsistencyError(
            "1+H orbit does not exhaust the agreeing functionals")
    return True
