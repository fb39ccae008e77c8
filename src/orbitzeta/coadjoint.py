"""Coadjoint orbits of 1+J on the prime-field dual of J, and the orbit
method character theory at desk scale.

Dual functionals are Z/p-linear maps J -> Z/p, stored as coordinate rows of
length dim(J)*e.  The group acts by lambda^g(a) = lambda(a^(g^-1)); orbits,
the alternating forms B_lambda(a,b) = lambda([a,b]), their radicals, fake
degrees and the exact character values all live here.

A character table is one integer array H[o, c, r] of residue counts, with
chi_o(c) = sum_r H[o, c, r] zeta_p^r / d_o; the class constancy,
orthonormality and induction checks are integer array operations on such
histograms.  CyclotomicValue is the normalized scalar view of one value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algroup import AlgebraGroup
from .budgets import Budgets, check_budget
from .errors import InternalInconsistencyError, ValidationError
from .grouptab import OrbitPartition, orbit_partition
from .linalg import (nullspace_mod_p, nullspace_stack_mod_p, reduce_mod_p,
                     rref_mod_p, rref_stack_mod_p)
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
    alg: NilAlgebra
    partition: OrbitPartition
    records: list[OrbitRecord]
    fixed_points: int

    @property
    def count(self) -> int:
        return len(self.records)

    def fake_degree_multiset(self) -> list[tuple[int, int]]:
        agg: dict[int, int] = {}
        for rec in self.records:
            agg[rec.fake_degree] = agg.get(rec.fake_degree, 0) + 1
        return sorted(agg.items())


def gram_matrix(alg: NilAlgebra, lam_digits) -> np.ndarray:
    """K[s,t] = lambda([b_s, b_t]) over the prime basis."""
    p = alg.field.p
    lam_prod = alg.T @ np.asarray(lam_digits, dtype=np.int64) % p  # lambda(b_s b_t)
    return (lam_prod - lam_prod.T) % p


def radical_of(alg: NilAlgebra, lam_digits):
    """(rank, prime echelon rows of Rad B_lambda)."""
    K = gram_matrix(alg, lam_digits)
    n, p = K.shape[0], alg.field.p
    if not K.any():
        return 0, _full_rows(n)
    rows = nullspace_mod_p(K, n, p)
    return n - len(rows), rows


# Gram matrices per batched elimination: bounds the n x n stacks in memory
_RADICAL_BATCH = 1024


def _radicals_by_row(alg: NilAlgebra, lam_rows):
    """(rank, prime echelon rows of Rad B_lambda, whether they are F_q-closed)
    for each dual row, as radical_of gives them, from one batched
    elimination per _RADICAL_BATCH rows."""
    p, n = alg.field.p, alg.dim * alg.field.e
    for lo in range(0, len(lam_rows), _RADICAL_BATCH):
        lam_prod = np.tensordot(np.asarray(lam_rows[lo:lo + _RADICAL_BATCH], dtype=np.int64),
                                alg.T, axes=([1], [2])) % p      # lambda(b_s b_t)
        ranks, rads = nullspace_stack_mod_p((lam_prod - lam_prod.transpose(0, 2, 1)) % p, p)
        closed = np.ones(len(ranks), dtype=bool)
        if alg.field.e > 1:
            # F_q-closed: adding the omega-multiples of the rows keeps the rank
            spans = np.concatenate([rads, rads @ alg.omega % p], axis=1)
            closed = rref_stack_mod_p(spans, p)[1] == n - ranks
        for rank, rad, ok in zip(ranks.tolist(), rads, closed.tolist()):
            yield rank, tuple(map(tuple, rad[:n - rank].tolist())), ok


def _full_rows(n: int) -> list[tuple[int, ...]]:
    return [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]


def _require_fq_closed(alg: NilAlgebra, rows, what: str) -> None:
    if not alg.is_fq_subspace(rows):
        raise InternalInconsistencyError(f"{what} is not F_q-closed")


def radical(alg: NilAlgebra, lam):
    """Prime echelon rows of Rad B_lambda.

    The radical is always closed under F_q scaling; for e > 1 that is a real
    condition and it is checked.
    """
    row = lam.row if isinstance(lam, DualFunctional) else tuple(int(x) for x in lam)
    _, rows = radical_of(alg, row)
    _require_fq_closed(alg, rows, "radical")
    return rref_mod_p(rows, alg.field.p)[0]


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

    Cross-checks inside: orbit sizes partition the dual, every orbit size
    equals |J| / |Rad B_lambda| at its representative, sizes are even
    q-powers, radicals are F_q-closed (substantive only when e > 1), and
    the fixed point count matches |J| / |[J,J]_L|.
    """
    eng = engine_for(alg, budgets)
    check_budget(budgets, "dual_census_max", eng.N)
    part = eng.dual_orbits()
    p, q, e = eng.p, alg.field.q, alg.field.e
    derived_rows, _ = alg.derived_lie_subspace()
    if derived_rows:
        radicals = _radicals_by_row(alg, eng.digit_rows()[part.reps])
    else:
        radicals = itertools.repeat((0, tuple(_full_rows(eng.n)), True))
    records = []
    for rep, size, (rank, rad_rows, closed) in zip(part.reps, part.sizes, radicals):
        if p ** rank != size:
            raise InternalInconsistencyError(
                f"orbit size {size} != |J|/|Rad| = {p ** rank} at dual {rep}")
        if rank % (2 * e):
            raise InternalInconsistencyError(
                f"orbit size {size} is not an even power of q at dual {rep}")
        if not closed:
            raise InternalInconsistencyError(f"radical at dual {rep} is not F_q-closed")
        records.append(OrbitRecord(int(rep), size, q ** (rank // (2 * e)), rad_rows))
    fixed = sum(1 for s in part.sizes if s == 1)
    expected_fixed = eng.p ** (eng.n - len(derived_rows))
    if fixed != expected_fixed:
        raise InternalInconsistencyError(
            f"fixed duals {fixed} != |J|/|[J,J]_L| = {expected_fixed}")
    return CensusResult(alg, part, records, fixed)


def fixed_point_count(alg: NilAlgebra, budgets: Budgets | None = None) -> int:
    """Number of coadjoint fixed points, computed from the census (which
    already cross-checks it against |J|/|[J,J]_L|)."""
    return orbit_census(alg, budgets).fixed_points


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
    alg = census.alg
    q = alg.field.q
    total = sum(rec.size for rec in census.records)
    sum_squares = sum(rec.fake_degree ** 2 for rec in census.records)
    n_linear = sum(1 for rec in census.records if rec.fake_degree == 1)
    return {
        "orbit_count": census.count,
        "dual_size": total,
        "sum_fake_squares": sum_squares,
        "group_order": q ** alg.dim,
        "linear_count": n_linear,
        "fixed_points": census.fixed_points,
    }


# ------------------------------------------------- isotropic subalgebras --

def _is_isotropic(K: np.ndarray, rows, p: int) -> bool:
    """Whether B_lambda, with Gram matrix K, vanishes on the span of the rows."""
    if not len(rows):
        return True
    R = np.asarray(rows, dtype=np.int64)
    return not (R @ K % p @ R.T % p).any()


def max_isotropic_subalgebra(alg: NilAlgebra, lam_digits):
    """A maximal isotropic subalgebra H for B_lambda, constructed through the
    ideal flag: take the first isotropic member of the flag, pass to its
    perp (a subalgebra), and recurse.  Returns prime echelon rows of H.

    Verifies on exit: H is a subalgebra, B_lambda vanishes on H, and
    dim H = dim J - (1/2) log_q |orbit of lambda|.
    """
    p, e = alg.field.p, alg.field.e
    lam = tuple(int(x) for x in lam_digits)
    ech, piv = rref_mod_p(_max_isotropic_inner(alg, lam), p)
    # verification
    if not _is_isotropic(gram_matrix(alg, lam), ech, p):
        raise InternalInconsistencyError("constructed subalgebra is not isotropic")
    if reduce_mod_p(ech, piv, alg._products_of(ech, ech), p).any():
        raise InternalInconsistencyError("constructed space is not a subalgebra")
    rank, _ = radical_of(alg, lam)
    expected_dim = alg.dim - rank // (2 * e)
    if len(ech) != e * expected_dim:
        raise InternalInconsistencyError(
            f"isotropic subalgebra has dim {len(ech) // e}, expected {expected_dim}")
    return ech, piv


def _max_isotropic_inner(alg: NilAlgebra, lam):
    p, n = alg.field.p, alg.dim * alg.field.e
    K = gram_matrix(alg, lam)
    if not K.any():
        return _full_rows(n)
    flag = alg.refine_to_flag()
    chosen = next((rows for rows, _ in flag[1:] if _is_isotropic(K, rows, p)), None)
    if not chosen:
        # the complete flag always reaches an isotropic member before 0:
        # the minimal one is not inside Rad B, see the recursion argument
        raise InternalInconsistencyError("no nonzero isotropic flag member found")
    # perp of the chosen ideal: x with lambda([x, h]) = K x . h = 0 for all h
    perp = nullspace_mod_p(np.asarray(chosen, dtype=np.int64) @ K.T % p, n, p)
    _require_fq_closed(alg, perp, "perp of an isotropic ideal")
    if len(perp) == n:
        raise InternalInconsistencyError("perp did not cut the space down")
    sub, basis = alg.subalgebra(perp)
    basis = np.asarray(basis, dtype=np.int64)  # row t: prime basis vector t of sub
    inner = _max_isotropic_inner(sub, tuple(int(x) for x in basis @ lam % p))
    # map back to ambient coordinates
    return [tuple(r) for r in (np.asarray(inner, dtype=np.int64) @ basis % p).tolist()]


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

    def row(self, i: int) -> list[CyclotomicValue]:
        p, d = self.alg.field.p, self.fake_degrees[i]
        return [CyclotomicValue.from_histogram(p, h, d) for h in self.H[i].tolist()]

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
    H = np.ascontiguousarray(
        _dual_histograms(eng, census.partition, classes.reps).transpose(1, 0, 2))
    table = CharacterTable(alg, [int(r) for r in classes.reps],
                           [int(s) for s in classes.sizes],
                           [rec.rep for rec in census.records],
                           [rec.fake_degree for rec in census.records], H)
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
    B = np.asarray(rows, dtype=np.int64)
    m = len(B)
    codes = np.arange(p ** m)
    combos = np.stack([(codes // p ** t) % p for t in range(m)], axis=1)
    return combos @ B % p


def _subspace_packed_set(eng: AlgebraGroup, rows) -> np.ndarray:
    """All packed codes of the span of the given prime echelon rows."""
    if not len(rows):
        return np.zeros(1, dtype=np.int64)
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
    lam = eng.digit_rows()[census.records[orbit_index].rep]
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
    the orbit of lambda under 1+H."""
    eng = engine_for(alg, budgets)
    if census is None:
        census = orbit_census(alg, budgets)
    p = eng.p
    lam = tuple(int(x) for x in eng.digit_rows()[census.records[orbit_index].rep])
    rows, _ = max_isotropic_subalgebra(alg, lam)
    # Ann(H): functionals vanishing on the prime basis of H
    ann = nullspace_mod_p(rows, eng.n, p)
    lamv = np.asarray(lam, dtype=np.int64)
    coset = (_span_points(ann, p) + lamv) % p if ann else lamv[None, :]
    # orbit of lambda under the group generated by 1 + (prime basis of H)
    labels = orbit_partition([eng.affine_perm(eng.dual_matrix_for(row)) for row in rows],
                             eng.N).labels
    orbit = np.flatnonzero(labels == labels[lamv @ eng.powers])
    if not np.array_equal(orbit, np.unique(coset @ eng.powers)):
        raise InternalInconsistencyError(
            "1+H orbit does not exhaust the agreeing functionals")
    return True
