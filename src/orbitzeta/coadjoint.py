"""Coadjoint orbits of 1+J on the prime-field dual of J, and the orbit
method character theory at desk scale.

A dual functional, a Z/p-linear map J -> Z/p, is a digit row of length
dim(J)*e, and the engine packs it to a code like any point of J.  The group
acts by lambda^g(a) = lambda(a^(g^-1)), so lambda -> lambda @ M_g, M_g a
conjugation matrix of AlgebraGroup, is the action of g^(-1).  engine_for
caches one AlgebraGroup per algebra.  orbit_census returns the orbits as
int64 arrays (CensusResult): representatives, sizes, ranks of the
alternating forms B_lambda(a,b) = lambda([a,b]) and fake degrees; the
radicals behind the ranks are checked and dropped.  Polarizations (sums of
radicals on the ideal flag of J) and the exact character values also live
here.

A character table is one integer array H[o, c, r] of residue counts, with
chi_o(c) = sum_r H[o, c, r] zeta_p^r / d_o, built in blocks of class
representatives.  Its checks are whole-table array passes: class constancy
follows from checks on the generators of 1+J (_verify_class_constancy),
orthonormality is one product per residue shift, and the induction check
reads one array I[o, c, r] of induced histograms, made for every orbit at
once from one batched polarization kernel (_polarizations) and the span
points of the polarizations grouped by dimension.  A character value is one
cell of the two arrays (den, vec) of CharacterTable.reduced(), in lowest
terms over the basis zeta_p, .., zeta_p^(p-1); the CLI prints those cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algroup import AlgebraGroup
from .budgets import check_budget
from .errors import InternalInconsistencyError, ValidationError
from .grouptab import OrbitPartition, _adjoin, orbit_partition
from .linalg import (base_p_digits, exact_dtype, matmul_exact, matmul_mod_p,
                     nullspace_mod_p, nullspace_stack_mod_p, rref_stack_mod_p)
from .nilalg import NilAlgebra


def engine_for(alg: NilAlgebra) -> AlgebraGroup:
    """The engine cached on alg, after bounding |1+J| by the budgets in
    scope; a cached engine checks the budgets in scope at each call."""
    check_budget("group_enumeration_max", alg.field.q ** alg.dim)
    eng = getattr(alg, "_engine", None)
    if eng is None:
        eng = alg._engine = AlgebraGroup(alg)
    return eng


# -------------------------------------------------------------- censuses --

@dataclass
class CensusResult:
    """Per-orbit int64 arrays in the order of partition.reps; reps and sizes
    are those of the partition.  For a commutative J, ranks and
    fake_degrees are read-only broadcast views of 0 and 1."""
    alg: NilAlgebra
    partition: OrbitPartition
    reps: np.ndarray              # packed duals, least in their orbit
    sizes: np.ndarray
    ranks: np.ndarray             # rank of B_lambda
    fake_degrees: np.ndarray      # q^(rank / 2e)
    orbits_by_rank: np.ndarray    # orbits of rank r, each of p^r duals (checked)
    fixed_points: int

    @property
    def count(self) -> int:
        return len(self.reps)

    def size_histogram(self) -> list[tuple[int, int]]:
        p = self.alg.field.p
        return [(p ** r, c) for r, c in enumerate(self.orbits_by_rank.tolist()) if c]

    def fake_degree_multiset(self) -> list[tuple[int, int]]:
        q, e = self.alg.field.q, self.alg.field.e
        return [(q ** (r // (2 * e)), c) for r, c in enumerate(self.orbits_by_rank.tolist()) if c]


def gram_matrix(alg: NilAlgebra, lam_digits) -> np.ndarray:
    """K[s,t] = lambda([b_s, b_t]) over the prime basis, for one dual.

    The slow reference of _radicals_by_row, which forms K for a batch of
    duals from their values on [J, J]_L; the tests compare the two."""
    p = alg.field.p
    lam_prod = alg.T @ np.asarray(lam_digits, dtype=np.int64) % p  # lambda(b_s b_t)
    return (lam_prod - lam_prod.T) % p


# Gram matrices per batched elimination: bounds the n x n stacks in memory
_RADICAL_BATCH = 1024


def _radicals_by_row(alg: NilAlgebra, lam_rows: np.ndarray, derived_rows: np.ndarray):
    """(ranks, closed) of the dual rows, as arrays: the rank of the Gram
    matrix of B_lambda, and whether its kernel Rad B_lambda is F_q-closed.

    K_lambda[s, t] = lambda([b_s, b_t]), and every bracket lies in C = [J, J]_L,
    the span of derived_rows, its echelon rows.  So K_lambda depends only on
    lambda restricted to C, which its values on derived_rows fix: duals with
    the same values share K, and with it the rank, the radical and closed.
    One Gram matrix is eliminated per distinct row of values, at most
    p^dim C of them, one batched elimination per _RADICAL_BATCH, and the
    ranks and closures are gathered back to every dual.

    The kernel rows span ker K, so they are F_q-closed exactly when omega
    maps each of them into ker K: K (rows omega)^T = 0 mod p."""
    p, n = alg.field.p, alg.dim * alg.field.e
    # key: the values in base p, with the digits so far renumbered densely
    # (below len(lam_rows)) whenever one more would pass int64
    key, bound = np.zeros(len(lam_rows), dtype=np.int64), 1
    for value in matmul_mod_p(lam_rows, derived_rows.T, p).T:
        if bound * p >= 2**63:
            _, key = np.unique(key, return_inverse=True)
            bound = len(lam_rows)
        key, bound = key * p + value, bound * p
    _, first, where = np.unique(key, return_index=True, return_inverse=True)
    distinct = lam_rows[first]
    # lambda([b_s, b_t]) = sum_k lambda_k (T[s, t, k] - T[t, s, k])
    lie = ((alg.T - alg.T.transpose(1, 0, 2)) % p).reshape(n * n, n).T
    batches = []
    for lo in range(0, len(distinct), _RADICAL_BATCH):
        K = matmul_mod_p(distinct[lo:lo + _RADICAL_BATCH], lie, p).reshape(-1, n, n)
        ranks, kernel = nullspace_stack_mod_p(K, p)
        closed = np.ones(len(K), dtype=bool)
        if alg.field.e > 1:
            images = kernel @ alg.omega % p
            closed = ~(K @ images.transpose(0, 2, 1) % p).any(axis=(1, 2))
        batches.append((ranks, closed))
    return tuple(np.concatenate(parts)[where] for parts in zip(*batches))


def orbit_census(alg: NilAlgebra) -> CensusResult:
    """Full orbit decomposition of the dual with per-orbit invariants.

    The radicals take one Gram matrix per distinct restriction of lambda to
    [J,J]_L (_radicals_by_row).  Cross-checks inside, as array comparisons
    over every representative when [J,J]_L != 0: orbit sizes partition the
    dual, every orbit size equals |J| / |Rad B_lambda| at its
    representative, sizes are even q-powers and radicals are F_q-closed
    (substantive only when e > 1).  Always, the fixed point count matches
    |J| / |[J,J]_L|; for a commutative J that makes every orbit a point, and
    ranks and fake degrees are read-only zero-stride views.
    """
    eng = engine_for(alg)
    part = eng.dual_orbits()
    p, q, e, n = eng.p, alg.field.q, alg.field.e, eng.n
    reps, sizes = part.reps, part.sizes
    derived_rows, _ = alg.derived_lie_subspace()
    if len(derived_rows):
        ranks, closed = _radicals_by_row(alg, base_p_digits(reps, p, n), derived_rows)
        checks = [(sizes != p ** ranks, "orbit size {0} != |J|/|Rad| = {1} at dual {2}"),
                  (ranks % (2 * e) != 0, "orbit size {0} is not an even power of q at dual {2}"),
                  (~closed, "radical at dual {2} is not F_q-closed")]
        for bad, message in checks:
            if bad.any():
                i = bad.argmax()
                raise InternalInconsistencyError(message.format(sizes[i], p ** ranks[i], reps[i]))
        fake_degrees = q ** (ranks // (2 * e))
        orbits_by_rank = np.bincount(ranks)
    else:  # J is commutative: every radical is J
        ranks = np.broadcast_to(np.int64(0), reps.shape)
        fake_degrees = np.broadcast_to(np.int64(1), reps.shape)
        orbits_by_rank = np.array([len(reps)])
    fixed = int(np.count_nonzero(sizes == 1))
    expected_fixed = p ** (n - len(derived_rows))
    if fixed != expected_fixed:
        raise InternalInconsistencyError(
            f"fixed duals {fixed} != |J|/|[J,J]_L| = {expected_fixed}")
    return CensusResult(alg, part, reps, sizes, ranks, fake_degrees, orbits_by_rank, fixed)


def conjecture_probe(alg: NilAlgebra) -> dict:
    """Compare |J/[J,J]_L| with |(1+J)_ab|.

    Equality holds on many algebras (and conjecturally failed in general);
    disagreement is reported, never raised.
    """
    eng = engine_for(alg)
    derived_rows, _ = alg.derived_lie_subspace()
    lie_index = eng.p ** (eng.n - len(derived_rows))
    group_ab = eng.abelianization_order()
    return {
        "lie_index": lie_index,
        "group_abelianization": group_ab,
        "equal": lie_index == group_ab,
    }


def fake_degree_identities(census: CensusResult) -> dict:
    """Aggregate identities: sum of squares, count, abelianization count,
    read off orbits_by_rank: the h_r orbits of rank r have degree p^(r/2)."""
    p, by_rank = census.alg.field.p, census.orbits_by_rank.tolist()
    return {
        "orbit_count": census.count,
        "dual_size": int(census.sizes.sum()),
        "sum_fake_squares": sum(h * p ** r for r, h in enumerate(by_rank)),
        "group_order": census.alg.field.q ** census.alg.dim,
        "linear_count": by_rank[0],
        "fixed_points": census.fixed_points,
    }


# ------------------------------------------------- isotropic subalgebras --

# duals per batch of _polarizations: bounds its (duals, flag, n, n) stacks
_POLARIZATION_BATCH = 256


def _polarizations(alg: NilAlgebra, lam_rows):
    """Vergne's polarization of every dual row: H is the sum of the radicals
    rad(B|V) = {x in V : B(x, V) = 0} over the members V of the ideal flag,
    spanned by the suffixes of refine_to_flag, B = B_lambda.  Returns
    (rows, is_pivot): rows[b] is the prime echelon basis of H for
    lam_rows[b], int64, its dim H rows on top and zero rows below, and
    is_pivot[b] marks its pivot columns.

    Why H is a polarization, for flag members V <= W, x in rad(B|V),
    y in rad(B|W), and B(a, b) = lambda(ab - ba):
    - Isotropic: B(x, y) = 0, because x lies in W.
    - A subalgebra: xy and yx lie in V, because V is an ideal.  For v in V,
      B(xy, v) = B(x, yv) + B(y, vx) and B(yx, v) = B(y, xv) + B(x, vy).
      Every term is 0, so xy and yx lie in rad(B|V).
    - F_q-closed: B(omega x, y) = B(x, omega y), so every radical is
      omega-stable.
    - Maximal: write lambda = Tr o mu with mu F_q-linear; then rad(B|V) =
      rad(B_mu|V).  The flag steps have F_q-codimension 1, so Vergne's count
      gives dim H = dim J - rank(B) / 2e, the rank of the V = J term.

    One pass per _POLARIZATION_BATCH duals: their Gram matrices K, the
    matrices R K R^T of every flag member R, one kernel elimination of that
    stack, and one elimination of the sums; then the four properties are
    checked for every dual at once (_require_polarizations).  When B = 0, H
    is J.
    """
    p, n = alg.field.p, alg.dim * alg.field.e
    lam_rows = np.asarray(lam_rows, dtype=np.int64).reshape(-1, n)
    # K[s, t] = lambda([b_s, b_t]) = sum_k lambda_k (T[s, t, k] - T[t, s, k])
    lie = ((alg.T - alg.T.transpose(1, 0, 2)) % p).reshape(n * n, n).T
    # R[i]: flag[e i:], a basis of flag member V_i, padded with zero rows to
    # n x n.  c R[i] lies in rad(B|V_i) exactly when c R[i] K R[i]^T = 0; a
    # zero row adds a kernel coordinate that R[i] maps to 0
    flag = alg.refine_to_flag()
    R = np.stack([np.pad(flag[i:], ((0, i), (0, 0))) for i in range(0, n, alg.field.e)])
    batches = []
    for lo in range(0, len(lam_rows), _POLARIZATION_BATCH):
        K = matmul_mod_p(lam_rows[lo:lo + _POLARIZATION_BATCH], lie, p).reshape(-1, n, n)
        RKR = matmul_mod_p(matmul_mod_p(R, K[:, None], p), R.transpose(0, 2, 1), p)
        ranks, kernels = nullspace_stack_mod_p(RKR.reshape(-1, n, n), p)
        sums = matmul_mod_p(kernels.reshape(len(K), len(R), n, n), R, p)
        ech, _, is_pivot = rref_stack_mod_p(sums.reshape(len(K), -1, n), p)
        rows = ech[:, :n].astype(np.int64)
        # rank(B) is the rank of the V = J term, R[0] = J
        _require_polarizations(alg, K, ranks.reshape(len(K), -1)[:, 0], rows, is_pivot, lo)
        batches.append((rows, is_pivot))
    return tuple(np.concatenate(parts) for parts in zip(*batches))


def _require_polarizations(alg: NilAlgebra, K, ranks, rows, is_pivot, first: int) -> None:
    """The exit checks of _polarizations on a batch, the duals first, first + 1, ..:
    the span of rows[b] is F_q-closed, isotropic for K[b], a subalgebra, and
    of dim J - ranks[b] / 2e over F_q.

    P[b, c] is the echelon row of rows[b] with pivot c (0 at other columns),
    so v - v P[b] is the residue of v against that echelon basis, zero
    exactly for the members of its span."""
    p, e, n = alg.field.p, alg.field.e, alg.dim * alg.field.e
    dims = is_pivot.sum(axis=1)
    P = np.zeros((len(rows), n, n), dtype=np.int64)
    P[is_pivot] = rows[np.arange(n) < dims[:, None]]

    def outside(vecs):  # (batch, m, n) -> whether a row of vecs[b] leaves span rows[b]
        return ((vecs - matmul_mod_p(vecs, P, p)) % p).any(axis=(1, 2))

    # products[b, i, j] = rows[b, i] rows[b, j], as NilAlgebra._products_of
    left = matmul_mod_p(rows, alg.T.reshape(n, n * n), p).reshape(-1, n, n, n)
    products = matmul_mod_p(rows[:, None], left, p).reshape(len(rows), n * n, n)
    expected = alg.dim - ranks // (2 * e)
    checks = [(outside(rows @ alg.omega % p) if e > 1 else np.zeros(len(rows), dtype=bool),
               "polarization of dual {0} is not F_q-closed"),
              (matmul_mod_p(matmul_mod_p(rows, K, p), rows.transpose(0, 2, 1), p).any(axis=(1, 2)),
               "constructed subalgebra of dual {0} is not isotropic"),
              (outside(products), "constructed space of dual {0} is not a subalgebra"),
              (dims != e * expected,
               "isotropic subalgebra of dual {0} has dim {1}, expected {2}")]
    for bad, message in checks:
        if bad.any():
            b = int(bad.argmax())
            raise InternalInconsistencyError(
                message.format(first + b, dims[b] // e, expected[b]))


# ------------------------------------------------------------ characters --

@dataclass
class CharacterTable:
    """chi_o(c) = sum_r H[o, c, r] zeta_p^r / fake_degrees[o], where H[o, c, r]
    counts the duals mu in orbit o with mu(log c) = r.  The values in lowest
    terms are the arrays of reduced(), one cell per value.  The induced
    histograms of every orbit, (I, dims) of _induced_histograms, are made
    the first time verify_induced_matches_orbit reads them."""
    alg: NilAlgebra
    class_reps: np.ndarray         # packed J-parts, one per conjugacy class, int64
    class_sizes: np.ndarray        # int64
    orbit_reps: np.ndarray         # packed duals, one per coadjoint orbit, int64
    fake_degrees: np.ndarray       # int64
    H: np.ndarray                  # int64 residue counts, shape (orbits, classes, p)
    _induced: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def k(self) -> int:
        return len(self.class_reps)

    def reduced(self) -> tuple[np.ndarray, np.ndarray]:
        """(den, vec) with chi_o(c) = sum_k vec[o, c, k-1] zeta_p^k / den[o, c]
        in lowest terms, den > 0: the coordinates H[o, c, k] - H[o, c, 0],
        divided once by their gcd with the degree."""
        vec = self.H[..., 1:] - self.H[..., :1]
        den = np.broadcast_to(self.fake_degrees[:, None], self.H.shape[:-1])
        g = np.gcd(np.gcd.reduce(vec, axis=-1), den)
        return den // g, vec // g[..., None]


# residues per block of _dual_histograms: bounds its (points x N) arrays
_HISTOGRAM_BATCH = 2 ** 21


def _dual_histograms(eng: AlgebraGroup, part: OrbitPartition, points) -> np.ndarray:
    """hist[i, o, r]: the duals mu in orbit o with mu(log x) = r, x = points[i],
    in blocks of at most _HISTOGRAM_BATCH residues mu(log x) (one point
    when N exceeds it)."""
    p, nd = eng.p, part.count
    points = np.asarray(points, dtype=np.int64)
    logs, duals = eng.log_digit_rows(), eng.digit_rows().T
    hist = np.empty((len(points), nd, p), dtype=np.int64)
    step = max(1, _HISTOGRAM_BATCH // eng.N)
    for lo in range(0, len(points), step):
        residues = matmul_mod_p(logs[points[lo:lo + step]], duals, p)
        idx = (np.arange(len(residues))[:, None] * nd + part.labels) * p + residues
        hist[lo:lo + step] = np.bincount(
            idx.ravel(), minlength=len(residues) * nd * p).reshape(-1, nd, p)
    return hist


def character_table(alg: NilAlgebra, census: CensusResult | None = None) -> CharacterTable:
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
    eng = engine_for(alg)
    if census is None:
        census = orbit_census(alg)
    classes = eng.conjugacy_classes()
    check_budget("character_table_max", census.count * classes.count * eng.p)
    H = np.ascontiguousarray(
        _dual_histograms(eng, census.partition, classes.reps).transpose(1, 0, 2))
    table = CharacterTable(alg, classes.reps, classes.sizes, census.reps,
                           census.fake_degrees, H)
    # chi(1) = fake degree: identity class is packed 0, always class rep 0
    if table.class_reps[0] != 0:
        raise InternalInconsistencyError("identity class is not first")
    # chi_o(1) = d_o: every coordinate (H[o,0,r] - H[o,0,0]) / d_o on zeta^r is -d_o
    deg = table.fake_degrees
    bad = np.flatnonzero((H[:, 0, 1:] - H[:, 0, :1] != -(deg * deg)[:, None]).any(axis=1))
    if bad.size:
        raise InternalInconsistencyError(f"chi(1) != fake degree on orbit {bad[0]}")
    _verify_class_constancy(eng, census, classes, H)
    return table


def _verify_class_constancy(eng, census, classes, H) -> None:
    """Each chi_Omega is constant on each conjugacy class, shown from the
    generators g of 1+J instead of member by member.

    Let M_g be the conjugation matrix of g (x^g = M_g x on columns), pi_g the
    permutation x -> x^g of group_perms, sigma_g the map mu -> mu M_g of
    dual_perms, and L the log rows.  Three checks, over every generator (the
    engine keeps only those with M_g != I):
    - (a) L[pi_g(x)] = L[x] M_g^T for every x: log(x^g) = log(x)^g;
    - (b) the orbit labels of the duals are invariant under sigma_g;
    - (c) M_g has rank n, by one elimination of the stack of all M_g.
    By (c) sigma_g is injective, so by (b) it permutes every orbit Omega.
    By (a), mu(log x^g) = mu(M_g log x) = (mu M_g)(log x), so the histogram
    #{mu in Omega : mu(log x^g) = r} at x^g is the histogram at x.  The
    classes are the orbits of the pi_g, and orbit_partition joins two points
    only along a chain of them, so every member of a class has the histogram
    of its representative.  A last check ties H, those histograms, to the
    same labels: each of its columns counts every dual of each orbit.
    """
    p, labels = eng.p, census.partition.labels
    mats = eng._generator_matrices()

    def fail(what: str):
        raise InternalInconsistencyError(
            f"{what}: cannot rule out that a character histogram varies inside a class")

    bad = rref_stack_mod_p(mats, p)[1] != eng.n
    if bad.any():
        fail(f"M_g is singular at generator {bad.argmax()}")
    perms, dual_perms, logs = eng.group_perms(), eng.dual_perms(), eng.log_digit_rows()
    for i, (mat, perm, dual_perm) in enumerate(zip(mats, perms, dual_perms)):
        if not np.array_equal(logs[perm], matmul_mod_p(logs, mat.T, p)):
            fail(f"log is not conjugation-equivariant at generator {i}")
        if not np.array_equal(labels[dual_perm], labels):
            fail(f"dual orbit labels move under generator {i}")
    counts = np.bincount(labels, minlength=len(H))
    if counts.size != len(H) or (H.sum(axis=2) != counts[:, None]).any():
        fail("H does not count every dual of each orbit")


def _shift_grams(table: CharacterTable) -> np.ndarray:
    """G[t, a, b] = sum_c |c| sum_r H[a, c, r] H[b, c, r - t], one matrix product
    per shift t, so that <chi_a, chi_b> = sum_t G[t, a, b] zeta^t / (N d_a d_b).

    Every term is nonnegative and no entry exceeds N max|O|^2, the bound
    of matmul_exact: float64 BLAS below 2^53, then int64, then exact ints.
    """
    H, N = table.H, table.alg.field.q ** table.alg.dim
    bound = N * int(H.sum(axis=2).max()) ** 2
    dtype = exact_dtype(bound)
    left = H.astype(dtype) * table.class_sizes.astype(dtype)[:, None]
    left = left.reshape(len(H), -1)
    return np.stack([matmul_exact(left, np.roll(H, t, axis=2).reshape(len(H), -1).T, bound)
                     for t in range(table.alg.field.p)])


def orthonormality_check(table: CharacterTable) -> bool:
    """Exact first orthogonality: <chi_a, chi_b> = delta_ab in Q(zeta_p), for
    all pairs at once.  sum_t G_t zeta^t is rational iff G_1 = G_t for every
    t >= 2, and it is then G_0 - G_1, which must be delta_ab N d_a^2.

    Raises on any failure, returns True otherwise.
    """
    N = table.alg.field.q ** table.alg.dim
    G = _shift_grams(table)
    deg = table.fake_degrees.astype(object)
    bad = (G[1:] != G[1]).any(axis=0) | (G[0] - G[1] != np.diag(N * deg * deg))
    if bad.any():
        a, b = (int(i) for i in np.argwhere(bad)[0])
        raise InternalInconsistencyError(
            f"<chi_{a}, chi_{b}> = sum_t G_t zeta^t / {N * deg[a] * deg[b]} with shift "
            f"sums G = {G[:, a, b].tolist()}, expected {int(a == b)}")
    return True


# ------------------------------------------------------ induced characters --

def _span_points(rows, p: int) -> np.ndarray:
    """Every Z/p-combination of the rows, one point per row of the result."""
    return base_p_digits(np.arange(p ** len(rows)), p, len(rows)) @ rows % p


def _subspace_packed_set(eng: AlgebraGroup, rows) -> np.ndarray:
    """All packed codes of the span of the given prime echelon rows."""
    return np.unique(_span_points(rows, eng.p) @ eng.powers)


# span points per batch of _induced_histograms: bounds its (points x n) arrays
_SPAN_BATCH = 2 ** 15


def _induced_histograms(eng: AlgebraGroup, lam_rows, rows, is_pivot) -> np.ndarray:
    """I[b, c, r]: the x in class c inside 1+H with lambda(log x) = r, for
    lambda = lam_rows[b] and H its polarization (rows[b], is_pivot[b]) from
    _polarizations.  The polarizations of one dimension h share their
    coefficient vectors: their span points go through the log rows and the
    class labels in batches of at most _SPAN_BATCH points (one polarization
    when p^h exceeds it).  Each span has p^h distinct points, which checks
    that its rows are independent."""
    p, k = eng.p, eng.conjugacy_classes().count
    labels, logs = eng.conjugacy_classes().labels, eng.log_digit_rows()
    lam_rows = np.asarray(lam_rows, dtype=np.int64)
    dims = is_pivot.sum(axis=1)
    I = np.empty((len(rows), k, p), dtype=np.int64)
    for h in np.unique(dims).tolist():
        coeffs = base_p_digits(np.arange(p ** h), p, h)
        same = np.flatnonzero(dims == h)
        step = max(1, _SPAN_BATCH // p ** h)
        for lo in range(0, same.size, step):
            b = same[lo:lo + step]
            codes = matmul_mod_p(coeffs, rows[b, :h], p) @ eng.powers
            ordered = np.sort(codes, axis=1)
            if (ordered[:, 1:] == ordered[:, :-1]).any():
                raise InternalInconsistencyError("isotropic span enumeration mismatch")
            residues = matmul_mod_p(logs[codes], lam_rows[b, :, None], p)[..., 0]
            idx = (np.arange(b.size)[:, None] * k + labels[codes]) * p + residues
            I[b] = np.bincount(idx.ravel(), minlength=b.size * k * p).reshape(-1, k, p)
    return I


def verify_induced_matches_orbit(alg: NilAlgebra, orbit_index: int,
                                 census: CensusResult | None = None,
                                 table: CharacterTable | None = None) -> bool:
    """Induced character from the isotropic polarization equals the orbit
    method character, exactly, on every conjugacy class:
    N d_o (I[c, r] - I[c, 0]) = |H| |c| (H[o, c, r] - H[o, c, 0]) for all c, r.

    I is row o of the induced histograms of every orbit of the table, made
    in one batch (_polarizations, _induced_histograms) the first time any
    orbit of it is verified."""
    eng = engine_for(alg)
    if table is None:
        table = character_table(alg, census)
    if table._induced is None:
        lam_rows = base_p_digits(table.orbit_reps, eng.p, eng.n)
        rows, is_pivot = _polarizations(alg, lam_rows)
        table._induced = (_induced_histograms(eng, lam_rows, rows, is_pivot),
                          is_pivot.sum(axis=1))
    I, dims = table._induced
    # d_o |H| = N and |O| = d_o^2 (checked by _polarizations and the census),
    # so neither side exceeds N^2 d_o <= N^3
    dtype = exact_dtype(eng.N ** 3)
    I, Ho = I[orbit_index].astype(dtype), table.H[orbit_index].astype(dtype)
    hsize, deg = eng.p ** int(dims[orbit_index]), int(table.fake_degrees[orbit_index])
    sizes = table.class_sizes.astype(dtype)[:, None]
    bad = np.flatnonzero((eng.N * deg * (I[:, 1:] - I[:, :1])
                          != hsize * sizes * (Ho[:, 1:] - Ho[:, :1])).any(axis=1))
    if bad.size:
        c = int(bad[0])
        raise InternalInconsistencyError(
            f"induced value differs from orbit character at class {c}: histogram "
            f"{I[c].tolist()} x N/(|H| |c|) = {eng.N}/{hsize * int(table.class_sizes[c])} "
            f"vs histogram {Ho[c].tolist()} / d = {deg}")
    return True


def transitivity_check(alg: NilAlgebra, orbit_index: int,
                       census: CensusResult | None = None) -> bool:
    """The subgroup 1+H acts transitively on the functionals agreeing with
    lambda on H.  That set is lambda + Ann(H); the check compares it with
    the orbit of lambda under 1+H, generated by adjoining the rows of H, then
    its points, since 1 + (rows of H) may generate a proper subgroup.  Their
    M_g act as their inverses, which generate 1+H too.

    The slow reference of the polarizations: one orbit, point by point, for
    the H that _polarizations builds for every dual in one batch; the tests
    run it on every orbit of the character corpus."""
    eng = engine_for(alg)
    if census is None:
        census = orbit_census(alg)
    p = eng.p
    lamv = base_p_digits([census.reps[orbit_index]], p, eng.n)[0].astype(np.int64)
    rows, is_pivot = _polarizations(alg, lamv[None])
    rows = rows[0, :is_pivot[0].sum()]
    # Ann(H): functionals vanishing on the prime basis of H
    ann = nullspace_mod_p(rows, eng.n, p)
    coset = (_span_points(ann, p) + lamv) % p
    inside = _subspace_packed_set(eng, rows)
    closure = np.zeros(eng.N, dtype=bool)
    closure[0] = True
    gens = _adjoin(closure, eng._right_mul_code, np.concatenate([rows @ eng.powers, inside]))
    if inside.size != p ** len(rows) or not np.array_equal(np.flatnonzero(closure), inside):
        raise InternalInconsistencyError("generators of 1+H do not close to 1+H")
    digits = base_p_digits(gens, p, eng.n).astype(np.int64)
    labels = orbit_partition([eng.affine_perm(mat) for mat in eng.conjugation_matrices(digits)],
                             eng.N).labels
    orbit = np.flatnonzero(labels == labels[lamv @ eng.powers])
    if not np.array_equal(orbit, np.unique(coset @ eng.powers)):
        raise InternalInconsistencyError(
            "1+H orbit does not exhaust the agreeing functionals")
    return True
