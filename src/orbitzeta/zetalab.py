"""Representation zeta data at desk scale: exact SL2(F_q) degree multisets,
truncated Dirichlet series and their convolution for products of groups of
Lie type, abscissa-of-convergence estimation, and the construction of factor
families whose zeta function has a prescribed abscissa.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .budgets import check_budget
from .errors import InternalInconsistencyError, ValidationError
from .ffield import integer_root, is_prime, prime_power_decompose
from .linalg import exact_dtype


# ------------------------------------------------------------ Lie types --

@dataclass(frozen=True)
class LieTypeSpec:
    """Combinatorial data of an irreducible root system: rank, number of
    positive roots, Coxeter number, tied by h*rank = |Phi| = 2|Phi+|."""

    label: str
    rank: int
    pos_roots: int
    coxeter: int

    def __post_init__(self):
        if self.rank < 1 or self.pos_roots < 1 or self.coxeter < 1:
            raise ValidationError("root system data must be positive")
        if self.coxeter * self.rank != 2 * self.pos_roots:
            raise ValidationError(
                f"h*rank = {self.coxeter * self.rank} != 2|Phi+| = {2 * self.pos_roots}")

    @classmethod
    def type_a(cls, k: int) -> "LieTypeSpec":
        return cls(f"A{k}", k, k * (k + 1) // 2, k + 1)

    @classmethod
    def type_b(cls, k: int) -> "LieTypeSpec":
        if k < 2:
            raise ValidationError("type B needs rank >= 2")
        return cls(f"B{k}", k, k * k, 2 * k)

    @classmethod
    def type_c(cls, k: int) -> "LieTypeSpec":
        if k < 2:
            raise ValidationError("type C needs rank >= 2")
        return cls(f"C{k}", k, k * k, 2 * k)

    @classmethod
    def type_d(cls, k: int) -> "LieTypeSpec":
        if k < 3:
            raise ValidationError("type D needs rank >= 3")
        return cls(f"D{k}", k, k * (k - 1), 2 * k - 2)


A1 = LieTypeSpec.type_a(1)


# -------------------------------------------------------- degree multisets --

@dataclass(frozen=True)
class DegreeMultiset:
    """Sorted (degree, multiplicity) pairs for one group's irreducibles."""

    entries: tuple

    def __post_init__(self):
        for deg, mult in self.entries:
            if deg < 1 or mult < 1:
                raise ValidationError("degrees and multiplicities must be positive")
        if list(self.entries) != sorted(self.entries):
            raise ValidationError("entries must be sorted by degree")
        degs = [d for d, _ in self.entries]
        if len(set(degs)) != len(degs):
            raise ValidationError("duplicate degree entries")

    def count(self) -> int:
        return sum(m for _, m in self.entries)

    def sum_degree_squares(self) -> int:
        return sum(m * d * d for d, m in self.entries)

    def min_nontrivial_degree(self) -> int:
        for d, _ in self.entries:
            if d > 1:
                return d
        raise ValidationError("multiset has no nontrivial degree")


def sl2_degrees(q: int) -> DegreeMultiset:
    """Irreducible degrees of SL2(F_q) for odd q >= 5, with multiplicities:
    1, q once; (q+1) with multiplicity (q-3)/2; (q-1) with (q-1)/2; and
    (q+1)/2, (q-1)/2 twice each.

    Validated on every call: q+4 irreducibles, sum of squares q(q^2-1).
    """
    pp = prime_power_decompose(q)
    if pp is None or not is_prime(pp[0]):
        raise ValidationError(f"{q} is not a prime power")
    if q % 2 == 0 or q < 5:
        raise ValidationError("need odd q >= 5")
    raw = [
        (1, 1),
        ((q - 1) // 2, 2),
        ((q + 1) // 2, 2),
        (q - 1, (q - 1) // 2),
        (q, 1),
        (q + 1, (q - 3) // 2),
    ]
    ms = DegreeMultiset(tuple(sorted((d, m) for d, m in raw if m > 0)))
    if ms.count() != q + 4:
        raise InternalInconsistencyError(
            f"SL2({q}) multiset has {ms.count()} entries, expected {q + 4}")
    if ms.sum_degree_squares() != q * (q * q - 1):
        raise InternalInconsistencyError(
            f"SL2({q}) sum of degree squares mismatches the group order")
    return ms


# ------------------------------------------------------ truncated series --

def _abs_max(values: np.ndarray) -> int:
    return max(int(values.max()), -int(values.min())) if len(values) else 0


def _abs_sum(values: np.ndarray) -> int:
    return sum(map(abs, values.tolist()))


# pairs (a, b) formed at once by one product; bounds its temporaries
_PAIR_BLOCK = 2**18


def _sum_by_index(index: np.ndarray, values: np.ndarray):
    """(sorted distinct n, sum of the values at n) over the n whose sum is
    not 0.  The stable sort merges an already sorted run in linear time."""
    if not len(index):
        return index, values
    order = np.argsort(index, kind="stable")
    index, values = index[order], values[order]
    starts = np.flatnonzero(np.r_[True, index[1:] != index[:-1]])
    sums = np.add.reduceat(values, starts)
    keep = np.flatnonzero(sums != 0)
    return index[starts[keep]], sums[keep]


class TruncatedDirichlet:
    """Dirichlet series coefficients r_1..r_N as exact integers, held as
    their support: index, the sorted n in 1..N with r_n != 0, and values,
    the r_n at those n.

    values is int64 when every entry is known to fit, else dtype=object
    holding Python ints.  Products and cumulative sums choose their dtype
    from a proven bound on every value they form, so no arithmetic wraps
    and no float touches a coefficient.  Nothing of length N is kept:
    coeffs is a read-only dense view r_0..r_N (r_0 = 0), built from the
    support on each read.  exact=True means every coefficient below the
    cutoff is the true one; approximant series (AKOV two-term factors)
    carry exact=False.
    """

    __slots__ = ("N", "index", "values", "exact")

    def __init__(self, N: int, coeffs=None, exact: bool = True):
        """The series with dense coefficients coeffs[n] = r_n (index 0
        unused), or the zero series when coeffs is None."""
        if N < 1:
            raise ValidationError("cutoff must be >= 1")
        if coeffs is None:
            coeffs = np.zeros(N + 1, dtype=np.int64)
        elif not (isinstance(coeffs, np.ndarray) and coeffs.dtype in (np.int64, object)):
            try:
                values = [operator.index(c) for c in coeffs]
            except TypeError:
                raise ValidationError("coefficients must be integers") from None
            try:
                coeffs = np.array(values, dtype=np.int64)
            except OverflowError:
                coeffs = np.array(values, dtype=object)
        if coeffs.shape != (N + 1,):
            raise ValidationError("coefficient array must have length N+1")
        self.N = N
        self.index = np.flatnonzero(coeffs[1:]) + 1
        self.values = coeffs[self.index]
        self.exact = exact

    @classmethod
    def _from_arrays(cls, N: int, index: np.ndarray, values: np.ndarray,
                     exact: bool = True) -> "TruncatedDirichlet":
        """The series with r_n = values[i] at n = index[i]; index sorted,
        in 1..N, and no value 0."""
        out = cls.__new__(cls)
        out.N, out.index, out.values, out.exact = N, index, values, exact
        return out

    @classmethod
    def _from_support(cls, N: int, support, exact: bool = True) -> "TruncatedDirichlet":
        """The series with r_n = c for each (n, c), distinct n in 1..N."""
        support = sorted((n, c) for n, c in support if c)
        dtype = exact_dtype(max((abs(c) for _, c in support), default=0))
        return cls._from_arrays(N, np.array([n for n, _ in support], dtype=np.int64),
                                np.array([c for _, c in support], dtype=dtype), exact)

    @classmethod
    def identity(cls, N: int) -> "TruncatedDirichlet":
        return cls._from_support(N, [(1, 1)])

    @classmethod
    def from_degree_multiset(cls, ms: DegreeMultiset, N: int) -> "TruncatedDirichlet":
        out = cls._from_support(N, [(d, m) for d, m in ms.entries if d <= N])
        if out.r(1) < 1:
            raise ValidationError("group series must contain the trivial representation")
        return out

    @property
    def coeffs(self) -> np.ndarray:
        """Dense read-only r_0..r_N in the dtype of values, r_0 = 0."""
        out = np.zeros(self.N + 1, dtype=self.values.dtype)
        out[self.index] = self.values
        out.flags.writeable = False
        return out

    def _truncated(self, N: int):
        """(index, values) of the support at n <= N."""
        k = int(np.searchsorted(self.index, N, side="right"))
        return self.index[:k], self.values[:k]

    def r(self, n: int) -> int:
        if not 1 <= n <= self.N:
            raise ValidationError(f"coefficient index {n} outside 1..{self.N}")
        i = int(np.searchsorted(self.index, n))
        return int(self.values[i]) if i < len(self.index) and self.index[i] == n else 0

    def partial_count(self, n: int) -> int:
        """R_n = number of irreducibles of degree <= n."""
        if not 1 <= n <= self.N:
            raise ValidationError(f"index {n} outside 1..{self.N}")
        return self.partial_counts([n])[0][1]

    def partial_counts(self, points) -> list[tuple[int, int]]:
        """(n, R_n) at each of the points: one cumulative sum over the
        support, in int64 when max|r_m| times the support size fits."""
        points = list(points)
        values = self.values
        running = np.cumsum(values, dtype=exact_dtype(_abs_max(values) * len(values)))
        running = [0] + running.tolist()
        ends = np.searchsorted(self.index, points, side="right").tolist()
        return [(n, running[i]) for n, i in zip(points, ends)]

    def support(self):
        return list(zip(self.index.tolist(), self.values.tolist()))

    def partial_sum(self, s: float) -> float:
        """Sum of r_n / n^s over the truncation range."""
        return sum(c * n ** (-s) for n, c in self.support())

    def __mul__(self, other: "TruncatedDirichlet") -> "TruncatedDirichlet":
        return dirichlet_product(self, other)

    def __eq__(self, other) -> bool:
        """Equal cutoff, exactness and coefficient values, whatever the dtypes."""
        return (isinstance(other, TruncatedDirichlet) and self.N == other.N
                and self.exact == other.exact
                and bool(np.array_equal(self.index, other.index))
                and bool(np.array_equal(self.values, other.values)))

    def __repr__(self) -> str:
        head = {n: c for n, c in self.support()[:6]}
        tag = "exact" if self.exact else "approx"
        return f"TruncatedDirichlet(N={self.N}, {tag}, head={head})"


def dirichlet_product(f: TruncatedDirichlet, g: TruncatedDirichlet,
                      N: int | None = None) -> TruncatedDirichlet:
    """(fg)_n = sum over ab = n of f_a g_b, exactly, below the cutoff.

    Works on the supports alone: the pairs (a, b) of the two supports with
    ab <= N are formed in blocks of at most _PAIR_BLOCK, and their products
    f_a g_b are summed by ab; sums that cancel to 0 leave the support.
    Every entry and partial sum of the result is at most max|f_a| *
    sum|g_b| (and the same with f and g swapped), so the result is int64
    when that bound fits and exact Python ints otherwise.
    """
    if N is None:
        N = min(f.N, g.N)
    if N > min(f.N, g.N):
        raise ValidationError("product cutoff exceeds an operand cutoff")
    if N < 1:
        raise ValidationError("cutoff must be >= 1")
    (fz, fv), (gz, gv) = f._truncated(N), g._truncated(N)
    if not (len(fz) and len(gz)):
        return TruncatedDirichlet(N, exact=f.exact and g.exact)
    dtype = exact_dtype(min(_abs_max(fv) * _abs_sum(gv), _abs_max(gv) * _abs_sum(fv)))
    fv, gv = fv.astype(dtype), gv.astype(dtype)
    counts = np.searchsorted(gz, N // fz, side="right")   # partners b of each a
    ends = np.cumsum(counts)
    index, values = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=dtype)
    lo = 0
    while lo < len(fz):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - counts[lo] + _PAIR_BLOCK,
                                             side="right")))
        c = counts[lo:hi]
        rows = np.repeat(np.arange(lo, hi), c)
        cols = np.arange(rows.size) - np.repeat(np.cumsum(c) - c, c)
        index, values = _sum_by_index(np.concatenate([index, fz[rows] * gz[cols]]),
                                      np.concatenate([values, fv[rows] * gv[cols]]))
        lo = hi
    return TruncatedDirichlet._from_arrays(N, index, values, exact=f.exact and g.exact)


# ----------------------------------------------------------- AKOV terms --

def akov_term(L: LieTypeSpec, q: int):
    """(a, b) of the two-term approximant 1 + a * m^(-s) at m = q^b:
    a = q^rank, b = |Phi+|."""
    if q < 2:
        raise ValidationError("need q >= 2")
    return q ** L.rank, L.pos_roots


def akov_series(L: LieTypeSpec, q: int, N: int) -> TruncatedDirichlet:
    a, b = akov_term(L, q)
    support = [(1, 1)] + ([(q ** b, a)] if q ** b <= N else [])
    return TruncatedDirichlet._from_support(N, support, exact=False)


# ---------------------------------------------------------- factor specs --

@dataclass
class FactorSpec:
    """A product of finite groups of Lie type: (type, q, multiplicity)."""

    factors: list
    name: str = ""

    def __post_init__(self):
        for L, q, mult in self.factors:
            if not isinstance(L, LieTypeSpec):
                raise ValidationError("factor type must be a LieTypeSpec")
            if q < 2 or mult < 0:
                raise ValidationError("factor needs q >= 2 and multiplicity >= 0")


def sl2_tower(p: int, imax: int) -> FactorSpec:
    """Product of SL2(F_p^i) for i = 1..imax, one copy each."""
    return FactorSpec([(A1, p ** i, 1) for i in range(1, imax + 1)],
                      name=f"sl2-tower-{p}")


def product_series(spec: FactorSpec, N: int, mode: str = "exact") -> TruncatedDirichlet:
    """Convolution of the factor series, truncated at N.

    Only factors whose minimal nontrivial degree is <= N contribute; the
    rest multiply the series by 1 + O(n^(-s)) terms beyond the cutoff.
    exact mode requires type A1 with odd q (SL2 data); akov mode uses the
    two-term approximants.  Either way a factor's series is raised to its
    multiplicity by square-and-multiply: bit_length + popcount - 1
    products, about 2 log2(mult).  Their total is checked against
    series_products_max before the first product.
    """
    check_budget("series_cutoff_max", N)
    if mode not in ("exact", "akov"):
        raise ValidationError(f"unknown mode {mode!r}")
    powers = []
    for L, q, mult in spec.factors:
        if mult == 0:
            continue
        if mode == "exact":
            if (L.rank, L.pos_roots) != (1, 1):
                raise ValidationError(
                    f"exact mode supports only type A1 factors, got {L.label}")
            ms = sl2_degrees(q)
            if ms.min_nontrivial_degree() > N:
                continue
            powers.append((TruncatedDirichlet.from_degree_multiset(ms, N), mult))
        elif q ** L.pos_roots <= N:
            powers.append((akov_series(L, q, N), mult))
    check_budget("series_products_max",
                 sum(mult.bit_length() + mult.bit_count() - 1 for _, mult in powers))
    out = TruncatedDirichlet.identity(N)
    for f, mult in powers:
        while True:
            if mult & 1:
                out = dirichlet_product(out, f)
            mult >>= 1
            if not mult:
                break
            f = dirichlet_product(f, f)
    if mode == "akov":
        out.exact = False
    return out


# --------------------------------------------------------------- l_H(n) --

def min_nontrivial_degree(L: LieTypeSpec, q: int) -> int:
    """Exact (q-1)/2 for A1 with odd q >= 5; otherwise the AKOV support
    degree q^|Phi+|."""
    if (L.rank, L.pos_roots) == (1, 1) and q % 2 == 1 and q >= 5:
        return (q - 1) // 2
    return q ** L.pos_roots


def l_of_n(spec: FactorSpec, n: int) -> int:
    """Number of factors, with multiplicity, having an irreducible of
    nontrivial degree <= n."""
    total = 0
    for L, q, mult in spec.factors:
        if min_nontrivial_degree(L, q) <= n:
            total += mult
    return total


def prg_witness(series: TruncatedDirichlet, spec: FactorSpec, n: int) -> bool:
    """R_(n^2) >= l(n)(l(n)-1)/2 — the counting inequality behind the
    polynomial-representation-growth characterization."""
    if n * n > series.N:
        raise ValidationError(f"need n^2 = {n * n} within the cutoff {series.N}")
    l = l_of_n(spec, n)
    return series.partial_count(n * n) >= l * (l - 1) // 2


# ---------------------------------------------------- abscissa estimation --

@dataclass
class AbscissaEstimate:
    estimate: float            # log R_N / log N at the cutoff
    tail_max: float            # max of log R_n / log n over the tail n >= N^tail_exponent
    ls_slope: float            # least-squares slope of log R_n vs log n on the tail
    path: list                 # (n, R_n, log R_n / log n) on the geometric grid
    N: int


def abscissa_estimate(series: TruncatedDirichlet, grid: int = 48,
                      tail_exponent: float = 0.5) -> AbscissaEstimate:
    """Sample log R_n / log n on a geometric grid.  The estimate is the
    ratio at the cutoff N; the tail maximum and the least-squares slope
    over n >= N^tail_exponent come along as stability diagnostics.  An
    estimator, not a certificate: the limsup is invisible to any finite
    truncation, and lumpy degree distributions keep the tail max well
    above the limit long after the cutoff ratio has settled.
    """
    N = series.N
    if N < 4:
        raise ValidationError("series too short to estimate anything")
    points = sorted({max(2, round(N ** (j / grid))) for j in range(1, grid + 1)})
    path = [(n, acc, math.log(acc) / math.log(n) if acc >= 1 else 0.0)
            for n, acc in series.partial_counts(points)]
    cutoff = N ** tail_exponent
    tail = [(n, r, ratio) for n, r, ratio in path if n >= cutoff and r >= 1]
    if not tail:
        raise InternalInconsistencyError("empty tail in abscissa estimation")
    est = next(ratio for n, _, ratio in reversed(path) if n == points[-1])
    tail_max = max(ratio for _, _, ratio in tail)
    xs = [math.log(n) for n, _, _ in tail]
    ys = [math.log(r) for _, r, _ in tail]
    if len(tail) >= 2:
        mx = sum(xs) / len(xs)
        my = sum(ys) / len(ys)
        denom = sum((x - mx) ** 2 for x in xs)
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / denom if denom else est
    else:
        slope = est
    return AbscissaEstimate(est, tail_max, slope, path, N)


def synthetic_power_series(c, N: int) -> TruncatedDirichlet:
    """r_n = floor(n^c) - floor((n-1)^c) for rational c, so R_n = floor(n^c)
    exactly and the true abscissa is c.

    With c = a/b, floor(n^c) is the largest m with m^b <= n^a.  When N^a
    and (floor(N^c) + 2)^b fit in int64, all n go in one int64 pass: a
    float estimate of n^c, then exact steps down while m^b > n^a and up
    while (m+1)^b <= n^a.

    Otherwise, while floor(N^c) + 2 < 2^52, the float estimate
    e = n ** fl(a/b) still decides floor(n^c) = floor(e) for every n whose
    e lies farther than B = e 2^-44 from each integer, and only the other
    n take integer_root on Python ints.  The bound: fl(a/b) = c(1 + d) with
    |d| <= 2^-53 moves the exact power by a factor exp(d c ln n) =
    exp(d ln x), x = n^c < 2^52, so by less than 36.1 * 2^-53 < 2^-47.8
    relatively; pow adds at most 4 ulp (2^-50) on top.  So
    |e - x| < e 2^-47.4 < B, no integer lies between x and e when e is
    farther than B from every integer, and floor(x) = floor(e) there.  n = 0
    and the exact powers (e an integer) always take the exact route.
    Beyond 2^52 the float spacing passes 1 and every n takes integer_root.
    """
    c = Fraction(c)
    if c <= 0:
        raise ValidationError("exponent must be positive")
    a, b = c.numerator, c.denominator
    top = integer_root(N ** a, b) + 2
    if exact_dtype(max(N ** a, top ** b)) is np.int64:
        n = np.arange(N + 1, dtype=np.int64)
        power = n ** a
        m = power if b == 1 else np.minimum(
            np.floor(n.astype(np.float64) ** (a / b)), top - 1).astype(np.int64)
        while (high := m ** b > power).any():
            m -= high
        while (low := (m + 1) ** b <= power).any():
            m += low
        return TruncatedDirichlet(N, np.diff(m, prepend=0))
    if top < 2**52:
        est = np.arange(N + 1, dtype=np.float64) ** (a / b)
        m = np.floor(est).astype(np.int64)
        for n in np.flatnonzero(np.abs(est - np.rint(est)) <= est * 2.0**-44).tolist():
            m[n] = integer_root(n ** a, b)
        return TruncatedDirichlet(N, np.diff(m, prepend=0))
    floors = [integer_root(n ** a, b) for n in range(N + 1)]
    return TruncatedDirichlet(N, [0] + [y - x for x, y in zip(floors, floors[1:])])


# ------------------------------------------------- target-abscissa builder --

@dataclass
class TargetSpec:
    """Factor family Prod L(p^i)^(f(i)) whose zeta abscissa is the target c:
    f(i) = p^(k(h a_i - 2i)/2) for i > n0, with a_i tracking i*c."""

    L: LieTypeSpec
    p: int
    c: Fraction
    n0: int
    entries: list              # (i, a_i, f_i) with f_i = 0 for i <= n0

    def to_factor_spec(self) -> FactorSpec:
        return FactorSpec([(self.L, self.p ** i, f) for i, _, f in self.entries if f > 0],
                          name=f"target-c={self.c}")

    def akov_partial_sums(self, s: float, imax: int | None = None):
        """Saturating partial sums of f(i) * p^(ik(1 - sh/2)) = the series
        contribution p^((ikh/2)(a_i/i - s)) per factor, at real s."""
        k, h, p = self.L.rank, self.L.coxeter, self.p
        sums = []
        acc = 0.0
        for i, a, f in self.entries:
            if imax is not None and i > imax:
                break
            if f == 0:
                sums.append((i, acc))
                continue
            log10_term = (i * k * h / 2.0) * (a / i - s) * math.log10(p)
            term = 10.0 ** min(log10_term, 300.0)
            acc = min(acc + term, 1e300)
            sums.append((i, acc))
        return sums


# a large c or p makes f(i) grow as fast as a large imax does: at c = 10^6,
# p = 5 the builder would form a 6-million-bit power at i = 2
_TARGET_MULT_BITS_MAX = 2**16


def target_abscissa_spec(c, L: LieTypeSpec, p: int, imax: int = 400) -> TargetSpec:
    """Choose a_i = max(floor(ic), ceil(2i/h)) and f(i) = p^(k(h a_i - 2i)/2).

    Needs h even (so the exponent is an integer) and k*h*c > 2 (so the
    series diverges at s < c).  a_i = floor(ic) satisfies the window
    0 <= c - a_i/i < 1/i; the ceil(2i/h) adjustment (only possible for
    small i) keeps the multiplicity exponent nonnegative.  imax is bounded
    by target_terms_max, and the bit length of each f(i) by
    _TARGET_MULT_BITS_MAX before the power is formed.
    """
    if imax < 1:
        raise ValidationError("need imax >= 1")
    check_budget("target_terms_max", imax)
    c = Fraction(c)
    if c <= 0:
        raise ValidationError("target abscissa must be positive")
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    k, h = L.rank, L.coxeter
    if h % 2:
        raise ValidationError("construction requires an even Coxeter number")
    if Fraction(k * h) * c <= 2:
        raise ValidationError(f"need k*h*c > 2, got {k * h * Fraction(c)}")
    entries = []
    n0 = None
    for i in range(1, imax + 1):
        floor_ic = (i * c.numerator) // c.denominator
        ceil_2ih = -((-2 * i) // h)
        a = max(floor_ic, ceil_2ih)
        if n0 is None and k * h * a > 2 * i:
            n0 = i
        exponent = k * (h * a - 2 * i)
        if exponent % 2:
            raise InternalInconsistencyError("odd multiplicity exponent with even h")
        f = 0
        if n0 is not None and i > n0:
            bits = exponent // 2 * p.bit_length()
            if bits > _TARGET_MULT_BITS_MAX:
                raise ValidationError(
                    f"multiplicity f({i}) would have about {bits} bits; the builder "
                    f"supports at most {_TARGET_MULT_BITS_MAX}; use a smaller c or p")
            f = p ** (exponent // 2)
        entries.append((i, a, f))
    if n0 is None:
        raise InternalInconsistencyError("threshold index not found; khc > 2 should force it")
    return TargetSpec(L, p, c, n0, entries)


# ------------------------------------------------------- factorizations --

@lru_cache(maxsize=None)
def divisor_tuple_count(n: int) -> int:
    """Ordered factorizations of n into parts >= 2; 1 has the empty one."""
    if n < 1:
        raise ValidationError("need n >= 1")
    if n == 1:
        return 1
    total = 0
    d = 2
    while d * d <= n:
        if n % d == 0:
            total += divisor_tuple_count(n // d)
            if d != n // d:
                total += divisor_tuple_count(d)
        d += 1
    return total + 1  # the one-part factorization (n)