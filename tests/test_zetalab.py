import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitzeta import zetalab
from orbitzeta.budgets import Budgets, budget_scope
from orbitzeta.errors import BudgetError, ValidationError
from orbitzeta.zetalab import (
    A1,
    DegreeMultiset,
    FactorSpec,
    LieTypeSpec,
    TruncatedDirichlet,
    abscissa_estimate,
    akov_series,
    akov_term,
    dirichlet_product,
    divisor_tuple_count,
    integer_root,
    l_of_n,
    min_nontrivial_degree,
    prg_witness,
    prime_power_decompose,
    product_series,
    sl2_degrees,
    sl2_tower,
    synthetic_power_series,
    target_abscissa_spec,
)


# ------------------------------------------------------------- lie types --

def test_prime_power_decompose():
    assert prime_power_decompose(8) == (2, 3)
    assert prime_power_decompose(9) == (3, 2)
    assert prime_power_decompose(7) == (7, 1)
    assert prime_power_decompose(625) == (5, 4)
    assert prime_power_decompose(12) is None
    assert prime_power_decompose(1) is None
    assert prime_power_decompose(0) is None
    assert prime_power_decompose(3 ** 40) == (3, 40)
    assert prime_power_decompose((10 ** 18 + 3) ** 2) == (10 ** 18 + 3, 2)
    assert prime_power_decompose(6 ** 20) is None


def test_classical_type_data():
    assert (A1.rank, A1.pos_roots, A1.coxeter) == (1, 1, 2)
    b3 = LieTypeSpec.type_b(3)
    assert (b3.rank, b3.pos_roots, b3.coxeter) == (3, 9, 6)
    c2 = LieTypeSpec.type_c(2)
    assert (c2.rank, c2.pos_roots, c2.coxeter) == (2, 4, 4)
    d4 = LieTypeSpec.type_d(4)
    assert (d4.rank, d4.pos_roots, d4.coxeter) == (4, 12, 6)
    # h * rank = |Phi| holds across the families
    for k in range(2, 8):
        for mk in (LieTypeSpec.type_a, LieTypeSpec.type_b, LieTypeSpec.type_c):
            L = mk(k)
            assert L.coxeter * L.rank == 2 * L.pos_roots
    for k in range(3, 8):
        L = LieTypeSpec.type_d(k)
        assert L.coxeter * L.rank == 2 * L.pos_roots


def test_lie_type_validation():
    with pytest.raises(ValidationError):
        LieTypeSpec("bogus", 2, 5, 4)  # h*rank != 2|Phi+|
    with pytest.raises(ValidationError):
        LieTypeSpec("bogus", 0, 1, 2)
    with pytest.raises(ValidationError):
        LieTypeSpec.type_b(1)
    with pytest.raises(ValidationError):
        LieTypeSpec.type_d(2)


# ------------------------------------------------------- degree multisets --

def test_degree_multiset_validation():
    ms = DegreeMultiset(((1, 1), (2, 2), (3, 1)))
    assert ms.count() == 4
    assert ms.sum_degree_squares() == 1 + 8 + 9
    assert ms.min_nontrivial_degree() == 2
    with pytest.raises(ValidationError):
        DegreeMultiset(((2, 1), (1, 1)))  # unsorted
    with pytest.raises(ValidationError):
        DegreeMultiset(((1, 1), (1, 2)))  # duplicate degree
    with pytest.raises(ValidationError):
        DegreeMultiset(((0, 1),))
    with pytest.raises(ValidationError):
        DegreeMultiset(((1, 3),)).min_nontrivial_degree()


def test_sl2_degrees_q5():
    ms = sl2_degrees(5)
    assert ms.entries == ((1, 1), (2, 2), (3, 2), (4, 2), (5, 1), (6, 1))
    assert ms.count() == 9
    assert ms.sum_degree_squares() == 120  # |SL2(F_5)|
    assert ms.min_nontrivial_degree() == 2


def test_sl2_degrees_q7():
    ms = sl2_degrees(7)
    assert ms.entries == ((1, 1), (3, 2), (4, 2), (6, 3), (7, 1), (8, 2))
    assert ms.count() == 11
    assert ms.sum_degree_squares() == 7 * 48


def test_sl2_degrees_q9():
    ms = sl2_degrees(9)
    assert ms.entries == ((1, 1), (4, 2), (5, 2), (8, 4), (9, 1), (10, 3))
    assert ms.count() == 13
    assert ms.sum_degree_squares() == 9 * 80


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13, 25, 27, 49, 81, 121, 125])
def test_sl2_degrees_counting_identities(q):
    ms = sl2_degrees(q)
    assert ms.count() == q + 4
    assert ms.sum_degree_squares() == q * (q * q - 1)
    assert ms.min_nontrivial_degree() == (q - 1) // 2


@pytest.mark.parametrize("q", [2, 3, 4, 8, 15, 16])
def test_sl2_degrees_rejects_bad_q(q):
    with pytest.raises(ValidationError):
        sl2_degrees(q)


# ------------------------------------------------------- truncated series --

def test_truncated_series_basics():
    one = TruncatedDirichlet.identity(10)
    assert one.r(1) == 1 and one.r(10) == 0
    assert one.partial_count(10) == 1
    assert one.partial_sum(2.0) == 1.0
    f = TruncatedDirichlet(4, [0, 1, 3, 0, 0])
    assert f.partial_sum(1.0) == pytest.approx(1 + 3 / 2)
    assert f.support() == [(1, 1), (2, 3)]
    with pytest.raises(ValidationError):
        f.r(5)
    with pytest.raises(ValidationError):
        f.partial_count(0)
    with pytest.raises(ValidationError):
        TruncatedDirichlet(0)
    with pytest.raises(ValidationError):
        TruncatedDirichlet(3, [0, 1])  # wrong length
    with pytest.raises(ValidationError):
        TruncatedDirichlet(2, [0, 1.5, 0])  # no float coefficients


def test_from_degree_multiset():
    f = TruncatedDirichlet.from_degree_multiset(sl2_degrees(5), 4)
    assert f.coeffs.tolist() == [0, 1, 2, 2, 2]  # degrees above the cutoff drop out
    with pytest.raises(ValidationError):
        TruncatedDirichlet.from_degree_multiset(DegreeMultiset(((2, 1),)), 4)


def test_dirichlet_product_hand_case():
    f = TruncatedDirichlet(6, [0, 1, 2, 0, 0, 0, 0])
    g = TruncatedDirichlet(6, [0, 1, 0, 3, 0, 0, 0])
    h = f * g
    assert h.coeffs.tolist() == [0, 1, 2, 3, 0, 0, 6]
    assert h.exact


def _brute_product(f, g, N):
    """The double loop over all a, b <= N with ab <= N, on Python ints."""
    fc, gc = f.coeffs.tolist(), g.coeffs.tolist()
    out = [0] * (N + 1)
    for a in range(1, N + 1):
        for b in range(1, N // a + 1):
            out[a * b] += fc[a] * gc[b]
    return out


def test_dirichlet_product_vs_brute_force():
    rng = random.Random(20260813)
    N = 40
    for _ in range(10):
        f = TruncatedDirichlet(N, [0] + [rng.randrange(4) for _ in range(N)])
        g = TruncatedDirichlet(N, [0] + [rng.randrange(4) for _ in range(N)])
        h = f * g
        assert h.coeffs.tolist() == _brute_product(f, g, N)


def test_dirichlet_product_sparse_times_dense_int64():
    rng = random.Random(5)
    N = 300
    for _ in range(6):
        sparse = [0] * (N + 1)
        for n in rng.sample(range(1, N + 1), 7):
            sparse[n] = rng.randrange(-10 ** 6, 10 ** 6)
        dense = [0] + [rng.randrange(-10 ** 6, 10 ** 6) for _ in range(N)]
        f, g = TruncatedDirichlet(N, sparse), TruncatedDirichlet(N, dense)
        for h in (f * g, g * f):
            assert h.coeffs.dtype == np.int64
            assert h.coeffs.tolist() == _brute_product(f, g, N)


def test_dirichlet_product_past_int64_is_exact_python_ints():
    # entries near 2^40: max|f| * sum|g| passes 2^63, and so do the true
    # coefficients, which int64 arithmetic would wrap
    rng = random.Random(11)
    N = 60
    f = TruncatedDirichlet(N, [0] + [rng.choice((-1, 1)) * (2 ** 40 - rng.randrange(1000))
                                     for _ in range(N)])
    g = TruncatedDirichlet(N, [0] + [rng.randrange(2 ** 40) if n % 3 else 0
                                     for n in range(1, N + 1)])
    assert f.coeffs.dtype == g.coeffs.dtype == np.int64
    h = f * g
    assert h.coeffs.dtype == object
    want = _brute_product(f, g, N)
    assert max(map(abs, want)) > 2 ** 63
    assert h.coeffs.tolist() == want
    # each product 3e9 * 3e9 fits in int64, the sums over divisors do not
    f = TruncatedDirichlet(N, [0] + [3 * 10 ** 9] * N)
    h = f * f
    assert h.coeffs.dtype == object
    assert h.coeffs.tolist() == _brute_product(f, f, N)


def _signed_series(draw, N, scale):
    """A random series with a few coefficients of either sign up to scale."""
    coeffs = [0] * (N + 1)
    for n in draw(st.lists(st.integers(1, N), max_size=12)):
        coeffs[n] = draw(st.integers(-scale, scale))
    return TruncatedDirichlet(N, coeffs)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), N=st.integers(1, 80),
       scale=st.sampled_from([1, 3, 2 ** 31, 2 ** 40, 2 ** 70]))
def test_sparse_product_matches_brute_force_with_cancellation(data, N, scale):
    f = _signed_series(data.draw, N, scale)
    g = _signed_series(data.draw, N, scale)
    # f * (g - g) and f*g - f*g cancel to 0 everywhere; f*g + f*(-g) too
    minus_g = TruncatedDirichlet(N, [-c for c in g.coeffs.tolist()])
    for h, want in ((f * g, _brute_product(f, g, N)),
                    (f * minus_g, [-c for c in _brute_product(f, g, N)])):
        assert h.coeffs.tolist() == want
        assert all(c != 0 for c in h.values.tolist())  # zeros leave the support
        assert h.index.tolist() == [n for n in range(1, N + 1) if want[n]]
        fv, gv = [list(map(abs, x.values.tolist())) for x in (f, g)]
        bound = min(max(fv, default=0) * sum(gv), max(gv, default=0) * sum(fv))
        assert h.values.dtype == (np.int64 if bound < 2 ** 63 else object)
    both = TruncatedDirichlet(N, [a + b for a, b in zip((f * g).coeffs.tolist(),
                                                          (f * minus_g).coeffs.tolist())])
    assert both == TruncatedDirichlet(N) and both.support() == []


def test_sparse_product_cancels_to_the_zero_series():
    # (1 + 2^-s)(1 - 2^-s) = 1 - 4^-s: the 2^-s terms cancel
    f = TruncatedDirichlet(8, [0, 1, 1, 0, 0, 0, 0, 0, 0])
    g = TruncatedDirichlet(8, [0, 1, -1, 0, 0, 0, 0, 0, 0])
    assert (f * g).support() == [(1, 1), (4, -1)]
    boxed = TruncatedDirichlet(8, np.array([0, 2 ** 70, 2 ** 70, 0, 0, 0, 0, 0, 0],
                                           dtype=object))
    h = boxed * g
    assert h.values.dtype == object
    assert h.support() == [(1, 2 ** 70), (4, -2 ** 70)]


def test_sparse_product_blocks_agree_with_one_block(monkeypatch):
    rng = random.Random(3)
    N = 2000
    f = TruncatedDirichlet(N, [0] + [rng.randrange(-3, 4) for _ in range(N)])
    g = TruncatedDirichlet(N, [0] + [rng.randrange(-3, 4) for _ in range(N)])
    whole = f * g
    monkeypatch.setattr(zetalab, "_PAIR_BLOCK", 97)
    assert f * g == whole
    assert whole.coeffs.tolist() == _brute_product(f, g, N)


def test_partial_counts_past_int64_with_int64_coefficients():
    N = 12
    f = TruncatedDirichlet(N, [0] + [2 ** 62 - n for n in range(1, N + 1)])
    assert f.coeffs.dtype == np.int64
    want = [sum(2 ** 62 - m for m in range(1, n + 1)) for n in range(N + 1)]
    assert want[-1] > 2 ** 63
    assert f.partial_counts(range(N + 1)) == list(enumerate(want))
    assert f.partial_count(N) == want[N]


def test_equality_compares_values_not_dtypes():
    values = [0, 1, 2, 0, 0, 3]
    small = TruncatedDirichlet(5, values)
    boxed = TruncatedDirichlet(5, np.array(values, dtype=object))
    assert small.coeffs.dtype == np.int64 and boxed.coeffs.dtype == object
    assert small == boxed and boxed == small
    boxed = TruncatedDirichlet(5, np.array(values[:5] + [2 ** 70], dtype=object))
    assert small != boxed
    with pytest.raises(ValueError):
        small.coeffs[5] = 4  # the dense view is read-only
    # a multiplicity beyond int64 makes the series exact Python ints
    big = TruncatedDirichlet.from_degree_multiset(DegreeMultiset(((1, 1), (2, 2 ** 70))), 4)
    assert big.coeffs.dtype == object
    assert big.support() == [(1, 1), (2, 2 ** 70)]
    assert big.partial_count(4) == 2 ** 70 + 1


def test_dirichlet_product_algebra():
    rng = random.Random(7)
    N = 30
    f, g, h = (TruncatedDirichlet(N, [0] + [rng.randrange(3) for _ in range(N)])
               for _ in range(3))
    one = TruncatedDirichlet.identity(N)
    assert (f * g).coeffs.tolist() == (g * f).coeffs.tolist()
    assert ((f * g) * h).coeffs.tolist() == (f * (g * h)).coeffs.tolist()
    assert (f * one).coeffs.tolist() == f.coeffs.tolist()
    approx = TruncatedDirichlet(N, list(g.coeffs), exact=False)
    assert not (f * approx).exact
    with pytest.raises(ValidationError):
        dirichlet_product(f, g, N=50)


def test_dirichlet_product_shrinks_to_smaller_cutoff():
    f = TruncatedDirichlet(20, [0] + [1] * 20)
    g = TruncatedDirichlet.identity(8)
    assert (f * g).N == 8


# ------------------------------------------------------------ akov terms --

def test_akov_term():
    assert akov_term(A1, 5) == (5, 1)
    assert akov_term(LieTypeSpec.type_b(2), 3) == (9, 4)
    with pytest.raises(ValidationError):
        akov_term(A1, 1)


def test_akov_series_support():
    f = akov_series(A1, 7, 50)
    assert f.support() == [(1, 1), (7, 7)]
    assert not f.exact
    g = akov_series(LieTypeSpec.type_b(2), 3, 50)  # 3^4 = 81 > 50
    assert g.support() == [(1, 1)]


# --------------------------------------------------------- product series --

def test_product_series_single_factor_matches_multiset():
    spec = FactorSpec([(A1, 5, 1)])
    f = product_series(spec, 100)
    assert f == TruncatedDirichlet.from_degree_multiset(sl2_degrees(5), 100)


def test_product_series_square_against_pair_oracle():
    spec = FactorSpec([(A1, 5, 2)])
    f = product_series(spec, 36)
    # all 9 x 9 degree pairs of SL2(F_5)^2 have product <= 6 * 6 = 36
    assert f.partial_count(36) == 81
    brute = {}
    ent = sl2_degrees(5).entries
    for d1, m1 in ent:
        for d2, m2 in ent:
            if d1 * d2 <= 36:
                brute[d1 * d2] = brute.get(d1 * d2, 0) + m1 * m2
    assert dict(f.support()) == brute


def test_product_series_skips_factors_beyond_cutoff():
    # min nontrivial degree of SL2(F_101) is 50, invisible below n = 10
    spec = FactorSpec([(A1, 5, 1), (A1, 101, 1)])
    assert product_series(spec, 10) == product_series(FactorSpec([(A1, 5, 1)]), 10)
    assert product_series(FactorSpec([(A1, 101, 1)]), 10) == TruncatedDirichlet.identity(10)


def test_product_series_exact_mode_rejects_non_a1():
    spec = FactorSpec([(LieTypeSpec.type_b(2), 3, 1)])
    with pytest.raises(ValidationError):
        product_series(spec, 100)
    with pytest.raises(ValidationError):
        product_series(FactorSpec([(A1, 5, 1)]), 10, mode="bogus")


def test_product_series_akov_tower():
    f = product_series(sl2_tower(5, 3), 200, mode="akov")
    assert not f.exact
    assert f.r(5) == 5
    assert f.r(25) == 25
    assert f.r(125) == 125 + 5 * 25  # own term plus the 5 x 25 convolution


def test_product_series_akov_multiplicity_binomials():
    f = product_series(FactorSpec([(A1, 3, 2)]), 20, mode="akov")
    assert dict(f.support()) == {1: 1, 3: 6, 9: 9}  # (1 + 3m^-s)^2
    # (1 + a m^-s)^mult with m = q^|Phi+| is sum_j C(mult, j) a^j m^(-js)
    for L, q, mult, N in [(A1, 2, 13, 5000), (LieTypeSpec.type_b(2), 2, 6, 4096),
                          (A1, 5, 10 ** 6, 10 ** 4)]:
        a, m = akov_term(L, q)
        m = q ** m
        want = {m ** j: math.comb(mult, j) * a ** j
                for j in range(min(mult, N.bit_length()) + 1) if m ** j <= N}
        f = product_series(FactorSpec([(L, q, mult)]), N, mode="akov")
        assert dict(f.support()) == want
        assert not f.exact


def test_product_series_akov_is_approximate_when_every_factor_is_skipped():
    f = product_series(FactorSpec([(A1, 101, 3)]), 50, mode="akov")
    assert f.support() == [(1, 1)]
    assert not f.exact
    assert product_series(FactorSpec([(A1, 101, 3)]), 50).exact


def test_product_series_tower_stays_int64():
    series = product_series(sl2_tower(5, 12), 10 ** 6)
    assert series.coeffs.dtype == np.int64
    assert len(series.support()) == 619


def test_product_series_budget():
    with budget_scope(Budgets(series_cutoff_max=100)), pytest.raises(BudgetError):
        product_series(sl2_tower(5, 2), 10 ** 4)


def test_product_series_counts_products_before_the_first(monkeypatch):
    # 2^64 - 1 takes 63 squarings and 64 multiplications; 16 takes 4 and 1;
    # SL2(101) is invisible below N = 10 and costs nothing
    spec = FactorSpec([(A1, 5, 2 ** 64 - 1), (A1, 7, 16), (A1, 101, 2 ** 64 - 1)])
    calls = []

    def counting(*args, real=zetalab.dirichlet_product):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(zetalab, "dirichlet_product", counting)
    with budget_scope(Budgets(series_products_max=131)):
        with pytest.raises(BudgetError, match="series_products_max"):
            product_series(spec, 10)
    assert calls == []
    with budget_scope(Budgets(series_products_max=132)):
        product_series(spec, 10)
    assert len(calls) == 132


def test_factor_spec_validation():
    with pytest.raises(ValidationError):
        FactorSpec([(A1, 1, 1)])
    with pytest.raises(ValidationError):
        FactorSpec([(A1, 5, -1)])
    with pytest.raises(ValidationError):
        FactorSpec([("A1", 5, 1)])
    tower = sl2_tower(3, 4)
    assert [q for _, q, _ in tower.factors] == [3, 9, 27, 81]
    assert all(L is A1 and m == 1 for L, _, m in tower.factors)


# ----------------------------------------------------------------- l(n) --

def test_min_nontrivial_degree():
    assert min_nontrivial_degree(A1, 5) == 2
    assert min_nontrivial_degree(A1, 9) == 4
    assert min_nontrivial_degree(A1, 4) == 4  # even q falls back to q^|Phi+|
    b2 = LieTypeSpec.type_b(2)
    assert min_nontrivial_degree(b2, 3) == 81


def test_l_of_n_tower():
    tower = sl2_tower(5, 4)
    # min nontrivial degrees: 2, 12, 62, 312
    assert l_of_n(tower, 1) == 0
    assert l_of_n(tower, 2) == 1
    assert l_of_n(tower, 11) == 1
    assert l_of_n(tower, 12) == 2
    assert l_of_n(tower, 62) == 3
    assert l_of_n(tower, 312) == 4
    vals = [l_of_n(tower, n) for n in range(1, 320)]
    assert vals == sorted(vals)


def test_l_of_n_counts_multiplicity():
    spec = FactorSpec([(A1, 5, 3), (A1, 25, 2)])
    assert l_of_n(spec, 2) == 3
    assert l_of_n(spec, 12) == 5


def test_prg_witness():
    tower = sl2_tower(5, 3)
    series = product_series(tower, 4000)
    for n in (2, 4, 8, 16, 62):
        assert prg_witness(series, tower, n)
    with pytest.raises(ValidationError):
        prg_witness(series, tower, 64)  # 64^2 > 4000


def test_prg_witness_bound_is_tight_enough_to_fail_sometimes():
    # a spec whose l(n) overcounts the series: same factor listed with
    # multiplicity 40 but the series holds just one copy
    lying = FactorSpec([(A1, 5, 40)])
    series = product_series(FactorSpec([(A1, 5, 1)]), 100)
    assert not prg_witness(series, lying, 10)


# ------------------------------------------------------ abscissa estimate --

@pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(1), Fraction(2)])
def test_abscissa_recovers_synthetic_exponent(c):
    series = synthetic_power_series(c, 20000)
    est = abscissa_estimate(series)
    assert abs(est.estimate - float(c)) < 0.01


def test_abscissa_estimate_fields():
    series = synthetic_power_series(1, 5000)
    est = abscissa_estimate(series, grid=32)
    assert est.N == 5000
    assert est.path[-1][0] == 5000
    assert len(est.path) <= 32
    ns = [n for n, _, _ in est.path]
    assert ns == sorted(ns)
    rs = [r for _, r, _ in est.path]
    assert rs == sorted(rs)  # partial counts only grow
    assert est.tail_max >= est.estimate - 1e-12
    assert math.isfinite(est.ls_slope)


def test_abscissa_single_group_decays():
    # one finite group: R_n is eventually constant, the ratio drifts to 0
    f100 = TruncatedDirichlet.from_degree_multiset(sl2_degrees(9), 100)
    f10k = TruncatedDirichlet.from_degree_multiset(sl2_degrees(9), 10 ** 4)
    e1 = abscissa_estimate(f100).estimate
    e2 = abscissa_estimate(f10k).estimate
    assert e1 > e2 > 0
    assert e2 == pytest.approx(math.log(13) / math.log(10 ** 4))


def test_abscissa_estimate_rejects_short_series():
    with pytest.raises(ValidationError):
        abscissa_estimate(TruncatedDirichlet.identity(3))


def test_integer_root_exact():
    assert integer_root(10 ** 30, 3) == 10 ** 10
    assert integer_root(10 ** 30 - 1, 3) == 10 ** 10 - 1
    assert integer_root(2 ** 100, 2) == 2 ** 50
    assert integer_root(2 ** 100 - 1, 2) == 2 ** 50 - 1
    assert integer_root(0, 5) == 0
    assert integer_root(1, 5) == 1
    assert integer_root(7, 1) == 7
    with pytest.raises(ValidationError):
        integer_root(-1, 2)
    with pytest.raises(ValidationError):
        integer_root(4, 0)
    # far beyond float range: no float step, no OverflowError
    x = 2 ** 1100
    r = integer_root(x, 3)
    assert r ** 3 <= x < (r + 1) ** 3


def test_synthetic_power_series_huge_exponent():
    t0 = time.monotonic()
    series = synthetic_power_series(Fraction(801, 2), 10)
    assert time.monotonic() - t0 < 5
    assert [sum(series.coeffs.tolist()[1:n + 1]) for n in range(1, 11)] == \
        [math.isqrt(n ** 801) for n in range(1, 11)]


def _synthetic_by_integer_root(c, N):
    """The loop of one integer_root per n, on Python ints."""
    a, b = c.numerator, c.denominator
    floors = [integer_root(n ** a, b) for n in range(N + 1)]
    return [0] + [y - x for x, y in zip(floors, floors[1:])]


@settings(max_examples=60, deadline=None)
@given(a=st.integers(1, 40), b=st.integers(1, 7), N=st.integers(1, 3000))
def test_one_pass_synthetic_matches_integer_root(a, b, N):
    c = Fraction(a, b)
    series = synthetic_power_series(c, N)
    assert series.coeffs.tolist() == _synthetic_by_integer_root(c, N)


@pytest.mark.parametrize("c,N", [(Fraction(1, 2), 10 ** 5), (Fraction(3, 2), 10 ** 5),
                                 (Fraction(7, 3), 400), (Fraction(801, 2), 12),
                                 (Fraction(63, 1), 2), (Fraction(62, 1), 2),
                                 (Fraction(1, 7), 5000)])
def test_one_pass_synthetic_on_both_routes(c, N):
    # N^a past 2^63 leaves int64: 7/3 at N = 400 takes the float estimate,
    # 801/2 and 2^63 (floors past 2^52) integer_root; 2^62 and 1/7 stay on int64
    assert synthetic_power_series(c, N).coeffs.tolist() == _synthetic_by_integer_root(c, N)


@pytest.mark.parametrize("c", [Fraction(7, 3), Fraction(5, 7), Fraction(9, 4), Fraction(2, 9)])
def test_float_estimate_route_matches_integer_root(c):
    # N^a passes 2^63 for 7/3, 5/7 and 9/4: the float estimate decides every
    # n far from an integer; 2/9 stays on int64
    N = 10 ** 5
    assert synthetic_power_series(c, N).coeffs.tolist() == _synthetic_by_integer_root(c, N)


@pytest.mark.parametrize("c", [Fraction(7, 3), Fraction(5, 7)])
def test_float_estimate_route_is_fast(c):
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        synthetic_power_series(c, 10 ** 5)
        best = min(best, time.perf_counter() - t0)
    assert best < 0.05


def test_synthetic_power_series_partial_counts():
    series = synthetic_power_series(Fraction(3, 2), 500)
    for n in (1, 7, 100, 499, 500):
        assert series.partial_count(n) == integer_root(n ** 3, 2)
    with pytest.raises(ValidationError):
        synthetic_power_series(0, 10)


# --------------------------------------------------------- target builder --

def test_target_spec_structure():
    b2 = LieTypeSpec.type_b(2)  # k = 2, h = 4
    spec = target_abscissa_spec(Fraction(1, 2), b2, 2, imax=60)
    assert spec.n0 >= 1
    assert len(spec.entries) == 60
    for i, a, f in spec.entries:
        assert a == max((i * 1) // 2, -((-2 * i) // 4))
        if i <= spec.n0:
            assert f == 0
        else:
            assert f == 2 ** ((2 * (4 * a - 2 * i)) // 2)
    fs = spec.to_factor_spec()
    assert all(q == 2 ** i for (_, q, _), (i, _, f) in
               zip(fs.factors, [e for e in spec.entries if e[2] > 0]))
    assert all(m > 0 for _, _, m in fs.factors)


def test_target_spec_validation():
    b2 = LieTypeSpec.type_b(2)
    with pytest.raises(ValidationError):
        target_abscissa_spec(Fraction(1, 2), A1, 2)  # k*h*c = 1 <= 2
    with pytest.raises(ValidationError):
        target_abscissa_spec(1, LieTypeSpec.type_a(2), 2)  # h = 3 odd
    with pytest.raises(ValidationError):
        target_abscissa_spec(1, b2, 6)  # 6 not prime
    with pytest.raises(ValidationError):
        target_abscissa_spec(-1, b2, 2)


def test_target_spec_budgets():
    t0 = time.monotonic()
    with pytest.raises(BudgetError, match="target_terms_max"):
        target_abscissa_spec(Fraction(3, 2), A1, 5, imax=10 ** 8)
    # f(2) = 5^(2 * 10^5 - 2) has about 464,000 bits
    with pytest.raises(ValidationError, match="supports at most 65536"):
        target_abscissa_spec(10 ** 5, A1, 5, imax=2)
    assert time.monotonic() - t0 < 5
    # f(2) = 5^(2 * 10^4 - 2) has about 46,000 bits and is still formed
    spec = target_abscissa_spec(10 ** 4, A1, 5, imax=2)
    assert spec.entries[1][2] == 5 ** (2 * 10 ** 4 - 2)
    with pytest.raises(ValidationError):
        target_abscissa_spec(Fraction(3, 2), A1, 5, imax=0)


def test_target_partial_sums_split_at_the_target():
    spec = target_abscissa_spec(1, LieTypeSpec.type_b(2), 2, imax=200)
    above = spec.akov_partial_sums(1.1)[-1][1]
    below = spec.akov_partial_sums(0.9)[-1][1]
    assert above < 10 ** 3
    assert below > 10 ** 6
    sums = [s for _, s in spec.akov_partial_sums(1.1)]
    assert sums == sorted(sums)  # saturating partial sums never decrease


def test_target_partial_sums_respect_imax():
    spec = target_abscissa_spec(1, LieTypeSpec.type_b(2), 2, imax=50)
    assert len(spec.akov_partial_sums(1.0, imax=10)) == 10


# --------------------------------------------------------- factorizations --

def _ordered_factorizations(n):
    """Independent oracle: enumerate the tuples themselves."""
    if n == 1:
        return [()]
    out = []
    for d in range(2, n + 1):
        if n % d == 0:
            out.extend((d,) + rest for rest in _ordered_factorizations(n // d))
    return out


def test_divisor_tuple_count_hand_values():
    assert divisor_tuple_count(1) == 1
    assert divisor_tuple_count(2) == 1
    assert divisor_tuple_count(4) == 2
    assert divisor_tuple_count(6) == 3
    assert divisor_tuple_count(8) == 4
    assert divisor_tuple_count(12) == 8
    with pytest.raises(ValidationError):
        divisor_tuple_count(0)


@pytest.mark.parametrize("n", list(range(1, 61)))
def test_divisor_tuple_count_vs_enumeration(n):
    assert divisor_tuple_count(n) == len(_ordered_factorizations(n))


def test_divisor_tuple_count_polynomial_growth():
    # ordered-factorization counts fit under n^d for a small d
    worst = 0.0
    for n in range(2, 2001):
        cnt = divisor_tuple_count(n)
        if cnt > 1:
            worst = max(worst, math.log(cnt) / math.log(n))
    assert worst < 2.0
    assert all(divisor_tuple_count(n) <= n ** 2 for n in range(1, 2001))


def test_akov_approximant_dominates_exact_partial_counts():
    # R_n(exact SL2) <= 3 R_(2n)(akov) uniformly in q: the two-term
    # approximant controls the exact series after constant index dilation
    for q in (5, 7, 9, 13, 25, 49, 81):
        N = 8 * q
        f = TruncatedDirichlet.from_degree_multiset(sl2_degrees(q), N)
        g = akov_series(A1, q, N)
        for n in range(1, N // 2 + 1):
            assert f.partial_count(n) <= 3 * g.partial_count(2 * n), (q, n)


def test_coefficient_domination_orders_partial_sums():
    # coefficient-wise r_m(f) <= r_m(g) forces F_n(s) <= G_n(s) at every
    # truncation and every s, hence the abscissa estimates are ordered too
    N = 600
    f = product_series(FactorSpec([(A1, 5, 1)]), N)
    g = product_series(FactorSpec([(A1, 5, 3)]), N)
    assert all(a <= b for a, b in zip(f.coeffs[1:], g.coeffs[1:]))
    for s in (0.6, 1.0, 2.0):
        fsum = gsum = 0.0
        for n in range(1, N + 1):
            fsum += f.coeffs[n] * n ** (-s)
            gsum += g.coeffs[n] * n ** (-s)
            assert fsum <= gsum + 1e-12
    assert abscissa_estimate(f).estimate <= abscissa_estimate(g).estimate


def test_target_spec_a1_closed_form():
    # type A1 (k = 1, h = 2) at p = 5, c = 2: a_i = 2i and f(i) = 5^i
    spec = target_abscissa_spec(2, A1, 5, imax=30)
    assert spec.n0 == 1
    for i, a, f in spec.entries:
        assert a == 2 * i
        assert f == (5 ** i if i > 1 else 0)
