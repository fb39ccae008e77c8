import itertools
import random

import numpy as np
import pytest

from orbitzeta.errors import BudgetError, ValidationError
from orbitzeta.budgets import Budgets, budget_scope
from orbitzeta.ffield import (Field, _poly_mod, _poly_mul, _poly_powmod, is_prime,
                              make_field, p_adic)
from orbitzeta.linalg import base_p_digits
from orbitzeta.nilalg import parse_algebra_file, serialize_algebra


SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3), (7, 1), (3, 3)]


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(2, 32):
        assert is_prime(n) == (n in primes)
    assert not is_prime(1)
    assert not is_prime(0)


def test_is_prime_matches_sieve_below_1e5():
    sieve = np.ones(10**5, dtype=bool)
    sieve[:2] = False
    for d in range(2, 317):
        if sieve[d]:
            sieve[d * d::d] = False
    assert [n for n in range(10**5) if is_prime(n)] == np.flatnonzero(sieve).tolist()


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2..7 and 2..23 respectively
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(1000000000000000003)


def test_is_prime_refuses_beyond_proven_bound():
    assert not is_prime(2**100)  # a base divides it: no refusal needed
    with pytest.raises(ValidationError):
        is_prime(2**127 - 1)


def test_make_field_rejects_bad_input():
    with pytest.raises(ValidationError):
        make_field(4)
    with pytest.raises(ValidationError):
        make_field(6, 2)
    with pytest.raises(ValidationError):
        Field(2, 0)


def test_make_field_interned():
    assert make_field(3, 2) is make_field(3, 2)
    assert make_field(3, 2) is not make_field(3, 1)


# ------------------------------------------- F_q on digit arrays --

def _ref_mul(f, a, b):
    """a * b for digit tuples by the polynomial kit: the scalar reference,
    which never calls reduce_digit_products."""
    red = _poly_mod(_poly_mul(list(a), list(b), f.p), list(f.modulus), f.p)
    return tuple(red) + (0,) * (f.e - len(red))


def _ref_pow(f, a, n):
    red = _poly_powmod(list(a), n, list(f.modulus), f.p)
    return tuple(red) + (0,) * (f.e - len(red))


def _all_rows(f):
    """The (q, e) digit array of every element of f, row c holding code c."""
    return base_p_digits(np.arange(f.q), f.p, f.e).astype(np.int64)


def _mul(f, x, y):
    """Row-wise products of digit arrays of equal shape, on arrays."""
    return f.reduce_digit_products(x[..., :, None] * y[..., None, :] % f.p)


def _pairs(f):
    """Every pair (x, y) of elements of f as two (q^2, e) digit arrays."""
    rows = _all_rows(f)
    return np.repeat(rows, f.q, axis=0), np.tile(rows, (f.q, 1))


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_digit_products_match_polynomial_kit(p, e):
    f = make_field(p, e)
    x, y = _pairs(f)
    want = [_ref_mul(f, a, b) for a, b in zip(x.tolist(), y.tolist())]
    assert [tuple(r) for r in _mul(f, x, y).tolist()] == want


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_digit_products_match_sympy(p, e):
    galois = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    f = make_field(p, e)
    x, y = _pairs(f)
    modulus = list(f.modulus)[::-1]   # sympy lists the leading coefficient first
    got = _mul(f, x, y).tolist()
    for a, b, row in zip(x.tolist(), y.tolist(), got):
        prod = galois.gf_mul(galois.gf_strip(a[::-1]), galois.gf_strip(b[::-1]), p, ZZ)
        rem = [int(c) for c in galois.gf_rem(prod, modulus, p, ZZ)][::-1]
        assert row == rem + [0] * (e - len(rem)), (a, b)


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_every_element_satisfies_x_q_equals_x(p, e):
    f = make_field(p, e)
    x = _all_rows(f)
    assert np.array_equal(f.row_power(x, f.q), x)
    for n in (0, 1, 2, p, f.q - 1, 2 * f.q + 3):
        assert [tuple(r) for r in f.row_power(x, n).tolist()] == \
            [_ref_pow(f, a, n) for a in x.tolist()]


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_field_axioms_sampled(p, e):
    f = make_field(p, e)
    rng = np.random.default_rng(1000 * p + e)
    a, b, c = (_all_rows(f)[rng.integers(0, f.q, 200)] for _ in range(3))
    one = np.zeros_like(a)
    one[:, 0] = 1
    assert np.array_equal(_mul(f, (a + b) % p, c), (_mul(f, a, c) + _mul(f, b, c)) % p)
    assert np.array_equal(_mul(f, a, _mul(f, b, c)), _mul(f, _mul(f, a, b), c))
    assert np.array_equal(_mul(f, a, b), _mul(f, b, a))
    assert np.array_equal(_mul(f, a, one), a)


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_inverse_and_division(p, e):
    # x^(q-2) is the inverse of every nonzero x: F_q^* is a group
    f = make_field(p, e)
    x = _all_rows(f)[1:]
    one = np.zeros_like(x)
    one[:, 0] = 1
    assert np.array_equal(_mul(f, x, f.row_power(x, f.q - 2)), one)


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)])
def test_frobenius_fixed_field_is_prime_field(p, e):
    f = make_field(p, e)
    x = _all_rows(f)
    frob = f.row_power(x, p)
    assert (frob == x).all(axis=1).sum() == p
    # phi has order e
    y = x
    for _ in range(e):
        y = f.row_power(y, p)
    assert np.array_equal(y, x)
    # and is a ring homomorphism, on every pair
    a, b = _pairs(f)
    fa, fb = f.row_power(a, p), f.row_power(b, p)
    assert np.array_equal(f.row_power((a + b) % p, p), (fa + fb) % p)
    assert np.array_equal(f.row_power(_mul(f, a, b), p), _mul(f, fa, fb))


def _traces(f, x):
    """x + x^p + .. + x^(p^(e-1)) for the digit rows x."""
    acc, power = x.copy(), x
    for _ in range(f.e - 1):
        power = f.row_power(power, f.p)
        acc += power
    return acc % f.p


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_trace_additive_and_surjective(p, e):
    f = make_field(p, e)
    traces = _traces(f, _all_rows(f))
    assert not traces[:, 1:].any()          # lands in the prime field
    # each fiber of the trace has size q/p
    assert np.bincount(traces[:, 0], minlength=p).tolist() == [f.q // p] * p
    a, b = _pairs(f)
    assert np.array_equal(_traces(f, (a + b) % p), (_traces(f, a) + _traces(f, b)) % p)


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_code_roundtrip(p, e):
    # a code of an algebra file reads back as its digits and writes back as
    # itself; q is out of range
    f = make_field(p, e)
    for code, digits in enumerate(_all_rows(f).tolist()):
        assert sum(c * p ** m for m, c in enumerate(digits)) == code
        text = f"alg {p} {e} 2\n0 0 1 {code}\n" if code else f"alg {p} {e} 2\n"
        assert serialize_algebra(parse_algebra_file(text)) == text
    with pytest.raises(ValidationError, match=f"element code {f.q} out of range for F_{f.q}"):
        parse_algebra_file(f"alg {p} {e} 2\n0 0 1 {f.q}\n")


def test_t_is_root_of_modulus():
    f = make_field(2, 3)
    t = np.array([0, 1, 0])
    acc = sum(c * f.row_power(t, i) for i, c in enumerate(f.modulus)) % f.p
    assert not acc.any()


def test_field_budget():
    with budget_scope(Budgets(field_q_max=2**10)), pytest.raises(BudgetError):
        make_field(2, 30)


def test_field_budget_is_checked_before_forming_a_huge_power():
    # 2^(3 * 10^9) would take minutes to form; the bit-length bound refuses it first
    for build in (lambda: Field(2, 3 * 10**9), lambda: Field(3, 10**12)):
        with pytest.raises(BudgetError, match="field_q_max"):
            build()
    with budget_scope(Budgets()), pytest.raises(BudgetError, match="field_q_max"):
        make_field(2, 3 * 10**9)


def test_make_field_under_raised_budget_is_interned():
    with budget_scope(Budgets(field_q_max=2 * 10**6)):
        f = make_field(1048583, 1)
        assert f.q == 1048583 and make_field(1048583, 1) is f
    with pytest.raises(BudgetError, match="field_q_max"):
        make_field(1048583, 1)  # the cache does not bypass the default budget


def test_modulus_search_is_lazy_in_p():
    # p = 4294967291 = 3 mod 4, so t^2 + 1 is irreducible and comes first
    with budget_scope(Budgets(field_q_max=2**64)):
        assert Field(4294967291, 2).modulus == (1, 0, 1)


# ------------------------------------------------------- polynomial kit --

def test_p_adic():
    assert p_adic(1, 2) == (0, 1)
    for p in (2, 3, 7):
        for v in range(6):
            assert p_adic(p ** v, p) == (v, 1)
    assert p_adic(35, 3) == (0, 35)
    assert p_adic(2**61 - 1, 2) == (0, 2**61 - 1)
    assert p_adic(3**4 * 5, 3) == (4, 5)
    assert p_adic(-24, 2) == (3, -3)
    for bad in ((0, 2), (5, 1), (5, 0)):
        with pytest.raises(ValidationError):
            p_adic(*bad)


@pytest.mark.parametrize("mod,m", [(5, [2, 0, 1]), (5**3, [2, 0, 1]),
                                   (2**4, [1, 1, 0, 1]), (3**2, [7, 1])])
def test_poly_powmod_matches_repeated_multiplication(mod, m):
    rng = random.Random(mod)
    a = [rng.randrange(mod) for _ in range(len(m) + 2)]
    exponents = {0, 1} | {2**k + d for k in range(1, 7) for d in (-1, 1)}
    acc, n = _poly_mod([1], m, mod), 0
    for target in sorted(exponents):
        while n < target:
            acc = _poly_mod(_poly_mul(acc, a, mod), m, mod)
            n += 1
        assert _poly_powmod(a, n, m, mod) == acc, (mod, m, n)


def _irreducible_by_trial_division(m, p):
    deg = len(m) - 1
    return all(_poly_mod(m, list(tail) + [1], p)
               for d in range(1, deg // 2 + 1)
               for tail in itertools.product(range(p), repeat=d))


@pytest.mark.parametrize("p,e", [(2, 2), (2, 4), (2, 6), (3, 2), (3, 4), (5, 3), (7, 2)])
def test_modulus_is_least_irreducible_by_trial_division(p, e):
    # the lexicographically least monic irreducible, constant term first
    least = next(list(tail) + [1] for tail in itertools.product(range(p), repeat=e)
                 if _irreducible_by_trial_division(list(tail) + [1], p))
    assert list(make_field(p, e).modulus) == least
