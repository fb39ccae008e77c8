import itertools
import random

import numpy as np
import pytest

from orbitzeta.errors import BudgetError, ValidationError
from orbitzeta.budgets import Budgets
from orbitzeta.ffield import (Field, FieldElement, _poly_mod, _poly_mul, _poly_powmod,
                              is_prime, make_field, p_adic)


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


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_every_element_satisfies_x_q_equals_x(p, e):
    f = make_field(p, e)
    for x in f.elements():
        assert x ** f.q == x


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_field_axioms_sampled(p, e):
    f = make_field(p, e)
    rng = random.Random(1000 * p + e)
    els = list(f.elements())
    for _ in range(60):
        a, b, c = (rng.choice(els) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a + b == b + a
        assert a * b == b * a
        assert a + (-a) == f.zero
        assert a * f.one == a


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_inverse_and_division(p, e):
    f = make_field(p, e)
    for x in f.elements():
        if x.is_zero():
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        else:
            assert x * x.inverse() == f.one
            assert x ** -1 == x.inverse()
            assert (f.one / x) * x == f.one


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)])
def test_frobenius_fixed_field_is_prime_field(p, e):
    f = make_field(p, e)
    fixed = [x for x in f.elements() if x.frobenius() == x]
    assert len(fixed) == p
    # phi has order e
    for x in f.elements():
        y = x
        for _ in range(e):
            y = y.frobenius()
        assert y == x
    # and is a ring homomorphism
    rng = random.Random(17)
    els = list(f.elements())
    for _ in range(40):
        a, b = rng.choice(els), rng.choice(els)
        assert (a + b).frobenius() == a.frobenius() + b.frobenius()
        assert (a * b).frobenius() == a.frobenius() * b.frobenius()


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_trace_additive_and_surjective(p, e):
    f = make_field(p, e)
    traces = {x.trace() for x in f.elements()}
    assert traces == set(range(p))
    # each fiber of the trace has size q/p
    from collections import Counter

    fibers = Counter(x.trace() for x in f.elements())
    assert all(v == f.q // p for v in fibers.values())
    rng = random.Random(5)
    els = list(f.elements())
    for _ in range(40):
        a, b = rng.choice(els), rng.choice(els)
        assert (a + b).trace() == (a.trace() + b.trace()) % p


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_code_roundtrip(p, e):
    f = make_field(p, e)
    for code in range(f.q):
        assert f.from_code(code).code == code
    with pytest.raises(ValidationError):
        f.from_code(f.q)


def test_t_is_root_of_modulus():
    f = make_field(2, 3)
    t = f.t()
    acc = f.zero
    for i, c in enumerate(f.modulus):
        acc = acc + f.from_code(c) * t ** i  # c < p: a prime subfield element
    assert acc.is_zero()
    with pytest.raises(ValidationError):
        make_field(5).t()


def test_field_budget():
    from orbitzeta.budgets import Budgets

    with pytest.raises(BudgetError):
        make_field(2, 30, budgets=Budgets(field_q_max=2**10))


def test_field_budget_is_checked_before_forming_a_huge_power():
    # 2^(3 * 10^9) would take minutes to form; the bit-length bound refuses it first
    from orbitzeta.budgets import Budgets

    for build in (lambda: Field(2, 3 * 10**9), lambda: Field(3, 10**12),
                  lambda: make_field(2, 3 * 10**9, budgets=Budgets())):
        with pytest.raises(BudgetError, match="field_q_max"):
            build()


def test_make_field_under_raised_budget_is_interned():
    raised = Budgets(field_q_max=2 * 10**6)
    f = make_field(1048583, 1, raised)
    assert f.q == 1048583 and make_field(1048583, 1, raised) is f
    with pytest.raises(BudgetError, match="field_q_max"):
        make_field(1048583, 1)  # the cache does not bypass the default budget


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


def test_negative_power_goes_through_inverse(monkeypatch):
    f = make_field(3, 2)
    x = f.from_code(5)
    calls = []
    real = FieldElement.inverse

    def spy(self):
        calls.append(self)
        return real(self)
    monkeypatch.setattr(FieldElement, "inverse", spy)
    assert x ** -3 == real(x) ** 3
    assert calls == [x]
    with pytest.raises(ZeroDivisionError):
        f.zero ** -2


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
