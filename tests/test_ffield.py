import random

import numpy as np
import pytest

from orbitzeta.errors import BudgetError, ValidationError
from orbitzeta.ffield import Field, is_prime, make_field, parse_field_record


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


def test_generator_has_full_order():
    f = make_field(3, 2)
    g = f.from_code(f.generator_code)
    powers = {(g ** i).code for i in range(f.q - 1)}
    assert len(powers) == f.q - 1


def test_t_is_root_of_modulus():
    f = make_field(2, 3)
    t = f.t()
    acc = f.zero
    for i, c in enumerate(f.modulus):
        acc = acc + f.from_int(c) * t ** i
    assert acc.is_zero()
    with pytest.raises(ValidationError):
        make_field(5).t()


def test_serialize_parse_roundtrip():
    for p, e in SMALL_FIELDS:
        f = make_field(p, e)
        assert parse_field_record(f.serialize()) is f
    with pytest.raises(ValidationError):
        parse_field_record("2 2")
    with pytest.raises(ValidationError):
        parse_field_record("2 2 1 1 x")
    with pytest.raises(ValidationError):
        parse_field_record("2 2 0 0 1")  # wrong modulus


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
