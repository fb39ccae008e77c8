"""Exact arithmetic in small finite fields F_{p^e}.

The modulus is pinned to the lexicographically least monic irreducible
polynomial of degree e over Z/p (coefficient tuples compared from the
constant term up), so every run of the tool agrees on element encodings.
An element is a digit row, its coefficients in the monomial basis
1, t, .., t^(e-1); the integer code of an element is its base-p digit
string, constant term least significant.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .budgets import check_power_budget
from .errors import ValidationError


# Miller-Rabin with the first 13 primes as bases is exact below this bound
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; refuses n beyond the bound where its
    fixed bases are proven exact, unless a base divides n."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_EXACT_BELOW:
        raise ValidationError(
            f"cannot decide primality of {n}: above {_MR_EXACT_BELOW}, where "
            f"deterministic Miller-Rabin is proven")
    s, d = p_adic(n - 1, 2)
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def integer_root(x: int, k: int) -> int:
    """Floor k-th root of a nonnegative integer, exactly."""
    if x < 0 or k < 1:
        raise ValidationError("need x >= 0 and k >= 1")
    if x in (0, 1) or k == 1:
        return x
    if k == 2:
        return math.isqrt(x)
    # integer Newton iteration, decreasing from a power of two above the root
    root = 1 << -(-x.bit_length() // k)
    while True:
        nxt = ((k - 1) * root + x // root ** (k - 1)) // k
        if nxt >= root:
            return root
        root = nxt


def prime_power_decompose(n: int):
    """(p, e) with n = p^e, or None.  At most one exponent e has a prime
    e-th root, so exponents are tried from the largest down."""
    if n < 2:
        return None
    for e in range(n.bit_length(), 0, -1):
        p = integer_root(n, e)
        if p ** e == n and is_prime(p):
            return (p, e)
    return None


def p_adic(n: int, p: int) -> tuple[int, int]:
    """(v, u) with n = p^v * u and u prime to p; n nonzero, p >= 2."""
    if p < 2 or n == 0:
        raise ValidationError(f"no {p}-adic split of {n}")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


# polynomials are coefficient lists, constant term first, with no trailing
# zeros once trimmed; every coefficient is reduced modulo an integer mod

def _trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_mul(a: list[int], b: list[int], mod: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % mod
    return _trim(out)


def _poly_mod(a: list[int], m: list[int], mod: int) -> list[int]:
    """The remainder of a by the monic m."""
    a = [x % mod for x in a]
    dm = len(m) - 1
    for shift in range(len(a) - 1 - dm, -1, -1):
        lead = a[shift + dm]
        if lead:
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * mi) % mod
    return _trim(a[:dm])


def _poly_powmod(a: list[int], n: int, m: list[int], mod: int) -> list[int]:
    """a^n modulo the monic m, by square and multiply; n >= 0."""
    result, base = _poly_mod([1], m, mod), _poly_mod(a, m, mod)
    while n:
        if n & 1:
            result = _poly_mod(_poly_mul(result, base, mod), m, mod)
        n >>= 1
        if n:
            base = _poly_mod(_poly_mul(base, base, mod), m, mod)
    return result


def _is_irreducible(m: list[int], p: int) -> bool:
    """Ben-Or: a monic m of degree d is irreducible over Z/p when no
    t^(p^i) - t with i <= d/2 shares a factor with it."""
    power = [0, 1]
    for _ in range((len(m) - 1) // 2):
        power = _poly_powmod(power, p, m, p)
        diff = power + [0] * (2 - len(power))
        diff[1] = (diff[1] - 1) % p
        a, b = m, _trim(diff)
        while b:
            inv = pow(b[-1], -1, p)
            a, b = b, _poly_mod(a, [x * inv % p for x in b], p)
        if len(a) > 1:
            return False
    return True


def check_field_order(p: int, e: int) -> None:
    """Bound q = p^e by field_q_max, before p^e is formed."""
    if e < 1:
        raise ValidationError("extension degree must be >= 1")
    check_power_budget("field_q_max", p, e)


class Field:
    """F_{p^e} with the canonical modulus; construct through make_field."""

    def __init__(self, p: int, e: int):
        if not is_prime(p):
            raise ValidationError(f"{p} is not prime")
        check_field_order(p, e)
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = tuple(self._least_irreducible(p, e))
        self.name = f"F_{self.q}"

    @staticmethod
    def _least_irreducible(p: int, e: int) -> list[int]:
        if e == 1:
            return [0, 1]
        # the tails in order are the base-p codes with the constant term most
        # significant, counted lazily (p may be near 2^32); a zero constant
        # term leaves the factor t, so the scan starts at 1
        for code in range(p ** (e - 1), p ** e):
            cand = [code // p ** (e - 1 - i) % p for i in range(e)] + [1]
            if _is_irreducible(cand, p):
                return cand
        raise AssertionError("no irreducible polynomial found")  # cannot happen

    def reduce_digit_products(self, products) -> np.ndarray:
        """The digit rows (..., e) of the polynomials sum x_a y_c t^(a+c),
        given the residues mod p (..., e, e) of the digit products x_a y_c
        (or of sums of them) at [..., a, c].  They are collected by degree,
        then the top coefficient is cleared with the monic modulus, degree by
        degree.  The entries stay residues, so no step exceeds (p - 1)^2 in
        magnitude: exact in int64 while (p - 1)^2 < 2^63, as
        nilalg._check_size implies."""
        p, e = self.p, self.e
        red = np.zeros(products.shape[:-2] + (2 * e - 1,), dtype=np.int64)
        for a in range(e):
            red[..., a:a + e] += products[..., a, :]
        red %= p
        tail = np.array(self.modulus[:e], dtype=np.int64)
        for k in range(2 * e - 2, e - 1, -1):
            red[..., k - e:k] = (red[..., k - e:k] - red[..., k, None] * tail) % p
        return red[..., :e]

    def row_power(self, rows, n: int) -> np.ndarray:
        """x^n for every digit row x of rows (..., e), n >= 0, by square and
        multiply through reduce_digit_products; exact in int64 while
        (p - 1)^2 < 2^63."""
        p = self.p

        def mul(x, y):
            return self.reduce_digit_products(x[..., :, None] * y[..., None, :] % p)

        base = np.asarray(rows, dtype=np.int64) % p
        result = np.zeros_like(base)
        result[..., 0] = 1
        while n:
            if n & 1:
                result = mul(result, base)
            n >>= 1
            if n:
                base = mul(base, base)
        return result

    def __repr__(self) -> str:
        return self.name


_make_field_cached = lru_cache(maxsize=None)(Field)


def make_field(p: int, e: int = 1) -> Field:
    """Interned constructor: the same (p, e) always returns the same object,
    whichever budgets admitted it."""
    check_field_order(p, e)
    return _make_field_cached(p, e)
