"""Answers computed apart from the program, for checking its outputs.

Nothing here imports `orbitzeta`.  The routes are the textbook ones:
class counts from centralizer sizes or commuting pairs, ranks by numpy
elimination mod p, character values in exact cyclotomic arithmetic, and
zeta coefficients by a sparse dictionary convolution.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


# ------------------------------------------------------------ mod-p ranks --

def batched_rank_mod_p(M: np.ndarray, p: int) -> np.ndarray:
    """Ranks of a stack of matrices M[b] over Z/p, by simultaneous
    Gauss-Jordan elimination."""
    M = np.array(M, dtype=np.int64) % p
    B, R, C = M.shape
    inv = np.zeros(p, dtype=np.int64)
    for a in range(1, p):
        inv[a] = pow(a, -1, p)
    rank = np.zeros(B, dtype=np.int64)
    rows = np.arange(R)
    for c in range(C):
        cand = (M[:, :, c] != 0) & (rows[None, :] >= rank[:, None])
        b = np.flatnonzero(cand.any(axis=1))
        if not b.size:
            continue
        piv = cand[b].argmax(axis=1)
        top = rank[b]
        prow = M[b, piv]
        M[b, piv] = M[b, top]
        prow = (prow * inv[prow[:, c]][:, None]) % p
        M[b, top] = prow
        factors = M[b, :, c].copy()
        factors[np.arange(b.size), top] = 0
        M[b] = (M[b] - factors[:, :, None] * prow[:, None, :]) % p
        rank[b] += 1
    return rank


def rank_mod_p(M: np.ndarray, p: int) -> int:
    return int(batched_rank_mod_p(np.asarray(M)[None], p)[0])


# --------------------------------------------------------- algebra groups --

def bracket_tensor(P: np.ndarray, p: int) -> np.ndarray:
    """B[s, t, :] = [b_s, b_t] from prime structure constants P."""
    return (P - P.transpose(1, 0, 2)) % p


def digits(codes: np.ndarray, p: int, n: int) -> np.ndarray:
    """Base-p digits of packed codes, least significant first."""
    codes = np.asarray(codes, dtype=np.int64)
    return (codes[:, None] // p ** np.arange(n, dtype=np.int64)[None, :]) % p


def ad_ranks(P: np.ndarray, p: int, codes: np.ndarray, chunk: int = 512) -> np.ndarray:
    """rank_p of ad_x : y -> [x, y] for every packed x in codes, in small
    chunks so that the oracle's memory stays below the program's."""
    n = P.shape[0]
    B = bracket_tensor(P, p).reshape(n, n * n)
    out = []
    for lo in range(0, len(codes), chunk):
        X = digits(codes[lo:lo + chunk], p, n)
        out.append(batched_rank_mod_p(((X @ B) % p).reshape(-1, n, n), p))
    return np.concatenate(out) if out else np.zeros(0, dtype=np.int64)


def algebra_group_class_count(P: np.ndarray, p: int) -> int:
    """k(1+J) = (1/|J|) sum_x |C(1+x)|, with C(1+x) = 1 + ker ad_x."""
    n = P.shape[0]
    N = p ** n
    ranks = ad_ranks(P, p, np.arange(N, dtype=np.int64))
    total = sum(int(c) * p ** (n - int(r))
                for r, c in zip(*np.unique(ranks, return_counts=True)))
    if total % N:
        raise ArithmeticError("centralizer sizes do not sum to a multiple of |J|")
    return total // N


def centralizer_orders(P: np.ndarray, p: int, codes) -> list[int]:
    n = P.shape[0]
    return [p ** (n - int(r)) for r in ad_ranks(P, p, np.asarray(codes, dtype=np.int64))]


def lie_derived_prime_dim(P: np.ndarray, p: int) -> int:
    """dim over Z/p of the span of all brackets [b_s, b_t]."""
    n = P.shape[0]
    return rank_mod_p(bracket_tensor(P, p).reshape(n * n, n), p)


def unitriangular_class_count(n: int, q: int) -> int:
    """k(U_n(F_q)) for n = 3, 4 (Isaacs, Vera-Lopez and Arregi)."""
    return {3: q * q + q - 1, 4: 2 * q ** 3 + q * q - 2 * q}[n]


# ----------------------------------------------------------- group tables --

def commuting_class_count(table: np.ndarray) -> int:
    """k(pi) = #{(x, y) : xy = yx} / |pi|."""
    m = table.shape[0]
    pairs = int((table == table.T).sum())
    if pairs % m:
        raise ArithmeticError("commuting pairs not a multiple of the order")
    return pairs // m


def class_size_multiset(table: np.ndarray) -> list[int]:
    """Sorted conjugacy class sizes, from centralizer orders alone."""
    m = table.shape[0]
    sizes = m // (table == table.T).sum(axis=1)
    out = []
    for s, cnt in zip(*np.unique(sizes, return_counts=True)):
        out += [int(s)] * (int(cnt) // int(s))
    return sorted(out)


def derived_subgroup_order(table: np.ndarray) -> int:
    """|[pi, pi]|: closure of all commutators x^-1 y^-1 x y."""
    m = table.shape[0]
    ident = int(np.flatnonzero((table == np.arange(m)[None, :]).all(axis=1))[0])
    inv = np.argmax(table == ident, axis=1)
    comms = table[table[inv[:, None], inv[None, :]], table]
    members = np.zeros(m, dtype=bool)
    members[np.unique(comms)] = True
    while True:
        grown = members.copy()
        grown[np.unique(table[np.ix_(np.flatnonzero(members), np.flatnonzero(members))])] = True
        if (grown == members).all():
            return int(members.sum())
        members = grown


def class2_table(pairs, fold=None) -> np.ndarray:
    """Cayley table of the class-2 group on involutions x1..x4 with
    independent central commutators [x_j, x_i], (j, i) in `pairs`, built
    from the bilinear cocycle beta(a, a')_(j,i) = a_j a'_i (j > i) on
    F_2^4 x F_2^6; with
    fold = ((j, i), (l, k)) the commutator coordinate (j, i) is merged into
    (l, k), the central quotient of order 2."""
    coord = {pair: t for t, pair in enumerate(pairs)}
    if fold is not None:
        kept = [pair for pair in pairs if pair != fold[0]]
        coord = {pair: t for t, pair in enumerate(kept)}
        coord[fold[0]] = coord[fold[1]]
    nc = max(coord.values()) + 1
    A = np.arange(16)
    abits = (A[:, None] >> np.arange(4)[None, :]) & 1        # a_1..a_4
    beta = np.zeros((16, 16), dtype=np.int64)
    for (j, i), t in coord.items():
        beta ^= (abits[:, j - 1][:, None] & abits[:, i - 1][None, :]) << t
    m = 16 << nc
    idx = np.arange(m, dtype=np.int32)
    a, c = idx & 15, idx >> 4
    table = c[:, None] ^ c[None, :]
    table ^= beta.astype(np.int32)[a[:, None], a[None, :]]
    table <<= 4
    table |= a[:, None] ^ a[None, :]
    return table


# ----------------------------------------------------------- cyclotomics --

def column_orthogonality(values, class_index: int, p: int) -> int:
    """sum over chi of |chi(g)|^2 at one class, where chi(g) =
    (sum_i vec_i zeta^i) / den over the basis zeta^1..zeta^(p-1).

    Products are taken in Z[x]/(x^p - 1); an element there is an integer m
    in Q(zeta_p) exactly when its coordinates minus m e_0 are all equal.
    Returns that integer, or raises ArithmeticError if the sum is not one.
    """
    dens = [v["den"] for v in (row[class_index] for row in values)]
    L = 1
    for d in dens:
        L = L * d * d // math.gcd(L, d * d)
    total = np.zeros(p, dtype=object)
    for row in values:
        v = row[class_index]
        a = np.array([0] + list(v["vec"]), dtype=object)
        conj = np.array([a[(-i) % p] for i in range(p)], dtype=object)
        prod = np.array([sum(a[i] * conj[(k - i) % p] for i in range(p))
                         for k in range(p)], dtype=object)
        total += prod * (L // (v["den"] ** 2))
    # total / L = m  <=>  total - m L e_0 has equal coordinates
    shift = total[0] - total[1]
    if any(total[i] != total[1] for i in range(1, p)) or shift % L:
        raise ArithmeticError("column sum is not an integer")
    return shift // L


def cyclotomic_is_integer(v, p: int, m: int) -> bool:
    a = [0] + list(v["vec"])
    d = v["den"]
    a[0] -= m * d
    return all(x == a[0] for x in a)


# ------------------------------------------------------------------ zeta --

def sl2_degree_multiset(q: int) -> list[tuple[int, int]]:
    """Irreducible degrees of SL2(F_q), q odd >= 5 (Schur, Jordan)."""
    return [(1, 1), ((q - 1) // 2, 2), ((q + 1) // 2, 2),
            (q - 1, (q - 1) // 2), (q, 1), (q + 1, (q - 3) // 2)]


def sparse_product_series(factors, N: int) -> dict[int, int]:
    """Coefficients r_n (n <= N) of the product of the SL2 degree series,
    factors a list of (q, mult), as a sparse dict."""
    series = {1: 1}
    for q, mult in factors:
        degs = [(d, m) for d, m in sl2_degree_multiset(q) if m and d <= N]
        for _ in range(mult):
            nxt: dict[int, int] = {}
            for n, c in series.items():
                for d, m in degs:
                    nd = n * d
                    if nd <= N:
                        nxt[nd] = nxt.get(nd, 0) + c * m
            series = nxt
    return series


def partial_counts(series: dict[int, int], points) -> list[int]:
    """R_n = sum of r_m over m <= n, at each of the sorted points."""
    keys = sorted(series)
    out, acc, i = [], 0, 0
    for n in points:
        while i < len(keys) and keys[i] <= n:
            acc += series[keys[i]]
            i += 1
        out.append(acc)
    return out


def power_floor(n: int, c: Fraction) -> int:
    """floor(n^c) for c in {a, a/2}, exactly."""
    if c.denominator == 1:
        return n ** c.numerator
    if c.denominator == 2:
        return math.isqrt(n ** c.numerator)
    raise ValueError("only integer and half-integer exponents")
