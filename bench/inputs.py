"""Seeded input files for the benchmark workloads.

Every file is written in the formats that `orbitzeta` reads (see
`orbitzeta.grouptab.parse_group_file`, `orbitzeta.nilalg.parse_algebra_file`
and the factor-spec JSON of `orbitzeta zeta product`).  The seed drives a
random relabelling of group elements in every Cayley table, a random
permutation and nonzero F_q-scaling of every algebra basis, a random
numbering of the commutator generators in the pc presentations, and the
factor order of the zeta specs.  Every quantity the benchmark checks is
invariant under these changes, so each seed gives new inputs with the same
right answers.

Structure constants are built here with numpy from group tables and matrix
units; nothing in this module calls the program's algebra code.
"""

from __future__ import annotations

import itertools
import json
import os

import numpy as np


# ------------------------------------------------------------ small fields --

def least_irreducible(p: int, e: int) -> list[int]:
    """Monic modulus of F_{p^e} as coefficients, constant term first.

    The algebra file format encodes field elements against the
    lexicographically least monic irreducible (tails compared from the
    constant term up); for e <= 3 irreducible means without roots.
    """
    if e == 1:
        return [0, 1]
    if e > 3:
        raise ValueError("only extension degrees up to 3 are supported")
    for tail in itertools.product(range(p), repeat=e):
        poly = list(tail) + [1]
        if all(sum(c * x ** i for i, c in enumerate(poly)) % p for x in range(p)):
            return poly
    raise ValueError(f"no irreducible polynomial of degree {e} over F_{p}")


class GF:
    """F_{p^e} on integer codes (base-p digits, constant term least
    significant), with dense multiplication and inverse tables."""

    def __init__(self, p: int, e: int = 1):
        self.p, self.e, self.q = p, e, p ** e
        self.modulus = least_irreducible(p, e)
        digits = [[(c // p ** i) % p for i in range(e)] for c in range(self.q)]
        self.mul = np.array([[self._code(self._polymul(x, y)) for y in digits]
                             for x in digits], dtype=np.int64)
        self.inv = np.zeros(self.q, dtype=np.int64)
        for a in range(1, self.q):
            self.inv[a] = int(np.flatnonzero(self.mul[a] == 1)[0])

    def _code(self, digits) -> int:
        return sum(int(d) * self.p ** i for i, d in enumerate(digits))

    def _polymul(self, x, y) -> list[int]:
        p, e = self.p, self.e
        prod = [0] * (2 * e - 1)
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                prod[i + j] = (prod[i + j] + a * b) % p
        m = self.modulus
        for top in range(len(prod) - 1, e - 1, -1):
            lead = prod[top]
            if lead:
                for i, c in enumerate(m):
                    prod[top - e + i] = (prod[top - e + i] - lead * c) % p
        return prod[:e]


# ------------------------------------------------------------- group tables --

def tabulate(group) -> np.ndarray:
    """Dense Cayley table of an `orbitzeta` group object, via its mult."""
    m = group.order
    return np.array([[group.mult(i, j) for j in range(m)] for i in range(m)],
                    dtype=np.int64)


def relabel(table: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The same group with element i renamed sigma(i), sigma random."""
    m = table.shape[0]
    sigma = rng.permutation(m)
    out = np.empty_like(table)
    out[sigma[:, None], sigma[None, :]] = sigma[table]
    return out


def identity_of(table: np.ndarray) -> int:
    ident = np.arange(table.shape[0])
    return int(np.flatnonzero((table == ident[None, :]).all(axis=1))[0])


def cayley_text(table: np.ndarray) -> str:
    rows = [f"cayley {table.shape[0]}"]
    rows += [" ".join(str(int(x)) for x in row) for row in table]
    return "\n".join(rows) + "\n"


PAIRS = [(2, 1), (3, 1), (4, 1), (3, 2), (4, 2), (4, 3)]
MATCHINGS = [((2, 1), (4, 3)), ((3, 1), (4, 2)), ((4, 1), (3, 2))]


def class2_pc_text(slot_of: dict, n: int) -> str:
    """pc file of a class-2 group on involutions x1..x4 whose commutator
    [x_j, x_i] is the central generator g_slot, slot = slot_of[(j, i)]."""
    lines = [f"pc 2 {n}"]
    for j, i in PAIRS:
        word = ["0"] * n
        word[slot_of[(j, i)] - 1] = "1"
        lines.append(f"comm {j} {i}: " + " ".join(word))
    return "\n".join(lines) + "\n"


def class2_presentations(rng: np.random.Generator):
    """(g1024 pc text, g512 pc text, fold) with seeded numbering.

    g1024 is the largest class-2 quotient of the free product of four C2's;
    g512 is its quotient by z = [x_a, x_b][x_c, x_d] for a seeded perfect
    matching fold = ((a, b), (c, d)), so [x_a, x_b] = [x_c, x_d] there.  All
    three matchings give isomorphic groups.
    """
    big = {pair: int(s) for pair, s in zip(PAIRS, rng.permutation(6) + 5)}
    fold = MATCHINGS[int(rng.integers(3))]
    kept = [pair for pair in PAIRS if pair != fold[0]]
    small = {pair: int(s) for pair, s in zip(kept, rng.permutation(5) + 5)}
    small[fold[0]] = small[fold[1]]
    return class2_pc_text(big, 10), class2_pc_text(small, 9), fold


# --------------------------------------------------------- algebra tensors --

def augmentation_tensor(table: np.ndarray, p: int) -> np.ndarray:
    """Structure constants of the augmentation ideal of F_p[pi] on the basis
    g - 1 (g != 1, in label order): (g-1)(h-1) = (gh-1) - (g-1) - (h-1)."""
    m = table.shape[0]
    e = identity_of(table)
    elems = [x for x in range(m) if x != e]
    index = {x: t for t, x in enumerate(elems)}
    d = m - 1
    C = np.zeros((d, d, d), dtype=np.int64)
    for a, g in enumerate(elems):
        for b, h in enumerate(elems):
            gh = int(table[g, h])
            if gh != e:
                C[a, b, index[gh]] += 1
            C[a, b, a] -= 1
            C[a, b, b] -= 1
    return C % p


def unitriangular_tensor(n: int) -> np.ndarray:
    """u_n: strictly upper triangular matrices, E_ij E_jl = E_il."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {ij: t for t, ij in enumerate(pairs)}
    d = len(pairs)
    C = np.zeros((d, d, d), dtype=np.int64)
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            if j == k:
                C[a, b, index[(i, l)]] = 1
    return C


def change_basis(C: np.ndarray, field: GF, rng: np.random.Generator) -> np.ndarray:
    """Structure constants on the basis b'_i = c_i b_{pi(i)}, pi a random
    permutation and c_i random nonzero scalars (all as field codes)."""
    d = C.shape[0]
    pi = rng.permutation(d)
    c = rng.integers(1, field.q, size=d)
    D = C[pi][:, pi][:, :, pi]
    left = field.mul[c[:, None], c[None, :]]
    return field.mul[field.mul[left[:, :, None], D], field.inv[c][None, None, :]]


def prime_tensor(C: np.ndarray, field: GF) -> np.ndarray:
    """Z/p structure constants on the prime basis omega^m b_i, t = i*e + m."""
    p, e = field.p, field.e
    d = C.shape[0]
    P = np.zeros((d * e, d * e, d * e), dtype=np.int64)
    for a in range(e):
        for b in range(e):
            w = field.mul[p ** a, p ** b]          # code of omega^(a+b)
            X = field.mul[w, C]
            for m in range(e):
                P[a::e, b::e, m::e] = (X // p ** m) % p
    return P


def algebra_text(C: np.ndarray, field: GF) -> str:
    d = C.shape[0]
    lines = [f"alg {field.p} {field.e} {d}"]
    for i, j, k in zip(*np.nonzero(C)):
        lines.append(f"{i} {j} {k} {int(C[i, j, k])}")
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------- zeta specs --

def factor_spec_text(factors) -> str:
    """JSON factor spec of type-A1 factors (q, mult)."""
    a1 = {"label": "A1", "rank": 1, "pos_roots": 1, "coxeter": 2}
    return json.dumps([{"type": a1, "q": q, "mult": m} for q, m in factors]) + "\n"


def write(directory: str, name: str, text: str) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path
