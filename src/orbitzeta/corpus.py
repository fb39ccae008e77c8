"""Bundled corpus: small p-groups, nilpotent algebras over small fields, and
zeta factor specs used by the verification pipelines and the test suite.

Groups are built from explicit constructions (affine maps on Z/n, dicyclic
doubling, power-commutator presentations, direct and central products), never
from stored tables, so every multiplication table is revalidated each run.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import ValidationError
from .ffield import make_field
from .grouptab import FiniteGroupTable, central_quotient, direct_product
from .nilalg import (NilAlgebra, make_augmentation_ideal, make_unitriangular,
                     make_zero_algebra)
from .zetalab import A1, FactorSpec


# ------------------------------------------------------------ group zoo --

def _table_group(order: int, mult, name: str) -> FiniteGroupTable:
    table = [[mult(i, j) for j in range(order)] for i in range(order)]
    return FiniteGroupTable.from_cayley_table(table, name=name)


def cyclic(n: int) -> FiniteGroupTable:
    return _table_group(n, lambda i, j: (i + j) % n, f"C{n}")


def abelian(*ns: int) -> FiniteGroupTable:
    g = cyclic(ns[0])
    for n in ns[1:]:
        g = direct_product(g, cyclic(n))
    return g


def affine_group(n: int, m: int, name: str) -> FiniteGroupTable:
    """Maps x -> m^s x + c on Z/n; s runs over Z/ord(m), c over Z/n.

    Composition (s1,c1)(s2,c2) = (s1+s2, m^s1 c2 + c1); element index s*n+c.
    """
    if math.gcd(m, n) != 1:
        raise ValidationError(f"multiplier {m} not invertible mod {n}")
    k = 1
    acc = m % n
    while acc != 1:
        acc = (acc * m) % n
        k += 1

    def mult(i: int, j: int) -> int:
        s1, c1 = divmod(i, n)
        s2, c2 = divmod(j, n)
        return ((s1 + s2) % k) * n + (pow(m, s1, n) * c2 + c1) % n

    return _table_group(k * n, mult, name)


def dihedral(n: int) -> FiniteGroupTable:
    return affine_group(n, n - 1, f"D{2 * n}")


def dicyclic(n: int) -> FiniteGroupTable:
    """Dic_n of order 4n: a^(2n)=1, b^2=a^n, b a b^-1 = a^-1."""

    def mult(i: int, j: int) -> int:
        i1, j1 = divmod(i, 2)
        i2, j2 = divmod(j, 2)
        sign = -1 if j1 else 1
        return ((i1 + sign * i2 + j1 * j2 * n) % (2 * n)) * 2 + (j1 + j2) % 2

    return _table_group(4 * n, mult, f"Dic{n}")


def heisenberg(p: int) -> FiniteGroupTable:
    """Upper unitriangular 3x3 matrices over Z/p, as triples (a, b, c)."""

    def mult(i: int, j: int) -> int:
        a1, r = divmod(i, p * p)
        b1, c1 = divmod(r, p)
        a2, r = divmod(j, p * p)
        b2, c2 = divmod(r, p)
        return ((a1 + a2) % p) * p * p + ((b1 + b2) % p) * p + (c1 + c2 + a1 * b2) % p

    return _table_group(p ** 3, mult, f"He{p ** 3}")


def _c4_sem_c4() -> FiniteGroupTable:
    # a^4 = b^4 = 1, b a b^-1 = a^-1
    def mult(i: int, j: int) -> int:
        i1, j1 = divmod(i, 4)
        i2, j2 = divmod(j, 4)
        sign = -1 if j1 % 2 else 1
        return ((i1 + sign * i2) % 4) * 4 + (j1 + j2) % 4

    return _table_group(16, mult, "C4semC4")


def _v4_sem_c4() -> FiniteGroupTable:
    # C2 x C2 with C4 acting by coordinate swap
    def mult(i: int, j: int) -> int:
        v1, j1 = divmod(i, 4)
        v2, j2 = divmod(j, 4)
        x2, y2 = divmod(v2, 2)
        if j1 % 2:
            x2, y2 = y2, x2
        x1, y1 = divmod(v1, 2)
        return ((x1 ^ x2) * 2 + (y1 ^ y2)) * 4 + (j1 + j2) % 4

    return _table_group(16, mult, "V4semC4")


def _central_product(g1: FiniteGroupTable, z1: int, g2: FiniteGroupTable,
                     z2: int, name: str) -> FiniteGroupTable:
    prod = direct_product(g1, g2)
    g = central_quotient(prod, z1 * g2.order + z2)
    g.name = name
    return g


def _d8() -> FiniteGroupTable:
    return dihedral(4)


def _unit_word(i: int, n: int) -> tuple[int, ...]:
    return tuple(1 if t == i else 0 for t in range(n))


# pc presentations (p, n, power words, commutator words) of the corpus
PC_PRESENTATIONS = {
    # two generators of order 4 whose commutator g3 acts nontrivially;
    # g4..g7 complete the pc chain
    "g128": (2, 7, {1: _unit_word(3, 7), 2: _unit_word(4, 7)},
             {(2, 1): _unit_word(2, 7), (3, 1): _unit_word(5, 7),
              (3, 2): _unit_word(6, 7), (4, 2): _unit_word(5, 7),
              (5, 1): _unit_word(6, 7)}),
    # largest class-2 quotient of the free product of four C2's: generators
    # with trivial squares and six free central commutators
    "g1024": (2, 10, {},
              {(2, 1): _unit_word(4, 10), (3, 1): _unit_word(5, 10),
               (4, 1): _unit_word(6, 10), (3, 2): _unit_word(7, 10),
               (4, 2): _unit_word(8, 10), (4, 3): _unit_word(9, 10)}),
}


def _pc_group(name: str) -> FiniteGroupTable:
    return FiniteGroupTable.from_power_commutator(*PC_PRESENTATIONS[name], name=name)


def _g512() -> FiniteGroupTable:
    g = group("g1024")
    # z = [x2,x1][x4,x3]; the two commutators are the generators g5 and g10
    z = g.mult(g.generators[4], g.generators[9])
    q = central_quotient(g, z)
    q.name = "g512"
    return q


_GROUP_BUILDERS = {
    "C2": lambda: cyclic(2),
    "C3": lambda: cyclic(3),
    "C4": lambda: cyclic(4),
    "C2xC2": lambda: abelian(2, 2),
    "C8": lambda: cyclic(8),
    "C4xC2": lambda: abelian(4, 2),
    "C2xC2xC2": lambda: abelian(2, 2, 2),
    "D8": _d8,
    "Q8": lambda: dicyclic(2),
    "C9": lambda: cyclic(9),
    "C3xC3": lambda: abelian(3, 3),
    "C16": lambda: cyclic(16),
    "C8xC2": lambda: abelian(8, 2),
    "C4xC4": lambda: abelian(4, 4),
    "C4xC2xC2": lambda: abelian(4, 2, 2),
    "C2xC2xC2xC2": lambda: abelian(2, 2, 2, 2),
    "D16": lambda: dihedral(8),
    "SD16": lambda: affine_group(8, 3, "SD16"),
    "M16": lambda: affine_group(8, 5, "M16"),
    "Q16": lambda: dicyclic(4),
    "D8xC2": lambda: direct_product(_d8(), cyclic(2)),
    "Q8xC2": lambda: direct_product(dicyclic(2), cyclic(2)),
    "C4semC4": _c4_sem_c4,
    "V4semC4": _v4_sem_c4,
    # D8 o C4: identify the rotation square with the C4 square
    "D8oC4": lambda: _central_product(_d8(), 2, cyclic(4), 2, "D8oC4"),
    "C27": lambda: cyclic(27),
    "C9xC3": lambda: abelian(9, 3),
    "C3xC3xC3": lambda: abelian(3, 3, 3),
    "He27": lambda: heisenberg(3),
    # extraspecial 3^(1+2) of exponent 9: C9 with C3 acting by x -> 4x
    "M27": lambda: affine_group(9, 4, "M27"),
    "C32": lambda: cyclic(32),
    "C2x5": lambda: abelian(2, 2, 2, 2, 2),
    "D32": lambda: dihedral(16),
    "Q32": lambda: dicyclic(8),
    # the two extraspecial groups of order 32
    "D8oD8": lambda: _central_product(_d8(), 2, _d8(), 2, "D8oD8"),
    "D8oQ8": lambda: _central_product(_d8(), 2, dicyclic(2), 4, "D8oQ8"),
    "g128": lambda: _pc_group("g128"),
    "g512": _g512,
    "g1024": lambda: _pc_group("g1024"),
}

# |pi| per name, so registry queries never force a build
GROUP_ORDERS = {
    "C2": 2, "C3": 3, "C4": 4, "C2xC2": 4,
    "C8": 8, "C4xC2": 8, "C2xC2xC2": 8, "D8": 8, "Q8": 8,
    "C9": 9, "C3xC3": 9,
    "C16": 16, "C8xC2": 16, "C4xC4": 16, "C4xC2xC2": 16, "C2xC2xC2xC2": 16,
    "D16": 16, "SD16": 16, "M16": 16, "Q16": 16, "D8xC2": 16, "Q8xC2": 16,
    "C4semC4": 16, "V4semC4": 16, "D8oC4": 16,
    "C27": 27, "C9xC3": 27, "C3xC3xC3": 27, "He27": 27, "M27": 27,
    "C32": 32, "C2x5": 32, "D32": 32, "Q32": 32, "D8oD8": 32, "D8oQ8": 32,
    "g128": 128, "g512": 512, "g1024": 1024,
}

# Bogomolov multiplier orders from the literature: trivial for every group of
# order <= 32; for g128 the multiplier has order 2 (generated by the relation
# [g3,g2] = [g5,g1]).
B0_ORDER = {name: 1 for name, m in GROUP_ORDERS.items() if m <= 32}
B0_ORDER["g128"] = 2


@lru_cache(maxsize=None)
def group(name: str) -> FiniteGroupTable:
    try:
        builder = _GROUP_BUILDERS[name]
    except KeyError:
        raise ValidationError(f"unknown corpus group {name!r}") from None
    g = builder()
    g.name = name
    if g.order != GROUP_ORDERS[name]:
        raise ValidationError(
            f"corpus group {name} built with order {g.order}, expected {GROUP_ORDERS[name]}")
    return g


def group_names() -> list[str]:
    return list(_GROUP_BUILDERS)


def groups_of_order_le(nmax: int, p: int | None = None) -> list[str]:
    out = []
    for name, m in GROUP_ORDERS.items():
        if m <= nmax and (p is None or m % p == 0):
            out.append(name)
    return out


# ---------------------------------------------------------- algebra zoo --

@lru_cache(maxsize=None)
def unitriangular(n: int, p: int, e: int = 1) -> NilAlgebra:
    return make_unitriangular(n, make_field(p, e))


@lru_cache(maxsize=None)
def augmentation_ideal(group_name: str, p: int, e: int = 1) -> NilAlgebra:
    return make_augmentation_ideal(group(group_name), make_field(p, e))


@lru_cache(maxsize=None)
def zero_algebra(dim: int, p: int, e: int = 1) -> NilAlgebra:
    return make_zero_algebra(dim, make_field(p, e))


def duality_corpus() -> list[NilAlgebra]:
    """Algebras with q^d <= 2^16 for the orbit/class duality and fake-degree
    identity sweeps."""
    out = [unitriangular(3, 2), unitriangular(3, 3), unitriangular(3, 2, 2),
           unitriangular(4, 2)]
    for name in groups_of_order_le(16, p=2):
        out.append(augmentation_ideal(name, 2))
    out.append(augmentation_ideal("C3", 3))
    out.append(augmentation_ideal("C9", 3))
    return out


def zero_square_corpus() -> list[NilAlgebra]:
    """All bundled J with J^2 = 0 (elementary abelian 1+J)."""
    return [zero_algebra(1, 2), zero_algebra(2, 2), zero_algebra(3, 2),
            zero_algebra(1, 3), zero_algebra(2, 3),
            zero_algebra(1, 2, 2), zero_algebra(2, 2, 2),
            zero_algebra(1, 5), zero_algebra(1, 3, 2)]


def character_corpus() -> list[NilAlgebra]:
    """Algebras with J^p = 0 and q^d <= 2^12: the orbit method applies and
    full character tables are feasible."""
    out = [unitriangular(3, 3), unitriangular(3, 5), unitriangular(3, 3, 2)]
    out.extend(zero_square_corpus())
    out.append(augmentation_ideal("C3", 3))
    return out


def abelianization_dim_corpus() -> list[tuple[str, int]]:
    """(group name, p) with |pi| <= 32 and characteristic matching |pi|."""
    out = []
    for p in (2, 3):
        for name in groups_of_order_le(32, p=p):
            out.append((name, p))
    return out


def abelianization_closure_corpus() -> list[tuple[str, int]]:
    """(group name, p) with |pi| <= 16: 1+I closure fits the budget."""
    out = []
    for p in (2, 3):
        for name in groups_of_order_le(16, p=p):
            out.append((name, p))
    return out


def mq_corpus() -> list[tuple[str, int]]:
    """(group name, p) for every corpus pi of order <= 128."""
    out = []
    for p in (2, 3):
        for name in groups_of_order_le(128, p=p):
            out.append((name, p))
    return out


# ------------------------------------------------------------ zeta zoo --

def sl2_factor(q: int, mult: int = 1, name: str | None = None) -> FactorSpec:
    return FactorSpec([(A1, q, mult)], name=name or f"SL2({q})^{mult}")


@lru_cache(maxsize=None)
def zeta_products() -> dict[str, FactorSpec]:
    from .zetalab import sl2_tower
    return {
        "sl2_5": sl2_factor(5),
        "sl2_7": sl2_factor(7),
        "sl2_9": sl2_factor(9),
        "sl2_5_squared": sl2_factor(5, 2),
        "sl2_5x7": FactorSpec([(A1, 5, 1), (A1, 7, 1)], name="SL2(5)xSL2(7)"),
        "sl2_tower_5": sl2_tower(5, 12),
    }
