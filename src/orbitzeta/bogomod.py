"""The finite abelian p-group M_q attached to a p-group pi and q = p^e.

Generators are lambda_j(1-r) over nontrivial conjugacy classes r and a
Z_p-basis {lambda_j} of the unramified extension of degree e; relations are
p*lambda(1-r) = phi(lambda)(1-r^p) with phi the Frobenius.  Everything is
computed modulo p^v with p^v = p*exp(pi), which annihilates M_q with margin,
so Smith normal form over Z/p^v recovers the exact invariant factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalInconsistencyError, ValidationError
from .ffield import (_poly_mod, _poly_mul, _poly_powmod, check_field_order, is_prime,
                     make_field, p_adic, prime_power_decompose)
from .grouptab import FiniteGroupTable
from .linalg import smith_valuations_mod_pv


# ---------------------------------------------------- Teichmuller lift --

def hensel_lift_modulus(p: int, e: int, v: int) -> list[int]:
    """Lift the canonical degree-e field modulus f to fhat modulo p^v with
    fhat monic, fhat = f mod p, and fhat | t^(q-1) - 1 mod p^v.

    fhat is the minimal polynomial of the Teichmuller lift omega = t^(q^(v-1))
    of t in (Z/p^v)[t]/(f).  The coordinates P of omega^0 .. omega^(e-1) are
    the identity mod p, so c <- omega^e + (I - P) c gains one p-adic digit
    per step and is exact after v steps; then omega^e = sum c_i omega^i.
    """
    f = list(make_field(p, e).modulus)
    q, mod = p ** e, p ** v
    omega = _poly_powmod([0, 1], q ** (v - 1), f, mod)
    powers = [[1]]
    for _ in range(e):
        powers.append(_poly_mod(_poly_mul(powers[-1], omega, mod), f, mod))
    cols = [w + [0] * (e - len(w)) for w in powers]
    c = [0] * e
    for _ in range(v):
        c = [(cols[e][i] + c[i] - sum(cols[j][i] * c[j] for j in range(e))) % mod
             for i in range(e)]
    fhat = [-x % mod for x in c] + [1]
    # verification: monic of degree e, reduces to f, divides t^(q-1)-1
    if len(fhat) != e + 1 or fhat[-1] != 1:
        raise InternalInconsistencyError("lifted modulus is not monic of the right degree")
    if [x % p for x in fhat] != f:
        raise InternalInconsistencyError("lifted modulus does not reduce to the field modulus")
    if _poly_powmod([0, 1], q - 1, fhat, mod) != [1]:
        raise InternalInconsistencyError("lifted modulus does not divide t^(q-1)-1 mod p^v")
    return fhat


def frobenius_matrix(p: int, e: int, v: int) -> list[list[int]]:
    """e x e matrix of phi(omega^j) = omega^(jp) over the monomial basis of
    Z[t]/(fhat, p^v).  Columns are the reduced coordinates of t^(jp)."""
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    if e < 1 or v < 1:
        raise ValidationError("need e >= 1 and v >= 1")
    if e == 1:
        return [[1]]
    # the check against the field's Frobenius multiplies residues in int64
    if (p - 1) ** 2 >= 2**63:
        raise ValidationError(f"the Frobenius matrix over Z/{p} needs (p-1)^2 < 2^63")
    fhat = hensel_lift_modulus(p, e, v)
    mod = p ** v
    cols = []
    for j in range(e):
        red = _poly_powmod([0, 1], j * p, fhat, mod)
        cols.append(red + [0] * (e - len(red)))
    mat = [[cols[j][i] for j in range(e)] for i in range(e)]
    # mod-p reduction must be the Frobenius matrix of F_q on the same basis,
    # whose column j is (t^j)^p: row j of frob, from the unit digit rows
    frob = make_field(p, e).row_power(np.eye(e, dtype=np.int64), p)
    if [[x % p for x in row] for row in mat] != frob.T.tolist():
        raise InternalInconsistencyError(
            "Frobenius matrix does not reduce to the field Frobenius")
    # phi has order e: the e-th power is the identity at working precision
    power = [[1 if i == j else 0 for j in range(e)] for i in range(e)]
    for _ in range(e):
        power = [[sum(mat[i][t] * power[t][j] for t in range(e)) % mod
                  for j in range(e)] for i in range(e)]
    if power != [[1 if i == j else 0 for j in range(e)] for i in range(e)]:
        raise InternalInconsistencyError("Frobenius matrix power e is not the identity")
    return mat


# ------------------------------------------------------- the M_q module --

@dataclass
class MqPresentation:
    p: int
    e: int
    v: int
    k: int                        # class count of pi, including the identity
    rows: list                    # relation matrix over Z/p^v, one row per generator
    name: str = ""

    @property
    def q(self) -> int:
        return self.p ** self.e

    @property
    def ngens(self) -> int:
        return len(self.rows)


def build_mq(group: FiniteGroupTable, p: int, e: int,
             frobenius: list[list[int]] | None = None) -> MqPresentation:
    """Relation matrix of M_q(pi) over Z/p^v, p^v = p*exp(pi)."""
    if p < 2:
        raise ValidationError(f"{p} is not prime")
    if p_adic(group.order, p)[1] != 1:
        raise ValidationError(f"group of order {group.order} is not a {p}-group")
    if e < 1:
        raise ValidationError("extension degree must be >= 1")
    # the trivial group passes the order test for every p, and the Frobenius
    # matrix builds monomials of degree up to (e-1)p: bound q = p^e first
    check_field_order(p, e)
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    classes = group.conjugacy_classes()
    k = classes.count
    ident_class = int(classes.labels[group.identity])
    nontrivial = [c for c in range(k) if c != ident_class]
    pos = {c: i for i, c in enumerate(nontrivial)}
    pm = group.class_power_map(p)
    # exp(pi) = p^t, t the number of steps of the class power map, from the
    # identity map, that carry every class to the identity class
    image, t = list(range(k)), 0
    while any(c != ident_class for c in image):
        image, t = [pm[c] for c in image], t + 1
    v = t + 1
    mod = p ** v
    if frobenius is None:
        frobenius = frobenius_matrix(p, e, v)
    if len(frobenius) != e or any(len(r) != e for r in frobenius):
        raise ValidationError("Frobenius matrix has the wrong shape")
    n = e * (k - 1)
    rows = []
    for c in nontrivial:
        target = pm[c]
        for j in range(e):
            row = [0] * n
            row[pos[c] * e + j] = p % mod
            if target != ident_class:
                base = pos[target] * e
                for i in range(e):
                    row[base + i] = (row[base + i] - frobenius[i][j]) % mod
            rows.append(row)
    return MqPresentation(p, e, v, k, rows, name=group.name)


def smith_valuations(rows, p: int, v: int, ncols: int | None = None) -> list[int]:
    """Diagonal p-valuations of the Smith form over Z/p^v, one per column,
    ascending; v stands for a zero diagonal entry.  The elimination is
    linalg.smith_valuations_mod_pv."""
    vals = smith_valuations_mod_pv(rows, p, v, ncols)
    if any(x > y for x, y in zip(vals, vals[1:])):
        raise InternalInconsistencyError("Smith diagonal valuations are not ascending")
    return vals


def invariant_factors(pres: MqPresentation) -> list[int]:
    """Ascending invariant factors > 1 of the presented module.

    A diagonal valuation reaching v would mean the module is not killed by
    exp(pi), contradicting the construction; that is an inconsistency.
    """
    vals = smith_valuations(pres.rows, pres.p, pres.v, pres.ngens)
    for a in vals:
        if a >= pres.v:
            raise InternalInconsistencyError(
                "invariant factor reaches working precision p^v; "
                "the presentation is not annihilated by exp(pi)")
    return [pres.p ** a for a in vals if a > 0]


def mq_order(pres: MqPresentation) -> int:
    return math.prod(invariant_factors(pres))


def power_class_layers(group: FiniteGroupTable, p: int) -> list[int]:
    """|C_i| = number of conjugacy classes meeting pi_i minus pi_(i+1),
    where pi_i is the set of p^i-th powers.  pi must be a p-group, where
    x -> x^p is not injective, so the powers shrink to the identity."""
    if p_adic(group.order, p)[1] != 1:
        raise ValidationError(f"group of order {group.order} is not a {p}-group")
    labels = group.conjugacy_classes().labels
    current = np.arange(group.order)
    layers = []
    while len(current) > 1:
        nxt = np.unique(group.power(current, p))
        layers.append(len(np.setdiff1d(labels[current], labels[nxt])))
        current = nxt
    return layers


def verify_filtration(pres: MqPresentation, group: FiniteGroupTable,
                      factors: list[int]) -> dict:
    """Check |p^i M / p^(i+1) M| = q^|C_i| for all i, reading layer sizes
    off the invariant factors of pres."""
    vals = [p_adic(f, pres.p)[0] for f in factors]
    layers_c = power_class_layers(group, pres.p)
    depth = max(len(layers_c), max(vals) if vals else 0)
    layers = []
    ok = True
    for i in range(depth):
        expected = pres.e * (layers_c[i] if i < len(layers_c) else 0)
        actual = sum(1 for a in vals if a > i)
        layers.append({"i": i, "classes": layers_c[i] if i < len(layers_c) else 0,
                       "expected_exponent": expected, "actual_exponent": actual})
        if expected != actual:
            ok = False
    return {"ok": ok, "layers": layers}


def predicted_ab_order(group: FiniteGroupTable, q: int, b0_order: int) -> int:
    """q^(k(pi)-1) * |B_0(pi)|: the predicted |(1+I_(F_q))_ab|."""
    pp = prime_power_decompose(q)
    if pp is None:
        raise ValidationError(f"{q} is not a prime power")
    p = pp[0]
    if p_adic(group.order, p)[1] != 1:
        raise ValidationError(
            f"group order {group.order} does not match characteristic {p}")
    if b0_order < 1:
        raise ValidationError("|B_0| must be a positive integer")
    k = group.conjugacy_classes().count
    return q ** (k - 1) * b0_order
