"""The finite abelian p-group M_q attached to a p-group pi and q = p^e.

Generators are lambda_j(1-r) over nontrivial conjugacy classes r and a
Z_p-basis {lambda_j} of the unramified extension of degree e; relations are
p*lambda(1-r) = phi(lambda)(1-r^p) with phi the Frobenius.  Everything is
computed modulo p^v with p^v = p*exp(pi), which annihilates M_q with margin,
so Smith normal form over Z/p^v recovers the exact invariant factors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budgets import Budgets
from .errors import InternalInconsistencyError, ValidationError
from .ffield import (_poly_mul, _trim, check_field_order, is_prime, make_field,
                     prime_power_decompose)
from .grouptab import FiniteGroupTable


# ------------------------------------------------------- poly arithmetic --

def _poly_sub(a, b, mod: int) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x
    for i, y in enumerate(b):
        out[i] = (out[i] - y) % mod
    return _trim(out)


def _poly_divmod(a, b, mod: int):
    """Division by b whose leading coefficient is invertible mod mod."""
    a = [x % mod for x in a]
    b = [x % mod for x in b]
    _trim(a)
    _trim(b)
    if not b:
        raise ValidationError("division by zero polynomial")
    inv = pow(b[-1], -1, mod)
    quo = [0] * max(0, len(a) - len(b) + 1)
    rem = list(a)
    for shift in range(len(a) - len(b), -1, -1):
        c = (rem[shift + len(b) - 1] * inv) % mod
        if c:
            quo[shift] = c
            for i, y in enumerate(b):
                rem[shift + i] = (rem[shift + i] - c * y) % mod
    return quo, _trim(rem)


def _poly_gcd_bezout(a, b, p: int):
    """(g, u, w) with u*a + w*b = g over F_p, g monic."""
    r0, r1 = [x % p for x in a], [x % p for x in b]
    u0, u1 = [1], []
    w0, w1 = [], [1]
    _trim(r0)
    _trim(r1)
    while r1:
        q, r = _poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        u0, u1 = u1, _poly_sub(u0, _poly_mul(q, u1, p), p)
        w0, w1 = w1, _poly_sub(w0, _poly_mul(q, w1, p), p)
    if not r0:
        raise ValidationError("gcd of zero polynomials")
    lead_inv = pow(r0[-1], -1, p)
    scale = lambda poly: [(x * lead_inv) % p for x in poly]
    return scale(r0), scale(u0), scale(w0)


# ---------------------------------------------------------- Hensel lift --

def hensel_lift_modulus(p: int, e: int, v: int) -> list[int]:
    """Lift the canonical degree-e field modulus f to fhat modulo p^v with
    fhat monic, fhat = f mod p, and fhat | t^(q-1) - 1 mod p^v."""
    field = make_field(p, e)
    f = [int(c) for c in field.modulus]
    q = p ** e
    target = [0] * q
    target[0] = -1
    target[q - 1] = 1
    g, rem = _poly_divmod(target, f, p)
    if rem:
        raise InternalInconsistencyError("field modulus does not divide t^(q-1)-1 mod p")
    gcd, a, b = _poly_gcd_bezout(f, g, p)
    if gcd != [1]:
        raise InternalInconsistencyError("modulus and cofactor are not coprime mod p")
    def add_scaled(base, corr, scalar, mod):
        out = [x % mod for x in base] + [0] * max(0, len(corr) - len(base))
        for i, y in enumerate(corr):
            out[i] = (out[i] + scalar * y) % mod
        return _trim(out)

    fk, gk = list(f), list(g)
    big = p ** (2 * v)
    for k in range(1, v):
        diff = _poly_sub(target, _poly_mul(fk, gk, big), big)
        h = []
        for x in diff:
            if x % p ** k:
                raise InternalInconsistencyError("Hensel residue not divisible by p^k")
            h.append((x // p ** k) % p)
        _trim(h)
        # solve f*eps + g*delta = h (mod p) with deg delta < e
        bh = _poly_mul(b, h, p)
        _, delta = _poly_divmod(bh, f, p)
        eps_num = _poly_sub(h, _poly_mul(gk, delta, p), p)
        eps, rem2 = _poly_divmod(eps_num, f, p)
        if rem2:
            raise InternalInconsistencyError("Hensel correction failed to divide")
        fk = add_scaled(fk, delta, p ** k, p ** (k + 1))
        gk = add_scaled(gk, eps, p ** k, p ** (k + 1))
    mod = p ** v
    fk = [x % mod for x in fk]
    # verification: monic of degree e, reduces to f, divides t^(q-1)-1
    if len(fk) != e + 1 or fk[-1] != 1:
        raise InternalInconsistencyError("lifted modulus is not monic of the right degree")
    if [x % p for x in fk] != [x % p for x in f]:
        raise InternalInconsistencyError("lifted modulus does not reduce to the field modulus")
    _, check = _poly_divmod(target, fk, mod)
    if check:
        raise InternalInconsistencyError("lifted modulus does not divide t^(q-1)-1 mod p^v")
    return fk


def frobenius_matrix(p: int, e: int, v: int) -> list[list[int]]:
    """e x e matrix of phi(omega^j) = omega^(jp) over the monomial basis of
    Z[t]/(fhat, p^v).  Columns are the reduced coordinates of t^(jp)."""
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    if e < 1 or v < 1:
        raise ValidationError("need e >= 1 and v >= 1")
    if e == 1:
        return [[1]]
    fhat = hensel_lift_modulus(p, e, v)
    mod = p ** v
    cols = []
    for j in range(e):
        mono = [0] * (j * p) + [1]
        _, red = _poly_divmod(mono, fhat, mod)
        red = red + [0] * (e - len(red))
        cols.append(red)
    mat = [[cols[j][i] for j in range(e)] for i in range(e)]
    # mod-p reduction must be the Frobenius matrix of F_q on the same basis
    field = make_field(p, e)
    for j in range(e):
        basis_j = field.element(tuple(1 if i == j else 0 for i in range(e)))
        frob = basis_j.frobenius()
        for i in range(e):
            if mat[i][j] % p != int(frob.coeffs[i]):
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
    gens: list                    # (j, class_index) per generator
    rows: list                    # relation matrix over Z/p^v, one row per generator
    name: str = ""

    @property
    def q(self) -> int:
        return self.p ** self.e

    @property
    def ngens(self) -> int:
        return len(self.gens)


def build_mq(group: FiniteGroupTable, p: int, e: int,
             frobenius: list[list[int]] | None = None,
             budgets: Budgets | None = None) -> MqPresentation:
    """Relation matrix of M_q(pi) over Z/p^v, p^v = p*exp(pi)."""
    m = group.order
    while p > 1 and m % p == 0:
        m //= p
    if m != 1:
        raise ValidationError(f"group of order {group.order} is not a {p}-group")
    if e < 1:
        raise ValidationError("extension degree must be >= 1")
    # the trivial group passes the order test for every p, and the Frobenius
    # matrix builds monomials of degree up to (e-1)p: bound q = p^e first
    check_field_order(budgets, p, e)
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    exponent = group.exponent()
    t = 0
    while exponent > 1:
        if exponent % p:
            raise InternalInconsistencyError("p-group exponent is not a p-power")
        exponent //= p
        t += 1
    v = t + 1
    mod = p ** v
    classes = group.conjugacy_classes()
    k = classes.count
    ident_class = classes.class_of(group.identity)
    nontrivial = [c for c in range(k) if c != ident_class]
    pos = {c: i for i, c in enumerate(nontrivial)}
    pm = group.class_power_map(p)
    if frobenius is None:
        frobenius = frobenius_matrix(p, e, v)
    if len(frobenius) != e or any(len(r) != e for r in frobenius):
        raise ValidationError("Frobenius matrix has the wrong shape")
    n = e * (k - 1)
    gens = [(j, c) for c in nontrivial for j in range(e)]
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
    return MqPresentation(p, e, v, k, gens, rows, name=group.name)


def _val(x: int, p: int, v: int) -> int:
    x %= p ** v
    if x == 0:
        return v
    out = 0
    while x % p == 0:
        x //= p
        out += 1
    return out


def smith_valuations(rows, p: int, v: int, ncols: int | None = None) -> list[int]:
    """Diagonal p-valuations of the Smith form over Z/p^v, one per column,
    ascending; v stands for a zero diagonal entry."""
    mod = p ** v
    a = [[x % mod for x in r] for r in rows]
    nrows = len(a)
    if ncols is None:
        ncols = len(a[0]) if a else 0
    vals: list[int] = []
    corner = 0
    while corner < min(nrows, ncols):
        best = None
        for i in range(corner, nrows):
            for j in range(corner, ncols):
                w = _val(a[i][j], p, v)
                if w < v and (best is None or w < best[0]):
                    best = (w, i, j)
        if best is None:
            break
        cval, bi, bj = best
        a[corner], a[bi] = a[bi], a[corner]
        for r in a:
            r[corner], r[bj] = r[bj], r[corner]
        unit = a[corner][corner] // p ** cval
        uinv = pow(unit, -1, mod)
        a[corner] = [(x * uinv) % mod for x in a[corner]]
        for i in range(nrows):
            if i != corner and a[i][corner]:
                t = a[i][corner] // p ** cval
                a[i] = [(x - t * y) % mod for x, y in zip(a[i], a[corner])]
        for j in range(corner + 1, ncols):
            if a[corner][j]:
                t = a[corner][j] // p ** cval
                for i in range(nrows):
                    a[i][j] = (a[i][j] - t * a[i][corner]) % mod
        vals.append(cval)
        corner += 1
    vals += [v] * (ncols - len(vals))
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
    out = 1
    for f in invariant_factors(pres):
        out *= f
    return out


def power_class_layers(group: FiniteGroupTable, p: int) -> list[int]:
    """|C_i| = number of conjugacy classes meeting pi_i minus pi_(i+1),
    where pi_i is the set of p^i-th powers."""
    classes = group.conjugacy_classes()
    current = set(range(group.order))
    layers = []
    while len(current) > 1:
        nxt = {group.power(x, p) for x in current}
        diff = current - nxt
        layers.append(len({classes.class_of(x) for x in diff}))
        current = nxt
    return layers


def verify_filtration(pres: MqPresentation, group: FiniteGroupTable) -> dict:
    """Check |p^i M / p^(i+1) M| = q^|C_i| for all i, reading layer sizes
    off the invariant factors."""
    factors = invariant_factors(pres)
    vals = []
    for f in factors:
        a = 0
        while f > 1:
            f //= pres.p
            a += 1
        vals.append(a)
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
    m = group.order
    while m % p == 0:
        m //= p
    if m != 1:
        raise ValidationError(
            f"group order {group.order} does not match characteristic {p}")
    if b0_order < 1:
        raise ValidationError("|B_0| must be a positive integer")
    k = group.conjugacy_classes().count
    return q ** (k - 1) * b0_order
