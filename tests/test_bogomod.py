import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitzeta import corpus
from orbitzeta.algroup import AlgebraGroup
from orbitzeta.bogomod import (build_mq, frobenius_matrix,
                               hensel_lift_modulus, invariant_factors,
                               mq_order, power_class_layers,
                               predicted_ab_order, smith_valuations,
                               verify_filtration)
from orbitzeta.budgets import Budgets, budget_scope
from orbitzeta.errors import ValidationError
from orbitzeta.ffield import _poly_powmod, make_field, p_adic, prime_power_decompose
from orbitzeta.linalg import smith_valuations_mod_pv


def test_hensel_lift_basic():
    # t^2 + t + 1 divides t^3 - 1 over Z, so it lifts to itself
    assert hensel_lift_modulus(2, 2, 2) == [1, 1, 1]
    assert hensel_lift_modulus(2, 2, 5) == [1, 1, 1]
    for p, e, v in ((2, 3, 3), (3, 2, 3), (5, 2, 2)):
        fhat = hensel_lift_modulus(p, e, v)
        field = make_field(p, e)
        assert len(fhat) == e + 1 and fhat[-1] == 1
        assert [c % p for c in fhat] == [c % p for c in field.modulus]


def test_lifted_modulus_divides_t_q_minus_1_by_sympy_remainder():
    # fhat | t^(q-1) - 1 mod p^v pins the lift (Hensel uniqueness); the
    # remainder over ZZ comes from sympy, not from the polynomial kit
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")
    for p in (2, 3, 5, 7, 11, 13):
        for e in range(2, 9):
            q = p ** e
            if q > 256:
                break
            target = sympy.Poly(t ** (q - 1) - 1, t, domain=sympy.ZZ)
            for v in range(1, 7):
                fhat = hensel_lift_modulus(p, e, v)
                assert len(fhat) == e + 1 and fhat[-1] == 1
                assert [c % p for c in fhat] == list(make_field(p, e).modulus)
                rem = target.rem(sympy.Poly(fhat[::-1], t, domain=sympy.ZZ))
                assert all(c % p ** v == 0 for c in rem.all_coeffs()), (p, e, v)


def test_frobenius_matrix_for_a_large_field_is_fast():
    # the lift costs O(e^2 log q) products, not a division of t^(q-1) - 1
    start = time.perf_counter()
    mat = frobenius_matrix(1021, 2, 3)
    assert time.perf_counter() - start < 2.0
    assert [[x % 1021 for x in row] for row in mat] == frobenius_matrix(1021, 2, 1)


def test_frobenius_matrix_anchor():
    # omega^2 = 3 + 3*omega in Z[omega]/(4, omega^2+omega+1)
    assert frobenius_matrix(2, 2, 2) == [[1, 3], [0, 3]]
    assert frobenius_matrix(3, 1, 4) == [[1]]
    with pytest.raises(ValidationError):
        frobenius_matrix(4, 2, 2)


def test_smith_valuations_hand_cases():
    # SNF of [[2,1],[0,2]] is diag(1,4)
    assert smith_valuations([[2, 1], [0, 2]], 2, 3) == [0, 2]
    assert smith_valuations([[4, 0], [0, 2]], 2, 3) == [1, 2]
    assert smith_valuations([[0, 0], [0, 0]], 2, 3) == [3, 3]
    assert smith_valuations([[1, 0], [0, 1]], 5, 2) == [0, 0]
    # wide and tall shapes
    assert smith_valuations([[2, 0, 0]], 2, 3, ncols=3) == [1, 3, 3]
    assert smith_valuations([[2], [0], [4]], 2, 3, ncols=1) == [1]


def test_smith_valuations_row_op_invariance():
    rng = random.Random(31)
    p, v = 3, 4
    mod = p ** v
    rows = [[rng.randrange(mod) for _ in range(4)] for _ in range(4)]
    base = smith_valuations(rows, p, v)
    for _ in range(10):
        perm = list(range(4))
        rng.shuffle(perm)
        shuffled = [list(rows[i]) for i in perm]
        i, j = rng.sample(range(4), 2)
        c = rng.randrange(mod)
        shuffled[i] = [(x + c * y) % mod for x, y in zip(shuffled[i], shuffled[j])]
        assert smith_valuations(shuffled, p, v) == base


def _smith_valuations_by_lists(rows, p, v, ncols):
    """The elimination over Python lists: a pivot of least valuation,
    first in row-major order, then full row and column clearing."""
    mod = p ** v

    def val(x):
        x %= mod
        return p_adic(x, p)[0] if x else v

    a = [[x % mod for x in r] for r in rows]
    nrows = len(a)
    vals = []
    corner = 0
    while corner < min(nrows, ncols):
        best = None
        for i in range(corner, nrows):
            for j in range(corner, ncols):
                w = val(a[i][j])
                if w < v and (best is None or w < best[0]):
                    best = (w, i, j)
        if best is None:
            break
        cval, bi, bj = best
        a[corner], a[bi] = a[bi], a[corner]
        for r in a:
            r[corner], r[bj] = r[bj], r[corner]
        uinv = pow(a[corner][corner] // p ** cval, -1, mod)
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
    return vals + [v] * (ncols - len(vals))


# (p, v): (p^v)^2 below 2^63 runs on int64, from 2^63 on dtype=object
_SMITH_MODULI = [(2, 3), (3, 4), (5, 2), (7, 1), (2, 31), (3, 19), (2, 32), (3, 20),
                 (2, 70), (10 ** 9 + 7, 2)]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), pv=st.sampled_from(_SMITH_MODULI), nrows=st.integers(0, 7),
       ncols=st.integers(0, 7))
def test_smith_valuations_match_the_list_elimination(data, pv, nrows, ncols):
    p, v = pv
    mod = p ** v
    # entries p^k * u with a few valuations, so the diagonal is not all 0
    entry = st.builds(lambda k, u: p ** k * u % mod, st.integers(0, v), st.integers(0, mod))
    rows = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                              min_size=nrows, max_size=nrows))
    assert smith_valuations_mod_pv(rows, p, v, ncols) == \
        _smith_valuations_by_lists(rows, p, v, ncols)


# anchors: C2 and C4 are the hand-checked examples; C9, Q8, D8 follow by
# chasing the relations p*x_r = x_{r^p} along the power chains
KNOWN_INVARIANTS = [
    ("C2", 2, 1, [2]),
    ("C4", 2, 1, [2, 4]),
    ("C2xC2", 2, 1, [2, 2, 2]),
    ("C3", 3, 1, [3, 3]),
    ("C9", 3, 1, [3, 3, 3, 3, 9, 9]),
    ("Q8", 2, 1, [2, 2, 4]),
    ("D8", 2, 1, [2, 2, 4]),
    ("He27", 3, 1, [3] * 10),
    ("C2", 2, 2, [2, 2]),
    ("C4", 2, 2, [2, 2, 4, 4]),
]


@pytest.mark.parametrize("name,p,e,factors", KNOWN_INVARIANTS)
def test_invariant_factor_anchors(name, p, e, factors):
    pres = build_mq(corpus.group(name), p, e)
    assert invariant_factors(pres) == factors


def test_g128_invariants():
    pres = build_mq(corpus.group("g128"), 2, 1)
    assert invariant_factors(pres) == [2] * 13 + [4] * 6
    assert mq_order(pres) == 2 ** 25  # = q^(k-1) with k = 26


def test_size_law_sample():
    for name in ("C8", "D16", "SD16", "M16", "Q16", "M27", "C3xC3"):
        g = corpus.group(name)
        p, _ = prime_power_decompose(g.order)
        for e in (1, 2):
            pres = build_mq(g, p, e)
            q = p ** e
            assert mq_order(pres) == q ** (g.k() - 1)


def test_power_class_layers():
    assert power_class_layers(corpus.group("Q8"), 2) == [3, 1]
    assert power_class_layers(corpus.group("C4"), 2) == [2, 1]
    assert power_class_layers(corpus.group("C2xC2"), 2) == [3]
    assert power_class_layers(corpus.group("He27"), 3) == [10]
    # layer sizes sum to k - 1
    for name, p in corpus.mq_corpus():
        g = corpus.group(name)
        assert sum(power_class_layers(g, p)) == g.k() - 1, name
    # squaring permutes C3: the powers never shrink, so it is refused
    with pytest.raises(ValidationError, match="not a 2-group"):
        power_class_layers(corpus.group("C3"), 2)


def test_verify_filtration():
    for name, e in (("Q8", 1), ("C9", 1), ("C4", 2), ("M16", 1), ("He27", 2)):
        g = corpus.group(name)
        p, _ = prime_power_decompose(g.order)
        pres = build_mq(g, p, e)
        out = verify_filtration(pres, g, invariant_factors(pres))
        assert out["ok"], out


def test_frobenius_basis_independence():
    # conjugating the Frobenius matrix by a unimodular change of basis
    # leaves the module invariants alone
    for name in ("C4", "Q8", "C9"):
        g = corpus.group(name)
        p, _ = prime_power_decompose(g.order)
        pres = build_mq(g, p, 2)
        v, mod = pres.v, p ** pres.v
        phi = frobenius_matrix(p, 2, v)
        u = [[1, 1], [0, 1]]
        uinv = [[1, mod - 1], [0, 1]]

        def matmul(a, b):
            return [[sum(a[i][t] * b[t][j] for t in range(2)) % mod
                     for j in range(2)] for i in range(2)]

        twisted = matmul(uinv, matmul(phi, u))
        pres2 = build_mq(g, p, 2, frobenius=twisted)
        assert invariant_factors(pres2) == invariant_factors(pres)


def test_build_mq_validation():
    with pytest.raises(ValidationError):
        build_mq(corpus.group("C3"), 2, 1)  # not a 2-group
    with pytest.raises(ValidationError):
        build_mq(corpus.group("C4"), 4, 1)  # 4 is not prime
    with pytest.raises(ValidationError):
        build_mq(corpus.group("C4"), 2, 2, frobenius=[[1]])  # wrong shape


def test_predicted_matches_brute_force_closure():
    # |(1+I_{F_q})_ab| = q^{k-1} * |B_0|; B_0 is trivial at these orders
    for name, p in (("C4", 2), ("D8", 2), ("Q8", 2), ("C3", 3)):
        g = corpus.group(name)
        predicted = predicted_ab_order(g, p, corpus.B0_ORDER[name])
        eng = AlgebraGroup(corpus.augmentation_ideal(name, p))
        assert eng.abelianization_order() == predicted
        assert predicted == p ** (g.k() - 1)


def test_predicted_ab_order_validation():
    with pytest.raises(ValidationError):
        predicted_ab_order(corpus.group("C4"), 6, 1)
    with pytest.raises(ValidationError):
        predicted_ab_order(corpus.group("C3"), 2, 1)


def _largest_element_order(group) -> int:
    """The largest order of an element, by a walk of the table: x, x^2, ...,
    each until it reaches the identity."""
    x = np.arange(group.order)
    power, orders = x.copy(), np.ones(group.order, dtype=np.int64)
    while (moving := power != group.identity).any():
        power[moving] = group.table[power[moving], x[moving]]
        orders += moving
    return int(orders.max())


@pytest.mark.parametrize("name", corpus.group_names())
def test_working_precision_is_one_past_the_exponent(name):
    # p^v = p exp(pi), and in a p-group exp(pi) is the largest element order
    g = corpus.group(name)
    p, _ = prime_power_decompose(g.order)
    assert p ** (build_mq(g, p, 1).v - 1) == _largest_element_order(g)


def test_mq_presentation_fields():
    pres = build_mq(corpus.group("C4"), 2, 2)
    assert pres.q == 4
    assert pres.ngens == 2 * (corpus.group("C4").k() - 1)
    assert pres.v >= 2
    assert len(pres.rows) == pres.ngens


def test_frobenius_matrix_lift_compatibility():
    # higher-precision lifts reduce to lower ones: the Hensel chain is coherent
    for p, e, v in [(2, 2, 2), (2, 3, 3), (3, 2, 2), (5, 2, 3), (3, 3, 2)]:
        low = frobenius_matrix(p, e, v)
        high = frobenius_matrix(p, e, v + 1)
        assert [[x % p ** v for x in row] for row in high] == low


def test_frobenius_matrix_reduces_to_field_frobenius():
    # column j: the digits of (t^j)^p by the polynomial kit
    for p, e in [(2, 2), (2, 3), (3, 2), (5, 2)]:
        modulus = list(make_field(p, e).modulus)
        cols = []
        for j in range(e):
            red = _poly_powmod([0] * j + [1], p, modulus, p)
            cols.append(red + [0] * (e - len(red)))
        from_field = [[cols[j][i] for j in range(e)] for i in range(e)]
        reduced = [[x % p for x in row] for row in frobenius_matrix(p, e, 2)]
        assert from_field == reduced


def test_frobenius_matrix_needs_exact_int64_residue_products():
    # 3037000493 is the largest prime with (p-1)^2 < 2^63
    with budget_scope(Budgets(field_q_max=2**64)):
        assert len(frobenius_matrix(3037000493, 2, 1)) == 2
        with pytest.raises(ValidationError, match=r"\(p-1\)\^2 < 2\^63"):
            frobenius_matrix(4294967291, 2, 1)


def _relation_rows_at_precision(group, p, e, w):
    """Rebuild the relation matrix mod p^w independently of build_mq."""
    classes = group.conjugacy_classes()
    ident = classes.labels[group.identity]
    nontrivial = [c for c in range(classes.count) if c != ident]
    pos = {c: i for i, c in enumerate(nontrivial)}
    pm = group.class_power_map(p)
    frob = frobenius_matrix(p, e, w)
    mod = p ** w
    n = e * len(nontrivial)
    rows = []
    for c in nontrivial:
        target = pm[c]
        for j in range(e):
            row = [0] * n
            row[pos[c] * e + j] = p % mod
            if target != ident:
                base = pos[target] * e
                for i in range(e):
                    row[base + i] = (row[base + i] - frob[i][j]) % mod
            rows.append(row)
    return rows, n


def test_invariant_factors_stable_under_extra_precision():
    for name, p in [("C9", 3), ("Q8", 2), ("C16", 2), ("He27", 3)]:
        g = corpus.group(name)
        for e in (1, 2):
            pres = build_mq(g, p, e)
            base = invariant_factors(pres)
            # same presentation rebuilt one digit deeper
            rows, n = _relation_rows_at_precision(g, p, e, pres.v + 1)
            vals = smith_valuations(rows, p, pres.v + 1, n)
            assert all(a < pres.v for a in vals)  # module killed by exp(pi)
            assert [p ** a for a in vals if a > 0] == base, (name, e)


def test_sympy_smith_form_oracle_for_mq():
    # Z^n / (relations + p^v Z^n) over ZZ: the diagonal of its Smith form above 1
    # must be the invariant factors; every corpus group up to order 128, q = p, p^2
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import ZZ, Matrix

    for name in corpus.groups_of_order_le(128):
        g = corpus.group(name)
        p, _ = prime_power_decompose(g.order)
        for e in (1, 2):
            pres = build_mq(g, p, e)
            n, mod = pres.ngens, pres.p ** pres.v
            stacked = Matrix(list(pres.rows)
                             + [[mod if i == j else 0 for j in range(n)] for i in range(n)])
            S = normalforms.smith_normal_form(stacked, domain=ZZ)
            diagonal = sorted(abs(int(S[i, i])) for i in range(n))
            assert [d for d in diagonal if d > 1] == invariant_factors(pres), (name, e)
