import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitzeta import corpus, nilalg
from orbitzeta.linalg import base_p_digits
from orbitzeta.budgets import Budgets, budget_scope
from orbitzeta.errors import ValidationError
from orbitzeta.ffield import _poly_mod, _poly_mul, _poly_powmod, make_field
from orbitzeta.linalg import reduce_mod_p, rref_mod_p
from orbitzeta.nilalg import (NilAlgebra, make_augmentation_ideal,
                              make_unitriangular, make_zero_algebra,
                              parse_algebra_file, serialize_algebra)


def product(alg, u, v):
    """u * v by the C route, for one digit row each or row-wise batches,
    as digit rows."""
    u = np.asarray(u)
    return alg._fq_products(u, v).reshape(u.shape)


def basis_rows(alg):
    """The digit rows of the F_q basis b_0, .., b_(d-1)."""
    return np.eye(alg.dim * alg.field.e, dtype=np.int64)[::alg.field.e]


def random_rows(alg, rng, count):
    codes = [rng.randrange(alg.field.q ** alg.dim) for _ in range(count)]
    return base_p_digits(codes, alg.field.p, alg.dim * alg.field.e).astype(np.int64)


def test_unitriangular_dimensions_and_class():
    u3 = corpus.unitriangular(3, 2)
    assert u3.dim == 3
    assert u3.nilpotency_class == 3
    assert not u3.is_p_nilpotent()
    u3_3 = corpus.unitriangular(3, 3)
    assert u3_3.nilpotency_class == 3
    assert u3_3.is_p_nilpotent()
    u4 = corpus.unitriangular(4, 2)
    assert u4.dim == 6
    assert u4.nilpotency_class == 4
    assert not u4.is_p_nilpotent()


def test_unitriangular_products():
    # the array constructor against the loop over basis pairs (i, j), (k, l)
    u5 = make_unitriangular(5, make_field(3))
    pairs = sorted(((i, j) for i in range(5) for j in range(i + 1, 5)),
                   key=lambda ij: (ij[1] - ij[0], ij[0]))
    want = np.zeros_like(u5.C)
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            if j == k:
                want[a, b, pairs.index((i, l)), 0] = 1
    assert np.array_equal(u5.C, want)
    # e_{12} e_{23} = e_{13}, all other basis products vanish
    u3 = make_unitriangular(3, make_field(5))
    e12, e23, e13 = basis_rows(u3)
    assert np.array_equal(product(u3, e12, e23), e13)
    assert not product(u3, e23, e12).any()
    assert not product(u3, e12, e13).any()
    assert not product(u3, e13, e13).any()
    assert np.array_equal((product(u3, e12, e23) - product(u3, e23, e12)) % 5, e13)


def test_power_basis_chain():
    # powers[k - 1] is the echelon basis (rows, pivots) of J^k, down to J^c = 0
    u4 = corpus.unitriangular(4, 2)
    assert [len(rows) for rows, _ in u4.powers] == [6, 3, 1, 0]
    assert u4.nilpotency_class == 4


def test_augmentation_ideal_basics():
    for name in ("C2", "C4", "D8", "Q8"):
        g = corpus.group(name)
        alg = corpus.augmentation_ideal(name, 2)
        assert alg.dim == g.order - 1
        # the array constructor against the term-by-term loop
        elems = [x for x in range(g.order) if x != g.identity]
        want = np.zeros_like(alg.C)
        for a, x in enumerate(elems):
            for b, y in enumerate(elems):
                if g.mult(x, y) != g.identity:
                    want[a, b, elems.index(g.mult(x, y)), 0] += 1
                want[a, b, a, 0] -= 1
                want[a, b, b, 0] -= 1
        assert np.array_equal(alg.C, want % 2)
    c2 = corpus.augmentation_ideal("C2", 2)
    x = basis_rows(c2)[0]
    assert not product(c2, x, x).any()  # (g-1)^2 = g^2 - 2g + 1 = 0 in char 2
    assert c2.nilpotency_class == 2
    assert c2.is_p_nilpotent()


def test_augmentation_ideal_char_must_divide_order():
    with pytest.raises(ValidationError):
        make_augmentation_ideal(corpus.group("C3"), make_field(2))


def test_zero_algebra():
    z = make_zero_algebra(3, make_field(3))
    assert z.nilpotency_class == 2
    b = basis_rows(z)
    assert not product(z, np.repeat(b, 3, axis=0), np.tile(b, (3, 1))).any()
    rows, _ = z.derived_lie_subspace()
    assert rows.tolist() == []


def test_derived_lie_subspace_dims():
    for u3 in (corpus.unitriangular(3, 3), corpus.unitriangular(3, 2, 2)):
        rows, _ = u3.derived_lie_subspace()
        assert len(rows) // u3.field.e == 1  # span of e13
    abelian = corpus.augmentation_ideal("C4", 2)
    rows, _ = abelian.derived_lie_subspace()
    assert rows.tolist() == []
    d8 = corpus.augmentation_ideal("D8", 2)
    rows, _ = d8.derived_lie_subspace()
    assert len(rows) == d8.dim - (corpus.group("D8").k() - 1)


def test_derived_lie_subspace_is_the_span_of_all_brackets():
    # the s < t brackets that derived_lie_subspace eliminates span what all
    # n^2 brackets span, over prime fields and over F_4 and F_9
    for alg in (corpus.augmentation_ideal("He27", 3), corpus.augmentation_ideal("M27", 3),
                corpus.augmentation_ideal("D8oQ8", 2), corpus.unitriangular(4, 5),
                corpus.unitriangular(3, 2, 2), corpus.unitriangular(3, 3, 2),
                corpus.zero_algebra(3, 7)):
        n = alg.T.shape[0]
        rows, pivots = alg.derived_lie_subspace()
        want, want_pivots = rref_mod_p((alg.T - alg.T.transpose(1, 0, 2)).reshape(n * n, n),
                                       alg.field.p)
        assert np.array_equal(rows, want) and pivots == want_pivots


def test_vector_arithmetic_sampled():
    alg = corpus.unitriangular(3, 3)
    rng = random.Random(23)
    u, v, w = random_rows(alg, rng, 3 * 80).reshape(80, 3, -1).transpose(1, 0, 2)
    p = alg.field.p

    def mul(x, y):
        return product(alg, x, y)

    assert np.array_equal(mul((u + v) % p, w), (mul(u, w) + mul(v, w)) % p)
    assert np.array_equal(mul(u, (v + w) % p), (mul(u, v) + mul(u, w)) % p)
    assert np.array_equal(mul(mul(u, v), w), mul(u, mul(v, w)))


def test_structure_constant_validation():
    f = make_field(2)
    # out-of-range pair and target indices
    with pytest.raises(ValidationError):
        parse_algebra_file("alg 2 1 2\n0 5 1 1\n")
    with pytest.raises(ValidationError):
        parse_algebra_file("alg 2 1 2\n0 0 7 1\n")
    # x*x = x is not nilpotent
    C = np.zeros((1, 1, 1, 1), dtype=np.int64)
    C[0, 0, 0, 0] = 1
    with pytest.raises(ValidationError):
        NilAlgebra(f, C)
    # the dense n^3 structure tensor is capped at n = 128
    with pytest.raises(ValidationError):
        make_zero_algebra(129, f)
    # a nonassociative table: b0*b0 = b1, b1*b0 = b2, so (b0 b0) b0 != b0 (b0 b0)
    C = np.zeros((3, 3, 3, 1), dtype=np.int64)
    C[0, 0, 1, 0] = C[1, 0, 2, 0] = 1
    with pytest.raises(ValidationError):
        NilAlgebra(f, C)
    # C must be (d, d, d, e) with e the extension degree
    with pytest.raises(ValidationError):
        NilAlgebra(f, np.zeros((2, 2, 2, 2), dtype=np.int64))
    with pytest.raises(ValidationError):
        NilAlgebra(f, np.zeros((2, 2, 3, 1), dtype=np.int64))
    # n (p-1)^2 < 2^63 keeps every int64 contraction exact; p = 3037000493 is
    # the largest prime with (p-1)^2 < 2^63, so n = 1 passes and n = 2 fails
    with budget_scope(Budgets(field_q_max=2**32)):
        big = make_field(3037000493, 1)
    assert make_zero_algebra(1, big).dim == 1
    with pytest.raises(ValidationError):
        make_zero_algebra(2, big)
    with budget_scope(Budgets(field_q_max=2**33)), pytest.raises(ValidationError):
        make_zero_algebra(1, make_field(4294967311, 1))


def test_parser_adds_repeated_targets_mod_p():
    alg = parse_algebra_file("alg 3 1 2\n0 0 1 2\n0 0 1 2\n")
    assert alg.C[0, 0, 1, 0] == 1
    b = basis_rows(alg)
    assert np.array_equal(product(alg, b[0], b[0]), b[1])
    # the two lines cancel over F_2: J*J = 0
    assert parse_algebra_file("alg 2 1 2\n0 0 1 1\n0 0 1 1\n").nilpotency_class == 2


def test_refine_to_flag():
    # one (n, n) basis whose suffixes B[e i:] drop by one F_q-dimension each
    for alg in (corpus.unitriangular(3, 3), corpus.unitriangular(4, 2),
                corpus.augmentation_ideal("D8", 2), corpus.unitriangular(3, 2, 2)):
        B, e, n = alg.refine_to_flag(), alg.field.e, alg.T.shape[0]
        assert B.shape == (n, n) and B.dtype == np.int64
        assert [len(rref_mod_p(B[e * i:], alg.field.p)[0]) for i in range(alg.dim + 1)] \
            == list(range(n, -1, -e))
        assert alg.refine_to_flag() is B  # made once


def test_serialize_parse_roundtrip():
    for alg in (corpus.unitriangular(3, 3), corpus.augmentation_ideal("Q8", 2),
                corpus.unitriangular(3, 2, 2)):
        text = serialize_algebra(alg)
        back = parse_algebra_file(text)
        assert back.dim == alg.dim
        assert back.field is alg.field
        assert np.array_equal(back.C, alg.C)


def test_augmentation_ideal_matches_group_algebra_relations():
    # in I[C4] over F2 with x = g-1: x^4 = g^4 - 1 = 0 but x^2 != 0
    alg = corpus.augmentation_ideal("C4", 2)
    g = corpus.group("C4")
    gen = next(x for x in range(4) if g.power(x, 2) != g.identity)   # of order 4
    # basis vectors are (r - 1) over nonidentity r; pick the generator's one
    idx = [x for x in range(g.order) if x != g.identity].index(gen)
    x = basis_rows(alg)[idx]
    x2 = product(alg, x, x)
    assert x2.any()
    assert not product(alg, product(alg, x2, x), x).any()


def test_unitriangular_needs_n_at_least_two():
    with pytest.raises(ValidationError):
        make_unitriangular(1, make_field(2))


def _big_constant_algebra():
    # b_i b_j = c_ij b_4 for i, j < 4 with c_ij near p = 1048573, the largest
    # prime below 2^20; every triple product vanishes, so it is associative
    f = make_field(1048573)
    C = np.zeros((5, 5, 5, 1), dtype=np.int64)
    for i in range(4):
        for j in range(4):
            C[i, j, 4, 0] = (-1 - i - 4 * j) % f.p
    return NilAlgebra(f, C, name="big-constants")


@pytest.mark.parametrize("make", [
    lambda: corpus.unitriangular(3, 2, 2),
    lambda: corpus.unitriangular(3, 3, 2),
    lambda: corpus.augmentation_ideal("C9", 3),
    _big_constant_algebra,
], ids=["u3_F4", "u3_F9", "I_F3_C9", "p1048573"])
def test_structure_tensor_matches_multiply(make):
    alg = make()
    rng = random.Random(alg.dim)
    # the all-(p-1) pair makes every term of an unreduced contraction ~2^60
    top = np.full((1, alg.dim * alg.field.e), alg.field.p - 1)
    xs = np.vstack([top, random_rows(alg, rng, 40)])
    ys = np.vstack([top, random_rows(alg, rng, 40)])
    assert np.array_equal(alg._mul_rows(xs, ys), product(alg, xs, ys))


def _mul_rows_by_basis(alg, X, Y):
    """Row-wise x_r * y_r as a sum over the prime basis vectors b_s in the
    support of X: x_rs (y_r T[s]) mod p, one int64 product per b_s."""
    p = alg.field.p
    out = np.zeros(Y.shape, dtype=np.int64)
    for s in np.flatnonzero(X.any(axis=0)):
        out = (out + X[:, s, None] * (Y @ alg.T[s] % p)) % p
    return out


@pytest.mark.parametrize("make", [
    lambda: corpus.unitriangular(4, 2),
    lambda: corpus.augmentation_ideal("D8", 2),
    lambda: corpus.unitriangular(4, 3),
    lambda: corpus.unitriangular(3, 5),
    lambda: corpus.unitriangular(3, 3, 2),
], ids=["u4_F2", "I_F2_D8", "u4_F3", "u3_F5", "u3_F9"])
@pytest.mark.parametrize("rows_per_block", [1, 3, None], ids=["1", "3", "default"])
def test_mul_rows_matches_the_per_basis_sum(monkeypatch, make, rows_per_block):
    # 41 rows: blocks of 1 and 3 rows end at and inside the last block
    alg = make()
    n = alg.dim * alg.field.e
    if rows_per_block is not None:
        monkeypatch.setattr(nilalg, "_PAIRS_BATCH", rows_per_block * n * n + n - 1)
    rng = random.Random(n * alg.field.q)
    xs, ys = random_rows(alg, rng, 41), random_rows(alg, rng, 41)
    got = alg._mul_rows(xs, ys)
    assert got.dtype == np.int64
    assert np.array_equal(got, _mul_rows_by_basis(alg, xs, ys))


def _fq_mul(f, a, b):
    """a * b in F_q for digit tuples, by the polynomial kit."""
    red = _poly_mod(_poly_mul(list(a), list(b), f.p), list(f.modulus), f.p)
    return tuple(red) + (0,) * (f.e - len(red))


def _fq_add(f, a, b):
    return tuple((x + y) % f.p for x, y in zip(a, b))


def _fq_inverse(f, a):
    red = _poly_powmod(list(a), f.q - 2, list(f.modulus), f.p)
    return tuple(red) + (0,) * (f.e - len(red))


def _scalar_product(alg, u, v):
    """u * v over F_q from C for digit rows u and v, one polynomial-kit
    product per nonzero constant, as a digit tuple: the reference for
    NilAlgebra._fq_products."""
    f, e = alg.field, alg.field.e
    u, v = ([tuple(w[i * e:(i + 1) * e]) for i in range(alg.dim)] for w in (u, v))
    dense = [(0,) * e] * alg.dim
    rows = [i for i, a in enumerate(u) if any(a)]
    cols = [j for j, b in enumerate(v) if any(b)]
    block = alg.C[rows][:, cols]
    x, y, k = np.nonzero(block.any(axis=3))  # sorted by (x, y)
    pair = ab = None
    for i, j, t, c in zip(x.tolist(), y.tolist(), k.tolist(), block[x, y, k].tolist()):
        if (i, j) != pair:
            pair, ab = (i, j), _fq_mul(f, u[rows[i]], v[cols[j]])
        dense[t] = _fq_add(f, dense[t], _fq_mul(f, ab, c))
    return tuple(c for a in dense for c in a)


def _rescaled(alg, seed):
    """alg on the basis s_i b_i for seeded nonzero s_i: the constants become
    s_i s_j s_k^-1 C[i, j, k], most of them off the prime field."""
    f, rng = alg.field, random.Random(seed)
    s = [tuple(base_p_digits([rng.randrange(1, f.q)], f.p, f.e)[0].tolist())
         for _ in range(alg.dim)]
    C = np.zeros_like(alg.C)
    for i, j, k in np.argwhere(alg.C.any(axis=3)).tolist():
        scale = _fq_mul(f, _fq_mul(f, s[i], s[j]), _fq_inverse(f, s[k]))
        C[i, j, k] = _fq_mul(f, scale, alg.C[i, j, k].tolist())
    return NilAlgebra(f, C, name=f"{alg.name} rescaled")


@pytest.mark.parametrize("make", [
    lambda: corpus.unitriangular(3, 2, 3),
    lambda: corpus.unitriangular(3, 3, 2),
    lambda: corpus.unitriangular(4, 5, 2),
    lambda: corpus.augmentation_ideal("C9", 3),
    _big_constant_algebra,
], ids=["u3_F8", "u3_F9", "u4_F25", "I_F3_C9", "p1048573"])
def test_fq_products_match_scalar_loop(make):
    base = make()
    for alg in (base, _rescaled(base, 7)):
        rng = random.Random(alg.dim)
        n = alg.dim * alg.field.e
        # the all-(p-1) pair makes every product of digits (p-1)^2
        top = np.full((1, n), alg.field.p - 1)
        xs = np.vstack([top, random_rows(alg, rng, 40)])
        ys = np.vstack([top, random_rows(alg, rng, 40)])
        got = alg._fq_products(xs, ys)
        assert got.shape == (len(xs), alg.dim, alg.field.e)
        expected = [_scalar_product(alg, x.tolist(), y.tolist()) for x, y in zip(xs, ys)]
        assert [tuple(r) for r in got.reshape(len(xs), n).tolist()] == expected


# ------------------------------------------------------------- the parser --

def _reference_parse(text):
    """The per-line parse, one code range check and one C[i, j, k] update
    per line: C reduced mod p, or the ValidationError of the first bad line."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    _, p, e, d = lines[0].split()
    field, d = make_field(int(p), int(e)), int(d)
    C = np.zeros((d, d, d, field.e), dtype=np.int64)
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 4:
            raise ValidationError(f"bad structure line: {ln!r}")
        try:
            i, j, k, code = (int(x) for x in parts)
        except ValueError:
            raise ValidationError(f"structure line has non-integer tokens: {ln!r}") from None
        if not (0 <= i < d and 0 <= j < d and 0 <= k < d):
            raise ValidationError(f"structure constant index ({i},{j},{k}) out of range")
        if not (0 <= code < field.q):
            raise ValidationError(f"element code {code} out of range for {field.name}")
        C[i, j, k] = (C[i, j, k] + [code // field.p ** m % field.p
                                    for m in range(field.e)]) % field.p
    return C


def _parsed_constants(text):
    """The C that parse_algebra_file hands to NilAlgebra, for any C."""
    with mock.patch.object(nilalg, "NilAlgebra", lambda field, C, name=None: C):
        return parse_algebra_file(text)


# tokens a structure line may hold, valid or not: int() accepts "+1" and "1_0"
_ODD_TOKENS = ["x", "1.5", "0x3", "-1", "+1", "1_0", "", str(2**63), str(2**64),
               str(-2**63 - 1)]


@st.composite
def algebra_texts(draw):
    """Headers over prime and extension fields; bodies of valid lines with
    repeated targets, comments, blank lines and, in some, bad lines."""
    p, e = draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3)]))
    q, d = p ** e, draw(st.integers(1, 4))
    index = st.integers(0, d - 1).map(str)
    code = st.one_of(st.integers(0, q - 1), st.sampled_from([q - 1, 0])).map(str)
    good = st.tuples(index, index, index, code).map(" ".join)
    token = st.one_of(index, code, st.sampled_from(_ODD_TOKENS + [str(d), str(q)]))
    # four integers with one index or the code out of range, or any tokens
    near = st.tuples(index, index, index, code, st.integers(0, 3),
                     st.sampled_from([-1, d, q, 2**63, 2**64]))
    bad = st.one_of(
        near.map(lambda t: " ".join(t[:t[4]] + (str(t[5]),) + t[t[4] + 1:4])),
        st.lists(token, max_size=6).map(" ".join))
    line = st.one_of(
        good, good, good,
        st.tuples(good, st.sampled_from(["#", "# 9 9", "#x"])).map(" ".join),
        st.sampled_from(["", "   ", "# comment", "\t", "#"]))
    lines = draw(st.lists(line, max_size=40))
    # a few lines again, in a new order: repeated (i, j, k) targets add up
    lines += draw(st.permutations(lines))[:draw(st.integers(0, len(lines)))]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(bad))
    return "\n".join([f"alg {p} {e} {d}"] + lines)


@settings(max_examples=150, deadline=None)
@given(text=algebra_texts())
@example(text="alg 3 2 2\n0 0 1 8\n0 0 1 8 # again\n\n1 1 0 5\n0 0 1 7")
@example(text="alg 2 1 2\n0 0 1 1\n0 0 1 x\n0 0 1")
@example(text=f"alg 2 1 2\n0 0 1 {2**63}\n{2**64} 0 0 1")
def test_array_parse_matches_per_line_reference(text):
    try:
        want = _reference_parse(text)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            _parsed_constants(text)
        assert str(got.value) == str(exc)
        return
    p = int(text.split()[1])
    assert np.array_equal(_parsed_constants(text) % p, want)


@pytest.mark.parametrize("line,message", [
    ("0 0 1", "bad structure line: '0 0 1'"),
    ("0 0 1 1 1", "bad structure line: '0 0 1 1 1'"),
    ("0 0 1 x", "structure line has non-integer tokens: '0 0 1 x'"),
    ("0 0 1.5 1", "structure line has non-integer tokens: '0 0 1.5 1'"),
    ("0 2 1 1", "structure constant index (0,2,1) out of range"),
    ("-1 0 1 1", "structure constant index (-1,0,1) out of range"),
    ("0 0 1 4", "element code 4 out of range for F_4"),
    ("0 0 1 -1", "element code -1 out of range for F_4"),
    (f"0 0 1 {2**63}", f"element code {2**63} out of range for F_4"),
    (f"0 0 1 {2**64}", f"element code {2**64} out of range for F_4"),
    (f"{2**63} 0 1 1", f"structure constant index ({2**63},0,1) out of range"),
    (f"0 0 {2**64} 1", f"structure constant index (0,0,{2**64}) out of range"),
])
@pytest.mark.parametrize("after", ["", "1 1 1 9 9\n"], ids=["alone", "then-worse"])
def test_structure_line_error_messages(line, message, after):
    # valid lines around the bad one, or a bad line of another kind after it:
    # the error names the first offending line
    text = f"alg 2 2 2\n0 0 1 3\n{line}  # the bad line\n1 0 1 2\n{after}"
    with pytest.raises(ValidationError) as exc:
        parse_algebra_file(text)
    assert str(exc.value) == message


def test_codes_past_int64_parse_exactly():
    # q = 2^64: codes from 2^63 on are field elements but not int64 values
    code = 2**63 + 5
    with budget_scope(Budgets(field_q_max=2**64)):
        C = _parsed_constants(f"alg 2 64 2\n0 0 1 {code}\n1 0 1 1\n")
        assert C[0, 0, 1].tolist() == [(code >> m) & 1 for m in range(64)]
        assert C[1, 0, 1].tolist() == [1] + [0] * 63
        # the two lines cancel over F_2: the zero algebra of dimension 1
        alg = parse_algebra_file(f"alg 2 64 1\n0 0 0 {code}\n0 0 0 {code}\n")
        assert alg.nilpotency_class == 2
        with pytest.raises(ValidationError, match=f"element code {2**64} out of range"):
            parse_algebra_file(f"alg 2 64 1\n0 0 0 {2**64}\n")


# ------------------------------------------------------ the product checks --

def _first_nonassociative_triple(field, C):
    """The least (i, j, k) with (b_i b_j) b_k != b_i (b_j b_k), by F_q
    arithmetic on C alone."""
    d, zero = len(C), (0,) * field.e
    c = C.tolist()

    def product(u, v):
        out = [zero] * d
        for s, t in itertools.product(range(d), repeat=2):
            if any(u[s]) and any(v[t]):
                uv = _fq_mul(field, u[s], v[t])
                for k in range(d):
                    out[k] = _fq_add(field, out[k], _fq_mul(field, uv, c[s][t][k]))
        return out

    one = (1,) + zero[1:]
    basis = [[one if s == i else zero for s in range(d)] for i in range(d)]
    for i, j, k in itertools.product(range(d), repeat=3):
        left = product(product(basis[i], basis[j]), basis[k])
        right = product(basis[i], product(basis[j], basis[k]))
        if left != right:
            return i, j, k
    return None


# p = 134217689 = prevprime(2^27): n (p-1)^2 >= 2^53 at n = 3, the int64 route
with budget_scope(Budgets(field_q_max=2**28)):
    _BIG = make_field(134217689, 1)


@pytest.mark.parametrize("alg,float_route", [
    (corpus.unitriangular(4, 2), True),
    (corpus.augmentation_ideal("D8", 2), True),
    (corpus.unitriangular(4, 3), True),
    (corpus.unitriangular(3, 3, 2), True),
    (make_unitriangular(3, _BIG), False),
], ids=["u4_F2", "I_F2_D8", "u4_F3", "u3_F9", "u3_F134217689"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_associativity_mutation_raises_at_first_triple(alg, float_route, data):
    f, d = alg.field, alg.dim
    assert (alg.T.shape[0] * (f.p - 1) ** 2 < 2**53) == float_route
    i, j, k = (data.draw(st.integers(0, d - 1)) for _ in range(3))
    delta = data.draw(st.lists(st.integers(0, f.p - 1), min_size=f.e, max_size=f.e)
                      .filter(any))
    C = alg.C.copy()
    C[i, j, k] = (C[i, j, k] + delta) % f.p
    want = _first_nonassociative_triple(f, C)
    try:
        NilAlgebra(f, C)
    except ValidationError as exc:
        assert (str(exc) == "structure constants not associative at basis triple "
                f"({want[0]},{want[1]},{want[2]})" if want else
                "not associative" not in str(exc))
    else:
        assert want is None


def _unverified(field, C):
    """An algebra with the structure tensor T of C and no checks run."""
    alg = NilAlgebra.__new__(NilAlgebra)
    alg.field, alg.dim, alg.C = field, len(C), np.asarray(C) % field.p
    alg._build_tensor()
    return alg


def _first_failing_triple(alg):
    """The least (i, j, k) with (b_i b_j) b_k != b_i (b_j b_k), or None: the
    exhaustive per-triple loop, one i at a time over T."""
    T, p, e, d = alg.T, alg.field.p, alg.field.e, alg.dim
    n = T.shape[0]
    for i in range(d):
        left = (T[i * e, ::e] @ T[:, ::e].reshape(n, d * n) % p).reshape(d, d, n)
        right = (T[::e, ::e].reshape(d * d, n) @ T[i * e] % p).reshape(d, d, n)
        bad = np.argwhere((left != right).any(axis=2))
        if bad.size:
            return i, int(bad[0, 0]), int(bad[0, 1])
    return None


def _ideal_products(alg, rows):
    """The rows v * b_t and b_t * v for every row v and prime basis vector b_t."""
    n = alg.T.shape[0]
    eye = np.eye(n, dtype=np.int64)
    return np.concatenate([alg._products_of(rows, eye).reshape(-1, n),
                           alg._products_of(eye, rows).reshape(-1, n)])


def _is_nilpotent(alg):
    """Whether J^(n+1) = 0, with J^(k+1) spanned by the products of the rows
    of J^k with the basis on both sides."""
    rows = np.eye(alg.T.shape[0], dtype=np.int64)
    for _ in range(alg.T.shape[0]):
        rows = rref_mod_p(_ideal_products(alg, rows), alg.field.p)[0]
    return not len(rows)


def _expect_verdict(field, C):
    """NilAlgebra(field, C) accepts exactly when C is associative on every
    basis triple and nilpotent, and otherwise names the first failing triple,
    or non-nilpotency."""
    raw = _unverified(field, C)
    triple = _first_failing_triple(raw)
    try:
        alg = NilAlgebra(field, C)
    except ValidationError as exc:
        if triple:
            assert str(exc) == ("structure constants not associative at basis "
                                f"triple ({triple[0]},{triple[1]},{triple[2]})")
        else:
            assert str(exc) == "algebra is not nilpotent: power chain stalled"
            assert not _is_nilpotent(raw)
        return None
    assert triple is None and _is_nilpotent(raw)
    return alg


@pytest.mark.parametrize("base,products,seed", [
    (corpus.unitriangular(13, 2), 1, 0),
    (corpus.unitriangular(13, 2), 40, 1),
    (corpus.unitriangular(13, 2), 400, 2),
    (make_zero_algebra(65, make_field(3)), 80, 3),
    (make_zero_algebra(65, make_field(3)), 400, 4),
], ids=["u13_F2_one", "u13_F2_sparse", "u13_F2_dense", "zero65_F3_sparse", "zero65_F3"])
def test_sampled_associativity_mutation_matches_per_triple_loop(base, products, seed):
    # random extra products b_a b_b += c b_t on an algebra with d > 64 (so
    # e = 1: n = d e <= 128); the verdict and message must be those of the
    # exhaustive per-triple loop
    f, d = base.field, base.dim
    rng = np.random.default_rng(seed)
    C = base.C.copy()
    a, b, t = rng.integers(0, d, (3, products))
    C[a, b, t] = (C[a, b, t] + rng.integers(1, f.p, (products, 1))) % f.p
    _expect_verdict(f, C)


def test_one_failing_triple_past_d_64_is_rejected():
    # b_60 b_61 = b_62 and b_62 b_63 = b_64 in dimension 65: only
    # (b_60 b_61) b_63 = b_64 differs from b_60 (b_61 b_63) = 0, one triple
    # of 65^3
    f = make_field(3)
    C = np.zeros((65, 65, 65, 1), dtype=np.int64)
    C[60, 61, 62] = C[62, 63, 64] = 1
    with pytest.raises(ValidationError, match=r"^structure constants not associative "
                       r"at basis triple \(60,61,63\)$"):
        NilAlgebra(f, C)
    # without the second product it is associative, of class 3
    C[62, 63, 64] = 0
    assert NilAlgebra(f, C).nilpotency_class == 3


def _f2_algebra(d, products):
    """The F_2-algebra of dimension d with b_i b_j = b_k for each (i, j, k)
    of products, and every other product of basis vectors 0."""
    C = np.zeros((d, d, d, 1), dtype=np.int64)
    for i, j, k in products:
        C[i, j, k, 0] = 1
    return C


@pytest.mark.parametrize("products,d,message", [
    # V is empty and J V = 0, but J^2 = J: only the certificate refuses
    ([(0, 0, 0)], 1, "algebra is not nilpotent: power chain stalled"),
    # V = {b_0, b_1}; Light's test passes and the chain through V reaches 0
    # (J V = <b_3>, then 0), but the idempotent b_2 lies in J^2
    ([(2, 1, 3), (2, 2, 2)], 4, "structure constants not associative at basis triple (2,2,1)"),
    # V = {b_0, b_3}, and only the first fails Light's test: (b_0 b_0) b_0 = b_2
    # while b_0 (b_0 b_0) = 0; the chain J > <b_1, b_2> > <b_2> > 0 passes
    ([(0, 0, 1), (1, 0, 2)], 4, "structure constants not associative at basis triple (0,0,0)"),
    # V = {b_0, b_1}, and only the last fails: (b_1 b_1) b_1 = b_3, b_1 (b_1 b_1) = 0
    ([(1, 1, 2), (2, 1, 3)], 4, "structure constants not associative at basis triple (1,1,1)"),
], ids=["certificate_only", "certificate_nonassociative", "light_first", "light_last"])
def test_each_step_of_the_light_route_refuses_on_its_own(products, d, message):
    with pytest.raises(ValidationError) as exc:
        NilAlgebra(make_field(2), _f2_algebra(d, products))
    assert str(exc.value) == message


_MUTATION_BASES = [corpus.unitriangular(4, 2), corpus.augmentation_ideal("D8", 2),
                   corpus.augmentation_ideal("Q8", 2), corpus.augmentation_ideal("C4xC2", 2),
                   corpus.augmentation_ideal("C9", 3), corpus.unitriangular(4, 3),
                   corpus.unitriangular(3, 2, 2), corpus.zero_algebra(4, 2)]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_light_route_accepts_exactly_the_associative_nilpotent_mutations(data):
    # add to a few cells C[i, j, k], half of them with b_j in J^2, whose
    # associators (b_i, b_j, y) Light's test over V never evaluates
    alg = data.draw(st.sampled_from(_MUTATION_BASES))
    f, d, e = alg.field, alg.dim, alg.field.e
    rows, piv = alg.powers[1]
    basis = np.eye(d * e, dtype=np.int64)[::e]
    in_square = np.flatnonzero(~reduce_mod_p(rows, piv, basis, f.p).any(axis=1)).tolist()
    C = alg.C.copy()
    for _ in range(data.draw(st.integers(1, 3))):
        mids = in_square if in_square and data.draw(st.booleans()) else list(range(d))
        i, j, k = (data.draw(st.integers(0, d - 1)), data.draw(st.sampled_from(mids)),
                   data.draw(st.integers(0, d - 1)))
        delta = data.draw(st.lists(st.integers(0, f.p - 1), min_size=e, max_size=e))
        C[i, j, k] = (C[i, j, k] + delta) % f.p
    accepted = _expect_verdict(f, C)
    if accepted is not None:
        _assert_chain_is_two_sided(accepted)


def _two_sided_chain(alg):
    """J^(k+1) as the span of v * b_t and b_t * v over the rows v of J^k."""
    chain = [alg.powers[0]]
    while len(chain[-1][0]):
        chain.append(rref_mod_p(_ideal_products(alg, chain[-1][0]), alg.field.p))
    return chain


def _assert_chain_is_two_sided(alg):
    two_sided = _two_sided_chain(alg)
    assert len(alg.powers) == len(two_sided)
    for (rows, piv), (want, want_piv) in zip(alg.powers, two_sided):
        assert np.array_equal(rows, want) and piv == want_piv


def _chain_corpus():
    """Every corpus algebra up to the ideals of groups of order 32, once each."""
    algs = corpus.duality_corpus() + [
        corpus.unitriangular(4, 2, 2), corpus.unitriangular(3, 3, 2),
        corpus.unitriangular(4, 3, 2), corpus.unitriangular(3, 2, 3)]
    algs += corpus.character_corpus() + [corpus.augmentation_ideal(name, p) for name, p
                                         in corpus.abelianization_dim_corpus()]
    return list({alg.name: alg for alg in algs}.values())


@pytest.mark.parametrize("alg", _chain_corpus(), ids=lambda a: a.name)
def test_one_sided_power_chain_matches_two_sided(alg):
    _assert_chain_is_two_sided(alg)


def _member_list_flag(alg):
    """The flag as a list of (rows, pivots) members, J first and 0 last: the
    greedy loop over the power chain with one elimination per member, the
    reference for the suffixes of refine_to_flag."""
    p, e = alg.field.p, alg.field.e
    flag = [alg.powers[0]]
    for m in range(len(alg.powers) - 1, 0, -1):
        cur_rows, cur_piv = alg.powers[m]
        intermediates = []
        for v in alg.powers[m - 1][0]:
            if not reduce_mod_p(cur_rows, cur_piv, v, p).any():
                continue
            multiples = [v]
            for _ in range(e - 1):
                multiples.append(multiples[-1] @ alg.omega % p)
            cur_rows, cur_piv = rref_mod_p(np.concatenate([cur_rows, multiples]), p)
            intermediates.append((cur_rows, cur_piv))
        # the last extension re-derives J^m itself
        flag += intermediates[:-1] + [alg.powers[m]]
    return sorted(flag, key=lambda member: -len(member[0]))


@pytest.mark.parametrize("alg", _chain_corpus(), ids=lambda a: a.name)
def test_flag_suffixes_span_the_member_list(alg):
    B, p, e = alg.refine_to_flag(), alg.field.p, alg.field.e
    members = _member_list_flag(alg)
    assert len(members) == alg.dim + 1
    for i, (rows, piv) in enumerate(members):
        ech, ech_piv = rref_mod_p(B[e * i:], p)
        assert np.array_equal(ech, rows) and ech_piv == piv, i


def test_flag_members_are_two_sided_ideals():
    # on every corpus algebra, e = 1 and e = 2 among them: every suffix span
    # of the flag basis is an F_q-subspace, and b v and v b lie in it for
    # every F_q basis row b and member row v (C route)
    algs = _chain_corpus()
    assert {alg.field.e for alg in algs} >= {1, 2}
    for alg in algs:
        B, p, e = alg.refine_to_flag(), alg.field.p, alg.field.e
        basis = basis_rows(alg)
        for i in range(0, len(B), e):
            rows, piv = rref_mod_p(B[i:], p)
            assert alg.is_fq_subspace(rows)
            b, v = np.repeat(basis, len(rows), axis=0), np.tile(rows, (alg.dim, 1))
            prods = np.vstack([product(alg, b, v), product(alg, v, b)])
            ech, ext_piv = rref_mod_p(np.vstack([rows, prods]), p)
            assert np.array_equal(ech, rows) and ext_piv == piv, (alg.name, i)
