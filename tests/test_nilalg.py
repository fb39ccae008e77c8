import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitzeta import corpus, nilalg
from orbitzeta.budgets import Budgets
from orbitzeta.errors import ValidationError
from orbitzeta.ffield import make_field
from orbitzeta.linalg import rref_mod_p
from orbitzeta.nilalg import (NilAlgebra, make_augmentation_ideal,
                              make_unitriangular, make_zero_algebra,
                              parse_algebra_file, serialize_algebra)


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
    e12, e23, e13 = (u3.basis_vector(i) for i in range(3))
    assert e12 * e23 == e13
    assert (e23 * e12).is_zero()
    assert (e12 * e13).is_zero()
    assert (e13 * e13).is_zero()
    assert e12.bracket(e23) == e13


def test_power_basis_chain():
    u4 = corpus.unitriangular(4, 2)
    dims = [len(u4.power_basis(k)[0]) for k in range(1, 6)]
    assert dims == [6, 3, 1, 0, 0]
    with pytest.raises(ValidationError):
        u4.power_basis(0)


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
    x = c2.basis_vector(0)
    assert (x * x).is_zero()  # (g-1)^2 = g^2 - 2g + 1 = 0 in char 2
    assert c2.nilpotency_class == 2
    assert c2.is_p_nilpotent()


def test_augmentation_ideal_char_must_divide_order():
    with pytest.raises(ValidationError):
        make_augmentation_ideal(corpus.group("C3"), make_field(2))


def test_zero_algebra():
    z = make_zero_algebra(3, make_field(3))
    assert z.nilpotency_class == 2
    for i in range(3):
        for j in range(3):
            assert (z.basis_vector(i) * z.basis_vector(j)).is_zero()
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


def test_vector_arithmetic_sampled():
    alg = corpus.unitriangular(3, 3)
    rng = random.Random(23)
    codes = alg.field.q ** alg.dim
    for _ in range(80):
        u, v, w = (alg.unpack(rng.randrange(codes)) for _ in range(3))
        assert (u + v) * w == u * w + v * w
        assert u * (v + w) == u * v + u * w
        assert (u * v) * w == u * (v * w)
        assert u.bracket(v) == u * v - v * u
        assert (u - u).is_zero()


def test_pack_flat_roundtrip():
    alg = corpus.unitriangular(3, 2, 2)  # F4: e = 2 exercises the prime-basis layout
    rng = random.Random(3)
    codes = alg.field.q ** alg.dim
    for _ in range(40):
        v = alg.unpack(rng.randrange(codes))
        assert alg.unpack(v.pack()) == v
        assert alg.from_flat(v.flat()) == v
    # prime basis enumerates the Z/p-basis omega^m b_i
    n = alg.dim * alg.field.e
    seen = {alg.prime_basis_vector(t).pack() for t in range(n)}
    assert len(seen) == n


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
    big = make_field(3037000493, 1, Budgets(field_q_max=2**32))
    assert make_zero_algebra(1, big).dim == 1
    with pytest.raises(ValidationError):
        make_zero_algebra(2, big)
    with pytest.raises(ValidationError):
        make_zero_algebra(1, make_field(4294967311, 1, Budgets(field_q_max=2**33)))


def test_parser_adds_repeated_targets_mod_p():
    alg = parse_algebra_file("alg 3 1 2\n0 0 1 2\n0 0 1 2\n")
    assert alg.C[0, 0, 1, 0] == 1
    assert (alg.basis_vector(0) * alg.basis_vector(0)) == alg.basis_vector(1)
    # the two lines cancel over F_2: J*J = 0
    assert parse_algebra_file("alg 2 1 2\n0 0 1 1\n0 0 1 1\n").nilpotency_class == 2


def test_refine_to_flag():
    for alg in (corpus.unitriangular(3, 3), corpus.unitriangular(4, 2),
                corpus.augmentation_ideal("D8", 2)):
        flag = alg.refine_to_flag()
        assert [len(rows) for rows, _ in flag] == list(range(alg.dim, -1, -1))


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
    gen = next(x for x in range(4) if g.element_order(x) == 4)
    # basis vectors are (r - 1) over nonidentity r; pick the generator's one
    idx = [x for x in range(g.order) if x != g.identity].index(gen)
    x = alg.basis_vector(idx)
    assert not (x * x).is_zero()
    assert ((x * x) * x * x).is_zero()


def test_unitriangular_needs_n_at_least_two():
    with pytest.raises(ValidationError):
        make_unitriangular(1, make_field(2))


def test_flag_members_are_two_sided_ideals():
    from orbitzeta.linalg import rref_mod_p

    for alg in (corpus.unitriangular(3, 3), corpus.unitriangular(4, 2),
                corpus.augmentation_ideal("D8", 2)):
        basis = [alg.basis_vector(i) for i in range(alg.dim)]
        for rows, piv in alg.refine_to_flag():
            for row in rows:
                v = alg.from_flat(row)
                for b in basis:
                    for prod in (b * v, v * b):
                        ech, ext_piv = rref_mod_p(np.vstack([rows, prod.flat()]), alg.field.p)
                        assert np.array_equal(ech, rows) and ext_piv == piv


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
    codes = alg.field.q ** alg.dim
    # the all-(p-1) pair makes every term of an unreduced contraction ~2^60
    top = alg.from_flat([alg.field.p - 1] * (alg.dim * alg.field.e))
    xs = [top] + [alg.unpack(rng.randrange(codes)) for _ in range(40)]
    ys = [top] + [alg.unpack(rng.randrange(codes)) for _ in range(40)]
    got = alg._mul_rows([x.flat() for x in xs], [y.flat() for y in ys])
    assert [tuple(r) for r in got.tolist()] == [(x * y).flat() for x, y in zip(xs, ys)]


# ------------------------------------------------------------- the parser --

def _reference_parse(text):
    """The per-line parse, one from_code call and one C[i, j, k] update per
    line: C reduced mod p, or the ValidationError of the first bad line."""
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
        C[i, j, k] = (C[i, j, k] + field.from_code(code).coeffs) % field.p
    return C


def _parsed_constants(text, budgets=None):
    """The C that parse_algebra_file hands to NilAlgebra, for any C."""
    with mock.patch.object(nilalg, "NilAlgebra", lambda field, C, name=None: C):
        return parse_algebra_file(text, budgets)


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
    budgets = Budgets(field_q_max=2**64)
    code = 2**63 + 5
    C = _parsed_constants(f"alg 2 64 2\n0 0 1 {code}\n1 0 1 1\n", budgets)
    assert C[0, 0, 1].tolist() == [(code >> m) & 1 for m in range(64)]
    assert C[1, 0, 1].tolist() == [1] + [0] * 63
    # the two lines cancel over F_2: the zero algebra of dimension 1
    alg = parse_algebra_file(f"alg 2 64 1\n0 0 0 {code}\n0 0 0 {code}\n", budgets)
    assert alg.nilpotency_class == 2
    with pytest.raises(ValidationError, match=f"element code {2**64} out of range"):
        parse_algebra_file(f"alg 2 64 1\n0 0 0 {2**64}\n", budgets)


# ------------------------------------------------------ the product checks --

def _first_nonassociative_triple(field, C):
    """The least (i, j, k) with (b_i b_j) b_k != b_i (b_j b_k), by F_q
    arithmetic on C alone."""
    d = len(C)
    c = [[[field.element(C[i, j, k]) for k in range(d)] for j in range(d)] for i in range(d)]

    def product(u, v):
        out = [field.zero] * d
        for s, t in itertools.product(range(d), repeat=2):
            if not (u[s].is_zero() or v[t].is_zero()):
                for k in range(d):
                    out[k] = out[k] + u[s] * v[t] * c[s][t][k]
        return [x.coeffs for x in out]

    basis = [[field.one if s == i else field.zero for s in range(d)] for i in range(d)]
    for i, j, k in itertools.product(range(d), repeat=3):
        left = product([field.element(x) for x in product(basis[i], basis[j])], basis[k])
        right = product(basis[i], [field.element(x) for x in product(basis[j], basis[k])])
        if left != right:
            return i, j, k
    return None


# p = 134217689 = prevprime(2^27): n (p-1)^2 >= 2^53 at n = 3, the int64 route
_BIG = make_field(134217689, 1, Budgets(field_q_max=2**28))


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


def _sampled_reference(alg):
    """The message of the sampled associativity check (d > 64) as one
    vector-matrix product per drawn triple, or None when every draw passes."""
    T, p, e, d = alg.T, alg.field.p, alg.field.e, alg.dim
    rng = random.Random(0xA550C)
    for _ in range(20000):
        i, j, k = (rng.randrange(d) for _ in range(3))
        left = T[i * e, j * e] @ T[:, k * e] % p
        right = T[j * e, k * e] @ T[i * e] % p
        if not np.array_equal(left, right):
            return f"structure constants not associative at basis triple ({i},{j},{k})"
    return None


@pytest.mark.parametrize("base,products,seed", [
    (corpus.unitriangular(13, 2), 1, 0),
    (corpus.unitriangular(13, 2), 40, 1),
    (corpus.unitriangular(13, 2), 400, 2),
    (make_zero_algebra(65, make_field(3)), 80, 3),
    (make_zero_algebra(65, make_field(3)), 400, 4),
], ids=["u13_F2_one", "u13_F2_sparse", "u13_F2_dense", "zero65_F3_sparse", "zero65_F3"])
def test_sampled_associativity_mutation_matches_per_triple_loop(base, products, seed):
    # random extra products b_a b_b += c b_t on an algebra with d > 64 (so
    # e = 1: n = d e <= 128); the grouped products must raise at the first
    # failing draw of the loop
    f, d = base.field, base.dim
    rng = np.random.default_rng(seed)
    C = base.C.copy()
    a, b, t = rng.integers(0, d, (3, products))
    C[a, b, t] = (C[a, b, t] + rng.integers(1, f.p, (products, 1))) % f.p
    mutated = NilAlgebra.__new__(NilAlgebra)
    mutated.field, mutated.dim, mutated.C = f, d, C
    mutated._build_tensor()
    want = _sampled_reference(mutated)
    try:
        NilAlgebra(f, C)
    except ValidationError as exc:
        assert str(exc) == want if want else "not associative" not in str(exc)
    else:
        assert want is None


def _two_sided_chain(alg):
    """J^(k+1) as the span of v * b_t and b_t * v over the rows v of J^k."""
    chain = [alg.powers[0]]
    while len(chain[-1][0]):
        chain.append(rref_mod_p(alg._ideal_products(chain[-1][0]), alg.field.p))
    return chain


@pytest.mark.parametrize("alg", corpus.duality_corpus() + [
    corpus.unitriangular(4, 2, 2), corpus.unitriangular(3, 3, 2),
    corpus.unitriangular(4, 3, 2), corpus.unitriangular(3, 2, 3)], ids=lambda a: a.name)
def test_one_sided_power_chain_matches_two_sided(alg):
    two_sided = _two_sided_chain(alg)
    assert len(alg.powers) == len(two_sided)
    for (rows, piv), (want, want_piv) in zip(alg.powers, two_sided):
        assert np.array_equal(rows, want) and piv == want_piv
