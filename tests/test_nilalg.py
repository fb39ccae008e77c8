import random

import numpy as np
import pytest

from orbitzeta import corpus
from orbitzeta.budgets import Budgets
from orbitzeta.errors import ValidationError
from orbitzeta.ffield import make_field
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
    assert rows == []


def test_derived_lie_subspace_dims():
    for u3 in (corpus.unitriangular(3, 3), corpus.unitriangular(3, 2, 2)):
        rows, _ = u3.derived_lie_subspace()
        assert len(rows) // u3.field.e == 1  # span of e13
    abelian = corpus.augmentation_ideal("C4", 2)
    rows, _ = abelian.derived_lie_subspace()
    assert rows == []
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


def test_subalgebra_closure():
    u4 = corpus.unitriangular(4, 2)
    rows, _ = u4.power_basis(2)
    sub, basis = u4.subalgebra(rows)
    assert sub.dim == 3
    assert sub.nilpotency_class == 2
    # not closed: span of e12 alone in u3 is closed, but e12+e23 squares out
    u3 = corpus.unitriangular(3, 2)
    v = u3.basis_vector(0) + u3.basis_vector(1)
    with pytest.raises(ValidationError):
        u3.subalgebra([v.flat()])
    # F_2 e13 inside u3(F_4) is closed under products but not under F_4 scaling
    with pytest.raises(ValidationError):
        corpus.unitriangular(3, 2, 2).subalgebra([(0, 0, 0, 0, 1, 0)])


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
                        assert rref_mod_p(rows + [prod.flat()], alg.field.p) == (rows, piv)


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
