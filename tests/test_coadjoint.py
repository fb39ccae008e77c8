import random
from fractions import Fraction

import numpy as np
import pytest

from orbitzeta import corpus
from orbitzeta.algroup import AlgebraGroup, ginv, gmul, glog
from orbitzeta.budgets import Budgets
from orbitzeta.coadjoint import (CyclotomicValue, DualFunctional,
                                 character_table, coadjoint_act,
                                 conjecture_probe, fake_degree,
                                 fake_degree_identities, fixed_point_count,
                                 induced_character_values, inner_product,
                                 max_isotropic_subalgebra, orbit_census,
                                 orbit_method_character, orbit_size,
                                 orthonormality_check, radical, radical_of,
                                 transitivity_check,
                                 verify_induced_matches_orbit)
from orbitzeta.errors import BudgetError, InternalInconsistencyError, ValidationError
from orbitzeta.linalg import rref_mod_p


# ------------------------------------------------------ cyclotomic values --

def test_cyclotomic_roots_sum_to_zero():
    for p in (2, 3, 5, 7):
        acc = CyclotomicValue.from_int(p, 0)
        for k in range(p):
            acc = acc + CyclotomicValue.root_power(p, k)
        assert acc.is_zero()


def test_cyclotomic_arithmetic():
    p = 5
    z = CyclotomicValue.root_power(p, 1)
    one = CyclotomicValue.from_int(p, 1)
    assert CyclotomicValue.root_power(p, 0) == one
    # zeta * zeta^4 = 1
    assert z * CyclotomicValue.root_power(p, 4) == one
    # conjugation inverts the root
    assert z.conjugate() == CyclotomicValue.root_power(p, p - 1)
    # |zeta|^2 = 1
    assert z * z.conjugate() == one
    assert (z - z).is_zero()
    assert one.as_rational() == Fraction(1)
    assert z.as_rational() is None
    assert CyclotomicValue.from_rational(p, Fraction(3, 4)).scale(4) == \
        CyclotomicValue.from_int(p, 3)


def test_cyclotomic_histogram():
    # counts of residues (2, 1, 1) at p = 3: 2 + zeta + zeta^2 = 1
    v = CyclotomicValue.from_histogram(3, [2, 1, 1])
    assert v == CyclotomicValue.from_int(3, 1)
    assert v.as_rational() == Fraction(1)


# ------------------------------------------------------------- functionals --

def test_dual_functional_and_coadjoint_action():
    alg = corpus.unitriangular(3, 3)
    lam = DualFunctional(alg, (1, 2, 1))
    rng = random.Random(4)
    codes = alg.field.q ** alg.dim
    for _ in range(30):
        g = alg.unpack(rng.randrange(codes))
        h = alg.unpack(rng.randrange(codes))
        lhs = coadjoint_act(coadjoint_act(lam, g), h)
        rhs = coadjoint_act(lam, gmul(g, h))
        assert lhs == rhs
    # the defining property: lam^g(a) = lam(a^{(1+g)^{-1}})
    for _ in range(20):
        g = alg.unpack(rng.randrange(codes))
        a = alg.unpack(rng.randrange(codes))
        moved = coadjoint_act(lam, g)
        back = gmul(gmul(g, a), ginv(g))
        assert moved(a) == lam(back)


def test_dual_functional_validation():
    alg = corpus.unitriangular(3, 3)
    with pytest.raises(ValidationError):
        DualFunctional(alg, (1, 2))


# ---------------------------------------------------------------- censuses --

def test_census_u3_f2():
    census = orbit_census(corpus.unitriangular(3, 2))
    assert census.count == 5
    assert census.fake_degree_multiset() == [(1, 4), (2, 1)]
    assert census.fixed_points == 4


def test_census_u3_f3():
    census = orbit_census(corpus.unitriangular(3, 3))
    assert census.count == 11
    assert census.fake_degree_multiset() == [(1, 9), (3, 2)]
    assert census.fixed_points == 9


def test_census_u3_f4():
    census = orbit_census(corpus.unitriangular(3, 2, 2))
    assert census.count == 19
    assert census.fake_degree_multiset() == [(1, 16), (4, 3)]
    assert census.fixed_points == 16


def test_census_abelian():
    census = orbit_census(corpus.augmentation_ideal("C3", 3))
    assert census.count == 9
    assert census.fake_degree_multiset() == [(1, 9)]
    assert census.fixed_points == 9
    zero = orbit_census(corpus.zero_algebra(3, 2))
    assert zero.count == 8
    assert zero.fixed_points == 8


@pytest.mark.parametrize("alg", corpus.duality_corpus(), ids=lambda alg: alg.name)
def test_census_radicals_match_radical_of(alg):
    # the census finds every radical in one batched elimination; compare
    # ranks and spans with the one-matrix route at a seeded sample of reps
    census = orbit_census(alg)
    eng = AlgebraGroup(alg)
    p = alg.field.p
    records = random.Random(alg.name).sample(census.records, min(48, census.count))
    for rec in records:
        rank, rows = radical_of(alg, eng.digit_rows()[rec.rep])
        assert p ** rank == rec.size
        assert rref_mod_p(rows, p) == rref_mod_p(rec.radical_prime_rows, p)
        assert list(rec.radical_prime_rows) == rref_mod_p(rows, p)[0]


def test_census_checks_radicals_are_fq_closed(monkeypatch):
    alg = corpus.unitriangular(3, 2, 2)  # prime basis (e12, w e12, e23, w e23, e13, w e13)
    alg.derived_lie_subspace()
    # a stand-in for omega that sends e13 to e12 leaves no radical of a
    # degree-2 orbit closed, since those radicals are spanned by e13, w e13
    monkeypatch.setattr(alg, "omega", np.roll(np.eye(6, dtype=np.int64), 2, axis=1))
    with pytest.raises(InternalInconsistencyError, match="radical at dual .* F_q-closed"):
        orbit_census(alg)


def test_fake_degree_identities_aggregate():
    for alg in (corpus.unitriangular(3, 3), corpus.unitriangular(4, 2)):
        census = orbit_census(alg)
        ident = fake_degree_identities(census)
        assert ident["dual_size"] == ident["group_order"]
        assert ident["sum_fake_squares"] == ident["group_order"]
        assert ident["orbit_count"] == census.count
        q = alg.field.q
        for fd, _ in census.fake_degree_multiset():
            # every fake degree is a power of q
            while fd % q == 0:
                fd //= q
            assert fd == 1


def test_orbit_size_and_radical_at_e13_dual():
    # basis of u3 is (e12, e23, e13); take the coordinate functional of e13
    alg = corpus.unitriangular(3, 3)
    lam = (0, 0, 1)
    assert orbit_size(alg, lam) == 9
    assert fake_degree(alg, lam) == 3
    rows = radical(alg, lam)
    assert len(rows) // alg.field.e == 1
    assert rows[0] == (0, 0, 1)
    # trivial functional: radical is everything, orbit is a point
    assert orbit_size(alg, (0, 0, 0)) == 1


def test_fixed_points_and_probe():
    alg = corpus.unitriangular(3, 3)
    assert fixed_point_count(alg) == 9
    probe = conjecture_probe(alg)
    assert probe["equal"]
    assert probe["lie_index"] == probe["group_abelianization"] == 9


def test_max_isotropic_subalgebra_dim():
    alg = corpus.unitriangular(3, 3)
    rows, _ = max_isotropic_subalgebra(alg, (0, 0, 1))
    assert len(rows) == 2  # dim J - log_q(fake degree)
    rows0, _ = max_isotropic_subalgebra(alg, (0, 0, 0))
    assert len(rows0) == 3


# -------------------------------------------------------------- characters --

def test_character_table_u3_f3():
    alg = corpus.unitriangular(3, 3)
    census = orbit_census(alg)
    table = character_table(alg, census=census)
    assert table.k == 11
    assert sorted(table.fake_degrees) == [1] * 9 + [3, 3]
    assert orthonormality_check(table)
    # degrees: chi(1) equals the fake degree (verified internally, spot it)
    for o in range(table.k):
        assert table.row(o)[0] == CyclotomicValue.from_int(3, table.fake_degrees[o])
    # second orthogonality at the identity column: sum d^2 = |G|
    assert sum(d * d for d in table.fake_degrees) == 27
    for o in range(table.k):
        assert verify_induced_matches_orbit(alg, o, census=census, table=table)
        assert transitivity_check(alg, o, census=census)


def test_character_table_needs_p_nilpotence():
    with pytest.raises(ValidationError):
        character_table(corpus.unitriangular(3, 2))


def test_inner_product_diagonal():
    alg = corpus.augmentation_ideal("C3", 3)
    table = character_table(alg)
    one = CyclotomicValue.from_int(3, 1)
    zero = CyclotomicValue.from_int(3, 0)
    for a in range(table.k):
        assert inner_product(table, a, a) == one
    assert inner_product(table, 0, 1) == zero


def test_orbit_method_character_row():
    alg = corpus.unitriangular(3, 3)
    reps, values = orbit_method_character(alg, (0, 0, 1))
    assert values[0] == CyclotomicValue.from_int(3, 3)
    assert len(values) == len(reps) == 11


def naive_induced(alg, lam_digits):
    """Independent oracle: Ind psi(g) = |H|^{-1} sum_{x in G} psi0(x g x^{-1})."""
    eng = AlgebraGroup(alg)
    p = eng.p
    rows, _ = max_isotropic_subalgebra(alg, lam_digits)
    from orbitzeta.coadjoint import _subspace_packed_set

    hset = set(int(x) for x in _subspace_packed_set(eng, rows))
    lamv = np.array(lam_digits, dtype=np.int64)
    els = [alg.unpack(c) for c in range(eng.N)]
    classes = eng.conjugacy_classes()
    out = []
    for crep in classes.reps:
        g = els[int(crep)]
        counts = [0] * p
        for x in els:
            y = gmul(gmul(x, g), ginv(x))
            if y.pack() in hset:
                r = int(lamv @ np.array(glog(y).flat(), dtype=np.int64)) % p
                counts[r] += 1
        val = CyclotomicValue.from_histogram(p, counts).scale(1, len(hset))
        out.append(val)
    return out


@pytest.mark.parametrize("alg_factory,lam", [
    (lambda: corpus.unitriangular(3, 3), (0, 0, 1)),
    (lambda: corpus.unitriangular(3, 3), (1, 1, 1)),
    (lambda: corpus.augmentation_ideal("C3", 3), (1, 0)),
])
def test_induced_against_naive_oracle(alg_factory, lam):
    alg = alg_factory()
    fast, _ = induced_character_values(alg, lam)
    slow = naive_induced(alg, lam)
    assert fast == slow


def test_census_budget():
    with pytest.raises(BudgetError):
        orbit_census(corpus.unitriangular(3, 3),
                     budgets=Budgets(dual_census_max=8))


def test_radical_closure_check_needs_omega_invariance():
    from orbitzeta.coadjoint import _require_fq_closed

    alg = corpus.unitriangular(3, 2, 2)  # prime basis (e12, w e12, e23, w e23, e13, w e13)
    _require_fq_closed(alg, [(0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)], "F_4 e13")
    with pytest.raises(InternalInconsistencyError):
        _require_fq_closed(alg, [(0, 0, 0, 0, 1, 0)], "F_2 e13")
