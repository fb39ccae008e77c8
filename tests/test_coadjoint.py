import random
import tracemalloc
from collections.abc import Sequence
from fractions import Fraction

import numpy as np
import pytest

from orbitzeta import coadjoint, corpus
from orbitzeta.algroup import AlgebraGroup, ginv, gmul, glog
from orbitzeta.budgets import Budgets
from orbitzeta.coadjoint import (CyclotomicValue, DualFunctional, OrbitRecord,
                                 character_table, coadjoint_act,
                                 conjecture_probe, engine_for, fake_degree,
                                 fake_degree_identities,
                                 induced_character_values, inner_product,
                                 max_isotropic_subalgebra, orbit_census,
                                 orbit_method_character, orbit_size,
                                 orthonormality_check, radical, radical_of,
                                 transitivity_check,
                                 verify_induced_matches_orbit)
from orbitzeta.coadjoint import _span_points, _subspace_packed_set
from orbitzeta.errors import BudgetError, InternalInconsistencyError, ValidationError
from orbitzeta.linalg import reduce_mod_p, rref_mod_p


# ------------------------------------------------------ cyclotomic values --

def test_cyclotomic_roots_sum_to_zero():
    for p in (2, 3, 5, 7):
        assert CyclotomicValue.from_histogram(p, [1] * p).is_zero()


def test_cyclotomic_arithmetic():
    p = 5
    z = CyclotomicValue.from_histogram(p, [0, 1, 0, 0, 0])
    one = CyclotomicValue.from_int(p, 1)
    assert CyclotomicValue.from_histogram(p, [1, 0, 0, 0, 0]) == one
    assert CyclotomicValue.from_histogram(p, [2, 2, 2, 2, 2]).is_zero()
    assert one.as_rational() == Fraction(1)
    assert z.as_rational() is None
    # normalization: the sign moves to the coordinates and common factors cancel
    assert CyclotomicValue(p, (6, 6, 6, 6), -8) == CyclotomicValue(p, (-3, -3, -3, -3), 4)
    assert CyclotomicValue(p, (-3, -3, -3, -3), 4).as_rational() == Fraction(3, 4)
    assert CyclotomicValue.from_histogram(p, [4, 0, 0, 0, 0], 4) == one


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


# k(U_n(F_q)) from the literature: 1, 2, 5, 16, 61, 275 over F_2 for n = 1..6
# (n = 1 is the trivial group; J = 0 is not a NilAlgebra), and the
# Vera-Lopez-Arregi polynomials k(U_4(F_q)) = 2q^3 + q^2 - 2q and
# k(U_5(F_q)) = 5q^4 - 5q^2 + 1, see Pak and Soffer, arXiv:1507.00411
@pytest.mark.parametrize("n,q,k", [(2, 2, 2), (3, 2, 5), (4, 2, 16), (5, 2, 61), (6, 2, 275),
                                   (5, 3, 361), (4, 5, 265)])
def test_unitriangular_class_counts_match_literature(n, q, k):
    if n == 5:
        assert k == 5 * q**4 - 5 * q**2 + 1
    if n == 4:
        assert k == 2 * q**3 + q**2 - 2 * q
    alg = corpus.unitriangular(n, q)
    assert engine_for(alg).k() == k
    assert orbit_census(alg).count == k


def test_census_abelian():
    census = orbit_census(corpus.augmentation_ideal("C3", 3))
    assert census.count == 9
    assert census.fake_degree_multiset() == [(1, 9)]
    assert census.fixed_points == 9
    zero = orbit_census(corpus.zero_algebra(3, 2))
    assert zero.count == 8
    assert zero.fixed_points == 8


def test_census_records_build_one_record_per_read():
    census = orbit_census(corpus.zero_algebra(16, 2))
    tracemalloc.start()
    try:
        records = census.records
        first = records[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one record of 16 rows, not a list of 2^16 records
    assert peak < 2 ** 16
    assert isinstance(records, Sequence) and len(records) == census.count == 2 ** 16
    eye = tuple(map(tuple, np.eye(16, dtype=np.int64).tolist()))
    assert first == OrbitRecord(rep=0, size=1, fake_degree=1, radical_prime_rows=eye)
    assert records[-1].rep == 2 ** 16 - 1
    with pytest.raises(IndexError):
        records[2 ** 16]


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
        (ech, piv), (rec_ech, rec_piv) = (rref_mod_p(r, p) for r in (rows, rec.radical_prime_rows))
        assert np.array_equal(ech, rec_ech) and piv == rec_piv
        assert list(rec.radical_prime_rows) == list(map(tuple, ech.tolist()))
    if alg.field.e > 1:
        # over F_q with q > p (u_3(F_4) in this corpus), the stacked rows
        # themselves, on every orbit
        n = eng.n
        assert census.radical_rows.shape == (census.count, n, n)
        for rep, rank, stacked in zip(census.reps, census.ranks, census.radical_rows):
            r, rows = radical_of(alg, eng.digit_rows()[rep])
            assert r == rank
            assert stacked[:n - rank].tolist() == [list(row) for row in rows]
            assert not stacked[n - rank:].any()


def test_census_checks_radicals_are_fq_closed(monkeypatch):
    alg = corpus.unitriangular(3, 2, 2)  # prime basis (e12, w e12, e23, w e23, e13, w e13)
    alg.derived_lie_subspace()
    # a stand-in for omega that sends e13 to e12 leaves no radical of a
    # degree-2 orbit closed, since those radicals are spanned by e13, w e13
    monkeypatch.setattr(alg, "omega", np.roll(np.eye(6, dtype=np.int64), 2, axis=1))
    with pytest.raises(InternalInconsistencyError, match="radical at dual .* F_q-closed"):
        orbit_census(alg)


def test_census_checks_sizes_and_ranks_name_the_dual(monkeypatch):
    alg = corpus.unitriangular(3, 2)  # orbit sizes 1 and 4: ranks 0 and 2
    part = engine_for(alg).dual_orbits()
    first = part.reps[part.sizes.index(4)]
    radicals = coadjoint._radicals_by_row

    def halved(*args):
        ranks, rows, closed = radicals(*args)
        return ranks // 2, rows, closed

    monkeypatch.setattr(coadjoint, "_radicals_by_row", halved)
    with pytest.raises(InternalInconsistencyError,
                       match=rf"orbit size 4 != \|J\|/\|Rad\| = 2 at dual {first}$"):
        orbit_census(alg)
    # sizes 2 = p^1 agree with the halved ranks, which are odd
    monkeypatch.setattr(part, "sizes", [min(s, 2) for s in part.sizes])
    with pytest.raises(InternalInconsistencyError,
                       match=rf"orbit size 2 is not an even power of q at dual {first}$"):
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
    assert rows[0].tolist() == [0, 0, 1]
    # trivial functional: radical is everything, orbit is a point
    assert orbit_size(alg, (0, 0, 0)) == 1


def test_fixed_points_and_probe():
    alg = corpus.unitriangular(3, 3)
    assert orbit_census(alg).fixed_points == 9
    probe = conjecture_probe(alg)
    assert probe["equal"]
    assert probe["lie_index"] == probe["group_abelianization"] == 9


def test_max_isotropic_subalgebra_dim():
    alg = corpus.unitriangular(3, 3)
    rows, _ = max_isotropic_subalgebra(alg, (0, 0, 1))
    assert len(rows) == 2  # dim J - log_q(fake degree)
    rows0, _ = max_isotropic_subalgebra(alg, (0, 0, 0))
    assert len(rows0) == 3


# the flags of u_5(F_2) and I_F2[D8] have 10 and 7 nonzero members; u_4(F_4)
# has e = 2; on the three smallest, H is checked point by point
@pytest.mark.parametrize("alg", corpus.character_corpus() + [
    corpus.unitriangular(5, 2), corpus.unitriangular(4, 2, 2), corpus.unitriangular(4, 2),
    corpus.augmentation_ideal("D8", 2), corpus.unitriangular(4, 3)],
    ids=lambda alg: alg.name)
def test_max_isotropic_subalgebra_rows_are_reduced(alg):
    # H is one elimination of the sum of the flag radicals: its rows are
    # their own echelon form, and it holds Rad B_lambda, the V = J term
    census = orbit_census(alg)
    eng = engine_for(alg)
    p, n, digits = eng.p, eng.n, eng.digit_rows()
    by_points = alg.name in ("u_3(F_3)", "I_F_3[C3]", "u_4(F_2)")
    for o, rep in enumerate(census.reps):
        lam = digits[rep].astype(np.int64)
        rows, piv = max_isotropic_subalgebra(alg, lam)
        ech, ech_piv = rref_mod_p(rows, p)
        assert rows.dtype == np.int64
        assert np.array_equal(rows, ech) and piv == ech_piv
        rad = census.radical_rows[o][:n - census.ranks[o]]
        assert not reduce_mod_p(rows, piv, rad, p).any()
        if by_points:
            # every pair x, y of points of H: lambda(xy - yx) = 0 and xy in H
            points = _span_points(rows, p)
            prods = alg._products_of(points, points)
            assert not ((prods - prods.transpose(1, 0, 2)) @ lam % p).any()
            assert np.isin(prods.reshape(-1, n) @ eng.powers,
                           _subspace_packed_set(eng, rows)).all()


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


def test_transitivity_check_acts_by_all_of_one_plus_h():
    # on I_F2[D8oC4] the elements 1 + (echelon rows of H) can generate a
    # proper subgroup of 1+H: at orbit 96, 1024 of its 8192 elements
    alg = corpus.augmentation_ideal("D8oC4", 2)
    census = orbit_census(alg)
    for o in [96] + random.Random(0xD8C4).sample(range(census.count), 8):
        assert transitivity_check(alg, o, census=census)


@pytest.mark.parametrize("alg", corpus.character_corpus(), ids=lambda alg: alg.name)
def test_transitivity_check_on_the_character_corpus(alg):
    census = orbit_census(alg)
    for o in range(census.count):
        assert transitivity_check(alg, o, census=census)


@pytest.mark.parametrize("alg_factory", [
    lambda: corpus.unitriangular(3, 3),
    lambda: corpus.unitriangular(3, 5),
    lambda: corpus.zero_algebra(2, 3, 2),
    lambda: corpus.augmentation_ideal("C3", 3),
])
def test_reduced_values_match_the_histogram_route(alg_factory):
    table = character_table(alg_factory())
    p = table.alg.field.p
    want = [[CyclotomicValue.from_histogram(p, h, d) for h in hist]
            for hist, d in zip(table.H.tolist(), table.fake_degrees)]
    den, vec = table.reduced()
    assert den.shape == table.H.shape[:2] and vec.shape == (*den.shape, p - 1)
    assert [[(v.denom, list(v.vec)) for v in row] for row in want] == \
        [list(zip(drow, vrow)) for drow, vrow in zip(den.tolist(), vec.tolist())]
    assert table.values == want
    assert [table.row(o) for o in range(table.k)] == want


def test_character_table_budget_counts_orbits_classes_and_p():
    alg = corpus.unitriangular(3, 3)  # 11 orbits, 11 classes, p = 3
    assert character_table(alg, Budgets(character_table_max=363)).k == 11
    with pytest.raises(BudgetError, match="character_table_max"):
        character_table(alg, Budgets(character_table_max=362))


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


def reference_inner_product(table, a, b):
    """<chi_a, chi_b> from the histogram rows as polynomials in Z[x]/(x^p - 1):
    sum_c |c| h_ac(x) h_bc(x^-1), read in Q(zeta) through 1 + zeta + .. = 0."""
    p = table.alg.field.p
    N = table.alg.field.q ** table.alg.dim
    acc = [0] * p
    for w, ha, hb in zip(table.class_sizes, table.H[a].tolist(), table.H[b].tolist()):
        for r in range(p):
            for s in range(p):
                acc[(r - s) % p] += w * ha[r] * hb[s]
    return CyclotomicValue(p, [acc[t] - acc[0] for t in range(1, p)],
                           N * table.fake_degrees[a] * table.fake_degrees[b])


@pytest.mark.parametrize("alg_factory", [
    lambda: corpus.unitriangular(3, 3),
    lambda: corpus.unitriangular(3, 5),
    lambda: corpus.augmentation_ideal("C3", 3),
])
def test_inner_product_matches_polynomial_reference(alg_factory):
    table = character_table(alg_factory())
    one = CyclotomicValue.from_int(table.alg.field.p, 1)
    zero = CyclotomicValue.from_int(table.alg.field.p, 0)
    for a in range(table.k):
        for b in range(table.k):
            got = inner_product(table, a, b)
            assert got == reference_inner_product(table, a, b)
            assert got == (one if a == b else zero)


def test_shift_grams_switch_to_exact_integers_past_int64():
    import dataclasses

    from orbitzeta.coadjoint import _shift_grams

    table = character_table(corpus.unitriangular(3, 3))
    small = _shift_grams(table)
    assert small.dtype == np.int64
    # counts scaled by 2^30 put N max|O|^2 = 27 * 81 * 2^60 past 2^63
    big = _shift_grams(dataclasses.replace(table, H=table.H * 2 ** 30))
    assert big.dtype == object
    assert (big == small.astype(object) * 2 ** 60).all()
    assert int(big.max()) >= 2 ** 63


def test_orthonormality_check_catches_a_raised_count():
    table = character_table(corpus.unitriangular(3, 3))
    table.H[4, 2, 1] += 1
    with pytest.raises(InternalInconsistencyError, match="<chi_"):
        orthonormality_check(table)


def test_induced_check_catches_a_raised_count(monkeypatch):
    import orbitzeta.coadjoint as coadjoint

    alg = corpus.unitriangular(3, 3)
    census = orbit_census(alg)
    table = character_table(alg, census=census)
    honest = coadjoint._induced_histogram

    def raised(*args, **kwargs):
        counts, rows = honest(*args, **kwargs)
        counts[3, 1] += 1
        return counts, rows

    monkeypatch.setattr(coadjoint, "_induced_histogram", raised)
    for o in (0, census.count - 1):
        with pytest.raises(InternalInconsistencyError, match="at class 3"):
            verify_induced_matches_orbit(alg, o, census=census, table=table)


def test_class_constancy_catches_a_changed_member():
    from orbitzeta.coadjoint import _verify_class_constancy

    alg = corpus.unitriangular(3, 3)
    census = orbit_census(alg)
    table = character_table(alg, census=census)
    eng = AlgebraGroup(alg)  # its own log cache, not the one the corpus algebra keeps
    classes = eng.conjugacy_classes()
    # a member of a class of size 3 that is not its representative: giving it
    # the log of the identity changes its histogram on every orbit
    c = next(c for c, size in enumerate(classes.sizes) if size > 1)
    member = next(x for x in np.flatnonzero(classes.labels == c) if x != classes.reps[c])
    eng.log_digit_rows()[member] = 0
    with pytest.raises(InternalInconsistencyError, match="varies inside a class"):
        _verify_class_constancy(eng, census, classes, table.H)


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
        out.append(CyclotomicValue.from_histogram(p, counts, len(hset)))
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


def test_engine_for_checks_budgets_on_a_cached_engine():
    alg = corpus.unitriangular(3, 3)
    engine_for(alg)  # cached on alg under the default budgets
    with pytest.raises(BudgetError, match="group_enumeration_max"):
        character_table(alg, Budgets(group_enumeration_max=4))
    assert character_table(alg).k == 11


def test_radical_closure_check_needs_omega_invariance():
    from orbitzeta.coadjoint import _require_fq_closed

    alg = corpus.unitriangular(3, 2, 2)  # prime basis (e12, w e12, e23, w e23, e13, w e13)
    _require_fq_closed(alg, np.array([(0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)]), "F_4 e13")
    with pytest.raises(InternalInconsistencyError):
        _require_fq_closed(alg, np.array([(0, 0, 0, 0, 1, 0)]), "F_2 e13")
