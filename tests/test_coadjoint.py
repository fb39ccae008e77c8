import math
import random
import tracemalloc

import numpy as np
import pytest

from orbitzeta import coadjoint, corpus
from orbitzeta.algroup import AlgebraGroup, _c_route_inverse, _c_route_law
from orbitzeta.budgets import Budgets, budget_scope
from orbitzeta.coadjoint import (character_table, conjecture_probe, engine_for,
                                 fake_degree_identities, gram_matrix, orbit_census,
                                 orthonormality_check, transitivity_check,
                                 verify_induced_matches_orbit)
from orbitzeta.coadjoint import (_dual_histograms, _induced_histograms, _polarizations,
                                 _shift_grams, _span_points, _subspace_packed_set,
                                 _verify_class_constancy)
from orbitzeta.errors import BudgetError, InternalInconsistencyError, ValidationError
from orbitzeta.ffield import make_field
from orbitzeta.linalg import (base_p_digits, matmul_mod_p, nullspace_mod_p,
                              nullspace_stack_mod_p, reduce_mod_p, rref_mod_p)
from orbitzeta.nilalg import make_unitriangular


# ------------------------------------------------------------- functionals --

def test_dual_functional_and_coadjoint_action():
    # a dual is a digit row lambda, and 1+g acts by lambda -> lambda @ D_g
    # (the dual matrices of conjugation_matrices); seeded lambda, g, h, a on
    # every duality algebra
    rng = random.Random(4)
    for alg in corpus.duality_corpus():
        eng = engine_for(alg)
        p = eng.p
        for _ in range(8):
            lam, g_row, h_row, a = base_p_digits([rng.randrange(eng.N) for _ in range(4)],
                                                 p, eng.n).astype(np.int64)
            gh = eng._gmul_rows(g_row[None], h_row[None])[0]
            D_g, D_h, D_gh = eng.conjugation_matrices(np.stack([g_row, h_row, gh]))[1]
            moved = lam @ D_g % p
            # the action: (lambda D_g) D_h = lambda D_gh
            assert np.array_equal(moved @ D_h % p, lam @ D_gh % p), alg.name
            # the defining property: lambda^g(a) = lambda(a^((1+g)^-1)),
            # with the conjugate from the C route
            g = g_row[None]
            back = _c_route_law(alg, _c_route_law(alg, g, a[None]), _c_route_inverse(alg, g))[0]
            assert moved @ a % p == lam @ back % p, alg.name


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


def _radical_rows(alg, lam):
    """Rad B_lambda from one Gram matrix: the reduced prime echelon rows of its kernel."""
    return nullspace_mod_p(gram_matrix(alg, lam), alg.dim * alg.field.e, alg.field.p)


def _stacked_radicals(alg, lam_rows):
    """(ranks, kernels) of a reference elimination of the stacked Gram matrices
    of gram_matrix: rows [:n - rank] of a kernel are the reduced prime
    echelon rows of Rad B_lambda, the rest 0."""
    grams = np.stack([gram_matrix(alg, lam) for lam in lam_rows])
    return nullspace_stack_mod_p(grams, alg.field.p)


@pytest.mark.parametrize("alg", corpus.duality_corpus(), ids=lambda alg: alg.name)
def test_census_radicals_match_radical_of(alg):
    # the census ranks against the radicals of one stacked elimination of the
    # Gram matrices of its representatives, and those against the one-matrix
    # route at a seeded sample of orbits
    census = orbit_census(alg)
    eng = engine_for(alg)
    p, n = eng.p, eng.n
    ranks, kernels = _stacked_radicals(alg, eng.digit_rows()[census.reps])
    assert np.array_equal(census.ranks, ranks)
    assert np.array_equal(census.sizes, p ** ranks)
    for i in random.Random(alg.name).sample(range(census.count), min(48, census.count)):
        rows = _radical_rows(alg, eng.digit_rows()[census.reps[i]])
        assert p ** (n - len(rows)) == census.sizes[i]
        stacked = kernels[i][:n - census.ranks[i]]
        (ech, piv), (stacked_ech, stacked_piv) = (rref_mod_p(r, p) for r in (rows, stacked))
        assert np.array_equal(ech, stacked_ech) and piv == stacked_piv
        assert stacked.tolist() == ech.tolist()
    if alg.field.e > 1:
        # over F_q with q > p (u_3(F_4) in this corpus), the stacked rows
        # themselves, on every orbit, and each radical F_q-closed
        for rep, rank, stacked in zip(census.reps, census.ranks, kernels):
            rows = _radical_rows(alg, eng.digit_rows()[rep])
            assert n - len(rows) == rank
            assert stacked[:n - rank].tolist() == rows.tolist()
            assert not stacked[n - rank:].any()
            assert alg.is_fq_subspace(rows)


@pytest.mark.parametrize("alg", corpus.duality_corpus() + corpus.character_corpus(),
                         ids=lambda alg: alg.name)
def test_radicals_by_row_match_one_elimination_per_rep(alg):
    # _radicals_by_row eliminates one Gram matrix per distinct restriction to
    # [J, J]_L; the reference eliminates the Gram matrix of every rep, in
    # stacks of 1024, and tests closure by reducing rows @ omega against them
    census = orbit_census(alg)
    eng = engine_for(alg)
    p, n = eng.p, eng.n
    lam_rows = eng.digit_rows()[census.reps]
    ranks, closed = coadjoint._radicals_by_row(alg, lam_rows, alg.derived_lie_subspace()[0])
    for lo in range(0, len(lam_rows), 1024):
        at = slice(lo, lo + 1024)
        # lambda(b_s b_t) for every rep, as gram_matrix forms it
        prods = (alg.T.reshape(n * n, n) @ lam_rows[at].T.astype(np.int64)).T.reshape(-1, n, n)
        ref_ranks, ref_kernels = nullspace_stack_mod_p(prods - prods.transpose(0, 2, 1), p)
        assert np.array_equal(ranks[at], ref_ranks) and np.array_equal(census.ranks[at], ref_ranks)
        assert closed[at].tolist() == [alg.is_fq_subspace(kernel[:n - rank])
                                       for rank, kernel in zip(ref_ranks, ref_kernels)]


def test_radicals_by_row_eliminate_once_per_restriction(monkeypatch):
    # u_5 at p = 1048573: [J, J]_L is spanned by the coordinates 4.. 9, so
    # p^dim C passes 2^63 and the keys are renumbered on the way; duals that
    # differ only off [J, J]_L share one Gram matrix
    alg = corpus.unitriangular(5, 1048573)
    p, n = alg.field.p, 10
    derived = alg.derived_lie_subspace()[0]
    assert p ** len(derived) > 2 ** 63
    rng = np.random.default_rng(5)
    lam_rows = rng.integers(0, p, (8, n))[rng.integers(0, 8, 64)]
    lam_rows[:, :4] = rng.integers(0, p, (64, 4))
    stack, eliminated = coadjoint.nullspace_stack_mod_p, []
    monkeypatch.setattr(coadjoint, "nullspace_stack_mod_p",
                        lambda K, p: eliminated.append(len(K)) or stack(K, p))
    ranks, closed = coadjoint._radicals_by_row(alg, lam_rows, derived)
    assert eliminated == [len(np.unique(lam_rows[:, 4:], axis=0))]
    ref_ranks, _ = stack(np.stack([gram_matrix(alg, lam) for lam in lam_rows]), p)
    assert np.array_equal(ranks, ref_ranks)
    assert closed.all()


def test_commutative_census_reads_no_digits_of_its_representatives(monkeypatch):
    # J commutative: every radical is J, so no dual row is formed; a
    # noncommutative J forms the rows of its representatives once
    calls = []
    digits = coadjoint.base_p_digits
    monkeypatch.setattr(coadjoint, "base_p_digits",
                        lambda codes, p, width: calls.append(len(codes)) or digits(codes, p, width))
    for alg in (corpus.zero_algebra(6, 2), corpus.augmentation_ideal("C9", 3)):
        assert orbit_census(alg).count == alg.field.q ** alg.dim
    assert calls == []
    assert orbit_census(corpus.unitriangular(3, 3)).count == 11
    assert calls == [11]


def test_commutative_census_keeps_no_point_arrays():
    # beyond the cached partition, the census of J = F_2^16 with zero product
    # (N = 2^16, every orbit a point) keeps no N-array: ranks and fake
    # degrees are zero-stride views, and only the fixed point count forms a
    # byte per point
    alg = corpus.zero_algebra(16, 2)
    eng = engine_for(alg)
    eng.dual_orbits(), alg.derived_lie_subspace()
    tracemalloc.start()
    try:
        census = orbit_census(alg)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept <= eng.N // 16 and peak <= eng.N * 2
    assert census.ranks.strides == census.fake_degrees.strides == (0,)
    assert fake_degree_identities(census) == {
        "orbit_count": eng.N, "dual_size": eng.N, "sum_fake_squares": eng.N,
        "group_order": eng.N, "linear_count": eng.N, "fixed_points": eng.N}
    assert census.fake_degree_multiset() == [(1, eng.N)]


def test_census_histograms_form_no_point_array():
    # J = F_2^20 with zero product: N = 2^20 orbits, each a point.  Both
    # histograms read the orbit counts by rank, so they form no N-array
    # (np.unique over sizes would copy and sort 8 MB)
    census = orbit_census(corpus.zero_algebra(20, 2))
    tracemalloc.start()
    try:
        sizes, degrees = census.size_histogram(), census.fake_degree_multiset()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4096
    assert sizes == degrees == [(1, 2 ** 20)]


def test_census_histograms_match_the_point_arrays():
    for alg in corpus.duality_corpus():
        census = orbit_census(alg)
        want = [np.unique(values, return_counts=True)
                for values in (census.sizes, census.fake_degrees)]
        got = census.size_histogram(), census.fake_degree_multiset()
        for (values, counts), pairs in zip(want, got):
            assert pairs == list(zip(values.tolist(), counts.tolist()))


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
    first = part.reps[np.flatnonzero(part.sizes == 4)[0]]
    radicals = coadjoint._radicals_by_row

    def halved(*args):
        ranks, closed = radicals(*args)
        return ranks // 2, closed

    monkeypatch.setattr(coadjoint, "_radicals_by_row", halved)
    with pytest.raises(InternalInconsistencyError,
                       match=rf"orbit size 4 != \|J\|/\|Rad\| = 2 at dual {first}$"):
        orbit_census(alg)
    # sizes 2 = p^1 agree with the halved ranks, which are odd
    monkeypatch.setattr(part, "sizes", np.minimum(part.sizes, 2))
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


def _e13_orbit(census):
    """The orbit of the coordinate functional of e13 on u_3(F_3), basis
    (e12, e23, e13): the dual (0, 0, 1), at code 3^2."""
    return int(census.partition.labels[9])


def test_orbit_size_and_radical_at_e13_dual():
    alg = corpus.unitriangular(3, 3)
    census = orbit_census(alg)
    o = _e13_orbit(census)
    assert census.reps[o] == 9  # the least dual with lambda(e13) = 1
    assert census.sizes[o] == 9
    assert census.fake_degrees[o] == 3
    assert census.ranks[o] == 2
    assert _radical_rows(alg, (0, 0, 1)).tolist() == [[0, 0, 1]]
    # trivial functional: radical is everything, orbit is a point
    assert census.sizes[census.partition.labels[0]] == 1


def test_fixed_points_and_probe():
    alg = corpus.unitriangular(3, 3)
    assert orbit_census(alg).fixed_points == 9
    probe = conjecture_probe(alg)
    assert probe["equal"]
    assert probe["lie_index"] == probe["group_abelianization"] == 9


def test_max_isotropic_subalgebra_dim():
    alg = corpus.unitriangular(3, 3)
    rows, is_pivot = _polarizations(alg, [(0, 0, 1), (0, 0, 0)])
    # dim J - log_q(fake degree): 2 at lambda(e13) != 0, all of J at 0
    assert is_pivot.sum(axis=1).tolist() == [2, 3]
    assert not rows[0, 2:].any()


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
    p, n = eng.p, eng.n
    by_points = alg.name in ("u_3(F_3)", "I_F_3[C3]", "u_4(F_2)")
    lam_rows = eng.digit_rows()[census.reps].astype(np.int64)
    all_rows, is_pivot = _polarizations(alg, lam_rows)
    for o, lam in enumerate(lam_rows):
        rows, piv = all_rows[o, :is_pivot[o].sum()], np.flatnonzero(is_pivot[o]).tolist()
        ech, ech_piv = rref_mod_p(rows, p)
        assert rows.dtype == np.int64
        assert np.array_equal(rows, ech) and piv == ech_piv
        rad = _radical_rows(alg, lam)
        assert len(rad) == n - census.ranks[o]
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
    # degrees: chi(1) equals the fake degree (verified internally, spot it);
    # an integer m is -m (zeta + zeta^2)
    den, vec = table.reduced()
    assert (den[:, 0] == 1).all()
    assert (vec[:, 0] == -np.array(table.fake_degrees)[:, None]).all()
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
    # per cell: sum_r h[r] zeta^r / d = sum_k (h[k] - h[0]) zeta^k / d, one gcd
    table = character_table(alg_factory())
    p = table.alg.field.p
    want = []
    for hist, d in zip(table.H.tolist(), table.fake_degrees):
        for h in hist:
            vec = [x - h[0] for x in h[1:]]
            g = math.gcd(d, *vec)
            want.append((d // g, [x // g for x in vec]))
    den, vec = table.reduced()
    assert den.shape == table.H.shape[:2] and vec.shape == (*den.shape, p - 1)
    assert list(zip(den.ravel().tolist(), vec.reshape(-1, p - 1).tolist())) == want


def test_character_table_budget_counts_orbits_classes_and_p():
    alg = corpus.unitriangular(3, 3)  # 11 orbits, 11 classes, p = 3
    with budget_scope(Budgets(character_table_max=363)):
        assert character_table(alg).k == 11
    with budget_scope(Budgets(character_table_max=362)):
        with pytest.raises(BudgetError, match="character_table_max"):
            character_table(alg)


def test_character_table_needs_p_nilpotence():
    with pytest.raises(ValidationError):
        character_table(corpus.unitriangular(3, 2))


def _is_delta(table, G) -> np.ndarray:
    """Whether <chi_a, chi_b> = sum_t G[t, a, b] zeta^t / (N d_a d_b) is
    delta_ab, per pair: the sum is rational iff G[t] = G[1] for t >= 1, and
    then it is G[0] - G[1] over N d_a d_b."""
    N = table.alg.field.q ** table.alg.dim
    deg = np.array(table.fake_degrees)
    return (G[1:] == G[1]).all(axis=0) & (G[0] - G[1] == np.diag(N * deg * deg))


def test_inner_product_diagonal():
    alg = corpus.augmentation_ideal("C3", 3)
    table = character_table(alg)
    G = _shift_grams(table)
    assert G.shape == (3, table.k, table.k)
    assert _is_delta(table, G).all()
    assert (G[:, 0, 1] == G[0, 0, 1]).all()  # <chi_0, chi_1> = 0


def reference_shift_sums(table, a, b):
    """The shift sums of <chi_a, chi_b> from the histogram rows as polynomials
    in Z[x]/(x^p - 1): acc[t] is the coefficient of x^t in
    sum_c |c| h_ac(x) h_bc(x^-1)."""
    p = table.alg.field.p
    acc = [0] * p
    for w, ha, hb in zip(table.class_sizes, table.H[a].tolist(), table.H[b].tolist()):
        for r in range(p):
            for s in range(p):
                acc[(r - s) % p] += w * ha[r] * hb[s]
    return acc


@pytest.mark.parametrize("alg_factory", [
    lambda: corpus.unitriangular(3, 3),
    lambda: corpus.unitriangular(3, 5),
    lambda: corpus.augmentation_ideal("C3", 3),
])
def test_inner_product_matches_polynomial_reference(alg_factory):
    table = character_table(alg_factory())
    G = _shift_grams(table)
    for a in range(table.k):
        for b in range(table.k):
            assert G[:, a, b].tolist() == reference_shift_sums(table, a, b)
    assert _is_delta(table, G).all()


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


def _int64_shift_grams(table):
    """The Gram matrices of _shift_grams as int64 products: the reference."""
    H = table.H.astype(np.int64)
    left = (H * np.array(table.class_sizes)[:, None]).reshape(len(H), -1)
    return np.stack([left @ np.roll(H, t, axis=2).reshape(len(H), -1).T
                     for t in range(table.alg.field.p)])


def test_shift_grams_match_the_int64_route():
    import dataclasses

    from orbitzeta.coadjoint import _shift_grams

    for alg in corpus.character_corpus():
        table = character_table(alg)
        assert np.array_equal(_shift_grams(table), _int64_shift_grams(table)), alg.name
    # counts scaled by 2^20 put N max|O|^2 = 27 * 81 * 2^40 past 2^53: int64
    table = character_table(corpus.unitriangular(3, 3))
    big = dataclasses.replace(table, H=table.H * 2 ** 20)
    assert np.array_equal(_shift_grams(big), _int64_shift_grams(big))


def test_orthonormality_check_catches_a_raised_count():
    table = character_table(corpus.unitriangular(3, 3))
    table.H[4, 2, 1] += 1
    with pytest.raises(InternalInconsistencyError, match="<chi_"):
        orthonormality_check(table)


def test_induced_check_catches_a_raised_count(monkeypatch):
    alg = corpus.unitriangular(3, 3)
    census = orbit_census(alg)
    table = character_table(alg, census=census)
    honest = coadjoint._induced_histograms

    def raised(*args, **kwargs):
        counts = honest(*args, **kwargs)
        counts[:, 3, 1] += 1
        return counts

    monkeypatch.setattr(coadjoint, "_induced_histograms", raised)
    for o in (0, census.count - 1):
        with pytest.raises(InternalInconsistencyError, match="at class 3"):
            verify_induced_matches_orbit(alg, o, census=census, table=table)


def reference_class_constancy(eng, census, classes, H) -> bool:
    """The member-by-member route: every member of a class with more than one
    member has the (orbit, residue) histogram of that class's column of H."""
    labels = classes.labels
    members = np.flatnonzero(np.asarray(classes.sizes)[labels] > 1)
    columns = H.transpose(1, 0, 2)
    step = max(1, 2 ** 18 // eng.N)
    return all(np.array_equal(_dual_histograms(eng, census.partition, chunk),
                              columns[labels[chunk]])
               for chunk in np.array_split(members, range(step, members.size, step)))


@pytest.mark.parametrize("alg", corpus.character_corpus(), ids=lambda alg: alg.name)
def test_class_constancy_agrees_with_the_member_route(alg):
    census = orbit_census(alg)
    table = character_table(alg, census=census)  # runs _verify_class_constancy
    eng = engine_for(alg)
    assert reference_class_constancy(eng, census, eng.conjugacy_classes(), table.H)


def _u3_f3_check_inputs():
    """(engine, census, classes, H) of u_3(F_3) on an engine of its own, so
    that a test may change its caches."""
    alg = corpus.unitriangular(3, 3)
    census = orbit_census(alg)
    table = character_table(alg, census=census)
    eng = AlgebraGroup(alg)  # its own caches, not the ones the corpus algebra keeps
    return eng, census, eng.conjugacy_classes(), table.H


def test_class_constancy_catches_a_changed_member():
    eng, census, classes, H = _u3_f3_check_inputs()
    # a member of a class of size 3 that is not its representative: giving it
    # the log of the identity changes its histogram on every orbit
    c = next(c for c, size in enumerate(classes.sizes) if size > 1)
    member = next(x for x in np.flatnonzero(classes.labels == c) if x != classes.reps[c])
    eng.log_digit_rows()[member] = 0
    assert not reference_class_constancy(eng, census, classes, H)
    with pytest.raises(InternalInconsistencyError, match="varies inside a class"):
        _verify_class_constancy(eng, census, classes, H)


@pytest.mark.parametrize("change", ["move a fixed dual", "swap two moving duals"])
def test_class_constancy_catches_a_moved_dual_label(change):
    import dataclasses

    eng, census, classes, H = _u3_f3_check_inputs()
    labels = census.partition.labels.copy()
    fixed = int(np.flatnonzero(census.sizes == 1)[0])
    a, b = np.flatnonzero(census.sizes == 9)[:2]
    if change == "move a fixed dual":
        # sigma_g fixes it, so labels stay invariant (b); the orbit counts of H change
        labels[census.reps[fixed]] = a
    else:
        # the orbit counts stay; label invariance (b) fails
        x, y = np.flatnonzero(labels == a)[-1], np.flatnonzero(labels == b)[-1]
        labels[x], labels[y] = b, a
    moved = dataclasses.replace(
        census, partition=dataclasses.replace(census.partition, labels=labels))
    assert not reference_class_constancy(eng, moved, classes, H)
    with pytest.raises(InternalInconsistencyError, match="varies inside a class"):
        _verify_class_constancy(eng, moved, classes, H)


@pytest.mark.parametrize("which", [0, 1])
def test_class_constancy_catches_a_wrong_generator_matrix(which):
    eng, census, classes, H = _u3_f3_check_inputs()
    eng.group_perms(), eng.dual_perms()  # made from the honest matrices
    mats = [half.copy() for half in eng._generator_matrices()]
    # M_g (which = 0) or M_(g^-1) (which = 1) of the first generator swapped
    # for that of the second
    mats[which][0] = mats[which][1]
    eng._gen_mats = tuple(mats)
    with pytest.raises(InternalInconsistencyError, match=r"M_g M_\(g\^-1\) != I at generator 0"):
        _verify_class_constancy(eng, census, classes, H)


def test_class_constancy_catches_an_inequivariant_log():
    # every log row shifted in its first coordinate: log(x^g) = log(x)^g
    # fails at a generator that moves that coordinate
    eng, census, classes, H = _u3_f3_check_inputs()
    logs = eng.log_digit_rows()
    logs[:, 0] = (logs[:, 0] + 1) % eng.p
    with pytest.raises(InternalInconsistencyError, match="not conjugation-equivariant"):
        _verify_class_constancy(eng, census, classes, H)


def reference_polarization(alg, lam):
    """The per-orbit route: one Gram matrix, the kernels of R K R^T over the
    flag, and one elimination of their sum."""
    p, n = alg.field.p, alg.dim * alg.field.e
    K = gram_matrix(alg, lam)
    if not K.any():
        return np.eye(n, dtype=np.int64)
    R = np.stack([np.pad(rows, ((0, n - len(rows)), (0, 0)))
                  for rows, _ in alg.refine_to_flag()[:-1]])
    _, kernels = nullspace_stack_mod_p(
        matmul_mod_p(matmul_mod_p(R, K, p), R.transpose(0, 2, 1), p), p)
    return rref_mod_p(matmul_mod_p(kernels, R, p).reshape(-1, n), p)[0]


def reference_induced_histogram(eng, lam, rows):
    """The per-orbit route: I[c, r] over the packed set of 1+H."""
    p = eng.p
    inside = _subspace_packed_set(eng, rows)
    assert inside.size == p ** len(rows)
    classes = eng.conjugacy_classes()
    residues = eng.log_digit_rows()[inside].astype(np.int64) @ lam % p
    return np.bincount(classes.labels[inside] * p + residues,
                       minlength=classes.count * p).reshape(classes.count, p)


@pytest.mark.parametrize("alg", corpus.character_corpus(), ids=lambda alg: alg.name)
def test_batched_induction_agrees_with_the_per_orbit_route(alg):
    census = orbit_census(alg)
    table = character_table(alg, census=census)
    assert table._induced is None
    assert verify_induced_matches_orbit(alg, 0, census=census, table=table)
    I, dims = table._induced  # made once, for every orbit
    eng = engine_for(alg)
    lam_rows = base_p_digits(census.reps, eng.p, eng.n).astype(np.int64)
    rows, is_pivot = _polarizations(alg, lam_rows)
    assert np.array_equal(dims, is_pivot.sum(axis=1))
    for o, lam in enumerate(lam_rows):
        ref = reference_polarization(alg, lam)
        assert np.array_equal(rows[o, :dims[o]], ref)
        assert not rows[o, dims[o]:].any()
        assert np.array_equal(I[o], reference_induced_histogram(eng, lam, ref))
    for o in range(census.count):
        assert verify_induced_matches_orbit(alg, o, census=census, table=table)
    assert table._induced[0] is I


def _perturb_polarization(monkeypatch, at: int, new_rows) -> None:
    """Make the polarization elimination return new_rows, reduced echelon
    rows, for the dual at index at of its batch."""
    honest = coadjoint.rref_stack_mod_p
    new_rows = np.array(new_rows)

    def perturbed(mats, p):
        ech, ranks, is_pivot = honest(mats, p)
        ech[at], is_pivot[at] = 0, False
        ech[at, :len(new_rows)] = new_rows
        is_pivot[at, np.argmax(new_rows != 0, axis=1)] = True
        return ech, ranks, is_pivot

    monkeypatch.setattr(coadjoint, "rref_stack_mod_p", perturbed)


# u_3(F_3), prime basis (e12, e23, e13): the orbit of the zero dual has H = J,
# and the orbits with lambda(e13) != 0 have H of dim 2
@pytest.mark.parametrize("pick,new_rows,message", [
    ("zero", [(1, 0, 0), (0, 1, 0)], "of dual {} is not a subalgebra"),
    ("zero", [(1, 0, 0), (0, 0, 1)], "of dual {} has dim 2, expected 3"),
    ("e13", [(1, 0, 0), (0, 1, 0), (0, 0, 1)], "of dual {} is not isotropic"),
])
def test_induction_catches_one_perturbed_polarization_in_the_batch(monkeypatch, pick,
                                                                  new_rows, message):
    alg = corpus.unitriangular(3, 3)
    census = orbit_census(alg)
    table = character_table(alg, census=census)
    at = 0 if pick == "zero" else _e13_orbit(census)
    _perturb_polarization(monkeypatch, at, new_rows)
    # verifying any other orbit runs the whole batch and names the perturbed dual
    other = census.count - 1 if at != census.count - 1 else 0
    with pytest.raises(InternalInconsistencyError, match=message.format(at)):
        verify_induced_matches_orbit(alg, other, census=census, table=table)
    assert table._induced is None


def test_orbit_method_character_row():
    alg = corpus.unitriangular(3, 3)
    census = orbit_census(alg)
    table = character_table(alg, census=census)
    den, vec = table.reduced()
    o = _e13_orbit(census)
    # chi(1) = 3 = -3 (zeta + zeta^2)
    assert den[o, 0] == 1 and vec[o, 0].tolist() == [-3, -3]
    assert den.shape == (census.count, len(table.class_reps)) == (11, 11)


def _series_log(alg, Y):
    """log(1+y) = y - y^2/2 + y^3/3 - ... row-wise, every power of y from
    the structure constants C (NilAlgebra._fq_products); needs J^p = 0."""
    p = alg.field.p
    acc, term = Y % p, Y
    for k in range(2, alg.nilpotency_class):
        term = alg._fq_products(term, Y).reshape(Y.shape)
        acc = (acc + (-1) ** (k + 1) * pow(k, -1, p) * term) % p
    return acc


def naive_induced(alg, lam_digits):
    """Independent oracle: Ind psi(g) = |H|^{-1} sum_{x in G} psi0(x g x^{-1}),
    as counts[c, r] = #{x in G : x g x^{-1} in 1+H, lambda(log) = r} for g
    the rep of class c, the conjugates and their logs by the C route."""
    eng = AlgebraGroup(alg)
    p = eng.p
    rows, is_pivot = _polarizations(alg, [lam_digits])
    rows = rows[0, :is_pivot[0].sum()]
    hset = np.array(sorted(int(x) for x in _subspace_packed_set(eng, rows)))
    lamv = np.array(lam_digits, dtype=np.int64)
    X = eng.digit_rows().astype(np.int64)
    inv = _c_route_inverse(alg, X)
    out = []
    for crep in eng.conjugacy_classes().reps:
        g = np.tile(X[int(crep)], (eng.N, 1))
        Y = _c_route_law(alg, _c_route_law(alg, X, g), inv)
        Y = Y[np.isin(eng.pack_digits(Y), hset)]
        out.append(np.bincount(_series_log(alg, Y) @ lamv % p, minlength=p))
    return np.array(out)


@pytest.mark.parametrize("alg_factory,lam", [
    (lambda: corpus.unitriangular(3, 3), (0, 0, 1)),
    (lambda: corpus.unitriangular(3, 3), (1, 1, 1)),
    (lambda: corpus.augmentation_ideal("C3", 3), (1, 0)),
])
def test_induced_against_naive_oracle(alg_factory, lam):
    # each class member is x g x^{-1} for N / |c| elements x: counts = N I / |c|
    alg = alg_factory()
    eng = engine_for(alg)
    lam_rows = np.array([lam])
    I = _induced_histograms(eng, lam_rows, *_polarizations(alg, lam_rows))[0]
    sizes = np.array(eng.conjugacy_classes().sizes)[:, None]
    assert np.array_equal(naive_induced(alg, lam) * sizes, eng.N * I)


def test_census_budget():
    with budget_scope(Budgets(group_enumeration_max=8)):
        with pytest.raises(BudgetError, match="group_enumeration_max"):
            orbit_census(corpus.unitriangular(3, 3))


def test_census_after_a_refused_census_checks_the_new_budgets():
    # a fresh algebra: the next call must not inherit the refused call's budgets
    alg = make_unitriangular(3, make_field(3))
    with budget_scope(Budgets(group_enumeration_max=8)):
        with pytest.raises(BudgetError, match="group_enumeration_max"):
            orbit_census(alg)
    assert orbit_census(alg).count == 11


def test_engine_for_checks_budgets_on_a_cached_engine():
    alg = corpus.unitriangular(3, 3)
    engine_for(alg)  # cached on alg under the default budgets
    with budget_scope(Budgets(group_enumeration_max=4)):
        with pytest.raises(BudgetError, match="group_enumeration_max"):
            character_table(alg)
    assert character_table(alg).k == 11


def test_radical_closure_check_needs_omega_invariance(monkeypatch):
    # u_3(F_4), prime basis (e12, w e12, e23, w e23, e13, w e13): at a dual
    # with lambda(e13) != 0, H has prime dim 4.  The span of e12, e23, e13
    # and w e13 has that dim and is closed over F_2, not over F_4
    alg = corpus.unitriangular(3, 2, 2)
    lam = np.array([[0, 0, 0, 0, 1, 0], [1, 0, 0, 0, 1, 0]])
    rows, is_pivot = _polarizations(alg, lam)
    assert is_pivot.sum(axis=1).tolist() == [4, 4]
    assert all(alg.is_fq_subspace(r[:4]) for r in rows)
    _perturb_polarization(monkeypatch, 1, np.eye(6, dtype=np.int64)[[0, 2, 4, 5]])
    assert not alg.is_fq_subspace(np.eye(6, dtype=np.int64)[[0, 2, 4, 5]])
    with pytest.raises(InternalInconsistencyError, match="polarization of dual 1 is not F_q-closed"):
        _polarizations(alg, lam)
