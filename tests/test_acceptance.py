"""Release gate: the ten headline identities at full corpus scale.

Each test covers one criterion, checks it exactly (no tolerances unless the
criterion itself is an estimate), and prints a single [PASS]/[FAIL] line
with the elapsed time against the stated budget.  Run with -s to see the
lines as they happen.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from orbitzeta import corpus
from orbitzeta.algroup import AlgebraGroup
from orbitzeta.bogomod import build_mq, invariant_factors, mq_order, verify_filtration
from orbitzeta.coadjoint import (character_table, engine_for, fake_degree_identities,
                                 gram_matrix, orbit_census, orthonormality_check,
                                 verify_induced_matches_orbit)
from orbitzeta.ffield import is_prime
from orbitzeta.linalg import base_p_digits, nullspace_stack_mod_p
from orbitzeta.zetalab import (LieTypeSpec, abscissa_estimate, l_of_n,
                               prg_witness, prime_power_decompose,
                               product_series, sl2_degrees,
                               synthetic_power_series, target_abscissa_spec)


@contextmanager
def gate(num: int, label: str, budget_s: float):
    t0 = time.monotonic()
    try:
        yield
    except Exception:
        print(f"[FAIL] {num:02d} {label} ({time.monotonic() - t0:.1f}s)")
        raise
    elapsed = time.monotonic() - t0
    verdict = "PASS" if elapsed < budget_s else "FAIL"
    print(f"[{verdict}] {num:02d} {label} ({elapsed:.1f}s, budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"{label}: {elapsed:.1f}s over the {budget_s:.0f}s budget"


def _is_q_power(n: int, q: int) -> bool:
    while n % q == 0:
        n //= q
    return n == 1


# Censuses are shared across criteria 1 and 2; both stay inside their own
# budgets even on a cold cache.
_CENSUS = {}


def _census(alg):
    if alg.name not in _CENSUS:
        _CENSUS[alg.name] = orbit_census(alg)
    return _CENSUS[alg.name]


def test_01_orbit_count_equals_class_count():
    with gate(1, "coadjoint orbit count = k(1+J) across the corpus", 60):
        algs = corpus.duality_corpus()
        names = {alg.name for alg in algs}
        assert {"u_3(F_2)", "u_3(F_3)", "u_3(F_4)", "u_4(F_2)",
                "I_F_3[C3]", "I_F_3[C9]"} <= names
        assert sum(1 for n in names if n.startswith("I_F_2[")) >= 14
        for alg in algs:
            assert alg.field.q ** alg.dim <= 2 ** 16
            assert _census(alg).count == engine_for(alg).k(), alg.name


def test_02_fake_degree_identities():
    with gate(2, "fake-degree identities on every orbit", 60):
        for alg in corpus.duality_corpus():
            census = _census(alg)
            q = alg.field.q
            p, e = alg.field.p, alg.field.e
            ident = fake_degree_identities(census)
            assert ident["sum_fake_squares"] == ident["group_order"], alg.name
            assert ident["dual_size"] == ident["group_order"], alg.name
            # the prime dimension of each radical, from a reference elimination
            # of the stacked Gram matrices of the representatives
            lam_rows = base_p_digits(census.reps, p, e * alg.dim)
            ranks, _ = nullspace_stack_mod_p(
                np.stack([gram_matrix(alg, lam) for lam in lam_rows]), p)
            rad_dims = e * alg.dim - ranks
            for rep, size, fake, rad_dim in zip(census.reps.tolist(), census.sizes.tolist(),
                                                census.fake_degrees.tolist(), rad_dims.tolist()):
                assert _is_q_power(fake, q), (alg.name, fake)
                # orbit size = |J| / |Rad B_lambda|
                assert size * p ** rad_dim == p ** (e * alg.dim), (alg.name, rep)


def test_03_orbit_method_characters():
    with gate(3, "orbit-method characters match induced characters", 300):
        algs = corpus.character_corpus()
        names = {alg.name for alg in algs}
        assert {"u_3(F_3)", "u_3(F_5)", "u_3(F_9)", "I_F_3[C3]"} <= names
        for alg in algs:
            assert alg.is_p_nilpotent(), alg.name
            assert alg.field.q ** alg.dim <= 2 ** 12
            census = orbit_census(alg)
            table = character_table(alg, census=census)
            assert orthonormality_check(table)
            assert table.k == engine_for(alg).k(), alg.name
            identity_idx = list(table.class_reps).index(0)
            # chi_i(1) = d_i: the integer d is -d (zeta + .. + zeta^(p-1))
            den, vec = table.reduced()
            for i in range(table.k):
                assert table.fake_degrees[i] == census.fake_degrees[i]
                assert den[i, identity_idx] == 1
                assert (vec[i, identity_idx] == -table.fake_degrees[i]).all()
                assert verify_induced_matches_orbit(alg, i, census=census,
                                                    table=table), (alg.name, i)


def test_04_abelianization_law():
    with gate(4, "dim I/[I,I] = k-1 and |(1+I)_ab| = p^(k-1)", 600):
        dim_corpus = corpus.abelianization_dim_corpus()
        assert len(dim_corpus) >= 20
        for name, p in dim_corpus:
            g = corpus.group(name)
            assert g.order <= 32 and g.order % p == 0
            alg = corpus.augmentation_ideal(name, p)
            derived_rows, _ = alg.derived_lie_subspace()
            assert alg.dim - len(derived_rows) == g.k() - 1, (name, p)
        for name, p in corpus.abelianization_closure_corpus():
            g = corpus.group(name)
            assert g.order <= 16
            eng = AlgebraGroup(corpus.augmentation_ideal(name, p))
            assert eng.abelianization_order() == p ** (g.k() - 1), (name, p)


def test_05_class_count_doubles_in_central_extension():
    with gate(5, "k(order-1024 group) = 2 k(its central quotient)", 300):
        big = corpus.group("g1024")
        small = corpus.group("g512")
        assert (big.order, small.order) == (1024, 512)
        k_big, k_small = big.k(), small.k()
        assert (k_big, k_small) == (184, 92)
        assert k_big == 2 * k_small


def test_06_mq_size_law():
    with gate(6, "|M_q| = q^(k-1) with matching filtration layers", 120):
        assert invariant_factors(build_mq(corpus.group("C2"), 2, 1)) == [2]
        assert invariant_factors(build_mq(corpus.group("C4"), 2, 1)) == [2, 4]
        cases = corpus.mq_corpus()
        assert ("g128", 2) in cases
        for name, p in cases:
            g = corpus.group(name)
            kk = g.k()
            for e in (1, 2):
                pres = build_mq(g, p, e)
                assert mq_order(pres) == (p ** e) ** (kk - 1), (name, p, e)
                filt = verify_filtration(pres, g, invariant_factors(pres))
                assert filt["ok"], (name, p, e)


def test_07_sl2_degree_data():
    with gate(7, "SL2(F_q) degree count and sum of squares, q <= 1000", 10):
        qs = []
        for q in range(5, 1001, 2):
            pp = prime_power_decompose(q)
            if pp and is_prime(pp[0]):
                qs.append(q)
        assert len(qs) > 150
        for q in qs:
            ms = sl2_degrees(q)
            assert ms.count() == q + 4
            assert ms.sum_degree_squares() == q * (q * q - 1)


def test_08_abscissa_estimates():
    with gate(8, "tower abscissa near 1; synthetic exponents recovered", 300):
        tower = corpus.zeta_products()["sl2_tower_5"]
        N = 10 ** 6
        # every factor with representations below the cutoff is present
        assert l_of_n(tower, N) == 9
        series = product_series(tower, N)
        est = abscissa_estimate(series)
        assert 0.85 <= est.estimate <= 1.15, est.estimate
        for c in (Fraction(1, 2), Fraction(1), Fraction(2)):
            synth = synthetic_power_series(c, 10 ** 5)
            got = abscissa_estimate(synth).estimate
            assert abs(got - float(c)) <= 0.05, (c, got)


def test_09_target_abscissa_partial_sums():
    with gate(9, "target-abscissa spec converges/diverges on cue", 60):
        b2 = LieTypeSpec.type_b(2)  # k*h = 8, so khc > 2 for all three targets
        for c in (Fraction(1, 2), Fraction(1), Fraction(2)):
            ts = target_abscissa_spec(c, b2, 2, imax=400)
            above = ts.akov_partial_sums(float(c) + 0.1)[-1][1]
            below = ts.akov_partial_sums(float(c) - 0.1)[-1][1]
            assert above < 10 ** 3, (c, above)
            assert below > 10 ** 6, (c, below)


def test_10_prg_witness():
    with gate(10, "R_(n^2) >= l(n)(l(n)-1)/2 on every bundled product", 60):
        products = corpus.zeta_products()
        assert len(products) >= 5
        for name, spec in products.items():
            series = product_series(spec, 400)
            for n in (2, 4, 8, 16):
                assert prg_witness(series, spec, n), (name, n)
