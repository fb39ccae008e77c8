"""Tests of the benchmark itself: oracle anchors, tracer arithmetic and a
smoke round of every workload.

    python3 -m pytest bench/tests -q
"""

import itertools
import json
import os
import shutil
import sys
import tempfile
from fractions import Fraction

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import inputs  # noqa: E402
import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from orbitzeta import corpus  # noqa: E402


def _ideal_prime_tensor(name, p, seed=0):
    rng = np.random.default_rng(seed)
    table = inputs.relabel(inputs.tabulate(corpus.group(name)), rng)
    return inputs.prime_tensor(inputs.augmentation_tensor(table, p), inputs.GF(p))


def _rank_reference(rows, p):
    rows = [[int(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c] % p:
                f = rows[r][c]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# ----------------------------------------------------------------- oracles --

@pytest.mark.parametrize("p", [2, 3, 5])
def test_batched_rank_matches_reference(p):
    rng = np.random.default_rng(p)
    M = rng.integers(0, p, size=(40, 5, 7))
    M[::3, 2] = M[::3, 0]                     # force some rank drops
    got = oracles.batched_rank_mod_p(M, p)
    assert list(got) == [_rank_reference(m, p) for m in M]


@pytest.mark.parametrize("name", ["D8oC4", "M16"])
def test_ideal_class_count_anchor(name):
    assert oracles.algebra_group_class_count(_ideal_prime_tensor(name, 2), 2) == 3200


@pytest.mark.parametrize("n,p,e", [(3, 2, 1), (3, 3, 1), (3, 2, 2), (3, 5, 1),
                                   (4, 2, 1), (4, 3, 1)])
def test_unitriangular_class_counts(n, p, e):
    field = inputs.GF(p, e)
    C = inputs.change_basis(inputs.unitriangular_tensor(n), field,
                            np.random.default_rng(n * p + e))
    k = oracles.algebra_group_class_count(inputs.prime_tensor(C, field), p)
    assert k == oracles.unitriangular_class_count(n, field.q)


def test_unitriangular_formula_anchors():
    assert [oracles.unitriangular_class_count(3, q) for q in (2, 3, 4)] == [5, 11, 19]
    assert oracles.unitriangular_class_count(4, 2) == 16


def test_class2_groups():
    big = oracles.class2_table(inputs.PAIRS)
    assert oracles.commuting_class_count(big) == 184
    assert oracles.derived_subgroup_order(big) == 64
    for fold in inputs.MATCHINGS:
        small = oracles.class2_table(inputs.PAIRS, fold)
        assert small.shape == (512, 512)
        assert oracles.commuting_class_count(small) == 92
        assert oracles.derived_subgroup_order(small) == 32
        sizes = oracles.class_size_multiset(small)
        assert len(sizes) == 92 and sum(sizes) == 512


def test_commuting_pairs_on_small_groups():
    known = {"C4": 4, "D8": 5, "Q8": 5, "D16": 7, "He27": 11, "M27": 11, "D8oD8": 17}
    rng = np.random.default_rng(1)
    for name, k in known.items():
        table = inputs.relabel(inputs.tabulate(corpus.group(name)), rng)
        assert oracles.commuting_class_count(table) == k, name


def test_derived_dimension_is_class_count_minus_one():
    for name, p in [("D8", 2), ("Q8", 2), ("He27", 3)]:
        table = inputs.relabel(inputs.tabulate(corpus.group(name)), np.random.default_rng(2))
        C = inputs.change_basis(inputs.augmentation_tensor(table, p), inputs.GF(p),
                                np.random.default_rng(3))
        derived = oracles.lie_derived_prime_dim(inputs.prime_tensor(C, inputs.GF(p)), p)
        assert C.shape[0] - derived == oracles.commuting_class_count(table) - 1


def test_column_orthogonality_of_c2_and_a_broken_table():
    # p = 2, zeta = -1: 1 = -zeta is vec [-1], -1 = zeta is vec [1]
    one, minus = {"vec": [-1], "den": 1}, {"vec": [1], "den": 1}
    values = [[one, one], [one, minus]]
    assert oracles.column_orthogonality(values, 0, 2) == 2
    assert oracles.column_orthogonality(values, 1, 2) == 2
    # p = 3: a lone primitive root has |zeta|^2 = 1
    assert oracles.column_orthogonality([[{"vec": [1, 0], "den": 1}]], 0, 3) == 1
    with pytest.raises(ArithmeticError):
        oracles.column_orthogonality([[{"vec": [1, 0], "den": 2}]], 0, 3)


def test_character_table_of_u3_f3_against_centralizers():
    from orbitzeta import cli
    field = inputs.GF(3)
    C = inputs.change_basis(inputs.unitriangular_tensor(3), field, np.random.default_rng(5))
    P = inputs.prime_tensor(C, field)
    with tempfile.TemporaryDirectory() as d:
        path = inputs.write(d, "u3.alg", inputs.algebra_text(C, field))
        assert cli.main(["orbits", "characters", path, "--out", os.path.join(d, "o.json")]) == 0
        with open(os.path.join(d, "o.json")) as fh:
            out = json.load(fh)
    values = [o["values"] for o in out["orbits"]]
    cent = oracles.centralizer_orders(P, 3, out["class_reps"])
    assert out["k"] == 11
    assert [oracles.column_orthogonality(values, c, 3) for c in range(11)] == cent
    broken = json.loads(json.dumps(values))
    broken[1][1]["vec"][0] += 1
    try:
        got = [oracles.column_orthogonality(broken, c, 3) for c in range(11)]
    except ArithmeticError:
        got = None
    assert got != cent


def test_sl2_degrees_and_sparse_convolution():
    for q in (5, 7, 9, 25, 125):
        ms = oracles.sl2_degree_multiset(q)
        assert sum(m for _, m in ms) == q + 4
        assert sum(m * d * d for d, m in ms) == q * (q * q - 1)
    N = 400
    got = oracles.sparse_product_series([(5, 2), (7, 1)], N)
    brute: dict = {}
    degs = {q: oracles.sl2_degree_multiset(q) for q in (5, 7)}
    for (a, ma), (b, mb), (c, mc) in itertools.product(degs[5], degs[5], degs[7]):
        if a * b * c <= N:
            brute[a * b * c] = brute.get(a * b * c, 0) + ma * mb * mc
    assert got == brute
    assert oracles.partial_counts({1: 1, 3: 2, 10: 5}, [1, 2, 3, 9, 10]) == [1, 1, 3, 3, 8]


def test_power_floor():
    assert [oracles.power_floor(n, Fraction(1, 2)) for n in (0, 1, 3, 4, 99, 100)] == \
        [0, 1, 1, 2, 9, 10]
    assert oracles.power_floor(10, Fraction(3, 2)) == 31
    assert oracles.power_floor(7, Fraction(2)) == 49


def test_seeded_inputs_parse_to_the_same_answers():
    from orbitzeta import nilalg
    field = inputs.GF(3, 2)
    texts = set()
    for seed in (1, 2):
        C = inputs.change_basis(inputs.unitriangular_tensor(3), field,
                                np.random.default_rng(seed))
        text = inputs.algebra_text(C, field)
        texts.add(text)
        alg = nilalg.parse_algebra_file(text)
        assert (alg.dim, alg.field.q, alg.nilpotency_class) == (3, 9, 3)
    assert len(texts) == 2


def test_field_tables():
    for p, e in [(2, 2), (3, 2), (5, 1)]:
        f = inputs.GF(p, e)
        assert (f.mul[np.arange(1, f.q), f.inv[1:]] == 1).all()
    assert inputs.least_irreducible(2, 2) == [1, 1, 1]
    assert inputs.least_irreducible(3, 2) == [1, 0, 1]


# ------------------------------------------------------------------ tracer --

def test_self_time_on_nested_spans():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    spans = [("cli.main", 0.0, 10.0, -1), ("nilalg.x", 1.0, 4.0, 0),
             ("linalg.rref_fq", 2.0, 3.0, 1), ("nilalg.x", 5.0, 9.0, 0)]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert tracer.outermost(spans, ["nilalg.x"]) == [1, 3]
    nested = spans + [("nilalg.x", 6.0, 7.0, 3)]
    assert tracer.outermost(nested, ["nilalg.x"]) == [1, 3]
    assert tracer.self_times(nested)[3] == 3.0
    metrics = tracer.layer_metrics(spans, {"ffield.mul_calls": 8}, rounds=2)
    assert metrics["cli.main_self_s"]["value"] == 1.5
    assert metrics["nilalg.self_s"]["value"] == 3.0
    assert metrics["linalg.rref_fq_s"]["value"] == 0.5
    assert metrics["linalg.rref_fq_calls"]["value"] == 0.5
    assert metrics["ffield.mul_calls"]["value"] == 4


def test_tracer_wraps_imported_names_and_restores_them():
    from orbitzeta import cli, coadjoint, linalg, nilalg
    originals = (linalg.rref_fq, nilalg.rref_fq, coadjoint.rref_fq, cli.orbit_census,
                 nilalg.NilAlgebra.__init__)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert nilalg.rref_fq is linalg.rref_fq is coadjoint.rref_fq
        assert nilalg.rref_fq is not originals[0]
        assert cli.orbit_census is coadjoint.orbit_census
        with tempfile.TemporaryDirectory() as d:
            field = inputs.GF(3)
            path = inputs.write(d, "u3.alg", inputs.algebra_text(
                inputs.unitriangular_tensor(3), field))
            assert cli.main(["orbits", "census", path, "--out", os.path.join(d, "o.json")]) == 0
    finally:
        tr.uninstall()
    assert (linalg.rref_fq, nilalg.rref_fq, coadjoint.rref_fq, cli.orbit_census,
            nilalg.NilAlgebra.__init__) == originals
    names = {s[0] for s in tr.spans}
    assert {"cli.main", "cli.cmd_orbits_census", "coadjoint.orbit_census",
            "nilalg.parse_algebra_file", "nilalg.NilAlgebra.__init__",
            "linalg.rref_fq", "algroup.AlgebraGroup.__init__"} <= names
    assert tr.counts["ffield.mul_calls"] > 0
    main = [i for i, s in enumerate(tr.spans) if s[0] == "cli.main"]
    assert len(main) == 1 and tr.spans[main[0]][3] == -1
    assert all(s[3] >= 0 for i, s in enumerate(tr.spans) if i != main[0])


# ------------------------------------------------------------------ runner --

def test_runner_counts_a_raising_check_as_a_wrong_answer():
    from run import Runner

    def no_integer(result):
        oracles.column_orthogonality([[{"vec": [1, 0], "den": 2}]], 0, 3)

    def no_key(result):
        result["k"]

    def exits_nonzero():
        raise workloads.NonZeroExit("exit 2")

    runner = Runner([workloads.Op("cyclotomic", lambda: None, no_integer),
                     workloads.Op("malformed", lambda: {}, no_key),
                     workloads.Op("exit", exits_nonzero, no_key),
                     workloads.Op("fine", lambda: 1, lambda r: None)])
    runner.round()
    assert runner.attempted == 4 and runner.failed == 1
    assert [w.split("\n")[0] for w in runner.wrong] == ["cyclotomic", "malformed"]
    assert "ArithmeticError" in runner.wrong[0] and "KeyError" in runner.wrong[1]


# ------------------------------------------------------------------- smoke --

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_smoke_round(name):
    sys.path.insert(0, BENCH)
    from run import Runner
    directory = tempfile.mkdtemp()
    try:
        data = workloads.PREPARE[name](workloads.Context(7, directory))
        runner = Runner(workloads.OPERATIONS[name](data, directory))
        runner.round()
    finally:
        shutil.rmtree(directory)
    assert runner.attempted == len(runner.ops) > 0
    assert runner.failed == 0
    assert runner.wrong == []
