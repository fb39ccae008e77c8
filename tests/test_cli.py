import hashlib
import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import orbitzeta
from orbitzeta import bogomod, corpus
from orbitzeta.budgets import DEFAULT_BUDGETS, Budgets, current_budgets
from orbitzeta.coadjoint import character_table, orbit_census
from orbitzeta.cli import COMMANDS, _decimal_digits, _dumps, build_parser, main
from orbitzeta.errors import InternalInconsistencyError, ToolError
from orbitzeta.grouptab import parse_group_file, serialize_cayley
from orbitzeta.nilalg import parse_algebra_file, serialize_algebra
from orbitzeta.zetalab import (A1, TruncatedDirichlet, dirichlet_product, sl2_degrees,
                               target_abscissa_spec)


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return rc, payload, captured.err


@pytest.fixture
def group_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.grp"
        path.write_text(serialize_cayley(corpus.group(name)), encoding="utf-8")
        return str(path)
    return write


@pytest.fixture
def algebra_file(tmp_path):
    def write(alg):
        path = tmp_path / f"{alg.name or 'alg'}.nil"
        path.write_text(serialize_algebra(alg), encoding="utf-8")
        return str(path)
    return write


@pytest.fixture
def a1_spec(tmp_path):
    def write(entries, name="spec.json"):
        data = [{"type": {"label": "A1", "rank": 1, "pos_roots": 1, "coxeter": 2},
                 "q": q, "mult": m} for q, m in entries]
        path = tmp_path / name
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)
    return write


# ------------------------------------------------------------------ zeta --

def test_zeta_sl2_payload(capsys):
    rc, payload, _ = run(capsys, ["zeta", "sl2", "5"])
    assert rc == 0
    assert payload["q"] == 5
    assert payload["count"] == 9
    assert payload["sum_degree_squares"] == 120
    assert payload["degrees"] == [[1, 1], [2, 2], [3, 2], [4, 2], [5, 1], [6, 1]]


def test_zeta_sl2_rejects_even_q(capsys):
    rc, payload, err = run(capsys, ["zeta", "sl2", "4"])
    assert rc == 2
    assert payload is None
    assert "error:" in err


def test_zeta_product_payload(capsys, a1_spec, tmp_path):
    csv = tmp_path / "series.csv"
    rc, payload, _ = run(capsys, ["zeta", "product", a1_spec([(5, 1)]),
                                  "--N", "100", "--emit-plot-data", str(csv)])
    assert rc == 0
    assert payload["N"] == 100
    assert payload["mode"] == "exact"
    assert payload["exact"] is True
    assert payload["checkpoints"][-1] == [100, 9]  # all 9 SL2(F_5) degrees <= 6
    lines = csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n,R_n"
    assert all(len(line.split(",")) == 2 for line in lines[1:])


def test_zeta_product_akov_flag(capsys, a1_spec):
    rc, payload, _ = run(capsys, ["zeta", "product", a1_spec([(5, 1)]),
                                  "--N", "100", "--mode", "akov"])
    assert rc == 0
    assert payload["exact"] is False


def test_zeta_abscissa_payload(capsys, a1_spec, tmp_path):
    csv = tmp_path / "path.csv"
    rc, payload, _ = run(capsys, ["zeta", "abscissa", a1_spec([(5, 1), (25, 1)]),
                                  "--N", "2000", "--emit-plot-data", str(csv)])
    assert rc == 0
    assert 0 < payload["estimate"] < 1.5
    assert payload["tail_max"] >= payload["estimate"] - 1e-12
    assert isinstance(payload["ls_slope"], float)
    assert all(len(row) == 3 for row in payload["checkpoints"])
    assert payload["checkpoints"][-1][0] == 2000
    lines = csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n,R_n,log_ratio"


@pytest.mark.parametrize("content", [
    "not json at all",
    '{"type": "A1"}',                                    # not a list
    '[{"q": 5, "mult": 1}]',                             # missing type
    '[{"type": {"rank": 1}, "q": 5, "mult": 1}]',        # incomplete type
])
def test_zeta_spec_file_errors(capsys, tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_text(content, encoding="utf-8")
    rc, _, err = run(capsys, ["zeta", "product", str(path), "--N", "50"])
    assert rc == 2
    assert "error:" in err


def test_zeta_target_payload(capsys):
    rc, payload, _ = run(capsys, ["zeta", "target", "--c", "1", "--type", "B2",
                                  "--p", "2", "--imax", "100"])
    assert rc == 0
    assert payload["c"] == "1"
    assert payload["type"] == "B2"
    assert payload["n0"] >= 1
    assert len(payload["entries"]) == 100
    assert payload["partial_sum_above"][1] < 10 ** 3
    assert payload["partial_sum_below"][1] > 10 ** 6


def test_zeta_target_accepts_fractions(capsys):
    rc, payload, _ = run(capsys, ["zeta", "target", "--c", "1/2", "--type", "B2",
                                  "--p", "3", "--imax", "40"])
    assert rc == 0
    assert payload["c"] == "1/2"


def test_zeta_target_counts_digits_past_the_str_limit(capsys, tmp_path):
    # 5^6500 has 4544 digits, past the 4300-digit int-to-str default
    plot = tmp_path / "target.csv"
    rc, payload, _ = run(capsys, ["zeta", "target", "--c", "3/2", "--p", "5",
                                  "--imax", "13000", "--emit-plot-data", str(plot)])
    assert rc == 0
    spec = target_abscissa_spec(Fraction(3, 2), A1, 5, imax=13000)
    i, a, f = spec.entries[-1]
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert payload["entries"][-1] == [i, a, len(str(f))] == [13000, 19500, 4544]
    finally:
        sys.set_int_max_str_digits(old_limit)
    assert plot.read_text(encoding="utf-8").splitlines()[-1] == "13000,19500,4544"


def test_decimal_digits_matches_str():
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for n in [1, 9, 10, 11, 99, 100, 10 ** 17 - 1, 10 ** 17, 2 ** 64,
                  10 ** 22 - 1, 10 ** 22, 10 ** 22 + 1, 10 ** 300 - 1, 10 ** 300 + 1,
                  10 ** 5000 - 1, 10 ** 5000, 7 ** 9000, 5 ** 30000, 2 ** 50000 - 1]:
            assert _decimal_digits(n) == len(str(n))
    finally:
        sys.set_int_max_str_digits(old_limit)


@pytest.mark.parametrize("argv", [
    ["zeta", "target", "--c", "abc", "--type", "B2", "--p", "2"],
    ["zeta", "target", "--c", "1", "--type", "X3", "--p", "2"],
    ["zeta", "target", "--c", "1", "--type", "A", "--p", "2"],
    ["zeta", "target", "--c", "1", "--type", "B2", "--p", "6"],
])
def test_zeta_target_bad_inputs(capsys, argv):
    rc, _, err = run(capsys, argv)
    assert rc == 2
    assert "error:" in err


# ------------------------------------------------------- algebra commands --

def test_grouptab_classes_payload(capsys, group_file):
    rc, payload, _ = run(capsys, ["grouptab", "classes", group_file("D8")])
    assert rc == 0
    assert payload == {"order": 8, "k": 5, "class_sizes": [1, 1, 2, 2, 2],
                       "derived_order": 2}


def test_missing_file_exits_2(capsys):
    rc, _, err = run(capsys, ["grouptab", "classes", "/nonexistent/file.grp"])
    assert rc == 2
    assert "error:" in err


def test_nilalg_info_payload(capsys, algebra_file):
    rc, payload, _ = run(capsys, ["nilalg", "info", algebra_file(corpus.unitriangular(3, 2))])
    assert rc == 0
    assert payload == {"dim": 3, "class": 3, "derived_dim": 1, "p_nilpotent": False}


def test_algroup_payload(capsys, algebra_file):
    rc, payload, _ = run(capsys, ["algroup", "classes", algebra_file(corpus.unitriangular(3, 2))])
    assert rc == 0
    assert payload == {"group_order": 8, "k": 5, "abelianization_order": 4}


def test_orbits_census_payload(capsys, algebra_file):
    rc, payload, _ = run(capsys, ["orbits", "census", algebra_file(corpus.unitriangular(3, 2))])
    assert rc == 0
    assert payload["group_order"] == 8
    assert payload["orbit_count"] == 5
    assert payload["sizes_histogram"] == {"1": 4, "4": 1}
    assert payload["fake_degrees"] == [[1, 4], [2, 1]]
    assert payload["fixed_points"] == 4
    ident = payload["identities"]
    assert ident["dual_size"] == ident["group_order"] == ident["sum_fake_squares"] == 8
    assert ident["orbit_count"] == 5


def test_orbits_characters_payload(capsys, algebra_file):
    alg = corpus.augmentation_ideal("C3", 3)
    rc, payload, _ = run(capsys, ["orbits", "characters", algebra_file(alg)])
    assert rc == 0
    assert payload["k"] == 9
    assert sum(payload["class_sizes"]) == 9
    assert len(payload["orbits"]) == 9
    for row in payload["orbits"]:
        assert row["degree"] >= 1
        assert len(row["values"]) == 9
        for val in row["values"]:
            assert isinstance(val["den"], int)
            assert all(isinstance(x, int) for x in val["vec"])


@pytest.mark.parametrize("alg_factory", [
    lambda: corpus.unitriangular(3, 3),
    lambda: corpus.unitriangular(3, 5),
    lambda: corpus.zero_algebra(2, 3, 2),
])
def test_orbits_characters_matches_the_per_value_route(capsys, algebra_file, alg_factory):
    path = algebra_file(alg_factory())
    rc = main(["orbits", "characters", path])
    text = capsys.readouterr().out
    assert rc == 0
    with open(path, encoding="utf-8") as fh:
        table = character_table(parse_algebra_file(fh.read()))
    rows = _reference_rows(table)
    payload = json.loads(text)
    for i, orbit in enumerate(payload["orbits"]):
        for c, cell in enumerate(orbit["values"]):
            assert cell == rows[i][c], (i, c)
    want = {
        "k": table.k,
        "class_reps": table.class_reps.tolist(),
        "class_sizes": table.class_sizes.tolist(),
        "orbits": [{"rep": rep, "degree": degree, "values": values}
                   for rep, degree, values in zip(table.orbit_reps.tolist(),
                                                  table.fake_degrees.tolist(), rows)],
    }
    assert text == _canonical(want)


def test_orbits_characters_budget_exits_3_quickly(tmp_path):
    # an abelian group of order 211: H would hold 211^3 entries
    path = tmp_path / "c211.nil"
    path.write_text("alg 211 1 1\n", encoding="utf-8")
    t0 = time.monotonic()
    proc = _cli_subprocess(["orbits", "characters", str(path)])
    assert time.monotonic() - t0 < 5
    assert proc.returncode == 3
    assert "character_table_max" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_orbits_probe_payload(capsys, algebra_file):
    rc, payload, _ = run(capsys, ["orbits", "probe", algebra_file(corpus.unitriangular(3, 3))])
    assert rc == 0
    assert payload["lie_index"] == 9
    assert payload["group_abelianization"] == 9
    assert payload["equal"] is True
    assert payload["dim"] == 3


def test_mq_compute_payload(capsys, group_file):
    rc, payload, _ = run(capsys, ["mq", "compute", group_file("C4"), "--p", "2"])
    assert rc == 0
    assert payload["k"] == 4
    assert payload["q"] == 2
    assert payload["invariant_factors"] == [2, 4]
    assert payload["order"] == 8
    assert payload["order_equals_q_pow_km1"] is True
    assert payload["layers_ok"] is True


@pytest.mark.parametrize("name,p,e", [("C4", 2, 1), ("D8", 2, 2), ("M27", 3, 2)])
def test_mq_compute_takes_one_smith_form(capsys, group_file, name, p, e):
    # invariant factors, order and filtration layers all come from one
    # Smith form of the relation matrix
    path = group_file(name)
    with mock.patch.object(bogomod, "smith_valuations_mod_pv",
                           wraps=bogomod.smith_valuations_mod_pv) as smith:
        rc, payload, _ = run(capsys, ["mq", "compute", path, "--p", str(p), "--e", str(e)])
    assert rc == 0 and payload["layers_ok"] and payload["order_equals_q_pow_km1"]
    assert smith.call_count == 1


def test_mq_wrong_prime_exits_2(capsys, group_file):
    rc, _, err = run(capsys, ["mq", "compute", group_file("C4"), "--p", "3"])
    assert rc == 2
    assert "error:" in err


# --------------------------------------------------------------- budgets --

def test_budget_payload(capsys):
    rc, payload, _ = run(capsys, ["budget"])
    assert rc == 0
    assert payload["table_order_max"] == 4096
    assert payload["series_cutoff_max"] == 10 ** 6


def test_budget_set_override(capsys):
    rc, payload, _ = run(capsys, ["budget", "--set", "table_order_max=99"])
    assert rc == 0
    assert payload["table_order_max"] == 99


def test_budget_config_file(capsys, tmp_path):
    cfg = tmp_path / "budgets.cfg"
    cfg.write_text("# limits\nfield_q_max = 64\n", encoding="utf-8")
    rc, payload, _ = run(capsys, ["budget", "--budget-config", str(cfg)])
    assert rc == 0
    assert payload["field_q_max"] == 64


@pytest.mark.parametrize("setting", ["nonsense", "no_such_key=5", "field_q_max=x",
                                     "field_q_max=0", "closure_max=5",
                                     "collection_steps_max=5", "dual_census_max=1",
                                     "pc_generators_max=1"])
def test_budget_bad_setting_exits_2(capsys, setting):
    rc, _, err = run(capsys, ["budget", "--set", setting])
    assert rc == 2
    assert "error:" in err


def test_budget_violation_exits_3(capsys, algebra_file):
    path = algebra_file(corpus.unitriangular(3, 2))
    rc, _, err = run(capsys, ["orbits", "census", path, "--set", "group_enumeration_max=4"])
    assert rc == 3
    assert "error:" in err


def test_raised_field_budget_reaches_the_field(capsys, tmp_path):
    # q = 1048583 is past the default field_q_max of 2^20
    path = tmp_path / "big_q.nil"
    path.write_text("alg 1048583 1 1\n", encoding="utf-8")
    rc, _, err = run(capsys, ["nilalg", "info", str(path)])
    assert rc == 3 and "field_q_max" in err
    rc, payload, _ = run(capsys, ["nilalg", "info", str(path),
                                  "--set", "field_q_max=2000000"])
    assert rc == 0
    assert payload["dim"] == 1


def test_raised_field_budget_reaches_every_field_of_mq(capsys, group_file):
    # q = 2^21 is past the default field_q_max of 2^20; the lifted modulus
    # and the Frobenius matrix build F_q under the raised limit as well
    argv = ["mq", "compute", group_file("C4"), "--p", "2", "--e", "21"]
    rc, _, err = run(capsys, argv)
    assert rc == 3 and "field_q_max" in err and "1048576" in err
    rc, payload, _ = run(capsys, argv + ["--set", "field_q_max=4194304"])
    assert rc == 0
    assert payload["order"] == 2 ** 63 == payload["q"] ** (payload["k"] - 1)


@pytest.mark.parametrize("setting,code", [("group_enumeration_max=8", 3),
                                          ("group_enumeration_max=x", 2)])
def test_budgets_of_a_failed_run_do_not_reach_the_library(capsys, algebra_file,
                                                          setting, code):
    alg = corpus.unitriangular(3, 3)  # |1+J| = 27
    rc, _, _ = run(capsys, ["orbits", "census", algebra_file(alg), "--set", setting])
    assert rc == code
    assert current_budgets() is DEFAULT_BUDGETS
    assert orbit_census(alg).count == 11


def test_internal_inconsistency_exits_4(capsys, monkeypatch):
    def boom(q):
        raise InternalInconsistencyError("forced for the exit code test")
    monkeypatch.setattr("orbitzeta.cli.sl2_degrees", boom)
    rc, _, err = run(capsys, ["zeta", "sl2", "5"])
    assert rc == 4
    assert "error:" in err


# ------------------------------------------------------- output plumbing --

def test_out_redirects_payload(capsys, tmp_path):
    out = tmp_path / "payload.json"
    rc = main(["zeta", "sl2", "5", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == ""
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["count"] == 9


def test_manifest_records_inputs(capsys, tmp_path, a1_spec):
    spec = a1_spec([(5, 1)])
    manifest_path = tmp_path / "run.json"
    argv = ["zeta", "product", spec, "--N", "50", "--manifest", str(manifest_path)]
    rc, _, _ = run(capsys, argv)
    assert rc == 0
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    assert manifest["command"] == argv
    assert manifest["version"] == "0.1.0"
    assert manifest["budgets"]["series_cutoff_max"] == 10 ** 6
    with open(spec, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert manifest["inputs"][spec] == digest
    assert manifest["timing_ms"] >= 0


@pytest.mark.parametrize("argv", [
    ["budget", "--out", "{path}"],
    ["budget", "--manifest", "{path}"],
    ["zeta", "product", "{spec}", "--N", "50", "--emit-plot-data", "{path}"],
    ["zeta", "abscissa", "{spec}", "--N", "50", "--emit-plot-data", "{path}"],
    ["zeta", "target", "--c", "1", "--type", "B2", "--p", "2", "--imax", "5",
     "--emit-plot-data", "{path}"],
    ["export", "--target", "{path}", "--format", "csv"],
], ids=lambda argv: "-".join(a for a in argv[:2] if not a.startswith("{")))
def test_unwritable_output_path_exits_2(capsys, tmp_path, a1_spec, argv):
    # a path below a regular file cannot be created, whoever runs the test
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    path = str(blocker / "out" / "x.json")
    argv = [a.format(path=path, spec=a1_spec([(5, 1)])) for a in argv]
    rc, _, err = run(capsys, argv)
    assert rc == 2
    assert err.startswith("error: cannot write ")
    assert "Traceback" not in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "0.1.0" in capsys.readouterr().out


# ---------------------------------------------------------- verify/export --

def test_verify_corpus_only_zeta(capsys):
    rc, payload, err = run(capsys, ["verify-corpus", "--only", "zeta"])
    assert rc == 0
    assert payload["ok"] is True
    assert [s["name"] for s in payload["suites"]] == ["zeta"]
    assert "suite zeta" in err


def test_verify_corpus_only_fields(capsys):
    rc, payload, _ = run(capsys, ["verify-corpus", "--only", "fields"])
    assert rc == 0
    assert payload["suites"][0]["detail"]["fields"][0] == "F2"


def test_verify_corpus_unknown_suite(capsys):
    rc, _, err = run(capsys, ["verify-corpus", "--only", "bogus"])
    assert rc == 2
    assert "error:" in err


def test_verify_corpus_extra_algebra(capsys, algebra_file):
    path = algebra_file(corpus.unitriangular(3, 2))
    rc, payload, _ = run(capsys, ["verify-corpus", "--only", "algebras",
                                  "--extra-algebra", path])
    assert rc == 0
    assert payload["ok"] is True


def test_verify_corpus_checks_every_extra_file_of_one_shape(capsys, algebra_file):
    # u_3(F_2) and I_F2[C4] both parse as d = 3 over F_2; each is named by its path
    paths = [algebra_file(corpus.unitriangular(3, 2)),
             algebra_file(corpus.augmentation_ideal("C4", 2))]
    rc, payload, _ = run(capsys, ["verify-corpus", "--only", "algebras",
                                  "--extra-algebra", paths[0], "--extra-algebra", paths[1]])
    assert rc == 0
    names = payload["suites"][0]["detail"]["algebras"]
    assert names[-2:] == paths
    rc, plain, _ = run(capsys, ["verify-corpus", "--only", "algebras"])
    assert names[:-2] == plain["suites"][0]["detail"]["algebras"]


def test_verify_corpus_algebras_compares_batched_and_scalar_gmul(capsys, monkeypatch):
    # a group law through T that drops the xy term is still associative;
    # only the C route can notice
    def additive(self, X, Y):
        return (X + Y) % self.p
    monkeypatch.setattr("orbitzeta.algroup.AlgebraGroup._gmul_rows", additive)
    rc, _, err = run(capsys, ["verify-corpus", "--only", "algebras"])
    assert rc == 4
    assert "the group law through T disagrees with the C route" in err


def test_export_json(capsys, tmp_path):
    target = tmp_path / "outdir"
    rc, payload, _ = run(capsys, ["export", "--target", str(target), "--format", "json"])
    assert rc == 0
    assert set(payload["written"]) == {"census_u3_F3.json", "characters_u3_F3.json",
                                       "mq_corpus.json"}
    census = json.loads((target / "census_u3_F3.json").read_text(encoding="utf-8"))
    assert len(census["orbits"]) == 11
    mq = json.loads((target / "mq_corpus.json").read_text(encoding="utf-8"))
    assert all("invariant_factors" in row for row in mq)


def _reduced_json(h, d):
    """{"vec", "den"} of sum_r h[r] zeta^r / d = sum_k (h[k] - h[0]) zeta^k / d
    in lowest terms: one gcd over the integers."""
    vec = [x - h[0] for x in h[1:]]
    g = math.gcd(d, *vec)
    return {"vec": [x // g for x in vec], "den": d // g}


def _reference_rows(table):
    """values[orbit][class] by the per-value route: one gcd reduction and one
    dict per cell, from the histogram H."""
    return [[_reduced_json(h, d) for h in hist]
            for hist, d in zip(table.H.tolist(), table.fake_degrees.tolist())]


def _canonical(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_export_json_matches_the_per_value_route(capsys, tmp_path):
    target = tmp_path / "outdir"
    rc, _, _ = run(capsys, ["export", "--target", str(target), "--format", "json"])
    assert rc == 0
    alg = corpus.unitriangular(3, 3)
    table = character_table(alg)
    want = {"algebra": alg.name, "class_reps": table.class_reps.tolist(),
            "values": _reference_rows(table)}
    text = (target / "characters_u3_F3.json").read_text(encoding="utf-8")
    assert json.loads(text) == want
    assert text == _canonical(want)
    for name in ("census_u3_F3.json", "mq_corpus.json"):
        text = (target / name).read_text(encoding="utf-8")
        assert text == _canonical(json.loads(text))


def test_export_csv(capsys, tmp_path):
    target = tmp_path / "outdir"
    rc, payload, _ = run(capsys, ["export", "--target", str(target), "--format", "csv"])
    assert rc == 0
    assert set(payload["written"]) == {"census_u3_F3.csv", "series_sl2_tower_5.csv"}
    lines = (target / "census_u3_F3.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "rep,size,fake_degree"
    assert len(lines) == 12  # header + 11 orbits


@pytest.mark.skipif(shutil.which("orbitzeta") is None,
                    reason="console script not on PATH")
def test_console_script_smoke():
    proc = subprocess.run(["orbitzeta", "zeta", "sl2", "5"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 9


# ------------------------------------------------------ the command table --

_LEAVES = {(command, sub) for command, (_, leaves) in COMMANDS.items() for sub in leaves}


def _bad_inputs(tmp_path) -> dict:
    """One bad input per leaf: a missing file for every leaf that reads one
    (its required options set to 2), a refused value for the others."""
    missing = str(tmp_path / "missing")
    regular = tmp_path / "regular"
    regular.write_text("", encoding="utf-8")
    cases = {}
    for command, sub in _LEAVES:
        _, specs = COMMANDS[command][1][sub]
        if specs and specs[0][0] in ("file", "spec"):
            required = [x for name, kw in specs if kw.get("required") for x in (name, "2")]
            cases[command, sub] = [command, sub, missing, *required]
    cases.update({
        ("zeta", "sl2"): ["zeta", "sl2", "4"],
        ("zeta", "target"): ["zeta", "target", "--c", "0", "--p", "2"],
        ("budget", None): ["budget", "--set", "no_such_key=5"],
        ("verify-corpus", None): ["verify-corpus", "--only", "nope"],
        ("export", None): ["export", "--target", str(regular / "out")],
    })
    return cases


def test_every_leaf_exits_2_on_a_bad_input(capsys, tmp_path):
    cases = _bad_inputs(tmp_path)
    assert set(cases) == _LEAVES
    for argv in cases.values():
        try:
            rc = main(argv)
        except SystemExit as exc:     # argparse refuses the input itself
            rc = exc.code
        err = capsys.readouterr().err
        assert rc == 2, (argv, err)
        assert "error:" in err and "Traceback" not in err, (argv, err)


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_shows_every_leaf_and_no_other():
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.M | re.S)
    shown = set()
    for line in "".join(blocks).splitlines():
        words = line.split()
        if words[:1] == ["orbitzeta"]:
            leaves = COMMANDS.get(words[1], (None, {}))[1]
            shown.add((words[1], None if None in leaves else words[2]))
    assert shown == _LEAVES


# ------------------------------------------------------------- the writer --

_SHARED_LEAF = {"den": 3, "vec": [-1, 2]}
_SHARED_LIST = [1, [2, "x"], {}]
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.floats(),
    st.integers(min_value=-2 ** 70, max_value=2 ** 70),
    st.text(), st.sampled_from(['"', "\\", "\n\t\x00\x7f", "é", "\u2028", "\U0001f600"]),
    st.sampled_from([_SHARED_LEAF, _SHARED_LIST, [], {}]))


@st.composite
def _json_trees(draw):
    shared = draw(st.recursive(_JSON_SCALARS, lambda kids: st.lists(kids, max_size=3),
                               max_leaves=4))
    tree = st.recursive(
        _JSON_SCALARS | st.just(shared),
        lambda kids: st.lists(kids, max_size=5) | st.tuples(kids, kids)
        | st.dictionaries(st.text(max_size=4), kids, max_size=5),
        max_leaves=30)
    return draw(tree)


@settings(max_examples=100, deadline=None)
@given(obj=_json_trees())
@example(obj=[[_SHARED_LEAF] * 3, {"a": _SHARED_LEAF, "b": [_SHARED_LEAF, [_SHARED_LEAF]]}])
@example(obj=[2 ** 64 + 1, -(2 ** 64), True, 0, 1.5, -0.0, float("nan"), float("-inf")])
def test_dumps_is_json_dumps(obj):
    assert _dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


# ------------------------------------------------------- malformed tokens --

@pytest.mark.parametrize("argv,name,content", [
    (["nilalg", "info"], "bad.alg", "alg 2 1 two\n"),
    (["grouptab", "classes"], "bad.grp", "cayley x\n"),
    (["zeta", "product"], "bad.json",
     '[{"type": {"rank": 1, "pos_roots": 1, "coxeter": 2}, "q": "five", "mult": 1}]'),
])
def test_non_integer_tokens_exit_2(tmp_path, argv, name, content):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    extra = ["--N", "10"] if argv[0] == "zeta" else []
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(orbitzeta.__file__)))
    proc = subprocess.run([sys.executable, "-m", "orbitzeta.cli", *argv, str(path), *extra],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_mq_compute_with_huge_prime_exits_2_quickly(group_file):
    # the order test must reject p before primality is tried by trial division
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(orbitzeta.__file__)))
    proc = subprocess.run([sys.executable, "-m", "orbitzeta.cli", "mq", "compute",
                           group_file("C3"), "--p", "1000000000000000003"],
                          capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_zeta_sl2_with_huge_prime_exits_0_quickly():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(orbitzeta.__file__)))
    proc = subprocess.run([sys.executable, "-m", "orbitzeta.cli", "zeta", "sl2",
                           "1000000000000000003"],
                          capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 10**18 + 7


@pytest.mark.parametrize("p,e", [(10**18 + 3, 1), (10**18 + 3, 2), (2, 3 * 10**9)])
def test_mq_compute_trivial_group_huge_field_exits_3_quickly(tmp_path, p, e):
    # order 1 passes the p-group test for every p; q = p^e is bounded first
    path = tmp_path / "trivial.grp"
    path.write_text("cayley 1\n0\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(orbitzeta.__file__)))
    proc = subprocess.run([sys.executable, "-m", "orbitzeta.cli", "mq", "compute", str(path),
                           "--p", str(p), "--e", str(e)],
                          capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 3
    assert "field_q_max" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_nilalg_info_huge_extension_degree_exits_3_quickly(tmp_path):
    # the field is bounded by field_q_max before p^e is formed
    path = tmp_path / "huge_e.nil"
    path.write_text("alg 2 3000000000 1\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(orbitzeta.__file__)))
    proc = subprocess.run([sys.executable, "-m", "orbitzeta.cli", "nilalg", "info", str(path)],
                          capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 3
    assert "field_q_max" in proc.stderr
    assert "Traceback" not in proc.stderr


def _cli_subprocess(argv, timeout=10):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(orbitzeta.__file__)))
    return subprocess.run([sys.executable, "-m", "orbitzeta.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


def test_repeated_main_calls_match_fresh_processes(capsys, algebra_file, group_file, a1_spec):
    # one argparse tree serves every call of the process: each call, also
    # after a parse error and after a bad file, prints what a fresh
    # interpreter prints, and --set values do not carry over
    census = ["orbits", "census", algebra_file(corpus.unitriangular(3, 3))]
    calls = [census,
             ["budget", "--set", "character_table_max=5", "--set", "group_enumeration_max=7"],
             ["zeta", "product", a1_spec([(5, 1)])],                 # no --N: exit 2
             ["grouptab", "classes", group_file("D8")],
             ["grouptab", "classes", "/nonexistent/file.grp"],      # exit 2
             ["budget", "--set", "group_enumeration_max=9"],
             census]
    assert build_parser() is build_parser()
    for argv in calls:
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        proc = _cli_subprocess(argv)
        assert (rc, capsys.readouterr().out) == (proc.returncode, proc.stdout), argv


def test_pc_order_near_the_table_budget_finishes(tmp_path):
    # C_4093 has p = 4093 blocks per block column: one gather per column
    # keeps it to a second where one gather per block took minutes
    path = tmp_path / "c4093.pc"
    path.write_text("pc 4093 1\n", encoding="utf-8")
    proc = _cli_subprocess(["grouptab", "classes", str(path)], timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["k"] == 4093


def test_nilalg_info_huge_dimension_exits_2_quickly(tmp_path):
    # d*e is bounded before the (d, d, d, e) structure array is allocated
    path = tmp_path / "huge_d.nil"
    path.write_text("alg 2 1 1000000\n", encoding="utf-8")
    proc = _cli_subprocess(["nilalg", "info", str(path)])
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_nilalg_info_rejects_int64_overflow_prime(tmp_path):
    # n (p-1)^2 >= 2^63: wrapped int64 contractions made this file report
    # derived_dim 2, where the true value is 1
    path = tmp_path / "big_p.nil"
    path.write_text("alg 4294967311 1 5\n0 1 3 4294967309\n0 1 4 4294967308\n"
                    "0 2 3 4048053733\n0 2 4 3924596944\n", encoding="utf-8")
    proc = _cli_subprocess(["nilalg", "info", str(path), "--set", "field_q_max=5000000000"])
    assert proc.returncode == 2
    assert "2^63" in proc.stderr
    assert "Traceback" not in proc.stderr


_WORDS = st.sampled_from(["alg", "cayley", "pc", "pow", "comm", ":", "x", "two", "1.5",
                          "-", "0x3"])
_LINES = st.lists(st.lists(st.one_of(st.integers(-2, 9).map(str), _WORDS), max_size=5)
                  .map(" ".join), max_size=5)


# header numbers stay at 3 or below: a 'pc 5 5' group (order 3125) takes
# about 0.2 s to build and check on a 2-core box, and 150 draws could repeat it
@settings(max_examples=150, deadline=None)
@given(header=st.sampled_from(["alg", "cayley", "pc", "x"]),
       head_args=st.lists(st.one_of(st.integers(-1, 3).map(str), _WORDS), max_size=4),
       body=_LINES)
@example(header="alg", head_args=["0", "-1", "0"], body=[])  # p^e with e < 1
def test_parsers_raise_only_tool_errors(header, head_args, body):
    text = "\n".join([" ".join([header, *head_args]), *body])
    for parse in (parse_algebra_file, parse_group_file):
        try:
            parse(text)
        except ToolError:
            pass


def test_exact_product_with_huge_multiplicity(capsys, a1_spec):
    mult, N = 10 ** 8, 10
    t0 = time.monotonic()
    rc, payload, _ = run(capsys, ["zeta", "product", a1_spec([(5, mult)]), "--N", str(N)])
    assert time.monotonic() - t0 < 10
    assert rc == 0
    # closed form: (1 + g)^mult = sum_j C(mult, j) g^j, and g^4 = 0 below 16
    g = TruncatedDirichlet.from_degree_multiset(sl2_degrees(5), N).coeffs.tolist()
    g = TruncatedDirichlet(N, [0, 0] + g[2:])
    want = [0] * (N + 1)
    want[1] = 1
    power = TruncatedDirichlet.identity(N)
    for j in range(1, 4):
        power = dirichlet_product(power, g)
        for n, c in enumerate(power.coeffs.tolist()):
            want[n] += math.comb(mult, j) * c
    assert payload["checkpoints"] == [[n, sum(want[1:n + 1])] for n in range(1, N + 1)]


def test_zeta_product_past_the_product_budget_exits_3_quickly(tmp_path):
    # five factors of multiplicity 2^64 - 1 need 5 * 127 products
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([{"type": {"label": "A1", "rank": 1, "pos_roots": 1,
                                          "coxeter": 2}, "q": q, "mult": 2 ** 64 - 1}
                                for q in (5, 7, 9, 11, 13)]), encoding="utf-8")
    t0 = time.monotonic()
    proc = _cli_subprocess(["zeta", "product", str(spec), "--N", "1000000"])
    assert time.monotonic() - t0 < 5
    assert proc.returncode == 3
    assert "series_products_max" in proc.stderr and "635" in proc.stderr
    assert "Traceback" not in proc.stderr
    proc = _cli_subprocess(["zeta", "product", str(spec), "--N", "10",
                            "--set", "series_products_max=635"])
    assert proc.returncode == 0, proc.stderr


def test_zeta_target_huge_imax_exits_3_quickly():
    t0 = time.monotonic()
    proc = _cli_subprocess(["zeta", "target", "--c", "3/2", "--p", "5", "--imax", "100000000"])
    assert time.monotonic() - t0 < 5
    assert proc.returncode == 3
    assert "target_terms_max" in proc.stderr
    assert "Traceback" not in proc.stderr


_A1 = {"label": "A1", "rank": 1, "pos_roots": 1, "coxeter": 2}
_UP_TO_2_64 = st.integers(min_value=0, max_value=2 ** 64)
# --N and --imax are either small enough to run, or past series_cutoff_max
# and target_terms_max so that only the budget check runs: the slowest case
# drawn, three SL2 factors of multiplicity near 2^64 at N = 4096, takes
# about 0.2 s on 2 cores (at N = 10^6 it takes about 3 s)
_SIZE = st.one_of(st.integers(min_value=0, max_value=4096),
                  st.integers(min_value=10 ** 6 + 1, max_value=2 ** 64))
# an integer drawn up to 2^64 is seldom a prime power, so valid q and p are
# mixed in to reach the computation behind the validation
_Q = st.one_of(st.sampled_from([5, 7, 9, 25, 2 ** 61 - 1]), _UP_TO_2_64)
_P = st.one_of(st.sampled_from([2, 3, 5, 2 ** 61 - 1]), _UP_TO_2_64)


# each case runs in its own process, so a hang fails on the timeout
@pytest.mark.parametrize("sub", ["sl2", "product", "abscissa", "target"])
@settings(max_examples=7, deadline=None, derandomize=True)
@example(size=4096, p=5, factors=[(5, 2 ** 64), (7, 2 ** 64 - 1), (9, 2 ** 63)], c="7/3")
@given(size=_SIZE, p=_P,
       factors=st.lists(st.tuples(_Q, _UP_TO_2_64), min_size=1, max_size=3),
       c=st.sampled_from(["1/2", "1", "3/2", "7/3", "1000000"]))
def test_zeta_subcommands_keep_the_exit_code_contract(tmp_path_factory, sub, size, p,
                                                       factors, c):
    if sub == "sl2":
        argv = ["zeta", "sl2", str(factors[0][0])]
    elif sub == "target":
        argv = ["zeta", "target", "--c", c, "--p", str(p), "--imax", str(size)]
    else:
        spec = tmp_path_factory.mktemp("zeta") / "spec.json"
        spec.write_text(json.dumps([{"type": _A1, "q": q, "mult": m} for q, m in factors]),
                        encoding="utf-8")
        argv = ["zeta", sub, str(spec), "--N", str(size)]
    proc = _cli_subprocess(argv, timeout=30)
    assert proc.returncode in (0, 2, 3, 4), proc.stderr
    assert "Traceback" not in proc.stderr


# Header integers are either cheap (|1+J| and |G| at most 81) or at least
# 2^32, where a validation or budget check must refuse them at once; a
# budget raised by --set then admits nothing expensive.
_BIG = st.integers(min_value=2 ** 32, max_value=2 ** 64)
_ALG_HEADER = st.one_of(
    st.sampled_from([(2, 1, 3), (3, 1, 3), (5, 1, 2), (3, 2, 2), (2, 2, 2), (2, 1, 1)]),
    st.tuples(st.one_of(st.sampled_from([2, 3, 2 ** 61 - 1]), _BIG),
              st.one_of(st.just(1), _BIG), st.one_of(st.integers(1, 3), _BIG)))
_ALG_LINE = st.lists(st.one_of(st.integers(0, 3), _BIG), min_size=4, max_size=4)
_GROUP_TEXT = st.one_of(
    st.sampled_from([serialize_cayley(corpus.group(n)) for n in ("C2", "C4", "D8", "C9")]),
    st.tuples(st.one_of(st.sampled_from([2, 3]), _BIG), st.one_of(st.integers(0, 3), _BIG))
    .map(lambda h: f"pc {h[0]} {h[1]}\n"),
    _BIG.map(lambda m: f"cayley {m}\n0\n"))
_BUDGET_NAMES = sorted(Budgets.__dataclass_fields__)
_SET = st.one_of(st.none(), st.tuples(st.sampled_from(_BUDGET_NAMES),
                                      st.one_of(st.integers(1, 64), _BIG)))
_ALG_ARGV = {"nilalg": ["nilalg", "info"], "algroup": ["algroup", "classes"],
             "orbits": ["orbits", "characters"]}


# each case runs in its own process, so a hang fails on the timeout
@pytest.mark.parametrize("sub", ["nilalg", "algroup", "orbits", "grouptab", "mq"])
@settings(max_examples=6, deadline=None, derandomize=True)
@example(header=(2, 1, 1), lines=[], group="pc 2 4294967296\n",
         setting=("group_enumeration_max", 2 ** 64), p=2, e=1)
@given(header=_ALG_HEADER, lines=st.lists(_ALG_LINE, max_size=2), group=_GROUP_TEXT,
       setting=_SET, p=st.one_of(st.sampled_from([2, 3]), _UP_TO_2_64),
       e=st.one_of(st.integers(1, 2), _UP_TO_2_64))
def test_algebra_and_group_subcommands_keep_the_exit_code_contract(
        tmp_path_factory, sub, header, lines, group, setting, p, e):
    directory = tmp_path_factory.mktemp("cli")
    if sub in _ALG_ARGV:
        path = directory / "alg.nil"
        body = [" ".join(map(str, ln)) for ln in lines]
        path.write_text("\n".join(["alg %d %d %d" % header, *body]) + "\n", encoding="utf-8")
        argv = [*_ALG_ARGV[sub], str(path)]
    else:
        path = directory / "group.grp"
        path.write_text(group, encoding="utf-8")
        argv = ["grouptab", "classes", str(path)]
        if sub == "mq":
            argv = ["mq", "compute", str(path), "--p", str(p), "--e", str(e)]
    if setting is not None:
        argv += ["--set", "%s=%d" % setting]
    proc = _cli_subprocess(argv, timeout=30)
    assert proc.returncode in (0, 2, 3, 4), proc.stderr
    assert "Traceback" not in proc.stderr
