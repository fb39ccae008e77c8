"""The four workloads: their inputs, their operations and the checks on
each operation's answer.

An operation is one call of a public entry point of `orbitzeta`: an
`orbitzeta` subcommand run in-process through `orbitzeta.cli.main` on a
file written by `inputs`, or, where no subcommand exposes the check, the
library function that the acceptance gates call.  Each operation comes with
a check against an answer from `oracles`, computed apart from the program;
a check raises `WrongAnswer`.

Every round of a workload runs the same operations in the same order, so the
number attempted per round is fixed by the workload, not by the seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import inputs
import oracles

WORKLOADS = ("orbits", "characters", "abelianization", "mq-zeta")


class WrongAnswer(Exception):
    """An operation returned an answer that disagrees with the oracle."""


class NonZeroExit(Exception):
    """A subcommand returned a nonzero exit code: the operation failed."""


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], None]


def expect(cond: bool, label: str, what: str) -> None:
    if not cond:
        raise WrongAnswer(f"{label}: {what}")


class Context:
    """Seeded input writer for one workload run."""

    def __init__(self, seed: int, directory: str):
        self.rng = np.random.default_rng(seed)
        self.dir = directory
        self.fields: dict[tuple[int, int], inputs.GF] = {}

    def field(self, p: int, e: int = 1) -> inputs.GF:
        if (p, e) not in self.fields:
            self.fields[(p, e)] = inputs.GF(p, e)
        return self.fields[(p, e)]

    def group_table(self, name: str) -> np.ndarray:
        from orbitzeta import corpus
        return inputs.relabel(inputs.tabulate(corpus.group(name)), self.rng)

    def algebra(self, label: str, C: np.ndarray, p: int, e: int = 1) -> dict:
        """Write C (field codes) on a seeded basis; keep both tensors."""
        field = self.field(p, e)
        moved = inputs.change_basis(C, field, self.rng)
        path = inputs.write(self.dir, f"{label}.alg", inputs.algebra_text(moved, field))
        return {"label": label, "path": path, "p": p, "e": e, "q": field.q,
                "field": field, "dim": C.shape[0], "tensor": C, "file_tensor": moved}

    def unitriangular(self, n: int, p: int, e: int = 1) -> dict:
        item = self.algebra(f"u{n}_F{p ** e}", inputs.unitriangular_tensor(n), p, e)
        item["n"] = n
        return item

    def ideal(self, group: str, p: int) -> dict:
        table = self.group_table(group)
        item = self.algebra(f"I_F{p}[{group}]", inputs.augmentation_tensor(table, p), p)
        item["table"] = table
        return item


def _prime(item: dict, which: str = "tensor") -> np.ndarray:
    return inputs.prime_tensor(item[which], item["field"])


def _cli(argv: list[str], out: str) -> Callable[[], int]:
    from orbitzeta import cli

    def call():
        code = cli.main(argv + ["--out", out])
        if code != 0:
            raise NonZeroExit(f"orbitzeta {' '.join(argv)} exited with {code}")
    return call


def _read(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _cli_op(label: str, argv: list[str], directory: str, check) -> Op:
    out = os.path.join(directory, label.replace(" ", "_").replace("/", "_") + ".json")

    return Op(label, _cli(argv, out), lambda _: check(_read(out)))


# ------------------------------------------------------------------ orbits --

def prepare_orbits(ctx: Context) -> list[dict]:
    """Two non-abelian order-16 ideals over F_2 (the gate-01 bulk), u_4(F_2)
    (p = 2, e = 1), u_3(F_4) (e = 2) and I_F3[C9] (p = 3)."""
    return [ctx.ideal("D8oC4", 2), ctx.ideal("M16", 2),
            ctx.unitriangular(4, 2), ctx.unitriangular(3, 2, 2),
            ctx.ideal("C9", 3)]


def ops_orbits(items: list[dict], directory: str) -> list[Op]:
    ops = []
    for item in items:
        k = oracles.algebra_group_class_count(_prime(item), item["p"])
        order = item["q"] ** item["dim"]
        ab = None
        if "table" in item:
            ab = item["p"] ** (oracles.commuting_class_count(item["table"]) - 1)
        else:
            expect(k == oracles.unitriangular_class_count(item["n"], item["q"]),
                   item["label"], "oracle disagrees with k(U_n(F_q))")

        def census_check(out, label=f"census {item['label']}", k=k, order=order):
            expect(out["orbit_count"] == k, label, f"{out['orbit_count']} orbits, k = {k}")
            expect(out["group_order"] == order, label, "group order")
            expect(sum(d * d * m for d, m in out["fake_degrees"]) == order,
                   label, "sum of squared fake degrees != |J|")
            expect(sum(int(s) * c for s, c in out["sizes_histogram"].items()) == order,
                   label, "orbit sizes do not partition the dual")

        def classes_check(out, label=f"classes {item['label']}", k=k, order=order, ab=ab):
            expect(out["k"] == k, label, f"k = {out['k']}, oracle {k}")
            expect(out["group_order"] == order, label, "group order")
            if ab is not None:
                expect(out["abelianization_order"] == ab, label,
                       f"|(1+I)_ab| = {out['abelianization_order']}, p^(k(pi)-1) = {ab}")

        ops.append(_cli_op(f"census {item['label']}",
                           ["orbits", "census", item["path"]], directory, census_check))
        ops.append(_cli_op(f"classes {item['label']}",
                           ["algroup", "classes", item["path"]], directory, classes_check))
    return ops


# -------------------------------------------------------------- characters --

def prepare_characters(ctx: Context) -> list[dict]:
    """J^p = 0 algebras: u_3 over the prime fields F_5, F_7 and over F_9,
    and zero algebras over F_4 and F_9."""
    zero = np.zeros((2, 2, 2), dtype=np.int64)
    return [ctx.unitriangular(3, 5), ctx.unitriangular(3, 7),
            ctx.unitriangular(3, 3, 2),
            ctx.algebra("zero2_F4", zero, 2, 2),
            ctx.algebra("zero2_F9", zero, 3, 2)]


def _character_table_check(item: dict, k: int, P_file: np.ndarray):
    p, order = item["p"], item["q"] ** item["dim"]
    label = f"characters {item['label']}"

    def check(out):
        expect(out["k"] == k and len(out["orbits"]) == k, label, f"k = {out['k']}, oracle {k}")
        expect(sum(o["degree"] ** 2 for o in out["orbits"]) == order,
               label, "sum of squared degrees != |J|")
        expect(out["class_reps"][0] == 0, label, "identity class is not first")
        for o in out["orbits"]:
            expect(oracles.cyclotomic_is_integer(o["values"][0], p, o["degree"]),
                   label, "chi(1) != degree")
        cent = oracles.centralizer_orders(P_file, p, out["class_reps"])
        values = [o["values"] for o in out["orbits"]]
        for c, (size, cg) in enumerate(zip(out["class_sizes"], cent)):
            expect(size * cg == order, label, f"class {c}: size * |C(g)| != |G|")
            expect(oracles.column_orthogonality(values, c, p) == cg, label,
                   f"column orthogonality fails at class {c}")
    return check


def ops_characters(items: list[dict], directory: str) -> list[Op]:
    from orbitzeta import coadjoint, nilalg

    ops = []
    for item in items:
        k = oracles.algebra_group_class_count(_prime(item), item["p"])
        if "n" in item:
            expect(k == oracles.unitriangular_class_count(item["n"], item["q"]),
                   item["label"], "oracle disagrees with k(U_n(F_q))")
        else:
            expect(k == item["q"] ** item["dim"], item["label"], "abelian count")
        label = item["label"]
        ops.append(_cli_op(f"characters {label}", ["orbits", "characters", item["path"]],
                           directory, _character_table_check(item, k, _prime(item, "file_tensor"))))
        state: dict = {}

        def parse(item=item, state=state):
            state.clear()
            with open(item["path"], encoding="utf-8") as fh:
                state["alg"] = nilalg.parse_algebra_file(fh.read())
            return state["alg"]

        def census(state=state):
            state["census"] = coadjoint.orbit_census(state["alg"])
            return state["census"]

        def table(state=state):
            state["table"] = coadjoint.character_table(state["alg"], census=state["census"])
            return state["table"]

        def dims(alg, label=label, item=item):
            expect(alg.dim == item["dim"] and alg.field.q == item["q"], label, "parsed shape")

        ops.append(Op(f"parse {label}", parse, dims))
        ops.append(Op(f"orbit_census {label}", census,
                      lambda r, label=label, k=k: expect(r.count == k, label, "census count")))
        ops.append(Op(f"character_table {label}", table,
                      lambda r, label=label, k=k: expect(r.k == k, label, "table size")))
        ops.append(Op(f"orthonormality {label}",
                      lambda state=state: coadjoint.orthonormality_check(state["table"]),
                      lambda r, label=label: expect(r is True, label, "orthonormality")))
        for i in range(k):
            ops.append(Op(
                f"induced {label} #{i}",
                lambda i=i, state=state: coadjoint.verify_induced_matches_orbit(
                    state["alg"], i, census=state["census"], table=state["table"]),
                lambda r, label=label, i=i: expect(r is True, label, f"induced #{i}")))
    return ops


# ---------------------------------------------------------- abelianization --

def prepare_abelianization(ctx: Context) -> dict:
    """nilalg info on ideals of groups of order 27 (F_3) and 32 (F_2);
    algroup abelianization on two order-16 ideals."""
    return {"info": [ctx.ideal("He27", 3), ctx.ideal("D8oD8", 2)],
            "closure": [ctx.ideal("Q16", 2), ctx.ideal("C4semC4", 2)]}


def ops_abelianization(data: dict, directory: str) -> list[Op]:
    ops = []
    for item in data["info"]:
        k_pi = oracles.commuting_class_count(item["table"])
        derived = oracles.lie_derived_prime_dim(_prime(item, "file_tensor"), item["p"])
        expect(item["dim"] - derived == k_pi - 1, item["label"],
               "oracles disagree: dim I/[I,I] != k(pi) - 1")

        def info_check(out, label=f"info {item['label']}", item=item, derived=derived):
            expect(out["dim"] == item["dim"], label, "dimension")
            expect(out["derived_dim"] == derived, label,
                   f"dim [I,I] = {out['derived_dim']}, oracle {derived}")

        ops.append(_cli_op(f"info {item['label']}", ["nilalg", "info", item["path"]],
                           directory, info_check))
    for item in data["closure"]:
        k = oracles.algebra_group_class_count(_prime(item), item["p"])
        ab = item["p"] ** (oracles.commuting_class_count(item["table"]) - 1)

        def ab_check(out, label=f"abelianization {item['label']}", k=k, ab=ab):
            expect(out["k"] == k, label, f"k = {out['k']}, oracle {k}")
            expect(out["abelianization_order"] == ab, label,
                   f"|(1+I)_ab| = {out['abelianization_order']}, p^(k(pi)-1) = {ab}")

        ops.append(_cli_op(f"abelianization {item['label']}",
                           ["algroup", "abelianization", item["path"]], directory, ab_check))
    return ops


# ------------------------------------------------------------------ mq-zeta --

MQ_GROUPS = [("C4", 2), ("D8", 2), ("M27", 3), ("D8oD8", 2), ("g128", 2)]
TOWER = [(5 ** i, 1) for i in range(1, 13)]
TOWER_N = 10 ** 6
ONE_FACTOR = [(5, 16)]
ONE_N = 2 * 10 ** 5
SYNTHETIC = [Fraction(1, 2), Fraction(1), Fraction(3, 2)]
SYNTHETIC_N = 10 ** 5


def prepare_mq_zeta(ctx: Context) -> dict:
    """pc groups g1024 and g512, Cayley tables for M_q up to order 128, the
    SL2(5^i) tower and one SL2(5) factor with multiplicity 16."""
    big, small, fold = inputs.class2_presentations(ctx.rng)
    out = {"pc": [("g1024", inputs.write(ctx.dir, "g1024.pc", big), None),
                  ("g512", inputs.write(ctx.dir, "g512.pc", small), fold)],
           "mq": []}
    for name, p in MQ_GROUPS:
        table = ctx.group_table(name)
        out["mq"].append((name, p, table,
                          inputs.write(ctx.dir, f"{name}.grp", inputs.cayley_text(table))))
    tower = [TOWER[i] for i in ctx.rng.permutation(len(TOWER))]
    out["tower"] = inputs.write(ctx.dir, "tower.json", inputs.factor_spec_text(tower))
    out["one"] = inputs.write(ctx.dir, "one.json", inputs.factor_spec_text(ONE_FACTOR))
    return out


def _series_checks(label: str, factors, N: int, band=None):
    series = oracles.sparse_product_series(factors, N)

    def product_check(out):
        points = [n for n, _ in out["checkpoints"]]
        expect(out["N"] == N and out["exact"], label, "cutoff or exactness")
        expect([r for _, r in out["checkpoints"]] == oracles.partial_counts(series, points),
               label, "R_n differs from the sparse convolution")

    def abscissa_check(out):
        points = [n for n, _, _ in out["checkpoints"]]
        want = oracles.partial_counts(series, points)
        expect([r for _, r, _ in out["checkpoints"]] == want, label,
               "R_n differs from the sparse convolution")
        ratio = math.log(want[-1]) / math.log(points[-1])
        expect(points[-1] == N and abs(out["estimate"] - ratio) <= 1e-9, label,
               f"estimate {out['estimate']} != log R_N / log N = {ratio}")
        if band:
            expect(band[0] <= out["estimate"] <= band[1], label,
                   f"estimate {out['estimate']} outside {band}")
    return product_check, abscissa_check


def ops_mq_zeta(data: dict, directory: str) -> list[Op]:
    from orbitzeta import zetalab

    ops = []
    for name, path, fold in data["pc"]:
        table = oracles.class2_table(inputs.PAIRS, fold)
        want = {"order": table.shape[0], "k": oracles.commuting_class_count(table),
                "class_sizes": oracles.class_size_multiset(table),
                "derived_order": oracles.derived_subgroup_order(table)}

        def check(out, label=f"classes {name}", want=want):
            expect(out == want, label, f"{out} != {want}")

        ops.append(_cli_op(f"classes {name}", ["grouptab", "classes", path], directory, check))
    for name, p, table, path in data["mq"]:
        k = oracles.commuting_class_count(table)
        for e in (1, 2):
            label = f"mq {name} e={e}"

            def check(out, label=label, q=p ** e, k=k, anchor=(name, e) == ("C4", 1)):
                expect(out["k"] == k, label, f"k = {out['k']}, oracle {k}")
                expect(out["order"] == q ** (k - 1) == math.prod(out["invariant_factors"]),
                       label, f"|M_q| = {out['order']}, q^(k-1) = {q ** (k - 1)}")
                if anchor:
                    expect(out["invariant_factors"] == [2, 4], label, "M_2(C4) != Z/4 x Z/2")

            ops.append(_cli_op(label, ["mq", "compute", path, "--p", str(p), "--e", str(e)],
                               directory, check))
    for label, path, factors, N, band in [
            ("tower", data["tower"], TOWER, TOWER_N, (0.85, 1.15)),
            ("one", data["one"], ONE_FACTOR, ONE_N, None)]:
        product_check, abscissa_check = _series_checks(label, factors, N, band)
        ops.append(_cli_op(f"zeta product {label}",
                           ["zeta", "product", path, "--N", str(N)], directory, product_check))
        ops.append(_cli_op(f"zeta abscissa {label}",
                           ["zeta", "abscissa", path, "--N", str(N)], directory, abscissa_check))
    for c in SYNTHETIC:
        label = f"synthetic c={c}"
        want = [oracles.power_floor(n, c) for n in range(SYNTHETIC_N + 1)]
        state: dict = {}

        def build(c=c, state=state):
            state["series"] = zetalab.synthetic_power_series(c, SYNTHETIC_N)
            return state["series"]

        def series_check(series, label=label, want=want):
            partial = np.cumsum(np.array(series.coeffs, dtype=object))
            expect(list(partial) == want, label, "R_n != floor(n^c)")

        ops.append(Op(label, build, series_check))
        ops.append(Op(f"abscissa {label}",
                      lambda state=state: zetalab.abscissa_estimate(state["series"]),
                      lambda est, label=label, c=c: expect(
                          abs(est.estimate - float(c)) <= 0.05, label,
                          f"estimate {est.estimate} not within 0.05 of {c}")))
    return ops


PREPARE = {"orbits": prepare_orbits, "characters": prepare_characters,
           "abelianization": prepare_abelianization, "mq-zeta": prepare_mq_zeta}
OPERATIONS = {"orbits": ops_orbits, "characters": ops_characters,
              "abelianization": ops_abelianization, "mq-zeta": ops_mq_zeta}
