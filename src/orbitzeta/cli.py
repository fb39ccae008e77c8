"""Command line surface.

Subcommands mirror the library modules: grouptab, nilalg, algroup, orbits,
mq, zeta, plus budget, verify-corpus and export.  The table COMMANDS names
every leaf of that tree with its payload function and its arguments;
build_parser builds the argparse tree from it, and each leaf takes the
options --budget-config, --set, --manifest and --out.  JSON on stdout is the
canonical machine output (sorted keys, 2-space indent); CSV is only emitted
for series checkpoints via --emit-plot-data or export.

Exit codes: 0 success, 2 validation error, 3 budget error, 4 internal
inconsistency (an invariant that must hold was violated; always a bug).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__, corpus
from .algroup import AlgebraGroup, _c_route_law
from .bogomod import build_mq, invariant_factors, mq_order, verify_filtration
from .budgets import (DEFAULT_BUDGETS, Budgets, budget_scope, current_budgets,
                      parse_budget_config)
from .coadjoint import (character_table, conjecture_probe, engine_for,
                        fake_degree_identities, orbit_census)
from .errors import InternalInconsistencyError, ToolError, ValidationError
from .ffield import make_field, prime_power_decompose
from .grouptab import parse_group_file
from .linalg import base_p_digits
from .nilalg import parse_algebra_file
from .zetalab import (LieTypeSpec, FactorSpec, abscissa_estimate,
                      dirichlet_product, divisor_tuple_count, prg_witness,
                      product_series, sl2_degrees, target_abscissa_spec)


# ---------------------------------------------------------------- helpers --

def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _effective_budgets(args) -> Budgets:
    budgets = DEFAULT_BUDGETS
    if args.budget_config:
        budgets = parse_budget_config(_read_text(args.budget_config))
    for setting in args.set or []:
        budgets = parse_budget_config(setting, base=budgets)
    return budgets


def _checkpoint_grid(N: int) -> list[int]:
    """32 geometric series checkpoints from 1 up to the cutoff N."""
    return sorted({max(1, round(N ** (i / 31))) for i in range(32)})


def _parse_lie_type(label: str) -> LieTypeSpec:
    label = label.strip()
    if len(label) < 2 or label[0].upper() not in "ABCD":
        raise ValidationError(f"unknown Lie type {label!r}; expected A<k>/B<k>/C<k>/D<k>")
    try:
        rank = int(label[1:])
    except ValueError:
        raise ValidationError(f"bad Lie type rank in {label!r}") from None
    maker = {"A": LieTypeSpec.type_a, "B": LieTypeSpec.type_b,
             "C": LieTypeSpec.type_c, "D": LieTypeSpec.type_d}[label[0].upper()]
    return maker(rank)


def _load_factor_spec(path: str) -> FactorSpec:
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(data, list):
        raise ValidationError(f"{path}: factor spec must be a JSON list")
    factors = []
    for idx, entry in enumerate(data):
        if not isinstance(entry, dict) or not {"type", "q", "mult"} <= set(entry):
            raise ValidationError(f"{path}: entry {idx} needs keys type, q, mult")
        t = entry["type"]
        if not isinstance(t, dict) or not {"rank", "pos_roots", "coxeter"} <= set(t):
            raise ValidationError(
                f"{path}: entry {idx} type needs keys rank, pos_roots, coxeter")
        label = t.get("label", f"L(r{t['rank']})")
        try:
            rank, pos_roots, coxeter = (int(t[k]) for k in ("rank", "pos_roots", "coxeter"))
            q, mult = int(entry["q"]), int(entry["mult"])
        except (TypeError, ValueError):
            raise ValidationError(f"{path}: entry {idx} has a non-integer field") from None
        factors.append((LieTypeSpec(label, rank, pos_roots, coxeter), q, mult))
    return FactorSpec(factors, name=os.path.basename(path))


# log10 of an int is within about 5e-16 (1 + log10 n) of the truth: a
# fractional part this close to an integer is settled by a power of 10
_LOG10_GUARD = 1e-9


def _decimal_digits(n: int) -> int:
    """len(str(n)) for n >= 1, without the int-to-str conversion that Python
    refuses past 4300 digits: the float log10 fixes the count, unless it
    lies within rounding of an integer m, where n >= 10^m settles it."""
    log = math.log10(n)
    m = round(log)
    if abs(log - m) <= _LOG10_GUARD * (1 + log):
        return m + 1 if n >= 10 ** m else m
    return math.floor(log) + 1


# renderings longer than this are not kept for reuse, so the memo of _dumps
# stays within a small multiple of its output
_DUMPS_MEMO_MAX = 512
_INT_ONLY = {int}


def _floatstr(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _dumps(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, for acyclic
    obj with str keys (others raise TypeError); the canonical writer of
    every JSON output.

    A list of plain ints is joined in one step, and a container met again at
    the same depth (a shared character value, say) is rendered once: callers
    look up (id, depth) before rendering a child, and ids are unique among
    the live objects of obj.
    """
    memo: dict[tuple[int, int], str] = {}

    def render(o, depth: int) -> str:
        if isinstance(o, str):
            return encode_basestring_ascii(o)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, int):
            return int.__repr__(o)
        if isinstance(o, float):
            return _floatstr(o)
        if not isinstance(o, (list, tuple, dict)):
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
        if not o:
            return "{}" if isinstance(o, dict) else "[]"
        d = depth + 1
        inner = "\n" + "  " * d
        if isinstance(o, dict):
            parts = [encode_basestring_ascii(k) + ": " + (memo.get((id(v), d)) or render(v, d))
                     for k, v in sorted(o.items())]
            text = "{" + inner + ("," + inner).join(parts) + "\n" + "  " * depth + "}"
        else:
            if set(map(type, o)) == _INT_ONLY:
                parts = map(int.__repr__, o)
            else:
                parts = [memo.get((id(v), d)) or render(v, d) for v in o]
            text = "[" + inner + ("," + inner).join(parts) + "\n" + "  " * depth + "]"
        if len(text) <= _DUMPS_MEMO_MAX:
            memo[id(o), depth] = text
        return text

    return render(obj, 0)


def _character_values(table) -> list[list[dict]]:
    """values[orbit][class] as {"den", "vec"} dicts, one shared dict per
    distinct reduced value: the (den, vec) rows sorted by np.lexsort, where
    a row that differs from the one before it starts a new value."""
    den, vec = table.reduced()
    flat = np.concatenate([den[..., None], vec], axis=2).reshape(-1, vec.shape[2] + 1)
    order = np.lexsort(flat.T)
    ordered = flat[order]
    starts = np.ones(len(flat), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(flat), dtype=np.int64)
    inverse[order] = np.cumsum(starts) - 1
    leaves = [{"den": row[0], "vec": row[1:]} for row in ordered[starts].tolist()]
    return [[leaves[j] for j in cells]
            for cells in inverse.reshape(den.shape).tolist()]


# --------------------------------------------------------------- payloads --

def cmd_grouptab(args) -> dict:
    g = parse_group_file(_read_text(args.file))
    classes = g.conjugacy_classes()
    return {
        "order": g.order,
        "k": classes.count,
        "class_sizes": np.sort(classes.sizes).tolist(),
        "derived_order": g.commutator_subgroup().size,
    }


def cmd_nilalg_info(args) -> dict:
    alg = parse_algebra_file(_read_text(args.file))
    derived_rows, _ = alg.derived_lie_subspace()
    return {
        "dim": alg.dim,
        "class": alg.nilpotency_class,
        "derived_dim": len(derived_rows) // alg.field.e,
        "p_nilpotent": alg.is_p_nilpotent(),
    }


def cmd_algroup(args) -> dict:
    alg = parse_algebra_file(_read_text(args.file))
    eng = AlgebraGroup(alg)
    return {
        "group_order": eng.N,
        "k": eng.k(),
        "abelianization_order": eng.abelianization_order(),
    }


def cmd_orbits_census(args) -> dict:
    alg = parse_algebra_file(_read_text(args.file))
    census = orbit_census(alg)
    return {
        "group_order": census.alg.field.q ** census.alg.dim,
        "orbit_count": census.count,
        "sizes_histogram": {str(size): count for size, count in census.size_histogram()},
        "fake_degrees": [[d, m] for d, m in census.fake_degree_multiset()],
        "fixed_points": census.fixed_points,
        "identities": fake_degree_identities(census),
    }


def cmd_orbits_characters(args) -> dict:
    alg = parse_algebra_file(_read_text(args.file))
    table = character_table(alg)
    return {
        "k": table.k,
        "class_reps": table.class_reps.tolist(),
        "class_sizes": table.class_sizes.tolist(),
        "orbits": [
            {"rep": rep, "degree": degree, "values": values}
            for rep, degree, values in zip(table.orbit_reps.tolist(),
                                           table.fake_degrees.tolist(),
                                           _character_values(table))
        ],
    }


def cmd_orbits_probe(args) -> dict:
    alg = parse_algebra_file(_read_text(args.file))
    report = conjecture_probe(alg)
    report["name"] = alg.name
    report["dim"] = alg.dim
    return report


def cmd_mq(args) -> dict:
    g = parse_group_file(_read_text(args.file))
    pres = build_mq(g, args.p, args.e)
    factors = invariant_factors(pres)  # the one Smith form of this command
    order = math.prod(factors)
    kk = g.k()
    filt = verify_filtration(pres, g, factors)
    return {
        "k": kk,
        "q": pres.q,
        "invariant_factors": factors,
        "order": order,
        "order_equals_q_pow_km1": order == pres.q ** (kk - 1),
        "layers": filt["layers"],
        "layers_ok": filt["ok"],
    }


def cmd_zeta_sl2(args) -> dict:
    dm = sl2_degrees(args.q)
    return {
        "q": args.q,
        "count": dm.count(),
        "sum_degree_squares": dm.sum_degree_squares(),
        "degrees": [[d, m] for d, m in dm.entries],
    }


def cmd_zeta_product(args) -> dict:
    spec = _load_factor_spec(args.spec)
    series = product_series(spec, args.N, mode=args.mode)
    checkpoints = series.partial_counts(_checkpoint_grid(series.N))
    if args.emit_plot_data:
        _write_text(args.emit_plot_data, "n,R_n\n" + "".join(
            f"{n},{r}\n" for n, r in checkpoints))
    return {
        "N": series.N,
        "mode": args.mode,
        "exact": series.exact,
        "checkpoints": [[n, r] for n, r in checkpoints],
    }


def cmd_zeta_abscissa(args) -> dict:
    spec = _load_factor_spec(args.spec)
    series = product_series(spec, args.N, mode=args.mode)
    est = abscissa_estimate(series)
    if args.emit_plot_data:
        _write_text(args.emit_plot_data, "n,R_n,log_ratio\n" + "".join(
            f"{n},{r},{ratio:.6f}\n" for n, r, ratio in est.path))
    return {
        "N": series.N,
        "mode": args.mode,
        "estimate": est.estimate,
        "tail_max": est.tail_max,
        "ls_slope": est.ls_slope,
        "checkpoints": [[n, r, ratio] for n, r, ratio in est.path],
    }


def cmd_zeta_target(args) -> dict:
    try:
        c = Fraction(args.c)
        cf = float(c)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValidationError(f"--c must be a rational number in float range, "
                              f"got {args.c!r}") from None
    lie = _parse_lie_type(args.type)
    ts = target_abscissa_spec(c, lie, args.p, imax=args.imax)
    above = ts.akov_partial_sums(cf + 0.1, args.imax)[-1]
    below = ts.akov_partial_sums(cf - 0.1, args.imax)[-1]
    entries = [[i, a, _decimal_digits(f) if f else 0] for i, a, f in ts.entries]
    if args.emit_plot_data:
        _write_text(args.emit_plot_data, "i,a_i,f_digits\n" + "".join(
            f"{i},{a},{digits}\n" for i, a, digits in entries))
    return {
        "c": str(c),
        "type": lie.label,
        "p": args.p,
        "imax": args.imax,
        "n0": ts.n0,
        "entries": entries,
        "partial_sum_above": above,
        "partial_sum_below": below,
    }


def cmd_budget(args) -> dict:
    return asdict(current_budgets())


# ---------------------------------------------------------- verify-corpus --

def _suite_fields() -> dict:
    """On the (q, e) digit array of all of F_q: x^q = x, the trace lands
    on Z/p and onto it, and the Frobenius fixes exactly p elements."""
    checked = []
    for p, e in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]:
        field = make_field(p, e)
        q = field.q
        x = base_p_digits(np.arange(q), p, e).astype(np.int64)
        bad = np.flatnonzero((field.row_power(x, q) != x).any(axis=1))
        if bad.size:
            raise InternalInconsistencyError(f"{field!r}: x^q != x at code {bad[0]}")
        frob = field.row_power(x, p)
        trace, power = x.copy(), frob
        for _ in range(e - 1):
            trace += power
            power = field.row_power(power, p)
        trace %= p
        if trace[:, 1:].any():
            raise InternalInconsistencyError(f"{field!r}: trace did not land in the prime field")
        if set(trace[:, 0].tolist()) != set(range(p)):
            raise InternalInconsistencyError(f"{field!r}: trace not surjective")
        fixed = int((frob == x).all(axis=1).sum())
        if fixed != p:
            raise InternalInconsistencyError(
                f"{field!r}: frobenius fixes {fixed} elements, expected {p}")
        checked.append(f"F{q}")
    return {"fields": checked}


def _suite_groups() -> dict:
    rows = []
    for name in corpus.groups_of_order_le(128):
        g = corpus.group(name)
        classes = g.conjugacy_classes()
        if classes.sizes.sum() != g.order:
            raise InternalInconsistencyError(f"{name}: class sizes do not sum to order")
        derived = g.commutator_subgroup().size
        if g.order % derived:
            raise InternalInconsistencyError(f"{name}: derived order does not divide")
        rows.append({"name": name, "order": g.order, "k": classes.count,
                     "derived_order": derived})
    return {"groups": rows}


def _suite_algebras(extra_files=()) -> dict:
    """The group law on 200 seeded triples per algebra, as one batch of
    digit rows: associative by the engine's route through T, and equal to
    the C route (_c_route_law), which reads neither T nor omega.  An extra
    algebra file is named by its path."""
    import random

    algs = list(corpus.duality_corpus()) + list(corpus.character_corpus())
    for path in extra_files:
        algs.append(parse_algebra_file(_read_text(path), name=path))
    names: list[str] = []
    for alg in algs:
        if alg.name in names:
            continue
        rng = random.Random(0xC0FFEE ^ alg.dim)
        codes = [rng.randrange(alg.field.q ** alg.dim) for _ in range(3 * 200)]
        eng = AlgebraGroup(alg)  # samples 1+J, however large
        rows = base_p_digits(codes, eng.p, eng.n).astype(np.int64).reshape(200, 3, eng.n)
        x, y, z = rows[:, 0], rows[:, 1], rows[:, 2]
        left = eng._gmul_rows(eng._gmul_rows(x, y), z)
        if not np.array_equal(left, eng._gmul_rows(x, eng._gmul_rows(y, z))):
            raise InternalInconsistencyError(f"{alg.name}: gmul not associative")
        if not np.array_equal(left, _c_route_law(alg, _c_route_law(alg, x, y), z)):
            raise InternalInconsistencyError(
                f"{alg.name}: the group law through T disagrees with the C route")
        names.append(alg.name)
    return {"algebras": names}


def _suite_duality() -> dict:
    rows = []
    for alg in [corpus.unitriangular(3, 2), corpus.unitriangular(3, 3),
                corpus.unitriangular(4, 2), corpus.augmentation_ideal("D8", 2),
                corpus.augmentation_ideal("C3", 3)]:
        census = orbit_census(alg)
        eng = engine_for(alg)
        if census.count != eng.k():
            raise InternalInconsistencyError(
                f"{alg.name}: {census.count} orbits but k = {eng.k()}")
        fake_degree_identities(census)
        rows.append({"name": alg.name, "orbits": census.count})
    return {"duality": rows}


def _suite_mq() -> dict:
    anchors = {"C2": [2], "C4": [2, 4]}
    rows = []
    for name, expect in anchors.items():
        pres = build_mq(corpus.group(name), 2, 1)
        got = invariant_factors(pres)
        if got != expect:
            raise InternalInconsistencyError(f"M_2({name}) = {got}, expected {expect}")
        rows.append({"name": name, "invariant_factors": got})
    for name in corpus.groups_of_order_le(32):
        g = corpus.group(name)
        p, _ = prime_power_decompose(g.order)
        order = mq_order(build_mq(g, p, 1))
        if order != p ** (g.k() - 1):
            raise InternalInconsistencyError(f"|M_{p}({name})| != p^(k-1)")
        rows.append({"name": name, "order": order})
    return {"mq": rows}


def _suite_zeta() -> dict:
    for q in [5, 7, 9, 11, 13, 25, 27, 49, 81, 97]:
        sl2_degrees(q)  # self-validating identities
    if divisor_tuple_count(8) != 4 or divisor_tuple_count(12) != 8:
        raise InternalInconsistencyError("divisor tuple anchors failed")
    f = product_series(corpus.zeta_products()["sl2_5"], 2000)
    g = product_series(corpus.zeta_products()["sl2_7"], 2000)
    h = product_series(corpus.zeta_products()["sl2_9"], 2000)
    if dirichlet_product(dirichlet_product(f, g), h) != \
            dirichlet_product(f, dirichlet_product(g, h)):
        raise InternalInconsistencyError("Dirichlet convolution not associative")
    tower = product_series(corpus.zeta_products()["sl2_tower_5"], 4096)
    for n in (2, 4):
        if not prg_witness(tower, corpus.zeta_products()["sl2_tower_5"], n):
            raise InternalInconsistencyError(f"PRG witness failed at n = {n}")
    return {"zeta": "ok"}


_SUITES = {
    "fields": _suite_fields,
    "groups": _suite_groups,
    "algebras": _suite_algebras,
    "duality": _suite_duality,
    "mq": _suite_mq,
    "zeta": _suite_zeta,
}


def cmd_verify_corpus(args) -> dict:
    only = args.only
    if only and only not in _SUITES:
        raise ValidationError(f"unknown suite {only!r}; choose from {sorted(_SUITES)}")
    results = []
    for name, fn in _SUITES.items():
        if only and name != only:
            continue
        t0 = time.monotonic()
        if name == "algebras":
            detail = fn(tuple(args.extra_algebra or []))
        else:
            detail = fn()
        elapsed = time.monotonic() - t0
        results.append({"name": name, "ok": True, "detail": detail})
        print(f"  suite {name:<10} ok   ({elapsed:.1f}s)", file=sys.stderr)
    return {"ok": True, "suites": results}


def cmd_export(args) -> dict:
    try:
        os.makedirs(args.target, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot write {args.target}: {exc}") from None
    written = []

    def emit(name: str, text: str):
        _write_text(os.path.join(args.target, name), text)
        written.append(name)

    alg = corpus.unitriangular(3, 3)
    census = orbit_census(alg)
    orbits = census.reps.tolist(), census.sizes.tolist(), census.fake_degrees.tolist()
    if args.format == "json":
        payload = {
            "algebra": alg.name,
            "orbits": [{"rep": r, "size": s, "fake_degree": d} for r, s, d in zip(*orbits)],
        }
        emit("census_u3_F3.json", _dumps(payload) + "\n")
        table = character_table(alg, census=census)
        payload = {
            "algebra": alg.name,
            "class_reps": table.class_reps.tolist(),
            "values": _character_values(table),
        }
        emit("characters_u3_F3.json", _dumps(payload) + "\n")
        rows = []
        for name in corpus.groups_of_order_le(32):
            g = corpus.group(name)
            p, _ = prime_power_decompose(g.order)
            pres = build_mq(g, p, 1)
            rows.append({"group": name, "p": p, "k": g.k(),
                         "invariant_factors": invariant_factors(pres)})
        emit("mq_corpus.json", _dumps(rows) + "\n")
    else:
        lines = ["rep,size,fake_degree"]
        lines += [f"{r},{s},{d}" for r, s, d in zip(*orbits)]
        emit("census_u3_F3.csv", "\n".join(lines) + "\n")
        series = product_series(corpus.zeta_products()["sl2_tower_5"], 10000)
        lines = ["n,R_n"]
        for n, r in series.partial_counts(_checkpoint_grid(series.N)):
            lines.append(f"{n},{r}")
        emit("series_sl2_tower_5.csv", "\n".join(lines) + "\n")
    return {"target": args.target, "format": args.format, "written": written}


# ------------------------------------------------------------------ main --

_FILE = [("file", {})]
_SERIES = [("spec", {}),
           ("--N", {"type": int, "required": True}),
           ("--mode", {"choices": ("exact", "akov"), "default": "exact"}),
           ("--emit-plot-data", {"metavar": "CSV"})]

# command -> (help, {subcommand, or None for a command without one:
# (payload function, argument specs)}); an argument spec is the name or
# flag and the keywords of add_argument
COMMANDS = {
    "grouptab": ("finite group file queries", {"classes": (cmd_grouptab, _FILE)}),
    "nilalg": ("nilpotent algebra file queries", {"info": (cmd_nilalg_info, _FILE)}),
    "algroup": ("the group 1+J by brute force", {
        "classes": (cmd_algroup, _FILE),
        "abelianization": (cmd_algroup, _FILE)}),
    "orbits": ("coadjoint orbit census and characters", {
        "census": (cmd_orbits_census, _FILE),
        "characters": (cmd_orbits_characters, _FILE),
        "probe": (cmd_orbits_probe, _FILE)}),
    "mq": ("the module M_q of a p-group", {
        "compute": (cmd_mq, _FILE + [("--p", {"type": int, "required": True}),
                                     ("--e", {"type": int, "default": 1})])}),
    "zeta": ("representation zeta series", {
        "sl2": (cmd_zeta_sl2, [("q", {"type": int})]),
        "product": (cmd_zeta_product, _SERIES),
        "abscissa": (cmd_zeta_abscissa, _SERIES),
        "target": (cmd_zeta_target, [
            ("--c", {"required": True, "help": "target abscissa, a rational like 1/2"}),
            ("--type", {"default": "A1", "help": "Lie type label, e.g. A1, A3, B3"}),
            ("--p", {"type": int, "required": True}),
            ("--imax", {"type": int, "default": 40}),
            ("--emit-plot-data", {"metavar": "CSV"})])}),
    "budget": ("print the effective budgets", {None: (cmd_budget, [])}),
    "verify-corpus": ("run the cross-module invariant suites", {None: (cmd_verify_corpus, [
        ("--only", {"help": "restrict to one suite"}),
        ("--extra-algebra", {"action": "append", "metavar": "FILE",
                             "help": "include an algebra file in the associativity suite"})])}),
    "export": ("write corpus tables to a directory", {None: (cmd_export, [
        ("--target", {"required": True}),
        ("--format", {"choices": ("json", "csv"), "default": "json"})])}),
}

# the options of every leaf, after its own
_COMMON = [("--budget-config", {"help": "flat key=value budget file"}),
           ("--set", {"action": "append", "metavar": "KEY=VALUE",
                      "help": "override a single budget (repeatable)"}),
           ("--manifest", {"help": "write a run manifest JSON to this path"}),
           ("--out", {"help": "write the JSON payload here instead of stdout"})]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitzeta",
        description="Coadjoint orbits of algebra groups, M_q invariants and "
                    "representation zeta series at desk scale.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, leaves) in COMMANDS.items():
        top = subs.add_parser(command, help=help_text)
        if None not in leaves:
            nested = top.add_subparsers(dest="sub", required=True)
        for sub, (func, specs) in leaves.items():
            leaf = top if sub is None else nested.add_parser(sub)
            for name, kwargs in specs + _COMMON:
                leaf.add_argument(name, **kwargs)
            leaf.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    try:
        with budget_scope(_effective_budgets(args)):
            text = _dumps(args.func(args)) + "\n"
            if args.out:
                _write_text(args.out, text)
            else:
                sys.stdout.write(text)
            if args.manifest:
                _write_text(args.manifest, _dumps(_manifest(args, argv, t0)) + "\n")
    except ToolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


def _manifest(args, argv, t0: float) -> dict:
    inputs = {}
    for attr in ("file", "spec", "budget_config"):
        path = getattr(args, attr, None)
        if path and os.path.exists(path):
            inputs[path] = _sha256(path)
    return {
        "command": argv if argv is not None else sys.argv[1:],
        "inputs": inputs,
        "budgets": asdict(current_budgets()),
        "seed": "fixed (seeded spot checks only; see module constants)",
        "version": __version__,
        "timing_ms": round(1000 * (time.monotonic() - t0), 3),
    }


if __name__ == "__main__":
    sys.exit(main())
