"""Command line surface.

Subcommands mirror the library modules: grouptab, nilalg, algroup, orbits,
mq, zeta, plus budget, verify-corpus and export.  JSON on stdout is the
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
from .algroup import AlgebraGroup
from .bogomod import build_mq, invariant_factors, mq_order, verify_filtration
from .budgets import Budgets, get_budgets, parse_budget_config
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
    budgets = None
    if getattr(args, "budget_config", None):
        budgets = parse_budget_config(_read_text(args.budget_config))
    for setting in getattr(args, "set", None) or []:
        budgets = parse_budget_config(setting, base=budgets)
    return get_budgets(budgets)


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
    distinct reduced value."""
    den, vec = table.reduced()
    flat = np.concatenate([den[..., None], vec], axis=2).reshape(-1, vec.shape[2] + 1)
    distinct, inverse = np.unique(flat, axis=0, return_inverse=True)
    leaves = [{"den": row[0], "vec": row[1:]} for row in distinct.tolist()]
    return [[leaves[j] for j in cells]
            for cells in inverse.reshape(den.shape).tolist()]


# --------------------------------------------------------------- payloads --

def cmd_grouptab(args) -> dict:
    budgets = _effective_budgets(args)
    g = parse_group_file(_read_text(args.file), budgets)
    classes = g.conjugacy_classes(budgets)
    return {
        "order": g.order,
        "k": classes.count,
        "class_sizes": sorted(classes.sizes),
        "derived_order": len(g.commutator_subgroup()),
    }


def cmd_nilalg_info(args) -> dict:
    budgets = _effective_budgets(args)
    alg = parse_algebra_file(_read_text(args.file), budgets)
    derived_rows, _ = alg.derived_lie_subspace()
    return {
        "dim": alg.dim,
        "class": alg.nilpotency_class,
        "derived_dim": len(derived_rows) // alg.field.e,
        "p_nilpotent": alg.is_p_nilpotent(),
    }


def cmd_algroup(args) -> dict:
    budgets = _effective_budgets(args)
    alg = parse_algebra_file(_read_text(args.file), budgets)
    eng = AlgebraGroup(alg, budgets)
    return {
        "group_order": eng.N,
        "k": eng.k(),
        "abelianization_order": eng.abelianization_order(),
    }


def cmd_orbits_census(args) -> dict:
    budgets = _effective_budgets(args)
    alg = parse_algebra_file(_read_text(args.file), budgets)
    census = orbit_census(alg, budgets)
    sizes, counts = np.unique(census.sizes, return_counts=True)
    return {
        "group_order": census.alg.field.q ** census.alg.dim,
        "orbit_count": census.count,
        "sizes_histogram": dict(zip(map(str, sizes.tolist()), counts.tolist())),
        "fake_degrees": [[d, m] for d, m in census.fake_degree_multiset()],
        "fixed_points": census.fixed_points,
        "identities": fake_degree_identities(census),
    }


def cmd_orbits_characters(args) -> dict:
    budgets = _effective_budgets(args)
    alg = parse_algebra_file(_read_text(args.file), budgets)
    table = character_table(alg, budgets)
    return {
        "k": table.k,
        "class_reps": [int(c) for c in table.class_reps],
        "class_sizes": [int(s) for s in table.class_sizes],
        "orbits": [
            {"rep": int(rep), "degree": int(degree), "values": values}
            for rep, degree, values in zip(table.orbit_reps, table.fake_degrees,
                                           _character_values(table))
        ],
    }


def cmd_orbits_probe(args) -> dict:
    budgets = _effective_budgets(args)
    alg = parse_algebra_file(_read_text(args.file), budgets)
    report = conjecture_probe(alg, budgets)
    report["name"] = alg.name
    report["dim"] = alg.dim
    return report


def cmd_mq(args) -> dict:
    budgets = _effective_budgets(args)
    g = parse_group_file(_read_text(args.file), budgets)
    pres = build_mq(g, args.p, args.e, budgets=budgets)
    factors = invariant_factors(pres)  # the one Smith form of this command
    order = math.prod(factors)
    kk = g.k(budgets)
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
    budgets = _effective_budgets(args)
    spec = _load_factor_spec(args.spec)
    series = product_series(spec, args.N, mode=args.mode, budgets=budgets)
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
    budgets = _effective_budgets(args)
    spec = _load_factor_spec(args.spec)
    series = product_series(spec, args.N, mode=args.mode, budgets=budgets)
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
    ts = target_abscissa_spec(c, lie, args.p, imax=args.imax,
                              budgets=_effective_budgets(args))
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
    budgets = _effective_budgets(args)
    out = asdict(budgets)
    out["threads"] = args.threads
    return out


# ---------------------------------------------------------- verify-corpus --

def _suite_fields(budgets) -> dict:
    checked = []
    for p, e in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]:
        field = make_field(p, e, budgets)
        q = field.q
        traces = set()
        fixed = 0
        for x in field.elements():
            if x ** q != x:
                raise InternalInconsistencyError(f"{field!r}: x^q != x at {x!r}")
            traces.add(x.trace())
            if x.frobenius() == x:
                fixed += 1
        if traces != set(range(p)):
            raise InternalInconsistencyError(f"{field!r}: trace not surjective")
        if fixed != p:
            raise InternalInconsistencyError(
                f"{field!r}: frobenius fixes {fixed} elements, expected {p}")
        checked.append(f"F{q}")
    return {"fields": checked}


def _suite_groups(budgets) -> dict:
    rows = []
    for name in corpus.groups_of_order_le(128):
        g = corpus.group(name)
        classes = g.conjugacy_classes(budgets)
        if sum(classes.sizes) != g.order:
            raise InternalInconsistencyError(f"{name}: class sizes do not sum to order")
        derived = len(g.commutator_subgroup())
        if g.order % derived:
            raise InternalInconsistencyError(f"{name}: derived order does not divide")
        rows.append({"name": name, "order": g.order, "k": classes.count,
                     "derived_order": derived})
    return {"groups": rows}


def _suite_algebras(budgets, extra_files=()) -> dict:
    """gmul is associative on 200 seeded triples per algebra, checked as one
    batch of prime coordinate rows, with the first triple also through the
    scalar route."""
    import random

    from .algroup import gmul

    algs = list(corpus.duality_corpus()) + list(corpus.character_corpus())
    for path in extra_files:
        algs.append(parse_algebra_file(_read_text(path), budgets))
    names: list[str] = []
    for alg in algs:
        if alg.name in names:
            continue
        rng = random.Random(0xC0FFEE ^ alg.dim)
        codes = [rng.randrange(alg.field.q ** alg.dim) for _ in range(3 * 200)]
        eng = AlgebraGroup(alg, budgets)  # samples 1+J, however large
        rows = base_p_digits(codes, eng.p, eng.n).astype(np.int64).reshape(200, 3, eng.n)
        x, y, z = rows[:, 0], rows[:, 1], rows[:, 2]
        left = eng._gmul_rows(eng._gmul_rows(x, y), z)
        if not np.array_equal(left, eng._gmul_rows(x, eng._gmul_rows(y, z))):
            raise InternalInconsistencyError(f"{alg.name}: gmul not associative")
        u, v, w = (alg.unpack(c) for c in codes[:3])
        if gmul(gmul(u, v), w).flat() != tuple(left[0].tolist()):
            raise InternalInconsistencyError(f"{alg.name}: batched gmul disagrees with gmul")
        names.append(alg.name)
    return {"algebras": names}


def _suite_duality(budgets) -> dict:
    rows = []
    for alg in [corpus.unitriangular(3, 2), corpus.unitriangular(3, 3),
                corpus.unitriangular(4, 2), corpus.augmentation_ideal("D8", 2),
                corpus.augmentation_ideal("C3", 3)]:
        census = orbit_census(alg, budgets)
        eng = engine_for(alg, budgets)
        if census.count != eng.k():
            raise InternalInconsistencyError(
                f"{alg.name}: {census.count} orbits but k = {eng.k()}")
        fake_degree_identities(census)
        rows.append({"name": alg.name, "orbits": census.count})
    return {"duality": rows}


def _suite_mq(budgets) -> dict:
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
        if order != p ** (g.k(budgets) - 1):
            raise InternalInconsistencyError(f"|M_{p}({name})| != p^(k-1)")
        rows.append({"name": name, "order": order})
    return {"mq": rows}


def _suite_zeta(budgets) -> dict:
    for q in [5, 7, 9, 11, 13, 25, 27, 49, 81, 97]:
        sl2_degrees(q)  # self-validating identities
    if divisor_tuple_count(8) != 4 or divisor_tuple_count(12) != 8:
        raise InternalInconsistencyError("divisor tuple anchors failed")
    f = product_series(corpus.zeta_products()["sl2_5"], 2000, budgets=budgets)
    g = product_series(corpus.zeta_products()["sl2_7"], 2000, budgets=budgets)
    h = product_series(corpus.zeta_products()["sl2_9"], 2000, budgets=budgets)
    if dirichlet_product(dirichlet_product(f, g), h) != \
            dirichlet_product(f, dirichlet_product(g, h)):
        raise InternalInconsistencyError("Dirichlet convolution not associative")
    tower = product_series(corpus.zeta_products()["sl2_tower_5"], 4096, budgets=budgets)
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
    budgets = _effective_budgets(args)
    only = args.only
    if only and only not in _SUITES:
        raise ValidationError(f"unknown suite {only!r}; choose from {sorted(_SUITES)}")
    results = []
    for name, fn in _SUITES.items():
        if only and name != only:
            continue
        t0 = time.monotonic()
        if name == "algebras":
            detail = fn(budgets, tuple(args.extra_algebra or []))
        else:
            detail = fn(budgets)
        elapsed = time.monotonic() - t0
        results.append({"name": name, "ok": True, "detail": detail})
        print(f"  suite {name:<10} ok   ({elapsed:.1f}s)", file=sys.stderr)
    return {"ok": True, "suites": results}


def cmd_export(args) -> dict:
    budgets = _effective_budgets(args)
    try:
        os.makedirs(args.target, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot write {args.target}: {exc}") from None
    written = []

    def emit(name: str, text: str):
        _write_text(os.path.join(args.target, name), text)
        written.append(name)

    alg = corpus.unitriangular(3, 3)
    census = orbit_census(alg, budgets)
    orbits = census.reps.tolist(), census.sizes.tolist(), census.fake_degrees.tolist()
    if args.format == "json":
        payload = {
            "algebra": alg.name,
            "orbits": [{"rep": r, "size": s, "fake_degree": d} for r, s, d in zip(*orbits)],
        }
        emit("census_u3_F3.json", _dumps(payload) + "\n")
        table = character_table(alg, budgets, census=census)
        payload = {
            "algebra": alg.name,
            "class_reps": [int(c) for c in table.class_reps],
            "values": _character_values(table),
        }
        emit("characters_u3_F3.json", _dumps(payload) + "\n")
        rows = []
        for name in corpus.groups_of_order_le(32):
            g = corpus.group(name)
            p, _ = prime_power_decompose(g.order)
            pres = build_mq(g, p, 1)
            rows.append({"group": name, "p": p, "k": g.k(budgets),
                         "invariant_factors": invariant_factors(pres)})
        emit("mq_corpus.json", _dumps(rows) + "\n")
    else:
        lines = ["rep,size,fake_degree"]
        lines += [f"{r},{s},{d}" for r, s, d in zip(*orbits)]
        emit("census_u3_F3.csv", "\n".join(lines) + "\n")
        series = product_series(corpus.zeta_products()["sl2_tower_5"], 10000,
                                budgets=budgets)
        lines = ["n,R_n"]
        for n, r in series.partial_counts(_checkpoint_grid(series.N)):
            lines.append(f"{n},{r}")
        emit("series_sl2_tower_5.csv", "\n".join(lines) + "\n")
    return {"target": args.target, "format": args.format, "written": written}


# ------------------------------------------------------------------ main --

def _common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--budget-config", help="flat key=value budget file")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a single budget (repeatable)")
    sub.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                     help="worker threads (current implementation is serial; "
                          "accepted so pipelines can pass it uniformly)")
    sub.add_argument("--manifest", help="write a run manifest JSON to this path")
    sub.add_argument("--out", help="write the JSON payload here instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitzeta",
        description="Coadjoint orbits of algebra groups, M_q invariants and "
                    "representation zeta series at desk scale.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("grouptab", help="finite group file queries")
    gsubs = p.add_subparsers(dest="sub", required=True)
    for sub_name in ("classes", "derived"):
        sp = gsubs.add_parser(sub_name)
        sp.add_argument("file")
        _common(sp)
        sp.set_defaults(func=cmd_grouptab)

    p = subs.add_parser("nilalg", help="nilpotent algebra file queries")
    nsubs = p.add_subparsers(dest="sub", required=True)
    sp = nsubs.add_parser("info")
    sp.add_argument("file")
    _common(sp)
    sp.set_defaults(func=cmd_nilalg_info)

    p = subs.add_parser("algroup", help="the group 1+J by brute force")
    asubs = p.add_subparsers(dest="sub", required=True)
    for sub_name in ("classes", "abelianization"):
        sp = asubs.add_parser(sub_name)
        sp.add_argument("file")
        _common(sp)
        sp.set_defaults(func=cmd_algroup)

    p = subs.add_parser("orbits", help="coadjoint orbit census and characters")
    osubs = p.add_subparsers(dest="sub", required=True)
    sp = osubs.add_parser("census")
    sp.add_argument("file")
    _common(sp)
    sp.set_defaults(func=cmd_orbits_census)
    sp = osubs.add_parser("characters")
    sp.add_argument("file")
    _common(sp)
    sp.set_defaults(func=cmd_orbits_characters)
    sp = osubs.add_parser("probe")
    sp.add_argument("file")
    _common(sp)
    sp.set_defaults(func=cmd_orbits_probe)

    p = subs.add_parser("mq", help="the module M_q of a p-group")
    msubs = p.add_subparsers(dest="sub", required=True)
    sp = msubs.add_parser("compute")
    sp.add_argument("file")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--e", type=int, default=1)
    _common(sp)
    sp.set_defaults(func=cmd_mq)

    p = subs.add_parser("zeta", help="representation zeta series")
    zsubs = p.add_subparsers(dest="sub", required=True)
    sp = zsubs.add_parser("sl2")
    sp.add_argument("q", type=int)
    _common(sp)
    sp.set_defaults(func=cmd_zeta_sl2)
    sp = zsubs.add_parser("product")
    sp.add_argument("spec")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--mode", choices=("exact", "akov"), default="exact")
    sp.add_argument("--emit-plot-data", metavar="CSV")
    _common(sp)
    sp.set_defaults(func=cmd_zeta_product)
    sp = zsubs.add_parser("abscissa")
    sp.add_argument("spec")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--mode", choices=("exact", "akov"), default="exact")
    sp.add_argument("--emit-plot-data", metavar="CSV")
    _common(sp)
    sp.set_defaults(func=cmd_zeta_abscissa)
    sp = zsubs.add_parser("target")
    sp.add_argument("--c", required=True, help="target abscissa, a rational like 1/2")
    sp.add_argument("--type", default="A1", help="Lie type label, e.g. A1, A3, B3")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--imax", type=int, default=40)
    sp.add_argument("--emit-plot-data", metavar="CSV")
    _common(sp)
    sp.set_defaults(func=cmd_zeta_target)

    sp = subs.add_parser("budget", help="print the effective budgets")
    _common(sp)
    sp.set_defaults(func=cmd_budget)

    sp = subs.add_parser("verify-corpus", help="run the cross-module invariant suites")
    sp.add_argument("--only", help="restrict to one suite")
    sp.add_argument("--extra-algebra", action="append", metavar="FILE",
                    help="include an algebra file in the associativity suite")
    _common(sp)
    sp.set_defaults(func=cmd_verify_corpus)

    sp = subs.add_parser("export", help="write corpus tables to a directory")
    sp.add_argument("--target", required=True)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    _common(sp)
    sp.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    try:
        text = _dumps(args.func(args)) + "\n"
        if getattr(args, "out", None):
            _write_text(args.out, text)
        else:
            sys.stdout.write(text)
        if getattr(args, "manifest", None):
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
        "budgets": asdict(_effective_budgets(args)),
        "seed": "fixed (seeded spot checks only; see module constants)",
        "version": __version__,
        "timing_ms": round(1000 * (time.monotonic() - t0), 3),
    }


if __name__ == "__main__":
    sys.exit(main())
