"""Span and counter recorder for the traced benchmark run.

`Tracer.install()` wraps the public functions and methods of each layer
module of `orbitzeta` from outside the package: every wrapper records a
span (name, start, end, parent) in memory.  A module that imported a
function by name (`from .linalg import rref_fq`) holds its own reference,
so the wrapper replaces the name in every module of the package that binds
it.  Small value-type methods called millions of times (field elements,
algebra vectors, cyclotomic numbers, single products) get no span, so their
time lands in the self time of the layer that calls them; two of them are
counted instead.  `uninstall()` puts every original back.

Only the traced run imports this module; the timed runs execute none of it.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("ffield", "linalg", "nilalg", "algroup", "coadjoint", "grouptab",
          "bogomod", "zetalab", "cli")

# value types: no span on any of their methods (nor on private classes)
_UNSPANNED_CLASSES = {"FieldElement", "AlgVector", "CyclotomicValue",
                      "DualFunctional", "ClassData", "OrbitPartition",
                      "OrbitRecord", "CensusResult", "CharacterTable",
                      "MqPresentation", "DegreeMultiset", "LieTypeSpec",
                      "FactorSpec", "AbscissaEstimate", "MinDegreeBound",
                      "TargetSpec"}
# per-element helpers called from inner loops
_UNSPANNED = {
    "ffield.is_prime", "ffield.Field.element", "ffield.Field.from_code",
    "ffield.Field.from_int", "ffield.Field.elements", "ffield.Field.t",
    "nilalg.NilAlgebra.zero_vector", "nilalg.NilAlgebra.basis_vector",
    "nilalg.NilAlgebra.prime_basis_vector", "nilalg.NilAlgebra.vector",
    "nilalg.NilAlgebra.from_flat", "nilalg.NilAlgebra.unpack",
    "nilalg.NilAlgebra.iter_vectors", "nilalg.NilAlgebra.multiply",
    "nilalg.NilAlgebra.power_basis", "nilalg.NilAlgebra.is_p_nilpotent",
    "algroup.gmul", "algroup.ginv", "algroup.gconj", "algroup.gcomm",
    "algroup.gexp", "algroup.glog", "algroup.AlgebraGroup.pack_digits",
    "algroup.AlgebraGroup.vector_digits", "algroup.AlgebraGroup.unpack",
    "grouptab.FiniteGroupTable.inverse", "grouptab.FiniteGroupTable.power",
    "grouptab.FiniteGroupTable.conjugate", "grouptab.FiniteGroupTable.commutator",
    "grouptab.FiniteGroupTable.element_order", "grouptab.FiniteGroupTable.is_central",
    "zetalab.TruncatedDirichlet.r", "zetalab.TruncatedDirichlet.identity",
    "zetalab.integer_root",
}
# counted, not spanned
_COUNTED = {
    "ffield.FieldElement.__mul__": "ffield.mul_calls",
    "grouptab.FiniteGroupTable.mult": "grouptab.mult_calls",
}
# constructors that mark a layer boundary
_SPANNED_INIT = {"NilAlgebra", "AlgebraGroup", "Field"}

# (metric, unit, span names): inclusive wall time of the outermost spans of
# the group (a span inside another span of the same group is not counted
# twice), or the number of those spans
SPAN_METRICS = [
    ("linalg.rref_fq_s", "s", ["linalg.rref_fq"]),
    ("linalg.rref_fq_calls", "count", ["linalg.rref_fq"]),
    ("linalg.nullspace_s", "s", ["linalg.nullspace_mod_p",
                                 "linalg.rank_nullspace_mod2_packed"]),
    ("nilalg.construct_s", "s", ["nilalg.NilAlgebra.__init__",
                                 "nilalg.parse_algebra_file"]),
    ("nilalg.construct_calls", "count", ["nilalg.NilAlgebra.__init__",
                                         "nilalg.parse_algebra_file"]),
    ("nilalg.derived_lie_s", "s", ["nilalg.NilAlgebra.derived_lie_subspace"]),
    ("nilalg.flag_s", "s", ["nilalg.NilAlgebra.refine_to_flag"]),
    ("nilalg.subalgebra_s", "s", ["nilalg.NilAlgebra.subalgebra"]),
    ("algroup.engine_init_s", "s", ["algroup.AlgebraGroup.__init__"]),
    ("algroup.engines_built", "count", ["algroup.AlgebraGroup.__init__"]),
    ("algroup.bulk_gmul_s", "s", ["algroup.AlgebraGroup.bulk_gmul"]),
    ("algroup.bulk_gmul_calls", "count", ["algroup.AlgebraGroup.bulk_gmul"]),
    ("algroup.perms_s", "s", ["algroup.AlgebraGroup.group_perms",
                              "algroup.AlgebraGroup.dual_perms"]),
    ("algroup.orbit_partition_s", "s", ["algroup.orbit_partition"]),
    ("algroup.commutator_subgroup_s", "s",
     ["algroup.AlgebraGroup.commutator_subgroup_packed"]),
    ("coadjoint.census_s", "s", ["coadjoint.orbit_census"]),
    ("coadjoint.radical_s", "s", ["coadjoint.radical_of", "coadjoint.radical"]),
    ("coadjoint.character_table_s", "s", ["coadjoint.character_table"]),
    ("coadjoint.orthonormality_s", "s", ["coadjoint.orthonormality_check"]),
    ("coadjoint.max_isotropic_s", "s", ["coadjoint.max_isotropic_subalgebra"]),
    ("coadjoint.induced_s", "s", ["coadjoint.induced_character_values",
                                  "coadjoint.verify_induced_matches_orbit"]),
    ("grouptab.build_s", "s", ["grouptab.parse_group_file",
                               "grouptab.FiniteGroupTable.from_cayley_table",
                               "grouptab.FiniteGroupTable.from_power_commutator"]),
    ("grouptab.classes_s", "s", ["grouptab.FiniteGroupTable.conjugacy_classes"]),
    ("grouptab.commutator_subgroup_s", "s",
     ["grouptab.FiniteGroupTable.commutator_subgroup"]),
    ("bogomod.build_mq_s", "s", ["bogomod.build_mq"]),
    ("bogomod.smith_s", "s", ["bogomod.smith_valuations"]),
    ("bogomod.frobenius_s", "s", ["bogomod.frobenius_matrix"]),
    ("zetalab.convolve_s", "s", ["zetalab.dirichlet_product"]),
    ("zetalab.convolve_calls", "count", ["zetalab.dirichlet_product"]),
    ("zetalab.abscissa_s", "s", ["zetalab.abscissa_estimate"]),
    ("zetalab.synthetic_s", "s", ["zetalab.synthetic_power_series"]),
]
COUNTER_METRICS = [(metric, "count") for metric in _COUNTED.values()]
# self time of every span of a layer: its duration minus its child spans
SELF_METRICS = [(f"{layer}.self_s", "s") for layer in LAYERS if layer != "cli"]
SELF_METRICS.append(("cli.main_self_s", "s"))


def self_times(spans) -> list[float]:
    """Per span: duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def outermost(spans, names) -> list[int]:
    """Indices of spans in the name group with no ancestor in the group."""
    group = set(names)
    keep = []
    for i, (name, _, _, parent) in enumerate(spans):
        if name not in group:
            continue
        while parent >= 0 and spans[parent][0] not in group:
            parent = spans[parent][3]
        if parent < 0:
            keep.append(i)
    return keep


def layer_metrics(spans, counts, rounds: int) -> dict[str, dict]:
    """Per-layer metrics per round, from spans and counters of `rounds`
    traced rounds."""
    out = {}
    for metric, unit, names in SPAN_METRICS:
        idx = outermost(spans, names)
        if unit == "count":
            value = len(idx) / rounds
        else:
            value = sum(spans[i][2] - spans[i][1] for i in idx) / rounds
        out[metric] = {"value": value, "unit": unit}
    for metric, unit in COUNTER_METRICS:
        out[metric] = {"value": counts.get(metric, 0) / rounds, "unit": unit}
    own = self_times(spans)
    per_layer = {layer: 0.0 for layer in LAYERS}
    for (name, _, _, _), t in zip(spans, own):
        per_layer[name.split(".", 1)[0]] += t
    for metric, unit in SELF_METRICS:
        out[metric] = {"value": per_layer[metric.split(".", 1)[0]] / rounds,
                       "unit": unit}
    return out


class Tracer:
    """Wraps the layer modules of a package; spans and counts stay in memory."""

    def __init__(self, package: str = "orbitzeta"):
        self.package = package
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrappers --

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
        return wrapper

    def _counter(self, key: str, fn):
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    def _wrap(self, name: str, fn):
        if name in _COUNTED:
            return self._counter(_COUNTED[name], fn)
        return self._span(name, fn)

    def _methods(self, layer: str, cls):
        """(attribute, raw class attribute, function) of each method to wrap."""
        for attr, raw in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if not inspect.isfunction(fn):
                continue
            if name in _COUNTED:
                yield attr, raw, fn
            elif cls.__name__.startswith("_") or cls.__name__ in _UNSPANNED_CLASSES \
                    or name in _UNSPANNED:
                continue
            elif attr == "__init__" and cls.__name__ in _SPANNED_INIT:
                yield attr, raw, fn
            elif not attr.startswith("_"):
                yield attr, raw, fn

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        functions = {}
        for layer in LAYERS:
            mod = sys.modules[f"{self.package}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    if name not in _UNSPANNED:
                        functions[obj] = self._wrap(name, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for method, raw, fn in self._methods(layer, obj):
                        wrapped = self._wrap(f"{layer}.{obj.__name__}.{method}", fn)
                        if isinstance(raw, (classmethod, staticmethod)):
                            wrapped = type(raw)(wrapped)
                        self._undo.append((obj, method, raw))
                        setattr(obj, method, wrapped)
        # rebind every module-level name that refers to a wrapped function
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == self.package
                                   or modname.startswith(self.package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in functions:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, functions[obj])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -------------------------------------------------------------- output --

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counts": self.counts}, fh)
