"""Resource budgets for the enumeration-heavy computations.

Every brute-force routine checks its input size against one of these limits
before allocating anything; violations raise BudgetError naming the limit.
Budgets come from defaults, an optional flat key=value config file, and
command line overrides, in that order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace, fields

from .errors import ValidationError


@dataclass(frozen=True)
class Budgets:
    field_q_max: int = 2**20          # largest F_q constructible
    table_order_max: int = 4096       # dense Cayley table storage
    group_enumeration_max: int = 2**22  # elements of 1+J enumerated
    series_cutoff_max: int = 10**6    # truncation length of Dirichlet series
    # Dirichlet products of one product_series: twice the most the tests and
    # the benchmark run, 256 for three SL2 factors of multiplicity near 2^64
    series_products_max: int = 2**9
    target_terms_max: int = 2**14     # indices i of the target-abscissa builder
    character_table_max: int = 2**22  # entries orbits x classes x p of a character table


DEFAULT_BUDGETS = Budgets()

_INT_FIELDS = {f.name for f in fields(Budgets)}


def get_budgets(budgets: Budgets | None) -> Budgets:
    return DEFAULT_BUDGETS if budgets is None else budgets


def check_budget(budgets: Budgets | None, name: str, needed: int) -> None:
    from .errors import BudgetError

    b = get_budgets(budgets)
    limit = getattr(b, name)
    if needed > limit:
        raise BudgetError(name, needed, limit)


def parse_budget_config(text: str, base: Budgets | None = None) -> Budgets:
    """Parse a flat key=value config (one per line, # comments)."""
    out = get_budgets(base)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"budget config line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _INT_FIELDS:
            raise ValidationError(f"budget config line {lineno}: unknown key {key!r}")
        try:
            ivalue = int(value.strip())
        except ValueError:
            raise ValidationError(f"budget config line {lineno}: {value.strip()!r} is not an integer")
        if ivalue <= 0:
            raise ValidationError(f"budget config line {lineno}: {key} must be positive")
        out = replace(out, **{key: ivalue})
    return out
