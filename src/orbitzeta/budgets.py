"""Resource budgets for the enumeration-heavy computations.

Every brute-force routine checks its input size against one of these limits
before allocating anything; violations raise BudgetError naming the limit.
Budgets come from defaults, an optional flat key=value config file, and
command line overrides, in that order.  The checks read the budgets of the
innermost budget_scope; outside every scope they read DEFAULT_BUDGETS.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace, fields

from .errors import BudgetError, ValidationError


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

_CURRENT: ContextVar[Budgets] = ContextVar("orbitzeta_budgets", default=DEFAULT_BUDGETS)


def current_budgets() -> Budgets:
    """The budgets of the innermost budget_scope, or DEFAULT_BUDGETS."""
    return _CURRENT.get()


@contextmanager
def budget_scope(b: Budgets):
    """Every budget check inside the with block reads b."""
    token = _CURRENT.set(b)
    try:
        yield
    finally:
        _CURRENT.reset(token)


def check_budget(name: str, needed: int) -> None:
    limit = getattr(_CURRENT.get(), name)
    if needed > limit:
        raise BudgetError(name, needed, limit)


def check_power_budget(name: str, p: int, n: int) -> None:
    """Bound p^n by the named budget without forming p^n when n alone puts
    it past the limit: for |p| >= 2, p^n >= 2^n."""
    limit = getattr(_CURRENT.get(), name)
    if abs(p) > 1 and n > limit.bit_length():
        raise BudgetError(name, f"{p}^{n}", limit)
    check_budget(name, p**n)


def parse_budget_config(text: str, base: Budgets = DEFAULT_BUDGETS) -> Budgets:
    """Parse a flat key=value config (one per line, # comments)."""
    out = base
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
