import itertools
import json
import math
import random
import re
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitzeta import corpus
from orbitzeta.algroup import AlgebraGroup
from orbitzeta.budgets import Budgets, budget_scope
from orbitzeta.cli import main
from orbitzeta.errors import BudgetError, InternalInconsistencyError, ValidationError
from orbitzeta.ffield import prime_power_decompose
from orbitzeta.grouptab import (FiniteGroupTable, OrbitPartition, _check_pc_relations, _close,
                                _PcPresentation, central_quotient, derived_subgroup,
                                direct_product, parse_group_file, serialize_cayley)


def element_orders(g: FiniteGroupTable) -> np.ndarray:
    """The order of every element, by a walk of the table: x, x^2, ..., each
    until it reaches the identity."""
    x = np.arange(g.order)
    power, orders = x.copy(), np.ones(g.order, dtype=np.int64)
    while (moving := power != g.identity).any():
        power[moving] = g.table[power[moving], x[moving]]
        orders += moving
    return orders


def order_profile(g: FiniteGroupTable) -> dict:
    return dict(Counter(element_orders(g).tolist()))


def exponent(g: FiniteGroupTable) -> int:
    return math.lcm(*element_orders(g).tolist())


def test_s3_from_permutations():
    # the Cayley table of all permutations of three points, x then y
    perms = list(itertools.permutations(range(3)))
    table = [[perms.index(tuple(y[v] for v in x)) for y in perms] for x in perms]
    g = FiniteGroupTable.from_cayley_table(table)
    assert g.order == 6
    classes = g.conjugacy_classes()
    assert classes.count == 3
    assert sorted(classes.sizes) == [1, 2, 3]
    assert len(g.commutator_subgroup()) == 3
    assert g.abelianization_order() == 2
    assert exponent(g) == 6
    assert g.center_size() == 1


def test_klein_four_cayley_table():
    # xor table
    table = [[i ^ j for j in range(4)] for i in range(4)]
    g = FiniteGroupTable.from_cayley_table(table)
    assert g.order == 4
    assert g.k() == 4
    assert exponent(g) == 2
    assert all(g.inverse(x) == x for x in range(4))


def test_cayley_table_validation():
    with pytest.raises(ValidationError):
        FiniteGroupTable.from_cayley_table([[0, 1], [1, 1]])  # not Latin
    with pytest.raises(ValidationError):
        FiniteGroupTable.from_cayley_table([[0, 1, 2], [1, 2, 0]])  # not square
    # subtraction mod 3: Latin but no two-sided identity
    with pytest.raises(ValidationError):
        FiniteGroupTable.from_cayley_table([[(i - j) % 3 for j in range(3)] for i in range(3)])
    # smallest nonassociative loop: Latin square with identity, order 5
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(ValidationError, match="associativity"):
        FiniteGroupTable.from_cayley_table(loop)


def _random_loop(m, rng):
    """A random Latin square of order m with identity 0 (first row and column
    0..m-1), filled cell by cell with random backtracking."""
    table = np.zeros((m, m), dtype=int)
    table[0], table[:, 0] = np.arange(m), np.arange(m)
    cells = [(i, j) for i in range(1, m) for j in range(1, m)]

    def fill(c):
        if c == len(cells):
            return True
        i, j = cells[c]
        used = set(table[i, :j]) | set(table[:i, j])
        for v in rng.sample(range(m), m):
            if v not in used:
                table[i, j] = v
                if fill(c + 1):
                    return True
        return False

    assert fill(0)
    return table


def _first_nonassociative_triple(table):
    """The least (i, j, k) with (i j) k != i (j k), by the whole m^3 cube."""
    table = np.asarray(table)
    bad = np.argwhere(table[table] != table[:, table])
    return tuple(int(x) for x in bad[0]) if bad.size else None


_SMALL_GROUPS = [name for name, order in corpus.GROUP_ORDERS.items() if order <= 8]


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       group=st.sampled_from([None, None] + _SMALL_GROUPS))
def test_loops_are_accepted_exactly_when_the_cube_check_passes(m, seed, group):
    # random loops of order <= 8 (every loop of order <= 4 is a group), and
    # corpus groups of order <= 8 under a random relabelling
    rng = random.Random(seed)
    if group is None:
        table = _random_loop(m, rng)
    else:
        base = corpus.group(group).table
        relabel = np.array(rng.sample(range(len(base)), len(base)))
        table = np.empty_like(base)
        table[np.ix_(relabel, relabel)] = relabel[base]
    want = _first_nonassociative_triple(table)
    if want is None:
        assert FiniteGroupTable.from_cayley_table(table.tolist()).order == len(table)
    else:
        with pytest.raises(ValidationError, match=r"^associativity fails at triple "
                           rf"\({want[0]},{want[1]},{want[2]}\)$"):
            FiniteGroupTable.from_cayley_table(table.tolist())


def _reference_cayley_parse(text):
    """parse_group_file on a Cayley file, one row at a time."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    m = int(lines[0].split()[1])
    if len(lines) != m + 1:
        raise ValidationError(f"expected {m} table rows, got {len(lines) - 1}")
    table = []
    for ln in lines[1:]:
        try:
            row = [int(x) for x in ln.split()]
        except ValueError:
            raise ValidationError(f"non-integer token in group file line {ln!r}") from None
        if len(row) != m:
            raise ValidationError(f"table row has {len(row)} entries, expected {m}")
        table.append(row)
    return FiniteGroupTable.from_cayley_table(table)


# tokens a table row may hold, valid or not: int() accepts "+1", "1_0" and "٣"
_ODD_TOKENS = ["+1", "1_0", "07", "\u0663", "x", "1.5", "-1", "- 1", "+ 1", str(2**31),
               str(2**32 + 1), str(2**63 - 1), str(2**63), str(2**64)]


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(_SMALL_GROUPS), data=st.data())
def test_cayley_rows_parse_as_the_per_row_reference(name, data):
    rows = [row.split() for row in serialize_cayley(corpus.group(name)).splitlines()[1:]]
    for _ in range(data.draw(st.integers(0, 2))):
        row = data.draw(st.sampled_from(rows))
        at = data.draw(st.integers(0, len(row) - 1))
        edit = data.draw(st.sampled_from(["token", "drop", "add"]))
        if edit == "token":
            row[at] = data.draw(st.sampled_from(_ODD_TOKENS))
        elif edit == "drop":
            del row[at]
        else:
            row.insert(at, data.draw(st.sampled_from(row)))
    sep = data.draw(st.sampled_from([" ", "  ", "\t", " \t "]))
    tail = data.draw(st.sampled_from(["", "  # comment", "\n\n"]))
    text = "\n".join([f"cayley {len(rows)}"] + [sep.join(row) + tail for row in rows]) + "\n"
    try:
        want = _reference_cayley_parse(text)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            parse_group_file(text)
        assert str(got.value) == str(exc)
        return
    assert np.array_equal(parse_group_file(text).table, want.table)


def _swapped(m, axis):
    """The table of Z/m with the entries at m - 3 and m - 2 of its last row
    (axis 1) or last column (axis 0) swapped: that line stays a permutation,
    and the two lines across it repeat an entry.  At m = 300 every row still
    holds the identity, so Light's test is what refuses the table."""
    table = (np.arange(m)[:, None] + np.arange(m)) % m
    line = table[-1] if axis == 1 else table[:, -1]
    line[[-3, -2]] = line[[-2, -3]]
    return table.tolist()


# identity 0 and one Latin direction: rows of the first repeat an entry while
# every column is a permutation, and the transpose the other way round
REPEATED_ROW_ENTRY = [[0, 1, 2], [1, 0, 0], [2, 2, 1]]
REPEATED_COLUMN_ENTRY = [list(col) for col in zip(*REPEATED_ROW_ENTRY)]


def _named_triple(message):
    """The triple (x, y, z) that an associativity message names."""
    match = re.fullmatch(r"associativity fails at triple \((\d+),(\d+),(\d+)\)", message)
    assert match, message
    return tuple(int(v) for v in match.groups())


def _fails_by_lookup(table, triple):
    t = np.asarray(table)
    x, y, z = triple
    return t[t[x, y], z] != t[x, t[y, z]]


def _classes_on_cayley_file(tmp_path, capsys, table):
    """Exit code and error line of `grouptab classes` on a Cayley file of
    table, which must fail without a traceback."""
    path = tmp_path / "table.grp"
    path.write_text(f"cayley {len(table)}\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in table), encoding="utf-8")
    code = main(["grouptab", "classes", str(path)])
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, err
    return code, err[len("error: "):].strip()


# the row case has a row without the identity; in the column case every row
# holds it, and (1 2) 1 = 0 while 1 (2 1) = 1
@pytest.mark.parametrize("table,message", [
    (REPEATED_ROW_ENTRY, "Cayley table element 2 has no inverse"),
    (REPEATED_COLUMN_ENTRY, "associativity fails at triple (1,2,1)"),
    (_swapped(300, 0), "associativity fails at triple (296,1,299)"),
    (_swapped(300, 1), "associativity fails at triple (298,1,297)"),
], ids=["row", "column", "row_300", "column_300"])
def test_cayley_table_repeated_entry(tmp_path, capsys, table, message):
    with pytest.raises(ValidationError) as info:
        FiniteGroupTable.from_cayley_table(table)
    assert str(info.value) == message
    if message.startswith("associativity"):
        assert _fails_by_lookup(table, _named_triple(message))
    assert _classes_on_cayley_file(tmp_path, capsys, table) == (2, message)


def _intercalate(m, c):
    """The table of Z/m, m even, with its intercalate at rows {1, 1 + m/2}
    and columns {c, c + m/2} switched: a Latin square with identity 0 that
    is not associative."""
    table = (np.arange(m)[:, None] + np.arange(m)) % m
    rows, cols = np.ix_([1, 1 + m // 2], [c, c + m // 2])
    table[rows, cols] = table[rows, cols][:, ::-1]
    return table.tolist()


@pytest.mark.parametrize("c", range(2, 7))
def test_single_intercalate_tables_of_z300_are_refused(tmp_path, capsys, c):
    # each fails (x y) z = x (y z) on 4752 of the 27 million triples, and
    # Light's test over A = [1] finds one; the triple it names fails by lookup
    table = _intercalate(300, c)
    t = np.asarray(table)
    assert sum(np.count_nonzero(t[t[x]] != t[x][t]) for x in range(300)) == 4752
    code, message = _classes_on_cayley_file(tmp_path, capsys, table)
    assert code == 2
    assert _fails_by_lookup(table, _named_triple(message))


def _is_group_by_the_cube(table):
    """The reference: a unique two-sided identity, every row and column a
    permutation, and (x y) z = x (y z) on the whole m^3 cube."""
    t = np.asarray(table)
    ident = np.arange(len(t))
    identities = [e for e in ident if (t[e] == ident).all() and (t[:, e] == ident).all()]
    latin = (np.sort(t, axis=1) == ident).all() and (np.sort(t, axis=0) == ident[:, None]).all()
    return len(identities) == 1 and latin and bool((t[t] == t[:, t]).all())


_GROUPS_UP_TO_6 = {m: [corpus.cyclic(m).table] for m in range(1, 7)}
_GROUPS_UP_TO_6[4].append(corpus.abelian(2, 2).table)
_GROUPS_UP_TO_6[6].append(corpus.dihedral(3).table)


@settings(max_examples=400, deadline=None)
@given(m=st.integers(1, 6), kind=st.sampled_from(["random", "perturbed", "loop"]),
       rename=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_tables_up_to_order_6_are_accepted_exactly_when_groups(m, kind, rename, seed):
    # identity 0 and any other entries: uniform at random (rarely Latin),
    # a group of order m relabelled with 0 fixed and one to three entries
    # redrawn, or a random loop; then, for half the draws, the elements
    # renamed, which moves the identity off 0
    rng = random.Random(seed)
    if kind == "loop":
        table = _random_loop(m, rng)
    elif kind == "random":
        table = np.array([[rng.randrange(m) for _ in range(m)] for _ in range(m)])
    else:
        base = rng.choice(_GROUPS_UP_TO_6[m])
        relabel = np.array([0] + rng.sample(range(1, m), m - 1))
        table = np.empty_like(base)
        table[np.ix_(relabel, relabel)] = relabel[base]
        for _ in range(rng.randint(1, 3)):
            table[rng.randrange(m), rng.randrange(m)] = rng.randrange(m)
    table[0], table[:, 0] = np.arange(m), np.arange(m)
    if rename:
        names = np.array(rng.sample(range(m), m))
        renamed = np.empty_like(table)
        renamed[np.ix_(names, names)] = names[table]
        table = renamed
    if _is_group_by_the_cube(table):
        assert FiniteGroupTable.from_cayley_table(table.tolist()).order == m
    else:
        with pytest.raises(ValidationError):
            FiniteGroupTable.from_cayley_table(table.tolist())


def test_corpus_orders_match():
    for name in corpus.group_names():
        assert corpus.group(name).order == corpus.GROUP_ORDERS[name]


# class counts from the standard character theory of these small groups
KNOWN_K = {
    "C2": 2, "C3": 3, "C4": 4, "C2xC2": 4, "C8": 8, "D8": 5, "Q8": 5,
    "C9": 9, "C3xC3": 9, "C16": 16, "C4xC4": 16, "C2xC2xC2xC2": 16,
    "D16": 7, "SD16": 7, "Q16": 7, "M16": 10,
    "D8xC2": 10, "Q8xC2": 10, "C4semC4": 10, "V4semC4": 10, "D8oC4": 10,
    "C27": 27, "He27": 11, "M27": 11,
    "C32": 32, "D32": 11, "Q32": 11, "D8oD8": 17, "D8oQ8": 17,
}


@pytest.mark.parametrize("name,k", sorted(KNOWN_K.items()))
def test_known_class_counts(name, k):
    assert corpus.group(name).k() == k


def test_d8_class_sizes():
    g = corpus.group("D8")
    assert sorted(g.conjugacy_classes().sizes) == [1, 1, 2, 2, 2]
    assert len(g.commutator_subgroup()) == 2
    assert g.abelianization_order() == 4
    assert g.center_size() == 2


def test_q8_structure():
    g = corpus.group("Q8")
    assert order_profile(g) == {1: 1, 2: 1, 4: 6}
    assert g.center_size() == 2
    classes = g.conjugacy_classes()
    # squaring sends all three order-4 classes to the central involution
    cmap = g.class_power_map(2)
    central_inv = np.flatnonzero(element_orders(g) == 2)[0]
    targets = Counter(cmap)
    assert targets[classes.labels[central_inv]] == 3
    assert targets[classes.labels[g.identity]] == 2


# the order-16 groups differ pairwise in these classical order profiles
ORDER16_PROFILES = {
    "D16": {1: 1, 2: 9, 4: 2, 8: 4},
    "SD16": {1: 1, 2: 5, 4: 6, 8: 4},
    "Q16": {1: 1, 2: 1, 4: 10, 8: 4},
    "M16": {1: 1, 2: 3, 4: 4, 8: 8},
}


@pytest.mark.parametrize("name,profile", sorted(ORDER16_PROFILES.items()))
def test_order16_profiles(name, profile):
    assert order_profile(corpus.group(name)) == profile


def test_order16_groups_pairwise_distinct():
    names = [n for n, m in corpus.GROUP_ORDERS.items() if m == 16]
    assert len(names) == 14
    prints = {}
    for name in names:
        g = corpus.group(name)
        classes = g.conjugacy_classes()
        squares = len({g.mult(x, x) for x in range(g.order)})
        orders = element_orders(g)
        center_exp = max(orders[z] for z in range(g.order) if g.is_central(z))
        prints[name] = (
            tuple(sorted(order_profile(g).items())),
            classes.count,
            tuple(sorted(classes.sizes)),
            len(g.commutator_subgroup()),
            squares,
            center_exp,
        )
    for a in names:
        for b in names:
            if a < b:
                assert prints[a] != prints[b], (a, b)


def test_heisenberg_and_m27():
    he = corpus.group("He27")
    assert order_profile(he) == {1: 1, 3: 26}
    assert he.center_size() == 3
    assert he.abelianization_order() == 9
    m27 = corpus.group("M27")
    assert order_profile(m27) == {1: 1, 3: 8, 9: 18}
    assert m27.abelianization_order() == 9


def test_power_commutator_c4():
    g = FiniteGroupTable.from_power_commutator(2, 2, {1: (0, 1)}, {})
    assert g.order == 4
    assert exponent(g) == 4
    assert order_profile(g) == {1: 1, 2: 1, 4: 2}


def test_power_commutator_heisenberg():
    g = FiniteGroupTable.from_power_commutator(3, 3, {}, {(2, 1): (0, 0, 1)})
    ref = corpus.group("He27")
    assert g.order == ref.order
    assert g.k() == ref.k()
    assert order_profile(g) == order_profile(ref)
    assert g.center_size() == ref.center_size()


def test_power_commutator_rejects_bad_words():
    # a power word may not touch generators at or below the left-hand side
    with pytest.raises(ValidationError):
        FiniteGroupTable.from_power_commutator(2, 2, {2: (1, 0)}, {})


def test_g128_invariants():
    g = corpus.group("g128")
    assert g.order == 128
    assert g.k() == 26
    assert exponent(g) == 4
    assert g.abelianization_order() == 16


def test_central_quotient_d8():
    d8 = corpus.group("D8")
    z = next(x for x in range(8) if g_is_central_involution(d8, x))
    q = central_quotient(d8, z)
    assert q.order == 4
    assert exponent(q) == 2
    assert q.k() == 4


def g_is_central_involution(g, x):
    return x != g.identity and g.is_central(x) and element_orders(g)[x] == 2


def test_central_quotient_requires_central():
    d8 = corpus.group("D8")
    noncentral = next(x for x in range(8) if not d8.is_central(x))
    with pytest.raises(ValidationError):
        central_quotient(d8, noncentral)


def test_direct_product():
    g = direct_product(corpus.group("D8"), corpus.group("C3"))
    assert g.order == 24
    assert g.k() == 15  # 5 * 3
    assert exponent(g) == 12


def test_conjugation_identities():
    g = corpus.group("SD16")
    rng = random.Random(7)
    for _ in range(50):
        x, a, b = (rng.randrange(g.order) for _ in range(3))
        assert g.conjugate(g.conjugate(x, a), b) == g.conjugate(x, g.mult(a, b))
    for _ in range(20):
        a, b = rng.randrange(g.order), rng.randrange(g.order)
        c = g.commutator(a, b)
        assert g.mult(g.mult(g.inverse(a), g.inverse(b)), g.mult(a, b)) == c


def test_class_partition_properties():
    for name in ("D8", "Q16", "He27", "M16"):
        g = corpus.group(name)
        classes = g.conjugacy_classes()
        assert sum(classes.sizes) == g.order
        assert all(g.order % s == 0 for s in classes.sizes)
        # membership is conjugation-invariant
        rng = random.Random(11)
        for _ in range(40):
            x, a = rng.randrange(g.order), rng.randrange(g.order)
            assert classes.labels[x] == classes.labels[g.conjugate(x, a)]
        # reps really lie in their classes
        for i, r in enumerate(classes.reps):
            assert classes.labels[r] == i


def test_serialize_parse_roundtrip():
    g = corpus.group("D8")
    text = serialize_cayley(g)
    h = parse_group_file(text)
    assert h.order == g.order
    assert h.k() == g.k()
    assert order_profile(h) == order_profile(g)


def test_table_budget():
    with budget_scope(Budgets(table_order_max=2)), pytest.raises(BudgetError):
        FiniteGroupTable.from_cayley_table([[i ^ j for j in range(4)] for i in range(4)])


def test_group_lookup_errors():
    with pytest.raises(ValidationError):
        corpus.group("nosuch")


def test_class_power_map_is_representative_independent():
    # the p-th power of every member of a class lands in one class
    for name in corpus.group_names():
        g = corpus.group(name)
        if g.order > 4096:
            continue
        p, _ = prime_power_decompose(g.order)
        classes = g.conjugacy_classes()
        cmap = g.class_power_map(p)
        for x in range(g.order):
            xp = x
            for _ in range(p - 1):
                xp = g.mult(xp, x)
            assert cmap[classes.labels[x]] == classes.labels[xp], (name, x)


def test_class_power_map_checks_every_order():
    # Z/5000, past 2^12, as a stand-in with the additive power x -> n x and
    # classes 1 and 2 merged: 2 * 1 and 2 * 2 land in different classes
    m = 5000
    labels = np.concatenate([[0, 1, 1], np.arange(2, m - 1)])
    part = OrbitPartition(labels, np.delete(np.arange(m), 2), np.bincount(labels))
    group = SimpleNamespace(order=m, conjugacy_classes=lambda: part,
                            power=lambda x, n: x * n % m)
    with pytest.raises(InternalInconsistencyError,
                       match="^class power map not constant on class of element 2$"):
        FiniteGroupTable.class_power_map(group, 2)


# ------------------------------------------------- table engine references --

def _classes_bfs(g):
    """Reference: one breadth-first search per unlabelled seed under
    conjugation by the generators, on scalar products."""
    labels = [-1] * g.order
    reps, sizes = [], []
    for seed in range(g.order):
        if labels[seed] != -1:
            continue
        cid = len(reps)
        labels[seed] = cid
        stack = [seed]
        size = 0
        while stack:
            x = stack.pop()
            size += 1
            for h in g.generators:
                y = g.mult(g.inverse(h), g.mult(x, h))
                if labels[y] == -1:
                    labels[y] = cid
                    stack.append(y)
        reps.append(seed)
        sizes.append(size)
    return labels, reps, sizes


def _derived_sets(g):
    """Reference: normal closure of the generator commutators, then the
    subgroup they generate, on Python sets."""
    gens = g.generators
    stack = [g.commutator(a, b) for a in gens for b in gens]
    normal = set()
    while stack:
        x = stack.pop()
        if x == g.identity or x in normal:
            continue
        normal.add(x)
        stack.extend(g.conjugate(x, h) for h in gens)
    sub = {g.identity}
    frontier = [g.identity]
    while frontier:
        new = []
        for t in frontier:
            for s in normal:
                y = g.mult(t, s)
                if y not in sub:
                    sub.add(y)
                    new.append(y)
        frontier = new
    return sub


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from([n for n, m in corpus.GROUP_ORDERS.items() if m <= 32]),
       seed=st.integers(0, 2**32 - 1))
def test_table_engine_matches_bfs_and_set_closure(name, seed):
    # a relabelled table moves the identity off 0 and reorders every class
    table = corpus.group(name).table
    sigma = np.random.default_rng(seed).permutation(len(table))
    relabelled = np.empty_like(table)
    relabelled[sigma[:, None], sigma[None, :]] = sigma[table]
    g = FiniteGroupTable.from_cayley_table(relabelled)
    labels, reps, sizes = _classes_bfs(g)
    classes = g.conjugacy_classes()
    assert classes.labels.tolist() == labels
    assert classes.reps.tolist() == reps
    assert classes.sizes.tolist() == sizes
    derived = g.commutator_subgroup()
    assert derived.dtype == np.int64
    assert derived.tolist() == sorted(_derived_sets(g))


def test_sympy_oracle_class_count_and_derived_order():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    for name, m in corpus.GROUP_ORDERS.items():
        if m > 128:
            continue
        g = corpus.group(name)
        # the right regular representation x -> x h of the generators
        pg = combinatorics.PermutationGroup(
            [combinatorics.Permutation(g.table[:, h].tolist()) for h in g.generators])
        assert pg.order() == m, name
        assert len(pg.conjugacy_classes()) == g.k(), name
        assert pg.derived_subgroup().order() == len(g.commutator_subgroup()), name


# g1^2 = g2 commutes with g1, yet [g2, g1] = g3; free generators beyond g3
# take the order past the exhaustive associativity check
@pytest.mark.parametrize("n", [3, 9])
def test_inconsistent_presentation_is_rejected(tmp_path, capsys, n):
    zeros = ["0"] * (n - 3)
    text = "\n".join([f"pc 2 {n}", " ".join(["pow 1: 0 1 0", *zeros]),
                      " ".join(["comm 2 1: 0 0 1", *zeros])]) + "\n"
    with pytest.raises(ValidationError, match=r"condition \(b\) fails at g_1"):
        parse_group_file(text)
    path = tmp_path / "bad.pc"
    path.write_text(text, encoding="utf-8")
    assert main(["grouptab", "classes", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "condition (b)" in err and "Traceback" not in err


def test_pc_table_is_checked_against_its_relations():
    # a valid group table (C4) that the presentation (C2 x C2) does not give
    c4 = FiniteGroupTable.from_power_commutator(2, 2, {1: (0, 1)}, {})
    with pytest.raises(InternalInconsistencyError, match="relation pow 1$"):
        _check_pc_relations(c4, _PcPresentation(2, 2, {}, {}))
    _check_pc_relations(c4, _PcPresentation(2, 2, {1: (0, 1)}, {}))


def _pad(text: str, extra: int) -> str:
    """A pc file with extra free generators of order p after the last one:
    the same relations, in a group p^extra times larger."""
    lines = text.splitlines()
    p, n = lines[0].split()[1:]
    head = [f"pc {p} {int(n) + extra}"]
    return "\n".join(head + [ln + " 0" * extra for ln in lines[1:]]) + "\n"


# a presentation that fails condition (a) or (c) of _pc_table, at g_1 and
# one level down; test_inconsistent_presentation_is_rejected fails (b)
CONDITION_CASES = {
    # g2^2 = g3 makes <g2, g3, g4> C4 x C2, where phi(g2)^2 = g3 != phi(g3)
    "a": ("pc 2 4\npow 2: 0 0 1 0\ncomm 2 1: 0 0 0 1\ncomm 3 1: 0 0 0 1\n", "g_1"),
    "a_inner": ("pc 2 5\npow 3: 0 0 0 1 0\ncomm 3 2: 0 0 0 0 1\ncomm 4 2: 0 0 0 0 1\n",
                "g_2"),
    # g1^2 = 1, yet phi^2(g2) = g2 g4
    "c": ("pc 2 4\ncomm 2 1: 0 0 1 0\ncomm 3 1: 0 0 0 1\n", "g_1"),
    "c_inner": ("pc 2 5\ncomm 3 2: 0 0 0 1 0\ncomm 4 2: 0 0 0 0 1\n", "g_2"),
}


@pytest.mark.parametrize("extra", [0, 6], ids=["small", "order_above_256"])
@pytest.mark.parametrize("case", sorted(CONDITION_CASES))
def test_each_consistency_condition_rejects_its_presentation(tmp_path, capsys, case, extra):
    text, generator = CONDITION_CASES[case]
    text = _pad(text, extra)
    message = rf"^inconsistent presentation: condition \({case[0]}\) fails at {generator}: "
    with pytest.raises(ValidationError, match=message):
        parse_group_file(text)
    path = tmp_path / "bad.pc"
    path.write_text(text, encoding="utf-8")
    assert main(["grouptab", "classes", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"condition ({case[0]})" in err and "Traceback" not in err


def test_pc_order_beyond_table_budget(tmp_path, capsys):
    with pytest.raises(BudgetError) as info:
        FiniteGroupTable.from_power_commutator(2, 13, {}, {})
    assert info.value.budget_name == "table_order_max"
    path = tmp_path / "big.pc"
    path.write_text("pc 2 13\n", encoding="utf-8")
    assert main(["grouptab", "classes", str(path)]) == 3
    assert "table_order_max" in capsys.readouterr().err


def _tabulate(right_mul: list[np.ndarray], m: int, identity: int) -> np.ndarray:
    """Cayley table of the group whose generators act by the permutations
    x -> x g in right_mul.

    Column y g holds x (y g) = (x y) g, so a breadth-first search from the
    identity fills every column from one found before it."""
    cols = np.empty((m, m), dtype=np.int32)     # cols[y, x] = x y
    cols[identity] = np.arange(m)
    found = np.zeros(m, dtype=bool)
    found[identity] = True
    frontier = [identity]
    while frontier:
        fresh = []
        for y in frontier:
            for col in right_mul:
                z = int(col[y])
                if not found[z]:
                    found[z] = True
                    cols[z] = col[cols[y]]
                    fresh.append(z)
        frontier = fresh
    assert found.all(), "generators do not reach every element"
    return np.ascontiguousarray(cols.T)


_COLLECTION_STEPS = 10 ** 6


def _letters(word) -> list[int]:
    """The letters of an exponent word: generator g (from 0) a_g times."""
    return [g for g, a in enumerate(word) for _ in range(a)]


def _collect(p: int, n: int, pow_letters, comm_letters, letters: list[int]) -> int:
    """Collection from the left: the index of the normal word that the word
    in letters (generator numbers from 0) rewrites to, by the relations:
    pow_letters[g] are the letters of g^p, comm_letters[g, h] those of
    [g, h] for g > h, absent when trivial."""
    w = list(letters)
    i = 0
    for _ in range(_COLLECTION_STEPS):
        if i == len(w):
            return sum(p ** (n - 1 - g) for g in w)
        g = w[i]
        if i + 1 < len(w) and w[i + 1] < g:
            # g h = h g [g, h] for h < g
            h = w[i + 1]
            w[i:i + 2] = [h, g] + comm_letters.get((g, h), [])
            i = max(i - 1, 0)
        else:
            start = i
            while start and w[start - 1] == g:
                start -= 1
            end = start
            while end < len(w) and w[end] == g:
                end += 1
            if end - start >= p:
                w[start:start + p] = pow_letters[g]
                i = max(start - 1, 0)
            else:
                i += 1
    raise AssertionError(f"collection took more than {_COLLECTION_STEPS} steps")


def _full_word_table(p, n, pows, comms):
    """The Cayley table from one collection of each full normal word x g_i."""
    pow_letters = [_letters(pows.get(g + 1, ())) for g in range(n)]
    comm_letters = {(j - 1, i - 1): _letters(word) for (j, i), word in comms.items()}
    words = [_letters(x // p ** (n - 1 - g) % p for g in range(n)) for x in range(p ** n)]
    right_mul = [np.array([_collect(p, n, pow_letters, comm_letters, w + [i]) for w in words],
                          dtype=np.int32)
                 for i in range(n)]
    return _tabulate(right_mul, p ** n, 0)


@pytest.mark.parametrize("name", sorted(corpus.PC_PRESENTATIONS))
def test_pc_table_matches_full_words_on_the_corpus(name):
    g = corpus.group(name)
    assert np.array_equal(g.table, _full_word_table(*corpus.PC_PRESENTATIONS[name]))


def _class2_presentation(rng: random.Random, p: int, r: int, s: int):
    """r generators over s central generators of exponent p: every power
    and commutator of the first r is a random word in the last s, which
    is consistent because those words are central of exponent p."""
    n = r + s

    def central_word():
        return tuple([0] * r + [rng.randrange(p) for _ in range(s)])

    pows = {i: central_word() for i in range(1, r + 1)}
    comms = {(j, i): central_word() for j in range(2, r + 1) for i in range(1, j)}
    return p, n, pows, comms


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.sampled_from([(2, 2, 1), (2, 3, 3), (2, 4, 4), (3, 2, 1), (3, 3, 2), (5, 2, 1)]))
def test_pc_table_matches_full_words_on_class2_presentations(seed, shape):
    p, r, s = shape
    p, n, pows, comms = _class2_presentation(random.Random(seed), p, r, s)
    g = FiniteGroupTable.from_power_commutator(p, n, pows, comms)
    assert np.array_equal(g.table, _full_word_table(p, n, pows, comms))


def _is_group_table(table: np.ndarray) -> bool:
    """Exhaustively: 0 is a two-sided identity, every row and column is a
    permutation, and (ij)k = i(jk) for every triple."""
    idx = np.arange(len(table))
    return (np.array_equal(table[0], idx) and np.array_equal(table[:, 0], idx)
            and (np.sort(table, axis=0) == idx[:, None]).all()
            and (np.sort(table, axis=1) == idx).all()
            and np.array_equal(table[table], table[:, table]))


@st.composite
def _presentations(draw):
    """p in {2, 3}, order at most 81, and a random word in the later
    generators for every power and commutator relation: consistent or not."""
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 6 if p == 2 else 4))

    def word(after):
        tail = draw(st.lists(st.integers(0, p - 1), min_size=n - after, max_size=n - after))
        return (0,) * after + tuple(tail)

    pows = {i: word(i) for i in range(1, n + 1)}
    comms = {(j, i): word(j) for j in range(2, n + 1) for i in range(1, j)}
    return p, n, pows, comms


@settings(max_examples=200, deadline=None)
@given(presentation=_presentations())
def test_pc_conditions_accept_exactly_the_presentations_collection_makes_a_group(presentation):
    # the collector's table is a group exactly when the presentation is
    # consistent, and then it is the presented group's
    reference = _full_word_table(*presentation)
    try:
        g = FiniteGroupTable.from_power_commutator(*presentation)
    except ValidationError as error:
        assert str(error).startswith("inconsistent presentation: condition (")
        assert not _is_group_table(reference)
    else:
        assert _is_group_table(reference)
        assert np.array_equal(g.table, reference)


# g_i^p = g_(i+1): nontrivial power words, which class-2 presentations over
# exponent-p centres lack, carried through every level of the series
@pytest.mark.parametrize("p,n", [(p, n) for p in (2, 3, 5) for n in range(1, 6)])
def test_pc_table_matches_full_words_on_cyclic_chains(p, n):
    pows = {i: tuple(int(j == i) for j in range(n)) for i in range(1, n)}
    g = FiniteGroupTable.from_power_commutator(p, n, pows, {})
    assert np.array_equal(g.table, _full_word_table(p, n, pows, {}))
    assert element_orders(g)[g.generators[0]] == p ** n


@pytest.mark.parametrize("p", [2, 7, 1021])
def test_cyclic_pc_table_is_addition_mod_p(p):
    i = np.arange(p)
    g = FiniteGroupTable.from_power_commutator(p, 1, {}, {})
    assert np.array_equal(g.table, (i[:, None] + i) % p)


# Q8 written with g1^2 = g2^2: reducing the exponent 2 mod 2 would give D8
Q8_AS_SQUARES = "pc 2 3\npow 1: 0 2 0\npow 2: 0 0 1\ncomm 2 1: 0 0 1\n"


@pytest.mark.parametrize("text,relation", [(Q8_AS_SQUARES, "pow 1"),
                                           ("pc 2 2\npow 1: 0 -1\n", "pow 1"),
                                           ("pc 3 3\ncomm 3 1: 0 0 0\ncomm 2 1: 0 0 3\n",
                                            "comm 2 1")],
                         ids=["q8_as_squares", "negative", "comm_exponent_p"])
def test_relation_exponents_outside_0_to_p_minus_1_are_rejected(tmp_path, capsys, text,
                                                                relation):
    with pytest.raises(ValidationError, match=f"^relation {relation}: exponent"):
        parse_group_file(text)
    path = tmp_path / "bad.pc"
    path.write_text(text, encoding="utf-8")
    assert main(["grouptab", "classes", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and relation in err
    assert "Traceback" not in err


# the first pow line presents C4; a later line for the same relation must
# not silently replace it (the second gives C2 x C2)
@pytest.mark.parametrize("text,line", [("pc 2 2\npow 1: 0 1\npow 1: 0 0\n", "pow 1: 0 0"),
                                       ("pc 2 3\ncomm 2 1: 0 0 1\ncomm 2 1: 0 0 0\n",
                                        "comm 2 1: 0 0 0")],
                         ids=["pow", "comm"])
def test_repeated_relation_is_rejected(tmp_path, capsys, text, line):
    with pytest.raises(ValidationError, match=f"^repeated relation line: '{line}'$"):
        parse_group_file(text)
    path = tmp_path / "repeated.pc"
    path.write_text(text, encoding="utf-8")
    assert main(["grouptab", "classes", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and line in err
    assert "Traceback" not in err


def test_exponent_range_is_checked_before_the_later_generator_rule():
    # g1 appears in its own power word with exponent -1
    with pytest.raises(ValidationError, match="exponent -1 of g_1"):
        FiniteGroupTable.from_power_commutator(2, 2, {1: (-1, 0)}, {})


def test_close_and_derived_subgroup_take_no_permutations():
    mask = np.zeros(8, dtype=bool)
    _close(mask, [], np.array([3, 5]))
    assert np.flatnonzero(mask).tolist() == [3, 5]
    # C2 x C2 x C2 as xor: abelian, so no conjugation moves anything
    members = derived_subgroup(8, 0, lambda x: np.arange(8) ^ x, lambda: [],
                               np.array([0, 0, 0]))
    assert members.tolist() == [0]
    members = derived_subgroup(8, 0, lambda x: np.arange(8) ^ x, lambda: [],
                               np.array([1, 0]))
    assert members.tolist() == [0, 1]


# ------------------------------------------------- unitriangular anchors --

def _unitriangular_pc(n: int, p: int) -> str:
    """The pc file of U_n(F_p) on the elementary matrices x_ij = 1 + e_ij
    (i < j), ordered by height j - i and then by i, with x_ij^p = 1,
    [x_ij, x_jl] = x_il and [x_ij, x_ki] = x_kj^-1; other pairs commute.
    Each commutator has a greater height than both of its arguments."""
    gens = sorted(itertools.combinations(range(n), 2), key=lambda ij: (ij[1] - ij[0], ij[0]))
    lines = [f"pc {p} {len(gens)}"]
    for b, (i, j) in enumerate(gens):
        for a, (k, l) in enumerate(gens[:b]):
            # [x_ij, x_kl] for the later generator x_ij
            target, e = ((i, l), 1) if j == k else ((k, j), p - 1) if l == i else (None, 0)
            if target is not None:
                word = [0] * len(gens)
                word[gens.index(target)] = e
                lines.append(f"comm {b + 1} {a + 1}: " + " ".join(map(str, word)))
    return "\n".join(lines) + "\n"


def test_unitriangular_pc_relations_hold_for_the_matrices():
    n, p = 4, 3
    lines = _unitriangular_pc(n, p).splitlines()
    gens = sorted(itertools.combinations(range(n), 2), key=lambda ij: (ij[1] - ij[0], ij[0]))

    def x(ij, e=1):
        m = np.eye(n, dtype=np.int64)
        m[ij] = e
        return m

    comms = {tuple(int(t) for t in ln.split(":")[0].split()[1:]): ln.split(":")[1].split()
             for ln in lines[1:]}
    for a, b in itertools.combinations(range(len(gens)), 2):
        # [x_b, x_a] for the later generator x_b
        found = x(gens[b], p - 1) @ x(gens[a], p - 1) @ x(gens[b]) @ x(gens[a]) % p
        want = np.eye(n, dtype=np.int64)
        for g, e in zip(gens, map(int, comms.get((b + 1, a + 1), [0] * len(gens)))):
            want = want @ x(g, e) % p
        assert np.array_equal(found, want), (gens[b], gens[a])


# k(U_5(F_2)) = 61 at order 1024, class 4; k(U_4(F_q)) = 2q^3 + q^2 - 2q,
# 57 for q = 3 at order 729, past the exhaustive associativity check
@pytest.mark.parametrize("n,p,k", [(5, 2, 61), (4, 3, 57)])
def test_unitriangular_pc_files_match_the_algebra_group(tmp_path, capsys, n, p, k):
    path = tmp_path / f"u{n}_{p}.pc"
    path.write_text(_unitriangular_pc(n, p), encoding="utf-8")
    assert main(["grouptab", "classes", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == p ** (n * (n - 1) // 2)
    assert payload["k"] == k == AlgebraGroup(corpus.unitriangular(n, p)).k()
