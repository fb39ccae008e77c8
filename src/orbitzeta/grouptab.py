"""Finite group engine: Cayley tables, permutation groups, power-commutator
presentations, conjugacy classes, the class power map, derived subgroups and
central quotients, and the orbit and closure engine over permutation arrays
that both group models (these tables and the algebra groups 1+J) run on.

Every group is one validated dense int32 Cayley table with its inverse
array.  Elements are integer indices with a deterministic numbering per
construction, so class representatives (least index in the class) are
reproducible across runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .budgets import Budgets, check_budget, get_budgets
from .errors import BudgetError, InternalInconsistencyError, ValidationError
from .ffield import is_prime

_ASSOC_SEED = 0x5EED01
_PC_SAMPLE_PAIRS = 256


# ------------------------------------------------------ permutation engine --

@dataclass
class OrbitPartition:
    """Orbit decomposition of 0..N-1 under a set of permutations; under
    conjugation, the conjugacy classes.  labels[i] is the orbit id of i."""

    labels: np.ndarray          # int64, length N
    reps: list[int]             # least index per orbit, ascending
    sizes: list[int]

    @property
    def count(self) -> int:
        return len(self.reps)

    def class_of(self, i: int) -> int:
        return int(self.labels[i])


ClassData = OrbitPartition


def orbit_partition(perms: list[np.ndarray], n_points: int) -> OrbitPartition:
    """Orbits of the group generated by perms on 0..n_points-1.

    Min-label propagation with pointer jumping: every label points at a
    point of the same orbit and never rises.  Along each edge x -> perm[x]
    the points both ends point at take the smaller of the two labels, and
    pointer jumping (the label of the label) then flattens every chain, so
    a long cycle merges in one round.  At the fixed point every label is
    the least index of its orbit.
    """
    idx = np.arange(n_points, dtype=np.int64)
    if all(np.array_equal(perm, idx) for perm in perms):
        # every point is fixed; skip the propagation
        return OrbitPartition(idx.copy(), list(range(n_points)), [1] * n_points)
    labels, prev = idx.copy(), None
    while not np.array_equal(labels, prev):
        prev = labels.copy()
        for perm in perms:
            ends = labels.copy(), labels[perm]
            smaller = np.minimum(*ends)
            for end in ends:
                np.minimum.at(labels, end, smaller)
        jumped = labels[labels]
        while not np.array_equal(jumped, labels):
            labels, jumped = jumped, jumped[jumped]
    reps, labels, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    if int(sizes.sum()) != n_points:
        raise InternalInconsistencyError("orbit sizes do not partition the point set")
    return OrbitPartition(labels, reps.tolist(), sizes.tolist())


def _close(mask: np.ndarray, perms: list[np.ndarray], frontier: np.ndarray) -> None:
    """Mark in mask the frontier, unmarked points without repeats, and
    everything perms reach from it."""
    while frontier.size:
        mask[frontier] = True
        fresh = []
        for perm in perms:
            img = perm[frontier]
            img = img[~mask[img]]
            mask[img] = True
            fresh.append(img)
        frontier = np.concatenate(fresh)


def _adjoin(mask: np.ndarray, right_mul, candidates) -> list[int]:
    """Grow mask, a subgroup, by each candidate not inside it when its turn
    comes; right_mul(x) is the permutation y -> y x.  Returns the
    candidates adjoined, a generating set of the final mask over the
    starting one.

    An adjoined x brings the coset mask x, which is disjoint from mask, so
    the closure under all right multiplications so far continues from that
    coset."""
    perms: list[np.ndarray] = []
    chosen = []
    for x in candidates:
        if not mask[x]:
            chosen.append(int(x))
            perms.append(right_mul(x))
            _close(mask, perms, perms[-1][mask])
    return chosen


def _least_non_members(mask: np.ndarray):
    """The least point outside mask, read afresh at each step, until mask
    holds everything."""
    while not mask.all():
        yield int(np.argmin(mask))


def generating_set(n_points: int, identity: int, right_mul, seeds=()) -> list[int]:
    """A generating set of the group on 0..n_points-1 whose right
    multiplications right_mul(x) gives: each seed, then each least point,
    that the ones before it do not generate."""
    mask = np.zeros(n_points, dtype=bool)
    mask[identity] = True
    return _adjoin(mask, right_mul, itertools.chain(seeds, _least_non_members(mask)))


def derived_subgroup(n_points: int, identity: int, right_mul, conjugation_perms,
                     commutators) -> np.ndarray:
    """Sorted points of the derived subgroup, given the commutators of all
    generator pairs: their normal closure under the permutations that
    conjugation_perms() returns (called only if a commutator is not the
    identity), then the subgroup that closure generates."""
    normal = np.zeros(n_points, dtype=bool)
    base = np.setdiff1d(commutators, [identity])
    if base.size:
        _close(normal, conjugation_perms(), base)
    members = np.zeros(n_points, dtype=bool)
    members[identity] = True
    _adjoin(members, right_mul, np.flatnonzero(normal))
    out = np.flatnonzero(members)
    if n_points % out.size:
        raise InternalInconsistencyError("derived subgroup order does not divide group order")
    return out


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
    if not found.all():
        raise InternalInconsistencyError("generators do not reach every element")
    return np.ascontiguousarray(cols.T)


# ------------------------------------------------------------ the group --

class FiniteGroupTable:
    """A finite group on elements 0..order-1: table[i, j] is the index of
    i*j and inv[i] that of i^-1.

    The constructor validates the table; generators default to the greedy
    set of least non-members.  pres, a pc presentation the table was
    tabulated from, adds its consistency checks."""

    def __init__(self, table: np.ndarray, generators=None, name=None,
                 pres: _PcPresentation | None = None):
        self.table = table
        self.order = m = len(table)
        self.identity = _validate_table(table)
        self.inv = np.argmax(table == self.identity, axis=1).astype(np.int32)
        if generators is None:
            generators = generating_set(m, self.identity, lambda x: table[:, x])
        self.generators = list(generators)
        if pres is not None:
            _verify_pc_table(self, pres)
        self.name = name or f"group{m}"
        self._classes: OrbitPartition | None = None
        self._derived: frozenset[int] | None = None

    # ------------------------------------------------------------ basics --

    def mult(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inverse(self, i: int) -> int:
        return int(self.inv[i])

    def power(self, i, n: int):
        """i^n by square-and-multiply; elementwise when i is an index array."""
        base = np.asarray(i)
        if n < 0:
            base, n = self.inv[base], -n
        result = np.full(base.shape, self.identity, dtype=np.int32)
        while n:
            if n & 1:
                result = self.table[result, base]
            base = self.table[base, base]
            n >>= 1
        return result if np.ndim(i) else int(result)

    def element_order(self, i: int) -> int:
        e = self.identity
        cur = i
        n = 1
        while cur != e:
            cur = self.mult(cur, i)
            n += 1
            if n > self.order:
                raise InternalInconsistencyError("element order exceeds group order")
        return n

    def exponent(self) -> int:
        out = 1
        for r in self.conjugacy_classes().reps:
            out = math.lcm(out, self.element_order(r))
        return out

    def center_size(self) -> int:
        sizes = self.conjugacy_classes().sizes
        return sum(1 for s in sizes if s == 1)

    def conjugate(self, x: int, g: int) -> int:
        return self.mult(self.inverse(g), self.mult(x, g))

    def commutator(self, a: int, b: int) -> int:
        return self.mult(self.inverse(a), self.mult(self.inverse(b), self.mult(a, b)))

    def is_central(self, z: int) -> bool:
        return all(self.mult(z, g) == self.mult(g, z) for g in self.generators)

    # ----------------------------------------------------------- classes --

    def _conjugation_perms(self) -> list[np.ndarray]:
        """x -> g^-1 x g for each generator g."""
        return [self.table[self.inv[g]][self.table[:, g]] for g in self.generators]

    def conjugacy_classes(self, budgets: Budgets | None = None) -> OrbitPartition:
        if self._classes is None:
            check_budget(budgets, "group_enumeration_max", self.order)
            classes = orbit_partition(self._conjugation_perms(), self.order)
            if any(self.order % s for s in classes.sizes):
                raise InternalInconsistencyError("class size does not divide group order")
            self._classes = classes
        return self._classes

    def k(self, budgets: Budgets | None = None) -> int:
        return self.conjugacy_classes(budgets).count

    def class_power_map(self, p: int, budgets: Budgets | None = None) -> list[int]:
        """For each class id, the class id of the p-th power of its elements."""
        classes = self.conjugacy_classes(budgets)
        image = classes.labels[self.power(np.arange(self.order), p)]
        out = image[classes.reps]
        if self.order <= 2**12:
            # representative independence, exhaustively
            bad = np.flatnonzero(image != out[classes.labels])
            if bad.size:
                raise InternalInconsistencyError(
                    f"class power map not constant on class of element {bad[0]}")
        return out.tolist()

    # ----------------------------------------------------------- derived --

    def commutator_subgroup(self) -> frozenset[int]:
        if self._derived is None:
            table, inv = self.table, self.inv
            gens = np.asarray(self.generators, dtype=np.int64)
            a, b = np.repeat(gens, gens.size), np.tile(gens, gens.size)
            # [a, b] = a^-1 b^-1 a b for every generator pair
            comms = table[inv[a], table[inv[b], table[a, b]]]
            members = derived_subgroup(self.order, self.identity, lambda x: table[:, x],
                                       self._conjugation_perms, comms)
            self._derived = frozenset(members.tolist())
        return self._derived

    def abelianization_order(self) -> int:
        return self.order // len(self.commutator_subgroup())

    # ------------------------------------------------------ constructors --

    @classmethod
    def from_cayley_table(cls, table, budgets: Budgets | None = None, name=None):
        m = len(table)
        check_budget(budgets, "table_order_max", m)
        try:
            arr = np.asarray(table, dtype=np.int32)
        except (OverflowError, ValueError):
            raise ValidationError("Cayley table entries out of range") from None
        if arr.shape != (m, m):
            raise ValidationError(f"Cayley table must be square, got shape {arr.shape}")
        if arr.min(initial=0) < 0 or arr.max(initial=0) >= m:
            raise ValidationError("Cayley table entries out of range")
        return cls(arr, name=name)

    @classmethod
    def from_permutation_generators(cls, perms, budgets: Budgets | None = None, name=None):
        if not perms:
            raise ValidationError("need at least one permutation generator")
        deg = len(perms[0])
        gens = []
        for g in perms:
            t = tuple(g)
            if sorted(t) != list(range(deg)):
                raise ValidationError(f"not a permutation of 0..{deg - 1}: {g}")
            gens.append(t)
        gens = sorted(set(gens))
        ident = tuple(range(deg))
        index = {ident: 0}
        elements = [ident]
        level = [ident]
        while level:
            new = set()
            for x in level:
                for g in gens:
                    y = tuple(g[v] for v in x)  # apply x then g
                    if y not in index and y not in new:
                        new.add(y)
            check_budget(budgets, "group_enumeration_max", len(elements) + len(new))
            check_budget(budgets, "table_order_max", len(elements) + len(new))
            level = sorted(new)
            for y in level:
                index[y] = len(elements)
                elements.append(y)
        points = np.array(elements, dtype=np.int64)
        right_mul = [np.array([index[tuple(row)] for row in np.array(g)[points].tolist()])
                     for g in gens]
        return cls(_tabulate(right_mul, len(elements), 0), [index[g] for g in gens],
                   name=name)

    @classmethod
    def from_power_commutator(cls, p, n, power_words, commutator_words,
                              budgets: Budgets | None = None, name=None):
        """Power-commutator presentation on generators g_1 < .. < g_n.

        power_words: dict i -> exponent tuple for g_i^p (1-based i);
        commutator_words: dict (j, i) with j > i -> exponent tuple for [g_j, g_i].
        Missing entries mean the trivial word. Words may only involve
        generators with index beyond the left-hand side.

        Collection runs once per element and generator, for x g_i; the
        table follows from those columns.
        """
        if not is_prime(p):
            raise ValidationError(f"{p} is not prime")
        if n < 0:
            raise ValidationError("a pc presentation needs n >= 0 generators")
        check_budget(budgets, "pc_generators_max", n)
        limit = get_budgets(budgets).group_enumeration_max
        if n > limit.bit_length():  # p^n >= 2^n, bounded before the power is formed
            raise BudgetError("group_enumeration_max", f"{p}^{n}", limit)
        check_budget(budgets, "group_enumeration_max", p**n)
        check_budget(budgets, "table_order_max", p**n)
        pres = _PcPresentation(p, n, power_words, commutator_words, get_budgets(budgets))
        m = p**n
        words = [pres.letters_of(pres.tuple_of(x)) for x in range(m)]
        right_mul = [np.array([pres.index(pres.collect(w + [i])) for w in words],
                              dtype=np.int32) for i in range(n)]
        gens = [int(col[0]) for col in right_mul]
        return cls(_tabulate(right_mul, m, 0), gens, name=name, pres=pres)


def _validate_table(arr: np.ndarray) -> int:
    """The identity of a square table with entries in 0..m-1, after checking
    that it is the Cayley table of a group: a unique two-sided identity, the
    Latin property and associativity, exhaustively for m <= 256 and on 10m
    seeded triples above."""
    m = len(arr)
    ident = np.arange(m, dtype=np.int32)
    e = np.flatnonzero((arr == ident).all(axis=1) & (arr == ident[:, None]).all(axis=0))
    if len(e) != 1:
        raise ValidationError("Cayley table has no unique two-sided identity")
    if not ((np.sort(arr, axis=1) == ident).all()
            and (np.sort(arr, axis=0) == ident[:, None]).all()):
        raise ValidationError("Cayley table rows/columns are not permutations")
    if m <= 256:
        for i in range(m):
            left = arr[arr[i], :]        # (i*j)*k
            right = arr[i][arr]          # i*(j*k)
            if not np.array_equal(left, right):
                j, kk = np.argwhere(left != right)[0]
                raise ValidationError(f"associativity fails at triple ({i},{j},{kk})")
    else:
        i, j, kk = np.random.default_rng(_ASSOC_SEED).integers(0, m, (3, 10 * m))
        bad = np.flatnonzero(arr[arr[i, j], kk] != arr[i, arr[j, kk]])
        if bad.size:
            t = bad[0]
            raise ValidationError(f"associativity fails at triple ({i[t]},{j[t]},{kk[t]})")
    return int(e[0])


def _verify_pc_table(group: FiniteGroupTable, pres: _PcPresentation) -> None:
    """Consistency of a tabulated pc presentation: associativity on every
    generator triple, and the table against direct collection of both
    normal words on a seeded sample of pairs."""
    table, m = group.table, group.order
    gens = np.asarray(group.generators, dtype=np.int64)
    a, b, c = (x.ravel() for x in np.meshgrid(gens, gens, gens, indexing="ij"))
    bad = np.flatnonzero(table[table[a, b], c] != table[a, table[b, c]])
    if bad.size:
        t = bad[0]
        raise ValidationError(
            f"inconsistent presentation: associativity fails on generators "
            f"({a[t]},{b[t]},{c[t]})")
    rng = np.random.default_rng(_ASSOC_SEED ^ m)
    for x, y in rng.integers(0, m, (_PC_SAMPLE_PAIRS, 2)).tolist():
        if pres.index(pres.mult(pres.tuple_of(x), pres.tuple_of(y))) != table[x, y]:
            raise ValidationError(
                f"inconsistent presentation: the table disagrees with collection at ({x},{y})")


class _PcPresentation:
    def __init__(self, p, n, power_words, commutator_words, budgets: Budgets):
        self.p = p
        self.n = n
        self.budgets = budgets
        self.pow_letters: list[list[int]] = [[] for _ in range(n)]
        self.comm_letters: dict[tuple[int, int], list[int]] = {}
        for i, word in (power_words or {}).items():
            if not (1 <= i <= n):
                raise ValidationError(f"power relation index {i} out of range")
            self.pow_letters[i - 1] = self._letters(word, minimum=i)
        for (j, i), word in (commutator_words or {}).items():
            if not (1 <= i < j <= n):
                raise ValidationError(f"commutator relation indices ({j},{i}) out of range")
            self.comm_letters[(j - 1, i - 1)] = self._letters(word, minimum=j)
        self._powers = [p**k for k in range(n + 1)]

    def _letters(self, word, minimum: int) -> list[int]:
        word = tuple(int(x) for x in word)
        if len(word) != self.n:
            raise ValidationError(f"relation word must have {self.n} exponents")
        letters = []
        for idx, a in enumerate(word):
            if a % self.p and idx + 1 <= minimum:
                raise ValidationError(
                    f"relation word touches generator g_{idx + 1}, must only involve later ones")
            letters.extend([idx] * (a % self.p))
        return letters

    def index(self, vec: tuple[int, ...]) -> int:
        out = 0
        for a in vec:
            out = out * self.p + a
        return out

    def tuple_of(self, idx: int) -> tuple[int, ...]:
        digits = []
        for k in range(self.n - 1, -1, -1):
            digits.append((idx // self._powers[k]) % self.p)
        return tuple(digits)

    def letters_of(self, vec) -> list[int]:
        out = []
        for idx, a in enumerate(vec):
            out.extend([idx] * a)
        return out

    def collect(self, letters: list[int]) -> tuple[int, ...]:
        """Collection from the left; returns the normal form exponent tuple."""
        p = self.p
        w = list(letters)
        steps = 0
        limit = self.budgets.collection_steps_max
        i = 0
        while i < len(w):
            g = w[i]
            if i + 1 < len(w) and w[i + 1] < g:
                h = w[i + 1]
                repl = [h, g] + self.comm_letters.get((g, h), [])
                w[i:i + 2] = repl
                if i:
                    i -= 1
            else:
                start = i
                while start and w[start - 1] == g:
                    start -= 1
                end = start
                while end < len(w) and w[end] == g:
                    end += 1
                if end - start >= p:
                    w[start:start + p] = self.pow_letters[g]
                    i = max(start - 1, 0)
                else:
                    i += 1
            steps += 1
            if steps > limit:
                raise BudgetError("collection_steps_max", steps, limit)
        vec = [0] * self.n
        for g in w:
            vec[g] += 1
        return tuple(vec)

    def mult(self, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
        return self.collect(self.letters_of(u) + self.letters_of(v))


# ------------------------------------------------------------ operations --

def central_quotient(group: FiniteGroupTable, z: int,
                     budgets: Budgets | None = None) -> FiniteGroupTable:
    """The quotient of the group by the cyclic central subgroup generated by z."""
    if not group.is_central(z):
        raise ValidationError(f"element {z} is not central")
    e = group.identity
    zpowers = [e]
    cur = z
    while cur != e:
        zpowers.append(cur)
        cur = group.mult(cur, z)
    # each coset x<z> is numbered by its least element, in ascending order
    reps, image = np.unique(group.table[:, zpowers].min(axis=1), return_inverse=True)
    check_budget(budgets, "table_order_max", len(reps))
    image = image.astype(np.int32)
    qe = int(image[e])
    gens = sorted({int(image[g]) for g in group.generators} - {qe})
    quotient = FiniteGroupTable(image[group.table[np.ix_(reps, reps)]], gens,
                                name=f"{group.name}/<z{z}>")
    if group.order != quotient.order * len(zpowers):
        raise InternalInconsistencyError("quotient order mismatch")
    return quotient


def direct_product(g1: FiniteGroupTable, g2: FiniteGroupTable, name=None,
                   budgets: Budgets | None = None) -> FiniteGroupTable:
    """g1 x g2 with (a1, a2) at index a1 * |g2| + a2."""
    m1, m2 = g1.order, g2.order
    check_budget(budgets, "table_order_max", m1 * m2)
    table = g1.table[:, None, :, None] * m2 + g2.table[None, :, None, :]
    gens = [g * m2 + g2.identity for g in g1.generators]
    gens += [g1.identity * m2 + h for h in g2.generators]
    return FiniteGroupTable(table.reshape(m1 * m2, m1 * m2), gens,
                            name=name or f"{g1.name}x{g2.name}")


# ---------------------------------------------------------------- parsing --

def _ints(tokens, line: str) -> list[int]:
    try:
        return [int(x) for x in tokens]
    except ValueError:
        raise ValidationError(f"non-integer token in group file line {line!r}") from None


def parse_group_file(text: str, budgets: Budgets | None = None,
                     name=None) -> FiniteGroupTable:
    """Parse the group file format.

    Either 'cayley m' followed by m rows of m indices, or 'pc p n' followed
    by lines 'pow i: a_1 .. a_n' and 'comm j i: a_1 .. a_n'.
    """
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValidationError("empty group file")
    header = lines[0].split()
    if header[0] == "cayley":
        if len(header) != 2:
            raise ValidationError("cayley header must be 'cayley m'")
        m, = _ints(header[1:], lines[0])
        if len(lines) != m + 1:
            raise ValidationError(f"expected {m} table rows, got {len(lines) - 1}")
        table = []
        for ln in lines[1:]:
            row = _ints(ln.split(), ln)
            if len(row) != m:
                raise ValidationError(f"table row has {len(row)} entries, expected {m}")
            table.append(row)
        return FiniteGroupTable.from_cayley_table(table, budgets, name=name)
    if header[0] == "pc":
        if len(header) != 3:
            raise ValidationError("pc header must be 'pc p n'")
        p, n = _ints(header[1:], lines[0])
        pows: dict[int, tuple[int, ...]] = {}
        comms: dict[tuple[int, int], tuple[int, ...]] = {}
        for ln in lines[1:]:
            kind, _, rest = ln.partition(":")
            kindparts = kind.split()
            word = tuple(_ints(rest.split(), ln))
            if kindparts[:1] == ["pow"] and len(kindparts) == 2:
                pows[_ints(kindparts[1:], ln)[0]] = word
            elif kindparts[:1] == ["comm"] and len(kindparts) == 3:
                comms[tuple(_ints(kindparts[1:], ln))] = word
            else:
                raise ValidationError(f"bad relation line: {ln!r}")
        return FiniteGroupTable.from_power_commutator(p, n, pows, comms, budgets, name=name)
    raise ValidationError(f"unknown group file kind {header[0]!r}")


def serialize_cayley(group: FiniteGroupTable) -> str:
    rows = [f"cayley {group.order}"]
    rows += [" ".join(map(str, row)) for row in group.table.tolist()]
    return "\n".join(rows) + "\n"
