"""Finite group engine: Cayley tables, permutation closures, power-commutator
presentations, conjugacy classes, the class power map, derived subgroups and
central quotients.

Elements are always integer indices with a deterministic numbering per
construction, so class representatives (least index in the class) are
reproducible across runs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .budgets import Budgets, check_budget, get_budgets
from .errors import InternalInconsistencyError, ValidationError
from .ffield import is_prime

_ASSOC_SEED = 0x5EED01


@dataclass
class ClassData:
    """Conjugacy class partition: labels[i] is the class id of element i."""

    labels: list[int]
    reps: list[int]
    sizes: list[int]

    @property
    def k(self) -> int:
        return len(self.reps)

    def class_of(self, i: int) -> int:
        return self.labels[i]


class FiniteGroupTable:
    """A finite group with elements 0..order-1 and a multiplication oracle."""

    def __init__(self, order, identity, mult_fn, generators, labels=None, name=None,
                 table=None, inv_list=None):
        self.order = order
        self.identity = identity
        self._mult_fn = mult_fn
        self.generators = list(generators)
        self.labels = labels
        self.name = name or f"group{order}"
        self._table = table
        self._mult_memo: dict[tuple[int, int], int] = {}
        self._inv = list(inv_list) if inv_list is not None else None
        self._classes: ClassData | None = None
        self._derived: frozenset[int] | None = None

    # ------------------------------------------------------------ basics --

    def mult(self, i: int, j: int) -> int:
        if self._table is not None:
            return int(self._table[i, j])
        key = (i, j)
        out = self._mult_memo.get(key)
        if out is None:
            out = self._mult_fn(i, j)
            self._mult_memo[key] = out
        return out

    def inverse(self, i: int) -> int:
        if self._inv is None:
            self._inv = [-1] * self.order
        if self._inv[i] == -1:
            self._inv[i] = self._find_inverse(i)
        return self._inv[i]

    def _find_inverse(self, i: int) -> int:
        # p-power group elements have order dividing a small power; generic
        # fallback walks the cyclic group generated by i.
        e = self.identity
        if i == e:
            return e
        prev = i
        cur = self.mult(i, i)
        steps = 1
        while cur != e:
            prev = cur
            cur = self.mult(cur, i)
            steps += 1
            if steps > self.order:
                raise InternalInconsistencyError("element powers never reach the identity")
        return prev

    def power(self, i: int, n: int) -> int:
        result = self.identity
        base = i
        if n < 0:
            base = self.inverse(i)
            n = -n
        while n:
            if n & 1:
                result = self.mult(result, base)
            base = self.mult(base, base)
            n >>= 1
        return result

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

    def conjugacy_classes(self, budgets: Budgets | None = None) -> ClassData:
        if self._classes is not None:
            return self._classes
        check_budget(budgets, "group_enumeration_max", self.order)
        m = self.order
        geninv = [self.inverse(g) for g in self.generators]
        labels = [-1] * m
        reps: list[int] = []
        sizes: list[int] = []
        for seed in range(m):
            if labels[seed] != -1:
                continue
            cid = len(reps)
            labels[seed] = cid
            stack = [seed]
            size = 0
            while stack:
                x = stack.pop()
                size += 1
                for g, gi in zip(self.generators, geninv):
                    y = self.mult(gi, self.mult(x, g))
                    if labels[y] == -1:
                        labels[y] = cid
                        stack.append(y)
            reps.append(seed)
            sizes.append(size)
        if sum(sizes) != m:
            raise InternalInconsistencyError("class sizes do not partition the group")
        for s in sizes:
            if m % s:
                raise InternalInconsistencyError("class size does not divide group order")
        self._classes = ClassData(labels, reps, sizes)
        return self._classes

    def k(self, budgets: Budgets | None = None) -> int:
        return self.conjugacy_classes(budgets).k

    def class_power_map(self, p: int, budgets: Budgets | None = None) -> list[int]:
        """For each class id, the class id of the p-th power of its elements."""
        classes = self.conjugacy_classes(budgets)
        out = [classes.class_of(self.power(r, p)) for r in classes.reps]
        if self.order <= 2**12:
            # representative independence, exhaustively
            for x in range(self.order):
                if classes.class_of(self.power(x, p)) != out[classes.class_of(x)]:
                    raise InternalInconsistencyError(
                        f"class power map not constant on class of element {x}")
        return out

    # ----------------------------------------------------------- derived --

    def commutator_subgroup(self, budgets: Budgets | None = None) -> frozenset[int]:
        if self._derived is not None:
            return self._derived
        e = self.identity
        gens = self.generators
        base = {self.commutator(a, b) for a in gens for b in gens}
        base.discard(e)
        # normal closure of the commutators under conjugation by generators
        geninv = [self.inverse(g) for g in gens]
        genset: set[int] = set()
        stack = list(base)
        while stack:
            x = stack.pop()
            if x in genset:
                continue
            genset.add(x)
            check_budget(budgets, "closure_max", len(genset))
            for g, gi in zip(gens, geninv):
                stack.append(self.mult(gi, self.mult(x, g)))
        # subgroup closure
        sub = {e}
        frontier = [e]
        while frontier:
            new = []
            for t in frontier:
                for s in genset:
                    y = self.mult(t, s)
                    if y not in sub:
                        sub.add(y)
                        new.append(y)
            check_budget(budgets, "closure_max", len(sub))
            frontier = new
        if self.order % len(sub):
            raise InternalInconsistencyError("derived subgroup order does not divide group order")
        self._derived = frozenset(sub)
        return self._derived

    def abelianization_order(self, budgets: Budgets | None = None) -> int:
        return self.order // len(self.commutator_subgroup(budgets))

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
        ident = np.arange(m, dtype=np.int32)
        # identity element
        e_candidates = [i for i in range(m) if np.array_equal(arr[i], ident)]
        e_candidates = [i for i in e_candidates if np.array_equal(arr[:, i], ident)]
        if len(e_candidates) != 1:
            raise ValidationError("Cayley table has no unique two-sided identity")
        e = e_candidates[0]
        # Latin square property
        if not (np.array_equal(np.sort(arr, axis=1), np.tile(ident, (m, 1)))
                and np.array_equal(np.sort(arr, axis=0), np.tile(ident[:, None], (1, m)))):
            raise ValidationError("Cayley table rows/columns are not permutations")
        # associativity
        if m <= 256:
            for i in range(m):
                left = arr[arr[i], :]        # (i*j)*k
                right = arr[i][arr]          # i*(j*k)
                if not np.array_equal(left, right):
                    j, kk = np.argwhere(left != right)[0]
                    raise ValidationError(
                        f"associativity fails at triple ({i},{j},{kk})")
        else:
            rng = random.Random(_ASSOC_SEED)
            for _ in range(10 * m):
                i, j, kk = (rng.randrange(m) for _ in range(3))
                if arr[arr[i, j], kk] != arr[i, arr[j, kk]]:
                    raise ValidationError(f"associativity fails at triple ({i},{j},{kk})")
        inv = [int(np.nonzero(arr[i] == e)[0][0]) for i in range(m)]
        group = cls(m, e, None, [], name=name, table=arr, inv_list=inv)
        group.generators = group._greedy_generators()
        return group

    def _greedy_generators(self) -> list[int]:
        gens: list[int] = []
        span = {self.identity}
        for x in range(self.order):
            if x in span:
                continue
            gens.append(x)
            span = self._closure(gens)
            if len(span) == self.order:
                break
        return gens

    def _closure(self, gens: list[int]) -> set[int]:
        sub = {self.identity}
        frontier = [self.identity]
        while frontier:
            new = []
            for t in frontier:
                for g in gens:
                    y = self.mult(t, g)
                    if y not in sub:
                        sub.add(y)
                        new.append(y)
            frontier = new
        return sub

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
            level = sorted(new)
            for y in level:
                index[y] = len(elements)
                elements.append(y)
        m = len(elements)

        def mult(i: int, j: int) -> int:
            a, b = elements[i], elements[j]
            return index[tuple(b[v] for v in a)]

        gen_idx = [index[g] for g in gens]
        return cls(m, 0, mult, gen_idx, labels=elements, name=name)

    @classmethod
    def from_power_commutator(cls, p, n, power_words, commutator_words,
                              budgets: Budgets | None = None, name=None):
        """Power-commutator presentation on generators g_1 < .. < g_n.

        power_words: dict i -> exponent tuple for g_i^p (1-based i);
        commutator_words: dict (j, i) with j > i -> exponent tuple for [g_j, g_i].
        Missing entries mean the trivial word. Words may only involve
        generators with index beyond the left-hand side.
        """
        if not is_prime(p):
            raise ValidationError(f"{p} is not prime")
        if n < 0:
            raise ValidationError("a pc presentation needs n >= 0 generators")
        check_budget(budgets, "pc_generators_max", n)
        check_budget(budgets, "group_enumeration_max", p**n)
        pres = _PcPresentation(p, n, power_words, commutator_words, get_budgets(budgets))
        m = p**n

        def mult(i: int, j: int) -> int:
            return pres.index(pres.mult(pres.tuple_of(i), pres.tuple_of(j)))

        gen_idx = [pres.index(pres.generator_tuple(i)) for i in range(1, n + 1)]
        labels = [pres.tuple_of(i) for i in range(m)]
        group = cls(m, 0, mult, gen_idx, labels=labels, name=name)
        group._pc = pres
        _verify_pc_consistency(group, pres)
        return group


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

    def generator_tuple(self, i: int) -> tuple[int, ...]:
        return tuple(1 if t == i - 1 else 0 for t in range(self.n))

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
                from .errors import BudgetError

                raise BudgetError("collection_steps_max", steps, limit)
        vec = [0] * self.n
        for g in w:
            vec[g] += 1
        return tuple(vec)

    def mult(self, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
        return self.collect(self.letters_of(u) + self.letters_of(v))


def _verify_pc_consistency(group: FiniteGroupTable, pres: _PcPresentation) -> None:
    n, m = pres.n, group.order
    gens = group.generators
    for a in gens:
        for b in gens:
            ab = group.mult(a, b)
            for c in gens:
                if group.mult(ab, c) != group.mult(a, group.mult(b, c)):
                    raise ValidationError(
                        f"inconsistent presentation: associativity fails on generators "
                        f"({a},{b},{c})")
    rng = random.Random(_ASSOC_SEED ^ m)
    for _ in range(min(10 * m, 20000)):
        i, j, kk = (rng.randrange(m) for _ in range(3))
        if group.mult(group.mult(i, j), kk) != group.mult(i, group.mult(j, kk)):
            raise ValidationError(
                f"inconsistent presentation: associativity fails at ({i},{j},{kk})")


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

    def canon(x: int) -> int:
        return min(group.mult(x, zk) for zk in zpowers)

    canon_map = [canon(x) for x in range(group.order)]
    reps = sorted(set(canon_map))
    rep_index = {r: idx for idx, r in enumerate(reps)}

    def mult(i: int, j: int) -> int:
        return rep_index[canon_map[group.mult(reps[i], reps[j])]]

    gen_idx = sorted({rep_index[canon_map[g]] for g in group.generators})
    gen_idx = [g for g in gen_idx if g != rep_index[canon_map[e]]] or gen_idx
    quotient = FiniteGroupTable(
        len(reps), rep_index[canon_map[e]], mult, gen_idx,
        labels=[group.labels[r] if group.labels else r for r in reps],
        name=f"{group.name}/<z{z}>")
    if group.order != quotient.order * len(zpowers):
        raise InternalInconsistencyError("quotient order mismatch")
    return quotient


def direct_product(g1: FiniteGroupTable, g2: FiniteGroupTable,
                   name=None) -> FiniteGroupTable:
    m1, m2 = g1.order, g2.order

    def mult(i: int, j: int) -> int:
        a1, a2 = divmod(i, m2)
        b1, b2 = divmod(j, m2)
        return g1.mult(a1, b1) * m2 + g2.mult(a2, b2)

    e = g1.identity * m2 + g2.identity
    gens = [g * m2 + g2.identity for g in g1.generators]
    gens += [g1.identity * m2 + h for h in g2.generators]
    return FiniteGroupTable(m1 * m2, e, mult, gens,
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
    for i in range(group.order):
        rows.append(" ".join(str(group.mult(i, j)) for j in range(group.order)))
    return "\n".join(rows) + "\n"
