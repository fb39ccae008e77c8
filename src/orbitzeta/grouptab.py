"""Finite group engine: Cayley tables, power-commutator presentations,
conjugacy classes, the class power map, derived subgroups and central
quotients, and the orbit and closure engine over permutation arrays that
both group models (these tables and the algebra groups 1+J) run on.

Every group is one dense int32 Cayley table with its inverse array, proved
a group at every order by its identity, right inverses and Light's test
over a generating set (`_validate_table`).  Elements are integer indices
with a deterministic numbering per construction, so class representatives
(least index in the class) are reproducible across runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .budgets import check_budget, check_power_budget
from .errors import InternalInconsistencyError, ValidationError
from .ffield import is_prime
from .linalg import int_rows

_LIGHT_CELLS = 2 ** 17       # entries per side in one block of Light's test

# ------------------------------------------------------ permutation engine --

@dataclass
class OrbitPartition:
    """Orbit decomposition of 0..N-1 under a set of permutations; under
    conjugation, the conjugacy classes.  labels[i] is the orbit id of i."""

    labels: np.ndarray          # int64, length N
    reps: np.ndarray            # int64, the least index per orbit, ascending
    sizes: np.ndarray           # int64, the orbit sizes in the order of reps

    @property
    def count(self) -> int:
        return len(self.reps)


def _labels_fixed(labels: np.ndarray, perms: list[np.ndarray]) -> bool:
    """Whether labels is constant along every perm; one call per round of
    orbit_partition."""
    return all(np.array_equal(labels[perm], labels) for perm in perms)


def orbit_partition(perms: list[np.ndarray], n_points: int) -> OrbitPartition:
    """Orbits of the group generated by perms on 0..n_points-1.

    Min-label propagation in rounds: every label points at a point of the
    same orbit and never rises, so labels[x] <= x.  A round gathers,
    labels = min(labels, labels[perm]) for every perm, and jumps pointers
    (the label of the label) until labels[labels] == labels.  If then
    labels[perm] == labels for every perm (_labels_fixed), labels is
    constant on each orbit, and the label l of an orbit is a point of it
    with labels[l] = l <= every index in it: the fixed point, where every
    label is the least index of its orbit.  Otherwise a hooking pass runs
    before the next round: along each edge x -> perm[x] whose ends point at
    different labels, both labels take the smaller.  Gathers and jumping
    alone can be slow: on a cycle numbered L-1, 0, L-2, 1, ... they take
    L/2 rounds.  Hooking merges whole chains, and a long cycle takes a
    few.  The representatives are the points labelled by themselves, and
    one lookup renumbers the labels densely.
    """
    idx = np.arange(n_points, dtype=np.int64)
    if all(np.array_equal(perm, idx) for perm in perms):
        # every point is fixed; skip the propagation
        return OrbitPartition(idx.copy(), idx, np.ones(n_points, dtype=np.int64))
    labels = idx.copy()
    while True:
        for perm in perms:
            np.minimum(labels, labels[perm], out=labels)
        jumped = labels[labels]
        while not np.array_equal(jumped, labels):
            labels, jumped = jumped, jumped[jumped]
        del jumped      # a copy of labels: free it before the hooking pass
        if _labels_fixed(labels, perms):
            break
        for perm in perms:
            # an edge whose ends share a label hooks nothing
            ends = labels[perm]
            edges = np.flatnonzero(ends != labels)
            ends = labels[edges], ends[edges]
            smaller = np.minimum(*ends)
            for end in ends:
                np.minimum.at(labels, end, smaller)
    reps = np.flatnonzero(labels == idx)
    # a label that is not a representative would count in the last bin
    dense = np.full(n_points, reps.size, dtype=np.int64)
    dense[reps] = np.arange(reps.size)
    labels = dense[labels]
    sizes = np.bincount(labels, minlength=reps.size + 1)[:reps.size]
    if int(sizes.sum()) != n_points:
        raise InternalInconsistencyError("orbit sizes do not partition the point set")
    return OrbitPartition(labels, reps, sizes)


def _close(mask: np.ndarray, perms: list[np.ndarray], frontier: np.ndarray) -> None:
    """Mark in mask the frontier, unmarked points without repeats, and
    everything perms reach from it; perms may be empty."""
    while frontier.size:
        mask[frontier] = True
        fresh = [frontier[:0]]
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
    coset.  The coset holds x = e x only if mask holds the identity e;
    otherwise x could come up as a candidate forever, so that is an error."""
    perms: list[np.ndarray] = []
    chosen = []
    for x in candidates:
        if not mask[x]:
            chosen.append(int(x))
            perms.append(right_mul(x))
            _close(mask, perms, perms[-1][mask])
            if not mask[x]:
                raise InternalInconsistencyError(f"adjoining {x} does not reach it")
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


# ------------------------------------------------------------ the group --

class FiniteGroupTable:
    """A finite group on elements 0..order-1: table[i, j] is the index of
    i*j and inv[i] that of i^-1.

    The constructor proves the table a group (_validate_table), seeding
    Light's test with the generators it is given: the pc generators, or
    those of the factors of a product or of the group a quotient comes
    from.  Without them (Cayley input) the generators are the set that the
    proof grows, the greedy set of least non-members."""

    def __init__(self, table: np.ndarray, generators=None, name=None):
        self.table = table
        self.order = m = len(table)
        self.identity, self.inv, gens = _validate_table(table, generators or ())
        self.generators = gens if generators is None else list(generators)
        self.name = name or f"group{m}"
        self._classes: OrbitPartition | None = None
        self._derived: np.ndarray | None = None

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

    def center_size(self) -> int:
        """|Z(G)|: a reference invariant that the tests compare between two
        constructions of one group (pc presentation and Cayley table)."""
        return int(np.count_nonzero(self.conjugacy_classes().sizes == 1))

    def conjugate(self, x: int, g: int) -> int:
        """x^g = g^-1 x g by lookups: with commutator, the slow reference of
        the permutation-array classes and derived subgroup in the tests."""
        return self.mult(self.inverse(g), self.mult(x, g))

    def commutator(self, a: int, b: int) -> int:
        """[a, b] = a^-1 b^-1 a b by lookups (see conjugate)."""
        return self.mult(self.inverse(a), self.mult(self.inverse(b), self.mult(a, b)))

    def is_central(self, z: int) -> bool:
        return all(self.mult(z, g) == self.mult(g, z) for g in self.generators)

    # ----------------------------------------------------------- classes --

    def _conjugation_perms(self) -> list[np.ndarray]:
        """x -> g^-1 x g for each generator g."""
        return [self.table[self.inv[g]][self.table[:, g]] for g in self.generators]

    def conjugacy_classes(self) -> OrbitPartition:
        if self._classes is None:
            check_budget("group_enumeration_max", self.order)
            classes = orbit_partition(self._conjugation_perms(), self.order)
            if (self.order % classes.sizes).any():
                raise InternalInconsistencyError("class size does not divide group order")
            self._classes = classes
        return self._classes

    def k(self) -> int:
        return self.conjugacy_classes().count

    def class_power_map(self, p: int) -> list[int]:
        """For each class id, the class id of the p-th power of its elements,
        checked to be the same from every member of the class."""
        classes = self.conjugacy_classes()
        image = classes.labels[self.power(np.arange(self.order), p)]
        out = image[classes.reps]
        bad = np.flatnonzero(image != out[classes.labels])
        if bad.size:
            raise InternalInconsistencyError(
                f"class power map not constant on class of element {bad[0]}")
        return out.tolist()

    # ----------------------------------------------------------- derived --

    def commutator_subgroup(self) -> np.ndarray:
        """Sorted indices of the derived subgroup, int64."""
        if self._derived is None:
            table, inv = self.table, self.inv
            gens = np.asarray(self.generators, dtype=np.int64)
            a, b = np.repeat(gens, gens.size), np.tile(gens, gens.size)
            # [a, b] = a^-1 b^-1 a b for every generator pair
            comms = table[inv[a], table[inv[b], table[a, b]]]
            self._derived = derived_subgroup(self.order, self.identity, lambda x: table[:, x],
                                             self._conjugation_perms, comms)
        return self._derived

    def abelianization_order(self) -> int:
        return self.order // self.commutator_subgroup().size

    # ------------------------------------------------------ constructors --

    @classmethod
    def from_cayley_table(cls, table, name=None):
        m = len(table)
        check_budget("table_order_max", m)
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
    def from_power_commutator(cls, p, n, power_words, commutator_words, name=None):
        """Power-commutator presentation on generators g_1 < .. < g_n.

        power_words: dict i -> exponent tuple for g_i^p (1-based i);
        commutator_words: dict (j, i) with j > i -> exponent tuple for [g_j, g_i].
        Missing entries mean the trivial word.  Exponents lie in 0..p-1,
        and words may only involve generators with index beyond the
        left-hand side.  Element indices are those of normal words
        g_1^a_1 .. g_n^a_n, first generator most significant.  _pc_table
        builds the table and proves it the presented group's (Hölder's
        conditions at each level), the constructor validates it, and
        _check_pc_relations reads the numbering and the relations back.
        """
        if not is_prime(p):
            raise ValidationError(f"{p} is not prime")
        if n < 0:
            raise ValidationError("a pc presentation needs n >= 0 generators")
        check_power_budget("group_enumeration_max", p, n)
        check_budget("table_order_max", p**n)
        pres = _PcPresentation(p, n, power_words, commutator_words)
        group = cls(_pc_table(pres), [p ** (n - 1 - i) for i in range(n)], name=name)
        _check_pc_relations(group, pres)
        return group


def _pc_table(pres: _PcPresentation) -> np.ndarray:
    """The Cayley table of a pc presentation, bottom-up along its series,
    checked to be the presented group's at every level.

    G_k = <g_k, .., g_n> is g_k^a t with a in 0..p-1 and t in G_(k+1),
    at index a |G_(k+1)| + t.  Conjugation phi(t) = g_k^-1 t g_k maps
    G_(k+1) to itself, with phi(g_j) = g_j [g_j, g_k] for j > k, and
    w = g_k^p lies in G_(k+1); so
        (g_k^a t)(g_k^b u) = g_k^(a+b) phi^b(t) u,
    where g_k^(a+b) = g_k^(a+b-p) w once a + b >= p.  Block (a, b) of the
    table of G_k is therefore the table of G_(k+1) at the rows phi^b(t),
    or w phi^b(t), plus the offset of the power of g_k.  phi itself comes
    from the images of the generators of G_(k+1), one gather per
    generator: phi(g_j^c s) = phi(g_j)^c phi(s) for s in G_(j+1).

    Given that G_(k+1) is a group, the blocks form a group of order
    p |G_(k+1)| exactly when (Hölder's theorem on cyclic extensions; Holt,
    Eick and O'Brien, Handbook of Computational Group Theory, 2005, ch. 8):
      (a) phi is an automorphism of G_(k+1);
      (b) phi(w) = w;
      (c) phi^p is conjugation by w, t -> w^-1 t w.
    For (a) it suffices that phi(t g_j) = phi(t) phi(g_j) for every t and
    every generator g_j of G_(k+1): phi is then an endomorphism, and as
    phi(g_j) lies in g_j G_(j+1), the only x of G_j with phi(x) in G_(j+1)
    are those of G_(j+1), so phi is injective on each G_j, from j = n up.
    Each level checks all three, so by induction from the trivial group
    G_(n+1) every G_k is a group, in which g_k^p = w and [g_j, g_k] hold by
    construction.  G_1 then has order p^n and satisfies every relation, so
    it is a quotient of the presented group; that group has at most p^n
    elements, because collection writes each of them as a normal word, so
    the two are equal.  A failure raises ValidationError naming the
    condition and g_k.
    """
    p, n = pres.p, pres.n
    table = np.zeros((1, 1), dtype=np.int32)        # the trivial group G_(n+1)
    for k in range(n - 1, -1, -1):
        size = len(table)                           # |G_(k+1)|
        phi = np.zeros(1, dtype=np.int32)           # phi on G_(n+1)
        for j in range(n - 1, k, -1):
            # phi on G_j from phi on G_(j+1): g_j^c s -> phi(g_j)^c phi(s)
            image = table[p ** (n - 1 - j), pres.comm.get((j, k), 0)]
            powers = [0]
            for _ in range(p - 1):
                powers.append(table[powers[-1], image])
            phi = table[np.array(powers)[:, None], phi].ravel()
        g = f"g_{k + 1}"
        fails = f"inconsistent presentation: condition ({{}}) fails at {g}: conjugation by {g}"
        if any(not np.array_equal(phi[table[:, x]], table[phi, phi[x]])
               for x in (p ** m for m in range(n - 1 - k))):   # generators of G_(k+1)
            raise ValidationError(fails.format("a") + f" is not an automorphism of "
                                  f"<g_{k + 2}, .., g_{n}>")
        w = pres.pow[k]
        if phi[w] != w:
            raise ValidationError(fails.format("b") + f" moves {g}^p")
        out = np.empty((p, size, p, size), dtype=np.int32)   # [a, t, b, u]
        phi_b = np.arange(size)                     # phi^b, from b = 0
        for b in range(p):
            # block column b in one gather over every row block a; mode="clip"
            # lets take write into it unbuffered, and every index is an entry
            # of the table, so none is clipped
            a_plus_b = np.arange(b, b + p)
            rows = np.where(a_plus_b[:, None] >= p, table[w, phi_b], phi_b)
            np.take(table, rows, axis=0, out=out[:, :, b, :], mode="clip")
            out[:, :, b, :] += (a_plus_b % p * size)[:, None, None]
            phi_b = phi[phi_b]
        w_inv = np.flatnonzero(table[w] == 0)[0]    # 0 is the identity of G_(k+1)
        if not np.array_equal(phi_b, table[table[w_inv], w]):
            raise ValidationError(fails.format("c") + f", p times over, is not "
                                  f"conjugation by {g}^p")
        table = out.reshape(p * size, p * size)
    return table


def _check_pc_relations(group: FiniteGroupTable, pres: _PcPresentation) -> None:
    """The table of a pc group read back against its presentation, by table
    lookups only: each normal word g_1^a_1 .. g_n^a_n multiplies out to
    its own index, and each power and commutator relation holds."""
    p, table, inv = pres.p, group.table, group.inv
    gens = np.asarray(group.generators, dtype=np.int64)
    words = np.array([group.identity])
    for g in gens:
        powers = [group.identity]
        for _ in range(p - 1):
            powers.append(table[powers[-1], g])
        words = table[words[:, None], powers].ravel()
    if not np.array_equal(words, np.arange(group.order)):
        raise InternalInconsistencyError("pc table: normal words do not land on their indices")
    for j, g in enumerate(gens):
        if group.power(g, p) != pres.pow[j]:
            raise InternalInconsistencyError(f"pc table breaks the relation pow {j + 1}")
        # [g_j, g_i] = g_j^-1 g_i^-1 g_j g_i for every i < j
        comms = table[inv[g], table[inv[gens[:j]], table[g, gens[:j]]]]
        for i, c in enumerate(comms.tolist()):
            if c != pres.comm.get((j, i), 0):
                raise InternalInconsistencyError(
                    f"pc table breaks the relation comm {j + 1} {i + 1}")


def _validate_table(arr: np.ndarray, seeds=()) -> tuple[int, np.ndarray, list[int]]:
    """The identity, the inverse array and a generating set A of a square
    table with entries in 0..m-1, after proving it the Cayley table of a
    group, at every order, in three steps:
      1. a unique two-sided identity e;
      2. a right inverse of every element: each row holds e;
      3. associativity, by Light's test over A (Clifford and Preston, The
         Algebraic Theory of Semigroups I, 1961, section 1.2).
    A is what generating_set grows from e by the seeds, then by the least
    elements not yet reached; the closure needs no column to be a
    permutation.  M = {a : (x a) y = x (a y) for all x, y} is closed under
    products, as for a and b in M, (x (a b)) y = ((x a) b) y = (x a) (b y)
    = x (a (b y)) = x ((a b) y).  M holds e and A, and every element is a
    left-normed product e a_1 .. a_k of elements of A, so M is the whole
    table: |A| m^2 lookups, in the least unsigned dtype that holds m - 1,
    a block of rows x at a time.  A finite monoid in which every element x
    has a right inverse x' is a group: with x'' the right inverse of x',
    x = x (x' x'') = (x x') x'' = x'', so x' x = x' x'' = e.

    A failure raises ValidationError.  For m <= 256 an ordered scan then
    names the least failing triple; above, the message names the first
    triple (x, a, y) that Light's test found."""
    m = len(arr)
    small = arr.astype(np.min_scalar_type(m - 1))
    ident = np.arange(m, dtype=small.dtype)
    e = np.flatnonzero((small[:, 0] == 0) & (small[0] == 0))  # e 0 = 0 e = 0
    e = e[(small[e] == ident).all(axis=1) & (small[:, e] == ident[:, None]).all(axis=0)]
    if len(e) != 1:
        raise ValidationError("Cayley table has no unique two-sided identity")
    e = int(e[0])
    inv = np.argmax(small == e, axis=1).astype(np.int32)
    lost = np.flatnonzero(small[ident, inv] != e)
    if lost.size:
        raise ValidationError(f"Cayley table element {lost[0]} has no inverse")
    gens = generating_set(m, e, lambda x: small[:, x], seeds)
    A = np.array(gens, dtype=np.intp)
    cols, rows = small[:, A], small[A]  # x a and a y for a in A
    step = max(1, _LIGHT_CELLS // max(1, m * len(A)))
    for lo in range(0, m, step):
        # [x, a, y] = (x a) y and x (a y) for the rows x of a block
        left = np.take(small, cols[lo:lo + step], axis=0)
        right = np.take(small[lo:lo + step], rows, axis=1)
        if not np.array_equal(left, right):
            break
    else:
        return e, inv, gens
    if m > 256:
        x, a, y = np.argwhere(left != right)[0]
        raise ValidationError(f"associativity fails at triple ({lo + x},{A[a]},{y})")
    for i in range(m):
        left = arr[arr[i], :]        # (i*j)*k
        right = arr[i][arr]          # i*(j*k)
        if not np.array_equal(left, right):
            j, kk = np.argwhere(left != right)[0]
            raise ValidationError(f"associativity fails at triple ({i},{j},{kk})")
    raise InternalInconsistencyError("Light's test and the triple scan disagree")


class _PcPresentation:
    """The relations of a pc presentation as element indices, generators
    numbered from 0: pow[i] is that of g_i^p and comm[j, i] that of
    [g_j, g_i] for j > i, absent when trivial."""

    def __init__(self, p, n, power_words, commutator_words):
        self.p = p
        self.n = n
        self.pow: list[int] = [0] * n
        self.comm: dict[tuple[int, int], int] = {}
        for i, word in (power_words or {}).items():
            if not (1 <= i <= n):
                raise ValidationError(f"power relation index {i} out of range")
            self.pow[i - 1] = self._index(word, i, f"pow {i}")
        for (j, i), word in (commutator_words or {}).items():
            if not (1 <= i < j <= n):
                raise ValidationError(f"commutator relation indices ({j},{i}) out of range")
            self.comm[(j - 1, i - 1)] = self._index(word, j, f"comm {j} {i}")

    def _index(self, word, minimum: int, relation: str) -> int:
        """The index of a normal word: exponents in 0..p-1 (reducing them
        mod p would presume g^p = 1), on generators beyond minimum."""
        word = tuple(int(x) for x in word)
        if len(word) != self.n:
            raise ValidationError(f"relation word must have {self.n} exponents")
        index = 0
        for idx, a in enumerate(word):
            if not 0 <= a < self.p:
                raise ValidationError(
                    f"relation {relation}: exponent {a} of g_{idx + 1} is not in 0..{self.p - 1}")
            if a and idx + 1 <= minimum:
                raise ValidationError(
                    f"relation word touches generator g_{idx + 1}, must only involve later ones")
            index = index * self.p + a
        return index


# ------------------------------------------------------------ operations --

def central_quotient(group: FiniteGroupTable, z: int) -> FiniteGroupTable:
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
    check_budget("table_order_max", len(reps))
    image = image.astype(np.int32)
    qe = int(image[e])
    gens = sorted({int(image[g]) for g in group.generators} - {qe})
    quotient = FiniteGroupTable(image[group.table[np.ix_(reps, reps)]], gens,
                                name=f"{group.name}/<z{z}>")
    if group.order != quotient.order * len(zpowers):
        raise InternalInconsistencyError("quotient order mismatch")
    return quotient


def direct_product(g1: FiniteGroupTable, g2: FiniteGroupTable, name=None) -> FiniteGroupTable:
    """g1 x g2 with (a1, a2) at index a1 * |g2| + a2."""
    m1, m2 = g1.order, g2.order
    check_budget("table_order_max", m1 * m2)
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


def parse_group_file(text: str, name=None) -> FiniteGroupTable:
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
        table = int_rows(lines[1:], m)
        if table is None or table.max(initial=0) >= m:
            # row by row, so that an error names the first bad row; an entry
            # >= m reaches the range check as a Python int, which int32
            # conversion of the array would wrap
            table = []
            for ln in lines[1:]:
                row = _ints(ln.split(), ln)
                if len(row) != m:
                    raise ValidationError(f"table row has {len(row)} entries, expected {m}")
                table.append(row)
        return FiniteGroupTable.from_cayley_table(table, name=name)
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
                relations, key = pows, _ints(kindparts[1:], ln)[0]
            elif kindparts[:1] == ["comm"] and len(kindparts) == 3:
                relations, key = comms, tuple(_ints(kindparts[1:], ln))
            else:
                raise ValidationError(f"bad relation line: {ln!r}")
            if key in relations:
                raise ValidationError(f"repeated relation line: {ln!r}")
            relations[key] = word
        return FiniteGroupTable.from_power_commutator(p, n, pows, comms, name=name)
    raise ValidationError(f"unknown group file kind {header[0]!r}")


def serialize_cayley(group: FiniteGroupTable) -> str:
    rows = [f"cayley {group.order}"]
    rows += [" ".join(map(str, row)) for row in group.table.tolist()]
    return "\n".join(rows) + "\n"
