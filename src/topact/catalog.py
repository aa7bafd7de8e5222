"""Named fixtures and exhaustive enumeration of small structures.

Enumerations power the acceptance suites: monoids up to table isomorphism
(identity pinned at index 0), all topologies on a carrier via reflexive
transitive relations (finite topologies are exactly their up-set families),
and M-sets on small carriers up to carrier permutation.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .actions import MSet, is_continuous_mset
from .errors import CapExceeded
from .monoid import FiniteMonoid, SemigroupHom, generating_set, validate_monoid
from .reflections import continuous_subsets
from .topology import Topology, partition_topology
from .util import mask_of

MAX_ENUM_ORDER = 4
MAX_ENUM_CARRIER = 4


def cyclic(n: int) -> FiniteMonoid:
    """Addition mod n, elements named by digits."""
    return validate_monoid(tuple(str(i) for i in range(n)),
                           [[(a + b) % n for b in range(n)] for a in range(n)], 0)


def left_zeros() -> FiniteMonoid:
    """{1, x, y} with x·m = x and y·m = y."""
    return validate_monoid(("1", "x", "y"),
                           [[0, 1, 2], [1, 1, 1], [2, 2, 2]], 0)


def right_zeros() -> FiniteMonoid:
    return validate_monoid(("1", "x", "y"),
                           [[0, 1, 2], [1, 1, 2], [2, 1, 2]], 0)


def truncated_addition(cap: int) -> FiniteMonoid:
    """{0..cap} with min(a+b, cap); has a zero element at cap."""
    n = cap + 1
    return validate_monoid(tuple(str(i) for i in range(n)),
                           [[min(a + b, cap) for b in range(n)] for a in range(n)], 0)


def two_idempotents() -> FiniteMonoid:
    """{1, e} with e·e = e."""
    return validate_monoid(("1", "e"), [[0, 1], [1, 1]], 0)


def trivial_monoid() -> FiniteMonoid:
    return validate_monoid(("1",), [[0]], 0)


def left_zero_split_topology() -> Topology:
    """On the carrier of left_zeros(): opens generated by {1} and {x, y}."""
    return partition_topology(3, [[0], [1, 2]])


@lru_cache(maxsize=None)
def all_monoids(order: int) -> tuple[FiniteMonoid, ...]:
    """All monoids of the given order up to isomorphism, identity at 0,
    elements named 1, a, b, c.

    The table is filled one row at a time by a depth-first search: row k
    is (k,) + values, the values in itertools.product order, so the full
    tables arrive in the order of one product over all free entries, and
    the first table of each isomorphism class is kept.  After row k is
    placed, (a·b)·c = a·(b·c) is checked for every c over each pair (a, b)
    whose rows a, b and a·b are placed and whose largest is k, and a
    prefix that fails is cut off with its whole subtree.

    Sound: each triple is checked exactly once, at the row where the last
    of a, b and a·b arrives (a = b = 0 needs no check, 0 being the
    identity), so every full table reached is associative.  Complete: a
    check reads only placed rows, so a prefix is cut only for a triple
    that fails in every table it extends, and every associative table is
    reached.
    """
    if order > MAX_ENUM_ORDER:
        raise CapExceeded("monoid enumeration order", order)
    if order < 1:
        return ()
    names = ("1", "a", "b", "c")[:order]
    seen: set[tuple[tuple[int, ...], ...]] = set()
    out = []
    for table in _associative_tables([tuple(range(order))], order):
        canon = _canonical_table(table, order)
        if canon in seen:
            continue
        seen.add(canon)
        out.append(FiniteMonoid(names, table, 0))
    return tuple(out)


def _associative_tables(rows: list[tuple[int, ...]], order: int):
    """Every associative table whose first rows are `rows`, each further
    row k being (k,) + values with the values in itertools.product order."""
    k = len(rows)
    if k == order:
        yield tuple(rows)
        return
    for values in itertools.product(range(order), repeat=order - 1):
        rows.append((k,) + values)
        if _associative_at_last_row(rows):
            yield from _associative_tables(rows, order)
        rows.pop()


def _associative_at_last_row(rows: list[tuple[int, ...]]) -> bool:
    """(a·b)·c = a·(b·c) for every c, over the pairs (a, b) with rows a, b
    and a·b placed and max(a, b, a·b) the last placed row."""
    k = len(rows) - 1
    span = range(len(rows[0]))
    for a in range(k + 1):
        row_a = rows[a]
        for b in range(k + 1):
            ab = row_a[b]
            if max(a, b, ab) != k:
                continue
            row_ab, row_b = rows[ab], rows[b]
            for c in span:
                if row_ab[c] != row_a[row_b[c]]:
                    return False
    return True


def _canonical_table(table, n: int) -> tuple[tuple[int, ...], ...]:
    best = None
    for perm in itertools.permutations(range(1, n)):
        relabel = (0,) + perm
        inverse = [0] * n
        for old, new in enumerate(relabel):
            inverse[new] = old
        candidate = tuple(tuple(relabel[table[inverse[a]][inverse[b]]]
                                for b in range(n)) for a in range(n))
        if best is None or candidate < best:
            best = candidate
    return best


@lru_cache(maxsize=None)
def all_topologies(carrier: int) -> tuple[Topology, ...]:
    """All topologies on the carrier: up-set families of the reflexive
    transitive relations (finite spaces are Alexandrov)."""
    if carrier > MAX_ENUM_CARRIER:
        raise CapExceeded("topology enumeration carrier", carrier)
    out = []
    pairs = [(a, b) for a in range(carrier) for b in range(carrier) if a != b]
    for choice in itertools.product((False, True), repeat=len(pairs)):
        rel = [[a == b for b in range(carrier)] for a in range(carrier)]
        for (a, b), on in zip(pairs, choice):
            rel[a][b] = on
        if not _transitive(rel, carrier):
            continue
        out.append(Topology(carrier, tuple(mask_of_rows(rel, carrier))))
    return tuple(out)


def _transitive(rel, n: int) -> bool:
    for a in range(n):
        for b in range(n):
            if rel[a][b]:
                for c in range(n):
                    if rel[b][c] and not rel[a][c]:
                        return False
    return True


def mask_of_rows(rel, n: int) -> list[int]:
    return [mask_of(b for b in range(n) if rel[a][b]) for a in range(n)]


def action_topologies(monoid: FiniteMonoid) -> tuple[Topology, ...]:
    return tuple(t for t in all_topologies(monoid.order)
                 if continuous_subsets(monoid, t).is_action_topology)


@lru_cache(maxsize=None)
def all_msets(monoid: FiniteMonoid, carrier: int) -> tuple[MSet, ...]:
    """All right actions on a carrier of the given size, up to carrier
    permutation: the least of each permutation orbit in the order of the
    columns (m ↦ the map x ↦ x·m), in that order.  Only the columns of a
    generating set (monoid.generating_set) are chosen; the others follow as
    composites, and a choice that reaches one element with two columns is
    cut off at once.  The first generator's column is drawn only from the
    least member of each conjugacy class of self-maps of the carrier
    (_class_minima: 19 maps on 4 points, not 256); later generators range
    over every column.

    Sound: a choice that _derive completes is an action.  It has checked
    x·(w·g) = (x·w)·g for every w and generator g, and the n with
    x·(m·n) = (x·m)·n for all m and x form a submonoid, since
    x·(m·n1·n2) = (x·(m·n1))·n2 = ((x·m)·n1)·n2 = (x·m)·(n1·n2).  Each
    completed action is replaced by its canonical form (_canonical_action),
    the least member of its orbit, which is again an action, since
    relabelling by p (each column f becoming p∘f∘p⁻¹) preserves the action
    law.

    Complete: relabelling by p conjugates the first generator's column, so
    every orbit has a member whose first column is the least of its class,
    and that member is reached with the later columns it has.  So the set
    of canonical forms is that of the search over every column, and sorted
    it is that search's output: each orbit lies whole in that search's
    actions, and its first member in sorted order is its least."""
    if carrier > MAX_ENUM_CARRIER:
        raise CapExceeded("M-set enumeration carrier", carrier)
    names = tuple(f"p{i}" for i in range(carrier))
    functions = list(itertools.product(range(carrier), repeat=carrier))
    minima = _class_minima(carrier)
    gens = generating_set(monoid)
    order = monoid.order
    canons: set[tuple[tuple[int, ...], ...]] = set()

    def extend(chosen: dict) -> None:
        cols = _derive(monoid, chosen, carrier)
        if cols is None:
            return
        if len(chosen) < len(gens):
            for f in functions if chosen else minima:
                extend({**chosen, gens[len(chosen)]: f})
        else:
            canons.add(_canonical_action(tuple(cols[m] for m in range(order)),
                                         order, carrier))

    extend({})
    return tuple(MSet(monoid, names, tuple(tuple(cols[m][x] for m in range(order))
                                           for x in range(carrier)))
                 for cols in sorted(canons))


def _class_minima(carrier: int) -> list[tuple[int, ...]]:
    """The least self-map of the carrier in each conjugacy class
    {p∘f∘p⁻¹ : p a permutation}, in itertools.product order: each map not
    yet seen starts a class, and its conjugates are marked seen."""
    perms = list(itertools.permutations(range(carrier)))
    seen: set[tuple[int, ...]] = set()
    out = []
    for f in itertools.product(range(carrier), repeat=carrier):
        if f in seen:
            continue
        out.append(f)
        for p in perms:
            conjugate = [0] * carrier
            for x in range(carrier):
                conjugate[p[x]] = p[f[x]]
            seen.add(tuple(conjugate))
    return out


def _derive(monoid: FiniteMonoid, chosen: dict, carrier: int) -> dict | None:
    """The columns of the submonoid generated by the chosen generators'
    columns, by x·(w·g) = (x·w)·g; None when one element is reached with two
    different columns, which breaks the action law.  Each reached w is
    multiplied by each chosen g."""
    cols = {monoid.identity: tuple(range(carrier))}
    frontier = [monoid.identity]
    while frontier:
        fresh = []
        for w in frontier:
            for g, col_g in chosen.items():
                wg = monoid.table[w][g]
                col = tuple(col_g[y] for y in cols[w])
                if wg not in cols:
                    cols[wg] = col
                    fresh.append(wg)
                elif cols[wg] != col:
                    return None
        frontier = fresh
    return cols


def _canonical_action(cols, order: int, carrier: int):
    best = None
    for perm in itertools.permutations(range(carrier)):
        candidate = tuple(tuple(perm[cols[m][perm.index(x)]]
                                for x in range(carrier)) for m in range(order))
        if best is None or candidate < best:
            best = candidate
    return best


def continuous_msets(monoid: FiniteMonoid, topology: Topology,
                     max_carrier: int) -> tuple[MSet, ...]:
    out = []
    for size in range(1, max_carrier + 1):
        for mset in all_msets(monoid, size):
            if is_continuous_mset(mset, topology)[0]:
                out.append(mset)
    return tuple(out)


def all_semigroup_homs(source: FiniteMonoid, target: FiniteMonoid
                       ) -> tuple[SemigroupHom, ...]:
    return tuple(SemigroupHom(source, target, mapping, mapping[source.identity] == target.identity)
                 for mapping in itertools.product(range(target.order), repeat=source.order)
                 if all(mapping[source.table[a][b]] == target.table[mapping[a]][mapping[b]]
                        for a in range(source.order) for b in range(source.order)))


def all_monoid_homs(source: FiniteMonoid, target: FiniteMonoid
                    ) -> tuple[SemigroupHom, ...]:
    return tuple(h for h in all_semigroup_homs(source, target)
                 if h.preserves_identity)
