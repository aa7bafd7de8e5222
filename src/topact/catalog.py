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
from .monoid import FiniteMonoid, SemigroupHom, validate_hom, validate_monoid
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
    elements named 1, a, b, c."""
    if order > MAX_ENUM_ORDER:
        raise CapExceeded("monoid enumeration order", order)
    names = ("1", "a", "b", "c")[:order]
    if order == 1:
        return (validate_monoid(names, [[0]], 0),)
    free = order - 1
    seen: set[tuple[tuple[int, ...], ...]] = set()
    out = []
    for values in itertools.product(range(order), repeat=free * free):
        table = [[0] * order for _ in range(order)]
        for a in range(order):
            table[0][a] = a
            table[a][0] = a
        for i in range(free):
            for j in range(free):
                table[i + 1][j + 1] = values[i * free + j]
        if not _associative(table, order):
            continue
        canon = _canonical_table(table, order)
        if canon in seen:
            continue
        seen.add(canon)
        out.append(FiniteMonoid(names, tuple(tuple(r) for r in table), 0))
    return tuple(out)


def _associative(table, n: int) -> bool:
    for a in range(n):
        ta = table[a]
        for b in range(n):
            ab = ta[b]
            row_ab = table[ab]
            tb = table[b]
            for c in range(n):
                if row_ab[c] != ta[tb[c]]:
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
    permutation."""
    if carrier > MAX_ENUM_CARRIER:
        raise CapExceeded("M-set enumeration carrier", carrier)
    names = tuple(f"p{i}" for i in range(carrier))
    functions = list(itertools.product(range(carrier), repeat=carrier))
    non_identity = [m for m in range(monoid.order) if m != monoid.identity]
    seen: set[tuple[tuple[int, ...], ...]] = set()
    out = []
    for choice in itertools.product(range(len(functions)), repeat=len(non_identity)):
        cols: list[tuple[int, ...]] = [()] * monoid.order
        cols[monoid.identity] = tuple(range(carrier))
        for m, idx in zip(non_identity, choice):
            cols[m] = functions[idx]
        if not _action_law(cols, monoid, carrier):
            continue
        act = tuple(tuple(cols[m][x] for m in range(monoid.order))
                    for x in range(carrier))
        canon = _canonical_action(cols, monoid.order, carrier)
        if canon in seen:
            continue
        seen.add(canon)
        out.append(MSet(monoid, names, act))
    return tuple(out)


def _action_law(cols, monoid: FiniteMonoid, carrier: int) -> bool:
    for m in range(monoid.order):
        for n in range(monoid.order):
            mn = monoid.table[m][n]
            for x in range(carrier):
                if cols[n][cols[m][x]] != cols[mn][x]:
                    return False
    return True


def _canonical_action(cols, order: int, carrier: int):
    best = None
    for perm in itertools.permutations(range(carrier)):
        candidate = tuple(tuple(perm[cols[m][_inverse(perm, x)]]
                                for x in range(carrier)) for m in range(order))
        if best is None or candidate < best:
            best = candidate
    return best


def _inverse(perm, x: int) -> int:
    return perm.index(x)


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
    out = []
    for mapping in itertools.product(range(target.order), repeat=source.order):
        if all(mapping[source.table[a][b]] == target.table[mapping[a]][mapping[b]]
               for a in range(source.order) for b in range(source.order)):
            out.append(validate_hom(source, target, mapping))
    return tuple(out)


def all_monoid_homs(source: FiniteMonoid, target: FiniteMonoid
                    ) -> tuple[SemigroupHom, ...]:
    return tuple(h for h in all_semigroup_homs(source, target)
                 if h.preserves_identity)
