"""Named fixtures and exhaustive enumeration of small structures.

Enumerations power the acceptance suites: monoids up to table isomorphism
(identity pinned at index 0), searched entry by entry; all topologies on a
carrier as preorders, each extending one on a point fewer (finite spaces
are Alexandrov); and M-sets on small carriers up to carrier permutation.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .actions import MSet, is_continuous_mset
from .errors import CapExceeded
from .monoid import FiniteMonoid, SemigroupHom, generating_set, validate_monoid
from .reflections import continuous_subsets
from .topology import Topology, partition_topology
from .util import bits, mask_of

MAX_ENUM_ORDER = 5
MAX_ENUM_CARRIER = 5


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
    elements named 1, a, b, c, d.

    A depth-first search fills the free entries (a, b), a, b ≥ 1, one at a
    time in row-major order, values ascending, so full tables arrive in the
    order of one itertools.product over the free entries.  Each placed entry
    is checked by _associative_at, and a prefix that fails is cut off with
    its subtree.  The first table of each isomorphism class is kept, and its
    (order − 1)! relabellings fixing 0 are marked seen.

    Sound: a triple (x, y, z) with x, y, z ≥ 1 is checked when the last of
    x·y, (x·y)·z, y·z and x·(y·z) is placed (a triple with a 0 holds, 0
    being the identity), so every full table reached is associative.
    Complete: a check reads only placed entries, so a prefix is cut only for
    a triple that fails in every table it extends; and a relabelling fixing
    0 keeps a table associative with identity 0, so the marked tables are
    exactly the later members of the kept classes.
    """
    if order > MAX_ENUM_ORDER:
        raise CapExceeded("monoid enumeration order", order)
    if order < 1:
        return ()
    names = ("1", "a", "b", "c", "d")[:order]
    table = [[b if a == 0 else a if b == 0 else -1 for b in range(order)]  # -1: not placed
             for a in range(order)]
    cells = [(a, b) for a in range(1, order) for b in range(1, order)]
    perms = [(0,) + p for p in itertools.permutations(range(1, order))]
    seen: set[tuple[tuple[int, ...], ...]] = set()
    out = []

    def place(k: int) -> None:
        if k == len(cells):
            full = tuple(map(tuple, table))
            if full not in seen:
                out.append(FiniteMonoid(names, full, 0))
                # relabelled by p⁻¹: x·y becomes p⁻¹(p(x)·p(y))
                seen.update(tuple(tuple(p.index(full[x][y]) for y in p) for x in p)
                            for p in perms)
            return
        a, b = cells[k]
        for v in range(order):
            table[a][b] = v
            if _associative_at(table, a, b):
                place(k + 1)
        table[a][b] = -1

    place(0)
    return tuple(out)


def _associative_at(t: list[list[int]], a: int, b: int) -> bool:
    """(x·y)·z = x·(y·z) over the triples with x, y, z ≥ 1 whose four
    products are placed (not -1) and include ab = t[a][b], in its four
    roles: x·y = ab, y·z = ab, (x·y)·z = ab and x·(y·z) = ab."""
    ab, row_a, rest = t[a][b], t[a], range(1, len(t))
    for z in rest:              # (a·b)·z = a·(b·z)
        left, bz = t[ab][z], t[b][z]
        if left >= 0 and bz >= 0 and row_a[bz] >= 0 and left != row_a[bz]:
            return False
    for x in rest:              # (x·a)·b = x·(a·b)
        xa, right = t[x][a], t[x][ab]
        if xa >= 0 and right >= 0 and t[xa][b] >= 0 and t[xa][b] != right:
            return False
    for x, row_x in zip(rest, t[1:]):
        for y in rest:
            if row_x[y] == a:   # (x·y)·b = x·(y·b), where x·y = a
                yb = t[y][b]
                if yb >= 0 and row_x[yb] >= 0 and row_x[yb] != ab:
                    return False
            if row_x[y] == b and row_a[x] >= 0:   # (a·x)·y = a·(x·y), where x·y = b
                left = t[row_a[x]][y]
                if left >= 0 and left != ab:
                    return False
    return True


@lru_cache(maxsize=None)
def all_topologies(carrier: int) -> tuple[Topology, ...]:
    """All topologies on the carrier, as specialization preorders (a ≤ b
    when b ∈ nb[a]; finite spaces are Alexandrov), in the order of one
    itertools.product over the pairs a ≠ b, row-major, of whether a ≤ b.

    Each preorder on the first carrier − 1 points is extended by a last
    point p: nb[p] is {p} ∪ U for an open (up-)set U, and p joins nb[a] for
    each a in a closed (down-)set D whose points all have U ⊆ nb[a].

    Sound: for a ≤ p ≤ u, U ⊆ nb[a] gives a ≤ u; the other chains through p
    stay inside U or D, as U is an up-set and D a down-set.  Complete: a
    preorder on the carrier restricts to one on the first carrier − 1
    points, in which the points above p are open, those below p closed, and
    U ⊆ nb[a] for each a below p; distinct choices give distinct preorders.
    """
    if carrier > MAX_ENUM_CARRIER:
        raise CapExceeded("topology enumeration carrier", carrier)
    if carrier < 1:
        return (Topology(0, ()),) if carrier == 0 else ()
    p, out = 1 << (carrier - 1), []
    for old in all_topologies(carrier - 1):
        nbhd = old.nbhd
        opens = [s for s in range(p) if all(nbhd[a] | s == s for a in bits(s))]
        for up in opens:
            below = mask_of(a for a, nb in enumerate(nbhd) if nb & up == up)
            for down in ((p - 1) ^ s for s in opens):
                if down & below == down:
                    out.append(Topology(carrier, tuple(nb | p if down >> a & 1 else nb
                                                       for a, nb in enumerate(nbhd)) + (p | up,)))
    return tuple(sorted(out, key=lambda t: [m >> b & 1 for m in t.nbhd for b in range(carrier)]))


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
