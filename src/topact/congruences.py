"""Right congruences on a finite monoid, their lattice, and equivariant
filters of congruences.

A right congruence is stored as its class map, canonicalized so class ids
appear in order of least member.  The lattice above a right congruence
(above the diagonal, the whole lattice) is generated as the join closure of
it and the principal congruences above it, indexes its members, and holds
at most MAX_CONGRUENCES of them.  On a finite monoid an equivariant filter
is the up-set of its least member, which is two-sided, and every up-set of
a two-sided congruence satisfies the four axioms (non-empty, upward closed,
downward directed, closed under the inverse-image action).  So a filter is
stored as its least member, and its members are the lattice above it.
validate_filter checks a list of members against the axioms, as a bitset
over the lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .errors import CapExceeded, InternalCheckError, TopactError
from .monoid import FiniteMonoid, SemigroupHom
from .topology import Topology
from .util import filled_once, mask_of


class NotStable(TopactError):
    """The partition is not stable under right multiplication."""


class InvalidFilter(TopactError):
    """Base for the filter-axiom violations."""


class EmptyFilter(InvalidFilter):
    pass


class NotUpwardClosed(InvalidFilter):
    def __init__(self, member, above):
        super().__init__(f"member {member} has {above} above it outside the filter")
        self.member = member
        self.above = above


class NotDirected(InvalidFilter):
    def __init__(self, r1, r2):
        super().__init__(f"no common refinement of {r1} and {r2} in the filter")
        self.pair = (r1, r2)


class NotEquivariant(InvalidFilter):
    def __init__(self, q: int, member):
        super().__init__(f"inverse image at {q} of {member} escapes the filter")
        self.q = q
        self.member = member


MAX_CONGRUENCES = 100_000


def _canonical(class_of: Sequence[int]) -> tuple[int, ...]:
    relabel: dict[int, int] = {}
    out = []
    for c in class_of:
        if c not in relabel:
            relabel[c] = len(relabel)
        out.append(relabel[c])
    return tuple(out)


@dataclass(frozen=True)
class RightCongruence:
    """Partition of the monoid carrier stable under right multiplication."""

    monoid: FiniteMonoid
    class_of: tuple[int, ...]

    @property
    def num_classes(self) -> int:
        return max(self.class_of) + 1

    def same(self, a: int, b: int) -> bool:
        return self.class_of[a] == self.class_of[b]

    def classes(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.num_classes)]
        for m, c in enumerate(self.class_of):
            out[c].append(m)
        return tuple(map(tuple, out))

    def representatives(self) -> tuple[int, ...]:
        seen: dict[int, int] = {}
        for m, c in enumerate(self.class_of):
            seen.setdefault(c, m)
        return tuple(seen[c] for c in range(self.num_classes))

    def label(self) -> str:
        names = self.monoid.elements
        return "|".join(",".join(names[m] for m in cls) for cls in self.classes())

    def __repr__(self) -> str:
        return f"RightCongruence({self.label()})"

    @filled_once
    def partition_topology(self) -> Topology:
        """The topology whose opens are the unions of the classes, built on
        first read by _partition_topology."""
        return _partition_topology(self)

    @filled_once
    def quotient(self) -> tuple[FiniteMonoid, SemigroupHom]:
        """M/self and the projection, built on first read by
        _quotient_monoid: valid only when self is two-sided, as r0 and a
        filter's least member are."""
        return _quotient_monoid(self.monoid, self)


def _partition_topology(partition: RightCongruence) -> Topology:
    """The topology whose opens are the unions of the partition's classes."""
    masks = [0] * partition.num_classes
    for m, c in enumerate(partition.class_of):
        masks[c] |= 1 << m
    return Topology(len(partition.class_of), tuple(masks[c] for c in partition.class_of))


def _quotient_monoid(monoid: FiniteMonoid, cong: RightCongruence
                     ) -> tuple[FiniteMonoid, SemigroupHom]:
    """M/cong for a two-sided congruence, each class named [m] after its
    least member m, in order of least member, with the quotient map.  Since
    cong is two-sided, the class of a·b depends only on the classes of a and
    b, so the table is well defined and inherits associativity and the
    identity from M, and the quotient map is a monoid hom."""
    reps = cong.representatives()
    table = tuple(tuple(cong.class_of[monoid.table[a][b]] for b in reps) for a in reps)
    names = tuple(f"[{monoid.elements[m]}]" for m in reps)
    quotient = FiniteMonoid(names, table, cong.class_of[monoid.identity])
    return quotient, SemigroupHom(monoid, quotient, cong.class_of, True)


def congruence_from_class_map(monoid: FiniteMonoid,
                              class_of: Sequence[int]) -> RightCongruence:
    """The partition with the given class map, checked right stable: the
    files module builds partitions read from outside through it.  NotStable
    names the first pair that breaks, class by class, and its right
    factor."""
    cong = RightCongruence(monoid, _canonical(class_of))
    found = _unstable_pair(cong, monoid.table)
    if found is not None:
        a, b, m = map(monoid.elements.__getitem__, found)
        raise NotStable(f"pair ({a}, {b}) breaks at right factor {m}")
    return cong


def _unstable_pair(r: RightCongruence, rows: Sequence[Sequence[int]]
                   ) -> Optional[tuple[int, int, int]]:
    """The first (a, b, m), class by class, with a the least member of its
    class, b another member and rows[a][m], rows[b][m] in different classes,
    or None.  The table's rows give right stability, its columns left."""
    class_of = r.class_of
    for a, *rest in r.classes():
        if rest:
            image = [class_of[x] for x in rows[a]]
            for b in rest:
                for m, x in enumerate(rows[b]):
                    if class_of[x] != image[m]:
                        return a, b, m
    return None


def diagonal(monoid: FiniteMonoid) -> RightCongruence:
    return RightCongruence(monoid, tuple(range(monoid.order)))


def total(monoid: FiniteMonoid) -> RightCongruence:
    return RightCongruence(monoid, (0,) * monoid.order)


def generated_congruence(monoid: FiniteMonoid, pairs: Iterable[tuple[int, int]],
                         base: Optional[RightCongruence] = None) -> RightCongruence:
    """Smallest right congruence containing base (the diagonal unless given)
    and the pairs: the equivalence closure, by union-find started from
    base's classes, of base and the pairs' right translates (a·m, b·m).
    That relation is stable under right multiplication, and so is its
    equivalence closure, whose chains translate link by link.

    The same holds after each pair: the union-find then holds the closure
    of base and the translates of the pairs so far, a right congruence.  So
    when a pair's ends are already related, so is each of its translates,
    and the pair is skipped."""
    parent = list(range(monoid.order) if base is None else _least_members(base.class_of))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        if find(a) == find(b):
            continue
        for am, bm in zip(monoid.table[a], monoid.table[b]):
            ra, rb = find(am), find(bm)
            if ra != rb:
                parent[rb] = ra
    return RightCongruence(monoid, _canonical([find(x) for x in range(monoid.order)]))


def meet(r1: RightCongruence, r2: RightCongruence) -> RightCongruence:
    """Common refinement."""
    width = r2.num_classes
    return RightCongruence(
        r1.monoid, _canonical([c1 * width + c2 for c1, c2 in zip(r1.class_of, r2.class_of)]))


def leq(r1: RightCongruence, r2: RightCongruence) -> bool:
    """Containment r1 ⊆ r2 of relations: r2 coarsens r1."""
    image: dict[int, int] = {}
    for m in range(len(r1.class_of)):
        c1, c2 = r1.class_of[m], r2.class_of[m]
        if image.setdefault(c1, c2) != c2:
            return False
    return True


def inverse_image_congruence(monoid: FiniteMonoid, q: int,
                             r: RightCongruence) -> RightCongruence:
    """q*(r): relate m, n when (q·m, q·n) lie in r."""
    return RightCongruence(
        monoid, _canonical([r.class_of[monoid.table[q][m]] for m in range(monoid.order)]))


def is_two_sided(r: RightCongruence) -> bool:
    return _unstable_pair(r, r.monoid.columns) is None


class CongruenceLattice(tuple):
    """Right congruences in (num_classes, class_of) order, indexed:
    ``position`` maps a class map to its index, and ``action``, the
    inverse-image action on the indices, is built on first read.  Translates
    stay in the lattice when it is closed under them: the whole lattice, or
    the lattice above a two-sided congruence.  ``site`` holds the principal
    site on these members once invariants.principal_site has built it, so
    the site lives as long as the lattice's cache entry.
    """

    def __new__(cls, monoid: FiniteMonoid, members: Iterable[RightCongruence]):
        lattice = super().__new__(cls, members)
        lattice.position = {r.class_of: i for i, r in enumerate(lattice)}
        lattice._table = monoid.table
        lattice.site = None
        return lattice

    def index_of(self, r: RightCongruence) -> int:
        i = self.position.get(r.class_of)
        s = None if i is None else self[i]
        if s is not r and s != r:
            raise TopactError(f"{r!r} is not in the right-congruence lattice")
        return i

    @filled_once
    def action(self) -> tuple[tuple[int, ...], ...]:
        """Row i: the index of q*(r_i) for each q."""
        position, table = self.position, self._table
        return tuple(tuple(position[_canonical([r.class_of[t] for t in q_row])] for q_row in table)
                     for r in self)


def enumerate_congruences(monoid: FiniteMonoid,
                          base: Optional[RightCongruence] = None) -> CongruenceLattice:
    """The lattice above base, a right congruence (the whole lattice when
    base is None, the diagonal): the join closure of base and the principal
    congruences above it, in canonical order.

    Every right congruence r ⊇ base is base joined with the principal
    congruences it contains, and base ∨ ⟨(b, a)⟩ depends only on the
    base-classes of a and b.  So the principal congruences above base are
    p = base ∨ ⟨(b, a)⟩ for least members b < a of base-classes, and the
    join closure of base and G ∪ {p} is C(G) ∪ {r ∨ p : r ∈ C(G)}.  They are
    added one at a time, finest first: a p already in C(G) adds nothing
    (C(G) is closed under joins), which leaves only the join-irreducible
    ones to be joined with the members found so far.  When r already
    relates a and b, p ⊆ r and r ∨ p = r is skipped; otherwise a union-find
    merges r's classes along p's (least member, member) pairs, of which r,
    containing base, needs only those whose member is least in its
    base-class.  Members are kept in least-member form (m ↦ least element
    of m's class), a canonical key that the union-find yields directly.

    A miss raises CapExceeded as soon as it finds more than MAX_CONGRUENCES
    members.  The lattice above the diagonal is the whole lattice and shares
    its cache entry.
    """
    whole = base is None or base.num_classes == monoid.order
    return _lattice_above(monoid, None if whole else base)


@lru_cache(maxsize=None)
def _lattice_above(monoid: FiniteMonoid, base: Optional[RightCongruence]
                   ) -> CongruenceLattice:
    start = tuple(range(monoid.order)) if base is None else _least_members(base.class_of)
    reps = [m for m, least in enumerate(start) if least == m]
    principal: dict[tuple[int, ...], tuple[int, int]] = {}
    for k, a in enumerate(reps):
        for b in reps[:k]:
            p = _least_members(generated_congruence(monoid, [(b, a)], base).class_of)
            principal.setdefault(p, (b, a))
    lattice = [start]
    found = set(lattice)
    for p in sorted(principal, key=lambda p: -len(set(p))):
        if p in found:
            continue
        b, a = principal[p]
        links = [(least, m) for m, least in enumerate(p) if least != m and start[m] == m]
        for r in lattice[:]:
            if r[a] == r[b]:
                continue
            parent = list(r)
            linked = []
            for x, y in links:
                x, y = parent[x], parent[y]
                while parent[x] != x:
                    x = parent[x]
                while parent[y] != y:
                    y = parent[y]
                if x < y:
                    parent[y] = x
                    linked.append(y)
                elif y < x:
                    parent[x] = y
                    linked.append(x)
            # a root links to a smaller one, so ascending order resolves
            # each linked root from an already resolved parent
            for x in sorted(linked):
                parent[x] = parent[parent[x]]
            j = tuple(map(parent.__getitem__, r))
            if j not in found:
                found.add(j)
                lattice.append(j)
                if len(found) > MAX_CONGRUENCES:
                    raise CapExceeded("right congruences", len(found))
    classes = sorted((_canonical(r) for r in lattice), key=lambda c: (max(c) + 1, c))
    return CongruenceLattice(monoid, (RightCongruence(monoid, c) for c in classes))


enumerate_congruences.cache_info = _lattice_above.cache_info
enumerate_congruences.cache_clear = _lattice_above.cache_clear


def _least_members(class_of: Sequence[int]) -> tuple[int, ...]:
    """m ↦ the least element of m's class."""
    least: dict[int, int] = {}
    return tuple(least.setdefault(c, m) for m, c in enumerate(class_of))


@dataclass(frozen=True)
class CongruenceFilter:
    """An equivariant filter of right congruences, stored as its least
    member, its base: the filter is the congruences above least.  For a
    two-sided least that up-set is upward closed and directed, with least
    member least, and equivariant, since q*(s) ⊇ q*(least) ⊇ least for every
    member s."""

    monoid: FiniteMonoid
    least: RightCongruence

    @property
    def members(self) -> CongruenceLattice:
        """The lattice above least, in lattice order: by number of classes,
        then class map; read from the lattice cache on each access."""
        return enumerate_congruences(self.monoid, base=self.least)

    def __contains__(self, r: RightCongruence) -> bool:
        return r.monoid == self.monoid and leq(self.least, r)

    def __repr__(self) -> str:
        return f"CongruenceFilter(base {self.least.label()})"


def validate_filter(monoid: FiniteMonoid,
                    members: Iterable[RightCongruence]) -> CongruenceFilter:
    """Check the four filter axioms and compute the base, the least member.

    The members are a bitset F over the lattice and are listed in its
    order: by number of classes, then class map.  A finite upward-closed
    family is directed exactly when it has a least element, which has the
    most classes and so comes last: F is upward closed and directed exactly
    when F is the lattice above last.  Then F is equivariant exactly when
    the translates of last lie in F, since q*(s) ⊇ q*(last) for every member
    s.  When an axiom fails, the scans below name the same first witness as
    the axioms checked member by member.
    """
    members = tuple(members)
    if not members:
        raise EmptyFilter("a congruence filter cannot be empty")
    lattice = enumerate_congruences(monoid)
    index = sorted(set(map(lattice.index_of, members)))
    flt = mask_of(index)
    mem = tuple(map(lattice.__getitem__, index))
    if enumerate_congruences(monoid, base=mem[-1]) != mem:
        for r in mem:
            for s in enumerate_congruences(monoid, base=r):
                if not flt >> lattice.position[s.class_of] & 1:
                    raise NotUpwardClosed(r, s)
        # with upward closure checked, some member lies below r1 and r2 iff
        # their meet (a lattice element above that member) is a member
        for k, r1 in enumerate(mem):
            for r2 in mem[:k]:
                if not flt >> lattice.position[meet(r1, r2).class_of] & 1:
                    raise NotDirected(r1, r2)
        raise InternalCheckError("directed finite filter must have a unique minimum")
    if not all(flt >> t & 1 for t in lattice.action[index[-1]]):
        for i in index:
            for q, t in enumerate(lattice.action[i]):
                if not flt >> t & 1:
                    raise NotEquivariant(q, lattice[i])
    return CongruenceFilter(monoid, mem[-1])


def filter_generated(monoid: FiniteMonoid,
                     gens: Iterable[RightCongruence]) -> CongruenceFilter:
    """Smallest equivariant filter containing the generators: the up-set of
    b = ⋂ q*(g) over the generators g and all q.  Any equivariant filter
    containing the generators contains every q*(g), so their meet b, so
    up(b); and up(b) is equivariant, since p*(b) = ⋂ (q·p)*(g) ⊇ b."""
    gens = list(gens)
    if not gens:
        raise EmptyFilter("need at least one generator")
    images = [[g.class_of[t] for t in row] for g in gens for row in monoid.table]
    return CongruenceFilter(monoid, RightCongruence(monoid, _canonical(zip(*images))))


def full_filter(monoid: FiniteMonoid) -> CongruenceFilter:
    """Every right congruence: the up-set of the diagonal."""
    return CongruenceFilter(monoid, diagonal(monoid))


# the keys one suite cell asks for are τ and τ~, on M and on its opposite
R0_MEMO_SIZE = 16


def least_open_congruence(monoid: FiniteMonoid, topology: Topology) -> RightCongruence:
    """r0, the least open right congruence, as the monoid's one stored
    congruence with r0's class map (monoid.r0s), so that the values built on
    it (its partition topology, the action topology, and its quotient, the
    powder monoid) are built once per (monoid, r0)."""
    class_of = _r0_class_map(monoid, topology)
    stored = monoid.r0s.get(class_of)
    if stored is None:
        stored = monoid.r0s[class_of] = RightCongruence(monoid, class_of)
    return stored


@lru_cache(maxsize=R0_MEMO_SIZE)
def _r0_class_map(monoid: FiniteMonoid, topology: Topology) -> tuple[int, ...]:
    """r0's canonical class map, in one union-find pass.  The last
    R0_MEMO_SIZE (monoid, topology) pairs are memoized; the memo compares
    monoids by value, so it holds class maps, never a monoid's stored r0.

    A right congruence r is open iff every q*(r) has open, hence clopen,
    classes, i.e. iff r relates q·a and q·b whenever a and b lie in one
    component.  So r0 is the equivalence closure of the pairs (q·a·m, q·b·m):
    the two-sided congruence generated by the component partition.

    Each point carries a block label.  First x is merged with y along each
    edge (x, y) of the topology (Topology.edges), which leaves the
    components; then, for every merge (a, b) in turn, (q·a, q·b) and
    (a·q, b·q) are merged for every q, and each new merge is visited in its
    own turn.  A merge relabels the smaller block.  The labels are the
    equivalence closure of the merges.  Both translates of every merge are
    merged, and a translated chain of merges is again a chain, so the
    result is closed under left and right multiplication; and every merge
    is forced by the definition, so it is the least such congruence.
    There are at most n - 1 merges of 2n lookups each, and a topology with
    no merge (the discrete one) returns the diagonal without reading the
    table's columns.
    """
    n = monoid.order
    table = monoid.table
    label = list(range(n))
    blocks = [[x] for x in range(n)]
    merges: list[tuple[int, int]] = []

    def merge(x: int, y: int) -> None:
        keep, gone = label[x], label[y]
        if len(blocks[keep]) < len(blocks[gone]):
            keep, gone = gone, keep
        for z in blocks[gone]:
            label[z] = keep
        blocks[keep] += blocks[gone]
        merges.append((x, y))

    for x, y in topology.edges:
        if label[x] != label[y]:
            merge(x, y)
    # the loop also visits the merges appended while it runs; after
    # n - 1 merges every point shares one label
    for a, b in merges:
        if len(merges) == n - 1:
            break
        for x, y in zip(table[a], table[b]):
            if label[x] != label[y]:
                merge(x, y)
        for x, y in zip(monoid.columns[a], monoid.columns[b]):
            if label[x] != label[y]:
                merge(x, y)
    return _canonical(label)


# the memo's statistics and reset, under the name callers know
least_open_congruence.cache_info = _r0_class_map.cache_info
least_open_congruence.cache_clear = _r0_class_map.cache_clear


def open_congruences(monoid: FiniteMonoid, topology: Topology) -> CongruenceFilter:
    """The congruences whose quotients are continuous actions: every
    inverse-image translate q*(r) must be open in the product topology.

    An equivalence relation R is open in τ×τ exactly when each of its
    classes is τ-open.  If R is open, (a, a) ∈ R gives nb(a)×nb(a) ⊆ R, so
    nb(a) ⊆ [a]; conversely, open classes give nb(a)×nb(b) ⊆ [a]×[a] ⊆ R
    for every (a, b) ∈ R.  So r is a member when every q*(r) has open
    classes, which is when r contains r0 (see least_open_congruence): the
    filter is the up-set of the two-sided r0.

    Openness of r alone is weaker (a right-zero monoid with a suitable
    topology separates the two) and does not yield an equivariant filter;
    the translate-closed form always does.
    """
    return CongruenceFilter(monoid, least_open_congruence(monoid, topology))


def enumerate_filters(monoid: FiniteMonoid) -> tuple[CongruenceFilter, ...]:
    """Every equivariant filter on a finite monoid.

    Each is the up-set of its least element, and a principal up-set is
    equivariant exactly when that least element is two-sided.
    """
    return tuple(CongruenceFilter(monoid, r)
                 for r in enumerate_congruences(monoid) if is_two_sided(r))
