"""Right congruences on a finite monoid, their lattice, and equivariant
filters of congruences.

A right congruence is stored as its class map, canonicalized so class ids
appear in order of least member.  The lattice is generated as the join
closure of the principal congruences; filters are validated against the
four axioms (non-empty, upward closed, downward directed, closed under the
inverse-image action) and always carry a least element on finite monoids.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .errors import CapExceeded, InternalCheckError, TopactError
from .monoid import FiniteMonoid
from .topology import Topology, is_locally_constant
from .util import mask_of


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


class NotInFilter(TopactError):
    pass


DEFAULT_CAP = 100_000


def congruence_cap() -> int:
    """The lattice size cap: TOPACT_MAX_CONGRUENCES when set, else DEFAULT_CAP."""
    value = os.environ.get("TOPACT_MAX_CONGRUENCES")
    if not value:
        return DEFAULT_CAP
    try:
        cap = int(value)
    except ValueError:
        cap = 0
    if cap < 1:
        raise TopactError(
            f"TOPACT_MAX_CONGRUENCES must be a positive integer, not {value!r}")
    return cap


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
        return tuple(tuple(c) for c in out)

    def representatives(self) -> tuple[int, ...]:
        seen: dict[int, int] = {}
        for m, c in enumerate(self.class_of):
            seen.setdefault(c, m)
        return tuple(seen[c] for c in range(self.num_classes))

    def relation_mask(self) -> int:
        """The relation as a subset of M x M, row-major."""
        n = self.monoid.order
        return mask_of(a * n + b for a in range(n) for b in range(n)
                       if self.class_of[a] == self.class_of[b])

    def label(self) -> str:
        names = self.monoid.elements
        return "|".join(",".join(names[m] for m in cls) for cls in self.classes())

    def __repr__(self) -> str:
        return f"RightCongruence({self.label()})"


def congruence_from_class_map(monoid: FiniteMonoid,
                              class_of: Sequence[int]) -> RightCongruence:
    cong = RightCongruence(monoid, _canonical(class_of))
    _check_right_stable(cong)
    return cong


def _check_right_stable(cong: RightCongruence) -> None:
    mon = cong.monoid
    for cls in cong.classes():
        a0 = cls[0]
        for b in cls[1:]:
            for m in range(mon.order):
                if cong.class_of[mon.table[a0][m]] != cong.class_of[mon.table[b][m]]:
                    raise NotStable(
                        f"pair ({mon.elements[a0]}, {mon.elements[b]}) breaks at "
                        f"right factor {mon.elements[m]}")


def diagonal(monoid: FiniteMonoid) -> RightCongruence:
    return RightCongruence(monoid, tuple(range(monoid.order)))


def total(monoid: FiniteMonoid) -> RightCongruence:
    return RightCongruence(monoid, (0,) * monoid.order)


def generated_congruence(monoid: FiniteMonoid,
                         pairs: Iterable[tuple[int, int]]) -> RightCongruence:
    """Smallest right congruence containing the pairs: the equivalence
    closure, by union-find, of their right translates (a·m, b·m).  That
    relation is stable under right multiplication, and so is its
    equivalence closure, whose chains translate link by link."""
    parent = list(range(monoid.order))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        for am, bm in zip(monoid.table[a], monoid.table[b]):
            ra, rb = find(am), find(bm)
            if ra != rb:
                parent[rb] = ra
    return RightCongruence(monoid, _canonical([find(x) for x in range(monoid.order)]))


def join(r1: RightCongruence, r2: RightCongruence) -> RightCongruence:
    """Partition join; right stability is inherited, no extra closure needed."""
    parent = list(range(len(r1.class_of)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for cong in (r1, r2):
        for cls in cong.classes():
            for b in cls[1:]:
                ra, rb = find(cls[0]), find(b)
                if ra != rb:
                    parent[rb] = ra
    return RightCongruence(r1.monoid, _canonical([find(x) for x in range(len(parent))]))


def meet(r1: RightCongruence, r2: RightCongruence) -> RightCongruence:
    """Common refinement."""
    return RightCongruence(
        r1.monoid,
        _canonical([r1.class_of[m] * (max(r2.class_of) + 1) + r2.class_of[m]
                    for m in range(len(r1.class_of))]))


def leq(r1: RightCongruence, r2: RightCongruence) -> bool:
    """Containment r1 ⊆ r2 of relations: r2 coarsens r1."""
    image: dict[int, int] = {}
    for m in range(len(r1.class_of)):
        c1, c2 = r1.class_of[m], r2.class_of[m]
        if image.setdefault(c1, c2) != c2:
            return False
    return True


def class_projection(fine: RightCongruence, coarse: RightCongruence) -> tuple[int, ...]:
    """For fine ⊆ coarse, the induced map on class ids."""
    out = [-1] * fine.num_classes
    for m in range(len(fine.class_of)):
        out[fine.class_of[m]] = coarse.class_of[m]
    return tuple(out)


def inverse_image_congruence(monoid: FiniteMonoid, q: int,
                             r: RightCongruence) -> RightCongruence:
    """q*(r): relate m, n when (q·m, q·n) lie in r."""
    return RightCongruence(
        monoid, _canonical([r.class_of[monoid.table[q][m]] for m in range(monoid.order)]))


def is_two_sided(r: RightCongruence) -> bool:
    mon = r.monoid
    for cls in r.classes():
        a0 = cls[0]
        for b in cls[1:]:
            for m in range(mon.order):
                if r.class_of[mon.table[m][a0]] != r.class_of[mon.table[m][b]]:
                    return False
    return True


@lru_cache(maxsize=None)
def enumerate_congruences(monoid: FiniteMonoid,
                          cap: Optional[int] = None) -> tuple[RightCongruence, ...]:
    """The full lattice: join closure of the principal congruences plus the
    diagonal, in canonical order.

    Every right congruence is the join of the principal congruences it
    contains, and the join closure of G ∪ {p} is C(G) ∪ {r ∨ p : r ∈ C(G)}.
    So the distinct principal congruences are added one at a time, finest
    first: a p already in C(G) adds nothing (C(G) is closed under joins),
    which leaves only the join-irreducible ones to be joined with the
    members found so far.  When p is generated by (b, a) and r already
    relates a and b, p ⊆ r and r ∨ p = r is skipped; otherwise a union-find
    merges r's classes along p's (least member, member) pairs.  Members are
    kept in least-member form (m ↦ least element of m's class), a canonical
    key that the union-find yields directly.

    The cap (``TOPACT_MAX_CONGRUENCES`` unless given) bounds the work of a
    cache miss: CapExceeded is raised as soon as more than cap members are
    found.
    """
    limit = cap if cap is not None else congruence_cap()
    principal: dict[tuple[int, ...], tuple[int, int]] = {}
    for a in range(monoid.order):
        for b in range(a):
            p = _least_members(generated_congruence(monoid, [(b, a)]).class_of)
            principal.setdefault(p, (b, a))
    lattice = [tuple(range(monoid.order))]
    found = set(lattice)
    for p in sorted(principal, key=lambda p: -len(set(p))):
        if p in found:
            continue
        b, a = principal[p]
        links = [(least, m) for m, least in enumerate(p) if least != m]
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
                if len(found) > limit:
                    raise CapExceeded("right congruences", len(found))
    classes = sorted((_canonical(r) for r in lattice), key=lambda c: (max(c) + 1, c))
    return tuple(RightCongruence(monoid, c) for c in classes)


def _least_members(class_of: Sequence[int]) -> tuple[int, ...]:
    """m ↦ the least element of m's class."""
    least: dict[int, int] = {}
    return tuple(least.setdefault(c, m) for m, c in enumerate(class_of))


@dataclass(frozen=True)
class CongruenceFilter:
    """An equivariant filter of right congruences, with its computed base.

    On a finite monoid the base is the single least member.
    """

    monoid: FiniteMonoid
    members: tuple[RightCongruence, ...]
    base: tuple[RightCongruence, ...]

    @property
    def least(self) -> RightCongruence:
        return self.base[0]

    def __contains__(self, r: RightCongruence) -> bool:
        return r in self.members

    def index(self, r: RightCongruence) -> int:
        return self.members.index(r)

    def __repr__(self) -> str:
        return f"CongruenceFilter({len(self.members)} members, base {self.least.label()})"


def _sorted_members(members: Iterable[RightCongruence]) -> tuple[RightCongruence, ...]:
    return tuple(sorted(set(members), key=lambda r: (r.num_classes, r.class_of)))


def validate_filter(monoid: FiniteMonoid,
                    members: Iterable[RightCongruence]) -> CongruenceFilter:
    """Check the four filter axioms and compute the base of minimal members."""
    mem = _sorted_members(members)
    if not mem:
        raise EmptyFilter("a congruence filter cannot be empty")
    lattice = enumerate_congruences(monoid)
    member_set = set(mem)
    for r in mem:
        for s in lattice:
            if leq(r, s) and s not in member_set:
                raise NotUpwardClosed(r, s)
    # with upward closure checked, some member lies below r1 and r2 iff
    # their meet (a lattice element above that member) is a member
    for i, r1 in enumerate(mem):
        for r2 in mem[:i]:
            if meet(r1, r2) not in member_set:
                raise NotDirected(r1, r2)
    for r in mem:
        for q in range(monoid.order):
            if inverse_image_congruence(monoid, q, r) not in member_set:
                raise NotEquivariant(q, r)
    minimal = tuple(r for r in mem
                    if not any(s != r and leq(s, r) for s in mem))
    if len(minimal) != 1:
        raise InternalCheckError("directed finite filter must have a unique minimum")
    return CongruenceFilter(monoid, mem, minimal)


def filter_generated(monoid: FiniteMonoid,
                     gens: Iterable[RightCongruence]) -> CongruenceFilter:
    """Smallest equivariant filter containing the generators: close under
    inverse images and meets, then close upward in the lattice."""
    core = set(gens)
    if not core:
        raise EmptyFilter("need at least one generator")
    frontier = list(core)
    while frontier:
        fresh = []
        candidates = []
        for r in frontier:
            for q in range(monoid.order):
                candidates.append(inverse_image_congruence(monoid, q, r))
            for s in list(core):
                candidates.append(meet(r, s))
        for c in candidates:
            if c not in core:
                core.add(c)
                fresh.append(c)
        frontier = fresh
    members = [s for s in enumerate_congruences(monoid)
               if any(leq(r, s) for r in core)]
    return validate_filter(monoid, members)


def full_filter(monoid: FiniteMonoid) -> CongruenceFilter:
    return validate_filter(monoid, enumerate_congruences(monoid))


def open_congruences(monoid: FiniteMonoid, topology: Topology) -> CongruenceFilter:
    """The congruences whose quotients are continuous actions: every
    inverse-image translate q*(r) must be open in the product topology.

    An equivalence relation R is open in τ×τ exactly when each of its
    classes is τ-open.  If R is open, (a, a) ∈ R gives nb(a)×nb(a) ⊆ R, so
    nb(a) ⊆ [a]; conversely, open classes give nb(a)×nb(b) ⊆ [a]×[a] ⊆ R
    for every (a, b) ∈ R.  So r is a member when m ↦ r.class_of[q·m] is
    locally constant for every q, i.e. when M/r is a continuous action.

    Openness of r alone is weaker (a right-zero monoid with a suitable
    topology separates the two) and does not yield an equivariant filter;
    the translate-closed form always does, and validation re-checks it.
    """
    table = monoid.table
    members = []
    for r in enumerate_congruences(monoid):
        cls = r.class_of
        if all(is_locally_constant([cls[t] for t in row], topology) for row in table):
            members.append(r)
    return validate_filter(monoid, members)


def enumerate_filters(monoid: FiniteMonoid) -> tuple[CongruenceFilter, ...]:
    """Every equivariant filter on a finite monoid.

    Each is the up-set of its least element, and a principal up-set is
    equivariant exactly when that least element is two-sided.
    """
    out = []
    for r in enumerate_congruences(monoid):
        if is_two_sided(r):
            out.append(filter_generated(monoid, [r]))
    return tuple(out)


def hom_classes(flt: CongruenceFilter, r1: RightCongruence,
                r2: RightCongruence) -> tuple[int, ...]:
    """Representatives of the r2-classes [m] with r1 ⊆ m*(r2); these are the
    arrows r1 → r2 of the filter's category."""
    if r1 not in flt or r2 not in flt:
        raise NotInFilter("both congruences must belong to the filter")
    mon = flt.monoid
    out = []
    for m in r2.representatives():
        if leq(r1, inverse_image_congruence(mon, m, r2)):
            out.append(m)
    return tuple(out)
