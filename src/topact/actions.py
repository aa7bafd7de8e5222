"""Finite right M-sets: continuity analysis, the continuous-part
coreflection, the powerset action, and categorical constructions.

act[x][m] is the result of letting monoid element m act on carrier point x.
Sub-M-sets are bitmasks over the parent carrier; quotient carriers use
"[least-representative]" names.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Optional, Sequence

from .congruences import RightCongruence, _canonical
from .errors import MAX_LISTING, CapExceeded, InternalCheckError, TopactError
from .monoid import BadShape, FiniteMonoid
from .topology import Topology, is_locally_constant
from .util import bits, mask_of, render_subset


class NotAnAction(TopactError):
    """The table violates the unit or associativity law."""


class NotEquivariantMap(TopactError):
    def __init__(self, x: int, m: int):
        super().__init__(f"map breaks equivariance at carrier {x}, element {m}")
        self.witness = (x, m)


class NotContinuousInput(TopactError):
    """Exponentials require continuous inputs."""


@dataclass(frozen=True)
class MSet:
    monoid: FiniteMonoid
    carrier: tuple[str, ...]
    act: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.carrier)

    def __repr__(self) -> str:
        return f"MSet({'|'.join(self.carrier)} over {self.monoid!r})"


@dataclass(frozen=True)
class MSetHom:
    source: MSet
    target: MSet
    map: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.map[x]


def validate_mset(monoid: FiniteMonoid, carrier: Sequence[str],
                  act: Sequence[Sequence[int]]) -> MSet:
    names = tuple(carrier)
    if len(set(names)) != len(names):
        raise BadShape("carrier names are not unique")
    if len(act) != len(names):
        raise BadShape(f"action has {len(act)} rows for {len(names)} carrier points")
    table = tuple(tuple(row) for row in act)
    for x, row in enumerate(table):
        if len(row) != monoid.order:
            raise BadShape(f"action row {x} has length {len(row)}")
        for v in row:
            if not (0 <= v < len(names)):
                raise BadShape(f"action value {v} out of carrier range")
    for x in range(len(names)):
        if table[x][monoid.identity] != x:
            raise NotAnAction(f"identity moves carrier point {x}")
        for m in range(monoid.order):
            for n in range(monoid.order):
                if table[table[x][m]][n] != table[x][monoid.table[m][n]]:
                    raise NotAnAction(
                        f"associativity fails at point {x}, elements ({m}, {n})")
    return MSet(monoid, names, table)


def validate_mset_hom(source: MSet, target: MSet,
                      mapping: Sequence[int]) -> MSetHom:
    m = tuple(mapping)
    if len(m) != source.size:
        raise BadShape("hom is not total on the source carrier")
    for x in range(source.size):
        for g in range(source.monoid.order):
            if m[source.act[x][g]] != target.act[m[x]][g]:
                raise NotEquivariantMap(x, g)
    return MSetHom(source, target, m)


def regular_mset(monoid: FiniteMonoid) -> MSet:
    """M acting on itself by right multiplication."""
    return MSet(monoid, monoid.elements, monoid.table)


def terminal_mset(monoid: FiniteMonoid) -> MSet:
    return MSet(monoid, ("*",), ((0,) * monoid.order,))


def necessary_clopen(mset: MSet, x: int, p: int) -> int:
    """The subset of monoid elements acting on x like p does."""
    target = mset.act[x][p]
    return mask_of(m for m in range(mset.monoid.order) if mset.act[x][m] == target)


def orbit_congruence(mset: MSet, x: int) -> RightCongruence:
    """Partition of M by the orbit map m ↦ x·m.  It is right stable: x·m =
    x·n gives x·(m·k) = (x·m)·k = (x·n)·k = x·(n·k)."""
    return RightCongruence(mset.monoid, _canonical(mset.act[x]))


def is_continuous_mset(mset: MSet, topology: Topology
                       ) -> tuple[bool, Optional[tuple[int, int]]]:
    """True when every necessary clopen is open; otherwise a witness (x, p),
    the first in row-major order.  The necessary clopens of row x are the
    fibres of m ↦ x·m, so they are all open iff the row is locally
    constant; only a row that is not is scanned for its witness p."""
    for x, row in enumerate(mset.act):
        if not is_locally_constant(row, topology):
            for p in range(mset.monoid.order):
                if not topology.is_open(necessary_clopen(mset, x, p)):
                    return False, (x, p)
    return True, None


def continuous_part(mset: MSet, topology: Topology) -> int:
    """Bitmask of the largest continuous sub-M-set."""
    return continuous_points(mset.act, topology)


def continuous_points(act: Sequence[Sequence[int]], topology: Topology) -> int:
    """Bitmask of the largest continuous sub-M-set of the action table act.

    A point x is continuous when its orbit map m ↦ x·m is locally constant,
    i.e. all its necessary clopens are open: flags[x] =
    is_locally_constant(act[x], τ).  The continuous part keeps the points
    all of whose translates are flagged: x with flags[x·q] for every q.
    When the topology makes left translation continuous, the flag mask
    alone is the continuous part; the tests compare the two formulas.
    """
    flags = [is_locally_constant(row, topology) for row in act]
    return mask_of(x for x, row in enumerate(act) if all(flags[y] for y in row))


def restrict_mset(mset: MSet, mask: int) -> MSet:
    """Sub-M-set on the masked carrier points; the mask must be closed
    under the action."""
    members = list(bits(mask))
    pos = {x: i for i, x in enumerate(members)}
    for x in members:
        for m in range(mset.monoid.order):
            if mset.act[x][m] not in pos:
                raise NotAnAction(f"subset not closed under the action at point {x}")
    act = tuple(tuple(pos[mset.act[x][m]] for m in range(mset.monoid.order))
                for x in members)
    return MSet(mset.monoid, tuple(mset.carrier[x] for x in members), act)


def power_mset(monoid: FiniteMonoid, left_act: Sequence[Sequence[int]],
               point_names: Sequence[str]) -> MSet:
    """Right action on the powerset of a left M-set: a subset A moves to
    {x : g·x in A}."""
    k = len(point_names)
    for x in range(k):
        if left_act[monoid.identity][x] != x:
            raise NotAnAction(f"left identity moves point {x}")
        for g in range(monoid.order):
            for h in range(monoid.order):
                if left_act[g][left_act[h][x]] != left_act[monoid.table[g][h]][x]:
                    raise NotAnAction(
                        f"left associativity fails at point {x}, elements ({g}, {h})")
    names = tuple(render_subset(a, tuple(point_names)) for a in range(1 << k))
    act = []
    for a in range(1 << k):
        act.append(tuple(
            mask_of(x for x in range(k) if a >> left_act[g][x] & 1)
            for g in range(monoid.order)))
    return MSet(monoid, names, tuple(act))


@lru_cache(maxsize=None)
def power_of_m(monoid: FiniteMonoid) -> MSet:
    """The powerset of M under the inverse-image action of left
    multiplication; carrier index i is the subset with bitmask i.

    Its 2^|M| points are capped like an open-set family, at MAX_LISTING.
    """
    if 1 << monoid.order > MAX_LISTING:
        raise CapExceeded("powerset action carrier", 1 << monoid.order)
    return power_mset(monoid, monoid.table, monoid.elements)


@dataclass(frozen=True)
class SubobjectClassifier:
    """Right ideals of M with the inverse-image action, and the retraction
    sending a subset to the right ideal it generates."""

    mset: MSet
    ideal_masks: tuple[int, ...]
    retraction: tuple[int, ...]


def subobject_classifier(monoid: FiniteMonoid) -> SubobjectClassifier:
    power = power_of_m(monoid)
    n = monoid.order
    ideals = []
    for a in range(1 << n):
        if all(a >> monoid.table[x][m] & 1
               for x in bits(a) for m in range(n)):
            ideals.append(a)
    # g⁻¹A = {x : g·x ∈ A} is a right ideal with A: g·(x·m) = (g·x)·m ∈ A
    pos = {a: i for i, a in enumerate(ideals)}
    act = tuple(tuple(pos[power.act[a][g]] for g in range(n)) for a in ideals)
    omega = MSet(monoid, tuple(power.carrier[a] for a in ideals), act)
    retraction = tuple(
        mask_of(monoid.table[x][m] for x in bits(a) for m in range(n))
        for a in range(1 << n))
    return SubobjectClassifier(omega, tuple(ideals), retraction)


def quotient_mset(monoid: FiniteMonoid, r: RightCongruence) -> MSet:
    """Classes of r with [m]·n = [mn]; the canonical generator is [1]."""
    reps = r.representatives()
    names = tuple(f"[{monoid.elements[m]}]" for m in reps)
    act = tuple(tuple(r.class_of[monoid.table[reps[c]][m]]
                      for m in range(monoid.order))
                for c in range(r.num_classes))
    return MSet(monoid, names, act)


def epi_mono_factorize(hom: MSetHom) -> tuple[MSetHom, MSetHom]:
    """Surjection onto the image sub-M-set followed by its inclusion."""
    image_mask = mask_of(hom.map)
    mid = restrict_mset(hom.target, image_mask)
    members = list(bits(image_mask))
    pos = {x: i for i, x in enumerate(members)}
    first = MSetHom(hom.source, mid, tuple(pos[v] for v in hom.map))
    second = MSetHom(mid, hom.target, tuple(members))
    return first, second


def mset_product(x: MSet, y: MSet) -> MSet:
    """Componentwise action on pairs, row-major carrier order."""
    names = tuple(f"({a},{b})" for a in x.carrier for b in y.carrier)
    act = []
    for xa in range(x.size):
        for yb in range(y.size):
            act.append(tuple(x.act[xa][m] * y.size + y.act[yb][m]
                             for m in range(x.monoid.order)))
    return MSet(x.monoid, names, tuple(act))


def enumerate_mset_homs(source: MSet, target: MSet) -> tuple[tuple[int, ...], ...]:
    """All equivariant maps, in sorted order, by a breadth-first search over
    orbit generators.

    Sending a generator g to a target point y fixes g·m ↦ y·m for every m.
    That is well defined when y·m is constant on each class of g's orbit
    map, and it must agree with the images of the points already fixed.
    The generators are taken largest orbit first, and the points fixed
    before a generator are the union of the earlier generators' orbits, so
    they do not depend on the branch: every partial map at a level fixes
    the same points, at the same places.  So where several partial maps
    reach a level, the target rows are indexed once by their images of the
    fixed points of the generator's orbit and each partial map is looked up
    (a hash join); a lone partial map is matched against the rows directly.
    """
    act = source.act
    orbit_sizes = [len(set(row)) for row in act]
    place: dict[int, int] = {}      # fixed source point -> its index in a partial map
    partials: list[tuple[int, ...]] = [()]
    for g in sorted(range(source.size), key=orbit_sizes.__getitem__, reverse=True):
        if g in place:
            continue
        orbit = act[g]
        first: dict[int, int] = {}  # point g·m -> the least m reaching it
        for m, p in enumerate(orbit):
            if p not in first:
                first[p] = m
        rows = target.act
        if len(first) < len(orbit):     # keep the rows with y·m = y·first[g·m]
            through_first = itemgetter(*[first[p] for p in orbit])
            rows = [row for row in rows if through_first(row) == row]
        old_places, old_ms, new_ms = [], [], []
        for p, m in first.items():
            if p in place:
                old_places.append(place[p])
                old_ms.append(m)
            else:
                place[p] = len(place)
                new_ms.append(m)
        joined = False
        if old_ms:
            key_of_row = itemgetter(*old_ms)
            key_of_partial = itemgetter(*old_places)
            if len(partials) == 1:
                key = key_of_partial(partials[0])
                rows = [row for row in rows if key_of_row(row) == key]
            else:
                joined = True
        if len(new_ms) == 1:
            m = new_ms[0]
            extras = [(row[m],) for row in rows]
        else:
            extras = list(map(itemgetter(*new_ms), rows))
        if joined:
            index: dict = {}
            for key, extra in zip(map(key_of_row, rows), extras):
                index.setdefault(key, []).append(extra)
            partials = [partial + extra for partial in partials
                        for extra in index.get(key_of_partial(partial), ())]
        else:
            partials = [partial + extra for partial in partials for extra in extras]
        if not partials:
            return ()
    if source.size < 2:                 # already in source order
        return tuple(sorted(partials))
    in_source_order = itemgetter(*[place[x] for x in range(source.size)])
    return tuple(sorted(map(in_source_order, partials)))


def _tuple_getter(indices: list[int]):
    """itemgetter(*indices), but a 1-tuple for a single index."""
    if len(indices) == 1:
        i = indices[0]
        return lambda seq: (seq[i],)
    return itemgetter(*indices)


def msets_isomorphic(a: MSet, b: MSet) -> bool:
    if a.size != b.size or a.monoid != b.monoid:
        return False
    return any(len(set(h)) == a.size for h in enumerate_mset_homs(a, b))


@dataclass(frozen=True)
class ExponentialMSet:
    """The exponential Y^X in the continuous-action category: continuous
    elements of the inner hom Hom(M x X, Y)."""

    mset: MSet
    hom_maps: tuple[tuple[int, ...], ...]
    x_size: int

    def evaluate(self, h: int, m: int, x: int) -> int:
        return self.hom_maps[h][m * self.x_size + x]


EXPONENTIAL_CARRIER_CAP = 64


def exponential_mset(x: MSet, y: MSet, topology: Topology) -> ExponentialMSet:
    """Carrier: all M-set homs M x X -> Y; m acts by precomposing the first
    component with left multiplication; then the continuous part is taken."""
    if max(x.size, y.size) > EXPONENTIAL_CARRIER_CAP:
        raise CapExceeded("exponential input carrier", max(x.size, y.size))
    if not is_continuous_mset(x, topology)[0] or not is_continuous_mset(y, topology)[0]:
        raise NotContinuousInput("exponentials require continuous inputs")
    monoid = x.monoid
    base = mset_product(regular_mset(monoid), x)
    homs = enumerate_mset_homs(base, y)
    index = {h: i for i, h in enumerate(homs)}
    # h·m is (n, p) ↦ h(m·n, p): one list of base indices per m
    movers = [_tuple_getter([row_m[n] * x.size + p for n in range(monoid.order)
                             for p in range(x.size)])
              for row_m in monoid.table]
    act = []
    for h in homs:
        try:
            act.append(tuple([index[mover(h)] for mover in movers]))
        except KeyError:
            raise InternalCheckError("hom set not closed under the action") from None
    ambient = MSet(monoid, tuple(f"f{i}" for i in range(len(homs))), tuple(act))
    mask = continuous_part(ambient, topology)
    members = list(bits(mask))
    return ExponentialMSet(restrict_mset(ambient, mask),
                           tuple(homs[i] for i in members), x.size)
