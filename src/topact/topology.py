"""Finite topologies as explicit open-set families of bitmasks.

Every finite space is Alexandrov: each point x has a minimal open
neighbourhood nb[x], and the opens are exactly the unions of these.  So a
topology is generated by intersecting, for each point, the base sets that
contain it, and then taking all unions of the resulting neighbourhoods;
openness of a product set, continuity of a map and local constancy of a
function are decided point by point on the neighbourhoods.  Carriers are
capped at 32 points and open-set families, products included, at 2^16
members.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import TopactError
from .util import bits, full_mask, mask_of


class OutOfRange(TopactError):
    """A subset mentions elements outside the carrier."""


class SizeMismatch(TopactError):
    """A map's domain or codomain does not fit the given topologies."""


MAX_CARRIER = 32
_MAX_FAMILY = 1 << 16


@dataclass(frozen=True)
class Topology:
    carrier_size: int
    opens: frozenset[int]

    @property
    def full(self) -> int:
        return full_mask(self.carrier_size)

    def is_open(self, mask: int) -> bool:
        return mask in self.opens

    def is_closed(self, mask: int) -> bool:
        return (self.full & ~mask) in self.opens

    def clopens(self) -> tuple[int, ...]:
        return tuple(sorted(u for u in self.opens if self.is_closed(u)))

    def sorted_opens(self) -> tuple[int, ...]:
        return tuple(sorted(self.opens))

    def is_discrete(self) -> bool:
        return len(self.opens) == 1 << self.carrier_size

    def closure(self, mask: int) -> int:
        """Smallest closed superset."""
        away = 0
        for u in self.opens:
            if u & mask == 0:
                away |= u
        return self.full & ~away

    def __repr__(self) -> str:
        return f"Topology(n={self.carrier_size}, opens={len(self.opens)})"


def generate_topology(carrier_size: int, base: Iterable[int]) -> Topology:
    """Smallest topology containing the base: close under finite
    intersections (the empty one giving the full set), then unions."""
    if carrier_size > MAX_CARRIER:
        raise OutOfRange(f"carrier {carrier_size} exceeds cap {MAX_CARRIER}")
    return _generate(carrier_size, base, cap=_MAX_FAMILY)


def _generate(carrier_size: int, base: Iterable[int], cap: int) -> Topology:
    """The minimal neighbourhood of x is the intersection of the base sets
    containing x (the full set if none does); fold each distinct one into
    the family of unions."""
    full = full_mask(carrier_size)
    nb = [full] * carrier_size
    for b in base:
        if b & ~full:
            raise OutOfRange(f"subset {b:#x} exceeds carrier of size {carrier_size}")
        for x in bits(b):
            nb[x] &= b
    family = {0}
    for v in set(nb):
        family |= {u | v for u in family}
        if len(family) > cap:
            raise TopactError(f"open-set family exceeds {cap} members")
    return Topology(carrier_size, frozenset(family))


def discrete_topology(carrier_size: int) -> Topology:
    return generate_topology(carrier_size, [1 << i for i in range(carrier_size)])


def indiscrete_topology(carrier_size: int) -> Topology:
    return generate_topology(carrier_size, [])


def partition_topology(carrier_size: int, blocks: Sequence[Iterable[int]]) -> Topology:
    return generate_topology(carrier_size, [mask_of(b) for b in blocks])


@lru_cache(maxsize=None)
def minimal_neighborhoods(topology: Topology) -> tuple[int, ...]:
    """For each point, the intersection of all opens containing it (open,
    since the carrier is finite)."""
    out = []
    for x in range(topology.carrier_size):
        acc = topology.full
        for u in topology.opens:
            if u >> x & 1:
                acc &= u
        out.append(acc)
    return tuple(out)


def is_locally_constant(values: Sequence, topology: Topology) -> bool:
    """True when values[y] == values[x] for every y in the minimal
    neighbourhood nb[x] of every point x, i.e. when every fibre of the map
    x ↦ values[x] is open (a set is open iff it contains nb[x] around each
    of its points x)."""
    nb = minimal_neighborhoods(topology)
    for x, v in enumerate(values):
        rest = nb[x] ^ (1 << x)
        while rest:
            low = rest & -rest
            if values[low.bit_length() - 1] != v:
                return False
            rest ^= low
    return True


def product_topology(t1: Topology, t2: Topology) -> Topology:
    """Topology on the size-n1·n2 carrier (row-major pairing) generated by
    the rectangles of minimal neighbourhoods, a base of the open
    rectangles."""
    n2 = t2.carrier_size
    nb1 = minimal_neighborhoods(t1)
    nb2 = minimal_neighborhoods(t2)
    rects = [_rectangle(u, v, n2) for u in nb1 for v in nb2]
    return _generate(t1.carrier_size * n2, rects, cap=_MAX_FAMILY)


def _rectangle(u: int, v: int, n2: int) -> int:
    out = 0
    for a in bits(u):
        out |= v << (a * n2)
    return out


def is_open_in_product(mask: int, t1: Topology, t2: Topology) -> bool:
    """Openness in t1 x t2 via minimal neighbourhoods: a set is open iff it
    contains U_a x U_b around each of its points (a, b)."""
    n2 = t2.carrier_size
    nb1 = minimal_neighborhoods(t1)
    nb2 = minimal_neighborhoods(t2)
    for idx in bits(mask):
        a, b = divmod(idx, n2)
        if _rectangle(nb1[a], nb2[b], n2) & ~mask:
            return False
    return True


def subspace_topology(topology: Topology, subset: int) -> Topology:
    """Traces U ∩ subset, reindexed along the sorted members of the subset."""
    if subset & ~topology.full:
        raise OutOfRange("subset exceeds carrier")
    members = list(bits(subset))
    pos = {m: i for i, m in enumerate(members)}
    traces = set()
    for u in topology.opens:
        traces.add(mask_of(pos[m] for m in bits(u & subset)))
    return Topology(len(members), frozenset(traces))


@dataclass(frozen=True)
class SeparationReport:
    """preorder[x] is the bitmask of points y lying above x, i.e. contained
    in every open around x."""

    preorder: tuple[int, ...]
    partition: tuple[tuple[int, ...], ...]
    t0: bool
    clopen_base: bool
    discrete: bool


def separation_report(topology: Topology) -> SeparationReport:
    nb = minimal_neighborhoods(topology)
    # x and y are indistinguishable iff they share the minimal open neighbourhood
    classes: list[list[int]] = []
    assigned = [-1] * topology.carrier_size
    for x in range(topology.carrier_size):
        if assigned[x] >= 0:
            continue
        cls = [y for y in range(x, topology.carrier_size)
               if nb[y] == nb[x]]
        for y in cls:
            assigned[y] = len(classes)
        classes.append(cls)
    t0 = all(len(c) == 1 for c in classes)
    # every open is a union of clopens iff every minimal neighbourhood is closed
    clopen_base = all(topology.is_closed(v) for v in nb)
    return SeparationReport(
        preorder=nb,
        partition=tuple(tuple(c) for c in classes),
        t0=t0,
        clopen_base=clopen_base,
        discrete=topology.is_discrete(),
    )


def connected_components(topology: Topology) -> tuple[tuple[int, ...], ...]:
    """Classes of "no clopen separates x from y" (quasi-components, which
    coincide with components on finite carriers)."""
    clopens = topology.clopens()
    sig = {}
    for x in range(topology.carrier_size):
        sig[x] = tuple(u >> x & 1 for u in clopens)
    classes: list[list[int]] = []
    for x in range(topology.carrier_size):
        for c in classes:
            if sig[c[0]] == sig[x]:
                c.append(x)
                break
        else:
            classes.append([x])
    return tuple(tuple(c) for c in classes)


def is_continuous(f: Sequence[int], t_src: Topology, t_tgt: Topology) -> bool:
    """Preimage of every open is open: f maps the minimal neighbourhood of
    each x into the minimal neighbourhood of f(x)."""
    if len(f) != t_src.carrier_size:
        raise SizeMismatch(f"map has {len(f)} entries for carrier {t_src.carrier_size}")
    for v in f:
        if not (0 <= v < t_tgt.carrier_size):
            raise SizeMismatch(f"map value {v} outside target carrier")
    nb_src = minimal_neighborhoods(t_src)
    nb_tgt = minimal_neighborhoods(t_tgt)
    for x, fx in enumerate(f):
        target = nb_tgt[fx]
        rest = nb_src[x] ^ (1 << x)
        while rest:
            low = rest & -rest
            if not target >> f[low.bit_length() - 1] & 1:
                return False
            rest ^= low
    return True


def minimal_base(topology: Topology) -> tuple[int, ...]:
    """The join-irreducible opens (= distinct minimal point neighbourhoods);
    every open is a union of these and no smaller family suffices."""
    nb = minimal_neighborhoods(topology)
    return tuple(sorted(set(nb)))
