"""Finite topologies stored as the minimal neighbourhood of each point.

Every finite space is Alexandrov: each point x has a minimal open
neighbourhood nb[x], and a set is open iff it contains nb[x] around each of
its points x.  So a topology is the tuple of these bitmasks (its
specialization preorder), generated by intersecting, for each point, the
base sets that contain it; openness, closure, subspaces, components,
products, continuity and local constancy are all decided point by point on
the neighbourhoods.  Carriers are capped at 32 points.  The open-set family
`Topology.opens` is enumerated only on demand and capped at 2^16 members;
the open counts printed by `analyze`, `act-topology` and `mult-core`,
`mult_continuous_core` and the suite read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    """nbhd[x] is the minimal open neighbourhood of x: it contains x, and
    contains nbhd[y] for each of its points y."""

    carrier_size: int
    nbhd: tuple[int, ...]

    @property
    def full(self) -> int:
        return full_mask(self.carrier_size)

    @cached_property
    def opens(self) -> frozenset[int]:
        """Every open set, as the unions of the neighbourhoods: each distinct
        one is folded into the family of unions found so far."""
        family = {0}
        for v in set(self.nbhd):
            family |= {u | v for u in family}
            if len(family) > _MAX_FAMILY:
                raise TopactError(f"open-set family exceeds {_MAX_FAMILY} members")
        return frozenset(family)

    def is_open(self, mask: int) -> bool:
        if mask & ~self.full:
            return False
        nb = self.nbhd
        return all(nb[x] & ~mask == 0 for x in bits(mask))

    def is_closed(self, mask: int) -> bool:
        return self.is_open(self.full & ~mask)

    def clopens(self) -> tuple[int, ...]:
        return tuple(sorted(u for u in self.opens if self.is_closed(u)))

    def is_discrete(self) -> bool:
        return all(v == 1 << x for x, v in enumerate(self.nbhd))

    def closure(self, mask: int) -> int:
        """Smallest closed superset: the points whose neighbourhood meets it."""
        return mask_of(x for x, v in enumerate(self.nbhd) if v & mask)

    def is_dense(self, mask: int) -> bool:
        """Every non-empty open meets the mask."""
        return all(v & mask for v in self.nbhd)

    def __repr__(self) -> str:
        return f"Topology(n={self.carrier_size}, nbhd={self.nbhd})"


def generate_topology(carrier_size: int, base: Iterable[int]) -> Topology:
    """Smallest topology containing the base: the minimal neighbourhood of x
    is the intersection of the base sets containing x (the full set if none
    does)."""
    if carrier_size > MAX_CARRIER:
        raise OutOfRange(f"carrier {carrier_size} exceeds cap {MAX_CARRIER}")
    full = full_mask(carrier_size)
    nb = [full] * carrier_size
    for b in base:
        if b & ~full:
            raise OutOfRange(f"subset {b:#x} exceeds carrier of size {carrier_size}")
        for x in bits(b):
            nb[x] &= b
    return Topology(carrier_size, tuple(nb))


def discrete_topology(carrier_size: int) -> Topology:
    return generate_topology(carrier_size, [1 << i for i in range(carrier_size)])


def indiscrete_topology(carrier_size: int) -> Topology:
    return generate_topology(carrier_size, [])


def partition_topology(carrier_size: int, blocks: Sequence[Iterable[int]]) -> Topology:
    return generate_topology(carrier_size, [mask_of(b) for b in blocks])


def minimal_neighborhoods(topology: Topology) -> tuple[int, ...]:
    """For each point, the intersection of all opens containing it.  Package
    code reads `topology.nbhd` directly; this accessor stays for callers
    that name it, such as the benchmark's tracer."""
    return topology.nbhd


def is_locally_constant(values: Sequence, topology: Topology) -> bool:
    """True when values[y] == values[x] for every y in the minimal
    neighbourhood nb[x] of every point x, i.e. when every fibre of the map
    x ↦ values[x] is open (a set is open iff it contains nb[x] around each
    of its points x)."""
    nb = topology.nbhd
    for x, v in enumerate(values):
        rest = nb[x] ^ (1 << x)
        while rest:
            low = rest & -rest
            if values[low.bit_length() - 1] != v:
                return False
            rest ^= low
    return True


def _rectangle(u: int, v: int, n2: int) -> int:
    out = 0
    for a in bits(u):
        out |= v << (a * n2)
    return out


def is_open_in_product(mask: int, t1: Topology, t2: Topology) -> bool:
    """Openness in t1 x t2 (row-major pairing) via minimal neighbourhoods: a
    set is open iff it contains U_a x U_b around each of its points (a, b)."""
    n2 = t2.carrier_size
    nb1 = t1.nbhd
    nb2 = t2.nbhd
    for idx in bits(mask):
        a, b = divmod(idx, n2)
        if _rectangle(nb1[a], nb2[b], n2) & ~mask:
            return False
    return True


def subspace_topology(topology: Topology, subset: int) -> Topology:
    """Traces nb[m] ∩ subset, reindexed along the sorted members of the
    subset."""
    if subset & ~topology.full:
        raise OutOfRange("subset exceeds carrier")
    members = list(bits(subset))
    pos = {m: i for i, m in enumerate(members)}
    nb = topology.nbhd
    return Topology(len(members), tuple(mask_of(pos[y] for y in bits(nb[m] & subset))
                                        for m in members))


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
    nb = topology.nbhd
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
    """Classes of the equivalence generated by "y ∈ nb[x]", ordered by
    least member: on a finite carrier these are the components, and no
    clopen separates two points of one class."""
    parent = list(range(topology.carrier_size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, v in enumerate(topology.nbhd):
        for y in bits(v):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)
    classes: dict[int, list[int]] = {}
    for x in range(topology.carrier_size):
        classes.setdefault(find(x), []).append(x)
    return tuple(tuple(c) for c in classes.values())


def is_continuous(f: Sequence[int], t_src: Topology, t_tgt: Topology) -> bool:
    """Preimage of every open is open: f maps the minimal neighbourhood of
    each x into the minimal neighbourhood of f(x)."""
    return continuity_witness(f, t_src, t_tgt) is None


def continuity_witness(f: Sequence[int], t_src: Topology, t_tgt: Topology
                       ) -> int | None:
    """None when f is continuous; otherwise nb_tgt[f(x)] for the first x
    whose neighbourhood f does not map into it, an open set whose preimage
    contains x but not nb_src[x], so is not open."""
    if len(f) != t_src.carrier_size:
        raise SizeMismatch(f"map has {len(f)} entries for carrier {t_src.carrier_size}")
    for v in f:
        if not (0 <= v < t_tgt.carrier_size):
            raise SizeMismatch(f"map value {v} outside target carrier")
    nb_src = t_src.nbhd
    nb_tgt = t_tgt.nbhd
    for x, fx in enumerate(f):
        target = nb_tgt[fx]
        rest = nb_src[x] ^ (1 << x)
        while rest:
            low = rest & -rest
            if not target >> f[low.bit_length() - 1] & 1:
                return target
            rest ^= low
    return None


def minimal_base(topology: Topology) -> tuple[int, ...]:
    """The join-irreducible opens (= distinct minimal point neighbourhoods);
    every open is a union of these and no smaller family suffices."""
    return tuple(sorted(set(topology.nbhd)))
