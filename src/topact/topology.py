"""Finite topologies stored as the minimal neighbourhood of each point.

Every finite space is Alexandrov: each point x has a minimal open
neighbourhood nb[x], and a set is open iff it contains nb[x] around each of
its points x.  So a topology is the tuple of these bitmasks (its
specialization preorder), generated by intersecting, for each point, the
base sets that contain it; openness, closure, subspaces and products are
decided point by point on the neighbourhoods.  Components, continuity and
local constancy are decided along `Topology.edges`, a short list of pairs
whose reflexive-transitive closure is the preorder: a map is continuous iff
it is monotone, which it is iff it is monotone along each edge.  The
carrier takes no cap, since nothing here is exponential in it but the
open-set family `Topology.opens`: it is enumerated only on demand and
capped at 2^16 members; the open counts printed by `analyze`,
`act-topology` and `mult-core` and the suite read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import TopactError
from .util import bits, full_mask, mask_of


class OutOfRange(TopactError):
    """A subset mentions elements outside the carrier."""


class SizeMismatch(TopactError):
    """A map's domain or codomain does not fit the given topologies."""


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

    @property
    def opens(self) -> frozenset[int]:
        """Every open set, as the unions of the neighbourhoods: each distinct
        one is folded into the family of unions found so far."""
        try:
            return self._opens
        except AttributeError:
            family = {0}
            for v in set(self.nbhd):
                family |= {u | v for u in family}
                if len(family) > _MAX_FAMILY:
                    raise TopactError(f"open-set family exceeds {_MAX_FAMILY} members")
            # filled on first read like FiniteMonoid.__hash__, without the
            # lock that functools.cached_property takes on every first read
            value = frozenset(family)
            object.__setattr__(self, "_opens", value)
            return value

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Pairs (x, y) with y ∈ nb[x], ascending in x, whose
        reflexive-transitive closure is the relation y ∈ nb[x].  The first
        point p with a given neighbourhood v gets an edge to every other
        point of v, and each later point with neighbourhood v one edge, to p;
        so a partition topology with k blocks has 2(n - k) edges and the
        discrete one none."""
        try:
            return self._edges
        except AttributeError:
            first: dict[int, int] = {}
            out = []
            for x, v in enumerate(self.nbhd):
                p = first.setdefault(v, x)
                if p == x:
                    out += ((x, y) for y in bits(v ^ (1 << x)))
                else:
                    out.append((x, p))
            value = tuple(out)
            object.__setattr__(self, "_edges", value)
            return value

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
    full = full_mask(carrier_size)
    nb = [full] * carrier_size
    for b in base:
        if b & ~full:
            raise OutOfRange(f"subset {b:#x} exceeds carrier of size {carrier_size}")
        for x in bits(b):
            nb[x] &= b
    return Topology(carrier_size, tuple(nb))


def discrete_topology(carrier_size: int) -> Topology:
    return Topology(carrier_size, tuple(1 << x for x in range(carrier_size)))


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
    of its points x).  Equality is an equivalence, so it suffices to check
    each edge."""
    return all(values[x] == values[y] for x, y in topology.edges)


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
    # x and y are indistinguishable iff they share the minimal open
    # neighbourhood; the dict keeps its classes in order of least member
    classes: dict[int, list[int]] = {}
    for x, v in enumerate(nb):
        classes.setdefault(v, []).append(x)
    # every open is a union of clopens iff every minimal neighbourhood is closed
    clopen_base = all(topology.is_closed(v) for v in nb)
    return SeparationReport(
        preorder=nb,
        partition=tuple(map(tuple, classes.values())),
        t0=len(classes) == topology.carrier_size,
        clopen_base=clopen_base,
        discrete=topology.is_discrete(),
    )


def connected_components(topology: Topology) -> tuple[tuple[int, ...], ...]:
    """Classes of the equivalence generated by "y ∈ nb[x]", ordered by
    least member: on a finite carrier these are the components, and no
    clopen separates two points of one class.  The edges generate the same
    equivalence."""
    parent = list(range(topology.carrier_size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in topology.edges:
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
    contains x but not nb_src[x], so is not open.

    f is continuous iff it is monotone along every source edge (x, y).
    The first x with a failing edge is that first x: a first point p of its
    neighbourhood has an edge to each other point of nb_src[p], and a later
    point x has one edge, to an earlier p with nb_src[p] = nb_src[x], which
    maps into nb_tgt[f(p)] and so into nb_tgt[f(x)] once f(p) lies there."""
    if len(f) != t_src.carrier_size:
        raise SizeMismatch(f"map has {len(f)} entries for carrier {t_src.carrier_size}")
    for v in f:
        if not (0 <= v < t_tgt.carrier_size):
            raise SizeMismatch(f"map value {v} outside target carrier")
    nb_tgt = t_tgt.nbhd
    for x, y in t_src.edges:
        target = nb_tgt[f[x]]
        if not target >> f[y] & 1:
            return target
    return None


def minimal_base(topology: Topology) -> tuple[int, ...]:
    """The join-irreducible opens (= distinct minimal point neighbourhoods);
    every open is a union of these and no smaller family suffices."""
    return tuple(sorted(set(topology.nbhd)))
