"""Reflections of a monoid-with-topology: the action topology, the
multiplication-continuous core, the T0 quotient, their composite (the powder
reflection), left/right duality, and topologies induced by congruence
filters: the partition topology on the classes of the filter's least member.

The action topology is the partition topology on the classes of r0, the
least open right congruence, which is the two-sided congruence generated by
the partition into connected components (see least_open_congruence).  So the
powder reflection is M/r0 with the discrete topology, and the left and right
action topologies coincide.  Both are read from r0, one stored object per
(monoid, class map): its partition topology and its quotient with the
projection are built on first read and stored on it, so once per (monoid,
r0).  Neither reflection builds the 2^|M|-point powerset action: the
continuous subsets are the unions of the r0 classes, listed only where a
caller reads them and capped at `errors.MAX_LISTING`.
Continuity of multiplication and the multiplication-continuous core are
decided on the edges of the specialization preorder (`Topology.edges`),
translated on either side by every element: on a finite space
multiplication is continuous iff every translation is monotone.

The hat topology built from continuous congruences is provided only to
reproduce a known counterexample; it is not a reflection and its category of
actions genuinely differs from the input's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .actions import MSet, continuous_points
from .congruences import (CongruenceFilter, RightCongruence, _canonical, enumerate_congruences,
                          least_open_congruence)
from .errors import MAX_LISTING, CapExceeded, InternalCheckError, TopactError
from .monoid import FiniteMonoid, SemigroupHom, opposite
from .topology import Topology, discrete_topology, generate_topology, separation_report
from .util import bits, filled_once, mask_of


class NotTopologicalMonoid(TopactError):
    """The operation needs multiplication to be continuous already."""


class CommutationFailure(InternalCheckError):
    """Left-then-right and right-then-left action topologies disagree."""


@dataclass(frozen=True, init=False)
class ActionTopologyReport:
    """The action topology as a two-sided congruence whose classes are open:
    its partition topology, and whether that is the input topology.  The
    continuous subsets are the unions of the classes.  They are not a field,
    so repr, == and hash never list them; a tuple passed in is kept as
    given (the benchmark's self-test builds a corrupted report this way)."""

    partition: RightCongruence
    topology: Topology
    is_action_topology: bool

    def __init__(self, partition: RightCongruence, topology: Topology,
                 is_action_topology: bool, continuous_sets: tuple[int, ...] | None = None):
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "topology", topology)
        object.__setattr__(self, "is_action_topology", is_action_topology)
        if continuous_sets is not None:
            object.__setattr__(self, "continuous_sets", continuous_sets)

    @filled_once
    def continuous_sets(self) -> tuple[int, ...]:
        """Every union of the partition's classes, ascending, listed on first
        read and capped at MAX_LISTING."""
        classes = [mask_of(c) for c in self.partition.classes()]
        if 1 << len(classes) > MAX_LISTING:
            raise CapExceeded("continuous-subset union list", 1 << len(classes))
        family = [0]
        for c in classes:
            family += [u | c for u in family]
        return tuple(sorted(family))


def _report(partition: RightCongruence, topology: Topology) -> ActionTopologyReport:
    """The report on the partition topology of an action-topology partition,
    which is two-sided with every class open in the topology; the partition
    topology is the one stored on the partition."""
    tau_tilde = partition.partition_topology
    return ActionTopologyReport(partition, tau_tilde, tau_tilde == topology)


def continuous_subsets(monoid: FiniteMonoid, topology: Topology
                       ) -> ActionTopologyReport:
    """Continuous elements of the powerset action: A is continuous iff
    m ↦ {x : m·x ∈ A} is locally constant at every translate, i.e. iff A is
    a union of r0 classes.  They form a clopen base for the action topology
    contained in the input topology."""
    return _report(least_open_congruence(monoid, topology), topology)


def left_action_topology(monoid: FiniteMonoid, topology: Topology
                         ) -> ActionTopologyReport:
    """Same construction run on the opposite multiplication table.  On a
    finite monoid it has the same partition as continuous_subsets: r0 is the
    two-sided congruence generated by the components, and a two-sided
    congruence of M is one of its opposite."""
    return continuous_subsets(opposite(monoid), topology)


def _translated_edges(monoid: FiniteMonoid, topology: Topology
                      ) -> Iterator[tuple[int, int]]:
    """(x·q, y·q) and (q·x, q·y) for every edge (x, y) of the topology and
    every q: the translations are all continuous iff each pair (a, b) has
    b ∈ nb[a].  The table's columns are read only when there are edges."""
    for x, y in topology.edges:
        yield from zip(monoid.table[x], monoid.table[y])
        yield from zip(monoid.columns[x], monoid.columns[y])


def is_topological_monoid(monoid: FiniteMonoid, topology: Topology) -> bool:
    """Multiplication is continuous exactly when every translation is: if
    x ∈ nb[a] and y ∈ nb[b], then x·b ∈ nb[a·b] and x·y ∈ nb[x·b], which
    lies inside nb[a·b].  A translation is continuous iff it is monotone
    along each edge, so this checks y·q ∈ nb[x·q] and q·y ∈ nb[q·x] for
    every edge (x, y) and every q."""
    nb = topology.nbhd
    return all(nb[a] >> b & 1 for a, b in _translated_edges(monoid, topology))


def mult_continuous_core(monoid: FiniteMonoid, topology: Topology) -> Topology:
    """Finest topology inside the input making multiplication continuous.
    An open u keeps an open preimage under multiplication iff
    nb[a]·nb[b] ⊆ u whenever a·b ∈ u; these kept opens form a topology, in
    which the neighbourhood of x is the closure of {x} under
    z ↦ ⋃_{a·b=z} nb[a]·nb[b].  That closure is the closure of {x} under
    the translated edges x·q → y·q and q·x → q·y: a chain of edges from a
    to a' and one from b to b' translate to a chain from a·b through a'·b
    to a'·b'.  Repeat on the new neighbourhoods until they stop changing."""
    n = monoid.order
    current = topology
    while True:
        reach = [0] * n
        for a, b in _translated_edges(monoid, current):
            reach[a] |= 1 << b
        nbhd = []
        for x in range(n):
            closed = frontier = 1 << x
            while frontier:
                step = 0
                for z in bits(frontier):
                    step |= reach[z]
                frontier = step & ~closed
                closed |= frontier
            nbhd.append(closed)
        nxt = Topology(n, tuple(nbhd))
        if nxt == current:
            break
        current = nxt
    return current


def t0_quotient(monoid: FiniteMonoid, topology: Topology
                ) -> tuple[FiniteMonoid, Topology, SemigroupHom]:
    """Quotient a topological monoid by topological indistinguishability;
    the relation is a two-sided congruence, so the quotient is a monoid.
    Points x and y are indistinguishable iff x ≤ y ≤ x in the specialization
    preorder, that is, iff they share the minimal neighbourhood.  Every
    translation is continuous, hence monotone, so it keeps x ≤ y ≤ x."""
    if not is_topological_monoid(monoid, topology):
        raise NotTopologicalMonoid("T0 quotient needs continuous multiplication")
    nb = topology.nbhd
    cong = RightCongruence(monoid, _canonical(nb))
    quotient, projection = cong.quotient
    q_top = Topology(quotient.order, tuple(mask_of(cong.class_of[m] for m in bits(nb[rep]))
                                           for rep in cong.representatives()))
    return quotient, q_top, projection


@dataclass(frozen=True)
class PowderReflection:
    monoid: FiniteMonoid
    topology: Topology
    projection: SemigroupHom
    action_report: ActionTopologyReport


def powder_reflection(monoid: FiniteMonoid, topology: Topology) -> PowderReflection:
    """Action topology followed by the T0 quotient: M/r0, since the action
    topology's points are indistinguishable exactly within an r0 class.  The
    result is a powder monoid, which at finite scale always carries the
    discrete topology.  The quotient is the one stored on r0, so every
    topology with the same r0 gets the same powder monoid object."""
    report = continuous_subsets(monoid, topology)
    quotient, projection = report.partition.quotient
    return PowderReflection(quotient, discrete_topology(quotient.order), projection, report)


def two_sided_commutation(monoid: FiniteMonoid, topology: Topology) -> bool:
    """Right-then-left equals left-then-right action topology on a T0
    topological monoid; a counterexample is a hard failure."""
    if not is_topological_monoid(monoid, topology):
        raise NotTopologicalMonoid("commutation check needs a topological monoid")
    if not separation_report(topology).t0:
        raise NotTopologicalMonoid("commutation check needs a T0 input")
    right_first = left_action_topology(monoid, continuous_subsets(monoid, topology).topology)
    left_first = continuous_subsets(monoid, left_action_topology(monoid, topology).topology)
    if right_first.topology != left_first.topology:
        raise CommutationFailure(f"reflections disagree on {monoid!r}")
    return True


def induced_topology_from_filter(monoid: FiniteMonoid, flt: CongruenceFilter
                                 ) -> ActionTopologyReport:
    """Coarsest topology whose continuous quotients include the filter: the
    subsets A all of whose translates q*(A) have orbit congruences in the
    filter.  These are the unions of classes of the filter's least member
    b.  The orbit congruence of a union of b-classes contains b, since b is
    a right congruence, and its translates are again unions of b-classes,
    since b is two-sided; conversely A is a union of classes of its own
    orbit congruence (m·1 ∈ A decides m), which contains b when it lies in
    the filter.  So the result is the partition topology on b's classes,
    its own action topology; the tests check it against the scan of every
    subset."""
    return ActionTopologyReport(flt.least, flt.least.partition_topology, True)


def is_topological_filter(monoid: FiniteMonoid, flt: CongruenceFilter
                          ) -> tuple[bool, RightCongruence | None]:
    """True when the filter equals the open congruences of its induced
    topology.  Both are up-sets, so they are equal exactly when the least
    open congruence of the induced topology is the filter's least member;
    when it is not, it is returned as the witness.  The tests check this
    against a scan of the lattice for a missing congruence whose atom
    images all lie in the filter."""
    induced = induced_topology_from_filter(monoid, flt).topology
    r0 = least_open_congruence(monoid, induced)
    return (True, None) if r0 == flt.least else (False, r0)


def congruence_set(monoid: FiniteMonoid) -> MSet:
    """All right congruences as an M-set under the inverse-image action."""
    lattice = enumerate_congruences(monoid)
    return MSet(monoid, tuple(r.label() for r in lattice), lattice.action)


def congruence_hat_topology(monoid: FiniteMonoid, topology: Topology) -> Topology:
    """Counterexample support, not a reflection: span a topology by the
    classes of the continuous congruences, the continuous points of
    congruence_set read from the lattice's stored action.  Its category of
    continuous actions can differ from the input's."""
    lattice = enumerate_congruences(monoid)
    base = []
    for i in bits(continuous_points(lattice.action, topology)):
        for cls in lattice[i].classes():
            base.append(mask_of(cls))
    return generate_topology(monoid.order, base)
