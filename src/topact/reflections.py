"""Reflections of a monoid-with-topology: the action topology, the
multiplication-continuous core, the T0 quotient, their composite (the powder
reflection), left/right duality, and topologies induced by congruence
filters.

The hat topology built from continuous congruences is provided only to
reproduce a known counterexample; it is not a reflection and its category of
actions genuinely differs from the input's.
"""

from __future__ import annotations

from dataclasses import dataclass

from .actions import (MSet, continuous_part, is_continuous_mset, orbit_congruence,
                      power_of_m, quotient_mset)
from .congruences import (CongruenceFilter, RightCongruence, congruence_from_class_map,
                          enumerate_congruences, inverse_image_congruence)
from .errors import InternalCheckError, TopactError
from .monoid import FiniteMonoid, SemigroupHom, opposite, validate_hom, validate_monoid
from .topology import (Topology, generate_topology, is_open_in_product,
                       minimal_neighborhoods, separation_report)
from .util import bits, mask_of


class NotTopologicalMonoid(TopactError):
    """The operation needs multiplication to be continuous already."""


class CommutationFailure(InternalCheckError):
    """Left-then-right and right-then-left action topologies disagree."""


@dataclass(frozen=True)
class ActionTopologyReport:
    """The Boolean algebra of continuous subsets and the topology it spans."""

    continuous_sets: tuple[int, ...]
    topology: Topology
    is_action_topology: bool


def _report(monoid: FiniteMonoid, topology: Topology, masks: tuple[int, ...]
            ) -> ActionTopologyReport:
    full = topology.full
    members = set(masks)
    power = power_of_m(monoid)
    for a in masks:
        if (full & ~a) not in members:
            raise InternalCheckError("continuous subsets not closed under complement")
        for b in masks:
            if (a & b) not in members:
                raise InternalCheckError("continuous subsets not closed under meet")
        for g in range(monoid.order):
            if power.act[a][g] not in members:
                raise InternalCheckError("continuous subsets not closed under the action")
    tau_tilde = generate_topology(monoid.order, masks)
    return ActionTopologyReport(masks, tau_tilde,
                                tau_tilde.opens == topology.opens)


def continuous_subsets(monoid: FiniteMonoid, topology: Topology
                       ) -> ActionTopologyReport:
    """Continuous elements of the powerset action; they form a clopen base
    for the action topology contained in the input topology."""
    mask = continuous_part(power_of_m(monoid), topology)
    return _report(monoid, topology, tuple(bits(mask)))


def left_action_topology(monoid: FiniteMonoid, topology: Topology
                         ) -> ActionTopologyReport:
    """Same construction run on the opposite multiplication table."""
    mask = continuous_part(power_of_m(opposite(monoid)), topology)
    return _report(opposite(monoid), topology, tuple(bits(mask)))


def is_topological_monoid(monoid: FiniteMonoid, topology: Topology) -> bool:
    """Multiplication is continuous exactly when nb[a]·nb[b] ⊆ nb[a·b] for
    every a, b, since nb[a] × nb[b] is the minimal neighbourhood of (a, b)
    in the product.  times[v][x] is the mask of x·v for each distinct
    neighbourhood v, and each distinct product nb[a]·nb[b] is formed once,
    so a coarse topology costs no more than a fine one."""
    nb = minimal_neighborhoods(topology)
    times = {v: [mask_of(row[y] for y in bits(v)) for row in monoid.table]
             for v in set(nb)}
    products: dict[tuple[int, int], int] = {}
    for a, row in enumerate(monoid.table):
        for b, ab in enumerate(row):
            key = (nb[a], nb[b])
            if key not in products:
                right = times[nb[b]]
                image = 0
                for x in bits(nb[a]):
                    image |= right[x]
                products[key] = image
            if products[key] & ~nb[ab]:
                return False
    return True


def mult_continuous_core(monoid: FiniteMonoid, topology: Topology) -> Topology:
    """Finest topology inside the input making multiplication continuous:
    repeatedly discard opens whose preimage under multiplication is not open
    in the current square."""
    n = monoid.order
    current = topology
    while True:
        kept = []
        for u in current.opens:
            pre = mask_of(a * n + b for a in range(n) for b in range(n)
                          if u >> monoid.table[a][b] & 1)
            if is_open_in_product(pre, current, current):
                kept.append(u)
        nxt = Topology(n, frozenset(kept))
        if nxt.opens == current.opens:
            break
        current = nxt
    if not is_topological_monoid(monoid, current):
        raise InternalCheckError("multiplication-continuous core is not a fixpoint")
    return current


def t0_quotient(monoid: FiniteMonoid, topology: Topology
                ) -> tuple[FiniteMonoid, Topology, SemigroupHom]:
    """Quotient a topological monoid by topological indistinguishability;
    the relation is a two-sided congruence, so the quotient is a monoid."""
    if not is_topological_monoid(monoid, topology):
        raise NotTopologicalMonoid("T0 quotient needs continuous multiplication")
    report = separation_report(topology)
    class_of = [0] * monoid.order
    for cid, cls in enumerate(report.partition):
        for m in cls:
            class_of[m] = cid
    cong = congruence_from_class_map(monoid, class_of)
    reps = cong.representatives()
    table = []
    for a in reps:
        table.append(tuple(cong.class_of[monoid.table[a][b]] for b in reps))
    for c, rep in enumerate(reps):
        for other in range(monoid.order):
            if cong.class_of[other] != c:
                continue
            for d, rep2 in enumerate(reps):
                if cong.class_of[monoid.table[other][rep2]] != table[c][d]:
                    raise InternalCheckError(
                        "indistinguishability is not a two-sided congruence")
    names = tuple(f"[{monoid.elements[m]}]" for m in reps)
    quotient = validate_monoid(names, table, cong.class_of[monoid.identity])
    opens = frozenset(mask_of({cong.class_of[m] for m in bits(u)}) for u in topology.opens)
    q_top = Topology(len(reps), opens)
    projection = validate_hom(monoid, quotient, cong.class_of)
    if not separation_report(q_top).t0:
        raise InternalCheckError("T0 quotient failed to separate points")
    return quotient, q_top, projection


@dataclass(frozen=True)
class PowderReflection:
    monoid: FiniteMonoid
    topology: Topology
    projection: SemigroupHom
    action_report: ActionTopologyReport


def powder_reflection(monoid: FiniteMonoid, topology: Topology) -> PowderReflection:
    """Action topology followed by the T0 quotient.  The result is a powder
    monoid, which at finite scale always carries the discrete topology."""
    report = continuous_subsets(monoid, topology)
    quotient, q_top, projection = t0_quotient(monoid, report.topology)
    if not q_top.is_discrete():
        raise InternalCheckError("finite powder reflection must be discrete")
    return PowderReflection(quotient, q_top, projection, report)


def two_sided_commutation(monoid: FiniteMonoid, topology: Topology) -> bool:
    """Right-then-left equals left-then-right action topology on a T0
    topological monoid; a counterexample is a hard failure."""
    if not is_topological_monoid(monoid, topology):
        raise NotTopologicalMonoid("commutation check needs a topological monoid")
    if not separation_report(topology).t0:
        raise NotTopologicalMonoid("commutation check needs a T0 input")
    right_first = left_action_topology(monoid, continuous_subsets(monoid, topology).topology)
    left_first = continuous_subsets(monoid, left_action_topology(monoid, topology).topology)
    if right_first.topology.opens != left_first.topology.opens:
        raise CommutationFailure(f"reflections disagree on {monoid!r}")
    return True


def induced_topology_from_filter(monoid: FiniteMonoid, flt: CongruenceFilter
                                 ) -> ActionTopologyReport:
    """Coarsest topology whose continuous quotients include the filter:
    keep the subsets all of whose translated orbit congruences lie in the
    filter.  Every filter quotient is checked continuous for the result."""
    power = power_of_m(monoid)
    member_set = set(flt.members)
    masks = []
    for a in range(1 << monoid.order):
        if all(orbit_congruence(power, power.act[a][q]) in member_set
               for q in range(monoid.order)):
            masks.append(a)
    report = _report(monoid, generate_topology(monoid.order, masks), tuple(masks))
    for r in flt.members:
        ok, witness = is_continuous_mset(quotient_mset(monoid, r), report.topology)
        if not ok:
            raise InternalCheckError(
                f"filter quotient {r.label()} not continuous for its induced topology"
                f" (witness {witness})")
    return report


def atom_image_congruence(monoid: FiniteMonoid, r: RightCongruence,
                          p: int) -> RightCongruence:
    """Kernel of the atom map [q] ↦ q*(class of p) out of M/r into the
    powerset, i.e. the orbit congruence of p's class."""
    class_mask = mask_of(m for m in range(monoid.order)
                         if r.class_of[m] == r.class_of[p])
    return orbit_congruence(power_of_m(monoid), class_mask)


def is_topological_filter(monoid: FiniteMonoid, flt: CongruenceFilter
                          ) -> tuple[bool, RightCongruence | None]:
    """True when the filter equals the open congruences of its induced
    topology: no missing congruence has all its atom images inside."""
    member_set = set(flt.members)
    for r in enumerate_congruences(monoid):
        if r in member_set:
            continue
        if all(atom_image_congruence(monoid, r, p) in member_set
               for p in r.representatives()):
            return False, r
    return True, None


def congruence_set(monoid: FiniteMonoid) -> MSet:
    """All right congruences as an M-set under the inverse-image action."""
    lattice = enumerate_congruences(monoid)
    pos = {r: i for i, r in enumerate(lattice)}
    act = tuple(tuple(pos[inverse_image_congruence(monoid, q, r)]
                      for q in range(monoid.order))
                for r in lattice)
    return MSet(monoid, tuple(r.label() for r in lattice), act)


def congruence_hat_topology(monoid: FiniteMonoid, topology: Topology) -> Topology:
    """Counterexample support, not a reflection: span a topology by the
    classes of the continuous congruences.  Its category of continuous
    actions can differ from the input's."""
    lattice = enumerate_congruences(monoid)
    relations = congruence_set(monoid)
    mask = continuous_part(relations, topology)
    base = []
    for i in bits(mask):
        r = lattice[i]
        for cls in r.classes():
            base.append(mask_of(cls))
    return generate_topology(monoid.order, base)
