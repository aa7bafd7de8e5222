"""The completion monoid of a congruence filter, its prodiscrete topology
and comparison homomorphism, completeness predicates, and homomorphism
factorizations.

The completion is the limit of the quotients M/r over the members r of the
filter.  On a finite monoid the filter has a least member, its base, which
is two-sided, and the coordinate at the base determines every other
coordinate, so the limit is the monoid M/base with the discrete topology,
and the comparison is the quotient map.  Only the base is read: the
filter's members are never listed.  The limit of class tuples is kept in
the tests as the oracle for this construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .congruences import (CongruenceFilter, RightCongruence, _canonical, is_two_sided,
                          least_open_congruence)
from .errors import TopactError
from .monoid import FiniteMonoid, NotIdempotent, SemigroupHom, sub_monoid, unit_indices
from .topology import Topology, continuity_witness, discrete_topology, separation_report
from .reflections import continuous_subsets
from .util import bits, mask_of


class PullbackOutsideFilter(TopactError):
    def __init__(self, r):
        super().__init__(f"pullback of {r} is not in the source filter")
        self.congruence = r


class NotContinuous(TopactError):
    def __init__(self, witness_open: int):
        super().__init__(f"map not continuous; witness open {witness_open:#x}")
        self.witness = witness_open


class NotPowderInput(TopactError):
    """Operation requires a T0 input with a clopen base."""


class ClosureNotMonoid(TopactError):
    """The closure of the image carries no identity element, so it cannot be
    reported as a monoid; only powder/complete targets avoid this."""


@dataclass(frozen=True)
class Completion:
    """Completion monoid, its topology and the comparison from the input;
    element c of the completion is the class c of the filter's least member."""

    monoid: FiniteMonoid
    topology: Topology
    comparison: SemigroupHom


def complete(monoid: FiniteMonoid, flt: CongruenceFilter) -> Completion:
    """Limit of the quotients over the filter, with its prodiscrete topology
    and the canonical dense comparison hom: M/least, discrete, with the
    quotient map, both stored on least (RightCongruence.quotient).  An
    element of the limit picks one class of each member, compatibly; since
    least refines every member, its class picks all the others.  The
    product topology is spanned by the fibres of the coordinates, and those
    of least are points."""
    quotient, comparison = flt.least.quotient
    return Completion(quotient, discrete_topology(quotient.order), comparison)


def is_complete(monoid: FiniteMonoid, topology: Topology) -> bool:
    """Whether the comparison u into the completion L of the open-congruence
    filter is an isomorphism of topological monoids, which holds exactly
    when u is bijective.  u is a monoid hom, and its kernel is the least
    open congruence r0, whose classes span the action topology, which lies
    inside the input topology.  So if u is injective, r0 is the diagonal,
    and the action topology, hence the input topology, is discrete.  The
    coordinate of L at r0 is then all of M, and it determines every other
    coordinate, so the fibres of that projection are points and L is
    discrete too: a bijective u is a homeomorphism.  u is the quotient map
    by r0, so it is bijective exactly when r0 is the diagonal."""
    return least_open_congruence(monoid, topology).num_classes == monoid.order


@dataclass(frozen=True)
class ProdiscreteCriteria:
    discrete: bool
    prodiscrete: bool
    group: bool


def prodiscrete_criteria(monoid: FiniteMonoid, flt: CongruenceFilter
                         ) -> ProdiscreteCriteria:
    """Discreteness always holds at finite scale (the base is the single
    least member); prodiscreteness is verified, not assumed, by checking
    the least member two-sided; the group flag checks its quotient."""
    cpl = complete(monoid, flt)
    group = len(unit_indices(cpl.monoid)) == cpl.monoid.order
    return ProdiscreteCriteria(cpl.topology.is_discrete(), is_two_sided(flt.least), group)


def pullback_congruence(phi: SemigroupHom, r: RightCongruence) -> RightCongruence:
    """Relate m, n in the source when their images are related.  It is right
    stable since phi is multiplicative: phi(m) r phi(n) gives phi(m·k) =
    phi(m)·phi(k) r phi(n)·phi(k) = phi(n·k)."""
    return RightCongruence(phi.source, _canonical([r.class_of[v] for v in phi.map]))


def extend_hom(phi: SemigroupHom, f_src: CongruenceFilter,
               f_tgt: CongruenceFilter) -> SemigroupHom:
    """Extend a monoid hom to the completions: the class [a] of the source's
    least member goes to the class of phi(a) in the target's.  This is well
    defined when every target member pulls back into the source filter, so
    that the target's least member pulls back above the source's.  Pullback
    is monotone and the source filter is upward closed, so the pullback of
    the target's least member decides it for every member.  The extension
    is a monoid hom, since phi is one and both comparison maps are quotient
    maps, and it commutes with them by construction.  Continuity is
    automatic, as the source completion is discrete."""
    if not phi.preserves_identity:
        raise TopactError("extension requires a monoid homomorphism")
    if pullback_congruence(phi, f_tgt.least) not in f_src:
        raise PullbackOutsideFilter(f_tgt.least)
    src = complete(phi.source, f_src)
    tgt = complete(phi.target, f_tgt)
    return SemigroupHom(src.monoid, tgt.monoid,
                        tuple(tgt.comparison.map[phi.map[a]]
                              for a in f_src.least.representatives()), True)


def dense_closed_factorization(phi: SemigroupHom, tau_src: Topology,
                               tau_tgt: Topology
                               ) -> tuple[SemigroupHom, SemigroupHom]:
    """Factor a continuous semigroup hom through the closure of its image in
    the target's action topology: a dense corestriction followed by a closed
    inclusion.  Multiplication is continuous for the action topology, so the
    closure of the image, a subsemigroup, is again one, and the image is
    dense in its own closure."""
    tgt_tilde = continuous_subsets(phi.target, tau_tgt).topology
    witness = continuity_witness(phi.map, tau_src, tgt_tilde)
    if witness is not None:
        raise NotContinuous(witness)
    image = mask_of(phi.map)
    closure = tgt_tilde.closure(image)
    members = list(bits(closure))
    pos = {m: i for i, m in enumerate(members)}
    tgt = phi.target
    ident = None
    for z in members:
        if all(tgt.table[z][c] == c and tgt.table[c][z] == c for c in members):
            ident = z
            break
    if ident is None:
        raise ClosureNotMonoid(
            "image closure has no neutral element; target is not powder here")
    mid = sub_monoid(tgt, members, ident)
    first = SemigroupHom(phi.source, mid, tuple(pos[v] for v in phi.map),
                         phi.map[phi.source.identity] == ident)
    second = SemigroupHom(mid, tgt, tuple(members), ident == tgt.identity)
    return first, second


@dataclass(frozen=True)
class ClosednessReport:
    left_ideal_closed: bool
    right_ideal_closed: bool
    corner_closed: bool

    def all_closed(self) -> bool:
        return self.left_ideal_closed and self.right_ideal_closed and self.corner_closed


def closedness_report(monoid: FiniteMonoid, topology: Topology,
                      e: int) -> ClosednessReport:
    """Closedness of M·e, e·M and e·M·e in a powder input (T0 with a clopen
    base); all three are expected true."""
    report = separation_report(topology)
    if not (report.t0 and report.clopen_base):
        raise NotPowderInput("need a T0 topology with a clopen base")
    if monoid.table[e][e] != e:
        raise NotIdempotent(e)
    n = monoid.order
    left_ideal = mask_of(monoid.table[m][e] for m in range(n))
    right_ideal = mask_of(monoid.table[e][m] for m in range(n))
    corner = mask_of(monoid.table[monoid.table[e][m]][e] for m in range(n))
    return ClosednessReport(topology.is_closed(left_ideal),
                            topology.is_closed(right_ideal),
                            topology.is_closed(corner))
