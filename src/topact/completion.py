"""The completion monoid of a congruence filter, its prodiscrete topology
and comparison homomorphism, completeness predicates, and homomorphism
factorizations.

The completion is computed twice on purpose: once as the limit of compatible
class tuples over all filter members with componentwise projected
multiplication, and once by projecting everything onto the least member.
The two constructions must agree; a mismatch aborts, because the projected
multiplication is the subtlest formula in the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .congruences import (CongruenceFilter, RightCongruence, class_projection,
                          congruence_from_class_map, inverse_image_congruence,
                          leq, open_congruences)
from .errors import InternalCheckError, TopactError
from .monoid import (FiniteMonoid, SemigroupHom, sub_monoid, unit_indices,
                     validate_hom, validate_monoid)
from .topology import (Topology, continuity_witness, generate_topology, separation_report,
                       subspace_topology)
from .reflections import continuous_subsets
from .util import bits, mask_of


class InternalMismatch(InternalCheckError):
    """The tuple-limit and least-member constructions disagree."""


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
    """Completion monoid with tuple view: one class id per filter member for
    each element, aligned with the filter's canonical member order."""

    monoid: FiniteMonoid
    topology: Topology
    comparison: SemigroupHom
    tuple_view: tuple[tuple[int, ...], ...]
    filter: CongruenceFilter


def _limit_tuples(flt: CongruenceFilter) -> list[tuple[int, ...]]:
    """All compatibility-respecting choices of one class per member."""
    members = flt.members
    constraints = []
    for i, r in enumerate(members):
        for j, s in enumerate(members):
            if i != j and leq(r, s):
                constraints.append((i, j, class_projection(r, s)))
    tuples: list[tuple[int, ...]] = [()]
    for k, r in enumerate(members):
        grown = []
        for partial in tuples:
            for c in range(r.num_classes):
                ok = True
                for i, j, proj in constraints:
                    if j == k and i < k and proj[partial[i]] != c:
                        ok = False
                        break
                    if i == k and j < k and proj[c] != partial[j]:
                        ok = False
                        break
                if ok:
                    grown.append(partial + (c,))
        tuples = grown
    return tuples


@lru_cache(maxsize=None)
def complete(monoid: FiniteMonoid, flt: CongruenceFilter) -> Completion:
    """Limit of the quotients over the filter, with projected multiplication,
    prodiscrete topology, and the canonical dense comparison hom."""
    members = flt.members
    index_of = {r: i for i, r in enumerate(members)}
    r0 = flt.least
    k0 = index_of[r0]
    reps = {i: members[i].representatives() for i in range(len(members))}

    tuples = sorted(_limit_tuples(flt), key=lambda t: t[k0])
    if sorted(t[k0] for t in tuples) != list(range(r0.num_classes)):
        raise InternalMismatch(
            "limit carrier does not biject with the least member's classes")
    pos = {t: i for i, t in enumerate(tuples)}

    def mul_tuple(ta: tuple[int, ...], tb: tuple[int, ...]) -> tuple[int, ...]:
        out = []
        for i, r in enumerate(members):
            a = reps[i][ta[i]]
            s = inverse_image_congruence(monoid, a, r)
            js = index_of.get(s)
            if js is None:
                raise InternalMismatch("inverse image escaped the filter")
            b = reps[js][tb[js]]
            out.append(r.class_of[monoid.table[a][b]])
        return tuple(out)

    table = []
    for ta in tuples:
        row = []
        for tb in tuples:
            product = mul_tuple(ta, tb)
            if product not in pos:
                raise InternalMismatch("componentwise product left the limit")
            row.append(pos[product])
        table.append(tuple(row))

    # independent construction: project everything onto the least member
    reps0 = reps[k0]
    for ca in range(r0.num_classes):
        a = reps0[ca]
        s = inverse_image_congruence(monoid, a, r0)
        for cb in range(r0.num_classes):
            b2 = next(m for m in range(monoid.order)
                      if s.class_of[m] == s.class_of[reps0[cb]])
            projected = r0.class_of[monoid.table[a][b2]]
            if projected != table[ca][cb]:
                raise InternalMismatch(
                    f"projected multiplication disagrees at classes ({ca}, {cb})")

    names = tuple(f"[{monoid.elements[reps0[t[k0]]]}]" for t in tuples)
    u_tuple = {m: tuple(r.class_of[m] for r in members) for m in range(monoid.order)}
    limit_monoid = validate_monoid(names, table, pos[u_tuple[monoid.identity]])

    fibers = []
    for i, r in enumerate(members):
        for c in range(r.num_classes):
            fibers.append(mask_of(j for j, t in enumerate(tuples) if t[i] == c))
    rho = generate_topology(len(tuples), fibers)

    u = validate_hom(monoid, limit_monoid,
                     tuple(pos[u_tuple[m]] for m in range(monoid.order)))
    if not u.preserves_identity:
        raise InternalMismatch("comparison map must be a monoid homomorphism")
    if not rho.is_dense(mask_of(u.map)):
        raise InternalCheckError("comparison image is not dense")
    return Completion(limit_monoid, rho, u, tuple(tuples), flt)


def is_complete(monoid: FiniteMonoid, topology: Topology) -> bool:
    """Whether the comparison u into the completion L of the open-congruence
    filter is an isomorphism of topological monoids, which holds exactly
    when u is bijective.  u is a monoid hom, and its kernel is the least
    open congruence r0, whose classes span the action topology, which lies
    inside the input topology.  So if u is injective, r0 is the diagonal,
    and the action topology, hence the input topology, is discrete.  The
    coordinate of L at r0 is then all of M, and it determines every other
    coordinate, so the fibres of that projection are points and L is
    discrete too: a bijective u is a homeomorphism."""
    cpl = complete(monoid, open_congruences(monoid, topology))
    return cpl.monoid.order == monoid.order == len(set(cpl.comparison.map))


@dataclass(frozen=True)
class ProdiscreteCriteria:
    discrete: bool
    prodiscrete: bool
    group: bool
    base: tuple[RightCongruence, ...]


def prodiscrete_criteria(monoid: FiniteMonoid, flt: CongruenceFilter
                         ) -> ProdiscreteCriteria:
    """Discreteness always holds at finite scale (the base is finite);
    prodiscreteness is verified, not assumed, by checking the base
    two-sided; the group flag checks the base quotient."""
    from .congruences import is_two_sided
    cpl = complete(monoid, flt)
    discrete = cpl.topology.is_discrete() and len(flt.base) == 1
    prodiscrete = all(is_two_sided(r) for r in flt.base)
    group = len(unit_indices(cpl.monoid)) == cpl.monoid.order
    return ProdiscreteCriteria(discrete, prodiscrete, group, flt.base)


def pullback_congruence(phi: SemigroupHom, r: RightCongruence) -> RightCongruence:
    """Relate m, n in the source when their images are related; right
    stability follows from multiplicativity and is re-verified."""
    return congruence_from_class_map(
        phi.source, [r.class_of[phi.map[m]] for m in range(phi.source.order)])


def extend_hom(phi: SemigroupHom, f_src: CongruenceFilter,
               f_tgt: CongruenceFilter) -> SemigroupHom:
    """Extend a monoid hom to the completions, componentwise via pullbacks;
    commutation with the comparison maps and continuity are verified."""
    if not phi.preserves_identity:
        raise TopactError("extension requires a monoid homomorphism")
    src = complete(phi.source, f_src)
    tgt = complete(phi.target, f_tgt)
    pulled = []
    for r in f_tgt.members:
        t = pullback_congruence(phi, r)
        if t not in f_src:
            raise PullbackOutsideFilter(r)
        pulled.append(f_src.index(t))
    src_members = f_src.members
    tgt_pos = {t: i for i, t in enumerate(tgt.tuple_view)}
    mapping = []
    for alpha in src.tuple_view:
        out = []
        for j, r in enumerate(f_tgt.members):
            t_idx = pulled[j]
            a = src_members[t_idx].representatives()[alpha[t_idx]]
            out.append(r.class_of[phi.map[a]])
        target_tuple = tuple(out)
        if target_tuple not in tgt_pos:
            raise InternalCheckError("extended image escaped the target limit")
        mapping.append(tgt_pos[target_tuple])
    psi = validate_hom(src.monoid, tgt.monoid, mapping)
    for m in range(phi.source.order):
        if psi.map[src.comparison.map[m]] != tgt.comparison.map[phi.map[m]]:
            raise InternalCheckError("extension does not commute with comparisons")
    from .topology import is_continuous
    if not is_continuous(psi.map, src.topology, tgt.topology):
        raise InternalCheckError("extension is not continuous")
    return psi


def dense_closed_factorization(phi: SemigroupHom, tau_src: Topology,
                               tau_tgt: Topology
                               ) -> tuple[SemigroupHom, SemigroupHom]:
    """Factor a continuous semigroup hom through the closure of its image in
    the target's action topology: a dense corestriction followed by a closed
    inclusion."""
    tgt_tilde = continuous_subsets(phi.target, tau_tgt).topology
    witness = continuity_witness(phi.map, tau_src, tgt_tilde)
    if witness is not None:
        raise NotContinuous(witness)
    image = mask_of(phi.map)
    closure = tgt_tilde.closure(image)
    members = list(bits(closure))
    pos = {m: i for i, m in enumerate(members)}
    tgt = phi.target
    for a in members:
        for b in members:
            if tgt.table[a][b] not in pos:
                raise InternalCheckError("closure of the image is not a subsemigroup")
    ident = None
    for z in members:
        if all(tgt.table[z][c] == c and tgt.table[c][z] == c for c in members):
            ident = z
            break
    if ident is None:
        raise ClosureNotMonoid(
            "image closure has no neutral element; target is not powder here")
    mid = sub_monoid(tgt, members, ident)
    first = validate_hom(phi.source, mid, tuple(pos[v] for v in phi.map))
    second = SemigroupHom(mid, tgt, tuple(members), ident == tgt.identity)
    if not subspace_topology(tgt_tilde, closure).is_dense(mask_of(first.map)):
        raise InternalCheckError("first factor is not dense in the closure")
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
        from .monoid import NotIdempotent
        raise NotIdempotent(e)
    n = monoid.order
    left_ideal = mask_of(monoid.table[m][e] for m in range(n))
    right_ideal = mask_of(monoid.table[e][m] for m in range(n))
    corner = mask_of(monoid.table[monoid.table[e][m]][e] for m in range(n))
    return ClosednessReport(topology.is_closed(left_ideal),
                            topology.is_closed(right_ideal),
                            topology.is_closed(corner))
