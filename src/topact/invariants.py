"""Principal-site categories of congruence filters, Morita fingerprints and
small-scale equivalence search, joint-covering and atomicity checkers, and
the tail/cycle classification of monogenic actions.

A hand-built finite category (make_category) is checked law by law by
validate_category; a principal site is a category by construction, and no
command validates one.

Arrows of a principal site are congruence classes [m]: r1 -> r2 with
r1 ⊆ m*(r2); the underlying map of classes sends [x] to [mx], so composing
[m] then [n] yields [n·m].  Epis are the class-surjective arrows; the
strict joint-covering check takes them as the strict epis too, which the
engine does not verify.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .congruences import CongruenceFilter, RightCongruence
from .errors import CapExceeded, TopactError
from .monoid import (FiniteMonoid, SemigroupHom, generating_set, validate_hom,
                     zero_element)
from .reflections import powder_reflection
from .topology import Topology
from .util import mask_of


class NoZeroElement(TopactError):
    pass


class BadCategory(TopactError):
    """Composition table violates a category law."""


@dataclass(frozen=True)
class FiniteCategory:
    """Objects, globally indexed arrows, and a composition table.

    compose_table[f][g] is "f then g" when tgt(f) = src(g), else -1.
    """

    objects: tuple[str, ...]
    arrow_names: tuple[str, ...]
    arrow_src: tuple[int, ...]
    arrow_tgt: tuple[int, ...]
    compose_table: tuple[tuple[int, ...], ...]
    identities: tuple[int, ...]
    epis: frozenset[int]
    monos: frozenset[int]

    @property
    def arrow_count(self) -> int:
        return len(self.arrow_names)

    def hom(self, i: int, j: int) -> tuple[int, ...]:
        return tuple(f for f in range(self.arrow_count)
                     if self.arrow_src[f] == i and self.arrow_tgt[f] == j)

    def __repr__(self) -> str:
        return f"FiniteCategory({len(self.objects)} objects, {self.arrow_count} arrows)"


def validate_category(cat: FiniteCategory) -> FiniteCategory:
    """Check the category law by law, raising BadCategory at the first
    failure: the shape of the data (list lengths, endpoints among the
    objects, identities and composites among the arrows, each an int), the
    identities' endpoints, every table entry against composability and
    endpoints, the unit laws, and associativity over the composable triples
    in (f, g, h) order."""
    src, tgt, table = cat.arrow_src, cat.arrow_tgt, cat.compose_table
    count, objects = cat.arrow_count, len(cat.objects)
    if len(src) != count or len(tgt) != count or len(cat.identities) != objects:
        raise BadCategory("each arrow needs a source and a target, each object an identity")
    if len(table) != count or any(len(row) != count for row in table):
        raise BadCategory(f"composition table is not {count} by {count}")
    for f in range(count):
        if not (_is_index(src[f], objects) and _is_index(tgt[f], objects)):
            raise BadCategory(f"arrow {f} has an endpoint that is not an object")
    for i, ident in enumerate(cat.identities):
        if not _is_index(ident, count):
            raise BadCategory(f"identity of object {i} is not an arrow")
        if src[ident] != i or tgt[ident] != i:
            raise BadCategory(f"identity of object {i} has wrong endpoints")
    for f in range(count):
        for g, h in enumerate(table[f]):
            if not isinstance(h, int):
                raise BadCategory(f"composite of arrows {f} and {g} is not an arrow")
            if (tgt[f] == src[g]) != (h >= 0):
                raise BadCategory("composition table disagrees with composability")
            if h >= count:
                raise BadCategory(f"composite of arrows {f} and {g} is not an arrow")
            if h >= 0 and (src[h] != src[f] or tgt[h] != tgt[g]):
                raise BadCategory("composite has wrong endpoints")
    for f in range(count):
        if table[cat.identities[src[f]]][f] != f:
            raise BadCategory(f"left unit law fails at arrow {f}")
        if table[f][cat.identities[tgt[f]]] != f:
            raise BadCategory(f"right unit law fails at arrow {f}")
    out: list[list[int]] = [[] for _ in cat.objects]  # arrows by source
    for g in range(count):
        out[src[g]].append(g)
    for f in range(count):
        row_f = table[f]
        for g in out[tgt[f]]:
            row_fg, row_g = table[row_f[g]], table[g]
            for h in out[tgt[g]]:
                if row_fg[h] != row_f[row_g[h]]:
                    raise BadCategory(f"associativity fails at ({f}, {g}, {h})")
    return cat


def _is_index(value: object, size: int) -> bool:
    return isinstance(value, int) and 0 <= value < size


# The composition table is quadratic in the arrows; sites past this many
# stop with CapExceeded before any table is built.
MAX_SITE_ARROWS = 4096


def principal_site(monoid: FiniteMonoid, flt: CongruenceFilter) -> FiniteCategory:
    """The category with the filter's congruences as objects and classes
    [m] as arrows; epis/monos are marked from the underlying class maps.

    [m]: r_i → r_j composed with [n]: r_j → r_k is [n·m], whose r_k-class
    is the class map of [n] at the r_j-class of m: the composites are read
    from the class maps, through one list per (i, k) indexed by r_k-class.
    """
    members = flt.members
    arrows = list(itertools.islice(_site_arrows(monoid, members), MAX_SITE_ARROWS + 1))
    count = len(arrows)
    if count > MAX_SITE_ARROWS:
        raise CapExceeded("principal-site arrows", count)
    lookup = [[[-1] * r.num_classes for r in members] for _ in members]
    for f, (i, j, c, _) in enumerate(arrows):
        lookup[i][j][c] = f
    # the arrows out of r_j are start[j], ..., start[j + 1] - 1
    start = [0] * (len(members) + 1)
    for i, _, _, _ in arrows:
        start[i + 1] += 1
    for i in range(len(members)):
        start[i + 1] += start[i]
    compose = []
    for f, (i, j, c, _) in enumerate(arrows):
        lookup_i = lookup[i]
        segment = [lookup_i[k][cmap[c]] for (_, k, _, cmap) in arrows[start[j]:start[j + 1]]]
        compose.append((-1,) * start[j] + tuple(segment) + (-1,) * (count - start[j + 1]))
    epis, monos = set(), set()
    for f, (_, j, _, cmap) in enumerate(arrows):
        image = len(set(cmap))
        if image == members[j].num_classes:
            epis.add(f)
        if image == len(cmap):
            monos.add(f)
    names = monoid.elements
    reps = [r.representatives() for r in members]
    return FiniteCategory(
        objects=tuple(r.label() for r in members),
        arrow_names=tuple(f"[{names[reps[j][c]]}]" for (_, j, c, _) in arrows),
        arrow_src=tuple(a[0] for a in arrows),
        arrow_tgt=tuple(a[1] for a in arrows),
        compose_table=tuple(compose),
        identities=tuple(lookup[i][i][r.class_of[monoid.identity]]
                         for i, r in enumerate(members)),
        epis=frozenset(epis),
        monos=frozenset(monos),
    )


def _site_arrows(monoid: FiniteMonoid, members: Sequence[RightCongruence]
                 ) -> Iterator[tuple[int, int, int, list[int]]]:
    """The arrows [m]: r_i → r_j of the principal site in its order (by i,
    then j, then the r_j-class c of m), each as (i, j, c, class map).

    m is the least element of its class, and [m] is an arrow when r_i ⊆
    m*(r_j), that is, when x ↦ r_j-class of m·x is constant on r_i-classes.
    One pass over the carrier decides this and builds the class map as it
    goes, stopping at the first x whose r_i-class already has another
    image.
    """
    table = monoid.table
    reps = [r.representatives() for r in members]
    for i, ri in enumerate(members):
        cls_i, size = ri.class_of, ri.num_classes
        for j, rj in enumerate(members):
            cls_j = rj.class_of
            for c, m in enumerate(reps[j]):
                cmap = [-1] * size
                for a, y in zip(cls_i, table[m]):
                    v = cls_j[y]
                    w = cmap[a]
                    if w < 0:
                        cmap[a] = v
                    elif w != v:
                        break
                else:
                    yield i, j, c, cmap


def make_category(objects: Sequence[str],
                  arrows: Sequence[tuple[str, int, int]],
                  compose: Callable[[int, int], int],
                  identities: Sequence[int],
                  epis: Sequence[int],
                  monos: Sequence[int] = ()) -> FiniteCategory:
    """Assemble and validate a hand-built category; compose(f, g) is
    "f then g" on arrow indices."""
    table = []
    for f in range(len(arrows)):
        row = []
        for g in range(len(arrows)):
            if arrows[f][2] != arrows[g][1]:
                row.append(-1)
            else:
                row.append(compose(f, g))
        table.append(tuple(row))
    cat = FiniteCategory(
        objects=tuple(objects),
        arrow_names=tuple(a[0] for a in arrows),
        arrow_src=tuple(a[1] for a in arrows),
        arrow_tgt=tuple(a[2] for a in arrows),
        compose_table=tuple(table),
        identities=tuple(identities),
        epis=frozenset(epis),
        monos=frozenset(monos),
    )
    return validate_category(cat)


def _iso_classes(cat: FiniteCategory) -> list[list[int]]:
    """The classes of isomorphic objects, by least member.  A composite of
    isomorphisms is an isomorphism and an arrow of the category, so the
    objects with an inverse pair to i already form i's whole class."""
    iso = {i: {i} for i in range(len(cat.objects))}
    for f in range(cat.arrow_count):
        i, j = cat.arrow_src[f], cat.arrow_tgt[f]
        if i == j:
            continue
        for g in cat.hom(j, i):
            if (cat.compose_table[f][g] == cat.identities[i]
                    and cat.compose_table[g][f] == cat.identities[j]):
                iso[i].add(j)
                iso[j].add(i)
    classes: list[list[int]] = []
    seen: set[int] = set()
    for i in range(len(cat.objects)):
        if i not in seen:
            seen |= iso[i]
            classes.append(sorted(iso[i]))
    return classes


@dataclass(frozen=True)
class MoritaFingerprint:
    """Relabeling-invariant necessary condition for equivalence: iso-class
    count, canonical (hom, epi, mono)-cardinality matrix, terminal flag."""

    object_count: int
    matrix: tuple[tuple[tuple[int, int, int], ...], ...]
    has_terminal: bool


def morita_fingerprint(cat: FiniteCategory) -> MoritaFingerprint:
    classes = _iso_classes(cat)
    reps = [cls[0] for cls in classes]
    k = len(reps)
    raw = [[_hom_profile(cat, reps[i], reps[j]) for j in range(k)]
           for i in range(k)]
    # canonicalize only within invariantly-computed profile groups; the
    # restricted minimum is still a relabeling invariant and stays cheap
    profile = [(raw[i][i], tuple(sorted(raw[i])), tuple(sorted(r[i] for r in raw)))
               for i in range(k)]
    order = sorted(range(k), key=lambda i: profile[i])
    groups: list[list[int]] = []
    for i in order:
        if groups and profile[groups[-1][0]] == profile[i]:
            groups[-1].append(i)
        else:
            groups.append([i])
    best = None
    for parts in itertools.product(*(itertools.permutations(g) for g in groups)):
        perm = [i for part in parts for i in part]
        candidate = tuple(tuple(raw[perm[i]][perm[j]] for j in range(k))
                          for i in range(k))
        if best is None or candidate < best:
            best = candidate
    has_terminal = any(all(raw[i][j][0] == 1 for i in range(k)) for j in range(k))
    return MoritaFingerprint(k, best if best is not None else (), has_terminal)


def _hom_profile(cat: FiniteCategory, i: int, j: int) -> tuple[int, int, int]:
    hom = cat.hom(i, j)
    return (len(hom),
            sum(1 for f in hom if f in cat.epis),
            sum(1 for f in hom if f in cat.monos))


@dataclass(frozen=True)
class EquivalenceVerdict:
    kind: str  # "yes" | "no" | "unknown"
    reason: str
    object_map: Optional[tuple[int, ...]] = None
    arrow_map: Optional[tuple[int, ...]] = None


MAX_ISO_CLASSES = 6
MAX_HOM_SET = 8


def categories_equivalent(c1: FiniteCategory, c2: FiniteCategory) -> EquivalenceVerdict:
    """Fingerprint mismatch is a sound "no"; otherwise search for an
    isomorphism of skeletons, which for finite categories witnesses an
    equivalence.  Beyond the caps the verdict is an honest "unknown"."""
    f1, f2 = morita_fingerprint(c1), morita_fingerprint(c2)
    if f1 != f2:
        return EquivalenceVerdict("no", "fingerprints differ")
    s1, o1 = _skeleton(c1)
    s2, o2 = _skeleton(c2)
    if len(s1.objects) > MAX_ISO_CLASSES or _max_hom(s1) > MAX_HOM_SET:
        return EquivalenceVerdict("unknown", "beyond search caps")
    witness = _find_isomorphism(s1, s2)
    if witness is None:
        return EquivalenceVerdict("no", "no skeleton isomorphism")
    obj_map, arrow_map = witness
    return EquivalenceVerdict("yes", "skeleton isomorphism found",
                              tuple(o2[obj_map[i]] for i in range(len(obj_map))),
                              arrow_map)


def _max_hom(cat: FiniteCategory) -> int:
    k = len(cat.objects)
    return max((len(cat.hom(i, j)) for i in range(k) for j in range(k)), default=0)


def _skeleton(cat: FiniteCategory) -> tuple[FiniteCategory, tuple[int, ...]]:
    """Full subcategory on one object per iso class."""
    reps = tuple(cls[0] for cls in _iso_classes(cat))
    keep = [f for f in range(cat.arrow_count)
            if cat.arrow_src[f] in reps and cat.arrow_tgt[f] in reps]
    arrow_pos = {f: i for i, f in enumerate(keep)}
    obj_pos = {o: i for i, o in enumerate(reps)}
    table = tuple(tuple(arrow_pos[cat.compose_table[f][g]]
                        if cat.compose_table[f][g] >= 0 else -1
                        for g in keep) for f in keep)
    sk = FiniteCategory(
        objects=tuple(cat.objects[o] for o in reps),
        arrow_names=tuple(cat.arrow_names[f] for f in keep),
        arrow_src=tuple(obj_pos[cat.arrow_src[f]] for f in keep),
        arrow_tgt=tuple(obj_pos[cat.arrow_tgt[f]] for f in keep),
        compose_table=table,
        identities=tuple(arrow_pos[cat.identities[o]] for o in reps),
        epis=frozenset(arrow_pos[f] for f in keep if f in cat.epis),
        monos=frozenset(arrow_pos[f] for f in keep if f in cat.monos),
    )
    return sk, reps


def _find_isomorphism(c1: FiniteCategory, c2: FiniteCategory
                      ) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    k = len(c1.objects)
    if k != len(c2.objects) or c1.arrow_count != c2.arrow_count:
        return None
    for obj_map in itertools.permutations(range(k)):
        if any(_hom_profile(c1, i, j) != _hom_profile(c2, obj_map[i], obj_map[j])
               for i in range(k) for j in range(k)):
            continue
        arrow_map = _match_arrows(c1, c2, obj_map)
        if arrow_map is not None:
            return obj_map, arrow_map
    return None


def _match_arrows(c1: FiniteCategory, c2: FiniteCategory,
                  obj_map: Sequence[int]) -> Optional[tuple[int, ...]]:
    order = sorted(range(c1.arrow_count))
    assignment: list[int] = [-1] * c1.arrow_count

    def consistent(f: int, image: int) -> bool:
        if c2.arrow_src[image] != obj_map[c1.arrow_src[f]]:
            return False
        if c2.arrow_tgt[image] != obj_map[c1.arrow_tgt[f]]:
            return False
        if (f in c1.epis) != (image in c2.epis):
            return False
        if (f in c1.monos) != (image in c2.monos):
            return False
        if c1.identities[c1.arrow_src[f]] == f and \
                c2.identities[obj_map[c1.arrow_src[f]]] != image:
            return False
        for g in range(c1.arrow_count):
            if assignment[g] < 0:
                continue
            for a, b, ia, ib in ((f, g, image, assignment[g]),
                                 (g, f, assignment[g], image)):
                h = c1.compose_table[a][b]
                if h >= 0:
                    h2 = c2.compose_table[ia][ib]
                    if h2 < 0:
                        return False
                    if assignment[h] >= 0 and assignment[h] != h2:
                        return False
        return True

    used: set[int] = set()

    def search(pos: int) -> bool:
        if pos == len(order):
            return _full_functor_check(c1, c2, assignment)
        f = order[pos]
        for image in range(c2.arrow_count):
            if image in used or not consistent(f, image):
                continue
            assignment[f] = image
            used.add(image)
            if search(pos + 1):
                return True
            used.discard(image)
            assignment[f] = -1
        return False

    if search(0):
        return tuple(assignment)
    return None


def _full_functor_check(c1: FiniteCategory, c2: FiniteCategory,
                        assignment: Sequence[int]) -> bool:
    for f in range(c1.arrow_count):
        for g in range(c1.arrow_count):
            h = c1.compose_table[f][g]
            if h >= 0 and c2.compose_table[assignment[f]][assignment[g]] != assignment[h]:
                return False
    return True


def joint_covering(cat: FiniteCategory) -> bool:
    """Every pair of objects admits a common source of marked epis."""
    return _jcp(cat, cat.epis)


def strict_joint_covering(cat: FiniteCategory) -> bool:
    """Joint covering by strict epis, taken to be the marked epis."""
    return _jcp(cat, cat.epis)


def _jcp(cat: FiniteCategory, epis: frozenset[int]) -> bool:
    k = len(cat.objects)
    covers = [[False] * k for _ in range(k)]
    for f in epis:
        covers[cat.arrow_src[f]][cat.arrow_tgt[f]] = True
    for a in range(k):
        for b in range(k):
            if not any(covers[n][a] and covers[n][b] for n in range(k)):
                return False
    return True


def is_atomic(monoid: FiniteMonoid, flt: CongruenceFilter
              ) -> tuple[bool, Optional[tuple[RightCongruence, int]]]:
    """Quantifier form (condition 4): every m is right-invertible up to every
    filter congruence.  The tests compare it with condition 1, "all site
    arrows are epimorphisms", and condition 3, dense units.

    Every member contains least, so the verdict reads only least; the
    members are read only to name the witness, the first member r in
    lattice order and the first m not right-invertible up to r."""
    if _not_right_invertible(monoid, flt.least) is None:
        return True, None
    # least is the last member, so some member fails
    return False, next((r, m) for r in flt.members
                       if (m := _not_right_invertible(monoid, r)) is not None)


def _not_right_invertible(monoid: FiniteMonoid, r: RightCongruence) -> Optional[int]:
    """The first element m with no m2 such that m·m2 is r-related to the
    identity, or None."""
    one = r.class_of[monoid.identity]
    for m, row in enumerate(monoid.table):
        if one not in map(r.class_of.__getitem__, row):
            return m
    return None


def dense_units(monoid: FiniteMonoid, topology: Topology) -> bool:
    """Units of the completion meet every non-empty open (atomicity
    condition 3), which the tests compare with is_atomic on the
    open-congruence filter."""
    from .completion import complete
    from .congruences import open_congruences
    from .monoid import unit_indices
    flt = open_congruences(monoid, topology)
    cpl = complete(monoid, flt)
    return cpl.topology.is_dense(mask_of(unit_indices(cpl.monoid)))


def zero_fixed_point_check(monoid: FiniteMonoid, flt: CongruenceFilter) -> bool:
    """With a zero element z, every filter quotient has exactly one point
    fixed by the whole monoid, so the check reads no member.  [z] is fixed,
    since [z]·m = [z·m] = [z]; and a fixed class [x] contains x·z = z, so it
    is [z].  The tests compare this with a scan of every member's quotient."""
    if zero_element(monoid) is None:
        raise NoZeroElement("monoid has no zero element")
    return True


def classify_monogenic(f: Sequence[int], x: int) -> tuple[int, int]:
    """Tail length and cycle length of x's forward orbit under f."""
    seen: dict[int, int] = {}
    current, step = x, 0
    while current not in seen:
        seen[current] = step
        current = f[current]
        step += 1
    return seen[current], step - seen[current]


def monogenic_orbit(a: int, b: int) -> list[int]:
    """Successor endofunction of the orbit with tail a and cycle b on
    {0, ..., a+b-1}."""
    size = a + b
    return [k + 1 if k + 1 < size else a for k in range(size)]


@dataclass(frozen=True)
class MonogenicHomFlags:
    epi_exists: bool
    mono_exists: bool


def monogenic_homs(shape1: tuple[int, int], shape2: tuple[int, int]
                   ) -> MonogenicHomFlags:
    """Epi/mono existence between monogenic orbits by tail/cycle arithmetic;
    the tests compare it with the explicit equivariant-map search."""
    (a, b), (a2, b2) = shape1, shape2
    return MonogenicHomFlags(epi_exists=(a2 <= a and b % b2 == 0),
                             mono_exists=(a <= a2 and b == b2))


def monoids_isomorphic(m1: FiniteMonoid, m2: FiniteMonoid
                       ) -> Optional[tuple[int, ...]]:
    """An isomorphism m1 -> m2 as the tuple of images, or None.

    The map is fixed by the images of a generating set of m1, fewest
    candidate images first.  Each generator is tried against the elements
    of m2 with its invariants, and each choice is propagated along products, phi(w·g) = phi(w)·phi(g): the
    search backs up as soon as an image repeats, breaks an invariant, or
    disagrees with the image found before.  A map that passes is a
    bijection, since propagation never repeats an image, and it is
    multiplicative, since every element is a product of generators.
    """
    n = m1.order
    if n != m2.order:
        return None
    inv1, inv2 = _element_invariants(m1), _element_invariants(m2)
    if sorted(inv1) != sorted(inv2):
        return None
    candidates: dict[tuple, list[int]] = {}
    for b, key in enumerate(inv2):
        candidates.setdefault(key, []).append(b)
    generators = generating_set(m1, [len(candidates[key]) for key in inv1])
    t1, t2 = m1.table, m2.table

    def propagate(images: list[int]) -> Optional[list[int]]:
        # the map on the submonoid that the first len(images) generators
        # generate: the identity's closure under right multiplication by them
        phi, back = [-1] * n, [-1] * n
        phi[m1.identity], back[m2.identity] = m2.identity, m1.identity
        frontier = [m1.identity]
        while frontier:
            fresh = []
            for w in frontier:
                for g, b in zip(generators, images):
                    p, q = t1[w][g], t2[phi[w]][b]
                    if phi[p] < 0:
                        if back[q] >= 0 or inv1[p] != inv2[q]:
                            return None
                        phi[p], back[q] = q, p
                        fresh.append(p)
                    elif phi[p] != q:
                        return None
            frontier = fresh
        return phi

    def search(images: list[int]) -> Optional[list[int]]:
        phi = propagate(images)
        if phi is None or len(images) == len(generators):
            return phi
        for b in candidates[inv1[generators[len(images)]]]:
            found = search(images + [b])
            if found is not None:
                return found
        return None

    phi = search([])
    return None if phi is None else tuple(phi)


def _element_invariants(monoid: FiniteMonoid) -> list[tuple[bool, int, int, int, int]]:
    """Per element a: idempotent, the index and period of its powers, |aM|
    and |Ma|.  Isomorphisms preserve each; a is a unit iff |aM| = |M|."""
    n, table = monoid.order, monoid.table
    out = []
    for a in range(n):
        seen: dict[int, int] = {}
        power, k = a, 1
        while power not in seen:
            seen[power] = k
            power, k = table[power][a], k + 1
        out.append((table[a][a] == a, seen[power], k - seen[power],
                    len(set(table[a])), len({row[a] for row in table})))
    return out


def morita_equivalent(m1: FiniteMonoid, t1: Topology, m2: FiniteMonoid,
                      t2: Topology) -> Optional[SemigroupHom]:
    """An isomorphism M/r0 -> N/s0 of the powder monoids, or None; the
    toposes Cont(M, t1) and Cont(N, t2) are equivalent exactly when it
    exists.

    An action is continuous iff every orbit congruence is open, that is,
    contains r0.  Since r0 is two-sided, this holds iff the action factors
    through M/r0, so Cont(M, t1) is the category of right M/r0-sets.
    Monoids M and N have equivalent categories of right sets iff N is
    isomorphic to eMe for an idempotent e with MeM = M (Banaschewski 1972;
    Knauer 1972).  In a finite monoid, 1 = a·e·b makes a and a·e right
    invertible, hence units, so e = a⁻¹·(a·e) is a unit and, being
    idempotent, e = 1.  So the toposes are equivalent iff M/r0 and N/s0 are
    isomorphic.
    """
    q1 = powder_reflection(m1, t1).monoid
    q2 = powder_reflection(m2, t2).monoid
    phi = monoids_isomorphic(q1, q2)
    return None if phi is None else validate_hom(q1, q2, phi)
