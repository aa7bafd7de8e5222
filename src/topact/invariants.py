"""Principal-site categories of congruence filters, Morita fingerprints and
small-scale equivalence search, joint-covering and atomicity checkers, and
the tail/cycle classification of monogenic actions.

A hand-built finite category (make_category) is checked law by law by
validate_category; a principal site is a category by construction, and no
command validates one.  A site depends only on the monoid and the
filter's members, so principal_site builds it once per congruence lattice
and stores it there (CongruenceLattice.site): it lives as long as the
lattice's cache entry, and enumerate_congruences.cache_clear drops both.

Arrows of a principal site are congruence classes [m]: r1 -> r2 with
r1 ⊆ m*(r2); the underlying map of classes sends [x] to [mx], so composing
[m] then [n] yields [n·m].  Epis are the class-surjective arrows; the
strict joint-covering check takes them as the strict epis too, which the
engine does not verify.

A Morita fingerprint, of any finite category, reads one pass over its
arrows (_hom_counts) and is stored on the category on first read
(FiniteCategory.fingerprint), so a stored site is fingerprinted once; its
oracle, morita_fingerprint_by_scan in tests/conftest.py, rescans the
arrows for every arrow and pair of objects.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .completion import complete
from .congruences import CongruenceFilter, RightCongruence, open_congruences
from .errors import CapExceeded, TopactError
from .monoid import FiniteMonoid, SemigroupHom, generating_set, unit_indices, zero_element
from .reflections import powder_reflection
from .topology import Topology
from .util import filled_once, mask_of


class NoZeroElement(TopactError):
    pass


class BadCategory(TopactError):
    """A category's data violates a category law."""


@dataclass(frozen=True)
class FiniteCategory:
    """Objects, globally indexed arrows, and their composites.

    after[f][k] is "f then g" for the k-th arrow g out of tgt(f), in index
    order; only composable pairs are stored, and then reads them.
    """

    objects: tuple[str, ...]
    arrow_names: tuple[str, ...]
    arrow_src: tuple[int, ...]
    arrow_tgt: tuple[int, ...]
    after: tuple[tuple[int, ...], ...]
    identities: tuple[int, ...]
    epis: frozenset[int]
    monos: frozenset[int]

    @property
    def arrow_count(self) -> int:
        return len(self.arrow_names)

    @filled_once
    def out(self) -> tuple[tuple[int, ...], ...]:
        """The arrows out of each object, in index order."""
        out: list[list[int]] = [[] for _ in self.objects]
        for g, i in enumerate(self.arrow_src):
            out[i].append(g)
        return tuple(map(tuple, out))

    @filled_once
    def rank(self) -> tuple[int, ...]:
        """Each arrow's position among the arrows out of its source."""
        rank = [0] * self.arrow_count
        for arrows in self.out:
            for k, g in enumerate(arrows):
                rank[g] = k
        return tuple(rank)

    def then(self, f: int, g: int) -> int:
        """f then g, for tgt(f) = src(g)."""
        return self.after[f][self.rank[g]]

    @filled_once
    def fingerprint(self) -> MoritaFingerprint:
        """The Morita fingerprint (morita_fingerprint), computed on first read."""
        return _fingerprint(self)

    def __repr__(self) -> str:
        return f"FiniteCategory({len(self.objects)} objects, {self.arrow_count} arrows)"


def validate_category(cat: FiniteCategory) -> FiniteCategory:
    """Check the category law by law, raising BadCategory at the first
    failure: the shape of the data (list lengths, endpoints among the
    objects, identities and composites among the arrows, each an int, one
    composite per arrow out of each arrow's target), the identities'
    endpoints, the composites' endpoints, the unit laws, and associativity
    over the composable triples in (f, g, h) order."""
    src, tgt, after = cat.arrow_src, cat.arrow_tgt, cat.after
    count, objects = cat.arrow_count, len(cat.objects)
    if len(src) != count or len(tgt) != count or len(cat.identities) != objects:
        raise BadCategory("each arrow needs a source and a target, each object an identity")
    for f in range(count):
        if not (_is_index(src[f], objects) and _is_index(tgt[f], objects)):
            raise BadCategory(f"arrow {f} has an endpoint that is not an object")
    for i, ident in enumerate(cat.identities):
        if not _is_index(ident, count):
            raise BadCategory(f"identity of object {i} is not an arrow")
        if src[ident] != i or tgt[ident] != i:
            raise BadCategory(f"identity of object {i} has wrong endpoints")
    out = cat.out
    if len(after) != count or any(len(row) != len(out[j]) for row, j in zip(after, tgt)):
        raise BadCategory("each arrow needs one composite per arrow out of its target")
    for f in range(count):
        for g, h in zip(out[tgt[f]], after[f]):
            if not _is_index(h, count):
                raise BadCategory(f"composite of arrows {f} and {g} is not an arrow")
            if src[h] != src[f] or tgt[h] != tgt[g]:
                raise BadCategory("composite has wrong endpoints")
    for f in range(count):
        if cat.then(cat.identities[src[f]], f) != f:
            raise BadCategory(f"left unit law fails at arrow {f}")
        if cat.then(f, cat.identities[tgt[f]]) != f:
            raise BadCategory(f"right unit law fails at arrow {f}")
    for f in range(count):
        for g, fg in zip(out[tgt[f]], after[f]):
            for h, gh, fg_h in zip(out[tgt[g]], after[g], after[fg]):
                if fg_h != cat.then(f, gh):
                    raise BadCategory(f"associativity fails at ({f}, {g}, {h})")
    return cat


def _is_index(value: object, size: int) -> bool:
    return isinstance(value, int) and 0 <= value < size


# A site stores one composite per composable pair of arrows; sites past
# this many arrows stop with CapExceeded before any composite is stored.
MAX_SITE_ARROWS = 4096


def principal_site(monoid: FiniteMonoid, flt: CongruenceFilter) -> FiniteCategory:
    """The filter's principal site, built once per lattice of members and
    stored on it (CongruenceLattice.site); a filter over another monoid is
    a TopactError."""
    if flt.monoid is not monoid and flt.monoid != monoid:
        raise TopactError(f"the filter is over another monoid (order {flt.monoid.order}) "
                          f"than the site's (order {monoid.order})")
    members = flt.members
    site = members.site
    if site is None:
        site = members.site = _build_site(monoid, members)
    return site


def _build_site(monoid: FiniteMonoid, members: Sequence[RightCongruence]) -> FiniteCategory:
    """The category with the congruences as objects and classes [m] as
    arrows, by source r_i, then target r_j, then the r_j-class c of
    m, the least of its class.  [m] is an arrow when r_i ⊆ m*(r_j): x ↦
    r_j-class of m·x is constant on r_i-classes.  One pass over the carrier
    decides this and builds the class map, stopping at the first x whose
    r_i-class already has another image; the arrow is recorded, and marked
    epi or mono from the size of its image, as it is found.

    [m]: r_i → r_j composed with [n]: r_j → r_k is [n·m], whose r_k-class
    is the class map of [n] at the r_j-class of m; the arrows out of r_j
    are listed together, in index order, so these are the arrow's after row.
    """
    table, names = monoid.table, monoid.elements
    bracketed = [f"[{name}]" for name in names]  # one string per element, shared by its arrows
    # the r_k-class c is at slot offset[k] + c of the lookup lists, one per
    # source, and the class maps write each class as its slot
    classes, labels, slot_of, offset = [], [], [], [0]
    for r in members:
        cls = r.classes()
        classes.append(cls)
        labels.append("|".join([",".join(map(names.__getitem__, c)) for c in cls]))
        slot_of.append([offset[-1] + c for c in r.class_of])
        offset.append(offset[-1] + len(cls))
    # per arrow [m]: r_i → r_j of class c: its name, i, j, slot and class map
    arrow_names, src, tgt, slot, cmaps = [], [], [], [], []
    epis, monos, lookup, identities = [], [], [], []
    start = [0]  # the arrows out of r_i are start[i], ..., start[i + 1] - 1
    for i, ri in enumerate(members):
        cls_i, size = ri.class_of, len(classes[i])
        found = [-1] * offset[-1]
        for j, cls_j in enumerate(slot_of):
            base, size_j = offset[j], len(classes[j])
            for c, cls in enumerate(classes[j]):
                m = cls[0]
                cmap = [-1] * size
                for a, y in zip(cls_i, table[m]):
                    v = cls_j[y]
                    w = cmap[a]
                    if w < 0:
                        cmap[a] = v
                    elif w != v:
                        break
                else:
                    f = len(src)
                    if f == MAX_SITE_ARROWS:
                        raise CapExceeded("principal-site arrows", f + 1)
                    found[base + c] = f
                    arrow_names.append(bracketed[m])
                    src.append(i)
                    tgt.append(j)
                    slot.append(base + c)
                    cmaps.append(cmap)
                    image = len(set(cmap))
                    if image == size_j:
                        epis.append(f)
                    if image == size:
                        monos.append(f)
        lookup.append(found)
        identities.append(found[offset[i] + cls_i[monoid.identity]])
        start.append(len(src))
    # through[offset[j] + c]: for each [n] out of r_j, the slot of n·m for m in c
    through: list[tuple[int, ...]] = []
    for j in range(len(members)):
        through.extend(zip(*cmaps[start[j]:start[j + 1]]))
    return FiniteCategory(
        objects=tuple(labels),
        arrow_names=tuple(arrow_names),
        arrow_src=tuple(src),
        arrow_tgt=tuple(tgt),
        after=tuple(tuple(map(lookup[i].__getitem__, through[p])) for i, p in zip(src, slot)),
        identities=tuple(identities),
        epis=frozenset(epis),
        monos=frozenset(monos),
    )


def make_category(objects: Sequence[str],
                  arrows: Sequence[tuple[str, int, int]],
                  compose: Callable[[int, int], int],
                  identities: Sequence[int],
                  epis: Sequence[int],
                  monos: Sequence[int] = ()) -> FiniteCategory:
    """Assemble and validate a hand-built category; compose(f, g) is
    "f then g" on arrow indices, called on the composable pairs only."""
    out: dict[int, list[int]] = {}
    for g, (_, i, _) in enumerate(arrows):
        out.setdefault(i, []).append(g)
    cat = FiniteCategory(
        objects=tuple(objects),
        arrow_names=tuple(a[0] for a in arrows),
        arrow_src=tuple(a[1] for a in arrows),
        arrow_tgt=tuple(a[2] for a in arrows),
        after=tuple(tuple(compose(f, g) for g in out.get(j, ()))
                    for f, (_, _, j) in enumerate(arrows)),
        identities=tuple(identities),
        epis=frozenset(epis),
        monos=frozenset(monos),
    )
    return validate_category(cat)


def _hom_counts(cat: FiniteCategory) -> list[list[int]]:
    """One pass over the arrows: the (hom, epi, mono) counts of every ordered
    pair of objects (i, j), at position i·k + j for k objects."""
    k = len(cat.objects)
    counts = [[0, 0, 0] for _ in range(k * k)]
    for f, (i, j) in enumerate(zip(cat.arrow_src, cat.arrow_tgt)):
        count = counts[i * k + j]
        count[0] += 1
        count[1] += f in cat.epis
        count[2] += f in cat.monos
    return counts


def _iso_representatives(cat: FiniteCategory) -> list[int]:
    """The least object of each iso class, in order: j is one when no i < j
    has f: i → j and g: j → i, read from f's after row, composing to both
    identities.  Every pair is tested, so no transitive step is needed."""
    out, tgt, ident = cat.out, cat.arrow_tgt, cat.identities
    above: set[int] = set()
    for i, arrows in enumerate(out):
        for f in arrows:
            j = tgt[f]
            if i < j and j not in above and any(
                    tgt[g] == i and fg == ident[i] and cat.then(g, f) == ident[j]
                    for g, fg in zip(out[j], cat.after[f])):
                above.add(j)
    return [i for i in range(len(cat.objects)) if i not in above]


@dataclass(frozen=True)
class MoritaFingerprint:
    """Relabeling-invariant necessary condition for equivalence: iso-class
    count, canonical (hom, epi, mono)-cardinality matrix, terminal flag."""

    object_count: int
    matrix: tuple[tuple[tuple[int, int, int], ...], ...]
    has_terminal: bool


def morita_fingerprint(cat: FiniteCategory) -> MoritaFingerprint:
    """The (hom, epi, mono) counts between the least objects of the iso
    classes, in the least order among those sorting them by profile;
    computed once per category and stored on it."""
    return cat.fingerprint


def _fingerprint(cat: FiniteCategory) -> MoritaFingerprint:
    counts = _hom_counts(cat)
    k = len(cat.objects)
    reps = _iso_representatives(cat)
    raw = [[tuple(counts[a * k + b]) for b in reps] for a in reps]
    profile = [(row[i], sorted(row), sorted([r[i] for r in raw])) for i, row in enumerate(raw)]
    # the least matrix over the orders sorting the objects by profile (still a
    # relabeling invariant), row by row: placing a next fixes its least row, the
    # entries at the placed positions, raw[a][a], then each remaining cell split
    # by a's entries, ascending; only the candidates with the least row go on,
    # and a branch past the best matrix's prefix is cut
    best, stack = [], [([], [], _split([range(len(raw))], profile.__getitem__))]
    while stack:
        rows, placed, cells = stack.pop()
        if best and rows > best[:len(rows)]:
            continue
        if not cells:
            best = rows
            continue
        options = []
        for a in cells[0]:
            split = _split([[b for b in cells[0] if b != a]] + cells[1:], raw[a].__getitem__)
            order = placed + [a] + [b for cell in split for b in cell]
            options.append((tuple(map(raw[a].__getitem__, order)), a, split))
        least = min(options)[0]
        stack += [(rows + [row], placed + [a], split) for row, a, split in options if row == least]
    # an object is terminal when its sorted column starts and ends with one arrow
    has_terminal = any(column[0][0] == column[-1][0] == 1 for _, _, column in profile)
    return MoritaFingerprint(len(raw), tuple(best), has_terminal)


def _split(cells: list, key: Callable) -> list[list[int]]:
    """Each cell cut into runs of equal key, in ascending order of key."""
    return [list(g) for cell in cells for _, g in itertools.groupby(sorted(cell, key=key), key)]


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
    if (len(s1.objects) > MAX_ISO_CLASSES
            or max((count[0] for count in _hom_counts(s1)), default=0) > MAX_HOM_SET):
        return EquivalenceVerdict("unknown", "beyond search caps")
    witness = _find_isomorphism(s1, s2)
    if witness is None:
        return EquivalenceVerdict("no", "no skeleton isomorphism")
    obj_map, arrow_map = witness
    return EquivalenceVerdict("yes", "skeleton isomorphism found",
                              tuple(o2[obj_map[i]] for i in range(len(obj_map))),
                              arrow_map)


def _skeleton(cat: FiniteCategory) -> tuple[FiniteCategory, tuple[int, ...]]:
    """Full subcategory on one object per iso class."""
    reps = tuple(_iso_representatives(cat))
    keep = [f for f in range(cat.arrow_count)
            if cat.arrow_src[f] in reps and cat.arrow_tgt[f] in reps]
    arrow_pos = {f: i for i, f in enumerate(keep)}
    obj_pos = {o: i for i, o in enumerate(reps)}
    sk = FiniteCategory(
        objects=tuple(cat.objects[o] for o in reps),
        arrow_names=tuple(cat.arrow_names[f] for f in keep),
        arrow_src=tuple(obj_pos[cat.arrow_src[f]] for f in keep),
        arrow_tgt=tuple(obj_pos[cat.arrow_tgt[f]] for f in keep),
        after=tuple(tuple(arrow_pos[h] for g, h in zip(cat.out[cat.arrow_tgt[f]], cat.after[f])
                          if g in arrow_pos) for f in keep),
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
    counts1, counts2 = _hom_counts(c1), _hom_counts(c2)
    for obj_map in itertools.permutations(range(k)):
        if any(counts1[i * k + j] != counts2[obj_map[i] * k + obj_map[j]]
               for i in range(k) for j in range(k)):
            continue
        arrow_map = _match_arrows(c1, c2, obj_map)
        if arrow_map is not None:
            return obj_map, arrow_map
    return None


def _match_arrows(c1: FiniteCategory, c2: FiniteCategory,
                  obj_map: Sequence[int]) -> Optional[tuple[int, ...]]:
    """The lexicographically least arrow bijection that follows obj_map,
    keeps epis, monos and identities, and is a functor.  Arrows are assigned
    in index order, and each composite (f, g, f then g) is checked once,
    when the last of its three arrows is assigned (as catalog.all_monoids
    checks a triple once its last product is placed), so every full
    assignment is a functor."""
    count = c1.arrow_count
    # last[k]: the composites (f, g, f then g) whose greatest arrow is k
    last: list[list[tuple[int, int, int]]] = [[] for _ in range(count)]
    for f, (j, row) in enumerate(zip(c1.arrow_tgt, c1.after)):
        for g, h in zip(c1.out[j], row):
            last[max(f, g, h)].append((f, g, h))
    assignment: list[int] = []

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
        return True

    used: set[int] = set()

    def search(f: int) -> bool:
        if f == count:
            return True
        for image in range(c2.arrow_count):
            if image in used or not consistent(f, image):
                continue
            assignment.append(image)
            if all(c2.then(assignment[a], assignment[b]) == assignment[h]
                   for a, b, h in last[f]):
                used.add(image)
                if search(f + 1):
                    return True
                used.discard(image)
            assignment.pop()
        return False

    return tuple(assignment) if search(0) else None


def joint_covering(cat: FiniteCategory) -> bool:
    """Every pair of objects admits a common source of marked epis."""
    k = len(cat.objects)
    covers = [[False] * k for _ in range(k)]
    for f in cat.epis:
        covers[cat.arrow_src[f]][cat.arrow_tgt[f]] = True
    for a in range(k):
        for b in range(k):
            if not any(covers[n][a] and covers[n][b] for n in range(k)):
                return False
    return True


def strict_joint_covering(cat: FiniteCategory) -> bool:
    """Joint covering by strict epis, taken to be the marked epis."""
    return joint_covering(cat)


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
    n, table, columns = monoid.order, monoid.table, monoid.columns
    out = []
    for a in range(n):
        seen: dict[int, int] = {}
        power, k = a, 1
        while power not in seen:
            seen[power] = k
            power, k = table[power][a], k + 1
        out.append((table[a][a] == a, seen[power], k - seen[power],
                    len(set(table[a])), len(set(columns[a]))))
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
    # monoids_isomorphic's map is a multiplicative bijection with 1 ↦ 1
    return None if phi is None else SemigroupHom(q1, q2, phi, True)
