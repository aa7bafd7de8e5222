"""Principal-site categories of congruence filters, Morita fingerprints and
small-scale equivalence search, joint-covering and atomicity checkers, and
the tail/cycle classification of monogenic actions.

Arrows of a principal site are congruence classes [m]: r1 -> r2 with
r1 ⊆ m*(r2); the underlying map of classes sends [x] to [mx], so composing
[m] then [n] yields [n·m].  Epis are the class-surjective arrows; the
strict joint-covering check takes them as the strict epis too, which the
engine does not verify.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .congruences import CongruenceFilter, RightCongruence, hom_classes
from .errors import InternalCheckError, TopactError
from .monoid import FiniteMonoid
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

    def compose(self, f: int, g: int) -> int:
        """f then g."""
        out = self.compose_table[f][g]
        if out < 0:
            raise BadCategory("arrows are not composable")
        return out

    def __repr__(self) -> str:
        return f"FiniteCategory({len(self.objects)} objects, {self.arrow_count} arrows)"


def validate_category(cat: FiniteCategory) -> FiniteCategory:
    """Check the identities' endpoints, the composition table against
    composability and endpoints, the unit laws and associativity, raising
    BadCategory at the first failure in (f, g, h) order.

    Arrows are indexed by source object: the arrows composable after f are
    out[tgt(f)], so a row of the table is checked by counting its -1
    entries, and the associativity loop visits only composable pairs and
    triples, comparing the entries for all h after g at once.
    """
    src, tgt, table = cat.arrow_src, cat.arrow_tgt, cat.compose_table
    for i, ident in enumerate(cat.identities):
        if src[ident] != i or tgt[ident] != i:
            raise BadCategory(f"identity of object {i} has wrong endpoints")
    count = cat.arrow_count
    out: dict[int, list[int]] = {}
    for g in range(count):
        out.setdefault(src[g], []).append(g)
    for f in range(count):
        row, after = table[f], out.get(tgt[f], [])
        if (row.count(-1) != count - len(after)
                or any(row[g] < 0 for g in after)):
            _check_row_composability(cat, f)
        for g in after:
            h = row[g]
            if src[h] != src[f] or tgt[h] != tgt[g]:
                raise BadCategory("composite has wrong endpoints")
    for f in range(count):
        if table[cat.identities[src[f]]][f] != f:
            raise BadCategory(f"left unit law fails at arrow {f}")
        if table[f][cat.identities[tgt[f]]] != f:
            raise BadCategory(f"right unit law fails at arrow {f}")
    # f;(g;h) for every h after g is row f gathered at g's row segment, and
    # (f;g);h is row f;g taken at the same positions
    take = {o: operator.itemgetter(*hs) for o, hs in out.items()}
    gather = [operator.itemgetter(*[table[g][h] for h in out[tgt[g]]])
              for g in range(count)]
    for f in range(count):
        row_f = table[f]
        for g in out.get(tgt[f], []):
            if take[tgt[g]](table[row_f[g]]) != gather[g](row_f):
                row_fg, row_g = table[row_f[g]], table[g]
                for h in out[tgt[g]]:
                    if row_fg[h] != row_f[row_g[h]]:
                        raise BadCategory(f"associativity fails at ({f}, {g}, {h})")
    return cat


def _check_row_composability(cat: FiniteCategory, f: int) -> None:
    """The entry-by-entry check of row f, for a row whose -1 count is off."""
    for g in range(cat.arrow_count):
        composable = cat.arrow_tgt[f] == cat.arrow_src[g]
        h = cat.compose_table[f][g]
        if composable != (h >= 0):
            raise BadCategory("composition table disagrees with composability")
        if h >= 0 and (cat.arrow_src[h] != cat.arrow_src[f]
                       or cat.arrow_tgt[h] != cat.arrow_tgt[g]):
            raise BadCategory("composite has wrong endpoints")


def principal_site(monoid: FiniteMonoid, flt: CongruenceFilter) -> FiniteCategory:
    """The category with the filter's congruences as objects and classes
    [m] as arrows; epis/monos are marked from the underlying class maps."""
    members = flt.members
    arrows: list[tuple[int, int, int]] = []  # (src_obj, tgt_obj, representative)
    for i, r1 in enumerate(members):
        for j, r2 in enumerate(members):
            for m in hom_classes(flt, r1, r2):
                arrows.append((i, j, m))
    lookup = {(i, j, members[j].class_of[m]): idx
              for idx, (i, j, m) in enumerate(arrows)}

    def class_map(i: int, j: int, m: int) -> tuple[int, ...]:
        r1, r2 = members[i], members[j]
        return tuple(r2.class_of[monoid.table[m][rep]] for rep in r1.representatives())

    out: dict[int, list[int]] = {}
    for g, (j, _, _) in enumerate(arrows):
        out.setdefault(j, []).append(g)
    compose = []
    for f, (i, j, m) in enumerate(arrows):
        row = [-1] * len(arrows)
        for g in out[j]:
            _, k, n2 = arrows[g]
            row[g] = lookup[(i, k, members[k].class_of[monoid.table[n2][m]])]
        compose.append(tuple(row))
    identities = []
    for i in range(len(members)):
        identities.append(lookup[(i, i, members[i].class_of[monoid.identity])])
    epis, monos = set(), set()
    for idx, (i, j, m) in enumerate(arrows):
        cmap = class_map(i, j, m)
        if len(set(cmap)) == members[j].num_classes:
            epis.add(idx)
        if len(set(cmap)) == len(cmap):
            monos.add(idx)
    cat = FiniteCategory(
        objects=tuple(r.label() for r in members),
        arrow_names=tuple(f"[{monoid.elements[m]}]" for (_, _, m) in arrows),
        arrow_src=tuple(a[0] for a in arrows),
        arrow_tgt=tuple(a[1] for a in arrows),
        compose_table=tuple(compose),
        identities=tuple(identities),
        epis=frozenset(epis),
        monos=frozenset(monos),
    )
    return validate_category(cat)


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
        if i in seen:
            continue
        cls = sorted(_reach(iso, i))
        seen.update(cls)
        classes.append(cls)
    return classes


def _reach(adj: dict[int, set[int]], start: int) -> set[int]:
    out = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in out:
                    out.add(y)
                    nxt.append(y)
        frontier = nxt
    return out


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


def categories_equivalent(c1: FiniteCategory, c2: FiniteCategory,
                          max_classes: int = MAX_ISO_CLASSES,
                          max_hom: int = MAX_HOM_SET) -> EquivalenceVerdict:
    """Fingerprint mismatch is a sound "no"; otherwise search for an
    isomorphism of skeletons, which for finite categories witnesses an
    equivalence.  Beyond the caps the verdict is an honest "unknown"."""
    f1, f2 = morita_fingerprint(c1), morita_fingerprint(c2)
    if f1 != f2:
        return EquivalenceVerdict("no", "fingerprints differ")
    s1, o1 = _skeleton(c1)
    s2, o2 = _skeleton(c2)
    if len(s1.objects) > max_classes or _max_hom(s1) > max_hom:
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


def relabeled_category(cat: FiniteCategory, rng: random.Random) -> FiniteCategory:
    """Shuffle object and arrow indexing; the fingerprint must not move."""
    k = len(cat.objects)
    obj_perm = list(range(k))
    rng.shuffle(obj_perm)
    arrow_perm = list(range(cat.arrow_count))
    rng.shuffle(arrow_perm)
    inv = [0] * cat.arrow_count
    for new, old in enumerate(arrow_perm):
        inv[old] = new
    table = [[-1] * cat.arrow_count for _ in range(cat.arrow_count)]
    for f in range(cat.arrow_count):
        for g in range(cat.arrow_count):
            h = cat.compose_table[f][g]
            table[inv[f]][inv[g]] = inv[h] if h >= 0 else -1
    return FiniteCategory(
        objects=tuple(cat.objects[obj_perm.index(i)] for i in range(k)),
        arrow_names=tuple(cat.arrow_names[arrow_perm[i]] for i in range(cat.arrow_count)),
        arrow_src=tuple(obj_perm[cat.arrow_src[arrow_perm[i]]] for i in range(cat.arrow_count)),
        arrow_tgt=tuple(obj_perm[cat.arrow_tgt[arrow_perm[i]]] for i in range(cat.arrow_count)),
        compose_table=tuple(tuple(row) for row in table),
        identities=tuple(inv[cat.identities[obj_perm.index(i)]] for i in range(k)),
        epis=frozenset(inv[f] for f in cat.epis),
        monos=frozenset(inv[f] for f in cat.monos),
    )


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
    """Quantifier form: every m is right-invertible up to every filter
    congruence.  Cross-checked against "all site arrows are epimorphisms"."""
    verdict, witness = True, None
    for r in flt.members:
        one = r.class_of[monoid.identity]
        for m in range(monoid.order):
            if not any(r.class_of[monoid.table[m][m2]] == one
                       for m2 in range(monoid.order)):
                verdict, witness = False, (r, m)
                break
        if not verdict:
            break
    site = principal_site(monoid, flt)
    all_epi = len(site.epis) == site.arrow_count
    if all_epi != verdict:
        raise InternalCheckError("atomicity conditions 1 and 4 disagree")
    return verdict, witness


def dense_units(monoid: FiniteMonoid, topology: Topology) -> bool:
    """Units of the completion meet every non-empty open; must agree with
    the atomicity of the open-congruence filter."""
    from .completion import complete
    from .congruences import open_congruences
    from .monoid import unit_indices
    flt = open_congruences(monoid, topology)
    cpl = complete(monoid, flt)
    dense = cpl.topology.is_dense(mask_of(unit_indices(cpl.monoid)))
    if dense != is_atomic(monoid, flt)[0]:
        raise InternalCheckError("atomicity conditions 3 and 4 disagree")
    return dense


def zero_fixed_point_check(monoid: FiniteMonoid, flt: CongruenceFilter) -> bool:
    """With a zero element, every filter quotient must have exactly one
    point fixed by the whole monoid."""
    from .monoid import zero_element
    from .actions import quotient_mset
    if zero_element(monoid) is None:
        raise NoZeroElement("monoid has no zero element")
    for r in flt.members:
        q = quotient_mset(monoid, r)
        fixed = [x for x in range(q.size)
                 if all(q.act[x][m] == x for m in range(monoid.order))]
        if len(fixed) != 1:
            return False
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
    """Epi/mono existence between monogenic orbits by tail/cycle arithmetic,
    hard-checked against the explicit equivariant-map search."""
    (a, b), (a2, b2) = shape1, shape2
    flags = MonogenicHomFlags(epi_exists=(a2 <= a and b % b2 == 0),
                              mono_exists=(a <= a2 and b == b2))
    brute = monogenic_homs_bruteforce(shape1, shape2)
    if flags != brute:
        raise InternalCheckError(
            f"monogenic arithmetic disagrees with map search at {shape1}->{shape2}")
    return flags


def monogenic_homs_bruteforce(shape1: tuple[int, int], shape2: tuple[int, int]
                              ) -> MonogenicHomFlags:
    """Independent oracle: a map commuting with the successor is determined
    by the image of 0; try them all."""
    f1, f2 = monogenic_orbit(*shape1), monogenic_orbit(*shape2)
    epi = mono = False
    for y0 in range(len(f2)):
        g: dict[int, int] = {}
        p, q, ok = 0, y0, True
        for _ in range(len(f1) + len(f2) + 2):
            if p in g and g[p] != q:
                ok = False
                break
            g[p] = q
            p, q = f1[p], f2[q]
        if not ok or len(g) != len(f1):
            continue
        values = set(g.values())
        if len(values) == len(f2):
            epi = True
        if len(values) == len(f1):
            mono = True
    return MonogenicHomFlags(epi, mono)


def monoids_isomorphic(m1: FiniteMonoid, m2: FiniteMonoid
                       ) -> Optional[tuple[int, ...]]:
    """Exhaustive isomorphism search; identity must map to identity."""
    n = m1.order
    if n != m2.order:
        return None
    rest1 = [a for a in range(n) if a != m1.identity]
    rest2 = [a for a in range(n) if a != m2.identity]
    for images in itertools.permutations(rest2):
        phi = {m1.identity: m2.identity}
        phi.update(zip(rest1, images))
        if all(phi[m1.table[a][b]] == m2.table[phi[a]][phi[b]]
               for a in range(n) for b in range(n)):
            return tuple(phi[a] for a in range(n))
    return None
