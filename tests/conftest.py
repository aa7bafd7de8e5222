import itertools
import json

import pytest
from hypothesis import assume, settings
from hypothesis import strategies as st

from topact.catalog import (MAX_ENUM_ORDER, _canonical_table, cyclic, left_zeros,
                            left_zero_split_topology, right_zeros, truncated_addition,
                            trivial_monoid, two_idempotents)
from topact.actions import orbit_congruence, power_of_m, quotient_mset
from topact.completion import (Completion, PullbackOutsideFilter, complete,
                               dense_closed_factorization, pullback_congruence)
from topact.congruences import (congruence_from_class_map,
                                enumerate_congruences, inverse_image_congruence, leq,
                                validate_filter)
from topact.errors import CapExceeded, TopactError
from topact.files import monoid_to_obj
from topact.invariants import MonogenicHomFlags, monogenic_orbit
from topact.monoid import (BadShape, FiniteMonoid, NoIdentity, NonAssociative,
                           first_nonassociative, validate_hom, validate_monoid)
from topact.reflections import continuous_subsets
from topact.topology import Topology, generate_topology, is_locally_constant, subspace_topology
from topact.util import bits, mask_of

# every run draws the same examples (each test's own max_examples still
# applies), so the suite's wall time does not swing with fresh draws or
# with what a checkout's example database holds
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture
def c2():
    return cyclic(2)


@pytest.fixture
def c4():
    return cyclic(4)


@pytest.fixture
def m_lz():
    return left_zeros()


@pytest.fixture
def m_rz():
    return right_zeros()


@pytest.fixture
def n2():
    return truncated_addition(2)


@pytest.fixture
def b2():
    return two_idempotents()


@pytest.fixture
def one():
    return trivial_monoid()


@pytest.fixture
def tau_a():
    return left_zero_split_topology()


class NotInFilter(TopactError):
    pass


def validate_monoid_by_triples(elements, table, identity):
    """Oracle for validate_monoid: the same shape and identity checks, then
    (a·b)·c = a·(b·c) for every triple in index order."""
    names = tuple(elements)
    n = len(names)
    if len(set(names)) != n:
        raise BadShape("element names are not unique")
    if len(table) != n:
        raise BadShape(f"table has {len(table)} rows for {n} elements")
    for i, row in enumerate(table):
        if len(row) != n:
            raise BadShape(f"row {i} has length {len(row)}, expected {n}")
        for v in row:
            if not (0 <= v < n):
                raise BadShape(f"entry {v} in row {i} out of range")
    tab = tuple(tuple(row) for row in table)
    if not (0 <= identity < n):
        raise BadShape(f"identity index {identity} out of range")
    for a in range(n):
        if tab[identity][a] != a or tab[a][identity] != a:
            raise NoIdentity(f"element {identity} is not neutral at {a}")
    for a in range(n):
        for b in range(n):
            ab = tab[a][b]
            row_ab = tab[ab]
            row_b = tab[b]
            for c in range(n):
                if row_ab[c] != tab[a][row_b[c]]:
                    raise NonAssociative(a, b, c)
    return FiniteMonoid(names, tab, identity)


def all_monoids_by_product(order):
    """Oracle for catalog.all_monoids: every identity-at-0 table from one
    product over the free entries, kept when the full triple scan finds it
    associative and it is the first of its isomorphism class."""
    if order > MAX_ENUM_ORDER:
        raise CapExceeded("monoid enumeration order", order)
    names = ("1", "a", "b", "c")[:order]
    if order == 1:
        return (validate_monoid(names, [[0]], 0),)
    free = order - 1
    seen: set[tuple[tuple[int, ...], ...]] = set()
    out = []
    for values in itertools.product(range(order), repeat=free * free):
        table = [[0] * order for _ in range(order)]
        for a in range(order):
            table[0][a] = a
            table[a][0] = a
        for i in range(free):
            for j in range(free):
                table[i + 1][j + 1] = values[i * free + j]
        if first_nonassociative(table) is not None:
            continue
        canon = _canonical_table(table, order)
        if canon in seen:
            continue
        seen.add(canon)
        out.append(FiniteMonoid(names, tuple(tuple(r) for r in table), 0))
    return tuple(out)


def join(r1, r2):
    """Partition join of two right congruences, by union-find; right
    stability is inherited, so no closure under translates is needed."""
    parent = list(range(len(r1.class_of)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for cong in (r1, r2):
        for cls in cong.classes():
            for b in cls[1:]:
                ra, rb = find(cls[0]), find(b)
                if ra != rb:
                    parent[rb] = ra
    return congruence_from_class_map(r1.monoid, [find(x) for x in range(len(parent))])


def relation_mask(r):
    """The relation of a right congruence as a subset of M x M, row-major:
    row a is a's class."""
    n = len(r.class_of)
    blocks = [0] * r.num_classes
    for m, c in enumerate(r.class_of):
        blocks[c] |= 1 << m
    return sum(blocks[c] << a * n for a, c in enumerate(r.class_of))


def zero_fixed_point_by_scan(monoid, flt):
    """Oracle for zero_fixed_point_check on a monoid with a zero: every
    member's quotient has exactly one point fixed by the whole monoid."""
    for r in flt.members:
        q = quotient_mset(monoid, r)
        fixed = [x for x in range(q.size)
                 if all(q.act[x][m] == x for m in range(monoid.order))]
        if len(fixed) != 1:
            return False
    return True


def hom_classes(flt, r1, r2):
    """Representatives of the r2-classes [m] with r1 ⊆ m*(r2); these are the
    arrows r1 → r2 of the filter's category, one inverse-image congruence
    and one containment test per candidate."""
    if r1 not in flt or r2 not in flt:
        raise NotInFilter("both congruences must belong to the filter")
    out = []
    for m in r2.representatives():
        if leq(r1, inverse_image_congruence(flt.monoid, m, r2)):
            out.append(m)
    return tuple(out)


def class_projection(fine, coarse):
    """For fine ⊆ coarse, the induced map on class ids."""
    out = [-1] * fine.num_classes
    for m in range(len(fine.class_of)):
        out[fine.class_of[m]] = coarse.class_of[m]
    return tuple(out)


def limit_tuples(flt):
    """All compatibility-respecting choices of one class per member."""
    members = flt.members
    constraints = []
    for i, r in enumerate(members):
        for j, s in enumerate(members):
            if i != j and leq(r, s):
                constraints.append((i, j, class_projection(r, s)))
    tuples = [()]
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


def tuple_limit_completion(monoid, flt):
    """Oracle for complete: the limit of the quotients M/r over the members r
    of the filter, carried by the compatible class tuples.  The product
    (ta·tb) has coordinate [a·b] at r, for a in the class ta[r] and b in the
    class tb[s] at s = a*(r), which equivariance keeps in the filter.  The
    tuples are ordered by their coordinate at the least member, each named
    after that class's least element, and the topology is spanned by the
    fibres of all coordinates.  Returns the completion and its tuples."""
    members = flt.members
    index_of = {r: i for i, r in enumerate(members)}
    k0 = index_of[flt.least]
    reps = [r.representatives() for r in members]
    tuples = sorted(limit_tuples(flt), key=lambda t: t[k0])
    assert [t[k0] for t in tuples] == list(range(flt.least.num_classes))
    pos = {t: i for i, t in enumerate(tuples)}

    def mul_tuple(ta, tb):
        out = []
        for i, r in enumerate(members):
            a = reps[i][ta[i]]
            js = index_of[inverse_image_congruence(monoid, a, r)]
            b = reps[js][tb[js]]
            out.append(r.class_of[monoid.table[a][b]])
        return pos[tuple(out)]

    table = [[mul_tuple(ta, tb) for tb in tuples] for ta in tuples]
    names = [f"[{monoid.elements[reps[k0][t[k0]]]}]" for t in tuples]
    coords = [pos[tuple(r.class_of[m] for r in members)] for m in range(monoid.order)]
    limit = validate_monoid(names, table, coords[monoid.identity])
    fibres = [mask_of(j for j, t in enumerate(tuples) if t[i] == c)
              for i, r in enumerate(members) for c in range(r.num_classes)]
    rho = generate_topology(len(tuples), fibres)
    return Completion(limit, rho, validate_hom(monoid, limit, coords)), tuples


def assert_completion_matches_oracle(completion, monoid, flt):
    """complete(monoid, flt) equals the tuple limit field by field."""
    expected, _ = tuple_limit_completion(monoid, flt)
    assert completion.monoid.elements == expected.monoid.elements
    assert completion.monoid.table == expected.monoid.table
    assert completion.monoid.identity == expected.monoid.identity
    assert completion.comparison.map == expected.comparison.map
    assert completion.topology == expected.topology
    assert completion == expected


def assert_dense_closed_factorization(hom, tau_src, tau_tgt):
    """dense_closed_factorization with the facts it does not check itself:
    the closure of the image in the target's action topology is a
    subsemigroup, and the first factor is a semigroup hom whose image is
    dense in it."""
    first, second = dense_closed_factorization(hom, tau_src, tau_tgt)
    tgt = hom.target
    tilde = continuous_subsets(tgt, tau_tgt).topology
    closure = tilde.closure(mask_of(hom.map))
    assert all(closure >> tgt.table[a][b] & 1 for a in bits(closure) for b in bits(closure))
    assert validate_hom(hom.source, first.target, first.map) == first
    assert subspace_topology(tilde, closure).is_dense(mask_of(first.map))
    return first, second


def monogenic_homs_bruteforce(shape1, shape2):
    """Oracle for monogenic_homs: a map commuting with the successor is
    determined by the image of 0; try them all."""
    f1, f2 = monogenic_orbit(*shape1), monogenic_orbit(*shape2)
    epi = mono = False
    for y0 in range(len(f2)):
        g = {}
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


def open_congruences_by_scan(monoid, topology):
    """Oracle for open_congruences: the lattice members r for which
    m ↦ r.class_of[q·m] is locally constant for every q."""
    members = [r for r in enumerate_congruences(monoid)
               if all(is_locally_constant([r.class_of[t] for t in row], topology)
                      for row in monoid.table)]
    return validate_filter(monoid, members)


def extend_hom_by_members(phi, f_src, f_tgt):
    """Oracle for extend_hom: pull back every member of the target filter,
    raising PullbackOutsideFilter at the first that leaves the source
    filter's members, then send the class [a] of the source's least member
    to the class of phi(a) in the target's."""
    src_members = set(f_src.members)
    for r in f_tgt.members:
        if pullback_congruence(phi, r) not in src_members:
            raise PullbackOutsideFilter(r)
    tgt = complete(phi.target, f_tgt)
    return tuple(tgt.comparison.map[phi.map[a]] for a in f_src.least.representatives())


def induced_topology_by_powerset(monoid, flt):
    """Oracle for induced_topology_from_filter: the topology generated by the
    subsets of the carrier all of whose translated orbit congruences in the
    powerset action are members of the filter."""
    power = power_of_m(monoid)
    members = set(flt.members)
    kept = [a for a in range(1 << monoid.order)
            if all(orbit_congruence(power, power.act[a][q]) in members
                   for q in range(monoid.order))]
    return generate_topology(monoid.order, kept)


def atom_image_congruence(monoid, r, p):
    """Kernel of the atom map [q] ↦ q*(class of p) out of M/r into the
    powerset, i.e. the orbit congruence of p's class A: m and m' are related
    when {x : m·x ∈ A} = {x : m'·x ∈ A}.  Right stability is re-verified."""
    cls = r.class_of[p]
    return congruence_from_class_map(
        monoid, [mask_of(x for x, y in enumerate(row) if r.class_of[y] == cls)
                 for row in monoid.table])


def is_topological_filter_by_scan(monoid, flt):
    """Oracle for is_topological_filter: scan the lattice for a congruence
    outside the filter all of whose atom images lie in the filter, and
    return the first as the witness."""
    members = set(flt.members)
    for r in enumerate_congruences(monoid):
        if r in members:
            continue
        if all(atom_image_congruence(monoid, r, p) in members
               for p in r.representatives()):
            return False, r
    return True, None


def transformation_closure(maps, points, limit):
    """The self-maps of {0..points-1} generated by maps, identity first; the
    search stops once it has found more than limit of them."""
    elements = [tuple(range(points))]
    for a in elements:
        for g in maps:
            product = tuple(g[v] for v in a)
            if product not in elements:
                elements.append(product)
                if len(elements) > limit:
                    return elements
    return elements


def transformation_monoid(elements):
    """m·n is the map m followed by n, so that x·m = m(x) is a right action;
    each element is named by its images, "01210" for 0→0, 1→1, 2→2, 3→1,
    4→0."""
    index = {e: i for i, e in enumerate(elements)}
    table = [[index[tuple(b[v] for v in a)] for b in elements] for a in elements]
    return validate_monoid(["".join(map(str, e)) for e in elements], table, 0)


def full_transformation_monoid(points):
    maps = list(itertools.product(range(points), repeat=points))
    return transformation_monoid(transformation_closure(maps, points, len(maps)))


def write_past_cap_inputs(directory):
    """Write T4 with the topology whose blocks are the maps of one image
    size, and C512 with the partition into the four cosets of 4·C512, as
    T4.json, T4_top.json, C512.json and C512_top.json in directory."""
    t4, c512 = full_transformation_monoid(4), cyclic(512)
    blocks = {"T4": [[e for e in t4.elements if len(set(e)) == k] for k in range(1, 5)],
              "C512": [list(c512.elements[r::4]) for r in range(4)]}
    for name, monoid in (("T4", t4), ("C512", c512)):
        (directory / f"{name}.json").write_text(json.dumps(monoid_to_obj(monoid)))
        (directory / f"{name}_top.json").write_text(json.dumps(
            {"monoid": f"{name}.json", "carrier": list(monoid.elements),
             "base": blocks[name]}))


def relabeled_monoid(monoid, rng):
    """The monoid with its elements in a shuffled index order, each keeping
    its name."""
    order = list(range(monoid.order))
    rng.shuffle(order)
    new = {old: i for i, old in enumerate(order)}
    table = [[new[monoid.table[a][b]] for b in order] for a in order]
    return validate_monoid([monoid.elements[a] for a in order], table,
                           new[monoid.identity])


def relabeled_topology(monoid, copy, topology):
    """The topology carried to copy, a relabelled monoid: the point with a
    given name keeps the neighbours with the same names."""
    old = [monoid.elements.index(name) for name in copy.elements]
    nb = topology.nbhd
    return Topology(monoid.order, tuple(
        sum(1 << j for j, y in enumerate(old) if nb[x] >> y & 1) for x in old))


@st.composite
def transformation_monoids(draw, points=5, orders=(5, 20)):
    """A monoid whose order lies in orders: the closure of the identity and
    1 to 3 random self-maps of {0..points-1}, with up to 6 drawn while the
    order is still below the bottom of orders.  A map that would take the
    order past the top of orders is left out."""
    low, high = orders
    maps: list[tuple[int, ...]] = []
    wanted = draw(st.integers(1, 3))
    for attempt in range(6):
        if attempt >= wanted and len(transformation_closure(maps, points, high)) >= low:
            break
        g = draw(st.tuples(*[st.integers(0, points - 1)] * points))
        if len(transformation_closure(maps + [g], points, high)) <= high:
            maps.append(g)
    elements = transformation_closure(maps, points, high)
    assume(len(elements) >= low)
    return transformation_monoid(elements)


@st.composite
def preorder_topologies(draw, n):
    """The topology of a random preorder on {0..n-1}: each point gets up to
    width drawn points above it, for a drawn width of 0 (discrete) to 2."""
    width = draw(st.integers(0, 2))
    return preorder_topology([draw(st.lists(st.integers(0, n - 1), max_size=width))
                              for _ in range(n)])


def preorder_topology(above):
    """The topology of the preorder generated by x ≤ y for y in above[x]:
    nb[x] is everything reachable from x."""
    n = len(above)
    nbhd = []
    for x in range(n):
        reach, frontier = {x}, [x]
        while frontier:
            fresh = [z for y in frontier for z in above[y] if z not in reach]
            reach.update(fresh)
            frontier = fresh
        nbhd.append(sum(1 << y for y in reach))
    return Topology(n, tuple(nbhd))
