import pytest
from hypothesis import assume
from hypothesis import strategies as st

from topact.catalog import (cyclic, left_zeros, left_zero_split_topology,
                            right_zeros, truncated_addition, trivial_monoid,
                            two_idempotents)
from topact.congruences import inverse_image_congruence, leq
from topact.errors import TopactError
from topact.monoid import validate_monoid
from topact.topology import Topology


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


def relabeled_monoid(monoid, rng):
    """The monoid with its elements in a shuffled index order, each keeping
    its name."""
    order = list(range(monoid.order))
    rng.shuffle(order)
    new = {old: i for i, old in enumerate(order)}
    table = [[new[monoid.table[a][b]] for b in order] for a in order]
    return validate_monoid([monoid.elements[a] for a in order], table,
                           new[monoid.identity])


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
    width drawn points above it, for a drawn width of 0 (discrete) to 2, and
    nb[x] is everything reachable from x."""
    width = draw(st.integers(0, 2))
    above = [draw(st.lists(st.integers(0, n - 1), max_size=width)) for _ in range(n)]
    nbhd = []
    for x in range(n):
        reach, frontier = {x}, [x]
        while frontier:
            fresh = [z for y in frontier for z in above[y] if z not in reach]
            reach.update(fresh)
            frontier = fresh
        nbhd.append(sum(1 << y for y in reach))
    return Topology(n, tuple(nbhd))
