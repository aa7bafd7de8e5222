import itertools

import pytest
from hypothesis import given, settings

from topact.catalog import all_monoids, all_topologies, cyclic, truncated_addition
from topact.congruences import (CapExceeded, CongruenceFilter, EmptyFilter, InvalidFilter,
                                NotDirected, NotEquivariant, NotInFilter,
                                NotStable, NotUpwardClosed, _sorted_members,
                                congruence_from_class_map,
                                diagonal, enumerate_congruences, enumerate_filters,
                                filter_generated, full_filter, generated_congruence,
                                hom_classes, inverse_image_congruence, is_two_sided,
                                join, leq, meet, open_congruences, total,
                                validate_filter)
from topact.errors import InternalCheckError
from topact.topology import discrete_topology, indiscrete_topology, is_open_in_product

from conftest import transformation_closure, transformation_monoid, transformation_monoids


def all_partitions(n):
    """Restricted growth strings: every partition of {0..n-1} exactly once."""
    def rec(i, used, cur):
        if i == n:
            yield tuple(cur)
            return
        for c in range(used + 1):
            cur.append(c)
            yield from rec(i + 1, max(used, c + 1), cur)
            cur.pop()
    yield from rec(0, 0, [])


def right_stable_partitions(monoid):
    out = []
    for p in all_partitions(monoid.order):
        if all(p[monoid.table[a][m]] == p[monoid.table[b][m]]
               for a in range(monoid.order) for b in range(monoid.order)
               if p[a] == p[b] for m in range(monoid.order)):
            out.append(p)
    return sorted(out, key=lambda p: (max(p) + 1, p))


def generated_by_queue(monoid, pairs):
    """Oracle for generated_congruence: union-find, pushing every right
    translate of a pair whose classes it merges."""
    parent = list(range(monoid.order))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    queue = list(pairs)
    while queue:
        a, b = queue.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[rb] = ra
        for m in range(monoid.order):
            queue.append((monoid.table[a][m], monoid.table[b][m]))
    return congruence_from_class_map(monoid, [find(x) for x in range(monoid.order)])


def pairwise_join_closure(monoid, cap):
    """Oracle for enumerate_congruences: join every frontier member with
    every principal congruence until nothing new appears."""
    found = {diagonal(monoid)}
    principal = []
    for a in range(monoid.order):
        for b in range(a):
            principal.append(generated_by_queue(monoid, [(b, a)]))
    frontier = []
    for p in principal:
        if p not in found:
            found.add(p)
            frontier.append(p)
            if len(found) > cap:
                raise CapExceeded("right congruences", len(found))
    while frontier:
        fresh = []
        for r in frontier:
            for p in principal:
                j = join(r, p)
                if j not in found:
                    found.add(j)
                    fresh.append(j)
                    if len(found) > cap:
                        raise CapExceeded("right congruences", len(found))
        frontier = fresh
    return tuple(sorted(found, key=lambda r: (r.num_classes, r.class_of)))


def lattice_or_cap(build, monoid, cap):
    try:
        return build(monoid, cap)
    except CapExceeded as exc:
        return str(exc)


def full_transformation_monoid(points):
    maps = list(itertools.product(range(points), repeat=points))
    return transformation_monoid(transformation_closure(maps, points, len(maps)))


def test_generated_empty_is_diagonal(c4):
    assert generated_congruence(c4, []) == diagonal(c4)


def test_generated_all_pairs_is_total(c4):
    pairs = [(a, b) for a in range(4) for b in range(4)]
    assert generated_congruence(c4, pairs) == total(c4)


def test_generated_c4_halving(c4):
    r = generated_congruence(c4, [(0, 2)])
    assert r.classes() == ((0, 2), (1, 3))


def test_stability_rejects_bad_partition(m_lz):
    with pytest.raises(NotStable):
        congruence_from_class_map(m_lz, [0, 0, 1])


def test_enumeration_matches_all_partitions_scan():
    monoids = [m for n in (1, 2, 3, 4) for m in all_monoids(n)]
    monoids.append(truncated_addition(4))  # a 5-element case
    monoids.append(cyclic(5))
    for monoid in monoids:
        computed = [r.class_of for r in enumerate_congruences(monoid)]
        assert computed == right_stable_partitions(monoid)


def test_enumeration_examples(c2, c4, m_lz):
    assert len(enumerate_congruences(c2)) == 2
    assert len(enumerate_congruences(c4)) == 3
    labels = [r.label() for r in enumerate_congruences(m_lz)]
    assert labels == ["1,x,y", "1|x,y", "1|x|y"]


def test_enumeration_cap(c4):
    with pytest.raises(CapExceeded):
        enumerate_congruences(c4, cap=1)


def test_generated_congruence_matches_queue_closure_through_order_three():
    for monoid in all_monoids(1) + all_monoids(2) + all_monoids(3):
        pairs = [(a, b) for a in range(monoid.order) for b in range(monoid.order)]
        for k in (1, 2):
            for chosen in itertools.combinations(pairs, k):
                assert generated_congruence(monoid, chosen) \
                    == generated_by_queue(monoid, chosen)


def test_lattice_matches_pairwise_join_closure_through_order_four():
    for order in (1, 2, 3, 4):
        for monoid in all_monoids(order):
            assert enumerate_congruences(monoid) \
                == pairwise_join_closure(monoid, cap=100_000)


def test_lattice_matches_pairwise_join_closure_on_t3():
    t3 = full_transformation_monoid(3)
    lattice = enumerate_congruences(t3)
    assert len(lattice) == 287
    assert lattice == pairwise_join_closure(t3, cap=100_000)


def test_lattice_matches_pairwise_join_closure_where_a_wrong_skip_key_loses_a_member():
    # skipping r ∨ p whenever r relates a - 1 and a, rather than p's own
    # generating pair (b, a), loses one of these 43 congruences
    monoid = transformation_monoid(
        transformation_closure([(0, 1, 2, 0, 4), (1, 0, 0, 2, 3)], 5, 20))
    lattice = enumerate_congruences(monoid)
    assert len(lattice) == 43
    assert lattice == pairwise_join_closure(monoid, cap=100_000)


def test_lattice_cap_raises_once_the_count_passes_it():
    t3 = full_transformation_monoid(3)
    assert len(enumerate_congruences(t3, cap=287)) == 287
    for cap in (1, 44, 286):
        with pytest.raises(CapExceeded, match=f"cap exceeded at {cap + 1}$"):
            enumerate_congruences(t3, cap=cap)


@settings(max_examples=25, deadline=None)
@given(transformation_monoids())
def test_lattice_matches_pairwise_join_closure_beyond_order_four(monoid):
    # the oracle joins every member with every principal congruence, so
    # both run under a cap of 150, and past it both must raise
    assert lattice_or_cap(enumerate_congruences, monoid, 150) \
        == lattice_or_cap(pairwise_join_closure, monoid, 150)


def test_members_are_joins_of_their_principal_congruences():
    for monoid in all_monoids(3) + all_monoids(2):
        for r in enumerate_congruences(monoid):
            acc = diagonal(monoid)
            for a in range(monoid.order):
                for b in range(a):
                    if r.same(a, b):
                        acc = join(acc, generated_congruence(monoid, [(b, a)]))
            assert acc == r


def test_inverse_image_identity_and_total(c4, m_lz):
    r = generated_congruence(c4, [(0, 2)])
    assert inverse_image_congruence(c4, 0, r) == r
    assert inverse_image_congruence(c4, 1, total(c4)) == total(c4)
    assert inverse_image_congruence(m_lz, 1, diagonal(m_lz)) == total(m_lz)


def test_inverse_image_contravariant_action_law():
    for monoid in all_monoids(3):
        for r in enumerate_congruences(monoid):
            for p in range(monoid.order):
                for q in range(monoid.order):
                    lhs = inverse_image_congruence(
                        monoid, q, inverse_image_congruence(monoid, p, r))
                    rhs = inverse_image_congruence(
                        monoid, monoid.table[p][q], r)
                    assert lhs == rhs


def test_meet_join_units(c4):
    r = generated_congruence(c4, [(0, 2)])
    assert meet(r, total(c4)) == r
    assert join(r, diagonal(c4)) == r
    assert meet(r, r) == r


def test_meet_join_against_partition_lattice(c4):
    # oracle: meet = intersection of relations, join = least stable partition
    # above both, found by scanning the full lattice
    lattice = enumerate_congruences(c4)
    for r1 in lattice:
        for r2 in lattice:
            m = meet(r1, r2)
            assert all((r1.same(a, b) and r2.same(a, b)) == m.same(a, b)
                       for a in range(4) for b in range(4))
            j = join(r1, r2)
            above = [s for s in lattice if leq(r1, s) and leq(r2, s)]
            least = min(above, key=lambda s: [s.same(a, b) for a in range(4)
                                              for b in range(4)].count(True))
            assert j == least


def test_two_sidedness(c4, m_lz):
    for r in enumerate_congruences(c4):
        assert is_two_sided(r)  # commutative
    r1 = generated_congruence(m_lz, [(1, 2)])
    assert is_two_sided(r1)
    assert is_two_sided(diagonal(m_lz)) and is_two_sided(total(m_lz))


def test_open_congruences_discrete_and_indiscrete(m_lz):
    assert open_congruences(m_lz, discrete_topology(3)).members \
        == enumerate_congruences(m_lz)
    assert [r.label() for r in open_congruences(m_lz, indiscrete_topology(3)).members] \
        == ["1,x,y"]


def test_open_congruences_split(m_lz, tau_a):
    assert [r.label() for r in open_congruences(m_lz, tau_a).members] \
        == ["1,x,y", "1|x,y"]


def test_open_congruence_members_have_continuous_quotients():
    from topact.actions import is_continuous_mset, quotient_mset
    from topact.catalog import all_topologies
    for monoid in all_monoids(3):
        for topology in all_topologies(3):
            flt = open_congruences(monoid, topology)
            for r in enumerate_congruences(monoid):
                continuous = is_continuous_mset(quotient_mset(monoid, r), topology)[0]
                assert continuous == (r in flt)


def test_open_congruences_match_product_openness_of_translates():
    # oracle: r is a member when every q*(r) is open in the product topology
    for order in (1, 2, 3, 4):
        for monoid in all_monoids(order):
            lattice = enumerate_congruences(monoid)
            translates = [{inverse_image_congruence(monoid, q, r).relation_mask()
                           for q in range(order)} for r in lattice]
            relations = set().union(*translates)
            for topology in all_topologies(order):
                opened = {rel for rel in relations
                          if is_open_in_product(rel, topology, topology)}
                expected = tuple(r for r, masks in zip(lattice, translates)
                                 if masks <= opened)
                assert open_congruences(monoid, topology).members == expected


def test_validate_filter_errors(m_lz, c4):
    with pytest.raises(EmptyFilter):
        validate_filter(m_lz, [])
    r1 = generated_congruence(m_lz, [(1, 2)])
    with pytest.raises(NotUpwardClosed):
        validate_filter(m_lz, [r1])
    mod2 = generated_congruence(c4, [(0, 2)])
    with pytest.raises(NotUpwardClosed):
        validate_filter(c4, [mod2, diagonal(c4)])


def test_validate_filter_not_directed():
    from topact.monoid import validate_monoid
    klein = validate_monoid(("e", "a", "b", "c"),
                            [[0, 1, 2, 3], [1, 0, 3, 2],
                             [2, 3, 0, 1], [3, 2, 1, 0]], 0)
    ra = generated_congruence(klein, [(0, 1)])
    rb = generated_congruence(klein, [(0, 2)])
    with pytest.raises(NotDirected):
        validate_filter(klein, [ra, rb, total(klein)])


def validate_filter_by_common_refinement(monoid, members):
    """Oracle: the filter axioms as first written, with directedness
    decided by searching the members for a common refinement."""
    mem = _sorted_members(members)
    if not mem:
        raise EmptyFilter("a congruence filter cannot be empty")
    lattice = enumerate_congruences(monoid)
    member_set = set(mem)
    for r in mem:
        for s in lattice:
            if leq(r, s) and s not in member_set:
                raise NotUpwardClosed(r, s)
    for i, r1 in enumerate(mem):
        for r2 in mem[:i]:
            if not any(leq(s, r1) and leq(s, r2) for s in mem):
                raise NotDirected(r1, r2)
    for r in mem:
        for q in range(monoid.order):
            if inverse_image_congruence(monoid, q, r) not in member_set:
                raise NotEquivariant(q, r)
    minimal = tuple(r for r in mem
                    if not any(s != r and leq(s, r) for s in mem))
    if len(minimal) != 1:
        raise InternalCheckError("directed finite filter must have a unique minimum")
    return CongruenceFilter(monoid, mem, minimal)


def _outcome(check, monoid, members):
    try:
        return check(monoid, members)
    except InvalidFilter as exc:
        return type(exc), exc.args


def test_validate_filter_matches_common_refinement_search():
    kinds = set()
    for monoid in all_monoids(1) + all_monoids(2) + all_monoids(3):
        lattice = enumerate_congruences(monoid)
        for pick in itertools.product((False, True), repeat=len(lattice)):
            members = [r for r, on in zip(lattice, pick) if on]
            expected = _outcome(validate_filter_by_common_refinement, monoid, members)
            assert _outcome(validate_filter, monoid, members) == expected
            kinds.add(expected[0] if isinstance(expected, tuple) else CongruenceFilter)
    assert kinds == {EmptyFilter, NotUpwardClosed, NotDirected, NotEquivariant,
                     CongruenceFilter}


def test_filter_generated_examples(c4, m_lz):
    assert filter_generated(c4, [diagonal(c4)]).members \
        == enumerate_congruences(c4)
    assert full_filter(c4).least == diagonal(c4)
    assert [r.label() for r in filter_generated(m_lz, [total(m_lz)]).members] \
        == ["1,x,y"]
    mod2 = generated_congruence(c4, [(0, 2)])
    flt = filter_generated(c4, [mod2])
    assert [r.num_classes for r in flt.members] == [1, 2]
    assert flt.least == mod2


def test_every_filter_least_is_two_sided():
    for monoid in all_monoids(3):
        for flt in enumerate_filters(monoid):
            assert is_two_sided(flt.least)
            assert all(leq(flt.least, r) for r in flt.members)


def test_filters_are_upsets_of_two_sided_congruences():
    for monoid in all_monoids(3):
        expected = sum(1 for r in enumerate_congruences(monoid) if is_two_sided(r))
        assert len(enumerate_filters(monoid)) == expected


def test_hom_classes_identity_and_full(c4, m_lz):
    flt = full_filter(c4)
    mod2 = generated_congruence(c4, [(0, 2)])
    assert 0 in hom_classes(flt, mod2, mod2)
    # from the diagonal every class is a morphism target
    assert hom_classes(flt, diagonal(c4), mod2) == (0, 1)
    flt_lz = filter_generated(m_lz, [generated_congruence(m_lz, [(1, 2)])])
    r1 = flt_lz.least
    assert hom_classes(flt_lz, r1, total(m_lz)) == (0,)
    assert hom_classes(flt_lz, r1, r1) == (0, 1)


def test_hom_classes_requires_membership(c4):
    flt = filter_generated(c4, [generated_congruence(c4, [(0, 2)])])
    with pytest.raises(NotInFilter):
        hom_classes(flt, diagonal(c4), flt.least)


def test_joint_cover_meet_stays_in_filter():
    for monoid in all_monoids(3):
        for flt in enumerate_filters(monoid):
            for r1 in flt.members:
                for r2 in flt.members:
                    m = meet(r1, r2)
                    assert m in flt
                    assert 0 in hom_classes(flt, m, r1) or \
                        monoid.identity in hom_classes(flt, m, r1)
