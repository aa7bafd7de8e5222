import dataclasses
import itertools
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topact import congruences, files
from topact.catalog import all_monoids, all_topologies, cyclic, truncated_addition
from topact.congruences import (CapExceeded, CongruenceFilter, EmptyFilter, InvalidFilter,
                                NotDirected, NotEquivariant,
                                NotStable, NotUpwardClosed, RightCongruence, _quotient_monoid,
                                congruence_from_class_map,
                                diagonal, enumerate_congruences, enumerate_filters,
                                filter_generated, full_filter, generated_congruence,
                                inverse_image_congruence, is_two_sided,
                                least_open_congruence, leq, meet,
                                open_congruences, total, validate_filter)
from topact.errors import InternalCheckError, TopactError
from topact.suite import exhaustive_suite
from topact.topology import (connected_components, discrete_topology, indiscrete_topology,
                             is_open_in_product, partition_topology)

from conftest import (NotInFilter, full_transformation_monoid, hom_classes, join,
                      preorder_topologies, preorder_topology, relabeled_monoid,
                      relabeled_topology, relation_mask, set_lattice_cap,
                      transformation_closure, transformation_monoid,
                      transformation_monoids)


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


def capped_lattice(monoid, cap):
    """enumerate_congruences(monoid) under a lattice cap of cap."""
    with pytest.MonkeyPatch.context() as mp:
        set_lattice_cap(mp, cap)
        return enumerate_congruences(monoid)


def lattice_or_cap(build, monoid, cap):
    try:
        return build(monoid, cap)
    except CapExceeded as exc:
        return str(exc)


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


def test_enumeration_cap(c4, monkeypatch):
    set_lattice_cap(monkeypatch, 1)
    with pytest.raises(CapExceeded):
        enumerate_congruences(c4)


def test_generated_congruence_matches_queue_closure_through_order_three():
    for monoid in all_monoids(1) + all_monoids(2) + all_monoids(3):
        pairs = [(a, b) for a in range(monoid.order) for b in range(monoid.order)]
        for k in (1, 2):
            for chosen in itertools.combinations(pairs, k):
                assert generated_congruence(monoid, chosen) \
                    == generated_by_queue(monoid, chosen)


def test_generated_congruence_matches_queue_closure_on_r0_pairs_through_order_four():
    # r0's pairs, the left translates of pairs within a component, often
    # relate ends that earlier pairs already relate
    cells = 0
    for order in (1, 2, 3, 4):
        for monoid in all_monoids(order):
            for topology in all_topologies(order):
                pairs = [(row[comp[0]], row[b]) for comp in connected_components(topology)
                         for b in comp[1:] for row in monoid.table]
                expected = generated_by_queue(monoid, pairs)
                assert generated_congruence(monoid, pairs) == expected
                assert least_open_congruence(monoid, topology) == expected
                cells += 1
    assert cells == 12637


def r0_pairs(monoid, topology):
    """The pairs whose right congruence is r0: (q·a, q·b) for a and b in one
    component."""
    return [(row[comp[0]], row[b]) for comp in connected_components(topology)
            for b in comp[1:] for row in monoid.table]


def assert_least_open_congruence_matches_oracle(monoid, topology, rng):
    """r0 equals the queue closure of r0's pairs and is two-sided, and on a
    copy with shuffled element indices it is r0 moved along."""
    r0 = least_open_congruence(monoid, topology)
    assert r0 == generated_by_queue(monoid, r0_pairs(monoid, topology))
    assert is_two_sided(r0)
    copy = relabeled_monoid(monoid, rng)
    old = [monoid.elements.index(name) for name in copy.elements]
    moved = relabeled_topology(monoid, copy, topology)
    assert least_open_congruence(copy, moved) \
        == congruence_from_class_map(copy, [r0.class_of[x] for x in old])


@settings(max_examples=40, deadline=None)
@given(transformation_monoids(), st.data())
def test_least_open_congruence_matches_queue_closure_on_transformation_monoids(monoid, data):
    # a drawn preorder makes r0 total or the diagonal on most examples; a
    # topology relating one drawn pair more often leaves r0 in between
    n = monoid.order
    a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    rng = data.draw(st.randoms(use_true_random=False))
    for topology in (data.draw(preorder_topologies(n)),
                     preorder_topology([[b] if x == a else [] for x in range(n)])):
        assert_least_open_congruence_matches_oracle(monoid, topology, rng)


def seeded_t3_topologies(t3, rng, count):
    """Discrete, indiscrete, then count topologies on T3's 27 points, each
    relating one or two random pairs of maps of one rank, alternately as a
    preorder and as the topology spanned by the pairs and the other points:
    pairs of mixed ranks, or many pairs, would make nearly every r0 total."""
    by_rank = [[x for x, name in enumerate(t3.elements) if len(set(name)) == k]
               for k in (1, 2, 3)]
    out = [discrete_topology(27), indiscrete_topology(27)]
    for k in range(count):
        maps = rng.choice(by_rank)
        pairs = [rng.sample(maps, 2) for _ in range(rng.randint(1, 2))]
        if k % 2:
            above = [[] for _ in range(27)]
            for x, y in pairs:
                above[x].append(y)
            out.append(preorder_topology(above))
        else:
            covered = {x for pair in pairs for x in pair}
            out.append(partition_topology(
                27, pairs + [[x] for x in range(27) if x not in covered]))
    return out


def test_least_open_congruence_matches_queue_closure_on_t3():
    t3 = full_transformation_monoid(3)
    rng = random.Random(13)
    topologies = seeded_t3_topologies(t3, rng, 40)
    for topology in topologies:
        assert_least_open_congruence_matches_oracle(t3, topology, rng)
    assert least_open_congruence(t3, topologies[0]) == diagonal(t3)
    assert least_open_congruence(t3, topologies[1]) == total(t3)
    assert len({least_open_congruence(t3, t).num_classes for t in topologies}) > 2


def test_least_open_congruence_memo_is_bounded_and_agrees_with_the_unmemoized_pass():
    assert least_open_congruence.__module__ == "topact.congruences"
    assert vars(congruences)["least_open_congruence"] is least_open_congruence
    assert least_open_congruence.cache_info().maxsize == congruences.R0_MEMO_SIZE == 16
    least_open_congruence.cache_clear()
    for monoid in all_monoids(4):
        for topology in all_topologies(4):
            assert least_open_congruence(monoid, topology).class_of \
                == congruences._r0_class_map.__wrapped__(monoid, topology)
    least_open_congruence.cache_clear()
    exhaustive_suite(4, 4)
    info = least_open_congruence.cache_info()
    assert info.currsize <= info.maxsize and info.hits > info.misses
    cells = [(m, t) for m in all_monoids(4) for t in all_topologies(4)[::11]]
    before = [least_open_congruence(m, t) for m, t in cells]
    least_open_congruence.cache_clear()
    assert least_open_congruence.cache_info().currsize == 0
    # recomputed, and read from the store on the monoid
    assert all(least_open_congruence(m, t) is r for (m, t), r in zip(cells, before))


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


def test_lattice_cap_raises_once_the_count_passes_it(monkeypatch):
    t3 = full_transformation_monoid(3)
    set_lattice_cap(monkeypatch, 287)
    assert len(enumerate_congruences(t3)) == 287
    for cap in (1, 44, 286):
        set_lattice_cap(monkeypatch, cap)
        with pytest.raises(CapExceeded, match=f"cap exceeded at {cap + 1}$"):
            enumerate_congruences(t3)


@settings(max_examples=25, deadline=None)
@given(transformation_monoids())
def test_lattice_matches_pairwise_join_closure_beyond_order_four(monoid):
    # the oracle joins every member with every principal congruence, so
    # both run under a cap of 150, and past it both must raise
    assert lattice_or_cap(capped_lattice, monoid, 150) \
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
            translates = [{relation_mask(inverse_image_congruence(monoid, q, r))
                           for q in range(order)} for r in lattice]
            relations = set().union(*translates)
            for topology in all_topologies(order):
                opened = {rel for rel in relations
                          if is_open_in_product(rel, topology, topology)}
                expected = tuple(r for r, masks in zip(lattice, translates)
                                 if masks <= opened)
                flt = open_congruences(monoid, topology)
                assert flt.members == expected
                assert flt == validate_filter(monoid, flt.members)


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


def _sorted_members(members):
    return tuple(sorted(set(members), key=lambda r: (r.num_classes, r.class_of)))


def validate_filter_by_common_refinement(monoid, members):
    """Oracle: the filter axioms as first written, with directedness
    decided by searching the members for a common refinement.  Returns the
    filter of the least member and the members as checked."""
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
    return CongruenceFilter(monoid, minimal[0]), mem


def _validated(monoid, members):
    """validate_filter's filter with the members it lists."""
    flt = validate_filter(monoid, members)
    return flt, flt.members


def _outcome(check, monoid, members):
    try:
        return check(monoid, members)
    except InvalidFilter as exc:
        return type(exc), exc.args


def _kind(outcome):
    return outcome[0] if isinstance(outcome[0], type) else type(outcome[0])


def sampled_member_sets(lattice, rng, count):
    """Seeded member sets of a lattice: uniform subsets, the up-closures of
    uniform subsets, and those up-closures with one lattice element
    toggled."""
    for _ in range(count):
        picked = [r for r in lattice if rng.random() < 0.5]
        yield picked
        closed = [s for s in lattice if any(leq(r, s) for r in picked)]
        yield closed
        toggled = rng.choice(lattice)
        yield [r for r in closed if r != toggled] + ([] if toggled in closed else [toggled])


def test_validate_filter_matches_common_refinement_search():
    kinds = set()
    for monoid in all_monoids(1) + all_monoids(2) + all_monoids(3):
        lattice = enumerate_congruences(monoid)
        for pick in itertools.product((False, True), repeat=len(lattice)):
            members = [r for r, on in zip(lattice, pick) if on]
            expected = _outcome(validate_filter_by_common_refinement, monoid, members)
            assert _outcome(_validated, monoid, members) == expected
            kinds.add(_kind(expected))
    assert kinds == {EmptyFilter, NotUpwardClosed, NotDirected, NotEquivariant,
                     CongruenceFilter}
    kinds.clear()
    rng = random.Random(10)
    for monoid in all_monoids(4):
        lattice = enumerate_congruences(monoid)
        for members in sampled_member_sets(lattice, rng, 40):
            expected = _outcome(validate_filter_by_common_refinement, monoid, members)
            assert _outcome(_validated, monoid, members) == expected
            kinds.add(_kind(expected))
    assert kinds == {EmptyFilter, NotUpwardClosed, NotDirected, NotEquivariant,
                     CongruenceFilter}


@settings(max_examples=25, deadline=None)
@given(transformation_monoids(points=4, orders=(5, 8)), st.data())
def test_validate_filter_matches_common_refinement_search_on_transformation_monoids(
        monoid, data):
    # the oracle's directedness search is cubic in the members, so the
    # lattices stay below about 80 members
    lattice = enumerate_congruences(monoid)
    topology = data.draw(preorder_topologies(monoid.order))
    for members in (lattice, open_congruences(monoid, topology).members):
        dropped = data.draw(st.sampled_from(members))
        added = data.draw(st.sampled_from(lattice))
        for case in (members, [r for r in members if r != dropped], members + (added,)):
            assert _outcome(_validated, monoid, case) \
                == _outcome(validate_filter_by_common_refinement, monoid, case)


def test_validate_filter_rejects_members_outside_the_lattice(m_lz, m_rz):
    unstable = RightCongruence(m_lz, (0, 0, 1))
    unnormalized = RightCongruence(m_lz, (1, 0, 0))
    foreign = RightCongruence(m_rz, (0, 1, 1))
    assert foreign.class_of in enumerate_congruences(m_lz).position
    for stranger in (unstable, unnormalized, foreign):
        with pytest.raises(TopactError, match=re.escape(repr(stranger))) as caught:
            validate_filter(m_lz, [stranger, total(m_lz)])
        assert not isinstance(caught.value, InvalidFilter)


def test_lattice_order_is_sorted_order_and_its_rows_match_leq():
    monoids = [m for n in (1, 2, 3, 4) for m in all_monoids(n)]
    monoids.append(full_transformation_monoid(3))
    for monoid in monoids:
        lattice = enumerate_congruences(monoid)
        assert lattice == _sorted_members(lattice)
        for i, r in enumerate(lattice):
            assert lattice.position[r.class_of] == i


def lattice_above_by_scan(monoid, base):
    """Oracle for enumerate_congruences(monoid, base=base): the members of
    the whole lattice that contain base, in lattice order."""
    return tuple(r for r in enumerate_congruences(monoid) if leq(base, r))


def test_lattice_above_a_base_matches_scan_through_order_four():
    bases = 0
    for order in (1, 2, 3, 4):
        for monoid in all_monoids(order):
            for base in enumerate_congruences(monoid):
                above = enumerate_congruences(monoid, base=base)
                assert above == lattice_above_by_scan(monoid, base)
                assert [above.position[r.class_of] for r in above] == list(range(len(above)))
                bases += 1
    assert bases == 250


def test_lattice_above_a_base_matches_scan_on_t3():
    t3 = full_transformation_monoid(3)
    lattice = enumerate_congruences(t3)
    bases = random.Random(16).sample(list(lattice), 30) + [lattice[0], lattice[-1]]
    for base in bases:
        assert enumerate_congruences(t3, base=base) == lattice_above_by_scan(t3, base)


def test_lattice_above_a_base_is_capped_by_its_own_size(monkeypatch):
    t3 = full_transformation_monoid(3)
    base = next(r for r in enumerate_congruences(t3) if r.num_classes == 3)
    size = len(lattice_above_by_scan(t3, base))
    set_lattice_cap(monkeypatch, size)
    assert len(enumerate_congruences(t3, base=base)) == size
    set_lattice_cap(monkeypatch, size - 1)
    with pytest.raises(CapExceeded, match=f"cap exceeded at {size}$"):
        enumerate_congruences(t3, base=base)


@settings(max_examples=20, deadline=None)
@given(transformation_monoids(orders=(5, 12)), st.data())
def test_lattice_above_a_base_matches_scan_on_transformation_monoids(monoid, data):
    lattice = enumerate_congruences(monoid)
    for base in data.draw(st.lists(st.sampled_from(lattice), min_size=1, max_size=8)):
        assert enumerate_congruences(monoid, base=base) == lattice_above_by_scan(monoid, base)


def filter_generated_by_closure(monoid, gens):
    """Oracle for filter_generated: close the generators under inverse
    images and meets, then close upward in the lattice."""
    core = set(gens)
    if not core:
        raise EmptyFilter("need at least one generator")
    frontier = list(core)
    while frontier:
        fresh = []
        candidates = []
        for r in frontier:
            for q in range(monoid.order):
                candidates.append(inverse_image_congruence(monoid, q, r))
            for s in list(core):
                candidates.append(meet(r, s))
        for c in candidates:
            if c not in core:
                core.add(c)
                fresh.append(c)
        frontier = fresh
    members = [s for s in enumerate_congruences(monoid)
               if any(leq(r, s) for r in core)]
    return validate_filter(monoid, members)


def test_filter_generated_matches_closure_through_order_three():
    checked = 0
    for monoid in all_monoids(1) + all_monoids(2) + all_monoids(3):
        lattice = enumerate_congruences(monoid)
        for k in (1, 2):
            for gens in itertools.combinations(lattice, k):
                assert filter_generated(monoid, gens) \
                    == filter_generated_by_closure(monoid, gens)
                checked += 1
    assert checked > 50


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


def test_the_full_filter_reads_the_whole_lattice_from_one_cache_entry():
    t3 = full_transformation_monoid(3)
    for monoid in [cyclic(4), truncated_addition(3), t3]:
        assert full_filter(monoid).members is enumerate_congruences(monoid)
        assert enumerate_congruences(monoid, base=diagonal(monoid)) \
            is enumerate_congruences(monoid)
    enumerate_congruences.cache_clear()
    validate_filter(t3, enumerate_congruences(t3))
    assert enumerate_congruences.cache_info().misses == 1


def test_every_filter_least_is_two_sided():
    for monoid in all_monoids(3):
        for flt in enumerate_filters(monoid):
            assert is_two_sided(flt.least)
            assert all(leq(flt.least, r) for r in flt.members)


def test_built_filters_pass_validate_filter_through_order_four():
    filters = 0
    for order in (1, 2, 3, 4):
        for monoid in all_monoids(order):
            lattice = enumerate_congruences(monoid)
            assert full_filter(monoid) == validate_filter(monoid, lattice)
            for flt in enumerate_filters(monoid):
                assert flt == validate_filter(monoid, flt.members)
                filters += 1
    assert filters == 217


def test_filters_are_upsets_of_two_sided_congruences():
    for monoid in all_monoids(3):
        expected = sum(1 for r in enumerate_congruences(monoid) if is_two_sided(r))
        assert len(enumerate_filters(monoid)) == expected


def pulled_back_lattice(monoid, least):
    """The right congruences of M/least pulled back along the quotient map,
    sorted by (classes, class map): the right congruences of M above the
    two-sided least, built without M's lattice."""
    _, projection = _quotient_monoid(monoid, least)
    quotient = projection.target
    pulled = (congruence_from_class_map(monoid, [s.class_of[c] for c in projection.map])
              for s in enumerate_congruences(quotient))
    return tuple(sorted(pulled, key=lambda r: (r.num_classes, r.class_of)))


def parsed_filter(monoid, generators):
    """The filter a filter file naming the generators loads as."""
    ws = files.Workspace()
    ws.register(ws.monoids, "M", monoid, "M.json")
    names = monoid.elements
    obj = {"monoid": "M.json",
           "generators": [[[names[m] for m in cls] for cls in g.classes()]
                          for g in generators]}
    return files.parse_filter(obj, ws, Path("M.json"))


def built_filters(monoid, topologies, rng):
    """A filter from each constructor: the full filter, every enumerated
    filter and, from each, the filter validate_filter returns for its
    members, the one its least member generates and the one a filter file
    naming it loads as; the open filters of the topologies; and filters
    generated by two lattice members drawn by rng, directly and from a
    file."""
    yield full_filter(monoid)
    for flt in enumerate_filters(monoid):
        yield flt
        yield validate_filter(monoid, flt.members)
        yield filter_generated(monoid, [flt.least])
        yield parsed_filter(monoid, [flt.least])
    for topology in topologies:
        yield open_congruences(monoid, topology)
    lattice = enumerate_congruences(monoid)
    gens = [rng.choice(lattice), rng.choice(lattice)]
    yield filter_generated(monoid, gens)
    yield parsed_filter(monoid, gens)


def assert_filter_invariants(flt):
    """The least member is two-sided; the members are its up-set in lattice
    order and the pulled-back lattice of M/least; membership agrees with
    the member list on every lattice member."""
    monoid = flt.monoid
    lattice = enumerate_congruences(monoid)
    assert is_two_sided(flt.least)
    assert flt.members == tuple(r for r in lattice if leq(flt.least, r))
    assert flt.members == pulled_back_lattice(monoid, flt.least)
    members = set(flt.members)
    assert all((r in flt) == (r in members) for r in lattice)


def test_a_filter_is_stored_as_its_least_member(c4):
    assert [f.name for f in dataclasses.fields(CongruenceFilter)] == ["monoid", "least"]
    flt = full_filter(c4)
    assert "members" not in vars(flt)
    assert repr(flt) == "CongruenceFilter(base 0|1|2|3)"
    assert flt.members == enumerate_congruences(c4)
    assert total(cyclic(2)) not in flt


def test_built_filters_keep_their_invariants_through_order_four():
    rng = random.Random(15)
    enumerated = 0
    for order in (1, 2, 3, 4):
        topologies = all_topologies(order)[::1 if order < 4 else 40]
        for monoid in all_monoids(order):
            for flt in built_filters(monoid, topologies, rng):
                assert_filter_invariants(flt)
            enumerated += len(enumerate_filters(monoid))
    assert enumerated == 217


def test_built_filters_keep_their_invariants_on_t3():
    t3 = full_transformation_monoid(3)
    image_size = [[m for m, e in enumerate(t3.elements) if len(set(e)) == k]
                  for k in (1, 2, 3)]
    topologies = (discrete_topology(27), indiscrete_topology(27),
                  partition_topology(27, image_size))
    filters = list(built_filters(t3, topologies, random.Random(3)))
    assert len(enumerate_filters(t3)) == 7
    for flt in filters:
        assert_filter_invariants(flt)


@settings(max_examples=20, deadline=None)
@given(transformation_monoids(orders=(5, 12)), st.data())
def test_built_filters_keep_their_invariants_on_transformation_monoids(monoid, data):
    topology = data.draw(preorder_topologies(monoid.order))
    rng = data.draw(st.randoms(use_true_random=False))
    for flt in built_filters(monoid, [topology], rng):
        assert_filter_invariants(flt)


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
