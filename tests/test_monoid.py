import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (all_monoids_by_product, full_transformation_monoid,
                      transformation_monoids, validate_monoid_by_triples)
from topact import catalog
from topact.catalog import all_monoids, all_semigroup_homs
from topact.errors import TopactError
from topact.monoid import (BadShape, FiniteMonoid, MismatchedHoms, NoIdentity,
                           NonAssociative, NotIdempotent, NotMultiplicative, conjugations,
                           corner_monoid, factor_surjection_inclusion, first_nonassociative,
                           generating_set, identity_hom,
                           idempotents, is_group, opposite, unit_indices,
                           units_group, validate_hom, validate_monoid, zero_element)


def test_c2_validates(c2):
    assert c2.order == 2
    assert c2.mul(1, 1) == 0


def test_left_zeros_validates_against_bruteforce(m_lz):
    # independent oracle: check all 27 triples directly on the table
    for a, b, c in itertools.product(range(3), repeat=3):
        assert m_lz.table[m_lz.table[a][b]][c] == m_lz.table[a][m_lz.table[b][c]]


def test_nonassociative_reports_first_triple():
    bad = [[0, 1, 2], [1, 2, 2], [2, 2, 1]]
    with pytest.raises(NonAssociative) as err:
        validate_monoid(("1", "x", "y"), bad, 0)
    a, b, c = err.value.triple
    t = bad
    assert t[t[a][b]][c] != t[a][t[b][c]]


def test_missing_identity():
    with pytest.raises(NoIdentity):
        validate_monoid(("a", "b"), [[0, 0], [0, 0]], 1)


def test_bad_shape():
    with pytest.raises(BadShape):
        validate_monoid(("a", "b"), [[0, 1]], 0)
    with pytest.raises(BadShape):
        validate_monoid(("a", "a"), [[0, 1], [1, 0]], 0)


def test_idempotents(c2, m_lz, n2):
    assert idempotents(c2) == (0,)
    assert idempotents(m_lz) == (0, 1, 2)
    # scan-squares oracle on truncated addition
    assert idempotents(n2) == tuple(e for e in range(3) if min(e + e, 2) == e) == (0, 2)


def test_corner_at_identity_is_whole_monoid(c2):
    corner, incl = corner_monoid(c2, 0)
    assert corner == c2
    assert incl.map == (0, 1)
    assert incl.preserves_identity


def test_corner_left_zero(m_lz):
    corner, incl = corner_monoid(m_lz, 1)
    assert corner.order == 1 and corner.elements == ("x",)
    assert not incl.preserves_identity


def test_corner_at_zero(n2):
    corner, _ = corner_monoid(n2, 2)
    assert corner.elements == ("2",)


def test_corner_requires_idempotent(c4):
    with pytest.raises(NotIdempotent):
        corner_monoid(c4, 1)


def test_units(c4, m_lz, n2):
    assert is_group(c4)
    assert unit_indices(m_lz) == (0,)
    assert unit_indices(n2) == (0,)
    group = units_group(c4)
    assert group.order == 4


def units_by_inverse_search(monoid):
    """Oracle: the elements m with some k such that m·k = k·m = 1."""
    one, n, table = monoid.identity, monoid.order, monoid.table
    return tuple(m for m in range(n)
                 if any(table[m][k] == one and table[k][m] == one for k in range(n)))


def test_units_match_the_inverse_search_through_order_four_and_on_t3():
    monoids = [m for order in (1, 2, 3, 4) for m in all_monoids(order)]
    for monoid in monoids + [full_transformation_monoid(3)]:
        assert unit_indices(monoid) == units_by_inverse_search(monoid)


def test_units_group_closed_and_invertible():
    for monoid in all_monoids(3):
        units = units_group(monoid)
        n = units.order
        for a in range(n):
            assert any(units.table[a][b] == units.identity
                       and units.table[b][a] == units.identity for b in range(n))


def test_zero_element(c2, m_lz, n2):
    assert zero_element(n2) == 2
    assert zero_element(c2) is None
    assert zero_element(m_lz) is None


def test_validate_hom_reduction(c4, c2):
    hom = validate_hom(c4, c2, [k % 2 for k in range(4)])
    assert hom.preserves_identity


def test_validate_hom_shift_fails(c2):
    with pytest.raises(NotMultiplicative) as err:
        validate_hom(c2, c2, [1, 0])
    assert err.value.pair == (0, 0)


def test_collapse_to_terminal(m_lz, one):
    hom = validate_hom(m_lz, one, [0, 0, 0])
    assert hom.preserves_identity


def test_conjugations_abelian_identity(c2):
    ident = identity_hom(c2)
    assert conjugations(ident, ident) == (0, 1)


def test_conjugations_left_zero_exhaustive(m_lz):
    # oracle: exhaustive scan of the definition
    ident = identity_hom(m_lz)
    expected = tuple(a for a in range(3)
                     if all(m_lz.table[a][m] == m_lz.table[m][a] for m in range(3)))
    assert conjugations(ident, ident) == expected == (0,)


def test_conjugations_can_be_empty(c2):
    ident = identity_hom(c2)
    collapse = validate_hom(c2, c2, [0, 0])
    assert conjugations(ident, collapse) == ()


def test_conjugations_mismatch(c2, c4):
    with pytest.raises(MismatchedHoms):
        conjugations(identity_hom(c2), identity_hom(c4))


def test_commutative_monoid_hom_has_identity_conjugation():
    for m1 in all_monoids(3):
        for m2 in all_monoids(3):
            if not m2.is_commutative():
                continue
            for hom in all_semigroup_homs(m1, m2):
                if hom.preserves_identity:
                    assert m2.identity in conjugations(hom, hom)


def test_composites_are_semigroup_homs_through_order_three():
    monoids = [m for n in (1, 2, 3) for m in all_monoids(n)]
    homs = {(a, b): all_semigroup_homs(m1, m2)
            for a, m1 in enumerate(monoids) for b, m2 in enumerate(monoids)}
    composites = 0
    for (a, b), firsts in homs.items():
        for c in range(len(monoids)):
            for first, second in itertools.product(firsts, homs[b, c]):
                composite = first.then(second)
                assert validate_hom(monoids[a], monoids[c], composite.map) == composite
                composites += 1
    assert composites == 10_146


def test_factorization_monoid_hom(c4, c2):
    hom = validate_hom(c4, c2, [k % 2 for k in range(4)])
    first, second = factor_surjection_inclusion(hom)
    assert second.source == c2 and second.map == (0, 1)
    assert first.then(second).map == hom.map


def test_factorization_into_left_zero(one, m_lz):
    hom = validate_hom(one, m_lz, [1])
    first, second = factor_surjection_inclusion(hom)
    assert first.target.elements == ("x",)
    assert second.map == (1,)


def test_factorization_constant_two(c2, n2):
    hom = validate_hom(c2, n2, [2, 2])
    first, second = factor_surjection_inclusion(hom)
    assert first.target.elements == ("2",)
    assert first.then(second).map == hom.map


def test_factorization_recomposes_everywhere():
    monoids = [m for n in (1, 2, 3) for m in all_monoids(n)]
    for src in monoids:
        for tgt in monoids:
            for hom in all_semigroup_homs(src, tgt):
                first, second = factor_surjection_inclusion(hom)
                assert validate_hom(src, first.target, first.map) == first
                assert first.then(second).map == hom.map
                assert first.preserves_identity
                assert first.map[src.identity] == first.target.identity


def test_opposite_involution(m_lz, m_rz):
    assert opposite(m_lz).table == m_rz.table
    assert opposite(opposite(m_lz)) == m_lz
    # the opposite is stored once, and its own opposite is the monoid itself
    for order in (1, 2, 3, 4):
        for monoid in all_monoids(order):
            op = opposite(monoid)
            assert opposite(monoid) is op and opposite(op) is monoid
            n = monoid.order
            assert op.table == tuple(tuple(monoid.table[b][a] for b in range(n))
                                     for a in range(n))
            assert op.columns == monoid.table and op.columns == tuple(zip(*op.table))
            assert (op.elements, op.identity) == (monoid.elements, monoid.identity)
            assert op == FiniteMonoid(monoid.elements, monoid.columns, monoid.identity)


def test_equal_monoids_compare_and_hash_equal():
    # truncated addition on {0, 1, 2}, built twice
    table = [[0, 1, 2], [1, 2, 2], [2, 2, 2]]
    first = validate_monoid(["0", "1", "2"], table, 0)
    second = validate_monoid(["0", "1", "2"], [list(row) for row in table], 0)
    assert first is not second and first == second and hash(first) == hash(second)
    assert len({first, second}) == 1
    # the same monoid with 1 and 2 at swapped indices is a different value
    relabeled = validate_monoid(["0", "2", "1"], [[0, 1, 2], [1, 1, 1], [2, 1, 1]], 0)
    assert relabeled != first and first != relabeled
    assert validate_monoid(["e", "a", "b"], table, 0) != first
    assert first != table


def monoid_outcome(validate, elements, table, identity):
    """The validated monoid, or the class and message of the error."""
    try:
        return validate(elements, table, identity)
    except TopactError as exc:
        return type(exc), str(exc)


def validates_like_the_triple_scan(monoid, a=None, b=None, v=None):
    """Compare validate_monoid with the triple scan on the monoid's table,
    with entry (a, b) set to v when given; returns the outcome."""
    table = [list(row) for row in monoid.table]
    if a is not None:
        table[a][b] = v
    args = (monoid.elements, table, monoid.identity)
    outcome = monoid_outcome(validate_monoid, *args)
    assert outcome == monoid_outcome(validate_monoid_by_triples, *args)
    return outcome


def test_all_monoids_matches_the_product_enumeration_through_order_four():
    # the entry-wise search keeps the product loop's tables, names and order;
    # the counts are OEIS A058129
    for order in (0, 1, 2, 3, 4):
        assert all_monoids(order) == all_monoids_by_product(order)
    assert [len(all_monoids(order)) for order in (1, 2, 3, 4)] == [1, 2, 7, 35]


def _relabelled(table, p):
    out = [[0] * len(p) for _ in p]
    for x, row in enumerate(table):
        for y, xy in enumerate(row):
            out[p[x]][p[y]] = p[xy]
    return tuple(map(tuple, out))


def test_order_five_enumerations_match_the_known_counts():
    # order 5 is past the product oracles (5^16 tables, 2^20 relations), so
    # the outputs are pinned by the known counts: 4 122 identity-at-0
    # associative tables in 228 classes (OEIS A058129), and 6 942 preorders
    # on 5 points (A000798)
    monoids = catalog.all_monoids(5)
    perms = [(0,) + p for p in itertools.permutations(range(1, 5))]
    classes = [{_relabelled(m.table, p) for p in perms} for m in monoids]
    assert len(monoids) == 228 and len(set().union(*classes)) == sum(map(len, classes)) == 4122
    assert all(first_nonassociative(m.table) is None for m in monoids)
    # each kept table is the first of its class in product order, and they
    # come in that order
    assert [m.table for m in monoids] == sorted(min(c) for c in classes)
    assert {(m.elements, m.identity) for m in monoids} == {(("1", "a", "b", "c", "d"), 0)}

    topologies = catalog.all_topologies(5)
    assert len(topologies) == 6942
    for t in topologies:
        assert all(nb >> a & 1 and all(t.nbhd[b] | nb == nb for b in range(5) if nb >> b & 1)
                   for a, nb in enumerate(t.nbhd))
    keys = [[nb >> b & 1 for nb in t.nbhd for b in range(5)] for t in topologies]
    assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))


def test_validate_monoid_matches_the_triple_scan_through_order_four():
    # every monoid, and every table with one entry of it changed
    errors = set()
    for order in range(1, 5):
        for monoid in all_monoids(order):
            assert validates_like_the_triple_scan(monoid) == monoid
            for a, b in itertools.product(range(order), repeat=2):
                for v in range(order):
                    if v != monoid.table[a][b]:
                        outcome = validates_like_the_triple_scan(monoid, a, b, v)
                        errors.add(outcome[0] if isinstance(outcome, tuple) else None)
    assert errors == {NoIdentity, NonAssociative, None}


def test_validate_monoid_matches_the_triple_scan_on_t3():
    t3 = full_transformation_monoid(3)
    assert validates_like_the_triple_scan(t3) == t3
    rng = random.Random(3)
    for _ in range(40):
        a, b = rng.randrange(1, 27), rng.randrange(1, 27)
        v = rng.choice([v for v in range(27) if v != t3.table[a][b]])
        validates_like_the_triple_scan(t3, a, b, v)


@settings(max_examples=40, deadline=None)
@given(transformation_monoids(orders=(5, 20)), st.data())
def test_validate_monoid_matches_the_triple_scan_on_corrupted_tables(monoid, data):
    n = monoid.order
    a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    v = data.draw(st.integers(0, n - 1).filter(lambda v: v != monoid.table[a][b]))
    validates_like_the_triple_scan(monoid, a, b, v)


def submonoid_generated(monoid, gens):
    """Oracle: the identity and gens, closed under every product."""
    reached = {monoid.identity, *gens}
    while True:
        more = {monoid.table[a][b] for a in reached for b in reached} - reached
        if not more:
            return reached
        reached |= more


def test_generating_sets_generate_and_each_generator_is_new():
    monoids = [m for order in range(1, 5) for m in all_monoids(order)]
    for monoid in monoids + [full_transformation_monoid(3)]:
        n = monoid.order
        for weight in (None, [n - a for a in range(n)]):
            gens = generating_set(monoid, weight)
            key = (lambda a: a) if weight is None else (lambda a: (weight[a], a))
            assert gens == sorted(gens, key=key)
            assert submonoid_generated(monoid, gens) == set(range(n))
            for k, g in enumerate(gens):
                assert g not in submonoid_generated(monoid, gens[:k])
