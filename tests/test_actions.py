import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topact.actions import (MSet, NotAnAction, NotContinuousInput, NotEquivariantMap,
                            continuous_part, enumerate_mset_homs, epi_mono_factorize,
                            exponential_mset, is_continuous_mset, mset_product,
                            msets_isomorphic, necessary_clopen, orbit_congruence,
                            power_mset, power_of_m, quotient_mset,
                            regular_mset, restrict_mset, subobject_classifier,
                            terminal_mset, validate_mset, validate_mset_hom)
from topact.catalog import (action_topologies, all_monoids, all_msets, all_topologies,
                            continuous_msets, cyclic, two_idempotents)
from topact.congruences import (congruence_from_class_map, diagonal, enumerate_congruences,
                                generated_congruence, leq, meet, open_congruences, total)
from topact.reflections import congruence_set, continuous_subsets
from topact.topology import discrete_topology, is_continuous
from topact.util import bits, full_mask, mask_of

from conftest import (action_orbit, all_msets_by_columns, relation_mask,
                      transformation_closure, transformation_monoid, transformation_monoids)


def _action_law(cols, monoid, carrier):
    """x·(m·n) = (x·m)·n for every m, n and x, where cols[m] is x ↦ x·m."""
    for m in range(monoid.order):
        for n in range(monoid.order):
            mn = monoid.table[m][n]
            for x in range(carrier):
                if cols[n][cols[m][x]] != cols[mn][x]:
                    return False
    return True


def msets_by_brute_force(monoid, carrier):
    """Oracle for all_msets: every tuple of self-maps, one per non-identity
    element, checked against the action law, the first of each orbit under
    carrier permutation kept."""
    names = tuple(f"p{i}" for i in range(carrier))
    functions = list(itertools.product(range(carrier), repeat=carrier))
    non_identity = [m for m in range(monoid.order) if m != monoid.identity]
    seen = set()
    out = []
    for choice in itertools.product(functions, repeat=len(non_identity)):
        cols = [tuple(range(carrier))] * monoid.order
        for m, f in zip(non_identity, choice):
            cols[m] = f
        if not _action_law(cols, monoid, carrier):
            continue
        canon = action_orbit(cols, carrier)
        if canon not in seen:
            seen.add(canon)
            out.append(MSet(monoid, names, tuple(
                tuple(cols[m][x] for m in range(monoid.order)) for x in range(carrier))))
    return tuple(out)


def test_all_msets_matches_the_brute_force_through_order_three():
    for order in (1, 2, 3):
        for monoid in all_monoids(order):
            for carrier in (1, 2, 3, 4):
                assert all_msets(monoid, carrier) == msets_by_brute_force(monoid, carrier)


def test_all_msets_matches_the_every_column_search_at_order_four():
    for monoid in all_monoids(4):
        for carrier in (1, 2, 3):
            assert all_msets(monoid, carrier) == all_msets_by_columns(monoid, carrier)


def test_all_msets_counts_one_generator_maps_up_to_conjugacy():
    """An action of C2, {1, e} or C3 is one map f with f² = 1, f² = f or
    f³ = 1: involutions, idempotents and order-3 maps up to conjugacy."""
    counts = {name: [len(all_msets(monoid, k)) for k in (1, 2, 3, 4)]
              for name, monoid in (("C2", cyclic(2)), ("E", two_idempotents()),
                                   ("C3", cyclic(3)))}
    assert counts == {"C2": [1, 2, 2, 3], "E": [1, 2, 3, 5], "C3": [1, 1, 2, 2]}


def trivial_action(monoid, size=2):
    return MSet(monoid, tuple(f"t{i}" for i in range(size)),
                tuple((x,) * monoid.order for x in range(size)))


def test_validate_mset_laws(c2):
    with pytest.raises(NotAnAction):
        validate_mset(c2, ("a", "b"), [(1, 0), (0, 1)])  # identity moves points
    validate_mset(c2, ("a", "b"), [(0, 1), (1, 0)])


def test_necessary_clopen_trivial_and_regular(c2, m_lz):
    triv = trivial_action(c2)
    assert necessary_clopen(triv, 0, 1) == full_mask(2)
    reg = regular_mset(c2)
    assert necessary_clopen(reg, 0, 1) == 0b10
    reg_lz = regular_mset(m_lz)
    for p in range(3):
        assert necessary_clopen(reg_lz, 1, p) == full_mask(3)


def test_necessary_clopens_partition_the_monoid(m_lz, c4):
    for monoid in (m_lz, c4):
        reg = regular_mset(monoid)
        for x in range(reg.size):
            masks = {necessary_clopen(reg, x, p) for p in range(monoid.order)}
            assert sum(mask.bit_count() for mask in masks) == monoid.order


def test_orbit_congruence(c2, m_lz):
    assert orbit_congruence(regular_mset(c2), 0) == diagonal(c2)
    assert orbit_congruence(trivial_action(c2), 0) == total(c2)
    assert orbit_congruence(regular_mset(m_lz), 1) == total(m_lz)


def test_orbit_congruences_of_every_small_mset_are_right_stable():
    for order in (1, 2, 3):
        for monoid in all_monoids(order):
            for carrier in (1, 2, 3, 4):
                for mset in all_msets(monoid, carrier):
                    for x in range(carrier):
                        r = orbit_congruence(mset, x)
                        assert congruence_from_class_map(monoid, r.class_of) == r


def test_continuity_discrete_always(m_lz):
    for mset in all_msets(m_lz, 3):
        assert is_continuous_mset(mset, discrete_topology(3))[0]


def test_continuity_witness(m_lz, tau_a):
    ok, witness = is_continuous_mset(regular_mset(m_lz), tau_a)
    assert not ok
    x, p = witness
    assert not tau_a.is_open(necessary_clopen(regular_mset(m_lz), x, p))


def continuity_by_scan(mset, topology):
    """Oracle for is_continuous_mset: each necessary clopen tested for
    openness, (x, p) in row-major order, the first failure the witness."""
    for x in range(mset.size):
        for p in range(mset.monoid.order):
            if not topology.is_open(necessary_clopen(mset, x, p)):
                return False, (x, p)
    return True, None


def test_continuity_and_witness_match_the_scan_through_order_three():
    failures = 0
    for order in (1, 2, 3):
        for monoid in all_monoids(order):
            for carrier in (1, 2, 3):
                for mset in all_msets(monoid, carrier):
                    for topology in all_topologies(order):
                        expected = continuity_by_scan(mset, topology)
                        assert is_continuous_mset(mset, topology) == expected
                        failures += not expected[0]
    assert failures > 0


def test_quotient_by_split_is_continuous(m_lz, tau_a):
    r1 = generated_congruence(m_lz, [(1, 2)])
    ok, _ = is_continuous_mset(quotient_mset(m_lz, r1), tau_a)
    assert ok


def test_continuous_part_discrete(m_lz):
    reg = regular_mset(m_lz)
    assert continuous_part(reg, discrete_topology(3)) == full_mask(3)


def test_continuous_part_regular_split(m_lz, tau_a):
    assert continuous_part(regular_mset(m_lz), tau_a) == 0b110


def test_continuous_part_quotient_split(m_lz, tau_a):
    r1 = generated_congruence(m_lz, [(1, 2)])
    q = quotient_mset(m_lz, r1)
    assert continuous_part(q, tau_a) == full_mask(q.size)


def test_coreflection_receives_all_maps_from_continuous():
    for monoid in all_monoids(2) + all_monoids(3)[:4]:
        for topology in all_topologies(monoid.order):
            for target in all_msets(monoid, 3):
                mask = continuous_part(target, topology)
                for source in all_msets(monoid, 2):
                    if not is_continuous_mset(source, topology)[0]:
                        continue
                    for hom in enumerate_mset_homs(source, target):
                        assert mask_of(hom) & ~mask == 0


def test_power_mset_values(c2, m_lz):
    p2 = power_of_m(c2)
    assert p2.act[0b01][1] == 0b10  # inverse image of {0} under +1
    plz = power_of_m(m_lz)
    assert plz.act[0b010][1] == 0b111  # x pulls {x} back to everything
    for power in (p2, plz):
        full = power.size - 1
        for g in range(power.monoid.order):
            assert power.act[0][g] == 0
            assert power.act[full][g] == full


def test_power_set_clopens_respect_complements(m_lz, c4):
    # the clopen at A and at its complement coincide, and each lands inside
    # A or its complement according to the side p lies on
    for monoid in (m_lz, c4):
        power = power_of_m(monoid)
        full = (1 << monoid.order) - 1
        for a in range(1 << monoid.order):
            for p in range(monoid.order):
                clopen = necessary_clopen(power, a, p)
                assert clopen == necessary_clopen(power, full & ~a, p)
                if a >> p & 1:
                    assert clopen & ~a == 0
                else:
                    assert clopen & a == 0


def test_clopens_are_fixed_points_of_their_own_clopen_map(m_lz, c4, n2):
    # necessary clopens of any action are fixed points of their own clopen map
    for monoid in (m_lz, c4, n2):
        power = power_of_m(monoid)
        for mset in all_msets(monoid, 3):
            for x in range(mset.size):
                for p in range(monoid.order):
                    a = necessary_clopen(mset, x, p)
                    for p2 in bits(a):
                        assert necessary_clopen(power, a, p2) == a


def power_of_m_squared(monoid):
    """The powerset of M x M under the diagonal left action, hosting the
    relations: 2^(|M|^2) points, so only for the smallest monoids."""
    n = monoid.order
    left = [[monoid.table[g][a] * n + monoid.table[g][b]
             for a in range(n) for b in range(n)]
            for g in range(n)]
    names = [f"({monoid.elements[a]},{monoid.elements[b]})"
             for a in range(n) for b in range(n)]
    return power_mset(monoid, left, names)


def test_orbit_congruence_on_relations_is_increasing(m_lz, c4, m_rz):
    for monoid in (m_lz, c4, m_rz):
        squared = power_of_m_squared(monoid)
        for r in enumerate_congruences(monoid):
            frak = orbit_congruence(squared, relation_mask(r))
            assert leq(r, frak)
            for q in range(monoid.order):
                from topact.congruences import inverse_image_congruence
                lhs = orbit_congruence(
                    squared, squared.act[relation_mask(r)][q])
                assert lhs == inverse_image_congruence(monoid, q, frak)


def test_orbit_congruence_meet_superset(m_lz, m_rz):
    for monoid in (m_lz, m_rz):
        squared = power_of_m_squared(monoid)
        lattice = enumerate_congruences(monoid)
        for r in lattice:
            for s in lattice:
                frak_meet = orbit_congruence(squared, relation_mask(r)
                                             & relation_mask(s))
                both = meet(orbit_congruence(squared, relation_mask(r)),
                            orbit_congruence(squared, relation_mask(s)))
                assert leq(both, frak_meet)


def test_subobject_classifier_group(c2):
    omega = subobject_classifier(c2)
    assert omega.ideal_masks == (0, 3)


def test_subobject_classifier_left_zero(m_lz):
    omega = subobject_classifier(m_lz)
    # oracle: scan all 8 subsets for right-ideal property
    expected = tuple(a for a in range(8)
                     if all(a >> m_lz.table[x][m] & 1
                            for x in bits(a) for m in range(3)))
    assert omega.ideal_masks == expected == (0, 2, 4, 6, 7)
    assert omega.retraction[0b001] == 0b111  # the identity generates everything


def test_subobject_classifier_acts_on_right_ideals_through_order_four():
    for order in (1, 2, 3, 4):
        for monoid in all_monoids(order):
            omega = subobject_classifier(monoid)
            power = power_of_m(monoid)
            ideals = omega.ideal_masks
            for i, a in enumerate(ideals):
                assert all(a >> monoid.table[x][m] & 1 for x in bits(a) for m in range(order))
                # the inverse image by each g is again a right ideal, and the
                # classifier acts as the powerset does
                assert tuple(ideals[j] for j in omega.mset.act[i]) == power.act[a]


def test_quotient_mset_shapes(c4, m_lz):
    assert msets_isomorphic(quotient_mset(c4, diagonal(c4)), regular_mset(c4))
    assert quotient_mset(c4, total(c4)).size == 1
    r1 = generated_congruence(m_lz, [(1, 2)])
    q = quotient_mset(m_lz, r1)
    assert q.carrier == ("[1]", "[x]")
    assert q.act == ((0, 1, 1), (1, 1, 1))


def test_quotient_mset_is_a_well_defined_action_through_order_four():
    for order in (1, 2, 3, 4):
        for monoid in all_monoids(order):
            for r in enumerate_congruences(monoid):
                q = quotient_mset(monoid, r)
                assert validate_mset(monoid, q.carrier, q.act) == q
                assert all(q.act[r.class_of[a]][m] == r.class_of[monoid.table[a][m]]
                           for a in range(order) for m in range(order))


def test_epi_mono_factorize(m_lz):
    r1 = generated_congruence(m_lz, [(1, 2)])
    q = quotient_mset(m_lz, r1)
    point = terminal_mset(m_lz)
    hom = validate_mset_hom(point, q, (1,))
    first, second = epi_mono_factorize(hom)
    assert first.target.carrier == ("[x]",)
    assert tuple(second.map[v] for v in first.map) == hom.map


def test_epi_mono_identity(c2):
    reg = regular_mset(c2)
    hom = validate_mset_hom(reg, reg, (0, 1))
    first, second = epi_mono_factorize(hom)
    assert first.map == (0, 1) and second.map == (0, 1)


def test_hom_validation_rejects_nonequivariant(c2):
    reg = regular_mset(c2)
    with pytest.raises(NotEquivariantMap):
        validate_mset_hom(reg, reg, (0, 0))


def test_finite_limits_of_continuous_are_continuous(m_lz, tau_a):
    r1 = generated_congruence(m_lz, [(1, 2)])
    q = quotient_mset(m_lz, r1)
    prod = mset_product(q, q)
    assert is_continuous_mset(prod, tau_a)[0]
    # equalizer of two homs is a sub-M-set, also continuous
    homs = enumerate_mset_homs(prod, q)
    for h1 in homs:
        for h2 in homs:
            eq_mask = mask_of(x for x in range(prod.size) if h1[x] == h2[x])
            if eq_mask and all(prod.act[x][m] in set(bits(eq_mask))
                               for x in bits(eq_mask) for m in range(3)):
                assert is_continuous_mset(restrict_mset(prod, eq_mask), tau_a)[0]


def test_continuous_part_agrees_with_action_topology():
    # the coreflection only sees the action topology
    for monoid in all_monoids(2) + all_monoids(3):
        for topology in all_topologies(monoid.order):
            tilde = continuous_subsets(monoid, topology).topology
            for k in (1, 2, 3, 4):
                for mset in all_msets(monoid, k):
                    assert continuous_part(mset, topology) \
                        == continuous_part(mset, tilde)


def _necessary_clopens(mset):
    return [frozenset(necessary_clopen(mset, y, p) for p in range(mset.monoid.order))
            for y in range(mset.size)]


def left_translations_continuous(monoid, topology):
    return all(is_continuous(monoid.table[q], topology, topology)
               for q in range(monoid.order))


def test_continuous_part_matches_necessary_clopens_of_translates():
    # oracle: x is kept when every necessary clopen of every translate x·q is
    # open; when left translations are continuous, the points whose own
    # necessary clopens are open (the simplified formula) are the same
    simplified = 0
    for order in (1, 2, 3, 4):
        for monoid in all_monoids(order):
            msets = (regular_mset(monoid), power_of_m(monoid), congruence_set(monoid))
            clopens = [_necessary_clopens(mset) for mset in msets]
            for topology in all_topologies(order):
                left_continuous = left_translations_continuous(monoid, topology)
                for mset, own in zip(msets, clopens):
                    flags = [sets <= topology.opens for sets in own]
                    expected = mask_of(x for x in range(mset.size)
                                       if all(flags[y] for y in mset.act[x]))
                    assert continuous_part(mset, topology) == expected
                    if left_continuous:
                        assert mask_of(x for x, flag in enumerate(flags) if flag) == expected
                        simplified += 1
    assert simplified > 0


def exponential_act_by_formula(x, y, topology):
    """Oracle for exponential_mset's action: each hom h of M×X -> Y moved
    by each m to (n, p) ↦ h(m·n, p), looked up among the homs, and the
    continuous part of that action."""
    monoid = x.monoid
    homs = enumerate_mset_homs(mset_product(regular_mset(monoid), x), y)
    index = {h: i for i, h in enumerate(homs)}
    act = tuple(tuple(index[tuple(h[monoid.table[m][n] * x.size + p]
                                  for n in range(monoid.order) for p in range(x.size))]
                      for m in range(monoid.order))
                for h in homs)
    ambient = MSet(monoid, tuple(f"f{i}" for i in range(len(homs))), act)
    return restrict_mset(ambient, continuous_part(ambient, topology)).act


def test_exponential_action_matches_the_per_hom_formula_on_criterion_10():
    """Every (X, Y) of acceptance criterion 10; the order-1 monoid gives
    X with one point, where the base M×X has a single point."""
    pairs = 0
    for order in (1, 2, 3):
        for monoid in all_monoids(order):
            for topology in action_topologies(monoid):
                principal = [quotient_mset(monoid, r)
                             for r in open_congruences(monoid, topology).members]
                inputs = [(x, y) for x in principal for y in principal]
                inputs += [(terminal_mset(monoid), y)
                           for y in continuous_msets(monoid, topology, 4)]
                for x, y in inputs:
                    pairs += 1
                    assert (exponential_mset(x, y, topology).mset.act
                            == exponential_act_by_formula(x, y, topology))
    assert pairs > 0


def test_exponential_requires_continuous_inputs(m_lz, tau_a):
    with pytest.raises(NotContinuousInput):
        exponential_mset(regular_mset(m_lz), regular_mset(m_lz), tau_a)


def test_exponential_carrier_cap(c2):
    from topact.errors import CapExceeded
    big = trivial_action(c2, 65)
    with pytest.raises(CapExceeded):
        exponential_mset(big, big, discrete_topology(2))


def test_power_mset_rejects_non_action(c2):
    with pytest.raises(NotAnAction):
        # identity row must fix every point
        power_mset(c2, [[1, 0], [0, 1]], ("a", "b"))


def test_exponential_evaluation_accessor(c2):
    reg = regular_mset(c2)
    expo = exponential_mset(reg, reg, discrete_topology(2))
    for h in range(expo.mset.size):
        for m in range(2):
            for x in range(2):
                assert expo.evaluate(h, m, x) == expo.hom_maps[h][m * 2 + x]


def test_exponential_by_terminal_is_identity(c2, m_lz, tau_a):
    for monoid, topology in ((c2, discrete_topology(2)), (m_lz, tau_a)):
        r1_members = enumerate_congruences(monoid)
        for r in r1_members:
            y = quotient_mset(monoid, r)
            if not is_continuous_mset(y, topology)[0]:
                continue
            expo = exponential_mset(terminal_mset(monoid), y, topology)
            assert msets_isomorphic(expo.mset, y)


def test_exponential_regular_square_c2(c2):
    reg = regular_mset(c2)
    expo = exponential_mset(reg, reg, discrete_topology(2))
    assert expo.mset.size == 4


def test_exponential_currying_split_quotient(m_lz, tau_a):
    r1 = generated_congruence(m_lz, [(1, 2)])
    x = quotient_mset(m_lz, r1)
    expo = exponential_mset(x, x, tau_a)
    index = {h: i for i, h in enumerate(expo.hom_maps)}
    z = x
    zx = mset_product(z, x)
    lhs = enumerate_mset_homs(zx, x)
    rhs = set(enumerate_mset_homs(z, expo.mset))
    curried = set()
    for f in lhs:
        image = tuple(index[tuple(f[z.act[zi][n] * x.size + p]
                                  for n in range(3) for p in range(x.size))]
                      for zi in range(z.size))
        curried.add(image)
    assert len(curried) == len(lhs)
    assert curried == rhs


def brute_force_homs(source, target):
    """The oracle for the hom search: every map of carriers, in sorted order,
    kept when it commutes with the action."""
    order = source.monoid.order
    return tuple(f for f in itertools.product(range(target.size), repeat=source.size)
                 if all(f[source.act[x][m]] == target.act[f[x]][m]
                        for x in range(source.size) for m in range(order)))


def test_hom_search_matches_brute_force_through_order_three():
    pairs = 0
    for monoid in all_monoids(1) + all_monoids(2) + all_monoids(3):
        msets = [mset for k in (1, 2, 3) for mset in all_msets(monoid, k)]
        for x in msets:
            for y in msets:
                assert enumerate_mset_homs(x, y) == brute_force_homs(x, y)
                pairs += 1
    assert pairs == 516


def test_hom_search_overlapping_orbits_against_27_points():
    # orbits that share a point, like those of 1 and 2 in
    # ((0,0,0), (1,0,0), (2,0,0)), leave the second generator a point fixed
    # by the first while many partial maps are alive: the hash-join level
    sources = 0
    for monoid in all_monoids(3):
        msets = all_msets(monoid, 3)
        target = mset_product(mset_product(msets[0], msets[len(msets) // 2]), msets[-1])
        for x in msets:
            orbits = [set(row) for row in x.act]
            if any(a & b and not a <= b and not b <= a for a in orbits for b in orbits):
                assert enumerate_mset_homs(x, target) == brute_force_homs(x, target)
                sources += 1
    assert sources == 8


def test_hom_search_matches_a_lone_partial_map_to_fixed_points():
    # x0 can only go to y1, so one partial map reaches the next generator,
    # x1, whose orbit meets x0's at x4 and x5; y0 passes x1's own check
    # but would send x4 to y0
    monoid = transformation_monoid(
        transformation_closure([(2, 1, 2, 0), (0, 1, 1, 0)], 4, 8))
    x = validate_mset(monoid, [f"x{i}" for i in range(6)],
                      [(0, 4, 3, 4, 5, 4, 5, 5), (1, 4, 5, 4, 5, 5, 5, 5),
                       (2, 5, 5, 5, 5, 5, 5, 5), (3, 4, 3, 4, 5, 4, 5, 5),
                       (4, 4, 5, 4, 5, 5, 5, 5), (5,) * 8])
    y = validate_mset(monoid, ["y0", "y1"], [(0, 0, 1, 0, 1, 1, 1, 1), (1,) * 8])
    assert enumerate_mset_homs(x, y) == brute_force_homs(x, y) == ((1,) * 6,)


@st.composite
def transformation_msets(draw):
    """A transformation monoid from the shared strategy (order 5 to 20, on
    {0..4}), with M-sets made from its quotients, its action on {0..4},
    the terminal M-set and their products.  Each quotient is by the right
    congruence generated by up to order - 1 drawn pairs, which reaches
    every right congruence without enumerating the lattice (some of these
    monoids have more right congruences than the enumeration cap).  A pair (X, Y) is drawn from
    those with 2 to 4096 maps X -> Y, so that the brute force stays cheap,
    the pairs with the most maps first (Hypothesis favours early members).
    The regular M-set, of at least 5 points, makes at least one such
    pair."""
    monoid = draw(transformation_monoids())
    basic = [terminal_mset(monoid), regular_mset(monoid),
             MSet(monoid, ("0", "1", "2", "3", "4"),
                  tuple(tuple(int(e[x]) for e in monoid.elements) for x in range(5)))]
    element = st.integers(0, monoid.order - 1)
    for _ in range(2):
        pairs = draw(st.lists(st.tuples(element, element), max_size=monoid.order - 1))
        basic.append(quotient_mset(monoid, generated_congruence(monoid, pairs)))
    pool = basic + [mset_product(a, b) for a in basic[1:] for b in basic[1:]
                    if a.size * b.size <= 16]
    pairs = [(x, y) for x in pool for y in pool if 1 < y.size ** x.size <= 4096]
    pairs.sort(key=lambda pair: -pair[1].size ** pair[0].size)
    return draw(st.sampled_from(pairs))


@settings(max_examples=40, deadline=None)
@given(transformation_msets())
def test_hom_search_matches_brute_force_beyond_order_four(pair):
    x, y = pair
    assert enumerate_mset_homs(x, y) == brute_force_homs(x, y)
