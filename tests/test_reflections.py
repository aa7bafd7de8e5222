import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (atom_image_congruence, full_transformation_monoid,
                      induced_topology_by_powerset, is_topological_filter_by_scan,
                      open_congruences_by_scan, preorder_topologies, relabeled_monoid,
                      relabeled_topology, transformation_monoids)
from topact.actions import (continuous_part, is_continuous_mset, necessary_clopen,
                            orbit_congruence, power_of_m, quotient_mset)
from topact.catalog import all_monoids, all_topologies, cyclic
from topact.congruences import (CongruenceLattice, RightCongruence, _partition_topology,
                                _quotient_monoid,
                                congruence_from_class_map, diagonal,
                                enumerate_congruences, enumerate_filters, filter_generated,
                                full_filter, generated_congruence, inverse_image_congruence,
                                is_two_sided, open_congruences, total)
from topact.errors import CapExceeded
from topact.monoid import FiniteMonoid, opposite, validate_hom, validate_monoid
from topact.reflections import (NotTopologicalMonoid,
                                congruence_hat_topology, congruence_set,
                                continuous_subsets,
                                induced_topology_from_filter, is_topological_filter,
                                is_topological_monoid, least_open_congruence,
                                left_action_topology, mult_continuous_core,
                                powder_reflection, t0_quotient, two_sided_commutation)
from topact.invariants import FiniteCategory, monoids_isomorphic
from topact.topology import (discrete_topology, generate_topology,
                             indiscrete_topology, is_open_in_product,
                             partition_topology, separation_report)
from topact.util import bits, mask_of


def is_topological_monoid_by_preimages(monoid, topology):
    """Oracle for is_topological_monoid: the preimage of every open under
    multiplication is open in the product."""
    n = monoid.order
    for u in topology.opens:
        pre = mask_of(a * n + b for a in range(n) for b in range(n)
                      if u >> monoid.table[a][b] & 1)
        if not is_open_in_product(pre, topology, topology):
            return False
    return True


def powerset_continuous_sets(monoid, topology):
    """Oracle for the action topology: the continuous part of the 2^|M|-point
    powerset action, and the topology it spans."""
    masks = tuple(bits(continuous_part(power_of_m(monoid), topology)))
    return masks, generate_topology(monoid.order, masks)


def assert_boolean_algebra_closed_under_the_action(monoid, topology, masks):
    power = power_of_m(monoid)
    members = set(masks)
    for a in masks:
        assert topology.full & ~a in members
        assert all(a & b in members for b in masks)
        assert all(power.act[a][g] in members for g in range(monoid.order))


def mult_core_by_opens(monoid, topology):
    """Oracle for mult_continuous_core: repeatedly discard the opens whose
    preimage under multiplication is not open in the current square."""
    n = monoid.order
    current = topology
    while True:
        kept = []
        for u in current.opens:
            pre = mask_of(a * n + b for a in range(n) for b in range(n)
                          if u >> monoid.table[a][b] & 1)
            if is_open_in_product(pre, current, current):
                kept.append(u)
        nxt = generate_topology(n, kept)
        if nxt == current:
            return current
        current = nxt


def assert_two_sided_with_open_classes(report, topology):
    """The action-topology partition is a two-sided congruence whose
    classes are open in the input topology."""
    assert is_two_sided(report.partition)
    assert all(topology.is_open(mask_of(c)) for c in report.partition.classes())


def assert_reflections_match_oracles(monoid, topology, closure_checks=True):
    report = continuous_subsets(monoid, topology)
    masks, tilde = powerset_continuous_sets(monoid, topology)
    assert report.continuous_sets == masks
    assert report.topology == tilde
    assert report.is_action_topology == (tilde == topology)
    assert_two_sided_with_open_classes(report, topology)
    if closure_checks:
        assert_boolean_algebra_closed_under_the_action(monoid, topology, masks)
    left_masks, left_tilde = powerset_continuous_sets(opposite(monoid), topology)
    left = left_action_topology(monoid, topology)
    assert left.continuous_sets == left_masks and left.topology == left_tilde
    assert_two_sided_with_open_classes(left, topology)
    # r0 is the two-sided congruence generated by the components, so it is
    # the same on M and on its opposite
    assert left.partition.class_of == report.partition.class_of
    core = mult_continuous_core(monoid, topology)
    assert core == mult_core_by_opens(monoid, topology)
    assert is_topological_monoid(monoid, core)
    try:
        _, q_top, projection = t0_quotient(monoid, topology)
    except NotTopologicalMonoid:
        return
    assert is_two_sided(RightCongruence(monoid, projection.map))
    assert separation_report(q_top).t0


def test_reflections_match_their_oracles_through_order_four():
    cells = 0
    for order in (1, 2, 3, 4):
        for monoid in all_monoids(order):
            for topology in all_topologies(order):
                assert_reflections_match_oracles(monoid, topology)
                cells += 1
    assert cells == 12637


def test_least_open_congruence_is_the_least_open_member():
    for order in (1, 2, 3, 4):
        for monoid in all_monoids(order):
            for topology in all_topologies(order)[::5]:
                assert least_open_congruence(monoid, topology) \
                    == open_congruences_by_scan(monoid, topology).least


def assert_one_value_per_r0(monoid, topologies):
    """Topologies with equal r0 get the identical r0, action topology and
    powder monoid, each equal to a fresh build; the store on the monoid
    holds only two-sided congruences of it.  The memo starts empty, so that
    no equal monoid's r0 is returned from it."""
    least_open_congruence.cache_clear()
    first = {}
    for topology in topologies:
        r0 = least_open_congruence(monoid, topology)
        report = continuous_subsets(monoid, topology)
        powder = powder_reflection(monoid, topology)
        assert report.partition is r0 and powder.action_report.partition is r0
        values = (r0, report.topology, powder.monoid)
        assert all(a is b for a, b in zip(first.setdefault(r0.class_of, values), values))
        assert report.topology == _partition_topology(r0)
        assert report.is_action_topology == (report.topology == topology)
        quotient, projection = _quotient_monoid(monoid, r0)
        assert powder.monoid.elements == quotient.elements
        assert powder.monoid.table == quotient.table
        assert powder.monoid.identity == quotient.identity
        assert powder.projection.map == projection.map
        assert powder.projection.target is powder.monoid
    assert all(r.monoid is monoid and is_two_sided(r) for r in monoid.r0s.values())
    assert len(monoid.r0s) <= len(enumerate_filters(monoid))
    return first


def test_one_r0_action_topology_and_powder_per_class_map_through_order_four():
    rng = random.Random(29)
    cells = shared = 0
    for order in (1, 2, 3, 4):
        topologies = all_topologies(order)
        for monoid in all_monoids(order):
            classes = assert_one_value_per_r0(monoid, topologies)
            cells += len(topologies)
            shared += len(topologies) - len(classes)
            copy = relabeled_monoid(monoid, rng)
            moved = [relabeled_topology(monoid, copy, t) for t in topologies]
            assert len(assert_one_value_per_r0(copy, moved)) == len(classes)
    assert cells == 12637
    # most topologies share their r0 with an earlier one
    assert shared > cells // 2


def test_an_equal_distinct_monoid_gets_equal_correctly_named_results():
    for order in (2, 3, 4):
        topologies = all_topologies(order)[::7]
        for monoid in all_monoids(order):
            twin = FiniteMonoid(monoid.elements, monoid.table, monoid.identity)
            assert twin is not monoid and twin == monoid
            # the twin first, so that it fills its own store
            least_open_congruence.cache_clear()
            for topology in topologies:
                ours = powder_reflection(twin, topology)
                r0 = ours.action_report.partition
                assert r0.monoid is twin and twin.r0s[r0.class_of] is r0
                assert ours.monoid.elements \
                    == tuple(f"[{twin.elements[m]}]" for m in r0.representatives())
                theirs = powder_reflection(monoid, topology)
                # the memo hands out class maps, so each monoid gets its own r0
                assert theirs.action_report.partition.monoid is monoid
                assert theirs.projection.source is monoid
                assert ours.monoid == theirs.monoid
                assert ours.projection.map == theirs.projection.map
                assert ours.action_report == theirs.action_report
                assert r0.label() == theirs.action_report.partition.label()


@settings(max_examples=40, deadline=None)
@given(transformation_monoids(orders=(5, 12)), st.data())
def test_reflections_match_their_oracles_on_transformation_monoids(monoid, data):
    topology = data.draw(preorder_topologies(monoid.order))
    # the closure checks are quadratic in the 2^k continuous subsets
    assert_reflections_match_oracles(monoid, topology, closure_checks=False)
    assert_multiplication_checks_are_metamorphic(
        monoid, topology, data.draw(st.randoms(use_true_random=False)))
    r0 = least_open_congruence(monoid, topology)
    assert is_continuous_mset(quotient_mset(monoid, r0), topology)[0]
    assert open_congruences(monoid, topology).members \
        == open_congruences_by_scan(monoid, topology).members


def test_atom_image_congruence_matches_the_powerset_orbit_congruence():
    checked = 0
    for order in (1, 2, 3, 4):
        for monoid in all_monoids(order):
            power = power_of_m(monoid)
            for r in enumerate_congruences(monoid):
                for cls in r.classes():
                    expected = orbit_congruence(power, mask_of(cls))
                    for p in cls:
                        assert atom_image_congruence(monoid, r, p) == expected
                        checked += 1
    assert checked > 0


def test_congruence_set_matches_inverse_images_through_order_four():
    for order in (1, 2, 3, 4):
        for monoid in all_monoids(order):
            lattice = enumerate_congruences(monoid)
            index = {r: i for i, r in enumerate(lattice)}
            relations = congruence_set(monoid)
            assert relations.carrier == tuple(r.label() for r in lattice)
            assert relations.act == tuple(
                tuple(index[inverse_image_congruence(monoid, q, r)] for q in range(order))
                for r in lattice)


def test_continuous_subsets_discrete_indiscrete(m_lz):
    rep = continuous_subsets(m_lz, discrete_topology(3))
    assert rep.continuous_sets == tuple(range(8))
    assert rep.topology.is_discrete() and rep.is_action_topology
    rep = continuous_subsets(m_lz, indiscrete_topology(3))
    assert rep.continuous_sets == (0, 7)
    assert rep.is_action_topology


def test_continuous_subsets_split(m_lz, tau_a):
    rep = continuous_subsets(m_lz, tau_a)
    assert rep.continuous_sets == (0, 1, 6, 7)
    assert rep.topology.opens == tau_a.opens
    assert rep.is_action_topology


def test_reports_past_the_union_cap_compare_without_listing_unions():
    # 17 r0 classes: the union list passes its cap, but repr, == and hash
    # read only the partition and the topologies
    c17, disc = cyclic(17), discrete_topology(17)
    for build in (continuous_subsets, powder_reflection):
        first, second = build(c17, disc), build(c17, disc)
        assert "continuous_sets" not in repr(first)
        assert first == second and hash(first) == hash(second)
    with pytest.raises(CapExceeded, match="continuous-subset union list"):
        continuous_subsets(c17, disc).continuous_sets


FILLED_ONCE = [
    (lambda: generate_topology(4, [0b0011, 0b0110]), ("opens", "edges")),
    (lambda: cyclic(5), ("columns",)),
    (lambda: continuous_subsets(cyclic(4), partition_topology(4, [[0, 2], [1, 3]])),
     ("continuous_sets",)),
    # the identities of a and b and one arrow a → b, unvalidated, so that
    # nothing has read out or rank yet
    (lambda: FiniteCategory(("a", "b"), ("ida", "idb", "f"), (0, 1, 0), (0, 1, 1),
                            ((0, 2), (1,), (2,)), (0, 1), frozenset(), frozenset()),
     ("out", "rank", "fingerprint")),
    (lambda: CongruenceLattice(cyclic(4), enumerate_congruences(cyclic(4))), ("action",)),
]


@pytest.mark.parametrize("build, names", FILLED_ONCE,
                         ids=["Topology", "FiniteMonoid", "ActionTopologyReport",
                              "FiniteCategory", "CongruenceLattice"])
def test_filled_values_sit_on_the_instance_and_leave_eq_hash_repr(build, names):
    value, fresh = build(), build()
    before = (hash(value), repr(value))
    for name in names:
        assert name not in vars(value)
        first = getattr(value, name)
        assert vars(value)[name] is first and getattr(value, name) is first
    assert value == fresh and fresh == value
    assert (hash(value), repr(value)) == before == (hash(fresh), repr(fresh))


def test_continuous_sets_passed_in_are_kept(m_lz, tau_a):
    # dataclasses.replace passes continuous_sets to the constructor; a
    # replaced partition or topology lists its own unions again
    rep = continuous_subsets(m_lz, tau_a)
    dropped = dataclasses.replace(rep, continuous_sets=rep.continuous_sets[:-1])
    assert dropped.continuous_sets == (0, 1, 6) and dropped == rep
    rebuilt = dataclasses.replace(rep, partition=total(m_lz))
    assert rebuilt.continuous_sets == (0, 7)


def test_action_topology_universal_among_equal_categories():
    # coarsest topology with the same continuous quotients, checked against
    # every topology on the carrier
    for monoid in all_monoids(2) + all_monoids(3):
        for topology in all_topologies(monoid.order):
            tilde = continuous_subsets(monoid, topology).topology
            flt = open_congruences(monoid, topology)
            for other in all_topologies(monoid.order):
                if open_congruences(monoid, other).members == flt.members:
                    assert tilde.opens <= other.opens


def test_action_topology_laws_sampled_at_order_four():
    monoids = all_monoids(4)[::6]
    topologies = all_topologies(4)[::40]
    for monoid in monoids:
        for topology in topologies:
            rep = continuous_subsets(monoid, topology)
            assert rep.topology.opens <= topology.opens
            again = continuous_subsets(monoid, rep.topology)
            assert again.topology.opens == rep.topology.opens
            assert is_topological_monoid(monoid, rep.topology)
            assert open_congruences(monoid, topology).members \
                == open_congruences(monoid, rep.topology).members


def test_continuous_elements_contain_all_necessary_clopens():
    from topact.catalog import all_msets
    for monoid in all_monoids(2) + all_monoids(3)[:4]:
        for topology in all_topologies(monoid.order):
            t_sets = set(continuous_subsets(monoid, topology).continuous_sets)
            for mset in all_msets(monoid, 3):
                if not is_continuous_mset(mset, topology)[0]:
                    continue
                for x in range(mset.size):
                    for p in range(monoid.order):
                        assert necessary_clopen(mset, x, p) in t_sets


def test_clopen_orbits_form_a_base(m_lz, tau_a):
    # the necessary clopens of continuous subsets span the action topology
    for monoid, topology in ((m_lz, tau_a), (cyclic(4), discrete_topology(4))):
        rep = continuous_subsets(monoid, topology)
        power = power_of_m(monoid)
        pieces = [necessary_clopen(power, a, p)
                  for a in rep.continuous_sets for p in range(monoid.order)]
        for u in rep.topology.opens:
            acc = 0
            for piece in pieces:
                if piece & ~u == 0:
                    acc |= piece
            assert acc == u


def test_mult_core_fixpoint_cases(m_lz, tau_a):
    assert mult_continuous_core(m_lz, tau_a).opens == tau_a.opens
    assert mult_continuous_core(m_lz, discrete_topology(3)).is_discrete()
    start = generate_topology(3, [0b010])
    core = mult_continuous_core(m_lz, start)
    assert sorted(core.opens) == [0, 7]


def test_mult_core_is_finest_continuous_subtopology():
    for monoid in all_monoids(2) + all_monoids(3):
        for topology in all_topologies(monoid.order):
            core = mult_continuous_core(monoid, topology)
            assert is_topological_monoid(monoid, core)
            # every sub-topology making multiplication continuous sits inside
            for keep in itertools.product((0, 1), repeat=len(topology.opens)):
                opens = [u for u, k in zip(sorted(topology.opens), keep) if k]
                family = frozenset(opens) | {0, topology.full}
                if not _is_topology(family):
                    continue
                sub = generate_topology(monoid.order, family)
                if is_topological_monoid(monoid, sub):
                    assert sub.opens <= core.opens


def _is_topology(family):
    return all(a & b in family and a | b in family
               for a in family for b in family)


def test_t0_quotient_discrete_is_identity(c4):
    quotient, topology, projection = t0_quotient(c4, discrete_topology(4))
    assert quotient.order == 4 and topology.is_discrete()
    assert projection.map == (0, 1, 2, 3)


def test_t0_quotient_split(m_lz, tau_a, b2):
    quotient, topology, projection = t0_quotient(m_lz, tau_a)
    assert monoids_isomorphic(quotient, b2)
    assert topology.is_discrete()
    assert projection.map == (0, 1, 1)


def test_t0_quotient_indiscrete_is_trivial(m_lz):
    quotient, _, _ = t0_quotient(m_lz, indiscrete_topology(3))
    assert quotient.order == 1


def test_t0_quotient_needs_topological_monoid(m_lz):
    bad = generate_topology(3, [0b010])
    with pytest.raises(NotTopologicalMonoid):
        t0_quotient(m_lz, bad)


def test_powder_reflection_cases(m_lz, tau_a, b2, c4):
    reflection = powder_reflection(m_lz, discrete_topology(3))
    assert reflection.monoid.order == 3
    reflection = powder_reflection(m_lz, tau_a)
    assert monoids_isomorphic(reflection.monoid, b2)
    assert reflection.topology.is_discrete()
    coset = partition_topology(4, [[0, 2], [1, 3]])
    reflection = powder_reflection(c4, coset)
    assert reflection.action_report.topology.opens == coset.opens
    assert monoids_isomorphic(reflection.monoid, cyclic(2))


def test_left_action_topology(m_lz, tau_a, c4):
    # commutative monoid: left and right constructions coincide
    for topology in all_topologies(4)[::7]:
        left = left_action_topology(c4, topology)
        right = continuous_subsets(c4, topology)
        assert left.continuous_sets == right.continuous_sets
    rep = left_action_topology(m_lz, discrete_topology(3))
    assert rep.topology.is_discrete()
    # on the left-zero monoid the opposite is right-zero: computed directly
    mirrored = continuous_subsets(opposite(m_lz), tau_a)
    assert left_action_topology(m_lz, tau_a).continuous_sets \
        == mirrored.continuous_sets


def test_two_sided_commutation_examples(c4, m_lz, n2):
    assert two_sided_commutation(c4, discrete_topology(4))
    assert two_sided_commutation(m_lz, discrete_topology(3))
    # chain topology on truncated addition: T0 topological monoid, not discrete
    chain = generate_topology(3, [0b100, 0b110])
    assert is_topological_monoid(n2, chain)
    assert two_sided_commutation(n2, chain)
    with pytest.raises(NotTopologicalMonoid):
        two_sided_commutation(m_lz, indiscrete_topology(3))  # not T0


def test_induced_topology_from_filter_extremes(m_lz):
    report = induced_topology_from_filter(m_lz, full_filter(m_lz))
    assert report.topology.is_discrete()
    report = induced_topology_from_filter(
        m_lz, filter_generated(m_lz, [total(m_lz)]))
    assert sorted(report.topology.opens) == [0, 7]


def test_induced_topology_surjection_fixture(c4):
    mod2 = generated_congruence(c4, [(0, 2)])
    flt = filter_generated(c4, [mod2])
    report = induced_topology_from_filter(c4, flt)
    assert report.topology.opens == partition_topology(4, [[0, 2], [1, 3]]).opens
    assert report.is_action_topology


def assert_induced_topology_matches_powerset_scan(monoid, flt):
    report = induced_topology_from_filter(monoid, flt)
    expected = induced_topology_by_powerset(monoid, flt)
    assert report.topology == expected
    assert report.partition == flt.least
    assert report.is_action_topology
    assert set(report.continuous_sets) == set(expected.opens)
    return report


def test_induced_topology_quotients_continuous():
    filters = 0
    for order in (1, 2, 3, 4):
        for monoid in all_monoids(order):
            power = power_of_m(monoid)
            for flt in enumerate_filters(monoid):
                report = assert_induced_topology_matches_powerset_scan(monoid, flt)
                kept = tuple(a for a in range(1 << order)
                             if all(orbit_congruence(power, power.act[a][q]) in flt
                                    for q in range(order)))
                assert report.continuous_sets == kept
                assert_two_sided_with_open_classes(report, report.topology)
                for r in flt.members:
                    assert is_continuous_mset(quotient_mset(monoid, r),
                                              report.topology)[0]
                filters += 1
    assert filters == 217


@settings(max_examples=10, deadline=None)
@given(transformation_monoids(orders=(5, 10)))
def test_induced_topology_matches_powerset_scan_on_transformation_monoids(monoid):
    for flt in enumerate_filters(monoid):
        assert_induced_topology_matches_powerset_scan(monoid, flt)


def test_quotient_monoid_passes_validation_on_two_sided_congruences():
    quotients = 0
    monoids = [m for order in (1, 2, 3, 4) for m in all_monoids(order)]
    for monoid in monoids + [full_transformation_monoid(3)]:
        for r in enumerate_congruences(monoid):
            if not is_two_sided(r):
                continue
            quotient, projection = _quotient_monoid(monoid, r)
            assert validate_monoid(quotient.elements, quotient.table,
                                   quotient.identity) == quotient
            assert validate_hom(monoid, quotient, projection.map) == projection
            quotients += 1
    assert quotients == 217 + 7


def test_topological_filter_agrees_with_open_congruence_roundtrip():
    filters = 0
    monoids = [m for order in (1, 2, 3, 4) for m in all_monoids(order)]
    for monoid in monoids + [full_transformation_monoid(3)]:
        for flt in enumerate_filters(monoid):
            outcome = is_topological_filter(monoid, flt)
            assert outcome == is_topological_filter_by_scan(monoid, flt)
            induced = induced_topology_from_filter(monoid, flt).topology
            roundtrip = open_congruences(monoid, induced)
            assert outcome[0] == (roundtrip.members == flt.members)
            filters += 1
    assert filters == 217 + 7


def test_every_small_filter_is_topological():
    # every equivariant filter on a finite monoid is the up-set of a
    # two-sided congruence, i.e. the filter of a surjective monoid quotient,
    # and those are always topological; exhaustively confirmed through order 4
    for order in (1, 2, 3, 4):
        for monoid in all_monoids(order):
            for flt in enumerate_filters(monoid):
                assert is_topological_filter(monoid, flt)[0]


def test_open_congruence_filters_are_topological():
    for monoid in all_monoids(3):
        for topology in all_topologies(3)[::3]:
            flt = open_congruences(monoid, topology)
            assert is_topological_filter(monoid, flt)[0]


def test_hat_topology_cases(m_lz, tau_a):
    assert congruence_hat_topology(m_lz, discrete_topology(3)).is_discrete()
    hat = congruence_hat_topology(m_lz, indiscrete_topology(3))
    assert sorted(hat.opens) == [0, 7]
    # the split topology on the two-left-zero monoid: the hat construction
    # jumps all the way to the discrete topology
    assert congruence_hat_topology(m_lz, tau_a).is_discrete()


def test_hat_topology_breaks_the_action_category(m_lz, tau_a):
    hat = congruence_hat_topology(m_lz, tau_a)
    tilde = continuous_subsets(m_lz, tau_a).topology
    assert tilde.opens <= hat.opens
    regular = quotient_mset(m_lz, diagonal(m_lz))
    assert is_continuous_mset(regular, hat)[0]
    assert not is_continuous_mset(regular, tau_a)[0]


def test_hat_contains_tilde_everywhere():
    for monoid in all_monoids(3)[:5]:
        for topology in all_topologies(3)[::2]:
            tilde = continuous_subsets(monoid, topology).topology
            hat = congruence_hat_topology(monoid, topology)
            assert tilde.opens <= hat.opens


def test_action_topology_generated_by_components():
    # for an actual topological monoid the action topology is spanned by the
    # connected components of the input
    from topact.topology import connected_components
    for monoid in all_monoids(3):
        for topology in all_topologies(3):
            if not is_topological_monoid(monoid, topology):
                continue
            tilde = continuous_subsets(monoid, topology).topology
            components = generate_topology(
                3, [mask_of(c) for c in connected_components(topology)])
            assert tilde.opens == components.opens


def assert_multiplication_checks_are_metamorphic(monoid, topology, rng):
    """is_topological_monoid and mult_continuous_core answer the same on the
    opposite monoid, and move along a relabelling of the elements."""
    verdict = is_topological_monoid(monoid, topology)
    core = mult_continuous_core(monoid, topology)
    op = opposite(monoid)
    assert is_topological_monoid(op, topology) == verdict
    assert mult_continuous_core(op, topology) == core
    copy = relabeled_monoid(monoid, rng)
    moved = relabeled_topology(monoid, copy, topology)
    assert is_topological_monoid(copy, moved) == verdict
    assert mult_continuous_core(copy, moved) == relabeled_topology(monoid, copy, core)


def test_topological_monoid_matches_preimages_through_order_four():
    rng = random.Random(14)
    cells = continuous = 0
    for order in (1, 2, 3, 4):
        for monoid in all_monoids(order):
            for topology in all_topologies(order):
                verdict = is_topological_monoid(monoid, topology)
                assert verdict == is_topological_monoid_by_preimages(monoid, topology)
                assert_multiplication_checks_are_metamorphic(monoid, topology, rng)
                cells += 1
                continuous += verdict
    assert cells == 12637
    assert 0 < continuous < cells


def test_topological_monoid_on_large_discrete_and_coarse_carriers():
    c13 = cyclic(13)
    assert is_topological_monoid(c13, discrete_topology(13))
    assert is_topological_monoid(c13, indiscrete_topology(13))
    # 1·12 = 0, yet nb[1]·nb[12] holds 1·1 = 2, outside the open {0}
    split = partition_topology(13, [[0], range(1, 13)])
    assert not is_topological_monoid(c13, split)
    assert not is_topological_monoid_by_preimages(c13, split)


def test_multiplication_checks_match_their_oracles_on_t3():
    t3 = full_transformation_monoid(3)
    rng = random.Random(14)
    by_rank = {}
    by_kernel = {}
    for x, name in enumerate(t3.elements):
        by_rank.setdefault(len(set(name)), []).append(x)
        by_kernel.setdefault(tuple(name.index(c) for c in name), []).append(x)
    verdicts = []
    for topology in (indiscrete_topology(27),
                     partition_topology(27, list(by_rank.values())),
                     partition_topology(27, list(by_kernel.values()))):
        verdict = is_topological_monoid(t3, topology)
        assert verdict == is_topological_monoid_by_preimages(t3, topology)
        assert mult_continuous_core(t3, topology) == mult_core_by_opens(t3, topology)
        assert_multiplication_checks_are_metamorphic(t3, topology, rng)
        verdicts.append(verdict)
    assert verdicts == [True, False, False]


def test_t0_quotient_topology_is_the_image_of_the_opens():
    quotients = 0
    for order in (1, 2, 3, 4):
        for monoid in all_monoids(order):
            for topology in all_topologies(order):
                if not is_topological_monoid(monoid, topology):
                    continue
                _, q_top, projection = t0_quotient(monoid, topology)
                # the partition by minimal neighbourhood is a two-sided congruence
                assert is_two_sided(congruence_from_class_map(monoid, projection.map))
                images = {mask_of(projection.map[m] for m in bits(u)) for u in topology.opens}
                assert q_top.opens == images
                quotients += 1
    assert quotients > 0
