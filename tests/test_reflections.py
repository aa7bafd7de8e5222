import itertools

import pytest

from topact.actions import (is_continuous_mset, necessary_clopen, power_of_m,
                            quotient_mset)
from topact.catalog import all_monoids, all_topologies, cyclic
from topact.congruences import (diagonal, enumerate_filters, filter_generated,
                                full_filter, generated_congruence,
                                open_congruences, total)
from topact.monoid import opposite
from topact.reflections import (NotTopologicalMonoid, congruence_hat_topology,
                                continuous_subsets, induced_topology_from_filter,
                                is_topological_filter, is_topological_monoid,
                                left_action_topology, mult_continuous_core,
                                powder_reflection, t0_quotient, two_sided_commutation)
from topact.invariants import monoids_isomorphic
from topact.topology import (discrete_topology, generate_topology,
                             indiscrete_topology, is_open_in_product,
                             partition_topology)
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


def test_induced_topology_quotients_continuous():
    for monoid in all_monoids(3):
        for flt in enumerate_filters(monoid):
            report = induced_topology_from_filter(monoid, flt)
            for r in flt.members:
                assert is_continuous_mset(quotient_mset(monoid, r),
                                          report.topology)[0]


def test_topological_filter_agrees_with_open_congruence_roundtrip():
    for monoid in all_monoids(3):
        for flt in enumerate_filters(monoid):
            verdict, witness = is_topological_filter(monoid, flt)
            induced = induced_topology_from_filter(monoid, flt).topology
            roundtrip = open_congruences(monoid, induced)
            assert verdict == (roundtrip.members == flt.members)
            if verdict:
                assert witness is None


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


def test_topological_monoid_matches_preimages_through_order_four():
    cells = continuous = 0
    for order in (1, 2, 3, 4):
        for monoid in all_monoids(order):
            for topology in all_topologies(order):
                verdict = is_topological_monoid(monoid, topology)
                assert verdict == is_topological_monoid_by_preimages(monoid, topology)
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


def test_t0_quotient_topology_is_the_image_of_the_opens():
    quotients = 0
    for order in (1, 2, 3, 4):
        for monoid in all_monoids(order):
            for topology in all_topologies(order):
                if not is_topological_monoid(monoid, topology):
                    continue
                _, q_top, projection = t0_quotient(monoid, topology)
                images = {mask_of(projection.map[m] for m in bits(u)) for u in topology.opens}
                assert q_top.opens == images
                quotients += 1
    assert quotients > 0
