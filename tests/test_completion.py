import pytest
from hypothesis import given, settings

from conftest import (assert_completion_matches_oracle, assert_dense_closed_factorization,
                      class_projection, extend_hom_by_members, transformation_monoids,
                      tuple_limit_completion)
from topact.catalog import all_monoids, all_monoid_homs, all_topologies, cyclic
from topact.completion import (ClosureNotMonoid, NotContinuous, NotPowderInput,
                               PullbackOutsideFilter, closedness_report, complete,
                               dense_closed_factorization, extend_hom, is_complete,
                               prodiscrete_criteria, pullback_congruence)
from topact.congruences import (congruence_from_class_map, diagonal, enumerate_congruences,
                                enumerate_filters, filter_generated, full_filter,
                                generated_congruence, open_congruences, total)
from topact.invariants import monoids_isomorphic
from topact.monoid import idempotents, identity_hom, validate_hom
from topact.topology import (discrete_topology, generate_topology,
                             indiscrete_topology, partition_topology)
from topact.util import bits, mask_of


def test_completion_of_full_filter_is_identity():
    for monoid in all_monoids(3):
        cpl = complete(monoid, full_filter(monoid))
        assert cpl.monoid.order == monoid.order
        assert len(set(cpl.comparison.map)) == monoid.order
        assert cpl.topology.is_discrete()


def test_completion_c4_mod2(c4):
    flt = filter_generated(c4, [generated_congruence(c4, [(0, 2)])])
    cpl = complete(c4, flt)
    assert monoids_isomorphic(cpl.monoid, cyclic(2))
    assert cpl.comparison.map == (0, 1, 0, 1)


def test_completion_left_zero(m_lz, b2):
    flt = filter_generated(m_lz, [generated_congruence(m_lz, [(1, 2)])])
    cpl = complete(m_lz, flt)
    assert monoids_isomorphic(cpl.monoid, b2)
    assert cpl.comparison.map == (0, 1, 1)


def test_tuple_view_components_are_compatible():
    # the oracle's tuples are compatible, and element c of the completion is
    # the tuple of the classes of the least member's class c
    from topact.congruences import leq
    for monoid in all_monoids(3):
        for flt in enumerate_filters(monoid):
            cpl = complete(monoid, flt)
            _, tuples = tuple_limit_completion(monoid, flt)
            members = flt.members
            for t in tuples:
                for i, r in enumerate(members):
                    for j, s in enumerate(members):
                        if i != j and leq(r, s):
                            assert class_projection(r, s)[t[i]] == t[j]
            reps = flt.least.representatives()
            assert tuples == [tuple(r.class_of[a] for r in members) for a in reps]
            assert cpl.comparison.map == flt.least.class_of


def test_complete_matches_the_tuple_limit_through_order_four():
    filters = 0
    for order in (1, 2, 3, 4):
        for monoid in all_monoids(order):
            for flt in enumerate_filters(monoid):
                assert_completion_matches_oracle(complete(monoid, flt), monoid, flt)
                filters += 1
    assert filters == 217


@settings(max_examples=30, deadline=None)
@given(transformation_monoids(orders=(5, 12)))
def test_complete_matches_the_tuple_limit_on_transformation_monoids(monoid):
    compared = 0
    for flt in enumerate_filters(monoid):
        if len(flt.members) <= 12:
            assert_completion_matches_oracle(complete(monoid, flt), monoid, flt)
            compared += 1
    assert compared > 0


def test_is_complete(m_lz, c4, tau_a):
    for monoid in all_monoids(3):
        assert is_complete(monoid, discrete_topology(3))
    assert not is_complete(m_lz, tau_a)
    assert not is_complete(c4, partition_topology(4, [[0, 2], [1, 3]]))


def test_prodiscrete_criteria(c4, m_lz, n2):
    mod2 = filter_generated(c4, [generated_congruence(c4, [(0, 2)])])
    crit = prodiscrete_criteria(c4, mod2)
    assert crit.discrete and crit.prodiscrete and crit.group
    split = filter_generated(m_lz, [generated_congruence(m_lz, [(1, 2)])])
    crit = prodiscrete_criteria(m_lz, split)
    assert crit.discrete and crit.prodiscrete and not crit.group
    # commutative monoid: every filter gives two-sided base congruences
    for flt in enumerate_filters(n2):
        assert prodiscrete_criteria(n2, flt).prodiscrete


def test_pullback_congruence(c4, c2):
    reduction = validate_hom(c4, c2, [k % 2 for k in range(4)])
    assert pullback_congruence(reduction, diagonal(c2)) \
        == generated_congruence(c4, [(0, 2)])
    assert pullback_congruence(reduction, total(c2)) == total(c4)
    assert pullback_congruence(identity_hom(c4), diagonal(c4)) == diagonal(c4)


def test_extend_hom_identity(c4):
    flt = full_filter(c4)
    psi = extend_hom(identity_hom(c4), flt, flt)
    assert psi.map == tuple(range(4))


def test_extend_hom_reduction(c4, c2):
    reduction = validate_hom(c4, c2, [k % 2 for k in range(4)])
    psi = extend_hom(reduction, full_filter(c4), full_filter(c2))
    src = complete(c4, full_filter(c4))
    tgt = complete(c2, full_filter(c2))
    for m in range(4):
        assert psi.map[src.comparison.map[m]] == tgt.comparison.map[m % 2]


def test_extend_hom_needs_pullbacks_inside_the_source_filter(c4, c2):
    reduction = validate_hom(c4, c2, [k % 2 for k in range(4)])
    with pytest.raises(PullbackOutsideFilter) as info:
        extend_hom(reduction, filter_generated(c4, [total(c4)]), full_filter(c2))
    assert info.value.congruence == diagonal(c2)
    assert str(info.value) == "pullback of RightCongruence(0|1) is not in the source filter"
    mod2 = filter_generated(c4, [generated_congruence(c4, [(0, 2)])])
    assert extend_hom(reduction, mod2, full_filter(c2)).map == (0, 1)


def test_extend_comparison_map_is_completion_isomorphism(m_lz, tau_a):
    # extending the comparison map of a completion over the completed filters
    # gives an isomorphism
    flt = open_congruences(m_lz, tau_a)
    cpl = complete(m_lz, flt)
    target_filter = full_filter(cpl.monoid)
    psi = extend_hom(cpl.comparison, flt, target_filter)
    assert len(set(psi.map)) == cpl.monoid.order
    assert psi.preserves_identity


def test_extend_hom_uniqueness(c4, c2):
    reduction = validate_hom(c4, c2, [k % 2 for k in range(4)])
    f_src, f_tgt = full_filter(c4), full_filter(c2)
    psi = extend_hom(reduction, f_src, f_tgt)
    src = complete(c4, f_src)
    tgt = complete(c2, f_tgt)
    matches = [h for h in all_monoid_homs(src.monoid, tgt.monoid)
               if all(h.map[src.comparison.map[m]]
                      == tgt.comparison.map[reduction.map[m]] for m in range(4))]
    assert [h.map for h in matches] == [psi.map]


def test_extend_hom_unique_for_all_small_monoid_homs():
    small = [m for n in (1, 2, 3) for m in all_monoids(n)]
    for src in small:
        for tgt in small:
            for hom in all_monoid_homs(src, tgt):
                f_src, f_tgt = full_filter(src), full_filter(tgt)
                psi = extend_hom(hom, f_src, f_tgt)
                s, t = complete(src, f_src), complete(tgt, f_tgt)
                assert validate_hom(s.monoid, t.monoid, psi.map) == psi
                assert all(psi.map[s.comparison.map[m]] == t.comparison.map[hom.map[m]]
                           for m in range(src.order))
                matches = [h.map for h in all_monoid_homs(s.monoid, t.monoid)
                           if all(h.map[s.comparison.map[m]]
                                  == t.comparison.map[hom.map[m]]
                                  for m in range(src.order))]
                assert matches == [psi.map]


def test_extend_hom_matches_the_member_pullback_scan():
    # every filter pair, so pairs whose pullbacks leave the source filter
    # are tried too; the witness is the target's least member
    small = [m for n in (1, 2, 3) for m in all_monoids(n)]
    outcomes = {True: 0, False: 0}
    for src in small:
        for tgt in small:
            for hom in all_monoid_homs(src, tgt):
                # every pullback the loop builds is of a congruence of tgt,
                # and each is right stable
                for r in enumerate_congruences(tgt):
                    pulled = pullback_congruence(hom, r)
                    assert congruence_from_class_map(src, pulled.class_of) == pulled
                for f_src in enumerate_filters(src):
                    for f_tgt in enumerate_filters(tgt):
                        try:
                            expected = extend_hom_by_members(hom, f_src, f_tgt)
                        except PullbackOutsideFilter:
                            with pytest.raises(PullbackOutsideFilter) as info:
                                extend_hom(hom, f_src, f_tgt)
                            assert info.value.congruence == f_tgt.least
                            outcomes[False] += 1
                        else:
                            assert extend_hom(hom, f_src, f_tgt).map == expected
                            outcomes[True] += 1
    assert outcomes[True] > 0 and outcomes[False] > 0


def test_dense_closed_surjective(c4, c2):
    reduction = validate_hom(c4, c2, [k % 2 for k in range(4)])
    dense, closed = dense_closed_factorization(
        reduction, discrete_topology(4), discrete_topology(2))
    assert dense.target.order == 2
    assert closed.map == (0, 1)
    assert dense.then(closed).map == reduction.map


def test_dense_closed_into_split_topology(one, m_lz, tau_a):
    unit = validate_hom(one, m_lz, [0])
    dense, closed = dense_closed_factorization(unit, discrete_topology(1), tau_a)
    assert dense.target.elements == ("1",)
    assert closed.map == (0,)


def test_dense_closed_not_continuous(one, m_lz, tau_a):
    point = validate_hom(one, m_lz, [1])
    with pytest.raises(NotContinuous):
        # the singleton {x} pulls back the clopen {x,y} to the whole
        # one-point space, fine; but {1} pulls back to the empty set, fine;
        # use an indiscrete source over a finer target to force failure
        dense_closed_factorization(
            identity_hom(m_lz), indiscrete_topology(3), discrete_topology(3))


def test_dense_closed_closure_not_monoid(one, n2):
    embed_two = validate_hom(one, n2, [2])
    chain = generate_topology(3, [0b001, 0b110])
    dense, closed = None, None
    with pytest.raises(ClosureNotMonoid):
        dense_closed_factorization(embed_two, discrete_topology(1), chain)


def test_dense_closed_recomposes_for_discrete_targets():
    from topact.catalog import all_semigroup_homs
    monoids = [m for n in (1, 2, 3) for m in all_monoids(n)]
    for src in monoids:
        for tgt in monoids:
            for hom in all_semigroup_homs(src, tgt):
                dense, closed = dense_closed_factorization(
                    hom, discrete_topology(src.order), discrete_topology(tgt.order))
                assert dense.then(closed).map == hom.map
                assert mask_of(closed.map) == mask_of(hom.map)


def test_closedness_report_discrete(b2, n2):
    for monoid in (b2, n2):
        topology = discrete_topology(monoid.order)
        for e in idempotents(monoid):
            report = closedness_report(monoid, topology, e)
            assert report.all_closed()


def test_closedness_report_rejects_non_powder(m_lz, tau_a):
    with pytest.raises(NotPowderInput):
        closedness_report(m_lz, tau_a, 1)


def test_comparison_injective_iff_indistinguishability_discrete():
    from topact.reflections import continuous_subsets
    from topact.topology import separation_report
    for monoid in all_monoids(3):
        for topology in all_topologies(3):
            cpl = complete(monoid, open_congruences(monoid, topology))
            tilde = continuous_subsets(monoid, topology).topology
            t0 = separation_report(tilde).t0
            assert (len(set(cpl.comparison.map)) == monoid.order) == t0


def test_corners_of_complete_monoids_are_complete():
    from topact.monoid import corner_monoid
    for monoid in all_monoids(3) + all_monoids(4)[:10]:
        for e in idempotents(monoid):
            corner, _ = corner_monoid(monoid, e)
            assert is_complete(corner, discrete_topology(corner.order))


def test_isomorphism_rigidity_through_order_four():
    # a monoid hom between complete (discrete) monoids whose congruence
    # pullback is a bijection and whose full sites share a fingerprint is an
    # isomorphism
    from topact.catalog import all_semigroup_homs
    from topact.invariants import morita_fingerprint, principal_site
    monoids = [m for n in (1, 2, 3, 4) for m in all_monoids(n)]
    qualifying = 0
    for m1 in monoids:
        lat1 = set(enumerate_congruences(m1))
        for m2 in monoids:
            lat2 = enumerate_congruences(m2)
            for hom in all_semigroup_homs(m1, m2):
                if not hom.preserves_identity:
                    continue
                pulled = {pullback_congruence(hom, r) for r in lat2}
                if len(pulled) != len(lat2) or pulled != lat1:
                    continue
                if morita_fingerprint(principal_site(m1, full_filter(m1))) \
                        != morita_fingerprint(principal_site(m2, full_filter(m2))):
                    continue
                qualifying += 1
                assert len(set(hom.map)) == m1.order == m2.order
                assert monoids_isomorphic(m1, m2) is not None
    assert qualifying >= 50  # the hypothesis is actually exercised


def test_completion_idempotent_everywhere():
    for monoid in all_monoids(3):
        for flt in enumerate_filters(monoid):
            cpl = complete(monoid, flt)
            again = complete(cpl.monoid, open_congruences(cpl.monoid, cpl.topology))
            assert len(set(again.comparison.map)) == cpl.monoid.order
            assert again.monoid.order == cpl.monoid.order


def test_is_complete_matches_forward_images_of_opens():
    for order in (1, 2, 3, 4):
        for monoid in all_monoids(order):
            for topology in all_topologies(order):
                cpl = complete(monoid, open_congruences(monoid, topology))
                u = cpl.comparison
                expected = (len(set(u.map)) == order and cpl.monoid.order == order
                            and cpl.topology.opens
                            == {mask_of(u.map[m] for m in bits(a)) for a in topology.opens})
                assert is_complete(monoid, topology) == expected


def test_dense_closed_continuity_witness_is_an_open_with_open_preimage_missing():
    from topact.catalog import all_semigroup_homs
    from topact.reflections import continuous_subsets
    raised = 0
    for src in all_monoids(1) + all_monoids(2):
        for tgt in [m for n in (1, 2, 3) for m in all_monoids(n)]:
            homs = all_semigroup_homs(src, tgt)
            for tau_tgt in all_topologies(tgt.order):
                tilde = continuous_subsets(tgt, tau_tgt).topology
                for tau_src in all_topologies(src.order):
                    for hom in homs:
                        failing = {u for u in tilde.opens
                                   if not tau_src.is_open(mask_of(
                                       m for m in range(src.order) if u >> hom.map[m] & 1))}
                        try:
                            assert_dense_closed_factorization(hom, tau_src, tau_tgt)
                        except NotContinuous as exc:
                            assert exc.witness in failing
                            raised += 1
                        except ClosureNotMonoid:
                            assert not failing
                        else:
                            assert not failing
    assert raised > 0
