"""Acceptance suite: one test per criterion, each printing a PASS line.

Every criterion runs at its stated scale; expected values come from
independent oracles computed in-line or frozen from exhaustive scans.
"""

import math

from conftest import (assert_completion_matches_oracle, assert_dense_closed_factorization,
                      monogenic_homs_bruteforce)
from topact.actions import (MSet, enumerate_mset_homs, exponential_mset,
                            is_continuous_mset, mset_product, msets_isomorphic,
                            quotient_mset, terminal_mset)
from topact.catalog import (action_topologies, all_monoids, all_semigroup_homs,
                            all_topologies, continuous_msets, cyclic, left_zeros,
                            left_zero_split_topology, trivial_monoid,
                            two_idempotents)
from topact.completion import closedness_report, complete
from topact.congruences import (diagonal, enumerate_congruences, enumerate_filters,
                                filter_generated, full_filter, generated_congruence,
                                open_congruences)
from topact.invariants import (categories_equivalent, is_atomic, monogenic_homs,
                               monogenic_orbit, classify_monogenic, monoids_isomorphic,
                               morita_fingerprint, principal_site)
from topact.monoid import unit_indices, validate_hom, idempotents, zero_element
from topact.reflections import (congruence_hat_topology, continuous_subsets,
                                is_topological_monoid, powder_reflection,
                                two_sided_commutation)
from topact.topology import discrete_topology, partition_topology, separation_report
from topact.util import mask_of

SMALL = [m for n in (1, 2, 3) for m in all_monoids(n)]


def report(criterion, description):
    print(f"ACCEPTANCE {criterion}: PASS — {description}")


def test_criterion_1_action_topology_suite():
    cells = 0
    for monoid in SMALL:
        for topology in all_topologies(monoid.order):
            cells += 1
            rep = continuous_subsets(monoid, topology)
            tilde = rep.topology
            assert tilde.opens <= topology.opens
            again = continuous_subsets(monoid, tilde)
            assert again.topology.opens == tilde.opens and again.is_action_topology
            assert open_congruences(monoid, topology).members \
                == open_congruences(monoid, tilde).members
            assert is_topological_monoid(monoid, tilde)
    report(1, f"action-topology laws on {cells} (monoid, topology) cells")


def test_criterion_2_hat_topology_counterexample():
    monoid = left_zeros()
    tau_a = left_zero_split_topology()
    hat = congruence_hat_topology(monoid, tau_a)
    assert hat.is_discrete()
    rep = continuous_subsets(monoid, tau_a)
    assert rep.topology.opens == tau_a.opens and rep.is_action_topology
    regular = quotient_mset(monoid, diagonal(monoid))
    assert is_continuous_mset(regular, hat)[0]
    ok, witness = is_continuous_mset(regular, tau_a)
    assert not ok and witness is not None
    report(2, "hat topology is discrete on the split left-zero fixture and "
              "strictly enlarges the continuous-action category")


def test_criterion_3_powder_morita_suite():
    cells = 0
    for monoid in SMALL:
        for topology in all_topologies(monoid.order):
            cells += 1
            reflection = powder_reflection(monoid, topology)
            assert reflection.topology.is_discrete()
            assert separation_report(reflection.topology).t0
            before = morita_fingerprint(
                principal_site(monoid, open_congruences(monoid, topology)))
            after = morita_fingerprint(
                principal_site(reflection.monoid, full_filter(reflection.monoid)))
            assert before == after
    monoid = left_zeros()
    reflection = powder_reflection(monoid, left_zero_split_topology())
    assert monoids_isomorphic(reflection.monoid, two_idempotents())
    site1 = principal_site(monoid, open_congruences(monoid, left_zero_split_topology()))
    site2 = principal_site(reflection.monoid, full_filter(reflection.monoid))
    assert categories_equivalent(site1, site2).kind == "yes"
    report(3, f"powder reflections discrete-T0 with preserved fingerprints on "
              f"{cells} cells; split left-zero fixture reflects to the "
              f"two-idempotent monoid with an equivalence witness")


def test_criterion_4_completion_suite():
    filters = 0
    for monoid in SMALL:
        for flt in enumerate_filters(monoid):
            filters += 1
            cpl = complete(monoid, flt)
            assert_completion_matches_oracle(cpl, monoid, flt)
            u = cpl.comparison
            assert u.preserves_identity
            image = mask_of(u.map)
            assert all(v & image for v in cpl.topology.opens if v)
            again = complete(cpl.monoid, open_congruences(cpl.monoid, cpl.topology))
            assert again.monoid.order == cpl.monoid.order
            assert len(set(again.comparison.map)) == cpl.monoid.order
            restricted = []
            for s in enumerate_congruences(cpl.monoid):
                q = quotient_mset(cpl.monoid, s)
                act = tuple(tuple(q.act[x][u.map[m]] for m in range(monoid.order))
                            for x in range(q.size))
                restricted.append(MSet(monoid, q.carrier, act))
            quotients = [quotient_mset(monoid, r) for r in flt.members]
            for mset in restricted:
                assert any(msets_isomorphic(mset, q) for q in quotients)
            for q in quotients:
                assert any(msets_isomorphic(mset, q) for mset in restricted)
    report(4, f"completions agree across both constructions with dense "
              f"comparison, idempotence and exact principal representation on "
              f"{filters} filters")


def test_criterion_5_mod2_completion_fixture():
    c4 = cyclic(4)
    mod2 = generated_congruence(c4, [(0, 2)])
    flt = filter_generated(c4, [mod2])
    cpl = complete(c4, flt)
    assert monoids_isomorphic(cpl.monoid, cyclic(2))
    assert cpl.topology.is_discrete()
    from topact.reflections import induced_topology_from_filter
    induced = induced_topology_from_filter(c4, flt)
    assert induced.topology.opens \
        == partition_topology(4, [[0, 2], [1, 3]]).opens
    report(5, "mod-2 filter on the 4-cycle completes to the 2-cycle and "
              "induces the coset partition topology")


def test_criterion_6_monogenic_arithmetic():
    pairs = 0
    for a in range(6):
        for b in range(1, 6):
            for a2 in range(6):
                for b2 in range(1, 6):
                    pairs += 1
                    flags = monogenic_homs((a, b), (a2, b2))
                    assert flags == monogenic_homs_bruteforce((a, b), (a2, b2))
                    assert flags.epi_exists == (a2 <= a and b % b2 == 0)
                    assert flags.mono_exists == (a <= a2 and b == b2)
                    f1, f2 = monogenic_orbit(a, b), monogenic_orbit(a2, b2)
                    product = [f1[p] * len(f2) + f2[q]
                               for p in range(len(f1)) for q in range(len(f2))]
                    assert classify_monogenic(product, 0) \
                        == (max(a, a2), math.lcm(b, b2))
    report(6, f"tail/cycle epi-mono arithmetic matches equivariant map search "
              f"with max/lcm joint covers on {pairs} orbit pairs")


def test_criterion_7_atomicity_consistency():
    filters = 0
    for monoid in SMALL:
        group = len(unit_indices(monoid)) == monoid.order
        zero = zero_element(monoid)
        for flt in enumerate_filters(monoid):
            filters += 1
            atomic, _ = is_atomic(monoid, flt)  # conditions 4 and 1 cross-checked
            cpl = complete(monoid, flt)
            units = mask_of(unit_indices(cpl.monoid))
            dense = all(u & units for u in cpl.topology.opens if u)
            assert dense == atomic
            if group:
                assert atomic
            if zero is not None and flt.least.num_classes > 1:
                assert not atomic
    report(7, f"atomicity conditions (all-epi, dense units, quantifier form) "
              f"agree on {filters} filters; groups atomic, zeros not")


def test_criterion_8_factorization_suite():
    from topact.monoid import factor_surjection_inclusion
    homs = 0
    for src in SMALL:
        for tgt in SMALL:
            for hom in all_semigroup_homs(src, tgt):
                homs += 1
                first, second = factor_surjection_inclusion(hom)
                assert first.then(second).map == hom.map
                assert first.preserves_identity
                dense, closed = assert_dense_closed_factorization(
                    hom, discrete_topology(src.order), discrete_topology(tgt.order))
                assert dense.then(closed).map == hom.map
                assert mask_of(closed.map) == mask_of(hom.map)  # closure = image
    unit = validate_hom(trivial_monoid(), left_zeros(), [0])
    dense, closed = assert_dense_closed_factorization(
        unit, discrete_topology(1), left_zero_split_topology())
    assert dense.target.elements == ("1",)
    corners = 0
    for order in (1, 2, 3, 4):
        for monoid in all_monoids(order):
            topology = discrete_topology(order)
            for e in idempotents(monoid):
                corners += 1
                assert closedness_report(monoid, topology, e).all_closed()
    report(8, f"surjection-inclusion and dense-closed factorizations recompose "
              f"on {homs} homs; corner ideals closed for {corners} idempotents "
              f"through order 4")


def test_criterion_9_reflection_commutation():
    cells = 0
    for monoid in SMALL:
        for topology in all_topologies(monoid.order):
            if not is_topological_monoid(monoid, topology):
                continue
            if not separation_report(topology).t0:
                continue
            cells += 1
            assert two_sided_commutation(monoid, topology)
    report(9, f"left and right action-topology reflections commute on "
              f"{cells} T0 topological monoids")


def test_criterion_10_exponential_currying():
    checks = 0
    for monoid in SMALL:
        for topology in action_topologies(monoid):
            flt = open_congruences(monoid, topology)
            principal = [quotient_mset(monoid, r) for r in flt.members]
            test_objects = continuous_msets(monoid, topology, 4)
            for x in principal:
                for y in principal:
                    expo = exponential_mset(x, y, topology)
                    index = {h: i for i, h in enumerate(expo.hom_maps)}
                    for z in test_objects:
                        checks += 1
                        zx = mset_product(z, x)
                        plain = enumerate_mset_homs(zx, y)
                        curried = set()
                        for f in plain:
                            image = tuple(
                                index[tuple(f[z.act[zi][n] * x.size + p]
                                            for n in range(monoid.order)
                                            for p in range(x.size))]
                                for zi in range(z.size))
                            curried.add(image)
                        assert len(curried) == len(plain)
                        assert curried == set(enumerate_mset_homs(z, expo.mset))
            one = terminal_mset(monoid)
            for y in test_objects:
                checks += 1
                expo = exponential_mset(one, y, topology)
                assert msets_isomorphic(expo.mset, y)
    report(10, f"exponentials satisfy the currying bijection on {checks} "
               f"(X, Y, Z) triples including identity laws against the terminal")
