import dataclasses
import itertools
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (categories_equivalent_by_full_check, hom_by_scan, hom_classes,
                      monogenic_homs_bruteforce, morita_fingerprint_by_scan, preorder_topologies,
                      relabeled_monoid, relabeled_topology, transformation_monoid,
                      transformation_monoids,
                      zero_fixed_point_by_scan)
from topact import files
from topact.catalog import (all_monoids, all_topologies, cyclic, left_zeros,
                            truncated_addition, two_idempotents)
from topact.completion import complete
from topact.congruences import (congruence_from_class_map, enumerate_congruences,
                                enumerate_filters, filter_generated, full_filter,
                                open_congruences, total)
from topact.errors import TopactError
from topact.invariants import (BadCategory, FiniteCategory, MonogenicHomFlags,
                               NoZeroElement, _skeleton,
                               categories_equivalent, validate_category,
                               classify_monogenic, dense_units, is_atomic,
                               joint_covering, make_category, monogenic_homs,
                               monogenic_orbit,
                               monoids_isomorphic, morita_equivalent,
                               morita_fingerprint, principal_site,
                               strict_joint_covering, zero_fixed_point_check)
from topact.monoid import opposite, validate_hom, validate_monoid, zero_element
from topact.reflections import continuous_subsets, powder_reflection
from topact.topology import discrete_topology


def relabeled_category(cat, rng):
    """Shuffle object and arrow indexing; the fingerprint must not move.
    The arrows out of one object end up scattered over the indices."""
    k = len(cat.objects)
    obj_perm = list(range(k))
    rng.shuffle(obj_perm)
    arrow_perm = list(range(cat.arrow_count))
    rng.shuffle(arrow_perm)
    inv = [0] * cat.arrow_count
    for new, old in enumerate(arrow_perm):
        inv[old] = new
    src = tuple(obj_perm[cat.arrow_src[arrow_perm[i]]] for i in range(cat.arrow_count))
    tgt = tuple(obj_perm[cat.arrow_tgt[arrow_perm[i]]] for i in range(cat.arrow_count))
    out = [[g for g in range(cat.arrow_count) if src[g] == o] for o in range(k)]
    return FiniteCategory(
        objects=tuple(cat.objects[obj_perm.index(i)] for i in range(k)),
        arrow_names=tuple(cat.arrow_names[arrow_perm[i]] for i in range(cat.arrow_count)),
        arrow_src=src,
        arrow_tgt=tgt,
        after=tuple(tuple(inv[cat.then(arrow_perm[f], arrow_perm[g])] for g in out[tgt[f]])
                    for f in range(cat.arrow_count)),
        identities=tuple(inv[cat.identities[obj_perm.index(i)]] for i in range(k)),
        epis=frozenset(inv[f] for f in cat.epis),
        monos=frozenset(inv[f] for f in cat.monos),
    )


def terminal_category():
    return make_category(["*"], [("id", 0, 0)], lambda f, g: 0, [0], [0], [0])


def two_object_discrete():
    return make_category(["a", "b"], [("ida", 0, 0), ("idb", 1, 1)],
                         lambda f, g: f, [0, 1], [0, 1], [0, 1])


def two_isomorphic_objects():
    """a and b with f: a → b and g: b → a inverse to each other."""
    arrows = [("ida", 0, 0), ("idb", 1, 1), ("f", 0, 1), ("g", 1, 0)]
    table = {
        (0, 0): 0, (0, 2): 2, (1, 1): 1, (1, 3): 3,
        (2, 1): 2, (2, 3): 0, (3, 0): 3, (3, 2): 1,
    }
    return make_category(["a", "b"], arrows, lambda f, g: table[(f, g)],
                         [0, 1], [0, 1, 2, 3], [0, 1, 2, 3])


def retract_category():
    """a is a retract of b: s: a → b then r: b → a is the identity of a,
    while r then s is an idempotent e of b other than its identity, so a
    and b are not isomorphic."""
    arrows = [("ida", 0, 0), ("idb", 1, 1), ("s", 0, 1), ("r", 1, 0), ("e", 1, 1)]
    table = {
        (0, 0): 0, (0, 2): 2, (1, 1): 1, (1, 3): 3, (1, 4): 4,
        (2, 1): 2, (2, 3): 0, (2, 4): 2, (3, 0): 3, (3, 2): 4,
        (4, 1): 4, (4, 3): 3, (4, 4): 4,
    }
    return make_category(["a", "b"], arrows, lambda f, g: table[(f, g)],
                         [0, 1], [0, 1, 3], [0, 1, 2])


def poset_category(relations, n):
    """Category of a poset given by a reflexive transitive relation list."""
    arrows = [(f"{a}<={b}", a, b) for a in range(n) for b in range(n)
              if relations[a][b]]
    index = {(a, b): i for i, (_, a, b) in enumerate(arrows)}

    def compose(f, g):
        return index[(arrows[f][1], arrows[g][2])]

    identities = [index[(a, a)] for a in range(n)]
    every = list(range(len(arrows)))
    return make_category([str(i) for i in range(n)], arrows, compose,
                         identities, every, every)


def test_terminal_site(m_lz):
    flt = filter_generated(m_lz, [total(m_lz)])
    site = principal_site(m_lz, flt)
    assert len(site.objects) == 1 and site.arrow_count == 1


def test_c4_full_site(c4):
    site = principal_site(c4, full_filter(c4))
    assert len(site.objects) == 3
    delta = site.objects.index("0|1|2|3")
    endos = [f for f in range(site.arrow_count)
             if site.arrow_src[f] == delta and site.arrow_tgt[f] == delta]
    assert len(endos) == 4


def test_left_zero_site_structure(m_lz, tau_a):
    site = principal_site(m_lz, open_congruences(m_lz, tau_a))
    assert len(site.objects) == 2 and site.arrow_count == 5


def principal_site_by_hom_classes(monoid, flt):
    """Oracle for principal_site: the arrows from hom_classes, one
    inverse-image congruence and one containment test per candidate, the
    composites looked up by (source, target, class) and the epis and monos
    from class maps read at the representatives; validated by the triple
    validator."""
    members = flt.members
    arrows = [(i, j, m) for i, r1 in enumerate(members)
              for j, r2 in enumerate(members) for m in hom_classes(flt, r1, r2)]
    lookup = {(i, j, members[j].class_of[m]): idx
              for idx, (i, j, m) in enumerate(arrows)}
    after = []
    for i, j, m in arrows:
        after.append(tuple(
            lookup[(i, k, members[k].class_of[monoid.table[n][m]])]
            for j2, k, n in arrows if j2 == j))
    epis, monos = set(), set()
    for idx, (i, j, m) in enumerate(arrows):
        cmap = [members[j].class_of[monoid.table[m][rep]]
                for rep in members[i].representatives()]
        if len(set(cmap)) == members[j].num_classes:
            epis.add(idx)
        if len(set(cmap)) == len(cmap):
            monos.add(idx)
    return validate_category(FiniteCategory(
        objects=tuple(r.label() for r in members),
        arrow_names=tuple(f"[{monoid.elements[m]}]" for _, _, m in arrows),
        arrow_src=tuple(a[0] for a in arrows),
        arrow_tgt=tuple(a[1] for a in arrows),
        after=tuple(after),
        identities=tuple(lookup[(i, i, r.class_of[monoid.identity])]
                         for i, r in enumerate(members)),
        epis=frozenset(epis),
        monos=frozenset(monos)))


def test_principal_site_matches_oracle_on_every_filter_through_order_three():
    for order in range(1, 4):
        for monoid in all_monoids(order):
            for flt in enumerate_filters(monoid):
                assert principal_site(monoid, flt) == principal_site_by_hom_classes(monoid, flt)


def test_principal_site_matches_oracle_on_order_four_open_filters(order_four_cell_filters):
    open_filters = order_four_cell_filters[0]
    assert len(open_filters) == 190
    for flt in open_filters:
        assert principal_site(flt.monoid, flt) == principal_site_by_hom_classes(flt.monoid, flt)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_principal_site_matches_oracle_on_transformation_monoids(data):
    monoid = data.draw(transformation_monoids(points=4, orders=(5, 10)))
    topology = data.draw(preorder_topologies(monoid.order))
    for flt in (open_congruences(monoid, topology), full_filter(monoid)):
        # the oracle's composites grow with the square of the arrows, which
        # grow with the square of the members
        if len(flt.members) <= 16:
            assert principal_site(monoid, flt) == principal_site_by_hom_classes(monoid, flt)


def test_site_command_prints_the_oracle_site(tmp_path, capsys, monkeypatch):
    import topact.cli as cli
    monoid = truncated_addition(8)
    path = tmp_path / "N9.json"
    path.write_text(files.dump(files.monoid_to_obj(monoid)))
    outputs = []
    for build in (principal_site, principal_site_by_hom_classes):
        monkeypatch.setattr(cli, "principal_site", build)
        for extra in (["--json"], ["--dot"]):
            assert cli.main(["site", str(path), "--filter", "all", *extra]) == 0
            outputs.append(capsys.readouterr().out)
    assert outputs[:2] == outputs[2:]
    assert "285 arrows" in outputs[0]


def test_identity_and_composition_laws_hold_on_all_small_sites():
    sites = 0
    for order in (1, 2, 3, 4):
        for monoid in all_monoids(order):
            for flt in enumerate_filters(monoid):
                site = principal_site(monoid, flt)
                assert validate_category(site) is site
                sites += 1
    assert sites == 217


def test_marked_epis_cancel_on_the_left_and_marked_monos_on_the_right_on_all_small_sites():
    """A site arrow is fixed by its class map, so a class-surjective arrow
    (marked epi) is an epimorphism and a class-injective one (marked mono)
    a monomorphism: read on the composites, f then g differs for
    distinct g into one target, and g then f for distinct g from one
    source.  On every site through order 4 the converse holds too: an arrow
    that cancels so is marked."""
    sites = 0
    for order in (1, 2, 3, 4):
        for monoid in all_monoids(order):
            for flt in enumerate_filters(monoid):
                site = principal_site(monoid, flt)
                src, tgt = site.arrow_src, site.arrow_tgt
                arrows = range(site.arrow_count)
                for f in arrows:
                    after, before = {}, {}
                    for g in arrows:
                        if src[g] == tgt[f]:
                            after.setdefault(tgt[g], []).append(site.then(f, g))
                        if tgt[g] == src[f]:
                            before.setdefault(src[g], []).append(site.then(g, f))
                    assert (f in site.epis) == all(len(set(hs)) == len(hs)
                                                   for hs in after.values())
                    assert (f in site.monos) == all(len(set(hs)) == len(hs)
                                                    for hs in before.values())
                sites += 1
    assert sites == 217


def test_principal_site_rejects_a_filter_over_another_monoid(c2, c4, m_lz, m_rz):
    with pytest.raises(TopactError, match="another monoid"):
        principal_site(c4, full_filter(c2))
    # equal orders, different tables
    assert m_lz.order == m_rz.order
    with pytest.raises(TopactError, match="another monoid"):
        principal_site(m_rz, full_filter(m_lz))
    # an equal monoid built apart is the same monoid
    assert principal_site(cyclic(4), full_filter(c4)) == principal_site(c4, full_filter(c4))


def test_principal_site_is_built_once_per_lattice(m_lz, tau_a):
    site = principal_site(cyclic(4), full_filter(cyclic(4)))
    assert principal_site(cyclic(4), full_filter(cyclic(4))) is site
    site = principal_site(m_lz, open_congruences(m_lz, tau_a))
    assert principal_site(left_zeros(), open_congruences(left_zeros(), tau_a)) is site


def test_cache_clear_drops_the_stored_site(c4):
    site = principal_site(c4, full_filter(c4))
    enumerate_congruences.cache_clear()
    again = principal_site(c4, full_filter(c4))
    assert again is not site
    assert again == site


def test_fingerprint_terminal():
    fp = morita_fingerprint(terminal_category())
    assert fp.object_count == 1
    assert fp.matrix == (((1, 1, 1),),)
    assert fp.has_terminal


def test_fingerprint_relabeling_invariance(c4, m_lz, tau_a):
    sites = [principal_site(c4, full_filter(c4)),
             principal_site(m_lz, open_congruences(m_lz, tau_a))]
    for site in sites:
        fp = morita_fingerprint(site)
        for seed in range(12):
            shuffled = relabeled_category(site, random.Random(seed))
            assert morita_fingerprint(shuffled) == fp


@settings(max_examples=30)
@given(st.integers(0, 10_000))
def test_fingerprint_relabeling_invariance_random(seed):
    monoid = left_zeros()
    site = principal_site(monoid, full_filter(monoid))
    shuffled = relabeled_category(site, random.Random(seed))
    assert morita_fingerprint(shuffled) == morita_fingerprint(site)


def test_equivalence_to_itself(c4):
    site = principal_site(c4, full_filter(c4))
    assert categories_equivalent(site, site).kind == "yes"


def test_terminal_vs_two_object_discrete():
    verdict = categories_equivalent(terminal_category(), two_object_discrete())
    assert verdict.kind == "no"


def test_split_site_equivalent_to_discrete_two_idempotents(m_lz, tau_a, b2):
    site1 = principal_site(m_lz, open_congruences(m_lz, tau_a))
    site2 = principal_site(b2, full_filter(b2))
    verdict = categories_equivalent(site1, site2)
    assert verdict.kind == "yes"


def test_skeleton_collapse_detects_equivalence():
    # a category with two isomorphic objects is equivalent to the terminal one
    cat = two_isomorphic_objects()
    assert categories_equivalent(cat, terminal_category()).kind == "yes"


def test_chaotic_category_is_one_iso_class():
    # one arrow between every ordered pair: every object is isomorphic to
    # every other, each by a single inverse pair
    chaotic = poset_category([[True] * 3] * 3, 3)
    assert chaotic.arrow_count == 9
    assert morita_fingerprint(chaotic).object_count == 1
    assert categories_equivalent(chaotic, terminal_category()).kind == "yes"


def late_composite_pair():
    """Objects 0, 1, 2 with f: 0 → 1, g: 1 → 2 and parallel h1, h2: 0 → 2,
    where f then g is h1 in the first category and h2 in the second.  The
    composite has a greater index than both factors."""
    arrows = [("id0", 0, 0), ("id1", 1, 1), ("id2", 2, 2), ("f", 0, 1), ("g", 1, 2),
              ("h1", 0, 2), ("h2", 0, 2)]
    ident = [0, 1, 2]

    def category(fg):
        def compose(f, g):
            if f in ident:
                return g
            if g in ident:
                return f
            return fg
        return make_category(["0", "1", "2"], arrows, compose, ident, [], [])

    return category(5), category(6)


def hand_built_categories():
    return [terminal_category(), poset_category([[True] * 3] * 3, 3),
            two_object_discrete(), two_isomorphic_objects(), retract_category(),
            poset_category([[True, True, False], [False, True, False],
                            [False, False, True]], 3), *late_composite_pair()]


@pytest.fixture(scope="module")
def order_four_cell_filters():
    """The distinct filters of the order-4 cells (M, τ): the open filter of
    each, and the full filter of each powder monoid M/r0.  Cells with the
    same filter have the same site, so each site is checked once."""
    open_filters, powder_monoids = {}, {}
    for monoid in all_monoids(4):
        for topology in all_topologies(4):
            open_filters[open_congruences(monoid, topology)] = None
            powder_monoids[powder_reflection(monoid, topology).monoid] = None
    return tuple(open_filters), tuple(map(full_filter, powder_monoids))


def sites_through_order_three():
    return [principal_site(monoid, flt) for order in (1, 2, 3)
            for monoid in all_monoids(order) for flt in enumerate_filters(monoid)]


def test_principal_site_matches_oracle_on_the_powder_full_filter_of_every_order_four_cell(
        order_four_cell_filters):
    powder_filters = order_four_cell_filters[1]
    assert len(powder_filters) > 35
    for flt in powder_filters:
        assert principal_site(flt.monoid, flt) == principal_site_by_hom_classes(flt.monoid, flt)


def test_fingerprint_matches_the_scan_on_every_site_through_order_three_and_its_skeleton():
    for site in sites_through_order_three():
        for each in (site, _skeleton(site)[0]):
            assert morita_fingerprint(each) == morita_fingerprint_by_scan(each)


def test_fingerprint_matches_the_scan_on_both_sites_of_every_order_four_cell(
        order_four_cell_filters):
    open_filters, powder_filters = order_four_cell_filters
    for flt in open_filters + powder_filters:
        site = principal_site(flt.monoid, flt)
        assert morita_fingerprint(site) == morita_fingerprint_by_scan(site)


def test_fingerprint_matches_the_scan_on_hand_built_categories_and_skeletons():
    for cat in hand_built_categories():
        for each in (cat, _skeleton(cat)[0]):
            assert morita_fingerprint(each) == morita_fingerprint_by_scan(each)
            # stored on first read
            assert morita_fingerprint(each) is each.fingerprint
    assert morita_fingerprint(retract_category()).object_count == 2


def test_fingerprint_matches_the_scan_on_relabelled_sites(order_four_cell_filters):
    rng = random.Random(22)
    sites = sites_through_order_three() + [
        principal_site(flt.monoid, flt) for flt in order_four_cell_filters[1]]
    for site in sites:
        shuffled = relabeled_category(site, rng)
        assert morita_fingerprint(shuffled) == morita_fingerprint_by_scan(shuffled)
        assert morita_fingerprint(shuffled) == morita_fingerprint(site)


def test_stored_fingerprint_matches_the_scan_on_both_sites_of_seeded_order_four_cells():
    rng = random.Random(25)
    monoids, topologies = all_monoids(4), all_topologies(4)
    for _ in range(300):
        monoid, topology = rng.choice(monoids), rng.choice(topologies)
        powder = powder_reflection(monoid, topology).monoid
        for m, flt in ((monoid, open_congruences(monoid, topology)),
                       (powder, full_filter(powder))):
            site = principal_site(m, flt)
            fp = morita_fingerprint(site)
            assert fp is site.fingerprint
            assert fp == morita_fingerprint_by_scan(site)
            assert morita_fingerprint(principal_site(m, flt)) is fp


# order-5 monoids whose full-filter sites have the largest tie groups, with
# their objects and iso classes: the scan orders the classes 103 680,
# 103 680, 46 656 and 1.07e10 ways
ORDER_FIVE_TIED = {34: (16, 16), 161: (16, 16), 219: (30, 25), 223: (52, 30)}


def test_fingerprint_matches_the_scan_on_seeded_order_five_filter_sites():
    # every filter site of a seeded third of the other order-5 monoids; the
    # tied ones are past the scan and are checked by relabelling below
    monoids = all_monoids(5)
    chosen = random.Random(31).sample(
        [i for i in range(len(monoids)) if i not in ORDER_FIVE_TIED], 75)
    sites = [principal_site(monoids[i], flt) for i in chosen
             for flt in enumerate_filters(monoids[i])]
    assert len(sites) > 600 and max(len(site.objects) for site in sites) >= 12
    for site in sites:
        assert morita_fingerprint(site) == morita_fingerprint_by_scan(site)


@pytest.mark.parametrize("index", sorted(ORDER_FIVE_TIED))
def test_fingerprint_of_tied_order_five_sites_is_quick_and_relabelling_invariant(index):
    monoid = all_monoids(5)[index]
    site = principal_site(monoid, full_filter(monoid))
    fp = morita_fingerprint(site)
    assert (len(site.objects), fp.object_count) == ORDER_FIVE_TIED[index]
    rng = random.Random(index)
    for _ in range(2):
        # a fresh copy, so its fingerprint is computed, not read
        shuffled = relabeled_category(site, rng)
        start = time.perf_counter()
        assert morita_fingerprint(shuffled) == fp
        assert time.perf_counter() - start < 1.0


def test_equivalence_search_matches_the_full_check_on_every_pair_of_sites_through_order_three():
    sites = sites_through_order_three()
    found = 0
    for c1 in sites:
        for c2 in sites:
            verdict = categories_equivalent(c1, c2)
            assert verdict == categories_equivalent_by_full_check(c1, c2)
            found += verdict.kind == "yes"
    assert found > len(sites)


def test_equivalence_search_matches_the_full_check_on_hand_built_categories():
    cats = hand_built_categories()
    for c1 in cats:
        for c2 in cats:
            assert categories_equivalent(c1, c2) == categories_equivalent_by_full_check(c1, c2)


def test_equivalence_search_matches_the_full_check_on_relabelled_sites(order_four_cell_filters):
    rng = random.Random(23)
    sites = sites_through_order_three() + [
        principal_site(flt.monoid, flt) for flt in order_four_cell_filters[1]]
    for site in sites:
        shuffled = relabeled_category(site, rng)
        for c1, c2 in ((site, shuffled), (shuffled, site)):
            verdict = categories_equivalent(c1, c2)
            assert verdict == categories_equivalent_by_full_check(c1, c2)
            assert verdict.kind != "no"


def test_equivalence_search_checks_a_composite_indexed_above_both_factors():
    c1, c2 = late_composite_pair()
    verdict = categories_equivalent(c1, c2)
    assert verdict.kind == "yes"
    assert verdict.object_map == (0, 1, 2)
    assert verdict.arrow_map == (0, 1, 2, 3, 4, 6, 5)
    assert verdict == categories_equivalent_by_full_check(c1, c2)


def test_joint_covering_terminal():
    assert joint_covering(terminal_category())
    assert strict_joint_covering(terminal_category())


def test_joint_covering_of_sites():
    for monoid in all_monoids(3):
        for flt in enumerate_filters(monoid):
            site = principal_site(monoid, flt)
            assert joint_covering(site)
            assert strict_joint_covering(site)


def test_joint_covering_of_order_four_sites():
    for monoid in all_monoids(4):
        for flt in enumerate_filters(monoid):
            site = principal_site(monoid, flt)
            assert joint_covering(site)
            assert strict_joint_covering(site)


def test_joint_covering_fails_for_forked_poset():
    # three objects, two maximal incomparable, no common lower bound for them
    rel = [[True, True, False], [False, True, False], [False, False, True]]
    cat = poset_category(rel, 3)
    assert not joint_covering(cat)


def test_is_atomic_group(c4):
    verdict, witness = is_atomic(c4, full_filter(c4))
    assert verdict and witness is None


def test_is_atomic_truncated_addition(n2):
    verdict, _ = is_atomic(n2, filter_generated(n2, [total(n2)]))
    assert verdict
    verdict, witness = is_atomic(n2, full_filter(n2))
    assert not verdict
    r, m = witness
    # the witness is a genuine counterexample: m never becomes invertible mod r
    one = r.class_of[n2.identity]
    assert all(r.class_of[n2.table[m][k]] != one for k in range(3))
    # the diagonal in particular fails at m = 1
    assert not is_atomic(n2, full_filter(n2))[0]


def atomic_witness_by_member_scan(monoid, flt):
    """Oracle for is_atomic's witness: the first member r and element m
    with no m2 such that m·m2 is r-related to the identity, or None."""
    for r in flt.members:
        one = r.class_of[monoid.identity]
        for m in range(monoid.order):
            if not any(r.class_of[monoid.table[m][m2]] == one
                       for m2 in range(monoid.order)):
                return r, m
    return None


def test_is_atomic_matches_the_member_scan_through_order_four():
    verdicts = []
    for order in range(1, 5):
        for monoid in all_monoids(order):
            for flt in enumerate_filters(monoid):
                witness = atomic_witness_by_member_scan(monoid, flt)
                assert is_atomic(monoid, flt) == (witness is None, witness)
                verdicts.append(witness is None)
    assert len(verdicts) == 217 and 0 < sum(verdicts) < 217


def test_is_atomic_left_zero(m_lz, tau_a):
    verdict, witness = is_atomic(m_lz, open_congruences(m_lz, tau_a))
    assert not verdict
    r, m = witness
    assert r.label() == "1|x,y" and m == 1


def test_dense_units(c4, n2, m_lz, tau_a):
    assert dense_units(c4, discrete_topology(4))
    assert not dense_units(n2, discrete_topology(3))
    assert not dense_units(m_lz, tau_a)


def test_dense_units_match_atomicity_of_the_open_filter():
    # atomicity condition 3 against condition 4
    cells = 0
    for order in (1, 2, 3, 4):
        topologies = all_topologies(order)
        for monoid in all_monoids(order):
            for topology in topologies if order < 4 else topologies[::5]:
                assert dense_units(monoid, topology) \
                    == is_atomic(monoid, open_congruences(monoid, topology))[0]
                cells += 1
    assert cells == 2697


def test_zero_fixed_point(n2, c2, one):
    for flt in enumerate_filters(n2):
        assert zero_fixed_point_check(n2, flt)
    assert zero_fixed_point_check(one, full_filter(one))
    with pytest.raises(NoZeroElement):
        zero_fixed_point_check(c2, full_filter(c2))


def test_zero_fixed_point_matches_member_scan_through_order_four():
    filters = 0
    for order in (1, 2, 3, 4):
        for monoid in all_monoids(order):
            if zero_element(monoid) is None:
                continue
            for flt in enumerate_filters(monoid):
                assert zero_fixed_point_check(monoid, flt) \
                    == zero_fixed_point_by_scan(monoid, flt)
                filters += 1
    assert filters == 96


def test_classify_monogenic():
    assert classify_monogenic([0], 0) == (0, 1)
    assert classify_monogenic([1, 2, 2], 0) == (2, 1)
    assert classify_monogenic([1, 2, 0], 0) == (0, 3)
    assert classify_monogenic(monogenic_orbit(2, 3), 0) == (2, 3)


def test_monogenic_hom_flags_examples():
    assert monogenic_homs((2, 2), (1, 2)) == MonogenicHomFlags(True, False)
    assert monogenic_homs((1, 2), (2, 2)) == MonogenicHomFlags(False, True)
    assert monogenic_homs((0, 1), (0, 1)) == MonogenicHomFlags(True, True)
    assert monogenic_homs((1, 1), (0, 2)) == MonogenicHomFlags(False, False)


def test_monogenic_arithmetic_matches_bruteforce_small():
    for a in range(4):
        for b in range(1, 4):
            for a2 in range(4):
                for b2 in range(1, 4):
                    flags = monogenic_homs((a, b), (a2, b2))
                    assert flags == monogenic_homs_bruteforce((a, b), (a2, b2))
                    assert flags.epi_exists == (a2 <= a and b % b2 == 0)
                    assert flags.mono_exists == (a <= a2 and b == b2)


def test_monogenic_joint_cover_shape():
    import math
    for a in range(4):
        for b in range(1, 4):
            for a2 in range(4):
                for b2 in range(1, 4):
                    f1, f2 = monogenic_orbit(a, b), monogenic_orbit(a2, b2)
                    size2 = len(f2)
                    product = [f1[p] * size2 + f2[q]
                               for p in range(len(f1)) for q in range(size2)]
                    shape = classify_monogenic(product, 0)
                    assert shape == (max(a, a2), math.lcm(b, b2))


def test_monoids_isomorphic(b2, c2):
    assert monoids_isomorphic(b2, two_idempotents())
    assert monoids_isomorphic(b2, c2) is None
    relabeled = cyclic(4)
    assert monoids_isomorphic(cyclic(4), relabeled) == (0, 1, 2, 3)


def brute_force_isomorphism(m1, m2):
    """The oracle: try every bijection that fixes the identity, (n-1)! of
    them, in lexicographic order."""
    n = m1.order
    if n != m2.order:
        return None
    rest1 = [a for a in range(n) if a != m1.identity]
    rest2 = [a for a in range(n) if a != m2.identity]
    for images in itertools.permutations(rest2):
        phi = {m1.identity: m2.identity}
        phi.update(zip(rest1, images))
        if all(phi[m1.table[a][b]] == m2.table[phi[a]][phi[b]]
               for a in range(n) for b in range(n)):
            return tuple(phi[a] for a in range(n))
    return None


def assert_isomorphism(m1, m2, phi):
    validate_hom(m1, m2, phi)
    inverse = [0] * m1.order
    for a, v in enumerate(phi):
        inverse[v] = a
    validate_hom(m2, m1, inverse)


def test_isomorphism_search_matches_brute_force_through_order_four():
    rng = random.Random(8)
    for order in range(1, 5):
        monoids = all_monoids(order)
        for m1 in monoids:
            for m2 in monoids:
                copy = relabeled_monoid(m2, rng)
                phi = monoids_isomorphic(m1, copy)
                assert (phi is None) == (brute_force_isomorphism(m1, copy) is None)
                assert (phi is None) == (m1 is not m2)
                if phi is not None:
                    assert_isomorphism(m1, copy, phi)


@settings(max_examples=30, deadline=None)
@given(transformation_monoids(points=4, orders=(2, 7)),
       transformation_monoids(points=4, orders=(2, 7)), st.integers(0, 10_000))
def test_isomorphism_search_matches_brute_force_on_transformation_monoids(m1, m2, seed):
    rng = random.Random(seed)
    for other in (m1, m2, opposite(m1)):
        copy = relabeled_monoid(other, rng)
        phi = monoids_isomorphic(m1, copy)
        assert (phi is None) == (brute_force_isomorphism(m1, copy) is None)
        if phi is not None:
            assert_isomorphism(m1, copy, phi)
    assert monoids_isomorphic(m1, relabeled_monoid(m1, rng)) is not None


@settings(max_examples=30, deadline=None)
@given(transformation_monoids(orders=(8, 30)), st.integers(0, 10_000))
def test_isomorphism_search_finds_relabeled_copies_past_order_seven(monoid, seed):
    copy = relabeled_monoid(monoid, random.Random(seed))
    assert_isomorphism(monoid, copy, monoids_isomorphic(monoid, copy))


def test_isomorphism_search_on_t3():
    t3 = transformation_monoid(sorted(itertools.product(range(3), repeat=3),
                                      key=lambda e: e != (0, 1, 2)))
    copy = relabeled_monoid(t3, random.Random(3))
    assert_isomorphism(t3, copy, monoids_isomorphic(t3, copy))
    assert monoids_isomorphic(t3, opposite(t3)) is None


def small_cells():
    return [(m, t) for order in range(1, 4) for m in all_monoids(order)
            for t in all_topologies(order)]


def test_morita_equivalent_agrees_with_site_equivalence_through_order_three():
    # every cell against the first cell of each class: together with the
    # verdicts, this decides every pair
    firsts = []
    for monoid, topology in small_cells():
        site = principal_site(monoid, open_congruences(monoid, topology))
        same = None
        for first in firsts:
            witness = morita_equivalent(monoid, topology, first[0], first[1])
            verdict = categories_equivalent(site, first[2]).kind
            assert verdict != "unknown"
            assert (verdict == "yes") == (witness is not None)
            if witness is not None:
                assert_isomorphism(witness.source, witness.target, witness.map)
                assert same is None
                same = first
        if same is None:
            firsts.append((monoid, topology, site))
    assert len(firsts) > 1


def test_endomorphisms_of_r0_in_the_site_form_the_powder_monoid():
    # the canonical point: hom(r0, r0) in the open-filter principal site is
    # M/r0, up to the order of composition
    cells = small_cells() + [(m, t) for m in all_monoids(4)
                             for t in all_topologies(4)[::7]]
    for monoid, topology in cells:
        flt = open_congruences(monoid, topology)
        site = principal_site(monoid, flt)
        r0 = flt.members.index(flt.least)
        arrows = hom_by_scan(site, r0, r0)
        pos = {f: k for k, f in enumerate(arrows)}
        endo = validate_monoid(
            [site.arrow_names[f] for f in arrows],
            [[pos[site.then(f, g)] for g in arrows] for f in arrows],
            pos[site.identities[r0]])
        powder = powder_reflection(monoid, topology).monoid
        assert endo.order == powder.order
        assert (monoids_isomorphic(endo, powder) is not None
                or monoids_isomorphic(opposite(endo), powder) is not None)


def assert_constructions_move_along_a_relabelling(monoid, topology, rng):
    """On a copy of the monoid with shuffled element indices, and the
    topology carried along: the continuous subsets are the partition moved
    along, the powder quotient and the completion on the open filter are
    isomorphic, and the open filter's principal site keeps its fingerprint
    and arrow count."""
    copy = relabeled_monoid(monoid, rng)
    old = [monoid.elements.index(name) for name in copy.elements]
    moved = relabeled_topology(monoid, copy, topology)
    report, report_copy = continuous_subsets(monoid, topology), continuous_subsets(copy, moved)
    assert report_copy.partition == congruence_from_class_map(
        copy, [report.partition.class_of[x] for x in old])
    assert report_copy.topology == relabeled_topology(monoid, copy, report.topology)
    assert report_copy.is_action_topology == report.is_action_topology
    assert monoids_isomorphic(powder_reflection(monoid, topology).monoid,
                              powder_reflection(copy, moved).monoid) is not None
    flt, flt_copy = open_congruences(monoid, topology), open_congruences(copy, moved)
    completion, completion_copy = complete(monoid, flt).monoid, complete(copy, flt_copy).monoid
    assert completion_copy.order == completion.order
    assert monoids_isomorphic(completion, completion_copy) is not None
    site, site_copy = principal_site(monoid, flt), principal_site(copy, flt_copy)
    assert site_copy.arrow_count == site.arrow_count
    assert morita_fingerprint(site_copy) == morita_fingerprint(site)


def test_constructions_move_along_relabellings_through_order_three():
    rng = random.Random(18)
    for monoid, topology in small_cells():
        assert_constructions_move_along_a_relabelling(monoid, topology, rng)


def test_constructions_move_along_relabellings_on_order_four_cells():
    rng = random.Random(19)
    cells = [(m, t) for m in all_monoids(4) for t in all_topologies(4)]
    for monoid, topology in rng.sample(cells, 1000):
        assert_constructions_move_along_a_relabelling(monoid, topology, rng)


def test_make_category_rejects_a_composite_that_is_not_an_int():
    with pytest.raises(BadCategory, match="composite of arrows 0 and 0 is not an arrow"):
        make_category(["*"], [("id", 0, 0)], lambda f, g: None, [0], [])


def test_bad_category_rejected():
    with pytest.raises(BadCategory):
        make_category(["*"], [("id", 0, 0), ("e", 0, 0)],
                      lambda f, g: 0, [0], [], [])


def one_object(after, identities=(0,), src=(0, 0), tgt=(0, 0), objects=("*",)):
    return FiniteCategory(objects, ("e", "a"), src, tgt, after, identities,
                          frozenset(), frozenset())


@pytest.mark.parametrize("cat, message", [
    (one_object(((0, 1), (1, 2))), "composite of arrows 1 and 1 is not an arrow"),
    (one_object(((0, 1), (1, 0)), identities=(2,)), "identity of object 0 is not an arrow"),
    (one_object(((0, 1), (1, 0)), identities=(-1,)), "identity of object 0 is not an arrow"),
    (one_object(((0, 1), (1,))), "each arrow needs one composite per arrow out of its target"),
    (one_object(((0, 1),)), "each arrow needs one composite per arrow out of its target"),
    (one_object(((0, 1), (1, 0)), tgt=(0, 1)), "arrow 1 has an endpoint that is not an object"),
    (one_object(((0, 1), (1, 0)), src=(0, -1)), "arrow 1 has an endpoint that is not an object"),
    (one_object(((0, 1), (1, 0)), src=(0,)),
     "each arrow needs a source and a target, each object an identity"),
    (one_object(((0, 1), (1, 0)), objects=("*", "+")),
     "each arrow needs a source and a target, each object an identity"),
    (one_object(((0, 1), (1, None))), "composite of arrows 1 and 1 is not an arrow"),
    (one_object(((0, 1.0), (1, 0))), "composite of arrows 0 and 1 is not an arrow"),
    (one_object(((0, 1), (1, 0)), identities=(0.0,)), "identity of object 0 is not an arrow"),
    (one_object(((0, 1), (1, 0)), src=(0, 0.0)),
     "arrow 1 has an endpoint that is not an object"),
    (one_object(((0, 1), (1, 0)), tgt=(None, 0)),
     "arrow 0 has an endpoint that is not an object"),
], ids=["composite", "identity", "negative-identity", "short-row", "missing-row",
        "target", "negative-source", "sources", "identities", "none-composite",
        "float-composite", "float-identity", "float-source", "none-target"])
def test_malformed_categories_raise_bad_category(cat, message):
    with pytest.raises(BadCategory, match=re.escape(message)):
        validate_category(cat)


def bad_category_message(check, cat):
    try:
        check(cat)
    except BadCategory as exc:
        return str(exc)
    return None


def with_entry(cat, f, k, value):
    """cat with the composite of f and the k-th arrow out of tgt(f) set to
    value; k past the end of f's row appends it, a composite stored for a
    pair that does not compose."""
    after = [list(row) for row in cat.after]
    after[f][k:k + 1] = [value]
    return dataclasses.replace(cat, after=tuple(tuple(row) for row in after))


def with_endpoint(cat, field, f, obj):
    ends = list(getattr(cat, field))
    ends[f] = obj
    return dataclasses.replace(cat, **{field: tuple(ends)})


def faults(cat, rng):
    """Edits of cat that make one fault each, as (edit, arguments), so that
    a sample of them can be built alone: every composite changed (to an
    arrow with the same endpoints where there is one, so that the unit laws
    and associativity are reached), every arrow's source or target moved,
    every composite set to -1, and one composite appended to a row."""
    arrows = range(cat.arrow_count)
    pairs = [(f, k) for f in arrows for k in range(len(cat.after[f]))]
    for f, g in pairs:
        h = cat.after[f][g]
        parallel = [k for k in arrows if k != h and cat.arrow_src[k] == cat.arrow_src[h]
                    and cat.arrow_tgt[k] == cat.arrow_tgt[h]]
        others = parallel or [k for k in arrows if k != h]
        if others:
            yield with_entry, (cat, f, g, rng.choice(others))
    if len(cat.objects) > 1:
        for f in arrows:
            field = rng.choice(["arrow_src", "arrow_tgt"])
            old = getattr(cat, field)[f]
            yield with_endpoint, (cat, field, f,
                                  rng.choice([o for o in range(len(cat.objects)) if o != old]))
    for f, g in pairs:
        yield with_entry, (cat, f, g, -1)
    f = rng.choice(arrows)
    yield with_entry, (cat, f, len(cat.after[f]), rng.choice(arrows))


def corruptions(cat, rng):
    """The copies of cat that faults describes, one fault each."""
    for edit, arguments in faults(cat, rng):
        yield edit(*arguments)


def test_validate_category_names_every_fault_kind_on_corrupted_sites():
    rng = random.Random(5)
    seen = set()
    cases = 0
    for monoid in all_monoids(1) + all_monoids(2) + all_monoids(3):
        for flt in enumerate_filters(monoid):
            site = principal_site(monoid, flt)
            for cat in (site, *corruptions(site, rng)):
                message = bad_category_message(validate_category, cat)
                seen.add(re.sub(r"\d+", "N", message) if message else None)
                cases += 1
    assert cases > 1000
    assert seen == {None, "identity of object N has wrong endpoints",
                    "each arrow needs one composite per arrow out of its target",
                    "composite of arrows N and N is not an arrow",
                    "composite has wrong endpoints", "left unit law fails at arrow N",
                    "right unit law fails at arrow N", "associativity fails at (N, N, N)"}


def test_validate_category_finds_associativity_faults_on_a_large_site():
    # the largest full-filter site through order 4, 147 arrows
    monoid = max(all_monoids(4), key=lambda m: principal_site(m, full_filter(m)).arrow_count)
    site = principal_site(monoid, full_filter(monoid))
    assert site.arrow_count > 100
    rng = random.Random(6)
    seen = set()
    for edit, arguments in rng.sample(list(faults(site, rng)), 300):
        cat = edit(*arguments)
        message = bad_category_message(validate_category, cat)
        seen.add(re.sub(r"\d+", "N", message) if message else None)
    assert "associativity fails at (N, N, N)" in seen


def test_first_associativity_failure_with_a_composite_middle_arrow():
    # one object; e, a, b, c with a;a = e, b;b = c: the arrows a and b
    # generate, and the first failing triple in (f, g, h) order has the
    # middle c; the message names that first triple
    table = ((0, 1, 2, 3), (1, 0, 2, 3), (2, 2, 3, 2), (3, 0, 0, 0))
    cat = FiniteCategory(("*",), ("e", "a", "b", "c"), (0,) * 4, (0,) * 4, table,
                         (0,), frozenset(), frozenset())
    assert bad_category_message(validate_category, cat) == "associativity fails at (1, 3, 1)"


def class_maps_all_onto(monoid, flt):
    """Whether every arrow [m]: r1 → r2 of hom_classes has a class map onto
    the r2-classes: its image is the r2-classes of m·x over all x."""
    members, table = flt.members, monoid.table
    return all(len({r2.class_of[y] for y in table[m]}) == r2.num_classes
               for r1 in members for r2 in members for m in hom_classes(flt, r1, r2))


def test_class_map_epis_match_the_site_through_order_four():
    for order in range(1, 5):
        for monoid in all_monoids(order):
            for flt in enumerate_filters(monoid):
                site = principal_site(monoid, flt)
                onto = class_maps_all_onto(monoid, flt)
                assert onto == (len(site.epis) == site.arrow_count)
                assert onto == is_atomic(monoid, flt)[0]

