import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topact.catalog import all_topologies
from topact.errors import TopactError
from topact.topology import (OutOfRange, SizeMismatch, connected_components,
                             discrete_topology, generate_topology, indiscrete_topology,
                             is_continuous, is_locally_constant, is_open_in_product,
                             minimal_base, minimal_neighborhoods, partition_topology,
                             separation_report, subspace_topology)
from topact.util import bits, mask_of


def is_topology(carrier, opens):
    full = (1 << carrier) - 1
    if 0 not in opens or full not in opens:
        return False
    return all(a & b in opens and a | b in opens for a in opens for b in opens)


def test_generate_empty_base_is_indiscrete():
    t = generate_topology(3, [])
    assert sorted(t.opens) == [0, 7]


def test_generate_singletons_is_discrete():
    t = generate_topology(3, [1, 2, 4])
    assert t.is_discrete()


def test_generate_split_base(tau_a):
    assert sorted(tau_a.opens) == [0, 1, 6, 7]


def test_generate_out_of_range():
    with pytest.raises(OutOfRange):
        generate_topology(2, [4])


def _close(family, op):
    out = set(family)
    frontier = list(out)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(out):
                c = op(a, b)
                if c not in out:
                    out.add(c)
                    fresh.append(c)
        frontier = fresh
    return out


def generated_by_pairwise_closure(carrier, base):
    """Oracle: close the base and the full set under pairwise
    intersections, then under pairwise unions, and add the empty set."""
    family = {(1 << carrier) - 1, *base}
    return frozenset(_close(_close(family, int.__and__), int.__or__) | {0})


@settings(max_examples=200)
@given(st.integers(1, 5), st.lists(st.integers(0, 31), max_size=6))
def test_generate_yields_topology_and_is_idempotent(carrier, base):
    base = [b & ((1 << carrier) - 1) for b in base]
    t = generate_topology(carrier, base)
    assert is_topology(carrier, t.opens)
    assert t.opens == generated_by_pairwise_closure(carrier, base)
    again = generate_topology(carrier, t.opens)
    assert again.opens == t.opens


def product_topology(t1, t2):
    """Oracle for is_open_in_product: the topology on the n1·n2 carrier
    (row-major pairing) generated by the rectangles of minimal
    neighbourhoods, a base of the open rectangles."""
    n2 = t2.carrier_size
    rects = [_rectangle(u, v, n2) for u in t1.nbhd for v in t2.nbhd]
    return generate_topology(t1.carrier_size * n2, rects)


def test_product_matches_pairwise_closure_of_open_rectangles():
    for n1, n2 in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for t1 in all_topologies(n1):
            for t2 in all_topologies(n2):
                rects = [_rectangle(u, v, n2) for u in t1.opens for v in t2.opens]
                assert product_topology(t1, t2).opens \
                    == generated_by_pairwise_closure(n1 * n2, rects)


def test_discrete_topology_at_the_family_cap_is_fast():
    start = time.perf_counter()
    t = discrete_topology(16)
    assert len(t.opens) == 1 << 16
    assert time.perf_counter() - start < 1


def test_families_beyond_the_cap_fail_fast():
    for build in (lambda: discrete_topology(17).opens,
                  lambda: product_topology(discrete_topology(5), discrete_topology(5)).opens):
        start = time.perf_counter()
        with pytest.raises(TopactError, match="open-set family exceeds 65536 members"):
            build()
        assert time.perf_counter() - start < 1


def test_product_discrete_discrete():
    t = product_topology(discrete_topology(2), discrete_topology(2))
    assert t.is_discrete()


def test_product_indiscrete_times_tau(tau_a):
    t = product_topology(indiscrete_topology(2), tau_a)
    expected = {0} | {_stack(u, 2, 3) for u in tau_a.opens}
    assert set(t.opens) == expected


def _stack(mask, rows, width):
    out = 0
    for r in range(rows):
        out |= mask << (r * width)
    return out


def test_product_tau_a_squared_has_16_opens(tau_a):
    t = product_topology(tau_a, tau_a)
    # oracle: all unions of open rectangles
    rects = [_rectangle(u, v, 3) for u in tau_a.opens for v in tau_a.opens]
    unions = set()
    for take in itertools.product((0, 1), repeat=len(rects)):
        acc = 0
        for flag, r in zip(take, rects):
            if flag:
                acc |= r
        unions.add(acc)
    assert set(t.opens) == unions
    assert len(t.opens) == 16


def _rectangle(u, v, width):
    out = 0
    for a in bits(u):
        out |= v << (a * width)
    return out


def test_product_openness_matches_materialized_product():
    for n1, n2 in ((2, 2), (2, 3)):
        for t1 in all_topologies(n1):
            for t2 in all_topologies(n2):
                prod = product_topology(t1, t2)
                for mask in range(1 << (n1 * n2)):
                    assert is_open_in_product(mask, t1, t2) == (mask in prod.opens)


def test_product_openness_sampled_three_by_three():
    topologies = all_topologies(3)
    for t1 in topologies[::5]:
        for t2 in topologies[::7]:
            prod = product_topology(t1, t2)
            for mask in range(0, 1 << 9, 3):
                assert is_open_in_product(mask, t1, t2) == (mask in prod.opens)


def test_subspace_full_carrier_is_identity(tau_a):
    assert subspace_topology(tau_a, 0b111).opens == tau_a.opens


def test_subspace_of_split_is_indiscrete_on_pair(tau_a):
    t = subspace_topology(tau_a, 0b110)
    assert sorted(t.opens) == [0, 3]


def test_subspace_of_discrete_is_discrete():
    t = subspace_topology(discrete_topology(4), 0b1010)
    assert t.is_discrete()


def test_separation_discrete():
    rep = separation_report(discrete_topology(3))
    assert rep.t0 and rep.clopen_base and rep.discrete


def test_separation_indiscrete():
    rep = separation_report(indiscrete_topology(2))
    assert rep.partition == ((0, 1),)
    assert not rep.t0


def test_separation_split(tau_a):
    rep = separation_report(tau_a)
    assert rep.partition == ((0,), (1, 2))
    assert not rep.t0
    assert rep.clopen_base


def test_t0_plus_clopen_base_forces_discrete():
    for carrier in (1, 2, 3, 4):
        for t in all_topologies(carrier):
            rep = separation_report(t)
            if rep.t0 and rep.clopen_base:
                assert rep.discrete


def test_clopen_base_matches_unions_of_clopens():
    for carrier in (1, 2, 3, 4):
        for t in all_topologies(carrier):
            clopens = t.clopens()
            expected = all(_union_of_contained(u, clopens) == u for u in t.opens)
            assert separation_report(t).clopen_base == expected


def test_locally_constant_means_open_fibres():
    for carrier in (1, 2, 3):
        for t in all_topologies(carrier):
            for values in itertools.product(range(carrier), repeat=carrier):
                fibres = {mask_of(x for x in range(carrier) if values[x] == v)
                          for v in values}
                assert is_locally_constant(values, t) == all(t.is_open(u) for u in fibres)


def test_is_continuous_matches_preimages_of_opens():
    for n_src, n_tgt in ((2, 3), (3, 2), (3, 3)):
        for t_src in all_topologies(n_src):
            for t_tgt in all_topologies(n_tgt):
                for f in itertools.product(range(n_tgt), repeat=n_src):
                    expected = all(
                        mask_of(x for x in range(n_src) if u >> f[x] & 1) in t_src.opens
                        for u in t_tgt.opens)
                    assert is_continuous(f, t_src, t_tgt) == expected


def test_connected_components(tau_a):
    assert connected_components(discrete_topology(3)) == ((0,), (1,), (2,))
    assert connected_components(indiscrete_topology(3)) == ((0, 1, 2),)
    assert connected_components(tau_a) == ((0,), (1, 2))


def test_is_continuous_identity_coarsening(tau_a):
    assert is_continuous([0, 1, 2], tau_a, indiscrete_topology(3))
    assert not is_continuous([0, 1], indiscrete_topology(2), discrete_topology(2))


def test_is_continuous_quotient_map(tau_a):
    # collapse x,y: preimages of the discrete opens are {1} and {x,y}
    assert is_continuous([0, 1, 1], tau_a, discrete_topology(2))


def test_is_continuous_size_mismatch(tau_a):
    with pytest.raises(SizeMismatch):
        is_continuous([0, 1], tau_a, tau_a)


def test_minimal_base_spans_and_is_irredundant():
    for t in all_topologies(3):
        base = minimal_base(t)
        for u in t.opens:
            assert _union_of_contained(u, base) == u
        for b in base:
            others = [x for x in base if x != b]
            assert _union_of_contained(b, others) != b or b == 0


def _union_of_contained(target, family):
    acc = 0
    for u in family:
        if u & ~target == 0:
            acc |= u
    return acc


def test_minimal_neighborhoods_are_open():
    for t in all_topologies(3):
        for nb in minimal_neighborhoods(t):
            assert t.is_open(nb)


def test_topology_counts():
    assert [len(all_topologies(n)) for n in (1, 2, 3, 4)] == [1, 4, 29, 355]


def test_diagonal_subspace_of_discrete_square():
    t = discrete_topology(3)
    prod = product_topology(t, t)
    diag = mask_of(i * 3 + i for i in range(3))
    assert subspace_topology(prod, diag).opens == t.opens


def test_partition_topology_opens():
    t = partition_topology(4, [[0, 1], [2], [3]])
    assert len(t.opens) == 8
    rep = separation_report(t)
    assert rep.clopen_base and not rep.t0


def _every_topology_through_4():
    for carrier in (1, 2, 3, 4):
        for t in all_topologies(carrier):
            yield carrier, t


def test_opens_are_the_up_sets_of_the_neighbourhoods():
    for carrier, t in _every_topology_through_4():
        up_sets = {u for u in range(1 << carrier)
                   if all(t.nbhd[x] & ~u == 0 for x in bits(u))}
        assert t.opens == up_sets
        assert generate_topology(carrier, t.opens) == t


def test_point_methods_match_the_open_set_family():
    """Oracles: the methods as first written on the family of opens, for
    masks inside and (openness, closedness) outside the carrier."""
    for carrier, t in _every_topology_through_4():
        full = (1 << carrier) - 1
        for mask in range(1 << (carrier + 1)):
            assert t.is_open(mask) == (mask in t.opens)
            assert t.is_closed(mask) == ((full & ~mask) in t.opens)
        for mask in range(1 << carrier):
            away = 0
            for u in t.opens:
                if u & mask == 0:
                    away |= u
            assert t.closure(mask) == full & ~away
            assert t.is_dense(mask) == all(u & mask for u in t.opens if u)
        assert t.is_discrete() == (len(t.opens) == 1 << carrier)


def components_by_clopen_signature(t):
    """Oracle: classes of "no clopen separates x from y", ordered by least
    member."""
    clopens = t.clopens()
    classes = {}
    for x in range(t.carrier_size):
        classes.setdefault(tuple(u >> x & 1 for u in clopens), []).append(x)
    return tuple(tuple(c) for c in classes.values())


def test_connected_components_match_clopen_signatures():
    for _, t in _every_topology_through_4():
        assert connected_components(t) == components_by_clopen_signature(t)


def test_subspace_topology_matches_traces_of_opens():
    for carrier, t in _every_topology_through_4():
        for subset in range(1 << carrier):
            pos = {m: i for i, m in enumerate(bits(subset))}
            traces = {mask_of(pos[m] for m in bits(u & subset)) for u in t.opens}
            assert subspace_topology(t, subset).opens == traces


def test_separation_report_matches_the_open_set_family():
    for carrier, t in _every_topology_through_4():
        around = [frozenset(u for u in t.opens if u >> x & 1) for x in range(carrier)]
        preorder = []
        for x in range(carrier):
            acc = (1 << carrier) - 1
            for u in around[x]:
                acc &= u
            preorder.append(acc)
        classes = {}
        for x in range(carrier):
            classes.setdefault(around[x], []).append(x)
        rep = separation_report(t)
        assert rep.preorder == tuple(preorder)
        assert rep.partition == tuple(tuple(c) for c in classes.values())
        assert rep.t0 == (len(classes) == carrier)
        assert rep.discrete == (len(t.opens) == 1 << carrier)
