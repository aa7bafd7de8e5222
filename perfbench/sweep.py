"""Workload `sweep`: the topology cells of `topact suite --order 4
--topologies 4`, sampled.

One item is one (monoid, topology) cell running the suite's cell
constructions.  The round is every cell through order 3 plus a seeded
sample of PER_MONOID of the 355 topologies of each order-4 monoid, in the
suite's monoid-major order; the fixed count per monoid keeps the cost of a
round the same from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# module-qualified calls, so that the tracer's rebinding sees them
from topact import catalog, congruences, invariants, reflections, topology as top

import oracles
from oracles import expect

COLD_CACHES = False
PER_MONOID = 24
TINY_PER_MONOID = 3


@dataclass
class CellOutput:
    report: object          # continuous_subsets(M, τ)
    again: object           # continuous_subsets(M, τ~)
    open_filter: object     # open_congruences(M, τ)
    open_filter_tilde: object
    tilde_topological: bool
    hat: object
    powder: object
    fingerprint_before: object
    fingerprint_after: object
    commutes: object        # None where the suite skips the check


def setup(seed: int, tiny: bool):
    """The round's cells: catalog enumeration through the program."""
    rng = random.Random(seed)
    top_order, per_monoid = (3, TINY_PER_MONOID) if tiny else (4, PER_MONOID)
    cells = []
    for order in range(1, top_order + 1):
        topologies = catalog.all_topologies(order)
        for monoid in catalog.all_monoids(order):
            picks = range(len(topologies))
            if order == top_order and per_monoid < len(topologies):
                picks = sorted(rng.sample(picks, per_monoid))
            cells.extend((monoid, topologies[i]) for i in picks)
    return cells


def round_items(cells):
    return cells


def check_setup(cells) -> None:
    expect(len(cells) > 0, "sweep has no cells")


def run_item(cells, cell) -> CellOutput:
    monoid, topology = cell
    report = reflections.continuous_subsets(monoid, topology)
    tilde = report.topology
    again = reflections.continuous_subsets(monoid, tilde)
    open_filter = congruences.open_congruences(monoid, topology)
    open_filter_tilde = congruences.open_congruences(monoid, tilde)
    tilde_topological = reflections.is_topological_monoid(monoid, tilde)
    hat = reflections.congruence_hat_topology(monoid, topology)
    powder = reflections.powder_reflection(monoid, topology)
    before = invariants.morita_fingerprint(invariants.principal_site(monoid, open_filter))
    after = invariants.morita_fingerprint(
        invariants.principal_site(powder.monoid, congruences.full_filter(powder.monoid)))
    commutes = None
    if reflections.is_topological_monoid(monoid, topology) and top.separation_report(topology).t0:
        commutes = reflections.two_sided_commutation(monoid, topology)
    return CellOutput(report, again, open_filter, open_filter_tilde, tilde_topological,
                      hat, powder, before, after, commutes)


def check_item(cells, cell, out: CellOutput) -> None:
    monoid, topology = cell
    n = monoid.order
    nb = oracles.neighbourhoods(n, topology.opens)
    r0 = oracles.least_open_congruence(monoid.table, oracles.components(nb))
    unions = oracles.unions_of_classes(r0)
    expect(out.open_filter.least.class_of == r0,
           f"{monoid!r}: least open congruence is not r0")
    expect(set(out.report.continuous_sets) == unions,
           f"{monoid!r}: continuous subsets are not the unions of r0-classes")
    expect(len(out.report.continuous_sets) == len(unions),
           f"{monoid!r}: repeated continuous subsets")
    expect(out.report.is_action_topology == (set(topology.opens) == unions),
           f"{monoid!r}: wrong is_action_topology flag")
    tilde = out.report.topology
    expect(tilde.opens <= topology.opens, f"{monoid!r}: action topology not coarser")
    expect(out.again.topology.opens == tilde.opens and out.again.is_action_topology,
           f"{monoid!r}: action topology not idempotent")
    expect(out.open_filter.members == out.open_filter_tilde.members,
           f"{monoid!r}: open congruences moved under the action topology")
    expect(out.tilde_topological, f"{monoid!r}: action topology not topological")
    expect(tilde.opens <= out.hat.opens, f"{monoid!r}: hat topology misses opens")
    expect(out.powder.monoid.order == max(r0) + 1,
           f"{monoid!r}: powder reflection order is not the number of r0-classes")
    expect(out.fingerprint_before == out.fingerprint_after,
           f"{monoid!r}: powder reflection moved the site fingerprint")
    expect(out.commutes in (None, True), f"{monoid!r}: reflections do not commute")
