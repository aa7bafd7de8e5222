"""Exhaustive small-scale verification driver.

Runs every registered invariant over all monoids up to isomorphism and all
topologies on their carriers (and all equivariant filters), collecting
pass/fail counts and a minimal counterexample per invariant.  Its caps are
the catalog's enumeration bounds, catalog.MAX_ENUM_ORDER and
catalog.MAX_ENUM_CARRIER (5 each), read when the suite starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import catalog
from .actions import is_continuous_mset, quotient_mset
from .catalog import all_monoids, all_topologies
from .completion import closedness_report, complete, prodiscrete_criteria
from .congruences import enumerate_filters, full_filter, open_congruences
from .errors import CapExceeded, TopactError
from .invariants import (is_atomic, joint_covering, morita_fingerprint,
                         principal_site, strict_joint_covering, zero_fixed_point_check)
from .monoid import FiniteMonoid, idempotents, unit_indices, zero_element
from .reflections import (congruence_hat_topology, continuous_subsets,
                          induced_topology_from_filter, is_topological_monoid,
                          powder_reflection, two_sided_commutation)
from .topology import Topology, discrete_topology, separation_report
from .util import mask_of


@dataclass
class InvariantRecord:
    name: str
    passed: int = 0
    failed: int = 0
    counterexample: Optional[str] = None

    def record(self, ok: bool, context: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if self.counterexample is None:
                self.counterexample = context


@dataclass
class SuiteSummary:
    records: dict[str, InvariantRecord] = field(default_factory=dict)

    def check(self, name: str, ok: bool, context: str) -> None:
        self.records.setdefault(name, InvariantRecord(name)).record(ok, context)

    @property
    def all_passed(self) -> bool:
        return all(r.failed == 0 for r in self.records.values())

    def lines(self) -> list[str]:
        out = []
        for name in sorted(self.records):
            r = self.records[name]
            line = f"{'PASS' if r.failed == 0 else 'FAIL'} {name}: {r.passed} ok"
            if r.failed:
                line += f", {r.failed} failed (first: {r.counterexample})"
            out.append(line)
        return out


def exhaustive_suite(order_bound: int = 3, topology_bound: int = 3) -> SuiteSummary:
    for what, bound, least, cap in (("suite monoid order", order_bound, 1,
                                     catalog.MAX_ENUM_ORDER),
                                    ("suite topology carrier", topology_bound, 0,
                                     catalog.MAX_ENUM_CARRIER)):
        if bound > cap:
            raise CapExceeded(what, bound)
        if bound < least:
            raise TopactError(f"{what}: must be at least {least}, got {bound}")
    summary = SuiteSummary()
    for order in range(1, order_bound + 1):
        for monoid in all_monoids(order):
            if order <= topology_bound:
                for topology in all_topologies(order):
                    _topology_cell(summary, monoid, topology)
            for flt in enumerate_filters(monoid):
                _filter_cell(summary, monoid, flt)
            _closedness_cell(summary, monoid)
    return summary


def _context(monoid: FiniteMonoid, extra: str) -> str:
    return f"{monoid!r} / {extra}"


def _topology_cell(summary: SuiteSummary, monoid: FiniteMonoid,
                   topology: Topology) -> None:
    ctx = _context(monoid, f"{sorted(topology.opens)}")
    report = continuous_subsets(monoid, topology)
    tilde = report.topology
    summary.check("action-topology-coarser",
                  tilde.opens <= topology.opens, ctx)
    again = continuous_subsets(monoid, tilde)
    summary.check("action-topology-idempotent",
                  again.topology.opens == tilde.opens and again.is_action_topology, ctx)
    summary.check("action-topology-same-open-congruences",
                  open_congruences(monoid, topology).members
                  == open_congruences(monoid, tilde).members, ctx)
    summary.check("action-topology-multiplication-continuous",
                  is_topological_monoid(monoid, tilde), ctx)
    summary.check("hat-topology-contains-action-topology",
                  tilde.opens <= congruence_hat_topology(monoid, topology).opens, ctx)

    reflection = powder_reflection(monoid, topology)
    summary.check("powder-discrete-t0",
                  reflection.topology.is_discrete()
                  and separation_report(reflection.topology).t0, ctx)
    before = morita_fingerprint(principal_site(monoid, open_congruences(monoid, topology)))
    after = morita_fingerprint(principal_site(reflection.monoid,
                                              full_filter(reflection.monoid)))
    summary.check("powder-preserves-site-fingerprint", before == after, ctx)

    if is_topological_monoid(monoid, topology) and separation_report(topology).t0:
        summary.check("left-right-reflections-commute",
                      two_sided_commutation(monoid, topology), ctx)


def _filter_cell(summary: SuiteSummary, monoid: FiniteMonoid, flt) -> None:
    ctx = _context(monoid, f"filter@{flt.least.label()}")
    cpl = complete(monoid, flt)
    summary.check("completion-comparison-is-monoid-hom",
                  cpl.comparison.preserves_identity, ctx)
    image = mask_of(cpl.comparison.map)
    summary.check("completion-image-dense",
                  all(u & image for u in cpl.topology.opens if u), ctx)
    again = complete(cpl.monoid, open_congruences(cpl.monoid, cpl.topology))
    summary.check("completion-idempotent",
                  len(set(again.comparison.map)) == cpl.monoid.order
                  and again.monoid.order == cpl.monoid.order, ctx)
    crit = prodiscrete_criteria(monoid, flt)
    summary.check("completion-discrete-prodiscrete",
                  crit.discrete and crit.prodiscrete, ctx)

    site = principal_site(monoid, flt)
    summary.check("site-joint-covering", joint_covering(site), ctx)
    summary.check("site-strict-joint-covering", strict_joint_covering(site), ctx)

    atomic, _ = is_atomic(monoid, flt)
    units = set(unit_indices(monoid))
    if set(range(monoid.order)) == units:
        summary.check("groups-are-atomic", atomic, ctx)
    z = zero_element(monoid)
    if z is not None:
        if flt.least.num_classes > 1:
            summary.check("zero-plus-proper-filter-not-atomic", not atomic, ctx)
        summary.check("zero-unique-fixed-point",
                      zero_fixed_point_check(monoid, flt), ctx)

    induced = induced_topology_from_filter(monoid, flt).topology
    for r in flt.members:
        ok, _ = is_continuous_mset(quotient_mset(monoid, r), induced)
        summary.check("filter-quotients-continuous-for-induced-topology", ok, ctx)


def _closedness_cell(summary: SuiteSummary, monoid: FiniteMonoid) -> None:
    topology = discrete_topology(monoid.order)
    for e in idempotents(monoid):
        report = closedness_report(monoid, topology, e)
        summary.check("powder-corner-ideals-closed", report.all_closed(),
                      _context(monoid, f"e={monoid.elements[e]}"))
