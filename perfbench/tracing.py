"""Span tracing of topact's layers from outside the package.

The tracer wraps the public functions listed in LAYERS and rebinds each
wrapper in every topact module that holds the function, so calls made
inside the package are seen as well.  Each call becomes a span (name,
start, end, parent span, item id) kept in flat arrays in memory and written
out when the run ends.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from pathlib import Path

from common import topact_modules

LAYERS = {
    "catalog": ("all_monoids", "all_topologies", "all_msets", "continuous_msets",
                "action_topologies"),
    "monoid": ("validate_monoid", "validate_hom"),
    "topology": ("generate_topology", "is_open_in_product", "separation_report",
                 "is_continuous", "minimal_neighborhoods"),
    "actions": ("power_of_m", "continuous_part", "quotient_mset", "mset_product",
                "enumerate_mset_homs", "exponential_mset"),
    "congruences": ("enumerate_congruences", "open_congruences", "enumerate_filters",
                    "filter_generated", "validate_filter", "full_filter"),
    "reflections": ("continuous_subsets", "powder_reflection", "t0_quotient",
                    "is_topological_monoid", "congruence_hat_topology",
                    "two_sided_commutation", "mult_continuous_core"),
    "completion": ("complete", "prodiscrete_criteria"),
    "invariants": ("principal_site", "validate_category", "morita_fingerprint",
                   "categories_equivalent", "is_atomic", "joint_covering"),
    "files": ("load_file", "dump"),
    "cli": ("main",),
}

# output sizes summed over calls: function -> (metric suffix, size of the result)
SIZES = {
    "topology.generate_topology": ("opens_out", lambda args, r: len(r.opens)),
    "actions.power_of_m": ("points_out", lambda args, r: r.size),
    "actions.enumerate_mset_homs": ("homs_out", lambda args, r: len(r)),
    "congruences.enumerate_congruences": ("lattice_out", lambda args, r: len(r)),
    "completion.complete": ("order_out", lambda args, r: r.monoid.order),
    "invariants.principal_site": ("arrows_out", lambda args, r: r.arrow_count),
    "files.load_file": ("bytes_in", lambda args, r: os.path.getsize(args[1])),
}
# useful share: function -> (its kept count, the child whose output is the base)
KEPT = {
    "actions.exponential_mset": (lambda r: len(r.hom_maps), "actions.enumerate_mset_homs"),
    "congruences.open_congruences": (lambda r: len(r.members),
                                     "congruences.enumerate_congruences"),
}
CACHE_HIT_RATIO = ("topology.minimal_neighborhoods", "congruences.enumerate_congruences",
                   "completion.complete")
CACHE_SIZE = ("topology.minimal_neighborhoods", "actions.power_of_m", "completion.complete")
UNITS = {"opens_out": "count", "points_out": "count", "homs_out": "count",
         "lattice_out": "count", "order_out": "count", "arrows_out": "count",
         "bytes_in": "bytes"}


def metric_specs() -> list[dict]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    specs = []
    for module, functions in LAYERS.items():
        for function in functions:
            name = f"{module}.{function}"
            specs.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
            specs.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
            if name in SIZES:
                suffix = SIZES[name][0]
                specs.append({"name": f"{name}.{suffix}", "unit": UNITS[suffix],
                              "better": "lower"})
            if name in KEPT:
                specs.append({"name": f"{name}.kept_ratio", "unit": "ratio",
                              "better": "higher"})
            if name in CACHE_HIT_RATIO:
                specs.append({"name": f"{name}.cache_hit_ratio", "unit": "ratio",
                              "better": "higher"})
            if name in CACHE_SIZE:
                specs.append({"name": f"{name}.cache_size", "unit": "count",
                              "better": "lower"})
    specs.append({"name": "trace.span_cover_ratio", "unit": "ratio", "better": "higher"})
    specs.append({"name": "trace.overhead_ratio", "unit": "ratio", "better": "lower"})
    return specs


class Tracer:
    """Install with `install()`, remove with `uninstall()`; set `item`
    around each item so its spans carry the item id (-1 outside items)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.item = -1
        self.sizes: dict[str, int] = {}
        self.kept: dict[str, list[int]] = {}     # name -> [kept, base]
        self.cache_stats: dict[str, list[int]] = {}  # name -> [hits, misses, max size]
        self.cached: dict[str, object] = {}
        self._rebound: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = topact_modules()
        for module, functions in LAYERS.items():
            home = next(m for m in modules if m.__name__ == f"topact.{module}")
            for function in functions:
                name = f"{module}.{function}"
                original = getattr(home, function)
                if hasattr(original, "cache_info"):
                    self.cached[name] = original
                wrapper = self._wrap(len(self.names), name, original)
                self.names.append(name)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._rebound.append((mod, attr, original))
        self.mark_caches()

    def uninstall(self) -> None:
        self.harvest()
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def _wrap(self, nid: int, name: str, original):
        clock = time.perf_counter
        stack, tracer = self.stack, self
        names, parents, items = self.span_name, self.span_parent, self.span_item
        starts, ends = self.span_start, self.span_end
        size = SIZES.get(name)
        kept = KEPT.get(name)
        base_of = {child: parent for parent, (_, child) in KEPT.items()}.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            items.append(tracer.item)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if size is not None:
                tracer.sizes[name] = tracer.sizes.get(name, 0) + size[1](args, result)
            if kept is not None:
                tracer.kept.setdefault(name, [0, 0])[0] += kept[0](result)
            if base_of is not None and stack and tracer.names[names[stack[-1]]] == base_of:
                tracer.kept.setdefault(base_of, [0, 0])[1] += len(result)
            return result

        return wrapper

    # -- caches ----------------------------------------------------------------

    def harvest(self) -> None:
        """Fold the caches' statistics into the totals, before any clear."""
        for name, fn in self.cached.items():
            info = fn.cache_info()
            stats = self.cache_stats.setdefault(name, [0, 0, 0])
            stats[0] += info.hits - self._seen[name][0]
            stats[1] += info.misses - self._seen[name][1]
            stats[2] = max(stats[2], info.currsize)
            self._seen[name] = (info.hits, info.misses)

    def mark_caches(self) -> None:
        """Take the caches' current statistics as the new starting point;
        call after clearing them, which restarts their statistics."""
        self._seen = {name: tuple(fn.cache_info()[:2]) for name, fn in self.cached.items()}

    # -- results ---------------------------------------------------------------

    def metrics(self, busy_traced: float, ref_busy_traced: float,
                ref_busy_untraced: float) -> dict:
        """Span cover is over the traced items' wall time (calibration
        chunks included, as in the spans); the overhead compares reference
        seconds, so a change of host speed between the two phases does not
        show as overhead."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        covered = 0.0
        for i in range(n):
            k = self.span_name[i]
            calls[k] += 1
            self_s[k] += dur[i] - child[i]
            if self.span_parent[i] < 0 and self.span_item[i] >= 0:
                covered += dur[i]
        values: dict[str, float] = {}
        for k, name in enumerate(self.names):
            values[f"{name}.calls"] = calls[k]
            values[f"{name}.self_s"] = self_s[k]
        for name, (suffix, _) in SIZES.items():
            values[f"{name}.{suffix}"] = self.sizes.get(name, 0)
        for name in KEPT:
            kept, base = self.kept.get(name, (0, 0))
            values[f"{name}.kept_ratio"] = kept / base if base else 0.0
        for name in CACHE_HIT_RATIO:
            hits, misses, _ = self.cache_stats.get(name, (0, 0, 0))
            values[f"{name}.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        for name in CACHE_SIZE:
            values[f"{name}.cache_size"] = self.cache_stats.get(name, (0, 0, 0))[2]
        values["trace.span_cover_ratio"] = covered / busy_traced if busy_traced else 0.0
        values["trace.overhead_ratio"] = (ref_busy_traced / ref_busy_untraced - 1.0
                                          if ref_busy_untraced else 0.0)
        units = {s["name"]: s["unit"] for s in metric_specs()}
        return {key: {"value": values[key], "unit": units[key]} for key in units}

    def write(self, path: Path) -> None:
        """One tab-separated line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("span\tname\tstart_s\tend_s\tparent\titem\n")
            for i in range(len(self.span_start)):
                out.write(f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}"
                          f"\t{self.span_end[i]:.9f}\t{self.span_parent[i]}"
                          f"\t{self.span_item[i]}\n")
