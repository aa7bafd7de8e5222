"""topact benchmark: one closed-loop workload per process.

    python3 perfbench/run.py --workload {sweep,currying,desk,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Untraced runs (--trace 0) report the end-to-end metrics; traced runs
(--trace 1) report the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import array
import gc
import importlib
import json
import statistics
import subprocess
import sys
import time
import traceback

import common

WORKLOADS = ("sweep", "currying", "desk")
SETUP_REPEATS = 3
# busy seconds of items timed against one stretch of host-speed samples
SEGMENT_S = 0.02


class Harness:
    """Runs one workload module: set-up, whole rounds of items, checks.

    A workload module provides setup(seed, tiny) -> state, round_items(state),
    check_setup(state), run_item(state, item) -> output (the timed call),
    check_item(state, item, output), COLD_CACHES (clear topact's caches
    before each item) and optionally MIN_ROUNDS.  `tiny` selects the small
    inputs the benchmark's own tests use."""

    def __init__(self, name: str, seed: int, tiny: bool = False):
        self.wl = importlib.import_module(name)
        self.name, self.seed, self.tiny = name, seed, tiny
        self.caches = common.topact_caches()
        self.tracer = None
        self.problems: list[str] = []

    def clear(self) -> None:
        if self.tracer is not None:
            self.tracer.harvest()
        for fn in self.caches:
            fn.cache_clear()
        if self.tracer is not None:
            self.tracer.mark_caches()

    def setup(self):
        self.clear()
        with common.HostClock() as clock:
            state = self.wl.setup(self.seed, self.tiny)
        return state, clock.reference_s

    def check_setup(self, state) -> None:
        try:
            self.wl.check_setup(state)
        except Exception as exc:  # noqa: BLE001 - reported as an incorrect run
            self.problems.append(f"set-up check: {exc!r}")

    def rounds(self, state, seconds: float, rounds: int | None = None,
               min_rounds: int = 1) -> dict:
        """Whole rounds, at least `min_rounds`, until the items' busy time
        reaches `seconds` (or exactly `rounds` rounds); each item's output
        is checked after its timed call.

        A HostClock samples the host's speed throughout; the items are
        taken in segments of at least SEGMENT_S busy seconds, and each
        segment's times are divided by the host factor sampled during it,
        so latencies are in reference seconds (see common.CAL_REF_S)."""
        items = self.wl.round_items(state)
        # reference seconds of the items that did not fail; an array, so that
        # a longer run does not raise the peak resident memory it reports
        latencies = array.array("d")
        per_round: list[tuple[float, float]] = []   # (items per second, median latency)
        failed = done = 0
        busy = ref_busy = chunks_in_items = 0.0
        self.clear()
        with common.HostClock() as clock:
            while (done < rounds if rounds is not None
                   else done < min_rounds or busy < seconds):
                round_start, round_ref_busy = len(latencies), ref_busy
                segment: list[tuple[float, bool]] = []  # (seconds, item did not fail)
                segment_s, since = 0.0, clock.mark()
                for k, item in enumerate(items):
                    item_id = done * len(items) + k
                    if self.wl.COLD_CACHES:
                        self.clear()
                        gc.collect()
                    if self.tracer is not None:
                        self.tracer.item = item_id
                    spent = clock.spent
                    start = time.perf_counter()
                    out, ok = None, True
                    try:
                        out = self.wl.run_item(state, item)
                    except Exception:  # noqa: BLE001 - a failed item, counted and shown
                        ok = False
                        failed += 1
                        if failed <= 3:
                            traceback.print_exc(file=sys.stderr)
                    finally:
                        if self.tracer is not None:
                            self.tracer.item = -1
                    inside = clock.spent - spent    # calibration chunks inside the item
                    chunks_in_items += inside
                    elapsed = time.perf_counter() - start - inside
                    busy += elapsed
                    segment.append((elapsed, ok))
                    segment_s += elapsed
                    if ok:
                        try:
                            self.wl.check_item(state, item, out)
                        except Exception as exc:  # noqa: BLE001 - reported as an incorrect run
                            self.problems.append(f"item {item_id}: {exc!r}")
                    if k == len(items) - 1 or segment_s >= SEGMENT_S:
                        factor = clock.factor(since)
                        ref_busy += segment_s / factor
                        latencies.extend(t / factor for t, good in segment if good)
                        segment, segment_s, since = [], 0.0, clock.mark()
                lat = latencies[round_start:]
                if lat:
                    per_round.append((len(lat) / (ref_busy - round_ref_busy),
                                      statistics.median(lat)))
                done += 1
        return {"latencies": latencies, "per_round": per_round,
                "ids": range(done * len(items)),
                "failed": failed, "busy": busy, "ref_busy": ref_busy,
                "chunks_in_items": chunks_in_items, "rounds": done}

    def run(self, seconds: float, trace: bool, rounds: int | None = None) -> dict:
        if trace:
            return self._run_traced(seconds, rounds)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            state, elapsed = self.setup()
            setup_times.append(elapsed)
        self.check_setup(state)
        timed = self.rounds(state, seconds, rounds, getattr(self.wl, "MIN_ROUNDS", 1))
        peak_rss = common.peak_rss_mb()
        lat, per_round = timed["latencies"], timed["per_round"] or [(0.0, 0.0)]
        # medians over the rounds after the first, which fills sweep's and
        # currying's caches and Python's own (regular expressions, imports)
        counted = per_round[1:] or per_round
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "items_per_s": {"value": statistics.median(r[0] for r in counted),
                            "unit": "1/s"},
            "item_p50_ms": {"value": statistics.median(r[1] for r in counted) * 1e3,
                            "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
        }
        tail = common.tail_percentile(lat)
        notes = [f"rounds {timed['rounds']}, items {len(lat)}, busy {timed['busy']:.3f} s "
                 f"measured, {timed['ref_busy']:.3f} reference s "
                 f"(host at {timed['ref_busy'] / timed['busy']:.3f} of reference speed)",
                 f"setup runs (reference s): {', '.join(f'{t:.4f}' for t in setup_times)}",
                 f"items per reference s by round: {', '.join(f'{r[0]:.4g}' for r in per_round)}",
                 f"median item (reference ms) by round: "
                 f"{', '.join(f'{r[1] * 1e3:.4g}' for r in per_round)}"]
        if tail is not None:
            notes.append(f"tail latency p{tail[0]:g} = {tail[1] * 1e3:.3f} ms")
        return self._result(timed, metrics, notes)

    def _run_traced(self, seconds: float, rounds: int | None) -> dict:
        import tracing
        state, _ = self.setup()
        self.check_setup(state)
        untraced = self.rounds(state, seconds / 2, rounds)
        self.tracer = tracing.Tracer()
        self.tracer.install()
        try:
            state, _ = self.setup()
            self.check_setup(state)
            traced = self.rounds(state, 0.0, untraced["rounds"])
        finally:
            self.tracer.uninstall()
        # spans cover the calibration chunks that ran inside them
        metrics = self.tracer.metrics(traced["busy"] + traced["chunks_in_items"],
                                      traced["ref_busy"], untraced["ref_busy"])
        path = common.OUT / f"trace-{self.name}.tsv"
        self.tracer.write(path)
        notes = [f"rounds {traced['rounds']}, items {len(traced['latencies'])}",
                 f"busy untraced {untraced['ref_busy']:.3f}, "
                 f"traced {traced['ref_busy']:.3f} reference s",
                 f"spans {len(self.tracer.span_start)} written to {path}"]
        return self._result(traced, metrics, notes)

    def _result(self, timed: dict, metrics: dict, notes: list[str]) -> dict:
        return {"correct": not self.problems, "attempted": len(timed["ids"]),
                "failed": timed["failed"], "metrics": metrics,
                "ids": timed["ids"], "notes": notes, "problems": self.problems}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.use_checkout_topact()
    except common.SourcesMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = []
        for name in WORKLOADS:
            print(f"== {name}", flush=True)
            codes.append(subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode)
        return max(codes)
    result = Harness(args.workload, args.seed).run(args.seconds, bool(args.trace))
    for note in result["notes"]:
        print(f"{args.workload}: {note}")
    for problem in result["problems"][:5]:
        print(f"{args.workload}: CHECK FAILED {problem}")
    if len(result["problems"]) > 5:
        print(f"{args.workload}: ... {len(result['problems'])} check failures in all")
    line = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    common.OUT.mkdir(parents=True, exist_ok=True)
    (common.OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(line, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
