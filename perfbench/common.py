"""Helpers shared by the benchmark's workloads: locating the topact sources of
this checkout, clearing the package's caches, measuring the host's speed, and
summary statistics."""

from __future__ import annotations

import gc
import importlib
import pkgutil
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


class SourcesMissing(Exception):
    """The checkout holds no topact sources to benchmark."""


def use_checkout_topact() -> None:
    """Import topact from this checkout's src/, never from an installed copy."""
    if not (SRC / "topact" / "__init__.py").is_file():
        raise SourcesMissing(f"no topact sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import topact
    if Path(topact.__file__).resolve().parent != SRC / "topact":
        raise SourcesMissing(f"topact imported from {topact.__file__}, not {SRC}")


def topact_modules() -> list:
    """The package and every module in it, imported."""
    import topact
    mods = [topact]
    for info in pkgutil.iter_modules(topact.__path__):
        mods.append(importlib.import_module(f"topact.{info.name}"))
    return mods


def topact_caches() -> list:
    """Every lru_cache-wrapped function defined in topact, unwrapped by no
    tracer, so that clearing works while wrappers are installed."""
    found = {}
    for mod in topact_modules():
        for value in vars(mod).values():
            if (hasattr(value, "cache_clear")
                    and getattr(value, "__module__", "").startswith("topact")):
                found[id(value)] = value
    return list(found.values())


# Seconds one calibration chunk takes on the reference host (roughly the
# 2-core development machine at its faster speed).  Times are reported in
# reference seconds: measured seconds times CAL_REF_S over the mean duration
# of the calibration chunks run while they were measured.
CAL_REF_S = 0.0012
# wall seconds between two calibration chunks inside a HostClock block
SAMPLE_EVERY_S = 0.02


def calibration_chunk() -> float:
    """Seconds taken by a fixed piece of interpreter-bound work like
    topact's (small tables, tuples, frozensets, dicts), with the garbage
    collector off so that the program's heap does not time it."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    table = [[(a * b + 1) % 7 for b in range(7)] for a in range(7)]
    seen: dict = {}
    for r in range(60):
        for a in range(7):
            row = tuple(table[a][b] for b in range(7))
            kept = frozenset(x for x in row if x != r % 7)
            seen[row, kept] = seen.get((row, kept), 0) + len(kept)
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


class HostClock:
    """Measures the host's speed while a block runs: an interval timer runs
    a calibration chunk every SAMPLE_EVERY_S of wall time inside the block,
    so that a change of host speed in the middle of a long item or set-up
    is seen.  The chunks' own time is counted in `spent`, to be taken out of
    the times measured around them.  Main thread only (SIGALRM)."""

    def __init__(self):
        self.chunks: list[float] = []
        self.spent = 0.0
        self.elapsed = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.chunks.append(calibration_chunk())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "HostClock":
        self.chunks.append(calibration_chunk())
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.elapsed = time.perf_counter() - self.start - self.spent
        signal.signal(signal.SIGALRM, self.previous)
        self.chunks.append(calibration_chunk())

    def mark(self) -> int:
        """The latest chunk, to pass to factor() at the end of a stretch."""
        return len(self.chunks) - 1

    def factor(self, since: int = 0) -> float:
        """How much slower than the reference host the host ran from chunk
        `since` on: divide a measured time by it."""
        return statistics.mean(self.chunks[since:]) / CAL_REF_S

    @property
    def reference_s(self) -> float:
        """The block's time without the chunks, in reference seconds."""
        return self.elapsed / self.factor()


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """The highest listed percentile with at least ten samples beyond it,
    and its value; None when there are fewer than forty samples."""
    n = len(samples)
    if n < 40:
        return None
    ordered = sorted(samples)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1 - pct / 100) >= 10:
            return pct, ordered[min(n - 1, int(n * pct / 100))]
    return None
