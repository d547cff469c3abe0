"""Benchmark harness: kernels x schemes, one record per run.

Each run gets a fresh heap and runtime so cells cannot contaminate each
other; ballast is preloaded (counted as other_allocs/other_bytes and
against capacity, never stored) and the counters reset before timing
starts.
Checksums render scheme-independently (float bits, or the canonical
shifted fixnum word), so equality across schemes is a bit-exact statement
about the computation, not about the encodings."""

import csv
import json
import time
from dataclasses import dataclass, fields
from typing import Optional

from . import kernels
from .heap import HeapStats, SimHeap
from .runtime import Runtime
from .schemes import PRESETS
from .words import M64

CSV_COLUMNS = (
    "kernel",
    "scheme",
    "rep",
    "seconds",
    *(f.name for f in fields(HeapStats)),
    "hit_ratio",
    "checksum_hex",
)


@dataclass
class RunRecord:
    kernel: str
    scheme: str
    rep: int
    seconds: float
    stats: Optional[HeapStats]
    hit_ratio: Optional[float]
    checksum_hex: Optional[str]
    error: Optional[str] = None

    def row(self):
        if self.error is not None:
            raise ValueError("failed run has no row: %s" % self.error)
        return {
            "kernel": self.kernel,
            "scheme": self.scheme,
            "rep": self.rep,
            "seconds": self.seconds,
            **self.stats.as_dict(),
            "hit_ratio": self.hit_ratio,
            "checksum_hex": self.checksum_hex,
        }


def checksum_hex(rt, word):
    """16 lowercase hex digits: float bits, or the fixnum value in its
    canonical shifted form (the same under every scheme)."""
    if rt.is_float_value(word):
        return "%016x" % rt.unbox_float(word)
    return "%016x" % ((rt.unbox_fixnum(word) << 3) & M64)


def run_kernel(spec, rt, rep=1):
    """One timed run; counters are reset here, so only kernel activity is
    visible in the record."""
    rt.reset_kernel_counters()
    t0 = time.perf_counter()
    word = kernels.run(spec, rt)
    seconds = time.perf_counter() - t0
    return RunRecord(
        kernel=spec.name,
        scheme=rt.scheme.name,
        rep=rep,
        seconds=seconds,
        stats=rt.stats(),
        hit_ratio=rt.hit_ratio(),
        checksum_hex=checksum_hex(rt, word),
    )


def run_matrix(specs, scheme_names, reps=1, preload_bytes=0):
    """Every kernel under every scheme, reps times each, fresh heap and
    runtime per run. A failing cell is recorded with its error and the
    rest of the matrix still runs."""
    records = []
    for spec in specs:
        for name in scheme_names:
            for rep in range(1, reps + 1):
                try:
                    heap = SimHeap()
                    if preload_bytes:
                        heap.preload(preload_bytes)
                    rt = Runtime(PRESETS[name], heap)
                    records.append(run_kernel(spec, rt, rep))
                except Exception as ex:
                    records.append(
                        RunRecord(
                            kernel=spec.name,
                            scheme=name,
                            rep=rep,
                            seconds=0.0,
                            stats=None,
                            hit_ratio=None,
                            checksum_hex=None,
                            error="%s: %s" % (type(ex).__name__, ex),
                        )
                    )
    return records


def failed(records):
    return [r for r in records if r.error is not None]


def write_csv(records, fh):
    w = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
    w.writeheader()
    for r in records:
        if r.error is None:
            w.writerow(r.row())


def write_json(records, fh):
    json.dump([r.row() for r in records if r.error is None], fh, indent=1)
    fh.write("\n")
