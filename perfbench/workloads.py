"""The benchmark's workloads: what each one runs, one pass over it, and
the checks every pass must satisfy.

A pass runs every cell of a workload once, back to back (closed loop,
one process). The package modules come in as a namespace `tb` so that
set-up can re-import them; nothing here imports tagbench itself."""

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass

from probe import Stopwatch
from tracer import patched

RUNTIME_OPS = (
    "box_float",
    "unbox_float",
    "generic_add",
    "generic_sub",
    "generic_mul",
    "generic_div",
    "generic_less",
    "box_fixnum",
)
# Presets whose runtime never counts boxing events (boxes_total stays 0),
# so a kernel's event count has to come from a tagged preset.
PURE_PRESETS = ("nanbox", "nunbox")
HOOKED = "nanbox+hook"
M32 = 0xFFFFFFFF


class Checks:
    """Counts attempted and failed checks and keeps the first messages.
    A failure is recorded, never raised, so one run reports them all."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def __call__(self, ok, msg):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(msg)
        return ok


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def trusted_sum1(kernels, size, seed):
    """Make the sum1 input file match sum1_lines(size, seed) line for
    line. sum1_data_path reuses whatever file sits at its path, so it is
    read back and rewritten on any difference. Returns True on a rewrite."""
    path = kernels.sum1_data_path(size, seed)
    want = "".join(ln + "\n" for ln in kernels.sum1_lines(size, seed))
    with open(path, encoding="utf-8", newline="") as f:
        if f.read() == want:
            return False
    tmp = "%s.%d.tmp" % (path, os.getpid())
    with open(tmp, "w", encoding="utf-8", newline="") as f:
        f.write(want)
    os.replace(tmp, path)
    return True


@dataclass
class PassResult:
    wall_s: float  # calibrated seconds of the pass's cells (probe.Stopwatch)
    work_s: float  # calibrated seconds inside the simulated work
    slowdown: float  # host over calibrated seconds
    events: int  # box events (kernel workloads) or words (codec)
    digest: str  # of every simulated statistic of the pass
    sim: dict  # simulated per-layer totals of the pass


@dataclass
class Cell:
    kernel: str
    label: str  # preset name, or HOOKED for the profiled nanbox pass
    rec: object  # bench.RunRecord
    boxes: object  # boxes_total of the cell's runtime, None if never built
    cells_used: object
    profile: object  # (total, zeros, inf_nan, prefix counts) when hooked


class _Harness:
    """Runs cells through bench the way its callers do. bench's Runtime
    is swapped for a factory that notes the runtime's boxes_total and
    heap size (RunRecord has neither); when tracing, the factory also
    wraps the instance's operations, and the heap constructor and
    kernels.run open the setup and kernel spans."""

    def __init__(self, tb, tracer):
        self.tb = tb
        self.tracer = tracer
        self.last = None
        self._runtime_cls = tb.runtime.Runtime
        if tracer is not None:
            self._compile = tracer.wrap("runtime.compile", tb.runtime.Runtime)
            self._new_heap = tracer.wrap("heap.new", tb.heap.SimHeap)
            self._run = tb.kernels.run

    def installed(self):
        tb = self.tb
        triples = [(tb.bench, "Runtime", self._runtime)]
        if self.tracer is not None:
            triples += [(tb.bench, "SimHeap", self._heap), (tb.kernels, "run", self._kernel)]
        return patched(*triples)

    def _runtime(self, scheme, heap=None, profile_hook=None):
        tr = self.tracer
        if tr is None:
            rt = self._runtime_cls(scheme, heap, profile_hook)
        else:
            rt = self._compile(scheme, heap, profile_hook)
            # kernels bind rt.box_float and friends on entry, so instance
            # attributes set here are what they call
            for op in RUNTIME_OPS:
                setattr(rt, op, tr.wrap(("runtime", op, scheme.name), getattr(rt, op)))
            tr.end_open("setup")
        self.last = rt
        return rt

    def _heap(self, *args):
        self.tracer.begin("setup")
        heap = self._new_heap(*args)
        heap.preload = self.tracer.wrap("heap.preload", heap.preload)
        return heap

    def _kernel(self, spec, rt):
        with self.tracer.span("kernel", kernel=spec.name, scheme=rt.scheme.name):
            word = self._run(spec, rt)
        # stats, hit ratio and checksum follow; the cell's end closes it
        self.tracer.begin("record")
        return word

    def _span(self, kernel, label):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span("cell", kernel=kernel, scheme=label)

    def _cell(self, spec, label, rec, profile=None):
        rt, self.last = self.last, None
        if rt is None:
            return Cell(spec.name, label, rec, None, None, profile)
        return Cell(spec.name, label, rec, rt.boxes_total, rt.heap.cells_used, profile)

    def matrix_cell(self, spec, name, preload):
        self.last = None
        with self._span(spec.name, name):
            rec = self.tb.bench.run_matrix([spec], [name], 1, preload)[0]
        return self._cell(spec, name, rec)

    def hooked_cell(self, spec):
        tb = self.tb
        prof = tb.profiler.FloatProfile(spec.name)
        hook = prof.add if self.tracer is None else self.tracer.wrap("profiler.add", prof.add)
        self.last = None
        with self._span(spec.name, HOOKED):
            try:
                rt = tb.bench.Runtime(tb.schemes.PRESETS["nanbox"], tb.bench.SimHeap(), hook)
                rec = tb.bench.run_kernel(spec, rt)
            except Exception as ex:  # recorded as run_matrix records a failed cell
                rec = tb.bench.RunRecord(
                    spec.name, "nanbox", 1, 0.0, None, None, None,
                    error="%s: %s" % (type(ex).__name__, ex),
                )
        summary = (prof.total, prof.zeros, prof.inf_nan, list(prof.prefix_counts))
        return self._cell(spec, HOOKED, rec, summary)


class KernelWorkload:
    """Kernels x presets through bench.run_matrix, one cell at a time,
    plus (if hooked) one nanbox pass per kernel with a FloatProfile hook."""

    event = "box"
    modules = ("bench", "heap", "kernels", "profiler", "runtime", "schemes")

    def __init__(self, sizes, schemes, preload=0, hooked=False):
        self.sizes = sizes
        self.schemes = schemes
        self.preload = preload
        self.hooked = hooked

    def prepare(self, tb, seed):
        """Inputs for seed: the KernelSpecs, a verified sum1 file, and the
        first heap/runtime construction."""
        specs = [tb.kernels.KernelSpec(k, n, seed) for k, n in self.sizes.items()]
        rewrites = sum(
            trusted_sum1(tb.kernels, s.size, s.seed) for s in specs if s.name == "sum1"
        )
        heap = tb.heap.SimHeap()
        if self.preload:
            heap.preload(self.preload)
        tb.runtime.Runtime(tb.schemes.PRESETS[self.schemes[0]], heap)
        return {"specs": specs, "sum1_rewrites": rewrites}

    def run_pass(self, tb, state, chk, tracer):
        harness = _Harness(tb, tracer)
        cells = []
        with harness.installed(), Stopwatch() as watch:
            for spec in state["specs"]:
                for name in self.schemes:
                    with watch.unit():
                        cells.append(harness.matrix_cell(spec, name, self.preload))
                if self.hooked:
                    with watch.unit():
                        cells.append(harness.hooked_cell(spec))
        return self._score(state["specs"], cells, watch, chk)

    def _score(self, specs, cells, watch, chk):
        for c in cells:
            chk(c.rec.error is None, "%s/%s failed: %s" % (c.kernel, c.label, c.rec.error))
        good = [c for c in cells if c.rec.error is None]
        events = {}
        for spec in specs:
            k = spec.name
            mine = [c for c in good if c.kernel == k]
            sums = sorted({c.rec.checksum_hex for c in mine})
            chk(len(sums) == 1, "%s: checksums differ across presets: %s" % (k, sums))
            # one denominator: the event count every tagged preset agrees on
            boxes = sorted({c.boxes for c in mine if c.rec.scheme not in PURE_PRESETS})
            chk(len(boxes) == 1, "%s: boxes_total differs across tagged presets: %s" % (k, boxes))
            events[k] = boxes[0] if boxes else 0
        for c in good:
            n = events[c.kernel]
            allocs = c.rec.stats.float_allocs
            if c.rec.scheme == "boxed":
                chk(allocs == n, "%s/boxed: %d float allocs for %d box events" % (c.kernel, allocs, n))
            elif c.rec.scheme in PURE_PRESETS:
                chk(allocs == 0, "%s/%s: %d float allocs" % (c.kernel, c.label, allocs))
            if c.profile is not None:
                chk(c.profile[0] == n, "%s/%s: profile saw %d of %d box events"
                    % (c.kernel, c.label, c.profile[0], n))
        sim = {
            "float_allocs": sum(c.rec.stats.float_allocs for c in good),
            "float_bytes": sum(c.rec.stats.float_bytes for c in good),
            "cells_used": sum(c.cells_used for c in good),
            "slow_path_encodes": sum(c.rec.stats.slow_path_encodes for c in good),
            "representation_flips": sum(c.rec.stats.representation_flips for c in good),
            "box_events": sum(events[c.kernel] for c in good),
        }
        sim["hit_ratio"] = 1.0 - sim["float_allocs"] / sim["box_events"] if sim["box_events"] else 0.0
        stats = [
            [
                c.kernel, c.label, c.rec.error,
                c.rec.stats.as_dict() if c.rec.stats else None,
                repr(c.rec.hit_ratio), c.rec.checksum_hex, c.boxes, c.cells_used, c.profile,
            ]
            for c in cells
        ]
        sizes = [[s.name, s.size, s.seed] for s in specs]
        return PassResult(
            wall_s=watch.calibrated_s,
            work_s=sum(c.rec.seconds for c in good) / watch.slowdown,
            slowdown=watch.slowdown,
            events=sim["box_events"],
            digest=digest([sizes, self.preload, stats]),
            sim=sim,
        )

    def check_frozen(self, tb, chk, frozen):
        """Default sizes, seed 1, under st1 with a profile hook: checksum,
        event count, zeros and st1 misses against the frozen literals."""
        for k in self.sizes:
            want = frozen.KERNELS[k]
            spec = tb.kernels.default_spec(k, 1)
            if k == "sum1":
                trusted_sum1(tb.kernels, spec.size, spec.seed)
            prof = tb.profiler.FloatProfile(k)
            try:
                rt = tb.runtime.Runtime(tb.schemes.PRESETS["st1"], tb.heap.SimHeap(), prof.add)
                rec = tb.bench.run_kernel(spec, rt)
            except Exception as ex:
                chk(False, "frozen %s failed: %s: %s" % (k, type(ex).__name__, ex))
                continue
            chk(rec.checksum_hex == want["checksum_hex"],
                "frozen %s: checksum %s" % (k, rec.checksum_hex))
            chk(rt.boxes_total == prof.total == want["n_boxes"],
                "frozen %s: %d/%d box events" % (k, rt.boxes_total, prof.total))
            chk(prof.zeros == want["zeros"], "frozen %s: %d zeros" % (k, prof.zeros))
            chk(rec.stats.float_allocs == want["miss_1tag"],
                "frozen %s: %d st1 misses" % (k, rec.stats.float_allocs))


class CodecWorkload:
    """Word layer only: batch roundtrips over `words` random words per
    scheme, and the scalar transforms over a block of `scalar_words`,
    each cross-checked against its vector mirror."""

    event = "word"
    modules = ("batch", "schemes", "st32")

    def __init__(self, words, scalar_words):
        self.words = words
        self.scalar_words = scalar_words

    def prepare(self, tb, seed):
        import numpy as np

        block = tb.batch.splitmix64_block(seed, 0, self.scalar_words)
        words = block.tolist()
        return {
            "seed": seed,
            "block": block,
            "block32": (block & np.uint64(M32)).astype(np.uint32),
            "words": words,
            "words32": [w & M32 for w in words],
            "variants32": {"one": tb.st32.OneTag(0), "two": tb.st32.TwoTag(0)},
        }

    @staticmethod
    def _fns(tb, tracer):
        fns = {
            "batch.st_roundtrip": tb.batch.st_roundtrip_mismatches,
            "batch.nan_roundtrip": tb.batch.nan_roundtrip_mismatches,
            "batch.nun_roundtrip": tb.batch.nun_roundtrip_mismatches,
            "batch.st32_roundtrip": tb.batch.st32_roundtrip_mismatches,
            "schemes.st_transform": tb.schemes.st_transform,
            "schemes.st_untransform": tb.schemes.st_untransform,
            "schemes.covers": tb.schemes.covers,
            "st32.st32_transform": tb.st32.st32_transform,
        }
        if tracer is not None:
            fns = {key: tracer.wrap(key, fn) for key, fn in fns.items()}
        return fns

    def run_pass(self, tb, state, chk, tracer):
        fn = self._fns(tb, tracer)
        presets = tb.schemes.PRESETS
        n, seed = self.words, state["seed"]
        # (label, probe kind, callable, args)
        jobs = [("st:" + p, "numpy", fn["batch.st_roundtrip"], (presets[p], n, seed))
                for p in tb.schemes.SELF_TAG_PRESETS]
        jobs += [("nan", "numpy", fn["batch.nan_roundtrip"], (n, seed)),
                 ("nun", "numpy", fn["batch.nun_roundtrip"], (n, seed))]
        jobs += [("st32:" + v, "numpy", fn["batch.st32_roundtrip"], (var, n, seed))
                 for v, var in state["variants32"].items()]
        jobs += [("scalar:" + p, "python", self._scalar64, (tb, fn, presets[p], state))
                 for p in tb.schemes.SELF_TAG_PRESETS]
        jobs += [("scalar32:" + v, "python", self._scalar32, (tb, fn, var, state))
                 for v, var in state["variants32"].items()]
        results = []
        with Stopwatch() as watch:
            for label, kind, job, args in jobs:
                span = contextlib.nullcontext() if tracer is None else tracer.span("job", job=label)
                with watch.unit(kind), span:
                    try:
                        results.append([label, job(*args), None])
                    except Exception as ex:
                        results.append([label, None, "%s: %s" % (type(ex).__name__, ex)])
        events = 0
        for label, out, err in results:
            if not chk(err is None, "%s failed: %s" % (label, err)):
                continue
            if isinstance(out, dict):
                events += len(state["words"])
                for what in ("inverse", "vector", "covers"):
                    if what in out:
                        chk(out[what] == 0, "%s: %d %s mismatches" % (label, out[what], what))
            else:
                events += n
                chk(out == 0, "%s: %d roundtrip mismatches" % (label, out))
        return PassResult(
            wall_s=watch.calibrated_s,
            work_s=watch.calibrated_s,
            slowdown=watch.slowdown,
            events=events,
            digest=digest([n, seed, self.scalar_words, results]),
            sim={"batch_words": n},
        )

    @staticmethod
    def _scalar64(tb, fn, cfg, state):
        transform = fn["schemes.st_transform"]
        untransform = fn["schemes.st_untransform"]
        covers = fn["schemes.covers"]
        mask = tb.schemes.self_tag_set(cfg)
        inverse = cover_bad = 0
        flags = []
        for b in state["words"]:
            w = transform(b, cfg)
            if untransform(w, cfg) != b:
                inverse += 1
            c = covers(cfg, b)
            if c != bool((mask >> (w & 7)) & 1):
                cover_bad += 1
            flags.append(c)
        vec = tb.batch.covers_block(state["block"], cfg).tolist()
        vector = sum(a != b for a, b in zip(vec, flags))
        return {"inverse": inverse, "covers": cover_bad, "vector": vector, "covered": sum(flags)}

    @staticmethod
    def _scalar32(tb, fn, variant, state):
        transform = fn["st32.st32_transform"]
        words32 = state["words32"]
        out = [transform(b, variant) for b in words32]
        inverse = sum(tb.st32.st32_untransform(w, variant) != b for w, b in zip(out, words32))
        vec = tb.batch.st32_transform_block(state["block32"], variant).tolist()
        vector = sum(a != b for a, b in zip(vec, out))
        tags = tb.st32.st32_tag_set(variant)
        return {"inverse": inverse, "vector": vector, "covered": sum(w & 3 in tags for w in out)}

    def check_frozen(self, tb, chk, frozen):
        """The exponent-prefix classes the scalar covers() keeps immediate
        on the block, against the frozen class sets."""
        words = self.prepare(tb, 1)
        for name, want in frozen.COVERED_64.items():
            cfg = tb.schemes.PRESETS[name]
            got = {(b >> 58) & 31 for b in words["words"] if tb.schemes.covers(cfg, b)}
            miss = {(b >> 58) & 31 for b in words["words"] if not tb.schemes.covers(cfg, b)}
            chk(got == want and not miss & want, "frozen %s: covered classes %s" % (name, sorted(got)))
        for name, want in frozen.COVERED_32.items():
            v = words["variants32"][name]
            tags = tb.st32.st32_tag_set(v)
            got = {(b >> 27) & 15 for b in words["words32"]
                   if tb.st32.st32_transform(b, v) & 3 in tags}
            chk(got == want, "frozen 32-bit %s: covered classes %s" % (name, sorted(got)))


# Sizes keep one pass at a few host seconds on a 2-core machine, so a run
# takes the median of several passes.
WORKLOADS = {
    # Every preset but boxed: tests/_frozen.py pins zero misses for these
    # kernels under the self-tagging presets, so the heap stays idle and
    # runtime encode/decode and dispatch do the work.
    "immediate": KernelWorkload(
        {"sumfp": 40000, "fibfp": 18, "pnpoly": 2000, "sum1": 10000},
        ("st1", "st2biased", "st2zeros", "st3", "st4", "mantissa", "nanbox", "nunbox"),
        hooked=True,
    ),
    # Three allocation rates (boxed 100%, mantissa about 60%, st1 under
    # 1%) over an arena that starts populated with 8 MiB of ballast.
    "boxing": KernelWorkload(
        {"mbrot": 28, "fft": 512, "pnpoly": 4000},
        ("boxed", "mantissa", "st1"),
        preload=8 << 20,
    ),
    # Runtime, heap and kernels idle: vector and scalar word transforms.
    "codec": CodecWorkload(words=1 << 22, scalar_words=10000),
}
