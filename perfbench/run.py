"""Host-time benchmark of the tagbench simulator.

    python3 perfbench/run.py --workload {immediate,boxing,codec} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. Builds nothing: the package is imported
from src/. Set-up is repeated SETUP_REPS times and its median reported;
then passes over the workload run back to back until S seconds have
gone, and every timing is the median over passes, in host seconds
calibrated against the speed probes of probe.py. Every pass is checked
(see workloads.py); at seed 1 the run also checks the frozen literals of
tests/_frozen.py at default sizes, after timing.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics (the end-to-end metrics with --trace 0, the per-layer
ones with --trace 1). The line before it carries run metadata, the
simulated-statistics digest and any failure messages. A traced run
alternates untraced and traced passes and writes its spans to
.perfbench/trace-<workload>-<seed>.json."""

import argparse
import importlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time

from probe import slowdown as machine_slowdown
from tracer import Tracer
from workloads import RUNTIME_OPS, WORKLOADS, Checks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".perfbench")
SETUP_REPS = 9

PRESET_NAMES = ("boxed", "nanbox", "nunbox", "st1", "st2biased", "st2zeros", "st3", "st4", "mantissa")
KERNEL_NAMES = ("sumfp", "fibfp", "mbrot", "pnpoly", "fft", "sum1")
BATCH_KINDS = ("st_roundtrip", "nan_roundtrip", "nun_roundtrip", "st32_roundtrip")
SCALAR_OPS = ("schemes.st_transform", "schemes.st_untransform", "schemes.covers", "st32.st32_transform")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_tagbench(modules):
    """Import the package afresh (dropping any earlier import) and return
    its modules as a namespace, so each set-up repetition pays for it."""
    for name in [m for m in sys.modules if m == "tagbench" or m.startswith("tagbench.")]:
        del sys.modules[name]
    importlib.import_module("tagbench")
    return argparse.Namespace(
        **{m: importlib.import_module("tagbench." + m) for m in modules}
    )


def load_frozen():
    path = os.path.join(ROOT, "tests", "_frozen.py")
    spec = importlib.util.spec_from_file_location("_frozen", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def git_commit():
    """HEAD of the checkout's git directory, or None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def metadata():
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(tr, passes, slowdown, sim, overhead):
    """Per-layer metrics per traced pass, times calibrated by the traced
    passes' mean slowdown. A layer idle on the workload reports 0."""
    out = {}
    ns_to_s = 1e-9 / slowdown / passes

    def per_call(calls, ns):
        return ns / slowdown / calls if calls else 0.0

    for op in RUNTIME_OPS:
        calls, ns = tr.op_totals(lambda k: isinstance(k, tuple) and k[1] == op)
        out["runtime.%s.calls" % op] = metric(calls / passes, "count")
        out["runtime.%s.ns" % op] = metric(per_call(calls, ns), "ns")
    for name in PRESET_NAMES:
        calls, ns = tr.op_totals(lambda k: isinstance(k, tuple) and k[2] == name)
        out["runtime.%s.ns_per_op" % name] = metric(per_call(calls, ns), "ns")
    _, ns = tr.op_totals(lambda k: k == "runtime.compile")
    out["runtime.compile_s"] = metric(ns * ns_to_s, "s")

    out["heap.float_allocs"] = metric(sim.get("float_allocs", 0), "count")
    out["heap.float_bytes"] = metric(sim.get("float_bytes", 0), "B")
    out["heap.cells_used"] = metric(sim.get("cells_used", 0), "count")
    _, ns = tr.op_totals(lambda k: k == "heap.preload")
    out["heap.preload_s"] = metric(ns * ns_to_s, "s")
    out["runtime.hit_ratio"] = metric(sim.get("hit_ratio", 0.0), "ratio")
    out["runtime.slow_path_encodes"] = metric(sim.get("slow_path_encodes", 0), "count")
    out["runtime.representation_flips"] = metric(sim.get("representation_flips", 0), "count")

    for k in KERNEL_NAMES:
        _, total, own = tr.span_totals("kernel", kernel=k)
        out["kernels.%s.s" % k] = metric(total * ns_to_s, "s")
        out["kernels.%s.self_s" % k] = metric(own * ns_to_s, "s")

    calls, ns = tr.op_totals(lambda k: k == "profiler.add")
    out["profiler.add.calls"] = metric(calls / passes, "count")
    out["profiler.add.ns"] = metric(per_call(calls, ns), "ns")

    cells, _, _ = tr.span_totals("cell")
    _, setup, _ = tr.span_totals("setup")
    _, record, _ = tr.span_totals("record")
    out["bench.cells"] = metric(cells / passes, "count")
    out["bench.cell_setup_s"] = metric(setup * ns_to_s, "s")
    out["bench.record_s"] = metric(record * ns_to_s, "s")

    for kind in BATCH_KINDS:
        calls, ns = tr.op_totals(lambda k: k == "batch." + kind)
        words = calls * sim.get("batch_words", 0)
        out["batch.%s.words_per_s" % kind] = metric(words * slowdown / (ns * 1e-9) if ns else 0.0, "1/s")
    for key in SCALAR_OPS:
        calls, ns = tr.op_totals(lambda k: k == key)
        out["%s.ns" % key] = metric(per_call(calls, ns), "ns")

    out["trace.overhead"] = metric(overhead, "ratio")
    return out


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tagbench", "__init__.py")):
        print("perfbench: no package sources at %s" % os.path.join(SRC, "tagbench"), file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # kernels.sum1_data_path caches its input under the temp directory;
    # keep it inside the checkout
    os.makedirs(os.path.join(CACHE, "tmp"), exist_ok=True)
    tempfile.tempdir = os.path.join(CACHE, "tmp")
    sys.path.insert(0, SRC)

    setup = []
    rewrites = 0
    for _ in range(SETUP_REPS):
        slowdown = machine_slowdown()
        t0 = time.perf_counter()
        tb = load_tagbench(workload.modules)
        state = workload.prepare(tb, args.seed)
        setup.append((time.perf_counter() - t0) / slowdown)
        rewrites += state.get("sum1_rewrites", 0)

    chk = Checks()
    tracer = Tracer() if args.trace else None
    plain, traced = [], []
    first = None
    start = time.perf_counter()
    while True:
        use = tracer if (args.trace and len(traced) < len(plain)) else None
        span = use.begin("pass", workload=args.workload) if use else None
        res = workload.run_pass(tb, state, chk, use)
        if use:
            use.end(span)
        (traced if use else plain).append(res)
        if first is None:
            first = res
        else:
            chk(res.digest == first.digest, "pass %d: simulated statistics differ from pass 1"
                % (len(plain) + len(traced)))
        done = time.perf_counter() - start >= args.seconds
        if done and (not args.trace or traced):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.seed == 1:
        workload.check_frozen(tb, chk, load_frozen())

    wall = statistics.median(r.wall_s for r in plain)
    if args.trace:
        overhead = statistics.median(r.wall_s for r in traced) / wall
        slowdown = statistics.fmean(r.slowdown for r in traced)
        metrics = layer_metrics(tracer, len(traced), slowdown, first.sim, overhead)
    else:
        metrics = {
            "wall_s": metric(wall, "s"),
            "events_per_s": metric(statistics.median(r.events / r.work_s for r in plain), "1/s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "meta": metadata(),
        "events": workload.event,
        "passes": len(plain) + len(traced),
        "digest": first.digest,
        "error_rate": chk.failed / chk.attempted,
        "setup_s_runs": setup,
        "wall_s_runs": [r.wall_s for r in plain],
        "host_wall_s_runs": [r.wall_s * r.slowdown for r in plain],
        "slowdowns": [r.slowdown for r in plain + traced],
        "sum1_rewrites": rewrites,
        "failures": chk.messages,
    }
    if args.trace:
        detail["trace_file"] = os.path.join(
            ".perfbench", "trace-%s-%d.json" % (args.workload, args.seed)
        )
        with open(os.path.join(ROOT, detail["trace_file"]), "w") as f:
            json.dump(dict(detail, metrics=metrics, **tracer.dump()), f)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": chk.failed == 0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
