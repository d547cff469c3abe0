"""Float-heavy workloads expressed against the Runtime value surface.

Every float a kernel produces goes through the runtime's box/unbox and
generic arithmetic, so allocation counters and boxing profiles measure the
workload and nothing else. A float the host computes (an input, a
constant) is boxed where it is made, by box_host_float, as a compiler's
float primitive or reader boxes the double it made: the same word and
counters as box_float of its bits, without a struct round trip. Host
Python handles only control flow, input synthesis and integer indexing;
the boxed-value data flow (constants once, inputs, every intermediate
result) is fixed, which keeps box sequences and checksums identical across
schemes.

Kernels return the final value as a runtime word: a boxed float for the
summation workloads, a fixnum for the counting ones.

The functions below are the reference form of each kernel: they call the
Runtime's operations. run() runs a kernel fused with its runtime instead
(fuse.py): one function per kernel and runtime key, compiled on first use,
in which every call to an operation the kernel binds at entry is the
operation's inline body, and which shares the runtime's namespace and its
counter cells. It gives the reference's words, counters, arena, hook
calls and exceptions, but not necessarily its decode memo: the reference
form finds each float operand in the memo, decodes it or reads it from
the arena, while the fused form keeps the float of each word its
operations bind to a name beside the word (fuse.py, shadow floats) and
decodes none of those, so the memo may end with other words, each with
its exact decode. A kernel is written
in the subset of Python that fuse.py rewrites, which its docstring names;
it raises NotImplementedError for anything else. The rule for replaced
operations: when any operation attribute of the Runtime is not the
closure it compiled (a tracer or a test spy wrapped it), run() runs the
reference form, so that the replacement sees every call; such a run
measures the reference."""

import math
import os
import tempfile
from dataclasses import dataclass

from .prng import DEFAULT_SEED, uniform_stream

DEFAULT_SIZES = {
    "sumfp": 1000000,
    "fibfp": 25,
    "mbrot": 75,
    "pnpoly": 100000,
    "fft": 1024,
    "sum1": 100000,
}
KERNEL_NAMES = tuple(DEFAULT_SIZES)


@dataclass(frozen=True)
class KernelSpec:
    name: str
    size: int
    seed: int = DEFAULT_SEED


def default_spec(name, seed=DEFAULT_SEED):
    if name not in DEFAULT_SIZES:
        raise KeyError("unknown kernel: %r" % (name,))
    return KernelSpec(name, DEFAULT_SIZES[name], seed)


def k_sumfp(rt, size, seed):
    """Sum 0..size inclusive by repeated float addition."""
    box = rt.box_host_float
    add = rt.generic_add
    less = rt.generic_less
    i = box(0.0)
    n = box(float(size))
    one = box(1.0)
    s = box(0.0)
    while not less(n, i):
        s = add(s, i)
        i = add(i, one)
    return s


def k_fibfp(rt, size, seed):
    """Naive double recursion on float arguments."""
    box = rt.box_host_float
    add = rt.generic_add
    sub = rt.generic_sub
    less = rt.generic_less
    x0 = box(float(size))
    two = box(2.0)
    one = box(1.0)

    def fib(x):
        if less(x, two):
            return x
        a = fib(sub(x, one))
        b = fib(sub(x, two))
        return add(a, b)

    return fib(x0)


def k_mbrot(rt, size, seed):
    """Escape-iteration count over a size x size grid; returns the total
    as a fixnum."""
    box = rt.box_host_float
    boxi = rt.box_fixnum
    add = rt.generic_add
    sub = rt.generic_sub
    mul = rt.generic_mul
    div = rt.generic_div
    less = rt.generic_less
    zero = box(0.0)
    two = box(2.0)
    four = box(4.0)
    xlo = box(-2.0)
    xhi = box(0.75)
    ylo = box(-1.1)
    yhi = box(1.1)
    steps = box(float(size - 1))
    dx = div(sub(xhi, xlo), steps)
    dy = div(sub(yhi, ylo), steps)
    count = boxi(0)
    ci = ylo
    for _ in range(size):
        cr = xlo
        for _ in range(size):
            zr = zero
            zi = zero
            it = 0
            while it < 64:
                zr2 = mul(zr, zr)
                zi2 = mul(zi, zi)
                if less(four, add(zr2, zi2)):
                    break
                zi = add(mul(mul(two, zr), zi), ci)
                zr = add(sub(zr2, zi2), cr)
                it += 1
            count = add(count, boxi(it))
            cr = add(cr, dx)
        ci = add(ci, dy)
    return count


def polygon20():
    """Star-ish 20-gon: unit radius on even vertices, 0.55 on odd."""
    vs = []
    for k in range(20):
        th = 2.0 * math.pi * k / 20.0
        r = 1.0 if k % 2 == 0 else 0.55
        vs.append((r * math.cos(th), r * math.sin(th)))
    return vs


def k_pnpoly(rt, size, seed):
    """Point-in-polygon test over random points in the bounding box;
    returns the inside count as a fixnum."""
    box = rt.box_host_float
    boxi = rt.box_fixnum
    add = rt.generic_add
    sub = rt.generic_sub
    mul = rt.generic_mul
    div = rt.generic_div
    less = rt.generic_less
    poly = polygon20()
    vx = [box(x) for x, _ in poly]
    vy = [box(y) for _, y in poly]
    # per-edge slope, edge (i, j=i-1 mod 20)
    slope = []
    for i in range(20):
        j = i - 1 if i else 19
        slope.append(div(sub(vx[j], vx[i]), sub(vy[j], vy[i])))
    xmin = min(x for x, _ in poly)
    xmax = max(x for x, _ in poly)
    ymin = min(y for _, y in poly)
    ymax = max(y for _, y in poly)
    us = uniform_stream(seed)
    count = boxi(0)
    one = boxi(1)
    edges = list(zip(slope, vx, vy))
    for _ in range(size):
        px = box(xmin + next(us) * (xmax - xmin))
        py = box(ymin + next(us) * (ymax - ymin))
        side = [less(py, y) for y in vy]
        inside = False
        prev = side[19]
        for s, (m, x, y) in zip(side, edges):
            if s != prev:
                if less(px, add(mul(m, sub(py, y)), x)):
                    inside = not inside
            prev = s
        if inside:
            count = add(count, one)
    return count


def k_fft(rt, size, seed):
    """Radix-2 in-place transform of random data; checksum is the sum of
    squared magnitudes."""
    if size < 2 or size & (size - 1):
        raise ValueError("fft size must be a power of two: %d" % size)
    box = rt.box_host_float
    add = rt.generic_add
    sub = rt.generic_sub
    mul = rt.generic_mul
    n = size
    us = uniform_stream(seed)
    re = []
    im = []
    for _ in range(n):
        re.append(next(us))
        im.append(next(us))
    # bit-reversal permutation (host index shuffle before boxing)
    width = n.bit_length() - 1
    perm = [int(format(i, "0%db" % width)[::-1], 2) for i in range(n)]
    re = [re[p] for p in perm]
    im = [im[p] for p in perm]
    re = [box(x) for x in re]
    im = [box(x) for x in im]
    size_ = 2
    while size_ <= n:
        half = size_ // 2
        for j in range(half):
            ang = (-2.0 * math.pi * j) / size_
            wr = box(math.cos(ang))
            wi = box(math.sin(ang))
            for k in range(j, n, size_):
                l = k + half
                tr = sub(mul(wr, re[l]), mul(wi, im[l]))
                ti = add(mul(wr, im[l]), mul(wi, re[l]))
                re[l] = sub(re[k], tr)
                im[l] = sub(im[k], ti)
                re[k] = add(re[k], tr)
                im[k] = add(im[k], ti)
        size_ *= 2
    s = box(0.0)
    for k in range(n):
        s = add(s, add(mul(re[k], re[k]), mul(im[k], im[k])))
    return s


def sum1_lines(size, seed):
    """The decimal text the file-summing kernel parses: one shortest-repr
    float per line, log-uniform over 1e-3..1e3."""
    us = uniform_stream(seed)
    return [repr(10.0 ** (-3.0 + 6.0 * next(us))) for _ in range(size)]


def sum1_data_path(size, seed):
    """Generate (once) and cache the input file for k_sum1."""
    path = os.path.join(
        tempfile.gettempdir(), "tagbench-sum1-%d-%d.txt" % (seed, size)
    )
    if not os.path.exists(path):
        tmp = "%s.%d.tmp" % (path, os.getpid())
        with open(tmp, "w", encoding="utf-8", newline="\n") as f:
            for ln in sum1_lines(size, seed):
                f.write(ln)
                f.write("\n")
        os.replace(tmp, path)
    return path


def k_sum1(rt, size, seed):
    """Parse one float per line from a text file and sum them."""
    box = rt.box_host_float
    add = rt.generic_add
    s = box(0.0)
    with open(sum1_data_path(size, seed), encoding="utf-8") as f:
        for ln in f:
            v = box(float(ln))
            s = add(s, v)
    return s


KERNEL_FUNCS = {
    "sumfp": k_sumfp,
    "fibfp": k_fibfp,
    "mbrot": k_mbrot,
    "pnpoly": k_pnpoly,
    "fft": k_fft,
    "sum1": k_sum1,
}


def run(spec, rt):
    """Run one kernel against a runtime, fused with it, or in its reference
    form when an operation attribute of rt has been replaced; returns the
    final word."""
    try:
        fn = KERNEL_FUNCS[spec.name]
    except KeyError:
        raise KeyError("unknown kernel: %r" % (spec.name,)) from None
    # imported on the first run, not with the package: compiling fuse.py and
    # importing what it imports added 11-20% to perfbench's setup_s, which
    # imports the package afresh without bytecode caches
    from .fuse import fused

    f = fused(fn, rt)
    return (fn if f is None else f)(rt, spec.size, spec.seed)
