"""Vectorized mirrors of the scalar transforms, for fuzzing at scale.

The generator is the same splitmix stream the rest of the package uses,
computed in closed form (the k-th state is seed + (k+1)*step), so a block
here is bit-identical to k calls of the scalar generator, and the words
and mismatch totals do not depend on the block size. A worker makes the
steps 1*step .. BLOCK*step once; each block's states are then one add of
the state before it, and the mixing rounds run in place in one reused
buffer.

One mirror pair, st_transform_block and st_untransform_block, serves
every self-tagging transform at both word widths: it reads the
transform_terms triple (bias, r, offset) of a SchemeConfig or a 32-bit
variant and computes rotl(bits + bias, r) + offset at the width of the
array's dtype, uint64 or uint32. st32_transform_block and
st32_untransform_block are the same two functions. A zero bias or offset
is not added, which saves a pass over the block, and r == 0 (the
mantissa variant) copies the words.

Every mirror takes optional out and scratch arrays of its input's shape,
neither sharing memory with the input. Given out, it writes its result
there and returns it; without, it returns a new array. It may overwrite
scratch: an array of the input's dtype for a rotation, a bool array for
NuN boxing's collapse mask. A mirror that needs no scratch ignores it,
and nan_unbox_block, the identity, returns its input. The drivers always
use what a mirror returns.

Every driver cuts its n-word stream into chunks of CHUNK_BLOCKS * BLOCK
words (2^18) and walks them on one worker per usable CPU (the affinity
mask where the OS has one, else os.cpu_count()), the calling thread
among them; for one CPU or one chunk no thread starts. Workers claim
chunks in order from a shared counter, so a worker that the rest of the
machine slows down takes fewer of them. numpy releases the GIL inside
its loops, so the workers' passes overlap. Each worker allocates its
generator, mirror and mask buffers once, on its own thread, and walks
every block in them: no block allocates an array.

The block size trades cache against the GIL. A lone worker walks BLOCK
= 2^14 words at a time, so its six uint64 buffers (768 KiB) stay in a
2 MiB L2 cache; serial drivers with fresh temporaries took 0.69, 0.44,
0.34, 0.38 and 0.58 s for ten 2^22-word roundtrips at 2^12 to 2^16
words per block (BENCH_7). Workers that share the stream walk
SHARED_BLOCKS * BLOCK = 2^16 words at a time, so that each numpy call
outlasts the GIL handoff around it: at 2^14 words two workers ran
slower than one, and at 2^17 slower than at 2^16. perfbench
`codec` (ten 2^22-word roundtrips per pass: six self-tagging presets,
nan, nun, two 32-bit variants, plus the scalar checks; 2-vCPU x86-64
VM, medians of 10 runs, BENCH_25) read 1.43e8 words/s on two CPUs
against 1.21e8 for the serial drivers with fresh temporaries, and
1.24e8 against 1.25e8 on one CPU (taskset -c 0). Inside perfbench the
numpy probe's 8 MiB arrays raise glibc's dynamic mmap threshold, so a
worker's 512 KiB buffers come from its thread's malloc arena rather
than fresh mmaps; a second worker's arena keeps them (3 MiB) between
calls, which raised perfbench's peak_rss_mb from 55.0 to 58.7 MB.

Every roundtrip driver spot-checks lanes against its scalar reference
(schemes.st_transform, nan_box_float, nun_box_float, st32.st32_transform)
so a vectorization bug cannot agree with itself. The lanes are fixed by
the word count alone: every (m // 16)-th lane of each SPOT_SPAN-word
stretch of the stream (2^22 words for the exhaustive 32-bit sweep), m
being the stretch's length. They do not depend on BLOCK or on the
workers. Workers record each spot lane's word and vector word; once they
have all ended, the calling thread checks the lanes in ascending order,
so the scalar references run on one thread and the lowest bad lane is
the one reported. NaN and NuN boxing collapse the words at and above
their bound (NAN_CANON, NUN_CANON_MIN) to the canonical NaN, so only the
words below it must come back exactly."""

import os
import threading
from bisect import bisect_left
from functools import partial
from itertools import count

import numpy as np

from . import schemes, st32
from .prng import DEFAULT_SEED, GOLDEN, MIX1, MIX2
from .words import M64

_u = np.uint64


def _steps(count):
    """(j + 1) * GOLDEN for j in 0 .. count-1: the states of a block less
    the state before its first word."""
    return np.arange(1, count + 1, dtype=np.uint64) * _u(GOLDEN)


def _fill(out, steps, seed, start):
    """The states of outputs start .. start+len(out)-1 into out."""
    np.add(steps, _u((seed + start * GOLDEN) & M64), out=out)


def _mix(z, t):
    """prng.mix64 of every word of the array z, in place, with t a scratch
    array of z's shape; returns z. Integer arrays wrap without a warning
    (only numpy scalars warn), so no errstate is needed."""
    np.right_shift(z, _u(30), out=t)
    np.bitwise_xor(z, t, out=z)
    np.multiply(z, _u(MIX1), out=z)
    np.right_shift(z, _u(27), out=t)
    np.bitwise_xor(z, t, out=z)
    np.multiply(z, _u(MIX2), out=z)
    np.right_shift(z, _u(31), out=t)
    np.bitwise_xor(z, t, out=z)
    return z


def splitmix64_block(seed, start, count):
    """Outputs start .. start+count-1 of the stream for this seed, in a new
    array."""
    z = _steps(count)
    _fill(z, z, seed, start)
    return _mix(z, np.empty_like(z))


def _rotl(s, r, out, scratch):
    """rotl(s, r) at s's word width into out; scratch may be s itself."""
    u = s.dtype.type
    np.left_shift(s, u(r), out=out)
    np.right_shift(s, u(8 * s.itemsize - r), out=scratch)
    out |= scratch
    return out


def st_transform_block(bits, config, out=None, scratch=None):
    """st_transform (st32_transform for a uint32 array) of every word:
    rotl(bits + bias, r) + offset over config.transform_terms, at the
    array's word width."""
    bias, r, offset = config.transform_terms
    if out is None:
        out = np.empty_like(bits)
    if r == 0:
        np.copyto(out, bits)
        return out
    if scratch is None:
        scratch = np.empty_like(bits)
    u = bits.dtype.type
    s = np.add(bits, u(bias), out=scratch) if bias else bits
    _rotl(s, r, out, scratch)
    if offset:
        out += u(offset)
    return out


def st_untransform_block(words, config, out=None, scratch=None):
    """The inverse of st_transform_block."""
    bias, r, offset = config.transform_terms
    if out is None:
        out = np.empty_like(words)
    if r == 0:
        np.copyto(out, words)
        return out
    if scratch is None:
        scratch = np.empty_like(words)
    u = words.dtype.type
    s = np.subtract(words, u(offset), out=scratch) if offset else words
    _rotl(s, 8 * words.itemsize - r, out, scratch)
    if bias:
        out -= u(bias)
    return out


def covers_block(bits, config):
    if config.variant == schemes.MANTISSA:
        return (bits & _u(3)) == 0
    table = np.zeros(32, dtype=bool)
    table[sorted(schemes.covered_prefix_classes(config))] = True
    return table[(bits >> _u(58)) & _u(31)]


BLOCK = 1 << 14
SHARED_BLOCKS = 4
CHUNK_BLOCKS = 16
SPOT_SPAN = 1 << 20


class _Stream:
    """One worker's generator for the stream of a seed: block(start, count)
    is outputs start .. start+count-1 (count at most size) as words of
    dtype, truncated for uint32, in a buffer the next call refills."""

    def __init__(self, seed, size, dtype=np.uint64):
        self.seed = seed
        self.steps = _steps(size)
        self.z, self.t = np.empty_like(self.steps), np.empty_like(self.steps)
        self.words = self.z if dtype == np.uint64 else np.empty(size, dtype)

    def block(self, start, count):
        z, t, steps, words = self.z, self.t, self.steps, self.words
        if count < len(z):
            z, t, steps, words = z[:count], t[:count], steps[:count], words[:count]
        _fill(z, steps, self.seed, start)
        _mix(z, t)
        if words.dtype != z.dtype:
            np.copyto(words, z, casting="unsafe")
        return words


class _Range32:
    """One worker's blocks of the 32-bit words in order: block(start, count)
    is start .. start+count-1 as uint32, in a buffer the next call
    refills."""

    def __init__(self, size):
        self.base = np.arange(size, dtype=np.uint32)
        self.words = np.empty_like(self.base)

    def block(self, start, count):
        return np.add(self.base[:count], np.uint32(start), out=self.words[:count])


def _spot_lanes(n, span):
    """Ascending lanes of 0 .. n-1 to check against the scalar transform:
    every (m // 16)-th lane of each span-word stretch, m its length."""
    for start in range(0, n, span):
        m = min(span, n - start)
        yield from range(start, start + m, max(1, m // 16))


def _cpus():
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _chunked(n, walker):
    """The results of walk(start, stop) over the chunks of words 0 .. n-1,
    CHUNK_BLOCKS * BLOCK words each, in no fixed order. One worker per
    usable CPU, at most one per chunk, the calling thread among them,
    gets its walk from walker(size) on its own thread, so its buffers
    come from its own allocator arena, and claims chunks in order from a
    shared counter. size is its block: BLOCK words for a lone worker,
    SHARED_BLOCKS * BLOCK when workers share the stream, never more than
    n. The first exception in a worker stops the others after their
    current chunk and is raised here, after every thread has ended."""
    chunk = CHUNK_BLOCKS * BLOCK
    chunks = -(-n // chunk)
    workers = max(1, min(_cpus(), chunks))
    size = min(n, BLOCK if workers == 1 else SHARED_BLOCKS * BLOCK)
    claims = count()  # next() on a count is atomic under the GIL
    results, errors = [], []

    def work():
        try:
            walk = walker(size)
            while not errors:
                c = next(claims)
                if c >= chunks:
                    break
                results.append(walk(c * chunk, min(n, c * chunk + chunk)))
        except BaseException as ex:
            errors.append(ex)

    threads = []
    try:
        for _ in range(workers - 1):
            threads.append(threading.Thread(target=work))
            threads[-1].start()
        work()
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]
    return results


def _roundtrip_mismatches(n, source, lanes, forward, backward, scalar, *args, bound=None, scratch=None):
    """Words 0 .. n-1 of source, only those below bound if one is given,
    that forward(., *args) does not map back exactly under
    backward(., *args). source(size) makes one worker's generator, whose
    block(start, count) gives the words; scratch is the dtype of the
    mirrors' scratch array, or None for none. At each lane, forward must
    equal scalar(., *args); a disagreement raises AssertionError naming
    the lowest such lane."""
    lanes = list(lanes)

    def walker(size):
        src = source(size)
        dtype = src.words.dtype
        bufs = (np.empty(size, dtype), np.empty(size, dtype),
                None if scratch is None else np.empty(size, scratch),
                np.empty(size, bool), np.empty(size, bool))
        limit = None if bound is None else dtype.type(bound)

        def walk(start, stop):
            total, spots = 0, []
            i = bisect_left(lanes, start)
            fw, bw, sc, bad, below = bufs
            for s in range(start, stop, size):
                k = min(size, stop - s)
                if k < size:  # the stream's last block
                    fw, bw, sc, bad, below = (None if a is None else a[:k] for a in bufs)
                b = src.block(s, k)
                w = forward(b, *args, out=fw, scratch=sc)
                while i < len(lanes) and lanes[i] < s + k:
                    spots.append((lanes[i], int(b[lanes[i] - s]), int(w[lanes[i] - s])))
                    i += 1
                np.not_equal(backward(w, *args, out=bw, scratch=sc), b, out=bad)
                if limit is not None:
                    bad &= np.less(b, limit, out=below)
                total += int(np.count_nonzero(bad))
            return total, spots
        return walk

    results = _chunked(n, walker)
    for lane, word, vector_word in sorted(spot for _, spots in results for spot in spots):
        if scalar(word, *args) != vector_word:
            raise AssertionError("vector transform disagrees with scalar at lane %d" % lane)
    return sum(total for total, _ in results)


def st_roundtrip_mismatches(config, n, seed=DEFAULT_SEED):
    """Words whose transform does not invert exactly, over n random words."""
    return _roundtrip_mismatches(n, partial(_Stream, seed), _spot_lanes(n, SPOT_SPAN),
                                 st_transform_block, st_untransform_block, schemes.st_transform,
                                 config, scratch=np.uint64)


def nan_box_block(bits, out=None, scratch=None):
    return np.minimum(bits, _u(schemes.NAN_CANON), out=out)


def nan_unbox_block(words, out=None, scratch=None):
    return words


def nun_box_block(bits, out=None, scratch=None):
    if out is None:
        out = np.empty_like(bits)
    collapse = np.greater_equal(bits, _u(schemes.NUN_CANON_MIN), out=scratch)
    np.add(bits, _u(schemes.NUN_BIAS), out=out)
    np.copyto(out, _u(schemes.NAN_CANON + schemes.NUN_BIAS), where=collapse)
    return out


def nun_unbox_block(words, out=None, scratch=None):
    return np.subtract(words, _u(schemes.NUN_BIAS), out=out)


def nan_roundtrip_mismatches(n, seed=DEFAULT_SEED):
    """Words below the canonical NaN that NaN boxing does not return
    exactly, over n random words."""
    return _roundtrip_mismatches(n, partial(_Stream, seed), _spot_lanes(n, SPOT_SPAN),
                                 nan_box_block, nan_unbox_block, schemes.nan_box_float,
                                 bound=schemes.NAN_CANON)


def nun_roundtrip_mismatches(n, seed=DEFAULT_SEED):
    """Words below NUN_CANON_MIN that NuN boxing does not return exactly,
    over n random words."""
    return _roundtrip_mismatches(n, partial(_Stream, seed), _spot_lanes(n, SPOT_SPAN),
                                 nun_box_block, nun_unbox_block, schemes.nun_box_float,
                                 bound=schemes.NUN_CANON_MIN, scratch=np.bool_)


# st32 variants carry the same transform_terms, and the pair above takes
# the word width from the array's dtype
st32_transform_block = st_transform_block
st32_untransform_block = st_untransform_block


def st32_roundtrip_mismatches(variant, n, seed=DEFAULT_SEED):
    return _roundtrip_mismatches(n, partial(_Stream, seed, dtype=np.uint32),
                                 _spot_lanes(n, SPOT_SPAN), st32_transform_block,
                                 st32_untransform_block, st32.st32_transform, variant,
                                 scratch=np.uint32)


def st32_exhaustive_mismatches(variant):
    """Roundtrip over every 32-bit word. Seconds of work per variant on
    two CPUs (5.6 s, BENCH_25); meant for the offline gold check, not the
    default test run. Spot-checks 16 lanes of every 2^22 words."""
    return _roundtrip_mismatches(1 << 32, _Range32, _spot_lanes(1 << 32, 1 << 22),
                                 st32_transform_block, st32_untransform_block,
                                 st32.st32_transform, variant, scratch=np.uint32)
