"""Vectorized mirrors of the scalar transforms, for fuzzing at scale.

The generator is the same splitmix stream the rest of the package uses,
computed in closed form (the k-th state is seed + (k+1)*step), so a block
here is bit-identical to k calls of the scalar generator, and the words
and mismatch totals do not depend on the block size.

Every driver walks its words in blocks of BLOCK words. A roundtrip makes
about twenty numpy temporaries the size of its block, so the block is
sized to keep them cache-resident: at 2^14 words each uint64 array is
128 KiB and a block's working set fits in a 2 MiB L2 cache, while at
2^20 words each temporary is an 8 MiB array streamed through memory.
Ten 2^22-word roundtrips (six self-tagging presets, nan, nun, two 32-bit
variants; median of 5 on a 2-vCPU x86-64 VM with 2 MiB of L2 per core,
BENCH_7.json) took 0.80 s at 2^12 words per block, 0.51 s at 2^13,
0.45 s at 2^14, 0.54 s at 2^15, 0.70 s at 2^16, 0.93 s at 2^18 and
1.28 s at 2^20.

The self-tagging roundtrip drivers (st_, st32_roundtrip_mismatches and
st32_exhaustive_mismatches) spot-check lanes against the scalar
transforms so a vectorization bug cannot agree with itself. The lanes are
fixed by the word count alone: every (m // 16)-th lane of each
SPOT_SPAN-word stretch of the stream (2^22 words for the exhaustive 32-bit
sweep), m being the stretch's length. They do not depend on BLOCK.
nan_roundtrip_mismatches and nun_roundtrip_mismatches check nothing
against a scalar implementation: they restate schemes.nan_box_float and
nun_box_float in numpy and test only those restatements' own invariants."""

import numpy as np

from . import schemes, st32
from .prng import DEFAULT_SEED, GOLDEN, MIX1, MIX2
from .words import M64

_u = np.uint64


def splitmix64_block(seed, start, count):
    """Outputs start .. start+count-1 of the stream for this seed."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = _u(seed & M64) + idx * _u(GOLDEN)
        z = (z ^ (z >> _u(30))) * _u(MIX1)
        z = (z ^ (z >> _u(27))) * _u(MIX2)
        return z ^ (z >> _u(31))


def st_transform_block(bits, config):
    v = config.variant
    with np.errstate(over="ignore"):
        if v == schemes.MANTISSA:
            return bits.copy()
        if v in schemes.ROT4_VARIANTS:
            r = (bits << _u(4)) | (bits >> _u(60))
            return r + _u(config.offset)
        step = 1 + 2 * config.tag if v == schemes.ONE_TAG else 2 * config.tag
        s = bits + _u((step << 58) & M64)
        return (s << _u(5)) | (s >> _u(59))


def st_untransform_block(words, config):
    v = config.variant
    with np.errstate(over="ignore"):
        if v == schemes.MANTISSA:
            return words.copy()
        if v in schemes.ROT4_VARIANTS:
            r = words - _u(config.offset)
            return (r >> _u(4)) | (r << _u(60))
        step = 1 + 2 * config.tag if v == schemes.ONE_TAG else 2 * config.tag
        s = (words >> _u(5)) | (words << _u(59))
        return s - _u((step << 58) & M64)


def covers_block(bits, config):
    if config.variant == schemes.MANTISSA:
        return (bits & _u(3)) == 0
    table = np.zeros(32, dtype=bool)
    table[sorted(schemes.covered_prefix_classes(config))] = True
    return table[(bits >> _u(58)) & _u(31)]


BLOCK = 1 << 14
SPOT_SPAN = 1 << 20


def _blocks(seed, n):
    """(start, outputs start .. start+count-1) over outputs 0 .. n-1 of the
    stream for this seed, in blocks of at most BLOCK words."""
    for start in range(0, n, BLOCK):
        yield start, splitmix64_block(seed, start, min(BLOCK, n - start))


def _spot_lanes(n, span):
    """Ascending lanes of 0 .. n-1 to check against the scalar transform:
    every (m // 16)-th lane of each span-word stretch, m its length."""
    for start in range(0, n, span):
        m = min(span, n - start)
        yield from range(start, start + m, max(1, m // 16))


def _roundtrip_mismatches(blocks, lanes, param, forward, backward, scalar):
    """Words of the (start, words) blocks that forward(., param) does not
    map back exactly under backward(., param). At each lane, forward must
    equal scalar(., param); a disagreement raises AssertionError."""
    lanes = iter(lanes)
    lane = next(lanes, None)
    total = 0
    for start, b in blocks:
        w = forward(b, param)
        end = start + b.shape[0]
        while lane is not None and lane < end:
            if int(w[lane - start]) != scalar(int(b[lane - start]), param):
                raise AssertionError("vector transform disagrees with scalar at lane %d" % lane)
            lane = next(lanes, None)
        total += int(np.count_nonzero(backward(w, param) != b))
    return total


def st_roundtrip_mismatches(config, n, seed=DEFAULT_SEED):
    """Words whose transform does not invert exactly, over n random words."""
    return _roundtrip_mismatches(_blocks(seed, n), _spot_lanes(n, SPOT_SPAN), config,
                                 st_transform_block, st_untransform_block, schemes.st_transform)


def nan_roundtrip_mismatches(n, seed=DEFAULT_SEED):
    """Boxing under NaN collapse must be the identity below the canonical
    NaN and never produce a word above it."""
    canon = _u(schemes.NAN_CANON)
    total = 0
    for _, b in _blocks(seed, n):
        boxed = np.where(b < canon, b, canon)
        total += int(np.count_nonzero(boxed > canon))
        sel = b < canon
        total += int(np.count_nonzero(boxed[sel] != b[sel]))
    return total


def nun_roundtrip_mismatches(n, seed=DEFAULT_SEED):
    """Bias-boxing must land every float outside the two reserved top-16
    classes and invert exactly below the canonicalization threshold."""
    canon_min = _u(schemes.NUN_CANON_MIN)
    bias = _u(schemes.NUN_BIAS)
    total = 0
    for _, b in _blocks(seed, n):
        sel = b < canon_min
        bs = b[sel]
        with np.errstate(over="ignore"):
            w = bs + bias
            top = w >> _u(48)
            total += int(np.count_nonzero((top == _u(0)) | (top == _u(0xFFFF))))
            total += int(np.count_nonzero((w - bias) != bs))
    return total


def boundary_words64():
    """Structured word set: exponent field at both edges of every prefix
    class, both signs, extreme and near-extreme mantissas."""
    ws = []
    for p in range(32):
        for e in (64 * p, 64 * p + 63):
            for m in (0, 1, (1 << 52) - 1):
                for s in (0, 1 << 63):
                    ws.append(s | (e << 52) | m)
    return np.array(sorted(set(ws)), dtype=np.uint64)


def boundary_words32():
    ws = []
    for p in range(16):
        for e in (16 * p, 16 * p + 15):
            for m in (0, 1, (1 << 23) - 1):
                for s in (0, 1 << 31):
                    ws.append(s | (e << 23) | m)
    return np.array(sorted(set(ws)), dtype=np.uint32)


_u32 = np.uint32


def st32_transform_block(bits, variant):
    bias = st32._bias(variant)
    with np.errstate(over="ignore"):
        r = bits + _u32(bias)
        return (r << _u32(4)) | (r >> _u32(28))


def st32_untransform_block(words, variant):
    bias = st32._bias(variant)
    with np.errstate(over="ignore"):
        r = (words >> _u32(4)) | (words << _u32(28))
        return r - _u32(bias)


def st32_roundtrip_mismatches(variant, n, seed=DEFAULT_SEED):
    blocks = ((start, b.astype(np.uint32)) for start, b in _blocks(seed, n))
    return _roundtrip_mismatches(blocks, _spot_lanes(n, SPOT_SPAN), variant,
                                 st32_transform_block, st32_untransform_block, st32.st32_transform)


def st32_exhaustive_mismatches(variant):
    """Roundtrip over every 32-bit word. Minutes of work; meant for the
    offline gold check, not the default test run. Spot-checks 16 lanes
    of every 2^22 words."""
    blocks = ((start, np.arange(start, start + BLOCK, dtype=np.uint32))
              for start in range(0, 1 << 32, BLOCK))
    return _roundtrip_mismatches(blocks, _spot_lanes(1 << 32, 1 << 22), variant,
                                 st32_transform_block, st32_untransform_block, st32.st32_transform)
