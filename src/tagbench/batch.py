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

Every roundtrip driver spot-checks lanes against its scalar reference
(schemes.st_transform, nan_box_float, nun_box_float, st32.st32_transform)
so a vectorization bug cannot agree with itself. The lanes are fixed by
the word count alone: every (m // 16)-th lane of each SPOT_SPAN-word
stretch of the stream (2^22 words for the exhaustive 32-bit sweep), m
being the stretch's length. They do not depend on BLOCK. NaN and NuN
boxing collapse the words at and above their bound (NAN_CANON,
NUN_CANON_MIN) to the canonical NaN, so only the words below it must
come back exactly."""

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


def _roundtrip_mismatches(blocks, lanes, forward, backward, scalar, *args, bound=None):
    """Words of the (start, words) blocks, only those below bound if one is
    given, that forward(., *args) does not map back exactly under
    backward(., *args). At each lane, forward must equal scalar(., *args);
    a disagreement raises AssertionError."""
    lanes = iter(lanes)
    lane = next(lanes, None)
    total = 0
    for start, b in blocks:
        w = forward(b, *args)
        end = start + b.shape[0]
        while lane is not None and lane < end:
            if int(w[lane - start]) != scalar(int(b[lane - start]), *args):
                raise AssertionError("vector transform disagrees with scalar at lane %d" % lane)
            lane = next(lanes, None)
        bad = backward(w, *args) != b
        if bound is not None:
            bad &= b < _u(bound)
        total += int(np.count_nonzero(bad))
    return total


def st_roundtrip_mismatches(config, n, seed=DEFAULT_SEED):
    """Words whose transform does not invert exactly, over n random words."""
    return _roundtrip_mismatches(_blocks(seed, n), _spot_lanes(n, SPOT_SPAN), st_transform_block,
                                 st_untransform_block, schemes.st_transform, config)


def nan_box_block(bits):
    return np.minimum(bits, _u(schemes.NAN_CANON))


def nan_unbox_block(words):
    return words


def nun_box_block(bits):
    with np.errstate(over="ignore"):
        kept = np.where(bits < _u(schemes.NUN_CANON_MIN), bits, _u(schemes.NAN_CANON))
        return kept + _u(schemes.NUN_BIAS)


def nun_unbox_block(words):
    with np.errstate(over="ignore"):
        return words - _u(schemes.NUN_BIAS)


def nan_roundtrip_mismatches(n, seed=DEFAULT_SEED):
    """Words below the canonical NaN that NaN boxing does not return
    exactly, over n random words."""
    return _roundtrip_mismatches(_blocks(seed, n), _spot_lanes(n, SPOT_SPAN), nan_box_block,
                                 nan_unbox_block, schemes.nan_box_float, bound=schemes.NAN_CANON)


def nun_roundtrip_mismatches(n, seed=DEFAULT_SEED):
    """Words below NUN_CANON_MIN that NuN boxing does not return exactly,
    over n random words."""
    return _roundtrip_mismatches(_blocks(seed, n), _spot_lanes(n, SPOT_SPAN), nun_box_block,
                                 nun_unbox_block, schemes.nun_box_float, bound=schemes.NUN_CANON_MIN)


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
    return _roundtrip_mismatches(blocks, _spot_lanes(n, SPOT_SPAN), st32_transform_block,
                                 st32_untransform_block, st32.st32_transform, variant)


def st32_exhaustive_mismatches(variant):
    """Roundtrip over every 32-bit word. Minutes of work; meant for the
    offline gold check, not the default test run. Spot-checks 16 lanes
    of every 2^22 words."""
    blocks = ((start, np.arange(start, start + BLOCK, dtype=np.uint32))
              for start in range(0, 1 << 32, BLOCK))
    return _roundtrip_mismatches(blocks, _spot_lanes(1 << 32, 1 << 22), st32_transform_block,
                                 st32_untransform_block, st32.st32_transform, variant)
