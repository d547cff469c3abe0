"""Vectorized mirrors of the scalar transforms, for fuzzing at scale.

The generator is the same splitmix stream the rest of the package uses,
computed in closed form (the k-th state is seed + (k+1)*step), so a block
here is bit-identical to k calls of the scalar generator, and the words
and mismatch totals do not depend on the block size. A driver makes the
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
mantissa variant) returns a copy.

Every driver walks its words in blocks of BLOCK words. The transforms of
a roundtrip and its compare make about six numpy temporaries the size of
its block, so the block is sized to keep them cache-resident: at 2^14
words each uint64 array is 128 KiB and a block's working set fits in a
2 MiB L2 cache. Ten 2^22-word roundtrips (six self-tagging presets, nan,
nun, two 32-bit variants; median of 5 on a 2-vCPU x86-64 VM with 2 MiB
of L2 per core, before the mirrors were merged) took 0.69 s at 2^12 words per block, 0.44 s at 2^13, 0.34 s at
2^14, 0.38 s at 2^15 and 0.58 s at 2^16. The generator that made an
arange and eleven temporaries per block took 0.78, 0.54, 0.42, 0.46 and
0.76 s in the same run (BENCH_7.json has its sweep up to 2^20).

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


def st_transform_block(bits, config):
    """st_transform (st32_transform for a uint32 array) of every word, in a
    new array of bits' dtype: rotl(bits + bias, r) + offset over
    config.transform_terms, at the array's word width."""
    bias, r, offset = config.transform_terms
    if r == 0:
        return bits.copy()
    u = bits.dtype.type
    s = bits + u(bias) if bias else bits
    w = s << u(r)
    w |= s >> u(8 * bits.itemsize - r)
    if offset:
        w += u(offset)
    return w


def st_untransform_block(words, config):
    """The inverse of st_transform_block, in a new array."""
    bias, r, offset = config.transform_terms
    if r == 0:
        return words.copy()
    u = words.dtype.type
    s = words - u(offset) if offset else words
    b = s >> u(r)
    b |= s << u(8 * words.itemsize - r)
    if bias:
        b -= u(bias)
    return b


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
    stream for this seed, in blocks of at most BLOCK words. Every block is
    the same buffer, refilled: a block is valid only until the next one is
    yielded, so a caller that keeps one must copy it."""
    steps = _steps(min(BLOCK, n))
    z, t = np.empty_like(steps), np.empty_like(steps)
    for start in range(0, n, BLOCK):
        count = min(BLOCK, n - start)
        if count < len(steps):
            steps, z, t = steps[:count], z[:count], t[:count]
        _fill(z, steps, seed, start)
        yield start, _mix(z, t)


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


# st32 variants carry the same transform_terms, and the pair above takes
# the word width from the array's dtype
st32_transform_block = st_transform_block
st32_untransform_block = st_untransform_block


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
