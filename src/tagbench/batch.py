"""Vectorized mirrors of the scalar transforms, for fuzzing at scale.

The generator is the same splitmix stream the rest of the package uses,
computed in closed form (the k-th state is seed + (k+1)*step), so a block
here is bit-identical to k calls of the scalar generator. Roundtrip
drivers spot-check a few lanes of every block against the scalar
implementations so a vectorization bug cannot agree with itself."""

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


def _blocks(seed, n, chunk):
    """Outputs 0 .. n-1 of the stream for this seed, in blocks of at most
    chunk words."""
    for start in range(0, n, chunk):
        yield splitmix64_block(seed, start, min(chunk, n - start))


def _spot64(bits, out, config):
    n = bits.shape[0]
    for i in range(0, n, max(1, n // 16)):
        if int(out[i]) != schemes.st_transform(int(bits[i]), config):
            raise AssertionError("vector transform disagrees with scalar at lane %d" % i)


def st_roundtrip_mismatches(config, n, seed=DEFAULT_SEED, chunk=1 << 20):
    """Words whose transform does not invert exactly, over n random words."""
    total = 0
    for b in _blocks(seed, n, chunk):
        w = st_transform_block(b, config)
        _spot64(b, w, config)
        total += int(np.count_nonzero(st_untransform_block(w, config) != b))
    return total


def nan_roundtrip_mismatches(n, seed=DEFAULT_SEED, chunk=1 << 20):
    """Boxing under NaN collapse must be the identity below the canonical
    NaN and never produce a word above it."""
    canon = _u(schemes.NAN_CANON)
    total = 0
    for b in _blocks(seed, n, chunk):
        boxed = np.where(b < canon, b, canon)
        total += int(np.count_nonzero(boxed > canon))
        sel = b < canon
        total += int(np.count_nonzero(boxed[sel] != b[sel]))
    return total


def nun_roundtrip_mismatches(n, seed=DEFAULT_SEED, chunk=1 << 20):
    """Bias-boxing must land every float outside the two reserved top-16
    classes and invert exactly below the canonicalization threshold."""
    canon_min = _u(schemes.NUN_CANON_MIN)
    bias = _u(schemes.NUN_BIAS)
    total = 0
    for b in _blocks(seed, n, chunk):
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


def _spot32(bits, out, variant):
    n = bits.shape[0]
    for i in range(0, n, max(1, n // 16)):
        if int(out[i]) != st32.st32_transform(int(bits[i]), variant):
            raise AssertionError("vector transform disagrees with scalar at lane %d" % i)


def st32_roundtrip_mismatches(variant, n, seed=DEFAULT_SEED, chunk=1 << 20):
    total = 0
    for b in _blocks(seed, n, chunk):
        b = b.astype(np.uint32)
        w = st32_transform_block(b, variant)
        _spot32(b, w, variant)
        total += int(np.count_nonzero(st32_untransform_block(w, variant) != b))
    return total


def st32_exhaustive_mismatches(variant, chunk=1 << 22):
    """Roundtrip over every 32-bit word. Minutes of work; meant for the
    offline gold check, not the default test run."""
    total = 0
    for start in range(0, 1 << 32, chunk):
        b = np.arange(start, start + chunk, dtype=np.int64).astype(np.uint32)
        w = st32_transform_block(b, variant)
        _spot32(b, w, variant)
        total += int(np.count_nonzero(st32_untransform_block(w, variant) != b))
    return total
