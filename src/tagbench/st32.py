"""Self-tagging on 32-bit words (binary32 floats, 2-bit tags).

The transform mirrors the 64-bit rotate-and-bias construction scaled to
the narrower word: the bias steps sit at bit 27 (under the 4-bit prefix of
sign and top exponent bits) and the rotation is by 4, leaving a 2-bit tag
plus two spare low bits on immediates. There is no 32-bit heap or runtime;
this module only answers representation questions: transform, coverage,
and the 30-bit fixnum encoding."""

import math
from dataclasses import dataclass

from .schemes import CoverageInterval, class_runs
from .words import M32, rotl32, rotr32

FIXNUM32_MIN = -(1 << 29)
FIXNUM32_MAX = (1 << 29) - 1


@dataclass(frozen=True)
class OneTag:
    tag: int = 0

    def __post_init__(self):
        if not 0 <= self.tag <= 3:
            raise ValueError("tag out of [0, 3]: %r" % (self.tag,))


@dataclass(frozen=True)
class TwoTag:
    tag1: int = 0

    def __post_init__(self):
        if not 0 <= self.tag1 <= 3:
            raise ValueError("tag1 out of [0, 3]: %r" % (self.tag1,))


def _bias(variant):
    if isinstance(variant, OneTag):
        return ((1 + 2 * variant.tag) << 27) & M32
    if isinstance(variant, TwoTag):
        return ((2 * variant.tag1) << 27) & M32
    raise TypeError("not a 32-bit variant: %r" % (variant,))


def st32_tag_set(variant):
    """The 2-bit tags immediates carry under the variant."""
    if isinstance(variant, OneTag):
        return frozenset((variant.tag,))
    if isinstance(variant, TwoTag):
        return frozenset((variant.tag1, (variant.tag1 - 1) % 4))
    raise TypeError("not a 32-bit variant: %r" % (variant,))


def st32_transform(bits, variant):
    return rotl32((bits + _bias(variant)) & M32, 4)


def st32_untransform(w, variant):
    return (rotr32(w, 4) - _bias(variant)) & M32


def st32_covers(bits, variant):
    """True when the float with these bits stays immediate."""
    return st32_transform(bits, variant) & 3 in st32_tag_set(variant)


def st32_covered_prefix_classes(variant):
    """Covered 4-bit prefix classes; the decision is uniform inside a
    class, so one representative settles each."""
    return frozenset(p for p in range(16) if st32_covers(p << 27, variant))


def class_lo32(p):
    return 0.0 if p == 0 else 2.0 ** (16 * p - 127)


def class_hi32(p):
    return math.inf if p == 15 else 2.0 ** (16 * (p + 1) - 127)


def st32_coverage(variant):
    """Covered magnitude intervals, maximal runs of covered classes."""
    return [
        CoverageInterval(
            lo=class_lo32(a),
            hi=class_hi32(b),
            includes_zero=a == 0,
            includes_inf_nan=b == 15,
        )
        for a, b in class_runs(st32_covered_prefix_classes(variant), 16)
    ]


def encode_fixnum32(v):
    if not FIXNUM32_MIN <= v <= FIXNUM32_MAX:
        raise OverflowError("fixnum32 out of range: %d" % v)
    return (v << 2) & M32


def decode_fixnum32(w):
    if w & 3:
        raise TypeError("not a fixnum32 word: 0x%08x" % w)
    if w & 0x80000000:
        w -= 1 << 32
    return w >> 2
