"""Self-tagging on 32-bit words (binary32 floats, 2-bit tags).

The transform is the 64-bit rotate-and-bias construction scaled to the
narrower word: each variant's transform_terms triple (bias, r, offset)
puts the bias steps at bit 27 (under the 4-bit prefix of sign and top
exponent bits) and rotates by 4, leaving a 2-bit tag plus two spare low
bits on immediates. The triple is the only place a variant's transform
arithmetic is decided. There is no 32-bit heap, runtime or fixnum; this
module only answers representation questions: transform and coverage."""

import math
from dataclasses import dataclass
from functools import cached_property

from .schemes import CoverageInterval, class_runs
from .words import M32


@dataclass(frozen=True)
class OneTag:
    tag: int = 0

    def __post_init__(self):
        if not 0 <= self.tag <= 3:
            raise ValueError("tag out of [0, 3]: %r" % (self.tag,))

    @cached_property
    def transform_terms(self):
        """(bias, r, offset): st32_transform is rotl32(bits + bias, r) + offset."""
        return (1 + 2 * self.tag) << 27, 4, 0


@dataclass(frozen=True)
class TwoTag:
    tag1: int = 0

    def __post_init__(self):
        if not 0 <= self.tag1 <= 3:
            raise ValueError("tag1 out of [0, 3]: %r" % (self.tag1,))

    @cached_property
    def transform_terms(self):
        """(bias, r, offset): st32_transform is rotl32(bits + bias, r) + offset."""
        return (2 * self.tag1) << 27, 4, 0


def st32_tag_set(variant):
    """The 2-bit tags immediates carry under the variant."""
    if isinstance(variant, OneTag):
        return frozenset((variant.tag,))
    if isinstance(variant, TwoTag):
        return frozenset((variant.tag1, (variant.tag1 - 1) % 4))
    raise TypeError("not a 32-bit variant: %r" % (variant,))


def st32_transform(bits, variant):
    """rotl32(bits + bias, r) + offset over variant.transform_terms."""
    bias, r, offset = variant.transform_terms
    s = (bits + bias) & M32
    return ((((s << r) | (s >> (32 - r))) & M32) + offset) & M32


def st32_untransform(w, variant):
    bias, r, offset = variant.transform_terms
    s = (w - offset) & M32
    return ((((s >> r) | (s << (32 - r))) & M32) - bias) & M32


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
