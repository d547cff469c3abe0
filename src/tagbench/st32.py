"""Self-tagging on 32-bit words (binary32 floats, 2-bit tags).

The transform is the 64-bit rotate-and-bias construction scaled to the
narrower word: each variant's triple (bias, r, offset) puts the bias
steps at bit 27 (under the 4-bit prefix of sign and top exponent bits)
and rotates by 4, leaving a 2-bit tag plus two spare low bits on
immediates. The triple is the only place a variant's transform
arithmetic is decided. Its transform_terms add the shift and mask of
the variant's WORD_BITS, so the one scalar pair, schemes.st_transform
and st_untransform, serves 32-bit words too: st32_transform and
st32_untransform are the same two functions. There is no 32-bit heap,
runtime or fixnum; this module only answers representation questions
about the transform.

Coverage lives in schemes, which reads a 32-bit word's geometry (8
exponent bits, 4-bit prefix classes, 2-bit tags) from OneTag and TwoTag.
Like a SchemeConfig, each variant derives its constants once, in
__post_init__ through schemes.derive_constants: transform_terms,
tag_set (one tag-set rule serves both word widths) and class_mask. They
are plain instance values rather than cached properties, so attribute
reads of a variant stay on CPython's inline-value fast path.
st32_covers decides from the transform's tag, not from schemes'
transform-free class predicate, so it is that predicate's independent
check (test_covered_classes_parameter_invariant, all eight variants);
the offline 2^32 sweep checks the roundtrip."""

from dataclasses import dataclass

from .schemes import ONE_TAG, TWO_TAG_BIASED, derive_constants, st_transform, st_untransform


class _Word32:
    WORD_BITS, EXP_BITS, PREFIX_BITS, TAG_MASK = 32, 8, 4, 3


@dataclass(frozen=True)
class OneTag(_Word32):
    tag: int = 0
    variant = ONE_TAG

    def __post_init__(self):
        if not 0 <= self.tag <= 3:
            raise ValueError("tag out of [0, 3]: %r" % (self.tag,))
        # st32_transform is rotl32(bits + bias, r) + offset over (bias, r, offset)
        derive_constants(self, ((1 + 2 * self.tag) << 27, 4, 0))


@dataclass(frozen=True)
class TwoTag(_Word32):
    tag1: int = 0
    variant = TWO_TAG_BIASED
    tag = property(lambda self: self.tag1)  # the primary tag, as schemes reads it

    def __post_init__(self):
        if not 0 <= self.tag1 <= 3:
            raise ValueError("tag1 out of [0, 3]: %r" % (self.tag1,))
        derive_constants(self, ((2 * self.tag1) << 27, 4, 0))


def st32_tag_set(variant):
    """The 2-bit tags immediates carry under the variant: the bits of its
    tag_set mask."""
    if not isinstance(variant, _Word32):
        raise TypeError("not a 32-bit variant: %r" % (variant,))
    return frozenset(t for t in range(4) if (variant.tag_set >> t) & 1)


# rotl32(bits + bias, r) + offset and its inverse over a variant's
# transform_terms, for words in [0, 2**32); the range is not checked
st32_transform = st_transform
st32_untransform = st_untransform


def st32_covers(bits, variant):
    """True when the float with these bits stays immediate."""
    return st32_transform(bits, variant) & 3 in st32_tag_set(variant)
