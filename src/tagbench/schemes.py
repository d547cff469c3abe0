"""Float encoding schemes over 64-bit words, and the prefix-class
coverage of self-tagging at both word widths.

Three families:
  * heap boxing (every float lives in a heap cell),
  * NaN boxing and its biased cousin (floats stay immediate, non-floats
    occupy reserved NaN / prefix ranges),
  * self-tagging (an invertible word transform moves selected exponent
    prefixes onto designated low-bit tags, making those floats immediate).

The transforms are total bijections on the 2^64 pattern space; which
floats end up inside the tag set depends only on a handful of exponent
bits (or the low mantissa bits, for the mantissa variant), so coverage is
also exposed analytically as prefix-class intervals. The class functions
take a SchemeConfig or a 32-bit st32 variant and read the word's geometry
from its class constants: EXP_BITS exponent bits, whose top PREFIX_BITS
name a prefix class, and TAG_MASK, the mask of the low tag.

A config derives its constants once, at construction (derive_constants):
transform_terms, the tag_set mask of the tags that mark immediates and
the class_mask of covered prefix classes, built from _class_covered
alone. They are plain instance values, not cached properties or class
attributes: a cached_property stores through the instance __dict__,
which on CPython 3.11 turns the inline attribute values into a dict and
slows every later attribute read of that config, and 3.11 specialises a
read only for names the class does not define. So tag_set and
class_mask are None where they do not apply, and a config that is not
self-tagging holds a transform_terms sentinel whose unpacking raises.
transform_terms is (bias, r, offset, width - r, mask) for the config's
WORD_BITS, so one scalar pair, st_transform and st_untransform, serves
both word widths."""

import math
from dataclasses import dataclass

from .words import M64, tag_set_mask

BOXED = "boxed"
NANBOX = "nanbox"
NUNBOX = "nunbox"
ONE_TAG = "one_tag"
TWO_TAG_BIASED = "two_tag_biased"
TWO_TAG_ZEROS = "two_tag_zeros"
THREE_TAG = "three_tag"
FOUR_TAG = "four_tag"
MANTISSA = "mantissa_low_bits"

ROT4_VARIANTS = frozenset((TWO_TAG_ZEROS, THREE_TAG, FOUR_TAG))
SELF_TAG_VARIANTS = ROT4_VARIANTS | {ONE_TAG, TWO_TAG_BIASED, MANTISSA}
ALL_VARIANTS = SELF_TAG_VARIANTS | {BOXED, NANBOX, NUNBOX}

GENERIC_TAG = 1  # handle tag shared by every generic-pointer object

# exponent-top-3-bit classes kept immediate by the 4-bit-rotation family;
# the rotation moves those 3 bits into the tag, so they plus the offset
# are the family's tag set
_ROT4_E3 = {
    TWO_TAG_ZEROS: (3, 4),
    THREE_TAG: (0, 3, 4),
    FOUR_TAG: (0, 3, 4, 7),
}


def _not_self_tagging(variant):
    return ValueError("not a self-tagging variant: %r" % (variant,))


class _NoTransform:
    """The transform_terms of a config that is not self-tagging: unpacking
    it raises."""

    def __init__(self, variant):
        self.variant = variant

    def __iter__(self):
        raise _not_self_tagging(self.variant)


@dataclass(frozen=True)
class SchemeConfig:
    """One encoding scheme plus its parameters.

    tag is the primary tag for the one-tag and biased two-tag variants;
    offset shifts the rotation family's tag set; heap_float_tag is the
    tag put on heap-float handles, or None for the generic-pointer
    layout (type code in the cell header, handle tagged GENERIC_TAG).

    __post_init__ also sets transform_terms, tag_set and class_mask;
    dataclasses.replace derives them again, and ==, hash and repr ignore
    them, as they are not fields. tag_set is None where the variant is not
    self-tagging, class_mask there and under mantissa, and transform_terms
    there is a sentinel whose unpacking raises.
    """

    name: str
    variant: str
    tag: int = 0
    offset: int = 0
    heap_float_tag: int | None = None

    WORD_BITS, EXP_BITS, PREFIX_BITS, TAG_MASK = 64, 11, 5, 7  # the word's geometry

    def __post_init__(self):
        if self.variant not in ALL_VARIANTS:
            raise ValueError("unknown variant: %r" % (self.variant,))
        if not 0 <= self.tag <= 7:
            raise ValueError("tag out of [0, 7]: %r" % (self.tag,))
        if not 0 <= self.offset <= 7:
            raise ValueError("offset out of [0, 7]: %r" % (self.offset,))
        if self.heap_float_tag is not None and not 0 <= self.heap_float_tag <= 7:
            raise ValueError("heap float tag out of [0, 7]: %r" % (self.heap_float_tag,))
        if self.variant in SELF_TAG_VARIANTS:
            derive_constants(self, _transform_terms(self))
            mask = self.tag_set
            ht = handle_tag(self)
            if (mask >> ht) & 1:
                raise ValueError(
                    "heap handle tag %d collides with the self-tag set 0x%02x" % (ht, mask)
                )
        else:
            object.__setattr__(self, "transform_terms", _NoTransform(self.variant))
            object.__setattr__(self, "tag_set", None)
            object.__setattr__(self, "class_mask", None)


def _transform_terms(config):
    """(bias, r, offset): st_transform is rotl64(bits + bias, r) + offset.
    The one place a 64-bit variant's transform arithmetic is decided;
    _class_covered checks it independently."""
    v = config.variant
    if v == ONE_TAG:
        return (1 + 2 * config.tag) << 58, 5, 0
    if v == TWO_TAG_BIASED:
        return (2 * config.tag) << 58, 5, 0
    if v in ROT4_VARIANTS:
        return 0, 4, config.offset
    return 0, 0, 0  # MANTISSA


def _tag_set(config):
    # one rule for both word widths: the one-tag and biased two-tag sets
    # wrap within config.TAG_MASK; rot4 and mantissa are 64-bit only
    v = config.variant
    if v in ROT4_VARIANTS:
        return tag_set_mask((t + config.offset) % 8 for t in _ROT4_E3[v])
    if v == MANTISSA:
        return tag_set_mask((0, 4))
    t = config.tag
    if v == ONE_TAG:
        return tag_set_mask((t,))
    return tag_set_mask((t, (t - 1) & config.TAG_MASK))  # TWO_TAG_BIASED


def derive_constants(config, triple):
    """Store a self-tagging config's derived constants on it:
    transform_terms, the triple (bias, r, offset) with the shift and mask
    of the config's WORD_BITS added, (bias, r, offset, WORD_BITS - r,
    2**WORD_BITS - 1); tag_set; and class_mask (bit p set when prefix
    class p is kept immediate; None for mantissa). Called once from
    __post_init__ by SchemeConfig and the st32 variants; they are frozen,
    hence object.__setattr__."""
    put = object.__setattr__
    width = config.WORD_BITS
    put(config, "transform_terms", (*triple, width - triple[1], (1 << width) - 1))
    put(config, "tag_set", _tag_set(config))
    mask = None
    if config.variant != MANTISSA:
        classes = range(1 << config.PREFIX_BITS)
        mask = sum(1 << p for p in classes if _class_covered(config, p))
    put(config, "class_mask", mask)


def self_tag_set(config):
    """Membership mask of the tags that mark immediate floats (bit t for
    tag t), for a SchemeConfig or a 32-bit st32 variant."""
    mask = config.tag_set
    if mask is None:
        raise _not_self_tagging(config.variant)
    return mask


def handle_tag(config):
    """The low tag of a heap-float handle: heap_float_tag, or GENERIC_TAG
    for the generic-pointer layout."""
    return GENERIC_TAG if config.heap_float_tag is None else config.heap_float_tag


def fixnum_tag(config):
    """The low tag of fixnum words: None under NaN boxing (payload space),
    0 under NuN boxing, else the first tag free of the heap handles and of
    the self-tag set, which hold five tags at most between them."""
    if config.variant == NANBOX:
        return None
    if config.variant == NUNBOX:
        return 0
    used = 1 << handle_tag(config)
    if config.variant in SELF_TAG_VARIANTS:
        used |= self_tag_set(config)
    return next(t for t in range(8) if not (used >> t) & 1)


def st_transform(bits, config):
    """The unconditional invertible transform (no tag test) of a word of
    a SchemeConfig or a 32-bit st32 variant: rotl(bits + bias, r) + offset
    at the config's word width, over its transform_terms; zero terms are
    skipped. Its domain is bits in [0, 2**WORD_BITS): a word outside it is
    not checked and gives a wrong word, not an error."""
    bias, r, offset, back, m = config.transform_terms
    if r == 0:
        return bits
    if bias:
        bits = (bits + bias) & m
    w = ((bits << r) | (bits >> back)) & m
    return (w + offset) & m if offset else w


def st_untransform(w, config):
    """Exact inverse of st_transform over the config's full word space,
    for w in [0, 2**WORD_BITS); like st_transform, it does not check the
    range."""
    bias, r, offset, back, m = config.transform_terms
    if r == 0:
        return w
    if offset:
        w = (w - offset) & m
    bits = ((w >> r) | (w << back)) & m
    return (bits - bias) & m if bias else bits


def _not_prefix_shaped(config):
    return ValueError("coverage is not prefix-shaped for %r" % (config.variant,))


def _class_covered(config, p):
    # p is an exponent prefix of config.PREFIX_BITS bits; membership
    # depends only on p for the exponent-based variants (tag and offset
    # permute the low bits away). The rotation family is 64-bit only.
    v = config.variant
    if v in ROT4_VARIANTS:
        return p >> 2 in _ROT4_E3[v]
    t, m = config.tag, config.TAG_MASK
    if v == ONE_TAG:
        return ((p + 1 + 2 * t) >> 1) & m == t
    if v == TWO_TAG_BIASED:
        s = ((p + 2 * t) >> 1) & m
        return s == t or s == (t - 1) & m
    raise _not_prefix_shaped(config)


def covers(config, bits):
    """Independent immediate-representability predicate: inspects the
    designated exponent (or mantissa) bits only, never st_transform, so
    the two can be cross-checked against each other. For the exponent
    variants it is one test of the class_mask bit of the word's prefix."""
    mask = config.class_mask
    if mask is None:
        if config.variant != MANTISSA:
            raise _not_prefix_shaped(config)
        return bits & 3 == 0
    return (mask >> ((bits >> 58) & 0x1F)) & 1 == 1


def covered_prefix_classes(config):
    """The set of exponent prefixes (config.PREFIX_BITS bits) kept
    immediate."""
    mask = config.class_mask
    if mask is None:
        raise _not_prefix_shaped(config)
    return frozenset(p for p in range(1 << config.PREFIX_BITS) if (mask >> p) & 1)


def class_bounds(config):
    """The 2^P + 1 boundaries of the prefix classes of config's word
    (config is a variant or its class), ascending: class p holds the
    magnitudes in [b[p], b[p + 1]). Class 0 starts at zero and the last
    class runs into Inf/NaN; class p > 0 starts at 2^(p * 2^(E - P) - bias),
    E exponent bits, a P-bit prefix."""
    e, n = config.EXP_BITS, 1 << config.PREFIX_BITS
    step, bias = 1 << (e - config.PREFIX_BITS), (1 << (e - 1)) - 1
    return [0.0] + [2.0 ** (p * step - bias) for p in range(1, n)] + [math.inf]


@dataclass(frozen=True)
class CoverageInterval:
    lo: float
    hi: float
    includes_zero: bool
    includes_inf_nan: bool


def class_runs(classes, n):
    """Maximal runs [a, b] of consecutive members of classes among
    0..n-1, ascending."""
    runs = []
    for p in range(n):
        if p in classes:
            if runs and runs[-1][1] == p - 1:
                runs[-1][1] = p
            else:
                runs.append([p, p])
    return runs


def coverage_intervals(config):
    """Maximal disjoint magnitude ranges kept immediate, ascending.
    Adjacent covered prefix classes form one range; endpoints are the exact
    class boundaries of config's word (powers of two)."""
    b = class_bounds(config)
    n = len(b) - 1
    return [
        CoverageInterval(b[lo], b[hi + 1], lo == 0, hi == n - 1)
        for lo, hi in class_runs(covered_prefix_classes(config), n)
    ]


# ---- NaN boxing -------------------------------------------------------------
# Words <= NAN_CANON are floats; the non-float space above it carries a
# 3-bit tag in bits 50-48 and a 48-bit payload below.

NAN_CANON = 0xFFF8000000000000
NAN_PAYLOAD_MASK = (1 << 48) - 1


def nan_box_float(bits):
    """Identity below the reserved range; the negative-quiet-NaN range
    collapses to the canonical NaN."""
    return bits if bits < NAN_CANON else NAN_CANON


def nan_box_nonfloat(tag, payload):
    if not 0 <= tag <= 7:
        raise ValueError("tag out of [0, 7]: %r" % (tag,))
    if not 0 <= payload <= NAN_PAYLOAD_MASK:
        raise ValueError("payload out of 48 bits: %r" % (payload,))
    if tag == 0 and payload == 0:
        raise ValueError("(0, 0) is the canonical NaN, not an encodable value")
    return NAN_CANON | (tag << 48) | payload


# ---- NuN boxing -------------------------------------------------------------
# All float patterns are biased up by 2^48; non-floats keep their natural
# encodings in the two 16-bit-prefix ranges 0x0000... and 0xFFFF... .

NUN_BIAS = 0x0001000000000000
NUN_CANON_MIN = 0xFFFE000000000000


def nun_box_float(bits):
    # hardware never produces NaNs at or above NUN_CANON_MIN; software-made
    # ones are collapsed to the canonical NaN so the bias stays invertible
    if bits >= NUN_CANON_MIN:
        bits = NAN_CANON
    return (bits + NUN_BIAS) & M64


# ---- benchmark scheme presets ----------------------------------------------
# Tag assignments follow the config each variant is usually run with:
# heap floats as tagged pointers except under the four-tag variant, which
# spends all of its comfortable tags on floats and demotes heap floats to
# generic pointers.

PRESETS = {
    "boxed": SchemeConfig("boxed", BOXED, heap_float_tag=2),
    "nanbox": SchemeConfig("nanbox", NANBOX),
    "nunbox": SchemeConfig("nunbox", NUNBOX),
    "st1": SchemeConfig("st1", ONE_TAG, tag=1, heap_float_tag=2),
    "st2biased": SchemeConfig("st2biased", TWO_TAG_BIASED, tag=3, heap_float_tag=1),
    "st2zeros": SchemeConfig("st2zeros", TWO_TAG_ZEROS, offset=0, heap_float_tag=1),
    "st3": SchemeConfig("st3", THREE_TAG, offset=3, heap_float_tag=2),
    "st4": SchemeConfig("st4", FOUR_TAG, offset=3, heap_float_tag=None),
    "mantissa": SchemeConfig("mantissa", MANTISSA, heap_float_tag=2),
}

SELF_TAG_PRESETS = ("st1", "st2biased", "st2zeros", "st3", "st4", "mantissa")
EXPONENT_PRESETS = ("st1", "st2biased", "st2zeros", "st3", "st4")
