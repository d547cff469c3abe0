"""Float encoding schemes over 64-bit words.

Three families:
  * heap boxing (every float lives in a heap cell),
  * NaN boxing and its biased cousin (floats stay immediate, non-floats
    occupy reserved NaN / prefix ranges),
  * self-tagging (an invertible word transform moves selected exponent
    prefixes onto designated low-bit tags, making those floats immediate).

The transforms are total bijections on the 2^64 pattern space; which
floats end up inside the tag set depends only on a handful of exponent
bits (or the low mantissa bits, for the mantissa variant), so coverage is
also exposed analytically as prefix-class intervals."""

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

@dataclass(frozen=True)
class SchemeConfig:
    """One encoding scheme plus its parameters.

    tag is the primary tag for the one-tag and biased two-tag variants;
    offset shifts the rotation family's tag set; heap_float_tag is the
    tag put on heap-float handles, or None for the generic-pointer
    layout (type code in the cell header, handle tagged GENERIC_TAG).
    """

    name: str
    variant: str
    tag: int = 0
    offset: int = 0
    heap_float_tag: int | None = None

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
            mask = self_tag_set(self)
            ht = handle_tag(self)
            if (mask >> ht) & 1:
                raise ValueError(
                    "heap handle tag %d collides with the self-tag set 0x%02x" % (ht, mask)
                )


def self_tag_set(config):
    """8-bit membership mask of the tags that mark immediate floats."""
    v = config.variant
    if v in ROT4_VARIANTS:
        return tag_set_mask((t + config.offset) % 8 for t in _ROT4_E3[v])
    if v == ONE_TAG:
        return tag_set_mask((config.tag,))
    if v == TWO_TAG_BIASED:
        return tag_set_mask((config.tag, (config.tag - 1) % 8))
    if v == MANTISSA:
        return tag_set_mask((0, 4))
    raise ValueError("not a self-tagging variant: %r" % (v,))


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


# st_transform and st_untransform write their fixed rotations out, as
# words.rotl64/rotr64 compute them, to save the calls and the shift check
# on the fuzz path.


def st_transform(bits, config):
    """The unconditional invertible transform (no tag test)."""
    v = config.variant
    if v in ROT4_VARIANTS:
        # rotl64(bits, 4) + offset
        return ((((bits << 4) | (bits >> 60)) & M64) + config.offset) & M64
    if v == ONE_TAG:
        s = (bits + ((1 + 2 * config.tag) << 58)) & M64
    elif v == TWO_TAG_BIASED:
        s = (bits + ((2 * config.tag) << 58)) & M64
    elif v == MANTISSA:
        return bits
    else:
        raise ValueError("not a self-tagging variant: %r" % (v,))
    return ((s << 5) | (s >> 59)) & M64  # rotl64(s, 5)


def st_untransform(w, config):
    """Exact inverse of st_transform over the full 64-bit space."""
    v = config.variant
    if v in ROT4_VARIANTS:
        r = (w - config.offset) & M64
        return ((r >> 4) | (r << 60)) & M64  # rotr64(r, 4)
    if v == ONE_TAG:
        bias = (1 + 2 * config.tag) << 58
    elif v == TWO_TAG_BIASED:
        bias = (2 * config.tag) << 58
    elif v == MANTISSA:
        return w
    else:
        raise ValueError("not a self-tagging variant: %r" % (v,))
    return ((((w >> 5) | (w << 59)) & M64) - bias) & M64  # rotr64(w, 5) - bias


def _class_covered(config, p):
    # p is a 5-bit exponent prefix; membership depends only on p for the
    # exponent-based variants (tag and offset permute the low bits away)
    v = config.variant
    if v in ROT4_VARIANTS:
        return p >> 2 in _ROT4_E3[v]
    if v == ONE_TAG:
        return ((p + 1 + 2 * config.tag) >> 1) & 7 == config.tag
    if v == TWO_TAG_BIASED:
        m = ((p + 2 * config.tag) >> 1) & 7
        return m == config.tag or m == (config.tag - 1) % 8
    raise ValueError("coverage is not prefix-shaped for %r" % (v,))


def covers(config, bits):
    """Independent immediate-representability predicate: inspects the
    designated exponent (or mantissa) bits only, never st_transform, so
    the two can be cross-checked against each other."""
    if config.variant == MANTISSA:
        return bits & 3 == 0
    return _class_covered(config, (bits >> 58) & 0x1F)  # exponent_prefix5(bits)


def covered_prefix_classes(config):
    """The set of 5-bit exponent prefixes kept immediate."""
    return frozenset(p for p in range(32) if _class_covered(config, p))


def class_lo(p):
    """Smallest magnitude in prefix class p (class 0 starts at zero)."""
    return 0.0 if p == 0 else 2.0 ** (64 * p - 1023)


def class_hi(p):
    """Exclusive upper bound of class p; class 31 runs into Inf/NaN."""
    return math.inf if p == 31 else 2.0 ** (64 * (p + 1) - 1023)


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
    binary64 class boundaries (powers of two)."""
    return [
        CoverageInterval(class_lo(a), class_hi(b), a == 0, b == 31)
        for a, b in class_runs(covered_prefix_classes(config), 32)
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
