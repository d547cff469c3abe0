"""Word primitives: 64- and 32-bit rotations, tag-set masks, the range of
a 3-bit-tagged fixnum, and IEEE754 binary64 bit conversion and division.
Everything here is total over the full pattern space and pure."""

import struct

M64 = (1 << 64) - 1
M32 = (1 << 32) - 1

SIGN_64 = 1 << 63
QNAN_64 = 0x7FF8000000000000       # canonical quiet NaN
NEG_ZERO_BITS = 0x8000000000000000  # -0.0

FIXNUM_MIN = -(1 << 60)
FIXNUM_MAX = (1 << 60) - 1

_D = struct.Struct("<d")
_Q = struct.Struct("<Q")


def float_to_bits(x):
    return _Q.unpack(_D.pack(x))[0]


def bits_to_float(w):
    return _D.unpack(_Q.pack(w))[0]


def _check_rot(s):
    if not 0 <= s <= 63:
        raise ValueError("rotation amount out of [0, 63]: %r" % (s,))


def rotl64(w, s):
    _check_rot(s)
    return ((w << s) | (w >> (64 - s))) & M64 if s else w


def rotr64(w, s):
    _check_rot(s)
    return ((w >> s) | (w << (64 - s))) & M64 if s else w


def rotl32(w, s):
    if not 0 <= s <= 31:
        raise ValueError("rotation amount out of [0, 31]: %r" % (s,))
    return ((w << s) | (w >> (32 - s))) & M32 if s else w


def rotr32(w, s):
    if not 0 <= s <= 31:
        raise ValueError("rotation amount out of [0, 31]: %r" % (s,))
    return ((w >> s) | (w << (32 - s))) & M32 if s else w


def tag_set_mask(tags):
    """Pack an iterable of 3-bit tags into an 8-bit membership mask."""
    m = 0
    for t in tags:
        if not 0 <= t <= 7:
            raise ValueError("tag out of [0, 7]: %r" % (t,))
        m |= 1 << t
    return m


def exponent_prefix5(bits):
    """Top 5 bits of the binary64 exponent (bits 62-58); sign ignored."""
    return (bits >> 58) & 0x1F


def ieee_div(x, y):
    """Division with IEEE754 semantics on host floats. Python raises
    ZeroDivisionError for y == +-0.0; IEEE wants signed infinity (or a
    quiet NaN for 0/0 and NaN/0)."""
    if y != 0.0:
        return x / y
    if x != x or x == 0.0:
        return bits_to_float(QNAN_64)
    neg = (float_to_bits(x) ^ float_to_bits(y)) >> 63
    return float("-inf") if neg else float("inf")
