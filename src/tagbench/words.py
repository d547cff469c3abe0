"""Word primitives: 64- and 32-bit word masks, tag-set masks, the range
of a 3-bit-tagged fixnum, and IEEE754 binary64 bit conversion and
division. Everything here is total over the full pattern space and pure."""

import struct

M64 = (1 << 64) - 1
M32 = (1 << 32) - 1

SIGN_64 = 1 << 63                  # also the -0.0 word
QNAN_64 = 0x7FF8000000000000       # canonical quiet NaN

FIXNUM_MIN = -(1 << 60)
FIXNUM_MAX = (1 << 60) - 1

_D = struct.Struct("<d")
_Q = struct.Struct("<Q")


def float_to_bits(x):
    return _Q.unpack(_D.pack(x))[0]


def bits_to_float(w):
    return _D.unpack(_Q.pack(w))[0]


def tag_set_mask(tags):
    """Pack an iterable of 3-bit tags into an 8-bit membership mask."""
    m = 0
    for t in tags:
        if not 0 <= t <= 7:
            raise ValueError("tag out of [0, 7]: %r" % (t,))
        m |= 1 << t
    return m


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
