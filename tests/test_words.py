import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tagbench.runtime import Runtime
from tagbench.schemes import PRESETS
from tagbench.words import (
    FIXNUM_MAX,
    FIXNUM_MIN,
    M64,
    QNAN_64,
    bits_to_float,
    exponent_prefix5,
    float_to_bits,
    ieee_div,
    rotl32,
    rotl64,
    rotr32,
    rotr64,
    tag_set_mask,
)

from _frozen import ONE_BITS, PI_BITS, ST_EXAMPLES

u64 = st.integers(min_value=0, max_value=M64)
u32 = st.integers(min_value=0, max_value=(1 << 32) - 1)


def test_rotl64_known_words():
    assert rotl64(ONE_BITS, 4) == ST_EXAMPLES["rot4_one"]
    assert rotl64(PI_BITS, 4) == ST_EXAMPLES["rot4_pi"]
    assert rotl64(0, 17) == 0
    assert rotl64(M64, 33) == M64


@given(u64, st.integers(min_value=0, max_value=63))
def test_rot64_inverse(w, s):
    assert rotr64(rotl64(w, s), s) == w
    assert rotl64(rotr64(w, s), s) == w


@given(u32, st.integers(min_value=0, max_value=31))
def test_rot32_inverse(w, s):
    assert rotr32(rotl32(w, s), s) == w
    assert rotl32(rotr32(w, s), s) == w


def test_rot_rejects_bad_shift():
    with pytest.raises(ValueError):
        rotl64(1, 64)
    with pytest.raises(ValueError):
        rotr32(1, 32)


@given(st.floats(allow_nan=False))
def test_float_bits_roundtrip(x):
    b = float_to_bits(x)
    assert 0 <= b <= M64
    y = bits_to_float(b)
    assert y == x
    assert math.copysign(1.0, y) == math.copysign(1.0, x)


def test_float_bits_specials():
    assert float_to_bits(0.0) == 0
    assert float_to_bits(-0.0) == 1 << 63
    assert float_to_bits(1.0) == ONE_BITS
    assert math.isnan(bits_to_float(QNAN_64))


@given(u64)
def test_bits_float_bits_roundtrip_nonnan(b):
    x = bits_to_float(b)
    if not math.isnan(x):
        assert float_to_bits(x) == b


def test_exponent_prefix5_classes():
    assert exponent_prefix5(float_to_bits(1.0)) == 15
    assert exponent_prefix5(float_to_bits(2.0)) == 16
    assert exponent_prefix5(float_to_bits(-1.0)) == 15  # sign ignored
    assert exponent_prefix5(0) == 0
    assert exponent_prefix5(float_to_bits(float("inf"))) == 31
    assert exponent_prefix5(QNAN_64) == 31


def test_tag_helpers():
    m = tag_set_mask({0, 3, 4})
    assert m == (1 << 0) | (1 << 3) | (1 << 4)
    with pytest.raises(ValueError):
        tag_set_mask({8})


# runtimes of the presets whose fixnum tag is 000; the frozen fixnum words
# are their layout
TAG0_RUNTIMES = {name: Runtime(PRESETS[name]) for name in ("st1", "st3", "boxed", "nunbox")}


def test_fixnum_known_words():
    for name, rt in TAG0_RUNTIMES.items():
        assert rt.fixnum_tag == 0, name
        assert rt.box_fixnum(5) == ST_EXAMPLES["fixnum_enc_5"], name
        assert rt.box_fixnum(-1) == ST_EXAMPLES["fixnum_enc_neg1"], name
        assert rt.unbox_fixnum(ST_EXAMPLES["fixnum_enc_5"]) == 5, name
        assert rt.unbox_fixnum(ST_EXAMPLES["fixnum_enc_neg1"]) == -1, name


@given(st.integers(min_value=FIXNUM_MIN, max_value=FIXNUM_MAX))
def test_fixnum_roundtrip(v):
    # FIXNUM_MIN .. FIXNUM_MAX is the range a 000-tagged fixnum word holds
    rt = TAG0_RUNTIMES["st1"]
    w = rt.box_fixnum(v)
    assert 0 <= w <= M64
    assert w & 7 == 0
    assert rt.unbox_fixnum(w) == v


def test_ieee_div_zero_denominator():
    assert ieee_div(1.0, 0.0) == float("inf")
    assert ieee_div(-1.0, 0.0) == float("-inf")
    assert ieee_div(1.0, -0.0) == float("-inf")
    assert ieee_div(-1.0, -0.0) == float("inf")
    assert math.isnan(ieee_div(0.0, 0.0))
    assert math.isnan(ieee_div(float("nan"), 0.0))


@given(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda y: y != 0.0),
)
def test_ieee_div_matches_python_for_nonzero(x, y):
    assert ieee_div(x, y) == x / y or (
        math.isnan(ieee_div(x, y)) and math.isnan(x / y)
    )
