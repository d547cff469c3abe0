import dataclasses
import hashlib
import math
from functools import cached_property
from itertools import islice

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tagbench.batch import st_transform_block, st_untransform_block
from tagbench.prng import splitmix64
from tagbench.runtime import Runtime
from tagbench.schemes import (
    EXPONENT_PRESETS,
    MANTISSA,
    NAN_CANON,
    NAN_PAYLOAD_MASK,
    NUN_BIAS,
    NUN_CANON_MIN,
    ONE_TAG,
    PRESETS,
    ROT4_VARIANTS,
    SELF_TAG_PRESETS,
    SELF_TAG_VARIANTS,
    THREE_TAG,
    TWO_TAG_BIASED,
    CoverageInterval,
    SchemeConfig,
    _class_covered,
    coverage_intervals,
    covered_prefix_classes,
    covers,
    nan_box_float,
    nan_box_nonfloat,
    nun_box_float,
    self_tag_set,
    st_transform,
    st_untransform,
)
from tagbench.st32 import OneTag, TwoTag, st32_transform
from tagbench.words import M64, QNAN_64, float_to_bits

from _frozen import COVERED_64, INTERVALS_64, ONE_BITS, PI_BITS, ST_EXAMPLES, TRANSFORM_WORDS_SHA256
from _words import boundary_words32, boundary_words64
from test_runtime import valid_configs

u64 = st.integers(min_value=0, max_value=M64)

ST3_OFF0 = SchemeConfig("st3o0", THREE_TAG, offset=0, heap_float_tag=2)
ST1_TAG0 = SchemeConfig("st1t0", ONE_TAG, tag=0, heap_float_tag=2)


def test_transform_known_words():
    assert st_transform(ONE_BITS, ST3_OFF0) == ST_EXAMPLES["rot4_one"]
    assert st_transform(PI_BITS, ST3_OFF0) == ST_EXAMPLES["rot4_pi"]
    assert st_transform(0, ST3_OFF0) == ST_EXAMPLES["st3_off0_zero"]
    assert st_transform(float_to_bits(2.0), ST3_OFF0) == ST_EXAMPLES["st3_off0_two"]
    assert st_transform(ONE_BITS, ST1_TAG0) == ST_EXAMPLES["st1_tag0_one"]
    assert st_untransform(ST_EXAMPLES["st1_tag0_one"], ST1_TAG0) == ONE_BITS


# every tag/offset parameter choice, each with a heap handle tag picked
# outside its immediate-tag set so the config validates
_ROT4_BASES = {"two_tag_zeros": (3, 4), "three_tag": (0, 3, 4), "four_tag": (0, 3, 4, 7)}


def _free_tag(tags):
    return min(t for t in range(8) if t not in tags)


def _all_param_configs():
    out = []
    for variant in sorted(ROT4_VARIANTS):
        for off in range(8):
            tags = {(t + off) % 8 for t in _ROT4_BASES[variant]}
            out.append(
                SchemeConfig("r%d" % off, variant, offset=off, heap_float_tag=_free_tag(tags))
            )
    for tag in range(8):
        out.append(SchemeConfig("t%d" % tag, ONE_TAG, tag=tag, heap_float_tag=_free_tag({tag})))
        out.append(
            SchemeConfig(
                "t%d" % tag,
                TWO_TAG_BIASED,
                tag=tag,
                heap_float_tag=_free_tag({tag, (tag - 1) % 8}),
            )
        )
    return out


PARAM_CONFIGS = _all_param_configs()


def test_transformed_words_are_pinned():
    # every bias, rotation and offset, by its exact words: a wrong term
    # still inverts, so bijectivity alone would not catch it
    h = hashlib.sha256()
    words64 = [int(w) for w in boundary_words64()] + list(islice(splitmix64(1), 64))
    for cfg in [*PARAM_CONFIGS, PRESETS["mantissa"]]:
        h.update(b"".join(st_transform(w, cfg).to_bytes(8, "little") for w in words64))
    words32 = [int(w) for w in boundary_words32()]
    for v in [*map(OneTag, range(4)), *map(TwoTag, range(4))]:
        h.update(b"".join(st32_transform(w, v).to_bytes(4, "little") for w in words32))
    assert h.hexdigest() == TRANSFORM_WORDS_SHA256


def test_transform_needs_a_self_tagging_variant():
    for name in ("boxed", "nanbox", "nunbox"):
        with pytest.raises(ValueError, match="not a self-tagging variant"):
            st_transform(0, PRESETS[name])
        with pytest.raises(ValueError, match="not a self-tagging variant"):
            st_untransform(0, PRESETS[name])


@given(u64)
def test_bijectivity_all_presets(w):
    for name in SELF_TAG_PRESETS:
        cfg = PRESETS[name]
        assert st_untransform(st_transform(w, cfg), cfg) == w
        assert st_transform(st_untransform(w, cfg), cfg) == w


@given(u64)
def test_bijectivity_all_parameters(w):
    for cfg in PARAM_CONFIGS:
        assert st_untransform(st_transform(w, cfg), cfg) == w


def test_covered_classes_match_expected():
    for name, classes in COVERED_64.items():
        assert covered_prefix_classes(PRESETS[name]) == classes, name


def test_covered_classes_parameter_invariant():
    # offset choices permute which low-bit patterns mark floats, but
    # never which exponent classes are kept immediate
    for variant in sorted(ROT4_VARIANTS):
        rot4 = [c for c in PARAM_CONFIGS if c.variant == variant]
        assert len(rot4) == 8
        classes = {covered_prefix_classes(c) for c in rot4}
        assert len(classes) == 1, variant


def test_class_mask_matches_class_covered_over_every_config():
    # the stored mask bit by bit against the predicate it is built from,
    # and against the transform's own tag on each class representative
    exponent = [c for c in valid_configs() if c.variant in SELF_TAG_VARIANTS - {MANTISSA}]
    assert len(exponent) == 2016
    for cfg in exponent:
        for p in range(32):
            bit = (cfg.class_mask >> p) & 1 == 1
            assert bit == _class_covered(cfg, p), (cfg, p)
            assert bit == tag_in_set(st_transform(p << 58, cfg), cfg), (cfg, p)
    for v in [*map(OneTag, range(4)), *map(TwoTag, range(4))]:
        for p in range(16):
            bit = (v.class_mask >> p) & 1 == 1
            assert bit == _class_covered(v, p), (v, p)
            assert bit == (self_tag_set(v) >> (st32_transform(p << 27, v) & 3)) & 1, (v, p)


def test_derived_constants_follow_the_fields_only():
    # dataclasses.replace derives again: a config moved onto another's
    # fields carries that config's values, which differ from its own
    derived = ("transform_terms", "tag_set", "class_mask")
    firsts = {}
    for cfg in PARAM_CONFIGS:
        first = firsts.setdefault(cfg.variant, cfg)
        moved = dataclasses.replace(
            first, tag=cfg.tag, offset=cfg.offset, heap_float_tag=cfg.heap_float_tag
        )
        for name in derived:
            assert getattr(moved, name) == getattr(cfg, name), (cfg, name)
    for t in range(4):
        for moved, fresh in (
            (dataclasses.replace(OneTag(0), tag=t), OneTag(t)),
            (dataclasses.replace(TwoTag(0), tag1=t), TwoTag(t)),
        ):
            for name in derived:
                assert getattr(moved, name) == getattr(fresh, name), (fresh, name)
    # equality, hashing and repr see the fields alone
    st1 = PRESETS["st1"]
    twin = dataclasses.replace(st1)
    for name in derived:
        object.__setattr__(twin, name, None)
    assert twin == st1 and hash(twin) == hash(st1) and repr(twin) == repr(st1)
    assert [f.name for f in dataclasses.fields(st1)] == [
        "name", "variant", "tag", "offset", "heap_float_tag"
    ]
    assert repr(OneTag(1)) == "OneTag(tag=1)" and repr(TwoTag(2)) == "TwoTag(tag1=2)"
    for cls in (SchemeConfig, OneTag, TwoTag):
        assert not any(isinstance(a, cached_property) for a in vars(cls).values()), cls


@pytest.mark.parametrize("name", ["boxed", "nanbox", "nunbox"])
def test_non_self_tagging_configs_keep_their_errors(name):
    cfg = PRESETS[name]
    with pytest.raises(ValueError, match="coverage is not prefix-shaped for %r" % cfg.variant):
        covers(cfg, ONE_BITS)
    with pytest.raises(ValueError, match="coverage is not prefix-shaped"):
        covered_prefix_classes(cfg)
    # the transform_terms sentinel raises where the terms are used: when
    # unpacked, by the scalar pair and by the vector mirrors
    words = np.arange(4, dtype=np.uint64)
    for use in (
        lambda: tuple(cfg.transform_terms),
        lambda: st_transform(ONE_BITS, cfg),
        lambda: st_untransform(ONE_BITS, cfg),
        lambda: st_transform_block(words, cfg),
        lambda: st_untransform_block(words, cfg),
    ):
        with pytest.raises(ValueError, match="not a self-tagging variant: %r" % cfg.variant):
            use()
    with pytest.raises(ValueError, match="not a self-tagging variant"):
        self_tag_set(cfg)


def test_covers_returns_a_bool():
    words = [int(w) for w in boundary_words64()] + list(islice(splitmix64(5), 64))
    for name in SELF_TAG_PRESETS:
        cfg = PRESETS[name]
        assert all(type(covers(cfg, b)) is bool for b in words), name


def test_mask_sizes():
    assert bin(self_tag_set(PRESETS["st1"])).count("1") == 1
    assert bin(self_tag_set(PRESETS["st2biased"])).count("1") == 2
    assert bin(self_tag_set(PRESETS["st2zeros"])).count("1") == 2
    assert bin(self_tag_set(PRESETS["st3"])).count("1") == 3
    assert bin(self_tag_set(PRESETS["st4"])).count("1") == 4
    assert bin(self_tag_set(PRESETS["mantissa"])).count("1") == 2


def tag_in_set(w, cfg):
    return (self_tag_set(cfg) >> (w & 7)) & 1 == 1


@given(u64)
def test_covers_agrees_with_encode(b):
    for name in SELF_TAG_PRESETS:
        cfg = PRESETS[name]
        assert covers(cfg, b) == tag_in_set(st_transform(b, cfg), cfg), name


@given(u64)
def test_covers_ignores_sign(b):
    for name in EXPONENT_PRESETS:
        cfg = PRESETS[name]
        assert covers(cfg, b) == covers(cfg, b ^ (1 << 63)), name


def test_zeros_not_covered_by_two_tag_zeros():
    cfg = PRESETS["st2zeros"]
    assert not covers(cfg, 0)
    assert not covers(cfg, 1 << 63)
    assert not tag_in_set(st_transform(0, cfg), cfg)
    assert not tag_in_set(st_transform(1 << 63, cfg), cfg)


def test_coverage_intervals_exact():
    for name, expect in INTERVALS_64.items():
        got = coverage_intervals(PRESETS[name])
        assert [(iv.lo, iv.hi) for iv in got] == expect, name
        assert got[0].includes_zero == (expect[0][0] == 0.0)
        assert got[-1].includes_inf_nan == math.isinf(expect[-1][1])


def test_coverage_intervals_sound():
    for name in EXPONENT_PRESETS:
        cfg = PRESETS[name]
        for iv in coverage_intervals(cfg):
            lo_probe = 0.0 if iv.includes_zero else iv.lo
            assert covers(cfg, float_to_bits(lo_probe)), (name, iv)
            if iv.lo > 0.0:
                below = math.nextafter(iv.lo, 0.0)
                assert not covers(cfg, float_to_bits(below)), (name, iv)
            if math.isinf(iv.hi):
                assert covers(cfg, float_to_bits(math.inf))
                assert covers(cfg, QNAN_64)
            else:
                inside = math.nextafter(iv.hi, 0.0)
                assert covers(cfg, float_to_bits(inside)), (name, iv)
                assert not covers(cfg, float_to_bits(iv.hi)), (name, iv)


def test_interval_request_rejected_for_mantissa():
    with pytest.raises(ValueError, match="not prefix-shaped"):
        covered_prefix_classes(PRESETS["mantissa"])
    with pytest.raises(ValueError, match="not prefix-shaped"):
        coverage_intervals(PRESETS["mantissa"])


def test_mantissa_covers_rule():
    cfg = PRESETS["mantissa"]
    assert covers(cfg, float_to_bits(1.0))
    assert covers(cfg, 0)
    assert not covers(cfg, float_to_bits(1.0) | 1)
    assert st_transform(0x1234, cfg) == 0x1234  # identity transform


def test_config_validation():
    with pytest.raises(ValueError, match="unknown variant"):
        SchemeConfig("x", "half_tag")
    with pytest.raises(ValueError, match="tag out of"):
        SchemeConfig("x", ONE_TAG, tag=8)
    with pytest.raises(ValueError, match="heap float tag out of"):
        SchemeConfig("x", ONE_TAG, heap_float_tag=8)
    with pytest.raises(ValueError, match="collides"):
        # st1 with tag 1 marks immediates with tag 1; a heap handle tag
        # of 1 would be indistinguishable
        SchemeConfig("x", ONE_TAG, tag=1, heap_float_tag=1)


# ---- NaN boxing ----

def nan_parts(w):
    # the payload tag in bits 50-48 and the 48-bit payload below it
    return (w >> 48) & 7, w & NAN_PAYLOAD_MASK


def test_nan_box_known_words():
    w = ST_EXAMPLES["nan_nonfloat_2_0x1000"]
    assert nan_box_nonfloat(2, 0x1000) == w
    assert nan_parts(w) == (2, 0x1000)


@given(u64)
def test_nan_float_space(b):
    rt = Runtime(PRESETS["nanbox"])
    w = nan_box_float(b)
    assert rt.is_float_value(w)
    assert rt.unbox_float(w) == w
    if b <= NAN_CANON:
        assert w == b  # identity on the real float space
    else:
        assert w == NAN_CANON  # reserved range collapses


@given(
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=NAN_PAYLOAD_MASK),
)
def test_nan_nonfloat_roundtrip(tag, payload):
    if tag == 0 and payload == 0:
        with pytest.raises(ValueError):
            nan_box_nonfloat(tag, payload)
        return
    w = nan_box_nonfloat(tag, payload)
    assert not Runtime(PRESETS["nanbox"]).is_float_value(w)
    assert nan_parts(w) == (tag, payload)


# ---- NuN boxing ----

def test_nun_known_words():
    assert nun_box_float(ONE_BITS) == ST_EXAMPLES["nun_one"]
    assert nun_box_float(ST_EXAMPLES["nun_canon_in"]) == ST_EXAMPLES["nun_canon_out"]


@given(u64)
def test_nun_roundtrip(b):
    rt = Runtime(PRESETS["nunbox"])
    w = nun_box_float(b)
    assert rt.is_float_value(w)
    if b < NUN_CANON_MIN:
        assert w == (b + NUN_BIAS) & M64
        assert rt.unbox_float(w) == b
    else:
        assert rt.unbox_float(w) == NAN_CANON


@given(u64)
def test_nun_is_float_is_prefix_test(w):
    assert Runtime(PRESETS["nunbox"]).is_float_value(w) == (w >> 48 not in (0x0000, 0xFFFF))


def test_interval_type():
    iv = coverage_intervals(PRESETS["st3"])[0]
    assert isinstance(iv, CoverageInterval)
    assert covers(PRESETS["mantissa"], 4) is True
    assert (float_to_bits(2.0) >> 58) & 31 == 16
