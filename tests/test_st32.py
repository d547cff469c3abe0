import math
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tagbench.schemes import (
    PRESETS,
    class_bounds,
    coverage_intervals,
    covered_prefix_classes,
    self_tag_set,
)
from tagbench.st32 import (
    OneTag,
    TwoTag,
    st32_covers,
    st32_tag_set,
    st32_transform,
    st32_untransform,
)
from tagbench.words import M32

from _frozen import COVERED_32, INTERVALS_32

u32 = st.integers(min_value=0, max_value=M32)

ALL_VARIANTS_32 = [OneTag(t) for t in range(4)] + [TwoTag(t) for t in range(4)]
KEYED_VARIANTS_32 = [(v, "one" if isinstance(v, OneTag) else "two") for v in ALL_VARIANTS_32]


def bits32(x):
    # the binary32 pattern nearest the host double
    return struct.unpack("<I", struct.pack("<f", x))[0]


def test_variant_validation():
    with pytest.raises(ValueError, match="out of"):
        OneTag(4)
    with pytest.raises(ValueError, match="out of"):
        TwoTag(-1)


def test_tag_sets():
    assert st32_tag_set(OneTag(0)) == frozenset({0})
    assert st32_tag_set(OneTag(3)) == frozenset({3})
    assert st32_tag_set(TwoTag(0)) == frozenset({0, 3})
    assert st32_tag_set(TwoTag(2)) == frozenset({2, 1})
    for v in ALL_VARIANTS_32:
        # one tag-set rule for both word widths: the 32-bit set is the
        # bits of the mask schemes.self_tag_set reads
        tags = st32_tag_set(v)
        assert type(tags) is frozenset
        assert tags == {t for t in range(8) if (self_tag_set(v) >> t) & 1}, v
    for other in (PRESETS["st1"], PRESETS["st2biased"], None):
        with pytest.raises(TypeError, match="not a 32-bit variant"):
            st32_tag_set(other)


@given(u32)
def test_bijectivity(w):
    for v in ALL_VARIANTS_32:
        assert st32_untransform(st32_transform(w, v), v) == w
        assert st32_transform(st32_untransform(w, v), v) == w


def test_known_transform():
    assert st32_transform(0x3F800000, OneTag(0)) == 0x78000004


def test_covered_classes_match_expected():
    assert covered_prefix_classes(OneTag(0)) == COVERED_32["one"]
    assert covered_prefix_classes(TwoTag(0)) == COVERED_32["two"]


def test_covered_classes_parameter_invariant():
    # the shared transform-free class predicate against st32_covers, the
    # transform's own tag test, on each class's representative
    for v, key in KEYED_VARIANTS_32:
        covered = covered_prefix_classes(v)
        assert covered == COVERED_32[key], v
        assert covered == {p for p in range(16) if st32_covers(p << 27, v)}, v


@given(u32)
def test_covers_is_prefix_class_membership(w):
    for v, key in KEYED_VARIANTS_32:
        assert st32_covers(w, v) == (((w >> 27) & 15) in COVERED_32[key]), v


@given(u32)
def test_covers_agrees_with_transform_tag(w):
    for v in ALL_VARIANTS_32:
        assert st32_covers(w, v) == (st32_transform(w, v) & 3 in st32_tag_set(v))


def test_coverage_intervals_exact():
    for v, key in ((OneTag(0), "one"), (TwoTag(0), "two")):
        got = coverage_intervals(v)
        assert [(iv.lo, iv.hi) for iv in got] == INTERVALS_32[key]
        assert got[0].includes_zero
        assert got[-1].includes_inf_nan
        assert math.isinf(got[-1].hi)


def test_class_bounds():
    bounds = class_bounds(OneTag(0))
    assert len(bounds) == 17
    assert bounds[0] == 0.0
    assert bounds[8] == 2.0
    assert bounds[9] == 131072.0
    assert math.isinf(bounds[16])
    assert bits32(2.0) >> 27 == 8
    assert bits32(1.0) >> 27 == 7


def test_coverage_spans_are_sound():
    for v in ALL_VARIANTS_32:
        for iv in coverage_intervals(v):
            lo = iv.lo if iv.lo else 0.0
            assert st32_covers(bits32(lo), v)
            if math.isinf(iv.hi):
                assert st32_covers(0x7F800000, v)  # +Inf
            else:
                assert not st32_covers(bits32(iv.hi), v)


@pytest.mark.offline
@pytest.mark.parametrize("variant", [OneTag(0), TwoTag(0)], ids=["one", "two"])
def test_exhaustive_roundtrip_all_4g_words(variant):
    # deselected by default (pytest -m offline to run); sweeps the whole
    # 2^32 space in numpy blocks
    import time

    from tagbench.batch import st32_exhaustive_mismatches

    t0 = time.perf_counter()
    assert st32_exhaustive_mismatches(variant) == 0
    assert time.perf_counter() - t0 < 300.0
