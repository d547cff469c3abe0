import gc
import math
import operator
import sys
from itertools import islice

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tagbench.heap import HeapStats, SimHeap
from tagbench.prng import splitmix64
from tagbench.runtime import (
    MEMO_BOUND,
    NAN_FIXNUM_MAX,
    NAN_FIXNUM_MIN,
    NAN_FIXNUM_TAG,
    NUN_FIXNUM_MAX,
    NUN_FIXNUM_MIN,
    Runtime,
    _builder,
)
from tagbench.schemes import (
    ALL_VARIANTS,
    BOXED,
    EXPONENT_PRESETS,
    GENERIC_TAG,
    MANTISSA,
    NAN_CANON,
    NAN_PAYLOAD_MASK,
    NANBOX,
    NUN_CANON_MIN,
    NUNBOX,
    ONE_TAG,
    PRESETS,
    SELF_TAG_PRESETS,
    SELF_TAG_VARIANTS,
    TWO_TAG_ZEROS,
    SchemeConfig,
    covers,
    fixnum_tag,
    handle_tag,
    nan_box_float,
    nan_box_nonfloat,
    nun_box_float,
    self_tag_set,
    st_transform,
)
from tagbench.words import (
    FIXNUM_MAX,
    FIXNUM_MIN,
    M64,
    QNAN_64,
    SIGN_64,
    bits_to_float,
    float_to_bits,
    ieee_div,
)

from _words import boundary_words64

ALL = tuple(PRESETS)
# the presets whose runtime keeps a decode memo
MEMO_PRESETS = (*EXPONENT_PRESETS, "nanbox", "nunbox")

ONE = float_to_bits(1.0)
HALF15 = float_to_bits(1.5)
TINY = float_to_bits(1e-100)  # class 10: missed by every exponent preset
BIG = float_to_bits(1e300)    # class 31: missed by st3 and st2zeros only
# heap-bound under boxed, mantissa and every exponent preset, as are their
# sum and product
HEAP_A = float_to_bits(7e-101)
HEAP_B = float_to_bits(2.9e-100)


def fresh(name, **kw):
    return Runtime(PRESETS[name], SimHeap(), **kw)


def expected_unbox(name, bits):
    # name is a preset name, or a variant: nanbox and nunbox name both
    if name == "nanbox":
        return bits if bits <= NAN_CANON else NAN_CANON
    if name == "nunbox":
        return bits if bits < NUN_CANON_MIN else NAN_CANON
    return bits


@pytest.mark.parametrize("name", ALL)
def test_roundtrip_random_words(name):
    rt = fresh(name)
    box, unbox = rt.box_float, rt.unbox_float
    for bits in islice(splitmix64(99), 50000):
        assert unbox(box(bits)) == expected_unbox(name, bits)


@pytest.mark.parametrize("name", ALL)
def test_roundtrip_boundary_words(name):
    rt = fresh(name)
    canon_edges = [NAN_CANON - 1, NAN_CANON, NAN_CANON + 1, NUN_CANON_MIN - 1, NUN_CANON_MIN]
    for bits in [*boundary_words64(), *canon_edges]:
        bits = int(bits)
        assert rt.unbox_float(rt.box_float(bits)) == expected_unbox(name, bits)


@pytest.mark.parametrize("name", SELF_TAG_PRESETS)
def test_allocation_follows_coverage(name):
    rt = fresh(name)
    cfg = PRESETS[name]
    rt.reset_kernel_counters()
    allocs = 0
    for bits in islice(splitmix64(7), 2000):
        rt.box_float(bits)
        if not covers(cfg, bits) and not (
            name == "st2zeros" and bits in (0, SIGN_64)
        ):
            allocs += 1
        assert rt.stats().float_allocs == allocs


def test_boxed_always_allocates():
    rt = fresh("boxed")
    assert rt.hit_ratio() == 1.0  # vacuous before any boxing, as under every scheme
    for i in range(10):
        rt.box_float(float_to_bits(float(i)))
    s = rt.stats()
    assert s.float_allocs == 10
    assert s.float_bytes == 80  # tagged-pointer cells, 8 bytes each
    assert rt.hit_ratio() == 0.0


@pytest.mark.parametrize("name", ["nanbox", "nunbox"])
def test_pure_schemes_never_allocate(name):
    rt = fresh(name)
    for bits in islice(splitmix64(3), 1000):
        w = rt.box_float(bits)
        rt.generic_add(w, w)
    s = rt.stats()
    assert s.float_allocs == 0
    assert s.float_bytes == 0
    assert s.slow_path_encodes == 0
    assert s.representation_flips == 0
    assert rt.boxes_total == 0  # no box events are counted
    assert rt.hit_ratio() == 1.0


def test_st4_generic_layout():
    rt = fresh("st4")
    w = rt.box_float(TINY)
    assert w & 7 == GENERIC_TAG
    assert rt.unbox_float(w) == TINY
    s = rt.stats()
    assert s.float_allocs == 1
    assert s.float_bytes == 16  # header word + payload word
    assert rt.is_float_value(w)
    assert not rt.is_float_value(rt.box_fixnum(9))
    # a generic-tagged word pointing at nothing is not a float
    assert not rt.is_float_value((999999 << 3) | GENERIC_TAG)


def test_st4_covered_class_31_is_immediate():
    rt = fresh("st4")
    w = rt.box_float(BIG)
    assert rt.stats().float_allocs == 0
    assert rt.unbox_float(w) == BIG


def test_two_tag_zeros_preallocation():
    heap = SimHeap()
    rt = Runtime(PRESETS["st2zeros"], heap)
    assert rt.stats().float_allocs == 2  # the two preallocated cells
    rt.reset_kernel_counters()
    pos = rt.box_float(0)
    neg = rt.box_float(SIGN_64)
    assert (pos, neg) == ((0 << 3) | 1, (1 << 3) | 1)  # cells 0 and 1, the preset's tag 1
    s = rt.stats()
    assert s.float_allocs == 0  # zeros reuse the preallocated cells
    assert s.slow_path_encodes == 2
    assert rt.unbox_float(pos) == 0
    assert rt.unbox_float(neg) == SIGN_64
    # a second runtime over the same heap allocates cells of its own
    rt2 = Runtime(PRESETS["st2zeros"], heap)
    assert rt2.box_float(0) == (2 << 3) | 1


def test_flip_counting():
    rt = fresh("st3")
    rt.box_float(ONE)  # fast; first outcome, no flip
    assert rt.stats().representation_flips == 0
    rt.box_float(TINY)  # slow
    assert rt.stats().representation_flips == 1
    rt.box_float(TINY)  # slow again, no transition
    assert rt.stats().representation_flips == 1
    rt.box_float(ONE)  # back to fast
    assert rt.stats().representation_flips == 2
    assert rt.stats().slow_path_encodes == 2
    rt.reset_kernel_counters()
    rt.box_float(TINY)  # first outcome after reset: still no flip
    assert rt.stats().representation_flips == 0


def test_mantissa_slow_path():
    rt = fresh("mantissa")
    rt.box_float(ONE)  # low bits 00: immediate
    assert rt.stats().float_allocs == 0
    rt.box_float(ONE | 1)  # low bits 01: heap
    s = rt.stats()
    assert s.float_allocs == 1
    assert s.slow_path_encodes == 1
    assert rt.unbox_float(rt.box_float(ONE | 1)) == ONE | 1


EXPECTED_FIXNUM_TAG = {
    "boxed": 0,
    "nanbox": None,
    "nunbox": 0,
    "st1": 0,
    "st2biased": 0,
    "st2zeros": 0,
    "st3": 0,
    "st4": 0,
    "mantissa": 1,  # 0 and 4 mark immediate floats, 2 the heap handles
}


@pytest.mark.parametrize("name", ALL)
def test_fixnum_tag_choice(name):
    assert fixnum_tag(PRESETS[name]) == EXPECTED_FIXNUM_TAG[name]


@pytest.mark.parametrize("name", ALL)
def test_fixnum_add_five_seven(name):
    rt = fresh(name)
    rt.reset_kernel_counters()  # discount st2zeros preallocation
    w = rt.generic_add(rt.box_fixnum(5), rt.box_fixnum(7))
    assert rt.is_fixnum_value(w)
    assert rt.unbox_fixnum(w) == 12
    fxt = fixnum_tag(PRESETS[name])
    if fxt is not None:
        assert w == (12 << 3) | fxt
    assert rt.stats().float_allocs == 0  # fixnum path never boxes


FIXNUM_RANGES = {
    "nanbox": (NAN_FIXNUM_MIN, NAN_FIXNUM_MAX),
    "nunbox": (NUN_FIXNUM_MIN, NUN_FIXNUM_MAX),
}


@pytest.mark.parametrize("name", ALL)
def test_fixnum_range_limits(name):
    rt = fresh(name)
    lo, hi = FIXNUM_RANGES.get(name, (FIXNUM_MIN, FIXNUM_MAX))
    assert rt.unbox_fixnum(rt.box_fixnum(lo)) == lo
    assert rt.unbox_fixnum(rt.box_fixnum(hi)) == hi
    assert rt.unbox_fixnum(rt.box_fixnum(-1)) == -1
    with pytest.raises(OverflowError):
        rt.box_fixnum(hi + 1)
    with pytest.raises(OverflowError):
        rt.box_fixnum(lo - 1)
    with pytest.raises(OverflowError):
        rt.generic_add(rt.box_fixnum(hi), rt.box_fixnum(1))


@pytest.mark.parametrize("name", ALL)
def test_out_of_range_fixnum_words_are_not_fixnums(name):
    rt = fresh(name)
    fxt = fixnum_tag(PRESETS[name]) or 0  # nanbox has none: its fixnums sit in the payload
    n = rt.box_fixnum(1)
    for bad in (fxt - 8, (1 << 64) + fxt, (1 << 64) + (1 << 48)):
        assert not rt.is_fixnum_value(bad)
        with pytest.raises(TypeError, match="not a fixnum word"):
            rt.unbox_fixnum(bad)
        for op in (rt.generic_add, rt.generic_sub, rt.generic_mul, rt.generic_div, rt.generic_less):
            with pytest.raises(TypeError, match="mixed or non-numeric"):
                op(bad, n)
            with pytest.raises(TypeError, match="mixed or non-numeric"):
                op(n, bad)


@pytest.mark.parametrize("name", ALL)
def test_mixed_operands_raise(name):
    rt = fresh(name)
    f = rt.box_float(ONE)
    n = rt.box_fixnum(1)
    with pytest.raises(TypeError, match="mixed or non-numeric"):
        rt.generic_add(f, n)
    with pytest.raises(TypeError, match="mixed or non-numeric"):
        rt.generic_add(n, f)
    with pytest.raises(TypeError, match="mixed or non-numeric"):
        rt.generic_less(f, n)
    with pytest.raises(TypeError, match="not a fixnum word"):
        rt.unbox_fixnum(f)
    with pytest.raises(TypeError, match="not a float word"):
        rt.unbox_float(n)


@pytest.mark.parametrize("name", ALL)
def test_float_arithmetic_values(name):
    rt = fresh(name)
    box, unbox = rt.box_float, rt.unbox_float
    a = box(float_to_bits(2.5))
    b = box(float_to_bits(0.25))
    assert unbox(rt.generic_add(a, b)) == float_to_bits(2.75)
    assert unbox(rt.generic_sub(a, b)) == float_to_bits(2.25)
    assert unbox(rt.generic_mul(a, b)) == float_to_bits(0.625)
    assert unbox(rt.generic_div(a, b)) == float_to_bits(10.0)
    assert rt.generic_less(b, a) is True
    assert rt.generic_less(a, b) is False


def test_mixed_immediate_and_heap_operands():
    rt = fresh("st3")
    imm = rt.box_float(HALF15)   # covered class
    heap1 = rt.box_float(TINY)   # missed class
    heap2 = rt.box_float(TINY)
    assert rt.unbox_float(rt.generic_add(imm, heap1)) == float_to_bits(1.5 + 1e-100)
    assert rt.unbox_float(rt.generic_mul(heap1, heap2)) == float_to_bits(1e-200)
    assert rt.generic_less(heap1, imm) is True


def test_div_produces_ieee_specials_immediately():
    # +Inf sits in exponent class 31, which a tag-0 one-tag scheme keeps
    # immediate: dividing by zero must not allocate
    cfg = SchemeConfig("st1t0", ONE_TAG, tag=0, heap_float_tag=2)
    rt = Runtime(cfg, SimHeap())
    rt.reset_kernel_counters()
    w = rt.generic_div(rt.box_float(ONE), rt.box_float(0))
    assert rt.unbox_float(w) == float_to_bits(math.inf)
    assert rt.stats().float_allocs == 0
    nan_w = rt.generic_div(rt.box_float(0), rt.box_float(0))
    assert math.isnan(bits_to_float(rt.unbox_float(nan_w)))


def test_fixnum_division_is_floor():
    rt = fresh("st3")
    div = rt.generic_div
    fx = rt.box_fixnum
    assert rt.unbox_fixnum(div(fx(7), fx(2))) == 3
    assert rt.unbox_fixnum(div(fx(-7), fx(2))) == -4
    assert rt.unbox_fixnum(div(fx(7), fx(-2))) == -4
    with pytest.raises(ZeroDivisionError):
        div(fx(1), fx(0))


def test_profile_hook_sees_all_boxing_events():
    seen = []
    rt = Runtime(PRESETS["st3"], SimHeap(), profile_hook=seen.append)
    a = rt.box_float(HALF15)
    b = rt.box_float(TINY)
    rt.generic_add(a, b)
    assert seen == [HALF15, TINY, float_to_bits(1.5 + 1e-100)]
    assert rt.boxes_total == 3


def test_hit_ratio_counts_boxing_events():
    rt = fresh("st3")
    rt.box_float(ONE)
    rt.box_float(float_to_bits(2.0))
    rt.box_float(HALF15)
    rt.box_float(TINY)  # one miss
    assert rt.boxes_total == 4
    assert rt.hit_ratio() == 0.75
    rt.reset_kernel_counters()
    assert rt.boxes_total == 0
    assert rt.hit_ratio() == 1.0  # vacuous before any boxing


def test_hit_ratio_counts_only_the_runtimes_own_allocations():
    # st2zeros' preallocated zero cells are not boxes of this runtime
    rt = fresh("st2zeros")
    rt.box_float(HALF15)
    assert rt.hit_ratio() == 1.0
    rt.box_float(0)  # a slow-path encode served by a preallocated cell
    assert rt.hit_ratio() == 1.0
    rt.box_float(TINY)
    assert rt.hit_ratio() == 1 - 1 / 3  # one of three box events allocated
    # nor are the cells another runtime boxed on a shared heap
    heap = SimHeap()
    boxed = Runtime(PRESETS["boxed"], heap)
    boxed.box_float(ONE)
    boxed.box_float(ONE)
    rt = Runtime(PRESETS["st1"], heap)
    rt.box_float(ONE)
    assert rt.hit_ratio() == 1.0
    assert boxed.hit_ratio() == 0.0
    assert rt.stats().float_allocs == 2  # the heap's count is still shared
    # a miss whose allocation fails did not stay immediate either
    rt = Runtime(PRESETS["st1"], SimHeap(capacity=1))
    rt.box_float(TINY)
    with pytest.raises(MemoryError):
        rt.box_float(TINY)
    assert rt.stats().float_allocs == 1
    assert rt.hit_ratio() == 0.0


def test_out_of_memory_propagates():
    rt = Runtime(PRESETS["boxed"], SimHeap(capacity=2))
    rt.box_float(ONE)
    rt.box_float(ONE)
    with pytest.raises(MemoryError, match="capacity exhausted"):
        rt.box_float(ONE)


def test_default_heap_is_private():
    a = Runtime(PRESETS["boxed"])
    b = Runtime(PRESETS["boxed"])
    a.box_float(ONE)
    assert a.stats().float_allocs == 1
    assert b.stats().float_allocs == 0


# words outside [0, 2**64), with low tags that several schemes use for
# immediate floats or heap handles
OUT_OF_RANGE_WORDS = (-8, -5, 1 << 64, (1 << 64) + 3, (1 << 64) + 4, (1 << 65) + 6)


@pytest.mark.parametrize("name", ALL)
def test_is_float_value_discriminates(name):
    rt = fresh(name)
    imm_or_handle = rt.box_float(ONE)
    assert rt.is_float_value(imm_or_handle)
    assert not rt.is_float_value(rt.box_fixnum(5))
    assert not rt.is_fixnum_value(imm_or_handle)
    missed = rt.box_float(TINY)
    assert rt.is_float_value(missed)
    assert not rt.is_fixnum_value(missed)
    for bad in OUT_OF_RANGE_WORDS:
        assert not rt.is_float_value(bad)
        with pytest.raises(TypeError, match="not a float word"):
            rt.unbox_float(bad)
        if name in ("nanbox", "nunbox", "mantissa"):
            for op in (rt.generic_add, rt.generic_sub, rt.generic_mul, rt.generic_div, rt.generic_less):
                with pytest.raises(TypeError, match="mixed or non-numeric"):
                    op(bad, imm_or_handle)
                with pytest.raises(TypeError, match="mixed or non-numeric"):
                    op(imm_or_handle, bad)


@pytest.mark.parametrize("name", ALL)
def test_box_float_rejects_out_of_range_bits(name):
    seen = []
    rt = fresh(name, profile_hook=seen.append)
    rt.reset_kernel_counters()
    for bad in (-1, -5, 1 << 64, (1 << 64) + ONE):
        with pytest.raises(ValueError, match="out of"):
            rt.box_float(bad)
    assert seen == []  # rejected before the hook and the counters
    assert rt.boxes_total == 0
    assert rt.stats().float_allocs == 0
    for bits in (0, M64):
        assert rt.unbox_float(rt.box_float(bits)) == expected_unbox(name, bits)


HEAP_PRESETS = tuple(n for n in ALL if n not in ("nanbox", "nunbox"))


@pytest.mark.parametrize("name", HEAP_PRESETS)
def test_dangling_handles_are_not_floats(name):
    rt = fresh(name)
    f = rt.box_float(ONE)
    last = rt.box_float(TINY | 1)  # missed by every heap-using preset
    assert rt.unbox_float(last) == TINY | 1
    # handles of the first index past the arena and of one far beyond it,
    # and the negative word with the heap-handle tag, which would index
    # the arena from its end
    for dangling in (last + 8, last + (1000 << 3), (last & 7) - 8):
        assert not rt.is_float_value(dangling)
        with pytest.raises(TypeError, match="not a float word"):
            rt.unbox_float(dangling)
        for op in (rt.generic_add, rt.generic_sub, rt.generic_mul, rt.generic_div, rt.generic_less):
            with pytest.raises(TypeError, match="mixed or non-numeric"):
                op(dangling, f)
            with pytest.raises(TypeError, match="mixed or non-numeric"):
                op(f, dangling)


@pytest.mark.parametrize("name", HEAP_PRESETS)
def test_ballast_addresses_are_not_floats(name):
    heap = SimHeap()
    heap.preload(64)  # eight cells of ballast, no float boxed yet
    rt = Runtime(PRESETS[name], heap)
    ht = handle_tag(PRESETS[name])
    partners = [rt.box_fixnum(1)]
    if name != "boxed":
        partners.append(rt.box_float(ONE))  # an immediate float
        assert rt.stats().float_allocs == (2 if name == "st2zeros" else 0)
    for i in range(8):
        if name == "st2zeros" and i < 2:
            continue  # the runtime's own +0.0 and -0.0 cells
        w = (i << 3) | ht
        assert not rt.is_float_value(w), hex(w)
        with pytest.raises(TypeError, match="not a float word"):
            rt.unbox_float(w)
        for op in (rt.generic_add, rt.generic_sub, rt.generic_mul, rt.generic_div, rt.generic_less):
            for p in partners:
                with pytest.raises(TypeError, match="mixed or non-numeric"):
                    op(w, p)
                with pytest.raises(TypeError, match="mixed or non-numeric"):
                    op(p, w)


# Word specs, turned into a word per preset: any int (negative and
# >= 2**64 included), the word box_float gives for any float bits (an
# immediate or a live handle), a word with a handle's shape for the first
# few arena indices (live below the arena top, dangling above it, every
# low tag), and a fixnum word (the value itself where the preset's range
# is narrower).
WORD_SPECS = st.one_of(
    st.tuples(st.just("int"), st.integers(-(1 << 66), 1 << 66) | st.integers(0, M64)),
    st.tuples(st.just("float"), st.integers(0, M64)),
    st.tuples(st.just("cell"), st.integers(0, 12), st.integers(0, 7)),
    st.tuples(st.just("fixnum"), st.integers(FIXNUM_MIN, FIXNUM_MAX)),
)

# everything a generic operation may raise, for any words
GENERIC_ERRORS = (TypeError, OverflowError, ZeroDivisionError, MemoryError)


def make_word(rt, spec):
    kind, *args = spec
    if kind == "float":
        return rt.box_float(args[0])
    if kind == "cell":
        return (args[0] << 3) | args[1]
    if kind == "fixnum":
        try:
            return rt.box_fixnum(args[0])
        except OverflowError:
            return args[0]
    return args[0]


def succeeds(fn, w):
    try:
        fn(w)
    except TypeError:
        return False
    return True


@given(st.lists(WORD_SPECS, min_size=1, max_size=5))
def test_word_validity_contract(specs):
    # the type tests agree with the unboxers on every word, and the
    # generic operations fail only with the errors of the contract, with
    # TypeError whenever an operand lies outside [0, 2**64): an immediate
    # float's word moved out of range by 2**64 keeps its low tag, and is
    # rejected both while the float sits in the runtime's slots and after
    for name in ALL:
        rt = fresh(name)
        f = rt.box_float(ONE)
        for bits in (TINY | 1, BIG | 1, HALF15):
            rt.box_float(bits)  # heap cells under every heap-using preset
        words = [make_word(rt, spec) for spec in specs]
        for w in words:
            assert rt.is_float_value(w) == succeeds(rt.unbox_float, w), (name, w)
            assert rt.is_fixnum_value(w) == succeeds(rt.unbox_fixnum, w), (name, w)
        for op in (rt.generic_add, rt.generic_sub, rt.generic_mul, rt.generic_div, rt.generic_less):
            for w in (f + (1 << 64), f - (1 << 64)):
                for a, b in ((w, f), (f, w), (w, w)):
                    with pytest.raises(TypeError, match="mixed or non-numeric"):
                        op(a, b)
                    rt.box_float(ONE)  # f back in a slot
            for a in words:
                for b in words:
                    try:
                        op(a, b)
                    except GENERIC_ERRORS as e:
                        if not (0 <= a <= M64 and 0 <= b <= M64):
                            assert type(e) is TypeError, (name, a, b)
                    else:
                        assert 0 <= a <= M64 and 0 <= b <= M64, (name, a, b)


# operator's functions, not inline x + y: with two NaN operands, which
# payload survives depends on the C code path that adds, and the runtime
# adds through these
REFERENCE_OPS = (
    ("generic_add", operator.add),
    ("generic_sub", operator.sub),
    ("generic_mul", operator.mul),
    ("generic_div", ieee_div),
)
FIXNUM_OPS = (*REFERENCE_OPS[:3], ("generic_div", operator.floordiv))


@pytest.mark.parametrize("name", ALL)
def test_arithmetic_bits_match_struct_reference(name):
    # words.float_to_bits/bits_to_float (struct) are the reference for the
    # runtime's own float<->bits conversions
    rt = fresh(name)
    edge = [int(b) for b in boundary_words64()]
    edge += [QNAN_64, QNAN_64 | 1, 0x7FF0000000000001, 0xFFF0000000000001, M64]
    rand = list(islice(splitmix64(2024), 400))
    pairs = [(a, b) for a in edge[::3] for b in edge[1::3]]
    pairs += list(zip(rand, rand[1:] + edge[:1]))
    pairs += list(zip(edge, rand))
    rt.reset_kernel_counters()
    for a, b in pairs:
        aw, bw = rt.box_float(a), rt.box_float(b)
        x = bits_to_float(expected_unbox(name, a))
        y = bits_to_float(expected_unbox(name, b))
        for op, ref in REFERENCE_OPS:
            got = rt.unbox_float(getattr(rt, op)(aw, bw))
            assert got == expected_unbox(name, float_to_bits(ref(x, y))), (op, hex(a), hex(b))
        assert rt.generic_less(aw, bw) is (x < y)
    if name not in ("nanbox", "nunbox"):
        assert rt.stats().float_allocs > 0  # heap operands were exercised


def valid_configs():
    for variant in sorted(ALL_VARIANTS):
        for tag in range(8):
            for offset in range(8):
                for hft in (None, *range(8)):
                    try:
                        yield SchemeConfig("cfg", variant, tag, offset, hft)
                    except ValueError:
                        pass


def test_every_config_roundtrips_and_encodes_like_schemes():
    # one loop over the whole SchemeConfig space, checked against the
    # reference transforms in schemes.py
    words = [int(b) for b in boundary_words64()] + list(islice(splitmix64(4192), 64))
    n_configs = 0
    for cfg in valid_configs():
        n_configs += 1
        rt = Runtime(cfg, SimHeap())
        rt.reset_kernel_counters()
        tagged = cfg.variant in SELF_TAG_VARIANTS
        mask = self_tag_set(cfg) if tagged else 0
        misses = 0
        for bits in words:
            w = rt.box_float(bits)
            assert rt.unbox_float(w) == expected_unbox(cfg.variant, bits), (cfg, hex(bits))
            assert rt.is_float_value(w), (cfg, hex(bits))
            assert not rt.is_fixnum_value(w), (cfg, hex(bits))
            if cfg.variant == NANBOX:
                assert w == nan_box_float(bits), (cfg, hex(bits))
            elif cfg.variant == NUNBOX:
                assert w == nun_box_float(bits), (cfg, hex(bits))
            if not tagged:
                continue
            zero = cfg.variant == TWO_TAG_ZEROS and bits in (0, SIGN_64)
            if covers(cfg, bits) and not zero:
                assert w == st_transform(bits, cfg), (cfg, hex(bits))
                assert (mask >> (w & 7)) & 1, (cfg, hex(bits))
            else:
                assert not (mask >> (w & 7)) & 1, (cfg, hex(bits))
                misses += not zero
        if tagged:
            assert rt.stats().float_allocs == misses, cfg
    assert n_configs == 4192


def expected_fixnum_word(cfg, fxt, v):
    # the fixnum layouts, restated: a NaN payload under NaN boxing, the
    # 000-tagged shifted word under NuN boxing, else the shifted word
    # retagged with the scheme's fixnum tag
    if cfg.variant == NANBOX:
        return nan_box_nonfloat(NAN_FIXNUM_TAG, v & NAN_PAYLOAD_MASK)
    return ((v << 3) & M64) | fxt


def test_every_config_fixnums_match_int_arithmetic():
    # box/unbox round trips at the range edges, overflow past them, and
    # the five generic operations against Python int arithmetic, with
    # floor division, over the whole SchemeConfig space
    n_configs = 0
    for cfg in valid_configs():
        n_configs += 1
        rt = Runtime(cfg, SimHeap())
        lo, hi = FIXNUM_RANGES.get(cfg.variant, (FIXNUM_MIN, FIXNUM_MAX))
        box, unbox = rt.box_fixnum, rt.unbox_fixnum
        for v in (lo, hi, -1, 0):
            w = box(v)
            assert w == expected_fixnum_word(cfg, fixnum_tag(cfg), v), (cfg, v)
            assert unbox(w) == v, (cfg, v)
            assert rt.is_fixnum_value(w) and not rt.is_float_value(w), (cfg, v)
        for v in (hi + 1, lo - 1):
            with pytest.raises(OverflowError):
                box(v)
        values = (lo, -7, 0, 3, hi)
        for a in values:
            for b in values:
                aw, bw = box(a), box(b)
                assert rt.generic_less(aw, bw) is (a < b), (cfg, a, b)
                for op, ref in FIXNUM_OPS:
                    if ref is operator.floordiv and b == 0:
                        with pytest.raises(ZeroDivisionError):
                            getattr(rt, op)(aw, bw)
                        continue
                    v = ref(a, b)
                    if lo <= v <= hi:
                        assert unbox(getattr(rt, op)(aw, bw)) == v, (cfg, op, a, b)
                    else:
                        with pytest.raises(OverflowError, match="fixnum overflow"):
                            getattr(rt, op)(aw, bw)
    assert n_configs == 4192


# -- counters against an independent replay --------------------------------

MIXED_SPECIALS = (
    0, SIGN_64, QNAN_64, QNAN_64 | 1, 0x7FF0000000000001, 0xFFF8000000000001, M64,
    ONE, HALF15, TINY, BIG,
)


def mixed_steps(n=240, seed=11):
    """A mixed stream of box events: ("box", bits) of splitmix64 words,
    covered-class floats, +-0 and NaNs, or ("host", x) of the float with
    those bits; (op, i, j), op operator.add or operator.mul, over the i-th
    and j-th words made so far; and one ("reset",) halfway."""
    steps = []
    made = 0
    for k, r in enumerate(islice(splitmix64(seed), n)):
        kind = r & 7
        if made >= 2 and kind >= 5:
            op = operator.add if kind < 7 else operator.mul
            steps.append((op, (r >> 8) % made, (r >> 32) % made))
        else:
            if kind == 4:
                bits = MIXED_SPECIALS[(r >> 8) % len(MIXED_SPECIALS)]
            elif kind == 3:
                # |x| in [2**-8, 2**9): a class every exponent preset keeps immediate
                x = math.ldexp(1 + (r >> 40) / 2**24, (r >> 8) % 17 - 8)
                bits = float_to_bits(-x if r >> 63 else x)
            else:
                bits = r
            steps.append(("host", bits_to_float(bits)) if (r >> 4) & 1 else ("box", bits))
        made += 1
        if k == n // 2:
            steps.append(("reset",))
    return steps


def run_step(rt, words, step):
    """Apply one step of mixed_steps; returns the float bits the step
    boxed (None for a reset), computed outside the runtime."""
    if step[0] == "reset":
        rt.reset_kernel_counters()
        return None
    if step[0] == "box":
        bits = step[1]
        words.append(rt.box_float(bits))
        return bits
    if step[0] == "host":
        x = step[1]
        words.append(rt.box_host_float(x))
        return float_to_bits(x)
    op, i, j = step
    x = bits_to_float(rt.unbox_float(words[i]))
    y = bits_to_float(rt.unbox_float(words[j]))
    words.append((rt.generic_add if op is operator.add else rt.generic_mul)(words[i], words[j]))
    return float_to_bits(op(x, y))


class CounterReplay:
    """Box events, slow-path encodes, flips and float allocations of one
    preset, derived from schemes.covers: a plain state machine over the
    outcome of each box event, independent of the runtime's bookkeeping."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.events = self.misses = self.flips = self.own_allocs = 0
        self.prev = None
        # st2zeros preallocates its two zero cells before any event; they
        # count in the heap's allocations, not in the runtime's own
        self.allocs = 2 if cfg.variant == TWO_TAG_ZEROS else 0

    def reset(self):
        self.events = self.misses = self.flips = self.allocs = self.own_allocs = 0
        self.prev = None

    def event(self, bits):
        v = self.cfg.variant
        if v in (NANBOX, NUNBOX):
            return  # no miss path: nothing is counted
        zero = v == TWO_TAG_ZEROS and bits in (0, SIGN_64)
        hit = v != BOXED and covers(self.cfg, bits) and not zero
        self.events += 1
        if self.prev is not None and hit != self.prev:
            self.flips += 1
        self.prev = hit
        if not hit:
            self.misses += 1
            self.allocs += not zero
            self.own_allocs += not zero

    def expected(self):
        cell = 16 if self.cfg.heap_float_tag is None else 8
        stats = HeapStats(self.allocs, cell * self.allocs, 0, 0, self.misses, self.flips)
        ratio = 1.0 - self.own_allocs / self.events if self.events else 1.0
        return stats, self.events, ratio


@pytest.mark.parametrize("hooked", (False, True))
@pytest.mark.parametrize("name", ALL)
def test_counters_match_independent_replay(name, hooked):
    rt = fresh(name, profile_hook=[].append if hooked else None)
    replay = CounterReplay(PRESETS[name])
    words = []
    steps = mixed_steps()
    assert {step[0] for step in steps} >= {"box", "host", "reset"}
    for k, step in enumerate(steps):
        bits = run_step(rt, words, step)
        if bits is None:
            replay.reset()
        else:
            replay.event(bits)
        # read after every step: a read inside a run of hits must count
        # the flip back from the last miss
        assert (rt.stats(), rt.boxes_total, rt.hit_ratio()) == replay.expected(), (k, step)
    if name in SELF_TAG_PRESETS:
        assert replay.flips > 4 and replay.misses > 4  # both outcomes were exercised


@pytest.mark.parametrize("name", ALL)
def test_hooked_and_unhooked_runtimes_agree(name):
    seen = []
    plain, hooked = fresh(name), fresh(name, profile_hook=seen.append)
    plain_words, hooked_words, boxed_bits = [], [], []
    for step in mixed_steps(seed=5):
        bits = run_step(plain, plain_words, step)
        assert run_step(hooked, hooked_words, step) == bits
        if bits is not None:
            boxed_bits.append(bits)
        assert hooked.stats() == plain.stats()
        assert hooked.boxes_total == plain.boxes_total
    assert hooked_words == plain_words
    assert seen == boxed_bits


# -- operand slots -----------------------------------------------------------

# Every scheme keeps the floats of the last two float words its runtime
# returned, immediates, heap handles and st2zeros' zero cells alike (NaN and
# NuN boxing: only the words that decode back to the same bits). The slot
# tests draw operands from these float bits: boundary words of every class,
# +-0, subnormals, +-Inf, quiet and signalling NaNs of both signs with
# payloads (at and above NAN_CANON and NUN_CANON_MIN too), and splitmix64
# words.
INF_64 = 0x7FF0000000000000
SLOT_OPERANDS = sorted({
    *(int(b) for b in boundary_words64()),
    0, SIGN_64, 1, SIGN_64 | 1, 0xFFFFFFFFFFFFF, SIGN_64 | 0xFFFFFFFFFFFFF,
    INF_64, SIGN_64 | INF_64, QNAN_64, QNAN_64 | 0x5A5A, INF_64 | 1, INF_64 | 0x3C3C3,
    NAN_CANON, NAN_CANON | 9, SIGN_64 | INF_64 | 7, NUN_CANON_MIN, NUN_CANON_MIN | 3, M64,
    *islice(splitmix64(16), 64),
})


def slot_pairs(cfg, k=0, n=None):
    """n + 1 operand pairs for the k-th config: n - 2 operands the config
    keeps immediate and two it boxes on the heap (windows of SLOT_OPERANDS
    that move with k), paired across the window and once with itself. With
    n None, every operand the config keeps immediate and two it does not.
    A scheme that is not self-tagging draws both from all of
    SLOT_OPERANDS: under boxed every operand is a heap handle."""
    if cfg.variant in SELF_TAG_VARIANTS:
        hits = [b for b in SLOT_OPERANDS if covers(cfg, b)]
        misses = [b for b in SLOT_OPERANDS if not covers(cfg, b)]
    else:
        hits = misses = SLOT_OPERANDS
    m = len(hits) if n is None else n - 2
    seq = [hits[(k * 7 + i) % len(hits)] for i in range(m)]
    seq += [misses[(k * 5 + i) % len(misses)] for i in range(2)]
    return [(a, seq[(i * 5 + 1) % len(seq)]) for i, a in enumerate(seq)] + [(seq[0], seq[0])]


def op_outcome(rt, op, aw, bw):
    """The word op returns with its float bits (generic_less: the bool),
    or the type and message of what it raises."""
    try:
        w = op(aw, bw)
    except GENERIC_ERRORS as e:
        return type(e), str(e)
    return w if op is rt.generic_less else (w, rt.unbox_float(w))


GENERIC_OPS = ("generic_add", "generic_sub", "generic_mul", "generic_div", "generic_less")


def slot_cells(rt):
    """What rt's two operand slots hold: w1, x1 (the newer), w2, x2."""
    fn = rt.generic_less
    cells = dict(zip(fn.__code__.co_freevars, fn.__closure__))
    return [cells[n].cell_contents for n in ("w1", "x1", "w2", "x2")]


def slot_words(rt):
    """The words in rt's two operand slots, the newer first."""
    return slot_cells(rt)[::2]


def in_slot(rt, w):
    return any(w is v for v in slot_words(rt))


def check_reuse(cfg, pairs, hooked):
    """Every generic operation gives the same word, exception, counters
    and hook bits whether its float operands come from the runtime's two
    slots, from its decode memo or from a first decode. s boxes a ^ 4 and
    b ^ 4, then a and b, which sit in its slots, heap handles included;
    only a NaN that NaN or NuN boxing collapses fills none. m and d box a
    and b, then a ^ 4 and b ^ 4, which evict them. m has emptied its memo
    and decoded a and b once, with generic_less, which boxes nothing, so
    under a scheme with a memo each of its immediate operands is in the
    memo or, where an eviction collapsed and filled no slot, still in a
    slot; d's memo is emptied, so d decodes them afresh, and reads its
    heap operands from the arena. Flipping bit 2 keeps a float's class and
    its low two bits, so all three runtimes see the same box outcomes in
    the same order."""
    hooks = [], [], []
    rts = s, m, d = [
        Runtime(cfg, SimHeap(), profile_hook=h.append if hooked else None) for h in hooks
    ]
    for a, b in pairs:
        for name in GENERIC_OPS:
            s.box_float(a ^ 4)
            s.box_float(b ^ 4)
            operands = [(s.box_float(a), s.box_float(b))]
            for w, bits in zip(operands[0], (a, b)):
                collapsed = cfg.variant in (NANBOX, NUNBOX) and s.unbox_float(w) == NAN_CANON
                assert collapsed or in_slot(s, w), (cfg, hex(bits))
            for rt in (m, d):
                operands.append((rt.box_float(a), rt.box_float(b)))
                rt.box_float(a ^ 4)
                rt.box_float(b ^ 4)
            m._memo.clear()
            m.generic_less(*operands[1])
            if cfg.variant not in (MANTISSA, BOXED):
                for w, bits in zip(operands[1], (a, b)):
                    if cfg.variant in (NANBOX, NUNBOX) or covers(cfg, bits):
                        assert w in m._memo or in_slot(m, w)
            d._memo.clear()
            for h in hooks:
                h.clear()
            got = [op_outcome(rt, getattr(rt, name), *ws) for rt, ws in zip(rts, operands)]
            assert got[1:] == got[:1] * 2, (cfg, name, hex(a), hex(b))
            assert hooks[1:] == hooks[:1] * 2, (cfg, name, hex(a), hex(b))
            assert len({(rt.stats(), rt.boxes_total, rt.hit_ratio()) for rt in rts}) == 1


def test_reused_operands_match_decoded_ones():
    # every self-tagging config, a few pairs each
    configs = [cfg for cfg in valid_configs() if cfg.variant in SELF_TAG_VARIANTS]
    for k, cfg in enumerate(configs):
        check_reuse(cfg, slot_pairs(cfg, k, 6), hooked=False)
    assert len(configs) == 2464


@pytest.mark.parametrize("hooked", (False, True))
@pytest.mark.parametrize("name", ALL)
def test_reused_operands_match_decoded_ones_per_preset(name, hooked):
    # the presets, with and without a hook, over every operand (NaN payloads,
    # and under nanbox and nunbox the collapsed word CANON, included);
    # mantissa and boxed, which have no memo, must agree too, heap handles
    # taken from a slot or read from the arena, so a slot or memo that
    # changed a word or the bits a hook sees would show here
    cfg = PRESETS[name]
    check_reuse(cfg, slot_pairs(cfg), hooked)


def outcome(rt, op, a, b):
    """What op(a, b) returns (for a float word, its float bits, since each
    heap-bound result is a new handle), or the type and message of what it
    raises. A numpy result is taken for the int or bool it equals."""
    try:
        r = op(a, b)
    except GENERIC_ERRORS as e:
        return type(e), str(e)
    if op is rt.generic_less:
        return bool(r)
    return ("float", rt.unbox_float(int(r))) if rt.is_float_value(int(r)) else int(r)


@pytest.mark.parametrize("name", ALL)
def test_bool_and_numpy_integer_operands(name):
    # the generic operations check no operand type: a bool gives what its
    # int gives, and a numpy integer equal to a float word or to a positive
    # fixnum word gives what that word gives, or raises OverflowError where
    # numpy will not combine it with a Python int of 64 bits or more. As a
    # negative fixnum or a zero divisor it follows numpy's fixed-width
    # arithmetic instead, which these pairs leave out
    rt = fresh(name)
    words = [rt.box_float(HALF15), rt.box_float(HEAP_A), rt.box_fixnum(3)]
    with np.errstate(all="ignore"):
        for op in (getattr(rt, op) for op in GENERIC_OPS):
            for v in (False, True):
                for w in (*words, int(v), int(not v)):
                    assert outcome(rt, op, v, w) == outcome(rt, op, int(v), w)
                    assert outcome(rt, op, w, v) == outcome(rt, op, w, int(v))
            for w in words:
                for v in (np.uint64(w), np.int64(w)) if w < SIGN_64 else (np.uint64(w),):
                    for x in words:
                        for pair, ints in (((v, x), (w, x)), ((x, v), (x, w)), ((v, v), (w, w))):
                            got, want = outcome(rt, op, *pair), outcome(rt, op, *ints)
                            assert got == want or got[0] is OverflowError, (op, pair, got, want)


@pytest.mark.parametrize("name", ALL)
def test_unfilled_slots_match_no_word(name):
    # before a runtime's second immediate hit, its slots hold no word yet:
    # -1 and a negative word with 1.0's tag still raise TypeError, on a
    # fresh runtime and on one that has boxed a single immediate
    g = fresh(name).box_float(ONE)
    for filled in (0, 1):
        rt = fresh(name)
        operands = [rt.box_float(ONE)] if filled else []
        for op in (rt.generic_add, rt.generic_sub, rt.generic_mul, rt.generic_div, rt.generic_less):
            for w in (-1, g - (1 << 64)):
                for a, b in [(w, w), *((w, f) for f in operands), *((f, w) for f in operands)]:
                    with pytest.raises(TypeError, match="mixed or non-numeric"):
                        op(a, b)


def least_immediate_bits(name):
    """The float bits of the preset's least immediate word: the least word
    below 16 that a fresh runtime reads as a float, heap handles aside.
    nunbox's immediates start at NUN_BIAS and boxed has none, so those two
    take +0.0 (boxed: its first handle)."""
    rt = fresh(name)
    ht = handle_tag(PRESETS[name])
    small = [w for w in range(16) if rt.is_float_value(w) and w & 7 != ht]
    return rt.unbox_float((small or [rt.box_float(0)])[0])


@pytest.mark.parametrize("name", ALL)
def test_floats_equal_to_known_words_are_not_words(name):
    # float(w) is no word, even where it equals a word whose float the
    # runtime keeps: either operand raises TypeError on a fresh runtime,
    # while w sits in a slot (boxed's heap handle too), and while w sits in
    # the decode memo
    bits = least_immediate_bits(name)
    for state in ("fresh", "slot", "memo"):
        rt = fresh(name)
        w = (fresh(name) if state == "fresh" else rt).box_float(bits)
        if state == "slot":
            assert in_slot(rt, w)
        if state == "memo":
            rt.box_float(ONE)
            rt.box_float(HALF15)
            rt.generic_less(w, w)
            assert (w in rt._memo) == (name in MEMO_PRESETS)
        f = float(w)
        for op in GENERIC_OPS:
            for a, b in ((f, w), (w, f), (f, f)):
                with pytest.raises(TypeError):
                    getattr(rt, op)(a, b)


@pytest.mark.parametrize("name", MEMO_PRESETS)
def test_decode_memo_stays_bounded(name):
    # more distinct decodes than the bound: the memo never holds more than
    # MEMO_BOUND words, it fills up before it is cleared, and every word
    # decoded earlier still gives its own float
    rt = fresh(name)
    one = rt.box_float(ONE)
    words = [rt.box_float(ONE + i) for i in range(1, 2 * MEMO_BOUND + 10)]
    sizes = []
    for w in words:
        rt.generic_less(w, w)
        sizes.append(len(rt._memo))
    for w in words:
        assert rt.generic_mul(w, one) == w
        sizes.append(len(rt._memo))
    assert max(sizes) == MEMO_BOUND
    assert all(float_to_bits(x) == rt.unbox_float(w) for w, x in rt._memo.items())


@pytest.mark.parametrize("name", MEMO_PRESETS)
def test_fixnums_and_handles_pass_the_memo_lookup(name):
    # the memo is read before the tag test, so fixnum and heap-handle
    # operands look it up too: with decoded words in the memo and the
    # slots, they still give the words and exceptions of their own paths,
    # and never enter the memo
    rt = fresh(name)
    words = [rt.box_float(ONE + i) for i in range(8)]
    for w in words:
        rt.generic_less(w, w)
    memo = dict(rt._memo)
    assert len(memo) == 6
    a, b = rt.box_fixnum(3), rt.box_fixnum(-5)
    for op, iop in FIXNUM_OPS:
        assert getattr(rt, op)(a, b) == rt.box_fixnum(iop(3, -5))
    assert rt.generic_less(a, b) is False
    for op in GENERIC_OPS:
        for w in (words[0], words[-1]):
            for x, y in ((a, w), (w, a)):
                with pytest.raises(TypeError, match="mixed or non-numeric"):
                    getattr(rt, op)(x, y)
    if name in HEAP_PRESETS:
        h = rt.box_float(TINY)
        assert rt.unbox_float(rt.generic_mul(h, words[0])) == TINY
        assert rt.generic_less(h, words[1]) is True
        assert rt.generic_less(words[1], h) is False
    assert rt._memo == memo


# A NaN at or above NAN_CANON (NuN boxing: NUN_CANON_MIN) boxes to the one
# collapsed word, which decodes to other bits, so it never fills a slot.
# Each is made twice: boxed, and as the result of a generic operation on the
# signalling NaN that the FPU quiets into it.
COLLAPSED = {"nanbox": NAN_CANON | 9, "nunbox": NUN_CANON_MIN | 3}
QUIET_BIT = 1 << 51


@pytest.mark.parametrize("hooked", (False, True))
@pytest.mark.parametrize("name", ("nanbox", "nunbox"))
def test_collapsed_nans_fill_no_slot(name, hooked):
    # the first runtime uses the collapsed word right after making it; the
    # second boxes two more floats first, so it decodes every operand. Every
    # operation must give the same word, exception and hook bits on both,
    # and neither counts a box event
    nan = COLLAPSED[name]
    for source in ("box", "result"):
        for op in GENERIC_OPS:
            for pick in ((0, 0), (0, 1), (1, 0)):
                hooks = [], []
                rts = [fresh(name, profile_hook=h.append if hooked else None) for h in hooks]
                got = []
                for rt, h in zip(rts, hooks):
                    if source == "box":
                        one = rt.box_float(ONE)
                        w = rt.box_float(nan)
                    else:
                        snan = rt.box_float(nan & ~QUIET_BIT)
                        one = rt.box_float(ONE)
                        w = rt.generic_add(snan, one)
                    assert rt.unbox_float(w) == expected_unbox(name, nan)
                    if hooked:
                        assert h[-1] == nan  # the collapsed NaN was made
                    if rt is rts[1]:
                        rt.box_float(float_to_bits(0.75))
                        rt.box_float(float_to_bits(3.5))
                    h.clear()
                    ws = (w, one)
                    got.append(op_outcome(rt, getattr(rt, op), ws[pick[0]], ws[pick[1]]))
                assert got[0] == got[1], (name, source, op, pick)
                assert hooks[0] == hooks[1], (name, source, op, pick)
                assert [rt.boxes_total for rt in rts] == [0, 0]
                assert [rt.hit_ratio() for rt in rts] == [1.0, 1.0]


@pytest.mark.parametrize("name", HEAP_PRESETS)
def test_failed_allocation_fills_no_slot(name):
    # a miss whose allocation raises MemoryError, in box_float and in a
    # generic re-box, leaves both slots as they were, and stores nothing;
    # it still counts as a box event and as a miss that went to the heap
    cfg = PRESETS[name]
    cost = 1 if cfg.heap_float_tag is not None else 2
    zero_cells = 2 if cfg.variant == TWO_TAG_ZEROS else 0
    rt = Runtime(cfg, SimHeap(capacity=zero_cells + 2 * cost))
    rt.reset_kernel_counters()
    hits = 0 if name == "boxed" else 1
    if hits:
        rt.box_float(ONE)
    a, b = rt.box_float(HEAP_A), rt.box_float(HEAP_B)  # the heap is full
    before = slot_cells(rt)
    assert before[0] is b and before[2] is a
    for fail in (lambda: rt.box_float(HEAP_A), lambda: rt.generic_add(a, b)):
        with pytest.raises(MemoryError, match="capacity exhausted"):
            fail()
        assert all(x is y for x, y in zip(slot_cells(rt), before))
    assert rt.boxes_total == hits + 4
    assert rt.stats() == HeapStats(
        float_allocs=2, float_bytes=16 * cost, other_allocs=0, other_bytes=0,
        slow_path_encodes=4, representation_flips=hits,
    )
    assert rt.hit_ratio() == 1 - 4 / (hits + 4)
    assert (rt.unbox_float(a), rt.unbox_float(b)) == (HEAP_A, HEAP_B)


def test_zero_cells_fill_a_slot():
    # st2zeros returns a generic result of +-0.0 as one of its zero cells,
    # which fills slot 1 like any other word and, taken from its slot,
    # gives the bits of its own zero: 1 / +0.0 is +Inf, 1 / -0.0 is -Inf
    rt = fresh("st2zeros")
    one, minus = rt.box_float(ONE), rt.box_float(ONE | SIGN_64)
    pos = rt.generic_add(one, minus)
    assert slot_words(rt)[0] is pos
    neg = rt.generic_mul(pos, minus)
    assert (pos, neg) == ((0 << 3) | 1, (1 << 3) | 1)  # the preallocated cells
    assert rt.stats().float_allocs == 2  # those two, and nothing since
    w1, x1, w2, x2 = slot_cells(rt)
    assert w1 is neg and w2 is pos
    assert (float_to_bits(x1), float_to_bits(x2)) == (SIGN_64, 0)
    assert rt.unbox_float(rt.generic_div(one, pos)) == INF_64
    assert in_slot(rt, neg)
    assert rt.unbox_float(rt.generic_div(one, neg)) == SIGN_64 | INF_64


# -- boxing host floats --------------------------------------------------------

# What box_host_float takes: +-0, subnormals, +-Inf, quiet and signalling
# NaNs of both signs with payloads (at and above NAN_CANON and
# NUN_CANON_MIN too), an int that no float equals (after the float it
# rounds to, which compares below it), bools, numpy float32s and the
# floats of 3000 splitmix64 words.
HOST_SPECIALS = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, math.inf, -math.inf,
    *map(bits_to_float, (
        QNAN_64, QNAN_64 | 0x5A5A, INF_64 | 1, INF_64 | 0x3C3C3, SIGN_64 | INF_64 | 7,
        NAN_CANON, NAN_CANON | 9, NUN_CANON_MIN | 3, M64,
    )),
    2.0**53, 2**53 + 1, True, False, np.float32(1.1), np.float32(-3e-39), np.float32("nan"),
)
HOST_INPUTS = (*HOST_SPECIALS, *map(bits_to_float, islice(splitmix64(24), 3000)))


def boxing_outcomes(rt, box, inputs, ops=GENERIC_OPS):
    """Per input, the word box returns, the words and floats (as type and
    bits) it leaves in rt's slots, what each of ops gives over it and the
    word before it (generic_less first, which boxes nothing, so both
    operands still sit in the slots the boxes filled) and rt's counters;
    and stats() once at the end."""
    out = []
    prev = box(1.5)
    for x in inputs:
        w = box(x)
        w1, x1, w2, x2 = slot_cells(rt)
        slots = [v if type(v) is int else None for v in (w1, w2)]
        slots += [(type(v), float_to_bits(v)) for v in (x1, x2)]
        got = [op_outcome(rt, getattr(rt, op), *pair) for op in ops for pair in ((w, prev), (prev, w))]
        out.append((w, slots, got, rt._counts()))
        prev = w
    out.append(rt.stats())
    return out


def check_host_boxing(cfg, inputs, hooked, ops=GENERIC_OPS):
    """box_host_float(x) and box_float(float_to_bits(x)) give the same
    words, slots, counters and hook bits, and so do ops over their words."""
    seen = [], []
    host = Runtime(cfg, SimHeap(), profile_hook=seen[0].append if hooked else None)
    bits = Runtime(cfg, SimHeap(), profile_hook=seen[1].append if hooked else None)
    got = boxing_outcomes(host, host.box_host_float, inputs, ops)
    want = boxing_outcomes(bits, lambda x: bits.box_float(float_to_bits(x)), inputs, ops)
    for x, g, e in zip((*inputs, "stats"), got, want):
        assert g == e, (cfg, x)
    assert seen[0] == seen[1], cfg


@pytest.mark.parametrize("hooked", (False, True))
@pytest.mark.parametrize("name", ALL)
def test_box_host_float_boxes_like_box_float_of_its_bits(name, hooked):
    check_host_boxing(PRESETS[name], HOST_INPUTS, hooked)


def test_box_host_float_boxes_like_box_float_over_every_config():
    # one float per sign and exponent prefix (which decides a table
    # family's outcome), with low mantissa bits 00 or 11 in turn (which
    # decide mantissa's), and the specials, over the whole SchemeConfig
    # space, where generic_less reads both operands from the slots
    reps = [bits_to_float(p << 58 | (0x13579BDF if p & 1 else 0x2468ACE0)) for p in range(64)]
    ops = ("generic_less",)
    n_configs = 0
    for k, cfg in enumerate(valid_configs()):
        n_configs += 1
        check_host_boxing(cfg, (*reps, *HOST_SPECIALS), k % 2 == 1, ops)
    assert n_configs == 4192


@pytest.mark.parametrize("name", ALL)
def test_box_host_float_rejects_non_numbers(name):
    seen = []
    rt = fresh(name, profile_hook=seen.append)
    rt.box_host_float(1.5)
    before = slot_cells(rt), rt.stats(), rt.boxes_total
    for bad in ("1.5", None, b"x", 1j):
        with pytest.raises(TypeError):
            rt.box_host_float(bad)
    with pytest.raises(ValueError):
        rt.box_host_float(10**400)  # no float holds it
    assert (slot_cells(rt), rt.stats(), rt.boxes_total) == before
    assert seen == [float_to_bits(1.5)]  # rejected before the hook and the counters


@pytest.mark.parametrize("name", ALL)
def test_box_float_rejects_a_float(name):
    # box_float takes bits, not a float: the range test rejects a float
    # outside [0, 2**64) and the buffer store any other, under every
    # scheme, before the hook and the counters
    seen = []
    for rt in (fresh(name), fresh(name, profile_hook=seen.append)):
        for err, match, xs in (
            (TypeError, "invalid type", (0.0, 1.5, 1e-100, 2.0**63)),
            (ValueError, "out of", (-2.5, 1e300)),
        ):
            for x in xs:
                with pytest.raises(err, match=match):
                    rt.box_float(x)
                assert seen == [], x
                assert rt._counts() == (0, 0, 0, 0), x


RUNTIME_OPS = (
    "box_float", "box_host_float", "unbox_float", "is_float_value", "box_fixnum", "unbox_fixnum",
    "is_fixnum_value", *GENERIC_OPS,
)
_SLOT_CELLS = ("w1", "w2", "x1", "x2")
_ARITH_CELLS = ("flips", "fop", "iop", "last", "n", "slow", "w1", "w2", "x1", "x2", "zhits")
# The closure cells each operation copies into its frame per call: only
# what changes (the counters, the slots, and make_arith's fop and iop). What
# a Runtime binds once (tables, ranges, buffer, memo, hook, and the heap
# names of the allocation step) is a global of its own namespace.
FREEVARS = {
    "box_float": ("flips", "last", "n", "slow", "w1", "w2", "x1", "x2", "zhits"),
    "box_host_float": ("flips", "last", "n", "slow", "w1", "w2", "x1", "x2", "zhits"),
    "unbox_float": (),
    "is_float_value": (),
    "box_fixnum": (),
    "unbox_fixnum": (),
    "is_fixnum_value": (),
    "generic_add": _ARITH_CELLS,
    "generic_sub": _ARITH_CELLS,
    "generic_mul": _ARITH_CELLS,
    "generic_div": _ARITH_CELLS,
    "generic_less": _SLOT_CELLS,
}


def test_operations_close_over_mutable_state_only():
    got = {}
    for name in ALL:
        for hook in (None, [].append):
            rt = fresh(name, profile_hook=hook)
            ops = {op: tuple(sorted(getattr(rt, op).__code__.co_freevars)) for op in RUNTIME_OPS}
            got[name, hook is not None] = ops
    assert got == {(name, hooked): FREEVARS for name in ALL for hooked in (False, True)}


@pytest.mark.parametrize("hooked", (False, True))
@pytest.mark.parametrize("name", ALL)
def test_dropped_runtime_leaves_no_cycle(name, hooked):
    # the closures' namespace holds no function that refers back to it, so
    # refcounting frees a dropped Runtime and its heap without a collection
    gc.collect()
    gc.disable()
    try:
        rt = fresh(name, profile_hook=[].append if hooked else None)
        rt.generic_add(rt.box_float(ONE), rt.box_float(TINY))
        del rt
        assert gc.collect() == 0
    finally:
        gc.enable()


def interleaved_outcomes(runtimes, seeds):
    """Per runtime, the words, the bits each step boxed and the counters
    after each step of mixed_steps(seed=its seed), the steps of all
    runtimes taken in turn."""
    streams = [mixed_steps(seed=seed) for seed in seeds]
    words = [[] for _ in runtimes]
    out = [[] for _ in runtimes]
    for k in range(max(map(len, streams))):
        for rt, steps, ws, o in zip(runtimes, streams, words, out):
            if k < len(steps):
                bits = run_step(rt, ws, steps[k])
                o.append((bits, ws[-1:], rt.stats(), rt.boxes_total, rt.hit_ratio()))
    return out


# Runtimes of one family share its compiled code, each over its own
# globals: a rot5 pair over different tables, an unhooked nanbox beside two
# hooked ones over different hooks, and two st2zeros runtimes, each with
# its own heap and zero cells. (name, hooked) per runtime.
SHARING_GROUPS = {
    "rot5": (("st1", False), ("st2biased", False)),
    "nanbox": (("nanbox", False), ("nanbox", True), ("nanbox", True)),
    "st2zeros": (("st2zeros", False), ("st2zeros", False)),
}


@pytest.mark.parametrize("group", SHARING_GROUPS)
def test_runtimes_sharing_code_keep_their_own_bindings(group):
    # each runtime runs its own stream of steps, interleaved with the
    # others, and makes the same words, counters and hook bits as alone
    members = SHARING_GROUPS[group]
    seeds = [5 + 2 * i for i in range(len(members))]

    def make(i):
        name, hooked = members[i]
        seen = []
        return fresh(name, profile_hook=seen.append if hooked else None), seen

    made = [make(i) for i in range(len(members))]
    rts = [rt for rt, _ in made]
    # a group is one family, and st2zeros or not, so hooked completes the key
    # and runtimes run one code object exactly when their keys agree
    codes = [(hooked, rt.generic_add.__code__) for (_, hooked), rt in zip(members, rts)]
    for h, c in codes:
        assert all((c is c2) == (h == h2) for h2, c2 in codes), group
    together = interleaved_outcomes(rts, seeds)
    for i, (_, seen) in enumerate(made):
        solo, solo_seen = make(i)
        assert interleaved_outcomes([solo], [seeds[i]])[0] == together[i], members[i]
        assert solo_seen == seen, members[i]


def test_runtimes_of_one_key_share_one_code_object():
    # every Runtime of one (family, HOOKED, ZEROS) key runs the one code
    # object compiled for that key, once per process
    for name in ALL:
        for hooked in (False, True):
            hook = [].append if hooked else None
            rt = fresh(name, profile_hook=hook)
            misses = _builder.cache_info().misses
            other = fresh(name, profile_hook=hook)
            assert _builder.cache_info().misses == misses
            for op in RUNTIME_OPS:
                assert getattr(rt, op).__code__ is getattr(other, op).__code__, (name, hooked, op)


# box_float, generic_add, generic_less, unbox_float and box_host_float
# with operands 1.5 and 2.25 (both immediate except under boxed), boxed
# just before each call; box_host_float is given the float 1.5.
# Reused: the operands are the runtime's last two words, so their floats
# come from its slots. Memoized: two more floats (0.75 and 3.5) were boxed
# after them, and generic_less had decoded them once, so their floats come
# from the decode memo. Decoded: the same eviction, with the memo emptied,
# so both are decoded for the first time. Boxed and mantissa keep no memo,
# so their memoized and decoded rows agree; boxed reads its evicted
# handles from the arena. Heap: the miss path, with operands HEAP_A and
# HEAP_B, heap-bound under every preset that has a heap: box_float and
# box_host_float allocate, and generic_add of the two slot-held handles
# allocates its result.
HOT_PATH_OPCODES = {
    "reused": {
        "boxed": (65, 76, 23, 38, 57),
        "nanbox": (33, 52, 23, 16, 29),
        "nunbox": (35, 54, 23, 24, 31),
        "st1": (45, 64, 23, 26, 41),
        "st2biased": (45, 64, 23, 26, 41),
        "st2zeros": (47, 66, 23, 28, 43),
        "st3": (47, 66, 23, 28, 43),
        "st4": (47, 66, 23, 28, 43),
        "mantissa": (39, 58, 23, 18, 35),
    },
    "memoized": {
        "boxed": (65, 102, 49, 38, 57),
        "nanbox": (33, 76, 47, 16, 29),
        "nunbox": (35, 78, 47, 24, 31),
        "st1": (45, 88, 47, 26, 41),
        "st2biased": (45, 88, 47, 26, 41),
        "st2zeros": (47, 90, 47, 28, 43),
        "st3": (47, 90, 47, 28, 43),
        "st4": (47, 90, 47, 28, 43),
        "mantissa": (39, 86, 51, 18, 35),
    },
    "decoded": {
        "boxed": (65, 102, 49, 38, 57),
        "nanbox": (33, 122, 93, 16, 29),
        "nunbox": (35, 140, 109, 24, 31),
        "st1": (45, 154, 113, 26, 41),
        "st2biased": (45, 154, 113, 26, 41),
        "st2zeros": (47, 160, 117, 28, 43),
        "st3": (47, 160, 117, 28, 43),
        "st4": (47, 160, 117, 28, 43),
        "mantissa": (39, 86, 51, 18, 35),
    },
    "heap": {
        "boxed": (65, 76, 23, 38, 57),
        "st1": (84, 103, 23, 45, 80),
        "st2biased": (84, 103, 23, 45, 80),
        "st2zeros": (91, 110, 23, 45, 87),
        "st3": (84, 103, 23, 45, 80),
        "st4": (84, 103, 23, 45, 80),
        "mantissa": (82, 101, 23, 43, 78),
    },
}


# generic_add, generic_less, box_fixnum, unbox_fixnum on a fresh runtime,
# fixnum operands 3 and -5. The first operand passes the two slot tests
# and the memo lookup first, except under boxed and mantissa (no memo).
FIXNUM_PATH_OPCODES = {
    "boxed": (88, 68, 17, 26),
    "nanbox": (97, 79, 15, 26),
    "nunbox": (89, 71, 15, 20),
    "st1": (103, 83, 17, 26),
    "st2biased": (103, 83, 17, 26),
    "st2zeros": (103, 83, 17, 26),
    "st3": (103, 83, 17, 26),
    "st4": (103, 83, 17, 26),
    "mantissa": (93, 73, 17, 26),
}


def count_opcodes(fn, *args):
    """Bytecodes executed by fn(*args) and every Python call under it."""
    n = 0

    def local(frame, event, arg):
        nonlocal n
        n += event == "opcode"
        return local

    def start(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(start)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
    return n


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="bytecode counts are specific to CPython 3.11",
)
def test_hot_path_opcode_counts():
    evict = (float_to_bits(0.75), float_to_bits(3.5))
    got = {"reused": {}, "memoized": {}, "decoded": {}, "heap": {}}
    for row, counts in got.items():
        a, b = (HEAP_A, HEAP_B) if row == "heap" else (float_to_bits(1.5), float_to_bits(2.25))
        for name in HEAP_PRESETS if row == "heap" else ALL:
            rt = fresh(name)

            def operands():
                wa, wb = rt.box_float(a), rt.box_float(b)
                if row in ("memoized", "decoded"):
                    for bits in evict:
                        rt.box_float(bits)
                    rt._memo.clear()
                if row == "memoized":
                    rt.generic_less(wa, wb)
                return wa, wb

            box = count_opcodes(rt.box_float, a)
            add = count_opcodes(rt.generic_add, *operands())
            less = count_opcodes(rt.generic_less, *operands())
            unbox = count_opcodes(rt.unbox_float, operands()[0])
            counts[name] = (box, add, less, unbox, count_opcodes(rt.box_host_float, bits_to_float(a)))
    assert got == HOT_PATH_OPCODES


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="bytecode counts are specific to CPython 3.11",
)
def test_fixnum_path_opcode_counts():
    got = {}
    for name in ALL:
        rt = fresh(name)
        a, b = rt.box_fixnum(3), rt.box_fixnum(-5)
        got[name] = (
            count_opcodes(rt.generic_add, a, b),
            count_opcodes(rt.generic_less, a, b),
            count_opcodes(rt.box_fixnum, 3),
            count_opcodes(rt.unbox_fixnum, a),
        )
    assert got == FIXNUM_PATH_OPCODES
