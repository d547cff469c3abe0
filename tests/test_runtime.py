import math
import operator
from itertools import islice

import pytest

from tagbench.batch import boundary_words64
from tagbench.heap import GENERIC_TAG, NEG_ZERO_BITS, SimHeap
from tagbench.prng import splitmix64
from tagbench.runtime import (
    NAN_FIXNUM_MAX,
    NAN_FIXNUM_MIN,
    NUN_FIXNUM_MAX,
    NUN_FIXNUM_MIN,
    Runtime,
)
from tagbench.schemes import (
    NAN_CANON,
    NUN_CANON_MIN,
    ONE_TAG,
    PRESETS,
    SELF_TAG_PRESETS,
    SchemeConfig,
    covers,
)
from tagbench.words import (
    FIXNUM_MAX,
    FIXNUM_MIN,
    M64,
    QNAN_64,
    bits_to_float,
    float_to_bits,
    ieee_div,
)

ALL = tuple(PRESETS)

ONE = float_to_bits(1.0)
HALF15 = float_to_bits(1.5)
TINY = float_to_bits(1e-100)  # class 10: missed by every exponent preset
BIG = float_to_bits(1e300)    # class 31: missed by st3 and st2zeros only


def fresh(name, **kw):
    return Runtime(PRESETS[name], SimHeap(), **kw)


def expected_unbox(name, bits):
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
    for bits in boundary_words64():
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
            name == "st2zeros" and bits in (0, NEG_ZERO_BITS)
        ):
            allocs += 1
        assert rt.stats().float_allocs == allocs


def test_boxed_always_allocates():
    rt = fresh("boxed")
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
        rt.box_float(bits)
    s = rt.stats()
    assert s.float_allocs == 0
    assert s.float_bytes == 0
    assert s.slow_path_encodes == 0
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
    assert heap.zero_handles is not None
    assert rt.stats().float_allocs == 2  # the two preallocated cells
    rt.reset_kernel_counters()
    pos = rt.box_float(0)
    neg = rt.box_float(NEG_ZERO_BITS)
    assert (pos, neg) == heap.zero_handles
    s = rt.stats()
    assert s.float_allocs == 0  # zeros reuse the preallocated cells
    assert s.slow_path_encodes == 2
    assert rt.unbox_float(pos) == 0
    assert rt.unbox_float(neg) == NEG_ZERO_BITS
    # a second runtime over the same heap reuses the cells
    rt2 = Runtime(PRESETS["st2zeros"], heap)
    assert rt2.box_float(0) == pos


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
    assert fresh(name).fixnum_tag == EXPECTED_FIXNUM_TAG[name]


@pytest.mark.parametrize("name", ALL)
def test_fixnum_add_five_seven(name):
    rt = fresh(name)
    rt.reset_kernel_counters()  # discount st2zeros preallocation
    w = rt.generic_add(rt.box_fixnum(5), rt.box_fixnum(7))
    assert rt.is_fixnum_value(w)
    assert rt.unbox_fixnum(w) == 12
    if rt.fixnum_tag is not None:
        assert w == (12 << 3) | rt.fixnum_tag
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
    # handles of the first index past the arena and of one far beyond it
    for dangling in (last + 8, last + (1000 << 3)):
        assert not rt.is_float_value(dangling)
        with pytest.raises(TypeError, match="not a float word"):
            rt.unbox_float(dangling)
        for op in (rt.generic_add, rt.generic_sub, rt.generic_mul, rt.generic_div, rt.generic_less):
            with pytest.raises(TypeError, match="mixed or non-numeric"):
                op(dangling, f)
            with pytest.raises(TypeError, match="mixed or non-numeric"):
                op(f, dangling)


# operator's functions, not inline x + y: with two NaN operands, which
# payload survives depends on the C code path that adds, and the runtime
# adds through these
REFERENCE_OPS = (
    ("generic_add", operator.add),
    ("generic_sub", operator.sub),
    ("generic_mul", operator.mul),
    ("generic_div", ieee_div),
)


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
