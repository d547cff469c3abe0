import pytest
from hypothesis import given
from hypothesis import strategies as st

from tagbench.heap import HeapStats, SimHeap
from tagbench.runtime import Runtime
from tagbench.schemes import BOXED, GENERIC_TAG, SchemeConfig
from tagbench.words import M64, bits_to_float, float_to_bits


def store(h, bits, tag):
    """Store float bits in h through its allocator; returns the handle."""
    return h.float_allocator(tag)(bits_to_float(bits))


def reader(h, tag):
    """A boxed-scheme Runtime over h whose heap floats carry tag (None for
    the generic-pointer layout): its unbox_float reads a handle's payload
    bits, checked by handle tag and arena bound."""
    return Runtime(SchemeConfig("heap", BOXED, heap_float_tag=tag), h)


def assert_not_float(rt, w):
    with pytest.raises(TypeError, match="not a float word"):
        rt.unbox_float(w)
    assert not rt.is_float_value(w)


def test_tagged_alloc_roundtrip():
    h = SimHeap()
    w = store(h, float_to_bits(2.5), 5)
    assert w & 7 == 5
    assert reader(h, 5).unbox_float(w) == float_to_bits(2.5)
    s = h.stats()
    assert s.float_allocs == 1
    assert s.float_bytes == 8
    assert h.cells_used == 1


def test_generic_alloc_costs_two_cells():
    h = SimHeap()
    w = store(h, float_to_bits(-1.5), None)
    assert w & 7 == GENERIC_TAG
    assert reader(h, None).unbox_float(w) == float_to_bits(-1.5)
    s = h.stats()
    assert s.float_allocs == 1
    assert s.float_bytes == 16
    assert h.cells_used == 2


@given(st.integers(min_value=0, max_value=M64))
def test_payload_is_bit_exact(bits):
    # NaN payloads and -0.0 must survive storage unchanged
    h = SimHeap()
    assert reader(h, 3).unbox_float(store(h, bits, 3)) == bits


def test_handles_stay_valid_and_independent():
    h = SimHeap()
    words = [store(h, float_to_bits(float(i)), 2) for i in range(100)]
    rt = reader(h, 2)
    for i, w in enumerate(words):
        assert rt.unbox_float(w) == float_to_bits(float(i))
    assert h.stats().float_allocs == 100


def test_read_rejects_bad_handles():
    h = SimHeap()
    w = store(h, float_to_bits(1.0), 4)
    rt = reader(h, 4)
    assert_not_float(rt, (1 << 3) | 4)  # index past the arena
    assert_not_float(rt, -4)  # a negative index would read the arena from its end
    assert_not_float(rt, (w & ~7) | 3)  # right cell, wrong tag


def test_capacity_exhaustion():
    h = SimHeap(capacity=3)
    store(h, 0, 2)
    store(h, 0, 2)
    store(h, 0, 2)
    with pytest.raises(MemoryError, match="capacity exhausted"):
        store(h, 0, 2)
    h2 = SimHeap(capacity=3)
    store(h2, 0, 2)
    store(h2, 0, 2)
    with pytest.raises(MemoryError, match="capacity exhausted"):
        store(h2, 0, None)  # generic needs 2 cells, only 1 left
    with pytest.raises(ValueError):
        SimHeap(capacity=0)


def test_preload_accounting():
    h = SimHeap()
    h.preload(100)  # 13 cells
    s = h.stats()
    assert s.other_allocs == 1
    assert s.other_bytes == 104
    assert s.float_allocs == 0
    assert h.cells_used == 13
    h.preload(0)  # no-op
    assert h.stats().other_allocs == 1
    with pytest.raises(ValueError, match="negative preload"):
        h.preload(-1)


def test_preload_cells_are_not_floats():
    h = SimHeap()
    h.preload(8)
    assert_not_float(reader(h, None), 0 << 3 | GENERIC_TAG)


def test_preload_uses_up_capacity():
    h = SimHeap(capacity=10)
    h.preload(64)  # 8 of the 10 cells
    store(h, 0, 2)
    store(h, 0, 2)
    with pytest.raises(MemoryError, match="capacity exhausted"):
        store(h, 0, 2)
    g = SimHeap(capacity=10)
    g.preload(64)
    store(g, 0, None)  # header + payload: the last 2 cells
    with pytest.raises(MemoryError, match="capacity exhausted"):
        store(g, 0, None)


def test_reset_keeps_ballast_counters():
    h = SimHeap()
    h.preload(64)
    store(h, 0, 2)
    h.reset_kernel_counters()
    s = h.stats()
    assert s.float_allocs == 0
    assert s.float_bytes == 0
    assert s.other_allocs == 1
    assert s.other_bytes == 64
    assert h.cells_used == 9  # cells themselves are retained


def test_stats_as_dict_shape():
    d = SimHeap().stats().as_dict()
    assert list(d) == [
        "float_allocs",
        "float_bytes",
        "other_allocs",
        "other_bytes",
        "slow_path_encodes",
        "representation_flips",
    ]
    assert isinstance(SimHeap().stats(), HeapStats)
