"""The heap's float counters and a profile's total are derived from stored
state when read; here they are checked against a plain model that counts
each event as it happens."""

from hypothesis import given
from hypothesis import strategies as st

from tagbench.heap import HeapStats, SimHeap
from tagbench.profiler import FloatProfile
from tagbench.words import M64, bits_to_float

BITS = st.integers(0, M64)

# heap events; a float is allocated tagged (tag 0-7) or generic (None), and
# its bits go into one of two profiles
EVENTS = st.one_of(
    st.tuples(st.just("alloc"), BITS, st.none() | st.integers(0, 7), st.integers(0, 1)),
    st.tuples(st.just("preload"), st.integers(0, 40)),
    st.tuples(st.just("reset")),
)


class HeapModel:
    """Counts every event as it happens."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.cells = self.float_allocs = self.float_bytes = 0
        self.other_allocs = self.other_bytes = 0

    def fits(self, ncells):
        return self.cells + ncells <= self.capacity

    def alloc(self, ncells):
        self.cells += ncells
        self.float_allocs += 1
        self.float_bytes += 8 * ncells

    def preload(self, nbytes):
        ncells = (nbytes + 7) // 8
        self.cells += ncells
        if ncells:
            self.other_allocs += 1
            self.other_bytes += 8 * ncells

    def stats(self):
        return HeapStats(
            self.float_allocs, self.float_bytes, self.other_allocs, self.other_bytes, 0, 0
        )


@given(st.integers(1, 12), st.booleans(), st.lists(EVENTS, max_size=40))
def test_derived_counters_match_a_counting_model(capacity, zeros, events):
    heap, model = SimHeap(capacity), HeapModel(capacity)
    if zeros and capacity >= 2:  # st2zeros' two cells, before any reset
        alloc = heap.float_allocator(3)
        alloc(0.0)
        alloc(-0.0)
        model.alloc(1)
        model.alloc(1)
    profiles = [FloatProfile("a"), FloatProfile("b")]
    adds = [0, 0]
    for kind, *args in events:
        if kind == "reset":
            heap.reset_kernel_counters()
            model.float_allocs = model.float_bytes = 0
        elif kind == "preload":
            fits = model.fits((args[0] + 7) // 8)
            try:
                heap.preload(args[0])
            except MemoryError:
                assert not fits
            else:
                assert fits
                model.preload(args[0])
        else:
            bits, tag, which = args
            ncells = 2 if tag is None else 1
            fits = model.fits(ncells)
            try:
                heap.float_allocator(tag)(bits_to_float(bits))
            except MemoryError:
                assert not fits
            else:
                assert fits
                model.alloc(ncells)
            profiles[which].add(bits)
            adds[which] += 1
        assert heap.stats() == model.stats()
        assert heap.cells_used == model.cells
    a, b = profiles
    assert [a.total, b.total] == adds
