"""Simulated heap arena for boxed floats, with ballast as a count.

Cells are 8-byte words; a float reached through a tagged pointer costs one
cell, a float behind a generic pointer costs two (header + payload). There
is no collector: handles are arena indices shifted left 3 with the handle
tag in the low bits, and they stay valid for the life of the heap.

The arena stores whatever float payloads its allocation step is given.
That step is written once, as the source form ALLOC, over the names that
SimHeap.alloc_names binds for a handle tag; float_allocator compiles it
into a closure, and the Runtime expands it inline in its miss path. Each
st2zeros Runtime stores its own +0.0 and -0.0 cells through
float_allocator: the cells belong to the runtime, not the heap. A float's
type lives in its handle word: the tagged-pointer tag, or GENERIC_TAG for
the generic-pointer layout, whose header cell is charged but not stored.
Ballast (preload), which stands in for the program's other objects, is
counted against capacity, cells_used and the other_* counters but never
stored, so no handle can reach it.

The float counters are not kept but derived from the arena when read:
float_allocs is the growth of the payload array since the last counter
reset, and float_bytes is 8 bytes per float cell added since then, float
cells being cells_used less the ballast cells (other_bytes / 8). So the
allocation step keeps no counter of its own: it appends the payload and
adds the cells it takes to cells_used, and preload counts its ballast
allocations and bytes. Slow-path encodes and representation flips are
counted by the Runtime over the heap, so SimHeap.stats() reports them as
0 and Runtime.stats() fills them in."""

from array import array
from dataclasses import asdict, dataclass
from textwrap import indent

from .schemes import GENERIC_TAG

DEFAULT_CAPACITY = 1 << 24  # cells

# The allocation step: store float {x} in a new cell and bind {w} to its
# handle word, or raise MemoryError past capacity with nothing stored. It
# reads the names of SimHeap.alloc_names: heap, payload, capacity, cost
# (cells per float) and tag (the handle tag).
ALLOC = """if heap._cells + cost > capacity:
    raise MemoryError("simulated heap capacity exhausted")
{w} = len(payload) << 3 | tag
payload.append({x})
heap._cells += cost"""

_ALLOCATOR = compile(
    "def alloc(x):\n%s\n    return w" % indent(ALLOC.format(w="w", x="x"), "    "),
    "<heap alloc>",
    "exec",
)


@dataclass(frozen=True)
class HeapStats:
    float_allocs: int
    float_bytes: int
    other_allocs: int
    other_bytes: int
    slow_path_encodes: int
    representation_flips: int

    def as_dict(self):
        return asdict(self)


class SimHeap:
    """Arena of float cells with allocation accounting; ballast is
    counted, not stored.

    Single-owner mutable state; distinct instances are independent."""

    def __init__(self, capacity=DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._payload = array("d")
        self._cells = 0
        self._other_allocs = 0
        self._other_bytes = 0
        self._base = (0, 0)  # _float_totals() at the last counter reset

    @property
    def cells_used(self):
        return self._cells

    def alloc_names(self, tag=None):
        """The names ALLOC reads, bound for handle tag tag: this heap, its
        payload array, its capacity, the cells a float costs and the tag
        its handles carry. tag is 0-7, or None for the generic-pointer
        layout: the handle is tagged GENERIC_TAG and the header costs one
        more cell. Raises ValueError for any other tag, whose handles would
        collide."""
        if tag is not None and not 0 <= tag <= 7:
            raise ValueError("tag out of [0, 7]: %r" % (tag,))
        generic = tag is None
        return dict(
            heap=self,
            payload=self._payload,
            capacity=self.capacity,
            cost=2 if generic else 1,
            tag=GENERIC_TAG if generic else tag,
        )

    def float_allocator(self, tag=None):
        """A closure that runs ALLOC: it stores a float payload in a new
        cell and returns its handle word, the cell index shifted left 3
        with tag in the low bits (see alloc_names for tag). Raises
        ValueError here for an invalid tag, and MemoryError from the
        closure past capacity."""
        ns = self.alloc_names(tag)
        exec(_ALLOCATOR, ns)
        return ns.pop("alloc")

    def preload(self, nbytes):
        """Count one ballast vector of at least nbytes (rounded up to whole
        cells) against capacity and cells_used, and under
        other_allocs/other_bytes. Nothing is stored."""
        if nbytes < 0:
            raise ValueError("negative preload: %d" % nbytes)
        if nbytes == 0:
            return
        ncells = (nbytes + 7) // 8
        if self._cells + ncells > self.capacity:
            raise MemoryError("simulated heap capacity exhausted")
        self._cells += ncells
        self._other_allocs += 1
        self._other_bytes += 8 * ncells

    def _float_totals(self):
        # (float cells stored, arena cells they take): every cell that is
        # not ballast holds a float, and ballast takes 8 bytes a cell
        return len(self._payload), self._cells - self._other_bytes // 8

    def reset_kernel_counters(self):
        """Start the float counters from zero by recording where the arena
        stands; ballast accounting and all allocated cells are retained."""
        self._base = self._float_totals()

    def stats(self):
        """The heap's counters, the float ones derived from the arena's
        growth since the last reset; slow_path_encodes and
        representation_flips are 0 here, because the Runtime counts them."""
        allocs, cells = self._float_totals()
        base_allocs, base_cells = self._base
        return HeapStats(
            float_allocs=allocs - base_allocs,
            float_bytes=8 * (cells - base_cells),
            other_allocs=self._other_allocs,
            other_bytes=self._other_bytes,
            slow_path_encodes=0,
            representation_flips=0,
        )
