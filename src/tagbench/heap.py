"""Simulated heap arena for boxed floats, with ballast as a count.

Cells are 8-byte words; a float reached through a tagged pointer costs one
cell, a float behind a generic pointer costs two (header + payload). There
is no collector: handles are arena indices shifted left 3 with the handle
tag in the low bits, and they stay valid for the life of the heap.

The arena stores float cells only. Ballast (preload), which stands in for
the program's other objects, is counted against capacity, cells_used and
the other_* counters but never stored, so no handle can reach it.

Counter slots live in a plain list (heap._c) so the runtime's compiled
closures can update them without attribute lookups; the indices below are
the shared layout."""

from array import array
from dataclasses import dataclass

from .words import bits_to_float, float_to_bits

GENERIC_TAG = 1  # handle tag shared by every generic-pointer object

DEFAULT_CAPACITY = 1 << 24  # cells

NEG_ZERO_BITS = 0x8000000000000000

# indices into SimHeap._c
C_FLOAT_ALLOCS = 0
C_FLOAT_BYTES = 1
C_OTHER_ALLOCS = 2
C_OTHER_BYTES = 3
C_SLOW_ENCODES = 4
C_FLIPS = 5
C_LAST_OUTCOME = 6  # 0 fast, 1 slow, 2 nothing encoded yet


@dataclass(frozen=True)
class HeapStats:
    float_allocs: int
    float_bytes: int
    other_allocs: int
    other_bytes: int
    slow_path_encodes: int
    representation_flips: int

    def as_dict(self):
        return {
            "float_allocs": self.float_allocs,
            "float_bytes": self.float_bytes,
            "other_allocs": self.other_allocs,
            "other_bytes": self.other_bytes,
            "slow_path_encodes": self.slow_path_encodes,
            "representation_flips": self.representation_flips,
        }


class SimHeap:
    """Arena of float cells with allocation accounting; ballast is
    counted, not stored.

    Single-owner mutable state; distinct instances are independent."""

    def __init__(self, capacity=DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._payload = array("d")
        self._tags = bytearray()
        self._cells = 0
        self._c = [0, 0, 0, 0, 0, 0, 2]
        self._zero_handles = None

    @property
    def cells_used(self):
        return self._cells

    @property
    def zero_handles(self):
        """(+0.0 handle, -0.0 handle) after preallocate_zeros, else None."""
        return self._zero_handles

    def alloc_float(self, bits, tag=None):
        """Store a float cell and return its handle word. tag is the
        tagged-pointer tag, or None for the generic-pointer layout
        (handle tagged GENERIC_TAG, one extra header word of cost)."""
        if tag is not None and not 0 <= tag <= 7:
            raise ValueError("tag out of [0, 7]: %r" % (tag,))
        return self.float_allocator(tag)(bits_to_float(bits))

    def float_allocator(self, tag=None):
        """The float-cell allocation of alloc_float as a closure over this
        heap's arrays and counter slots, taking the payload as a float and
        returning the handle word; tag as in alloc_float, not validated.
        The runtime's compiled closures allocate through it."""
        generic = tag is None
        handle_tag = GENERIC_TAG if generic else tag
        cost = 2 if generic else 1
        nbytes = 16 if generic else 8
        payload = self._payload
        tags = self._tags
        c = self._c
        cap = self.capacity

        def alloc(f):
            if self._cells + cost > cap:
                raise MemoryError("simulated heap capacity exhausted")
            i = len(payload)
            payload.append(f)
            tags.append(handle_tag)
            self._cells += cost
            c[C_FLOAT_ALLOCS] += 1
            c[C_FLOAT_BYTES] += nbytes
            return (i << 3) | handle_tag

        return alloc

    def read_float(self, w):
        """Bit-exact payload of a float handle."""
        idx = w >> 3
        if not 0 <= idx < len(self._payload):
            raise TypeError("not a live handle: 0x%016x" % w)
        if self._tags[idx] != w & 7:
            raise TypeError("not a float handle: 0x%016x" % w)
        return float_to_bits(self._payload[idx])

    def preallocate_zeros(self, tag=None):
        """Allocate the +-0.0 cells once; returns their handle words."""
        if self._zero_handles is not None:
            raise RuntimeError("zeros already preallocated")
        pos = self.alloc_float(0, tag)
        neg = self.alloc_float(NEG_ZERO_BITS, tag)
        self._zero_handles = (pos, neg)
        return self._zero_handles

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
        c = self._c
        c[C_OTHER_ALLOCS] += 1
        c[C_OTHER_BYTES] += 8 * ncells

    def reset_kernel_counters(self):
        """Zero the float/encode counters; ballast accounting and all
        allocated cells are retained."""
        c = self._c
        c[C_FLOAT_ALLOCS] = 0
        c[C_FLOAT_BYTES] = 0
        c[C_SLOW_ENCODES] = 0
        c[C_FLIPS] = 0
        c[C_LAST_OUTCOME] = 2

    def stats(self):
        c = self._c
        return HeapStats(
            float_allocs=c[C_FLOAT_ALLOCS],
            float_bytes=c[C_FLOAT_BYTES],
            other_allocs=c[C_OTHER_ALLOCS],
            other_bytes=c[C_OTHER_BYTES],
            slow_path_encodes=c[C_SLOW_ENCODES],
            representation_flips=c[C_FLIPS],
        )
