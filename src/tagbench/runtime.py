"""Dynamic-language value runtime over one float representation scheme.

A Runtime owns a SimHeap and exposes the value operations a small
interpreter would have: box/unbox floats, fixnum construction, union type
tests, and generic arithmetic that dispatches on the operand
representations. The float paths are compiled to per-scheme closures at
construction so the per-operation cost is flat: scheme constants, tag
masks, counter cells and heap internals are bound once instead of being
looked up on every call.

Every float<->bits conversion in those closures goes through one 8-byte
buffer owned by the Runtime, seen through two memoryviews: an unsigned
64-bit view and a binary64 view of the same bytes. A conversion is a store
to one view and a load from the other, bit-exact (signalling-NaN payloads
included) and free of struct calls, bytes objects and tuples. The buffer
is shared state, so it relies on two conditions: a Runtime has a single
owner and is not shared between threads, like the SimHeap under it; and
nothing (profile hook, float operation, heap allocation) is called between
a store into the buffer and the load that reads it back.

Fixnum placement per scheme:
  - tagged-pointer and self-tagging schemes use the 61-bit two's-complement
    word (value << 3) retagged with the first low-bit tag the scheme leaves
    free (tag 000 everywhere except the mantissa scheme, which claims 000
    and 100 for floats and pushes fixnums to 001);
  - NaN boxing carries fixnums as non-float payloads (payload tag 001),
    so the value range narrows to 48 bits;
  - NuN boxing keeps the canonical word but only where the top 16 bits
    stay in the reserved non-float classes, narrowing the range to 46 bits.
"""

from operator import add as _f_add, mul as _f_mul, sub as _f_sub

from .heap import (
    C_FLOAT_ALLOCS,
    C_FLOAT_BYTES,
    C_FLIPS,
    C_LAST_OUTCOME,
    C_SLOW_ENCODES,
    GENERIC_TAG,
    KIND_FLOAT,
    KIND_FLOAT_GENERIC,
    NEG_ZERO_BITS,
    SimHeap,
)
from .schemes import (
    BOXED,
    MANTISSA,
    NAN_CANON,
    NAN_PAYLOAD_MASK,
    NANBOX,
    NUN_BIAS,
    NUN_CANON_MIN,
    NUNBOX,
    ONE_TAG,
    ROT4_VARIANTS,
    SELF_TAG_VARIANTS,
    TWO_TAG_ZEROS,
    nan_box_nonfloat,
    self_tag_set,
)
from .words import FIXNUM_MAX, FIXNUM_MIN, M64, SIGN_64, ieee_div

NAN_FIXNUM_TAG = 1  # payload tag carrying fixnums under NaN boxing
NAN_FIXNUM_MIN = -(1 << 47)
NAN_FIXNUM_MAX = (1 << 47) - 1
NUN_FIXNUM_MIN = -(1 << 45)
NUN_FIXNUM_MAX = (1 << 45) - 1

_TYPE_ERR = "mixed or non-numeric operands"
_RANGE_ERR = "float bits out of [0, 2**64): %r"


def _tagged_fixnum_rep(fxt):
    def is_fix(w):
        return w & 7 == fxt

    def dec(w):
        w -= fxt
        if w & SIGN_64:
            w -= 1 << 64
        return w >> 3

    def enc(v):
        return ((v << 3) & M64) | fxt

    return is_fix, dec, enc, FIXNUM_MIN, FIXNUM_MAX


def _nan_fixnum_rep():
    def is_fix(w):
        return w > NAN_CANON and (w >> 48) & 7 == NAN_FIXNUM_TAG

    def dec(w):
        p = w & NAN_PAYLOAD_MASK
        return p - (1 << 48) if p >> 47 else p

    def enc(v):
        return nan_box_nonfloat(NAN_FIXNUM_TAG, v & NAN_PAYLOAD_MASK)

    return is_fix, dec, enc, NAN_FIXNUM_MIN, NAN_FIXNUM_MAX


def _nun_fixnum_rep():
    def is_fix(w):
        t = w >> 48
        return (t == 0 or t == 0xFFFF) and w & 7 == 0

    def dec(w):
        if w & SIGN_64:
            w -= 1 << 64
        return w >> 3

    def enc(v):
        return (v << 3) & M64

    return is_fix, dec, enc, NUN_FIXNUM_MIN, NUN_FIXNUM_MAX


def _fixnum_fallbacks(rep):
    """Generic-op tails for operands that were not floats: both fixnums
    compute, anything else is a type error."""
    is_fix, dec, enc, lo, hi = rep

    def guard(aw, bw):
        if not (is_fix(aw) and is_fix(bw)):
            raise TypeError(_TYPE_ERR)

    def fadd(aw, bw):
        guard(aw, bw)
        v = dec(aw) + dec(bw)
        if not lo <= v <= hi:
            raise OverflowError("fixnum overflow: %d" % v)
        return enc(v)

    def fsub(aw, bw):
        guard(aw, bw)
        v = dec(aw) - dec(bw)
        if not lo <= v <= hi:
            raise OverflowError("fixnum overflow: %d" % v)
        return enc(v)

    def fmul(aw, bw):
        guard(aw, bw)
        v = dec(aw) * dec(bw)
        if not lo <= v <= hi:
            raise OverflowError("fixnum overflow: %d" % v)
        return enc(v)

    def fdiv(aw, bw):
        # floor quotient; a zero divisor propagates ZeroDivisionError
        guard(aw, bw)
        v = dec(aw) // dec(bw)
        if not lo <= v <= hi:
            raise OverflowError("fixnum overflow: %d" % v)
        return enc(v)

    def fless(aw, bw):
        guard(aw, bw)
        return dec(aw) < dec(bw)

    return fadd, fsub, fmul, fdiv, fless


class Runtime:
    """Value operations of one scheme over one heap.

    profile_hook, when given, is called with the raw float bits of every
    boxing event before encoding; it is how the distribution profiler taps
    a run without touching kernel code.

    box_float takes float bits in [0, 2**64) and raises ValueError for
    anything else, under every scheme. Words that are not floats, dangling
    heap handles included, make unbox_float and the generic operations
    raise TypeError and is_float_value return False. (A tagged-pointer
    handle to a ballast cell is not caught: it reads as a float.)

    The float<->bits conversions of every operation share one 8-byte
    buffer per Runtime (_mq/_md, two views of the same bytes), so a Runtime
    has a single owner and must not be shared between threads."""

    def __init__(self, scheme, heap=None, profile_hook=None):
        self.scheme = scheme
        self.heap = SimHeap() if heap is None else heap
        self.profile_hook = profile_hook
        self._boxes = [0]
        buf = bytearray(8)
        self._mq = memoryview(buf).cast("Q")
        self._md = memoryview(buf).cast("d")
        self.fixnum_tag = self._derive_fixnum_tag()
        if scheme.variant == TWO_TAG_ZEROS and self.heap.zero_handles is None:
            self.heap.preallocate_zeros(scheme.heap_float_tag)
        self._compile()

    def _derive_fixnum_tag(self):
        scheme = self.scheme
        if scheme.variant == NANBOX:
            return None  # fixnums live in payload space, not low bits
        if scheme.variant == NUNBOX:
            return 0
        hft = scheme.heap_float_tag
        used = 1 << (GENERIC_TAG if hft is None else hft)
        if scheme.variant in SELF_TAG_VARIANTS:
            used |= self_tag_set(scheme)
        for t in range(8):
            if not (used >> t) & 1:
                return t
        raise ValueError("no low-bit tag left for fixnums")

    # -- counters ---------------------------------------------------------

    @property
    def boxes_total(self):
        return self._boxes[0]

    def reset_kernel_counters(self):
        self.heap.reset_kernel_counters()
        self._boxes[0] = 0

    def stats(self):
        return self.heap.stats()

    def hit_ratio(self):
        """Fraction of boxing events that stayed immediate since the last
        counter reset. Pure schemes are 1.0 by construction, the boxed
        baseline 0.0."""
        v = self.scheme.variant
        if v == NANBOX or v == NUNBOX:
            return 1.0
        if v == BOXED:
            return 0.0
        b = self._boxes[0]
        if b == 0:
            return 1.0
        return 1.0 - self.heap._c[C_FLOAT_ALLOCS] / b

    # -- fixnum api -------------------------------------------------------

    def box_fixnum(self, v):
        is_fix, dec, enc, lo, hi = self._fixrep
        if not lo <= v <= hi:
            raise OverflowError("fixnum out of range: %d" % v)
        return enc(v)

    def unbox_fixnum(self, w):
        is_fix, dec, enc, lo, hi = self._fixrep
        if not is_fix(w):
            raise TypeError("not a fixnum word: 0x%016x" % w)
        return dec(w)

    def is_fixnum_value(self, w):
        return self._fixrep[0](w)

    # -- compilation ------------------------------------------------------

    def _compile(self):
        variant = self.scheme.variant
        if variant == NANBOX:
            self._fixrep = _nan_fixnum_rep()
            self._build_nan()
        elif variant == NUNBOX:
            self._fixrep = _nun_fixnum_rep()
            self._build_nun()
        elif variant == BOXED:
            self._fixrep = _tagged_fixnum_rep(self.fixnum_tag)
            self._build_boxed()
        elif variant == MANTISSA:
            self._fixrep = _tagged_fixnum_rep(self.fixnum_tag)
            self._build_mantissa()
        elif variant in ROT4_VARIANTS:
            self._fixrep = _tagged_fixnum_rep(self.fixnum_tag)
            self._build_rot4()
        else:
            self._fixrep = _tagged_fixnum_rep(self.fixnum_tag)
            self._build_rot5()

    def _make_alloc(self, handle_tag, generic):
        """Float-cell allocator closure; mirrors SimHeap.alloc_float with
        the bits/float conversion hoisted out (payloads arrive as floats)."""
        heap = self.heap
        payload = heap._payload
        kinds = heap._kinds
        tags = heap._tags
        c = heap._c
        cap = heap.capacity
        kind = KIND_FLOAT_GENERIC if generic else KIND_FLOAT
        cost = 2 if generic else 1
        nbytes = 16 if generic else 8

        def alloc(f):
            if heap._cells + cost > cap:
                raise MemoryError("simulated heap capacity exhausted")
            i = len(payload)
            payload.append(f)
            kinds.append(kind)
            tags.append(handle_tag)
            heap._cells += cost
            c[C_FLOAT_ALLOCS] += 1
            c[C_FLOAT_BYTES] += nbytes
            return (i << 3) | handle_tag

        return alloc

    def _assign(self, box, unbox, is_float, make_arith, less, fixops):
        fadd, fsub, fmul, fdiv, fless = fixops
        self.box_float = box
        self.unbox_float = unbox
        self.is_float_value = is_float
        self.generic_add = make_arith(_f_add, fadd)
        self.generic_sub = make_arith(_f_sub, fsub)
        self.generic_mul = make_arith(_f_mul, fmul)
        self.generic_div = make_arith(ieee_div, fdiv)
        self.generic_less = less

    # Each _build_* below wires the same surface; they differ only in the
    # word<->float forms, inlined rather than shared so the hot arithmetic
    # closures stay free of per-call indirection.

    def _build_rot5(self):
        scheme = self.scheme
        heap = self.heap
        hook = self.profile_hook
        boxes = self._boxes
        c = heap._c
        payload = heap._payload
        kinds = heap._kinds
        mq, md = self._mq, self._md
        m = self_tag_set(scheme)
        step = 1 + 2 * scheme.tag if scheme.variant == ONE_TAG else 2 * scheme.tag
        bias = (step << 58) & M64
        hft = scheme.heap_float_tag
        generic = hft is None
        ht = GENERIC_TAG if generic else hft
        alloc = self._make_alloc(ht, generic)
        fixops = _fixnum_fallbacks(self._fixrep)

        def box(bits):
            if not 0 <= bits <= M64:
                raise ValueError(_RANGE_ERR % (bits,))
            if hook is not None:
                hook(bits)
            boxes[0] += 1
            v = (bits + bias) & M64
            w = ((v << 5) & M64) | (v >> 59)
            if (m >> (w & 7)) & 1:
                if c[6] != 0:
                    if c[6] != 2:
                        c[5] += 1
                    c[6] = 0
                return w
            c[4] += 1
            if c[6] != 1:
                if c[6] != 2:
                    c[5] += 1
                c[6] = 1
            mq[0] = bits
            return alloc(md[0])

        def unbox(w):
            t = w & 7
            if (m >> t) & 1:
                u = (w >> 5) | ((w & 31) << 59)
                return (u - bias) & M64
            try:
                if t == ht and (not generic or kinds[w >> 3] == KIND_FLOAT_GENERIC):
                    md[0] = payload[w >> 3]
                    return mq[0]
            except IndexError:  # dangling handle
                pass
            raise TypeError("not a float word: 0x%016x" % w)

        def is_float(w):
            t = w & 7
            if (m >> t) & 1:
                return True
            return t == ht and (w >> 3) < len(kinds) and (
                not generic or kinds[w >> 3] == KIND_FLOAT_GENERIC
            )

        def make_arith(fop, fixop):
            def arith(aw, bw):
                try:
                    t = aw & 7
                    if (m >> t) & 1:
                        u = (aw >> 5) | ((aw & 31) << 59)
                        mq[0] = (u - bias) & M64
                        xa = md[0]
                    elif t == ht and (not generic or kinds[aw >> 3] == KIND_FLOAT_GENERIC):
                        xa = payload[aw >> 3]
                    else:
                        return fixop(aw, bw)
                    t = bw & 7
                    if (m >> t) & 1:
                        u = (bw >> 5) | ((bw & 31) << 59)
                        mq[0] = (u - bias) & M64
                        xb = md[0]
                    elif t == ht and (not generic or kinds[bw >> 3] == KIND_FLOAT_GENERIC):
                        xb = payload[bw >> 3]
                    else:
                        raise TypeError(_TYPE_ERR)
                except IndexError:  # dangling handle
                    raise TypeError(_TYPE_ERR) from None
                r = fop(xa, xb)
                md[0] = r
                bits = mq[0]
                if hook is not None:
                    hook(bits)
                boxes[0] += 1
                v = (bits + bias) & M64
                w = ((v << 5) & M64) | (v >> 59)
                if (m >> (w & 7)) & 1:
                    if c[6] != 0:
                        if c[6] != 2:
                            c[5] += 1
                        c[6] = 0
                    return w
                c[4] += 1
                if c[6] != 1:
                    if c[6] != 2:
                        c[5] += 1
                    c[6] = 1
                return alloc(r)

            return arith

        fless = fixops[4]

        def less(aw, bw):
            try:
                t = aw & 7
                if (m >> t) & 1:
                    u = (aw >> 5) | ((aw & 31) << 59)
                    mq[0] = (u - bias) & M64
                    xa = md[0]
                elif t == ht and (not generic or kinds[aw >> 3] == KIND_FLOAT_GENERIC):
                    xa = payload[aw >> 3]
                else:
                    return fless(aw, bw)
                t = bw & 7
                if (m >> t) & 1:
                    u = (bw >> 5) | ((bw & 31) << 59)
                    mq[0] = (u - bias) & M64
                    xb = md[0]
                elif t == ht and (not generic or kinds[bw >> 3] == KIND_FLOAT_GENERIC):
                    xb = payload[bw >> 3]
                else:
                    raise TypeError(_TYPE_ERR)
            except IndexError:  # dangling handle
                raise TypeError(_TYPE_ERR) from None
            return xa < xb

        self._assign(box, unbox, is_float, make_arith, less, fixops)

    def _build_rot4(self):
        scheme = self.scheme
        heap = self.heap
        hook = self.profile_hook
        boxes = self._boxes
        c = heap._c
        payload = heap._payload
        kinds = heap._kinds
        mq, md = self._mq, self._md
        m = self_tag_set(scheme)
        off = scheme.offset
        hft = scheme.heap_float_tag
        generic = hft is None
        ht = GENERIC_TAG if generic else hft
        alloc = self._make_alloc(ht, generic)
        fixops = _fixnum_fallbacks(self._fixrep)
        if scheme.variant == TWO_TAG_ZEROS:
            pz_pos, pz_neg = self.heap.zero_handles
        else:
            pz_pos = pz_neg = None
        zeros = pz_pos is not None

        def box(bits):
            if not 0 <= bits <= M64:
                raise ValueError(_RANGE_ERR % (bits,))
            if hook is not None:
                hook(bits)
            boxes[0] += 1
            if zeros and (bits == 0 or bits == NEG_ZERO_BITS):
                c[4] += 1
                if c[6] != 1:
                    if c[6] != 2:
                        c[5] += 1
                    c[6] = 1
                return pz_pos if bits == 0 else pz_neg
            w = ((((bits << 4) & M64) | (bits >> 60)) + off) & M64
            if (m >> (w & 7)) & 1:
                if c[6] != 0:
                    if c[6] != 2:
                        c[5] += 1
                    c[6] = 0
                return w
            c[4] += 1
            if c[6] != 1:
                if c[6] != 2:
                    c[5] += 1
                c[6] = 1
            mq[0] = bits
            return alloc(md[0])

        def unbox(w):
            t = w & 7
            if (m >> t) & 1:
                u = (w - off) & M64
                return (u >> 4) | ((u & 15) << 60)
            try:
                if t == ht and (not generic or kinds[w >> 3] == KIND_FLOAT_GENERIC):
                    md[0] = payload[w >> 3]
                    return mq[0]
            except IndexError:  # dangling handle
                pass
            raise TypeError("not a float word: 0x%016x" % w)

        def is_float(w):
            t = w & 7
            if (m >> t) & 1:
                return True
            return t == ht and (w >> 3) < len(kinds) and (
                not generic or kinds[w >> 3] == KIND_FLOAT_GENERIC
            )

        def make_arith(fop, fixop):
            def arith(aw, bw):
                try:
                    t = aw & 7
                    if (m >> t) & 1:
                        u = (aw - off) & M64
                        mq[0] = (u >> 4) | ((u & 15) << 60)
                        xa = md[0]
                    elif t == ht and (not generic or kinds[aw >> 3] == KIND_FLOAT_GENERIC):
                        xa = payload[aw >> 3]
                    else:
                        return fixop(aw, bw)
                    t = bw & 7
                    if (m >> t) & 1:
                        u = (bw - off) & M64
                        mq[0] = (u >> 4) | ((u & 15) << 60)
                        xb = md[0]
                    elif t == ht and (not generic or kinds[bw >> 3] == KIND_FLOAT_GENERIC):
                        xb = payload[bw >> 3]
                    else:
                        raise TypeError(_TYPE_ERR)
                except IndexError:  # dangling handle
                    raise TypeError(_TYPE_ERR) from None
                r = fop(xa, xb)
                md[0] = r
                bits = mq[0]
                if hook is not None:
                    hook(bits)
                boxes[0] += 1
                if zeros and (bits == 0 or bits == NEG_ZERO_BITS):
                    c[4] += 1
                    if c[6] != 1:
                        if c[6] != 2:
                            c[5] += 1
                        c[6] = 1
                    return pz_pos if bits == 0 else pz_neg
                w = ((((bits << 4) & M64) | (bits >> 60)) + off) & M64
                if (m >> (w & 7)) & 1:
                    if c[6] != 0:
                        if c[6] != 2:
                            c[5] += 1
                        c[6] = 0
                    return w
                c[4] += 1
                if c[6] != 1:
                    if c[6] != 2:
                        c[5] += 1
                    c[6] = 1
                return alloc(r)

            return arith

        fless = fixops[4]

        def less(aw, bw):
            try:
                t = aw & 7
                if (m >> t) & 1:
                    u = (aw - off) & M64
                    mq[0] = (u >> 4) | ((u & 15) << 60)
                    xa = md[0]
                elif t == ht and (not generic or kinds[aw >> 3] == KIND_FLOAT_GENERIC):
                    xa = payload[aw >> 3]
                else:
                    return fless(aw, bw)
                t = bw & 7
                if (m >> t) & 1:
                    u = (bw - off) & M64
                    mq[0] = (u >> 4) | ((u & 15) << 60)
                    xb = md[0]
                elif t == ht and (not generic or kinds[bw >> 3] == KIND_FLOAT_GENERIC):
                    xb = payload[bw >> 3]
                else:
                    raise TypeError(_TYPE_ERR)
            except IndexError:  # dangling handle
                raise TypeError(_TYPE_ERR) from None
            return xa < xb

        self._assign(box, unbox, is_float, make_arith, less, fixops)

    def _build_mantissa(self):
        scheme = self.scheme
        heap = self.heap
        hook = self.profile_hook
        boxes = self._boxes
        c = heap._c
        payload = heap._payload
        kinds = heap._kinds
        mq, md = self._mq, self._md
        hft = scheme.heap_float_tag
        generic = hft is None
        ht = GENERIC_TAG if generic else hft
        alloc = self._make_alloc(ht, generic)
        fixops = _fixnum_fallbacks(self._fixrep)

        def box(bits):
            if not 0 <= bits <= M64:
                raise ValueError(_RANGE_ERR % (bits,))
            if hook is not None:
                hook(bits)
            boxes[0] += 1
            if bits & 3 == 0:
                if c[6] != 0:
                    if c[6] != 2:
                        c[5] += 1
                    c[6] = 0
                return bits
            c[4] += 1
            if c[6] != 1:
                if c[6] != 2:
                    c[5] += 1
                c[6] = 1
            mq[0] = bits
            return alloc(md[0])

        def unbox(w):
            if w & 3 == 0:
                return w
            try:
                if w & 7 == ht and (not generic or kinds[w >> 3] == KIND_FLOAT_GENERIC):
                    md[0] = payload[w >> 3]
                    return mq[0]
            except IndexError:  # dangling handle
                pass
            raise TypeError("not a float word: 0x%016x" % w)

        def is_float(w):
            if w & 3 == 0:
                return True
            return w & 7 == ht and (w >> 3) < len(kinds) and (
                not generic or kinds[w >> 3] == KIND_FLOAT_GENERIC
            )

        def make_arith(fop, fixop):
            def arith(aw, bw):
                try:
                    if aw & 3 == 0:
                        mq[0] = aw
                        xa = md[0]
                    elif aw & 7 == ht and (not generic or kinds[aw >> 3] == KIND_FLOAT_GENERIC):
                        xa = payload[aw >> 3]
                    else:
                        return fixop(aw, bw)
                    if bw & 3 == 0:
                        mq[0] = bw
                        xb = md[0]
                    elif bw & 7 == ht and (not generic or kinds[bw >> 3] == KIND_FLOAT_GENERIC):
                        xb = payload[bw >> 3]
                    else:
                        raise TypeError(_TYPE_ERR)
                except IndexError:  # dangling handle
                    raise TypeError(_TYPE_ERR) from None
                r = fop(xa, xb)
                md[0] = r
                bits = mq[0]
                if hook is not None:
                    hook(bits)
                boxes[0] += 1
                if bits & 3 == 0:
                    if c[6] != 0:
                        if c[6] != 2:
                            c[5] += 1
                        c[6] = 0
                    return bits
                c[4] += 1
                if c[6] != 1:
                    if c[6] != 2:
                        c[5] += 1
                    c[6] = 1
                return alloc(r)

            return arith

        fless = fixops[4]

        def less(aw, bw):
            try:
                if aw & 3 == 0:
                    mq[0] = aw
                    xa = md[0]
                elif aw & 7 == ht and (not generic or kinds[aw >> 3] == KIND_FLOAT_GENERIC):
                    xa = payload[aw >> 3]
                else:
                    return fless(aw, bw)
                if bw & 3 == 0:
                    mq[0] = bw
                    xb = md[0]
                elif bw & 7 == ht and (not generic or kinds[bw >> 3] == KIND_FLOAT_GENERIC):
                    xb = payload[bw >> 3]
                else:
                    raise TypeError(_TYPE_ERR)
            except IndexError:  # dangling handle
                raise TypeError(_TYPE_ERR) from None
            return xa < xb

        self._assign(box, unbox, is_float, make_arith, less, fixops)

    def _build_boxed(self):
        scheme = self.scheme
        heap = self.heap
        hook = self.profile_hook
        boxes = self._boxes
        c = heap._c
        payload = heap._payload
        kinds = heap._kinds
        mq, md = self._mq, self._md
        hft = scheme.heap_float_tag
        generic = hft is None
        ht = GENERIC_TAG if generic else hft
        alloc = self._make_alloc(ht, generic)
        fixops = _fixnum_fallbacks(self._fixrep)

        def box(bits):
            if not 0 <= bits <= M64:
                raise ValueError(_RANGE_ERR % (bits,))
            if hook is not None:
                hook(bits)
            boxes[0] += 1
            c[4] += 1
            if c[6] != 1:
                if c[6] != 2:
                    c[5] += 1
                c[6] = 1
            mq[0] = bits
            return alloc(md[0])

        def unbox(w):
            try:
                if w & 7 == ht and (not generic or kinds[w >> 3] == KIND_FLOAT_GENERIC):
                    md[0] = payload[w >> 3]
                    return mq[0]
            except IndexError:  # dangling handle
                pass
            raise TypeError("not a float word: 0x%016x" % w)

        def is_float(w):
            return w & 7 == ht and (w >> 3) < len(kinds) and (
                not generic or kinds[w >> 3] == KIND_FLOAT_GENERIC
            )

        def make_arith(fop, fixop):
            def arith(aw, bw):
                try:
                    if aw & 7 == ht and (not generic or kinds[aw >> 3] == KIND_FLOAT_GENERIC):
                        xa = payload[aw >> 3]
                    else:
                        return fixop(aw, bw)
                    if bw & 7 == ht and (not generic or kinds[bw >> 3] == KIND_FLOAT_GENERIC):
                        xb = payload[bw >> 3]
                    else:
                        raise TypeError(_TYPE_ERR)
                except IndexError:  # dangling handle
                    raise TypeError(_TYPE_ERR) from None
                r = fop(xa, xb)
                if hook is not None:
                    md[0] = r
                    hook(mq[0])
                boxes[0] += 1
                c[4] += 1
                if c[6] != 1:
                    if c[6] != 2:
                        c[5] += 1
                    c[6] = 1
                return alloc(r)

            return arith

        fless = fixops[4]

        def less(aw, bw):
            try:
                if aw & 7 == ht and (not generic or kinds[aw >> 3] == KIND_FLOAT_GENERIC):
                    xa = payload[aw >> 3]
                else:
                    return fless(aw, bw)
                if bw & 7 == ht and (not generic or kinds[bw >> 3] == KIND_FLOAT_GENERIC):
                    xb = payload[bw >> 3]
                else:
                    raise TypeError(_TYPE_ERR)
            except IndexError:  # dangling handle
                raise TypeError(_TYPE_ERR) from None
            return xa < xb

        self._assign(box, unbox, is_float, make_arith, less, fixops)

    def _build_nan(self):
        hook = self.profile_hook
        mq, md = self._mq, self._md
        canon = NAN_CANON
        fixops = _fixnum_fallbacks(self._fixrep)

        def box(bits):
            if not 0 <= bits <= M64:
                raise ValueError(_RANGE_ERR % (bits,))
            if hook is not None:
                hook(bits)
            return bits if bits < canon else canon

        def unbox(w):
            if w <= canon:
                return w
            raise TypeError("not a float word: 0x%016x" % w)

        def is_float(w):
            return w <= canon

        def make_arith(fop, fixop):
            def arith(aw, bw):
                if aw > canon:
                    return fixop(aw, bw)
                if bw > canon:
                    raise TypeError(_TYPE_ERR)
                mq[0] = aw
                xa = md[0]
                mq[0] = bw
                r = fop(xa, md[0])
                md[0] = r
                bits = mq[0]
                if hook is not None:
                    hook(bits)
                return bits if bits < canon else canon

            return arith

        fless = fixops[4]

        def less(aw, bw):
            if aw > canon:
                return fless(aw, bw)
            if bw > canon:
                raise TypeError(_TYPE_ERR)
            mq[0] = aw
            xa = md[0]
            mq[0] = bw
            return xa < md[0]

        self._assign(box, unbox, is_float, make_arith, less, fixops)

    def _build_nun(self):
        hook = self.profile_hook
        mq, md = self._mq, self._md
        bias = NUN_BIAS
        canon_min = NUN_CANON_MIN
        canon = NAN_CANON
        fixops = _fixnum_fallbacks(self._fixrep)

        def box(bits):
            if not 0 <= bits <= M64:
                raise ValueError(_RANGE_ERR % (bits,))
            if hook is not None:
                hook(bits)
            if bits >= canon_min:
                bits = canon
            return (bits + bias) & M64

        def unbox(w):
            t = w >> 48
            if t != 0 and t != 0xFFFF:
                return (w - bias) & M64
            raise TypeError("not a float word: 0x%016x" % w)

        def is_float(w):
            t = w >> 48
            return t != 0 and t != 0xFFFF

        def make_arith(fop, fixop):
            def arith(aw, bw):
                t = aw >> 48
                if t == 0 or t == 0xFFFF:
                    return fixop(aw, bw)
                t = bw >> 48
                if t == 0 or t == 0xFFFF:
                    raise TypeError(_TYPE_ERR)
                mq[0] = (aw - bias) & M64
                xa = md[0]
                mq[0] = (bw - bias) & M64
                r = fop(xa, md[0])
                md[0] = r
                bits = mq[0]
                if hook is not None:
                    hook(bits)
                if bits >= canon_min:
                    bits = canon
                return (bits + bias) & M64

            return arith

        fless = fixops[4]

        def less(aw, bw):
            t = aw >> 48
            if t == 0 or t == 0xFFFF:
                return fless(aw, bw)
            t = bw >> 48
            if t == 0 or t == 0xFFFF:
                raise TypeError(_TYPE_ERR)
            mq[0] = (aw - bias) & M64
            xa = md[0]
            mq[0] = (bw - bias) & M64
            return xa < md[0]

        self._assign(box, unbox, is_float, make_arith, less, fixops)
