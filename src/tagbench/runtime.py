"""Dynamic-language value runtime over one float representation scheme.

A Runtime owns a SimHeap and exposes the value operations a small
interpreter would have: box/unbox floats, fixnum construction, union type
tests, and generic arithmetic that dispatches on the operand
representations.

The float and fixnum operations of every scheme are closures generated
from one source, _SOURCE, which holds the heap fallback, the fixnum
arithmetic and the counters once. The families (rot5: st1, st2biased;
rot4: st2zeros, st3, st4; mantissa; boxed; nanbox; nunbox) differ only in
seven forms, substituted into the source text before it is compiled:
HIT(bits), true when float bits stay immediate; IMM(w), true when word w
is an immediate float; DEC(w), the float bits of an immediate word;
ENC(bits), the immediate word for float bits; FIX(w), true when word w is
a fixnum; FDEC(w), the value of a fixnum word; FENC(v), the fixnum word
for value v. Four constants are substituted with them: HAS_IMM and
HAS_MISS, derived from a constant HIT, fold a path away (boxed, HIT
False, has no immediate path; NaN and NuN boxing, HIT True, have no miss
path, so they never reach the heap and count nothing); HOOKED, whether
the Runtime has a profile hook, folds the hook calls away when it has
none; and ZEROS, true only for st2zeros, folds away the other families'
+-0 test on a miss. Module constants (M64 and the like) go in as
literals. Each float operand of the generic operations is fetched by one
chain of tests, FLOAT (see the operand slots below), expanded with the
forms. Each (family, HOOKED, ZEROS) source is compiled once per process
and cached (_builder). A Runtime calls the compiled builder with its
scheme constants and heap internals, so the per-operation cost is flat:
the forms are inline, with no per-operation call, and nothing is looked
up that could have been bound once.

The counters belong to the Runtime: they are closure cells of the
builder (n, the box events; slow, the slow-path encodes; flips; last,
the event number of the last miss; zhits, the st2zeros encodes served by
the preallocated zero cells), read and zeroed through its counts() and
reset(). A box event that stays immediate only adds one to n. A miss
adds one to slow and records its event number in last; when the event
before it was not a miss, the outcome flipped once (a leading run of
hits) or twice (a miss, hits, this miss) since the previous miss. The
flip back to hits after the last miss is added when the counters are
read: flips + (0 < last < n). So flips are derived from the misses alone,
and the hit path does no bookkeeping beyond n.

The rot5 and rot4 forms are table lookups, not rotations. Self-tagging
moves only the top bits of a float (sign and exponent prefix, 6 bits for
rot5 and 4 for rot4) into the tag and shifts the rest unchanged, so
which floats stay immediate, and what the moved bits become, depends
only on that prefix; on the way back, what the top bits become depends
only on the low word field (5 or 4 bits). Each Runtime builds two small
tables for its config (_codec_tables): et[prefix] for encoding and
dt[low field] for decoding, with None at the entries that are not
immediate. Their entries are schemes.st_transform and
schemes.st_untransform evaluated at one representative per class, so the
reference transforms define the codec and the runtime does not restate
them. The tag test is the lookup itself: IMM binds d = dt[w & 31] (rot4:
w & 15) and DEC adds it to the shifted word; HIT binds e = et[bits >> 58]
(rot4: >> 60) and ENC subtracts it from the shifted bits. The re-box in
box_float and in the generic operations tests HIT on the float bits
first and builds the word only on a hit, so a miss goes to the heap
without paying for an encode.

Every float<->bits conversion in those closures goes through one 8-byte
buffer owned by the Runtime, seen through two memoryviews: an unsigned
64-bit view and a binary64 view of the same bytes. A conversion is a store
to one view and a load from the other, bit-exact (signalling-NaN payloads
included) and free of struct calls, bytes objects and tuples. The buffer
is shared state, so it relies on two conditions: a Runtime has a single
owner and is not shared between threads, like the SimHeap under it; and
nothing (profile hook, float operation, heap allocation) is called between
a store into the buffer and the load that reads it back.

Operand slots and the decode memo. The families with both an immediate
and a miss path (rot5, rot4, mantissa) keep the last two immediate words
a Runtime built, with their floats, in closure cells: (w1, x1), the
newer, and (w2, x2). A box_float hit stores its word and the float read
back from the buffer; a generic re-box hit stores its word and the result
float. Each store first moves slot 1 into slot 2. FLOAT tests each
operand for identity with w1 and w2 before IMM: a kernel passes back the
very int a box returned, and no float can pass for a word (1.0 == 1, but
1.0 is not 1). The table families, whose decode costs most, also keep a
memo, a dict from word to float. FLOAT reads it only after IMM, so a word
has passed the tag test first; a decode stores its word there, and the
dict is cleared once it holds MEMO_BOUND words.
Slots and memo hold DEC(w) for word w, so they change no word, counter or
hook call, and they survive reset(). Mantissa's DEC is the word itself,
so it keeps no memo. NaN and NuN boxing keep neither: their ENC collapses
the NaNs at and above NAN_CANON (NuN: NUN_CANON_MIN) into one word, so a
slot float would keep a payload that decoding loses, and the bits a
profile hook sees would change. Boxed has no immediates. The slots start
at a fresh object(). A slot holds a float object, not a view of the
buffer, so the buffer rule holds.

The table families' DEC maps any int to float bits, so they reject a
decoded operand outside [0, 2**64) before decoding it (_MEMO); a slot or
memo word is in range. The other families reject such a word in IMM or
in the buffer store.

Fixnum placement per scheme, three sets of FIX/FDEC/FENC forms:
  - tagged: rot5, rot4, mantissa and boxed use the 61-bit two's-complement
    word (value << 3) retagged with fxt = schemes.fixnum_tag, the first
    low-bit tag the scheme leaves free (tag 000 everywhere except the
    mantissa scheme, which claims 000 and 100 for floats and pushes
    fixnums to 001);
  - NaN payload: NaN boxing carries fixnums as non-float payloads (payload
    tag 001), so the value range narrows to 48 bits;
  - NuN prefix: NuN boxing keeps the 000-tagged word but only where the top
    16 bits stay in the reserved non-float classes (all zeros or all ones),
    narrowing the range to 46 bits.
The builder takes the range as lo and hi; box_fixnum and every fixnum
result are checked against it.
"""

import re
from dataclasses import replace
from functools import cache
from operator import add, floordiv, mul, sub
from textwrap import indent

from .heap import SimHeap
from .schemes import (
    BOXED,
    FOUR_TAG,
    MANTISSA,
    NAN_CANON,
    NAN_PAYLOAD_MASK,
    NANBOX,
    NUN_BIAS,
    NUN_CANON_MIN,
    NUNBOX,
    ONE_TAG,
    THREE_TAG,
    TWO_TAG_BIASED,
    TWO_TAG_ZEROS,
    fixnum_tag,
    handle_tag,
    self_tag_set,
    st_transform,
    st_untransform,
)
from .words import FIXNUM_MAX, FIXNUM_MIN, M64, SIGN_64, ieee_div

M60 = (1 << 60) - 1

NAN_FIXNUM_TAG = 1  # payload tag carrying fixnums under NaN boxing
NAN_FIXNUM_MIN = -(1 << 47)
NAN_FIXNUM_MAX = (1 << 47) - 1
NUN_FIXNUM_MIN = -(1 << 45)
NUN_FIXNUM_MAX = (1 << 45) - 1

MEMO_BOUND = 256  # words a rot5 or rot4 Runtime keeps decoded

_TYPE_ERR = "mixed or non-numeric operands"
_RANGE_ERR = "float bits out of [0, 2**64): %r"


# The closure source. n, slow, flips and last are the Runtime's counters
# (box events, slow-path encodes, flips finalised so far, the event number
# of the last miss), and zhits counts the slow-path encodes that st2zeros
# served from its preallocated zero cells; counts() reads them, with the
# pending flip back to hits added and the misses that went to the heap
# derived, and reset() zeroes them. MISS marks the bookkeeping of a miss,
# written once in _MISS and expanded inline in box and the re-box.
# Four constants are derived, never set: HAS_IMM is False only for the
# boxed family, whose HIT and IMM are the constant False, so the compiler
# drops every immediate branch and a boxed re-box converts its result to
# bits only for the hook; HAS_MISS is False only for nanbox and nunbox,
# whose HIT is the constant True, so box_float and the re-box return
# ENC(bits) before the box counter, and those runtimes count nothing;
# HOOKED is whether the Runtime has a profile hook; ZEROS is whether it is
# st2zeros, the only family whose miss may be a preallocated zero cell.
# (w1, x1) and (w2, x2) are the operand slots: the last two immediate words
# built by a box_float hit or a generic re-box hit, newest first, and their
# floats; they start at an object() that no operand is. Those hit
# branches are reachable only in the families with both paths (HAS_IMM
# and HAS_MISS), the only ones whose FLOAT reads the slots. memo is the
# Runtime's decode memo, read and filled only by the table families' FLOAT.
# A generic operand is a heap handle when w & ((1 << 64) | 7) == ht: every
# negative word has bit 64 set and fails, where w & 7 would let it index
# the arena from its end; a word of 2**65 or more indexes past the arena,
# and the IndexError becomes a TypeError. Families that never miss have no
# handles, and their ht is -1, which no masked word equals. A first
# operand that is neither an immediate float nor a handle must be a
# fixnum, and so must the second; the fixnum result must lie in [lo, hi].
# Neither +0.0 nor -0.0 lands in the rot4 tag set, so st2zeros handles
# them on the slow path, where bits is always bound when ZEROS is true.

_SOURCE = """
def build(dt, et, k, ht, fxt, lo, hi, pz_pos, pz_neg, hook, payload, mq, md, memo, alloc):
    n = slow = flips = last = zhits = 0
    w1 = w2 = object()
    x1 = x2 = 0.0

    def counts():
        return n, slow, flips + (0 < last < n), slow - zhits

    def reset():
        nonlocal n, slow, flips, last, zhits
        n = slow = flips = last = zhits = 0

    def box(bits):
        nonlocal n, slow, flips, last, zhits, w1, x1, w2, x2
        if not 0 <= bits <= M64:
            raise ValueError(_RANGE_ERR % (bits,))
        if HOOKED:
            hook(bits)
        if not HAS_MISS:
            return ENC(bits)
        n += 1
        if HIT(bits):
            mq[0] = bits
            w2 = w1
            x2 = x1
            w1 = ENC(bits)
            x1 = md[0]
            return w1
        MISS
        mq[0] = bits
        return alloc(md[0])

    def is_float(w):
        if not 0 <= w <= M64:
            return False
        if IMM(w):
            return True
        return w & 7 == ht and (w >> 3) < len(payload)

    def unbox(w):
        if 0 <= w <= M64:
            if IMM(w):
                return DEC(w)
            if w & 7 == ht and (w >> 3) < len(payload):
                md[0] = payload[w >> 3]
                return mq[0]
        raise TypeError("not a float word: 0x%016x" % w)

    def box_fixnum(v):
        if not lo <= v <= hi:
            raise OverflowError("fixnum out of range: %d" % v)
        return FENC(v)

    def unbox_fixnum(w):
        if not FIX(w):
            raise TypeError("not a fixnum word: 0x%016x" % w)
        return FDEC(w)

    def is_fixnum(w):
        return FIX(w)

    def make_arith(fop, iop):
        def arith(aw, bw):
            nonlocal n, slow, flips, last, zhits, w1, x1, w2, x2
            try:
                FLOAT(xa, aw)
                else:
                    if not (FIX(aw) and FIX(bw)):
                        raise TypeError(_TYPE_ERR)
                    v = iop(FDEC(aw), FDEC(bw))
                    if not lo <= v <= hi:
                        raise OverflowError("fixnum overflow: %d" % v)
                    return FENC(v)
                FLOAT(xb, bw)
                else:
                    raise TypeError(_TYPE_ERR)
            except (IndexError, ValueError):  # dangling handle, word out of [0, 2**64)
                raise TypeError(_TYPE_ERR) from None
            r = fop(xa, xb)
            if HAS_IMM or HOOKED:
                md[0] = r
                bits = mq[0]
                if HOOKED:
                    hook(bits)
            if not HAS_MISS:
                return ENC(bits)
            n += 1
            if HIT(bits):
                w2 = w1
                x2 = x1
                w1 = ENC(bits)
                x1 = r
                return w1
            MISS
            return alloc(r)

        return arith

    def less(aw, bw):
        try:
            FLOAT(xa, aw)
            else:
                if not (FIX(aw) and FIX(bw)):
                    raise TypeError(_TYPE_ERR)
                return FDEC(aw) < FDEC(bw)
            FLOAT(xb, bw)
            else:
                raise TypeError(_TYPE_ERR)
            return xa < xb
        except (IndexError, ValueError):  # dangling handle, word out of [0, 2**64)
            raise TypeError(_TYPE_ERR) from None

    return (
        box, unbox, is_float, box_fixnum, unbox_fixnum, is_fixnum, make_arith, less,
        counts, reset,
    )
"""

# FLOAT(x, w) expands to the tests that bind x to the float of the generic
# operand w when w is a float word. It ends in an elif, so the else after
# it in the source takes every other word. {head} opens the chain: in a
# family with slots, the two slot tests (_SLOTS), which take a slot's float
# without decoding; in the others, a plain if. {decode} is _DECODE, or in
# the table families _MEMO: the memo lookup, then a decode that is stored
# in the memo, after the range test, since their DEC would turn a word
# outside [0, 2**64) into float bits. The other families' IMM or buffer
# store rejects such a word.
_FLOAT = """{head}IMM({w}):
{decode}
elif {w} & ((1 << 64) | 7) == ht:
    {x} = payload[{w} >> 3]"""
_SLOTS = """if {w} is w1:
    {x} = x1
elif {w} is w2:
    {x} = x2
elif """
_DECODE = """    mq[0] = DEC({w})
    {x} = md[0]"""
_MEMO = """    {x} = memo.get({w})
    if {x} is None:
        if {w} >> 64:
            raise TypeError(_TYPE_ERR)
        mq[0] = DEC({w})
        {x} = md[0]
        if len(memo) == MEMO_BOUND:
            memo.clear()
        memo[{w}] = {x}"""

# A miss: event n went to the slow path. When event n - 1 was not a miss,
# the outcome flipped from hits to this miss, and, if an earlier miss
# exists, from that miss to the hits in between. SIGN_64 alone is the
# -0.0 word.
_MISS = """slow += 1
if last != n - 1:
    flips += 1 + (last > 0)
last = n
if ZEROS and (bits == 0 or bits == SIGN_64):
    zhits += 1
    return pz_pos if bits == 0 else pz_neg"""

# family: its forms. The rot5 and rot4 forms read the tables that
# _codec_tables builds per Runtime; IMM binds d and HIT binds e for the
# DEC and ENC that follow them. k is the rot4 offset: DEC subtracts it
# from the whole word before shifting, because the borrow can cross the
# nibble boundary (the all-ones NaN encodes below 16 under rot4 and
# borrows). FIX, FDEC and FENC are the three fixnum layouts of the module
# docstring; the four families that tag fixnums fxt share _TAGGED_FIX.
_TAGGED_FIX = {
    "FIX": "0 <= {0} <= M64 and {0} & 7 == fxt",
    "FDEC": "((({} - fxt) ^ SIGN_64) - SIGN_64) >> 3",
    "FENC": "(({} << 3) & M64) | fxt",
}
_FAMILIES = {
    "rot5": {
        "HIT": "(e := et[{} >> 58]) is not None",
        "IMM": "(d := dt[{} & 31]) is not None",
        "DEC": "(({} >> 5) + d) & M64",
        "ENC": "({} << 5) - e",
        **_TAGGED_FIX,
    },
    "rot4": {
        "HIT": "(e := et[{} >> 60]) is not None",
        "IMM": "(d := dt[{} & 15]) is not None",
        "DEC": "((({} - k) >> 4) & M60) | d",
        "ENC": "(({} << 4) - e) & M64",
        **_TAGGED_FIX,
    },
    "mantissa": {"HIT": "{} & 3 == 0", "IMM": "{} & 3 == 0", "DEC": "{}", "ENC": "{}", **_TAGGED_FIX},
    "boxed": {"HIT": "False", "IMM": "False", "DEC": "{}", "ENC": "{}", **_TAGGED_FIX},
    "nanbox": {
        "HIT": "True",
        "IMM": "{} <= NAN_CANON",
        "DEC": "{}",
        "ENC": "{0} if {0} < NAN_CANON else NAN_CANON",
        "FIX": "NAN_CANON < {0} <= M64 and ({0} >> 48) & 7 == NAN_FIXNUM_TAG",
        "FDEC": "(({} & NAN_PAYLOAD_MASK) ^ (1 << 47)) - (1 << 47)",
        "FENC": "{} & NAN_PAYLOAD_MASK | (NAN_CANON | NAN_FIXNUM_TAG << 48)",
    },
    "nunbox": {
        "HIT": "True",
        "IMM": "NUN_BIAS <= {} < 0xFFFF << 48",
        "DEC": "{} - NUN_BIAS",
        "ENC": "({0} if {0} < NUN_CANON_MIN else NAN_CANON) + NUN_BIAS",
        "FIX": "{0} >> 48 in (0, 0xFFFF) and {0} & 7 == 0",
        "FDEC": "(({} ^ SIGN_64) - SIGN_64) >> 3",
        "FENC": "({} << 3) & M64",
    },
}

# family: its fixnum range, where the payload or the reserved classes
# narrow it
_FIXNUM_RANGE = {
    "nanbox": (NAN_FIXNUM_MIN, NAN_FIXNUM_MAX),
    "nunbox": (NUN_FIXNUM_MIN, NUN_FIXNUM_MAX),
}

# module constants the source and forms name, compiled in as literals
_LITERALS = {
    "M64": M64,
    "M60": M60,
    "SIGN_64": SIGN_64,
    "NAN_CANON": NAN_CANON,
    "NAN_PAYLOAD_MASK": NAN_PAYLOAD_MASK,
    "NAN_FIXNUM_TAG": NAN_FIXNUM_TAG,
    "NUN_BIAS": NUN_BIAS,
    "NUN_CANON_MIN": NUN_CANON_MIN,
    "MEMO_BOUND": MEMO_BOUND,
}

# per table family: the shift that takes float bits to their class (sign
# and exponent prefix: every bit the transform moves or biases), and the
# width of the low word field that the rotation brings back to the top
_CLASS_SHIFT = {"rot5": (58, 5), "rot4": (60, 4)}

_VARIANT_FAMILY = {
    ONE_TAG: "rot5",
    TWO_TAG_BIASED: "rot5",
    TWO_TAG_ZEROS: "rot4",
    THREE_TAG: "rot4",
    FOUR_TAG: "rot4",
    MANTISSA: "mantissa",
    BOXED: "boxed",
    NANBOX: "nanbox",
    NUNBOX: "nunbox",
}

# a form marker and its argument, a plain name
_FORM = re.compile(r"\b(HIT|IMM|DEC|ENC|FIX|FDEC|FENC)\((\w+)\)")


@cache
def _builder(family, hooked, zeros):
    """The family's closure builder: the source with MISS and FLOAT
    expanded (FLOAT with the slot tests when the family has both paths,
    and with the memo and range test in the table families), the family's
    forms, the four derived constants and the module constants
    substituted, compiled once per family, hooked and zeros flag in a
    process.
    The source runs in this module's globals, which supply its error
    messages."""
    forms = _FAMILIES[family]

    def expand(mo):
        return "(%s)" % forms[mo[1]].format(mo[2])

    consts = dict(
        _LITERALS,
        HAS_IMM=forms["HIT"] != "False",
        HAS_MISS=forms["HIT"] != "True",
        HOOKED=hooked,
        ZEROS=zeros,
    )
    slots = consts["HAS_IMM"] and consts["HAS_MISS"]
    chain = _FLOAT.replace("{head}", _SLOTS if slots else "if ")
    chain = chain.replace("{decode}", _MEMO if family in _CLASS_SHIFT else _DECODE)
    text = re.sub(r"^( *)MISS$", lambda mo: indent(_MISS, mo[1]), _SOURCE, flags=re.M)
    text = re.sub(
        r"^( *)FLOAT\((\w+), (\w+)\)$",
        lambda mo: indent(chain.format(x=mo[2], w=mo[3]), mo[1]),
        text,
        flags=re.M,
    )
    text = _FORM.sub(expand, text)
    text = re.sub(r"\b(%s)\b" % "|".join(consts), lambda mo: repr(consts[mo[1]]), text)
    ns = {}
    exec(compile(text, "<runtime %s>" % family, "exec"), globals(), ns)
    return ns["build"]


def _codec_tables(scheme, family):
    """(dt, et) for a rot5 or rot4 scheme: the reference transforms in
    schemes.py evaluated at one representative per class (a low word
    field with every higher bit 0, a prefix with every lower bit 0), and
    None where the class is not immediate. dt[j] holds the top bits that
    DEC puts onto the shifted word: st_untransform(j), of which rot4 keeps
    only the top nibble, because its DEC computes the rest from the word
    and k.
    et[p] is what ENC subtracts from the shifted float bits: the prefix p
    shifted out of the top, less st_transform of the class representative,
    so that (bits << low) - et[p] is the transformed word."""
    shift, low = _CLASS_SHIFT[family]
    m = self_tag_set(scheme)
    dt = [st_untransform(j, scheme) for j in range(1 << low)]
    if family == "rot4":
        dt = [d & ~M60 for d in dt]
    dt = tuple(d if (m >> (j & 7)) & 1 else None for j, d in enumerate(dt))
    et = []
    for p in range(1 << (64 - shift)):
        w = st_transform(p << shift, scheme)
        et.append((p << (shift + low)) - w if (m >> (w & 7)) & 1 else None)
    return dt, tuple(et)


class Runtime:
    """Value operations of one scheme over one heap.

    profile_hook, when given, is called with the raw float bits of every
    boxing event before encoding; it is how the distribution profiler taps
    a run without touching kernel code.

    box_float takes float bits in [0, 2**64) and raises ValueError for
    anything else, under every scheme. Words that are not floats, dangling
    heap handles and any word outside [0, 2**64) included, make is_float_value
    return False and unbox_float raise TypeError; words that are not
    fixnums, out-of-range words with the fixnum tag included, make
    is_fixnum_value return False and unbox_fixnum raise TypeError. The
    generic operations raise TypeError for all of them, negative words with
    the heap-handle tag and out-of-range words with an immediate tag
    included.

    A Runtime owns its heap. Each st2zeros Runtime allocates its own +0.0
    and -0.0 cells in it when it is built. Heap handles are checked by tag
    and arena bound under both the tagged-pointer and the generic-pointer
    layout, not by what the cell holds: the arena stores float cells only
    (ballast is counted, never stored), so no handle reaches ballast.

    The float and fixnum operations (box_float, unbox_float,
    is_float_value, box_fixnum, unbox_fixnum, is_fixnum_value and the
    generic_* operations) are instance attributes: closures compiled from
    one source per family, not methods.

    The counters of box events, slow-path encodes and representation
    flips belong to the Runtime, not its heap: they live in the compiled
    closures' cells, and stats() joins them to the heap's allocation
    counters. hit_ratio() counts only the float cells this runtime boxed.

    The float<->bits conversions of every operation share one 8-byte
    buffer per Runtime (_mq/_md, two views of the same bytes), so a Runtime
    has a single owner and must not be shared between threads.

    Under st1, st2biased, st2zeros, st3, st4 and mantissa, the generic
    operations take the float of an operand that is (by identity) one of
    the last two immediate words the Runtime built from that word's slot.
    Under the five table presets (st*), a decoded operand's float is also
    kept in a memo (_memo) of at most MEMO_BOUND words, and read from it
    after the tag test; their decode costs most, while mantissa's is the
    word itself. No word, counter or hook call depends on whether an
    operand came from a slot, the memo or a decode (see the module
    docstring)."""

    def __init__(self, scheme, heap=None, profile_hook=None):
        self.scheme = scheme
        self.heap = SimHeap() if heap is None else heap
        self.profile_hook = profile_hook
        buf = bytearray(8)
        self._mq = memoryview(buf).cast("Q")
        self._md = memoryview(buf).cast("d")
        self._memo = {}
        self._compile()

    # -- counters ---------------------------------------------------------

    @property
    def boxes_total(self):
        return self._counts()[0]

    def reset_kernel_counters(self):
        self.heap.reset_kernel_counters()
        self._reset()

    def stats(self):
        _, slow, flips, _ = self._counts()
        return replace(self.heap.stats(), slow_path_encodes=slow, representation_flips=flips)

    def hit_ratio(self):
        """Fraction of boxing events that stayed immediate since the last
        counter reset: 1 - this runtime's misses that went to the heap /
        box events, and 1.0 when nothing was boxed, under every scheme.
        Cells that the runtime did not box (st2zeros' preallocated zeros,
        another runtime's boxes on a shared heap) do not count; a miss
        whose allocation raised MemoryError does. NaN and NuN boxing count
        no box events, so they read 1.0; the boxed baseline reads 0.0 once
        it has boxed."""
        n, _, _, allocs = self._counts()
        return 1.0 - allocs / n if n else 1.0

    # -- compilation ------------------------------------------------------

    def _compile(self):
        scheme = self.scheme
        variant = scheme.variant
        hook = self.profile_hook
        family = _VARIANT_FAMILY[variant]
        heap = self.heap
        tables = _codec_tables(scheme, family) if family in _CLASS_SHIFT else (None, None)
        alloc = heap.float_allocator(scheme.heap_float_tag)
        ht = handle_tag(scheme)
        if _FAMILIES[family]["HIT"] == "True":
            ht = -1  # never misses: no word is a heap handle
        lo, hi = _FIXNUM_RANGE.get(family, (FIXNUM_MIN, FIXNUM_MAX))
        zeros = variant == TWO_TAG_ZEROS
        # st2zeros stores its own +0.0 and -0.0 cells, before anything it boxes
        pz_pos, pz_neg = (alloc(0.0), alloc(-0.0)) if zeros else (None, None)
        (
            self.box_float, self.unbox_float, self.is_float_value,
            self.box_fixnum, self.unbox_fixnum, self.is_fixnum_value,
            make_arith, self.generic_less, self._counts, self._reset,
        ) = _builder(family, hook is not None, zeros)(
            *tables, scheme.offset, ht, fixnum_tag(scheme), lo, hi, pz_pos, pz_neg,
            hook, heap._payload, self._mq, self._md, self._memo, alloc,
        )
        self.generic_add = make_arith(add, add)
        self.generic_sub = make_arith(sub, sub)
        self.generic_mul = make_arith(mul, mul)
        self.generic_div = make_arith(ieee_div, floordiv)
