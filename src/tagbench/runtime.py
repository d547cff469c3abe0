"""Dynamic-language value runtime over one float representation scheme.

A Runtime owns a SimHeap and exposes the value operations a small
interpreter would have: box/unbox floats, fixnum construction, union type
tests, and generic arithmetic that dispatches on the operand
representations. Floats are boxed from their bits (box_float) or, as the
float primitive or reader of a compiler boxes the double it made, from a
host number (box_host_float), which gives the same word as box_float of
its bits without a struct round trip in between.

One source, six family records. The float and fixnum operations of every
scheme are closures generated from one source, _SOURCE, which holds the
heap fallback, the fixnum arithmetic and the counters once. The schemes
fall into six families (rot5: st1, st2biased; rot4: st2zeros, st3, st4;
mantissa; boxed; nanbox; nunbox), and each family's one record in
_FAMILIES holds every decision that sets it apart: the variants it
serves, its forms, the classes of its codec tables, whether it keeps a
decode memo, its CANON word and its fixnum range. The seven forms are
substituted into the source text before it is compiled: HIT(bits), true
when float bits get an immediate word that decodes back to them; IMM(w),
true when word w is an immediate float; DEC(w), the float bits of an
immediate word; ENC(bits), the immediate word for float bits that pass
HIT; FIX(w), true when word w is a fixnum; FDEC(w), the value of a fixnum
word; FENC(v), the fixnum word for value v. Five constants go in with
them. HAS_IMM, derived from a constant HIT, folds the immediate path away
(boxed, HIT False, has none), and with it the miss path's counting of
slow-path encodes and flips: every box event of such a family misses. CANON is the one word of the NaNs that NaN
and NuN boxing collapse, the floats their HIT rejects; HAS_MISS, false
exactly for the families with a CANON, folds the miss path away (they
never reach the heap and count nothing). HOOKED, whether the Runtime has a
profile hook, folds the hook calls away when it has none; and ZEROS, true
only for st2zeros, folds away the other families' +-0 test on a miss.
Module constants (M64, the error messages and the like) go in as
literals. Four blocks are expanded inline by one pattern, each written
once: BOX, the boxing tail of box_float, box_host_float and the generic
re-box (the hook, the event count, HIT and ENC, and CANON or MISS),
which each of them reaches with a float r and its bits; MISS,
the miss path; FLOAT(w, x), the chain of tests that binds x to the float
of a generic operand w; and ALLOC(w, x), the heap's allocation step
(heap.ALLOC), which stores x in a new cell whose handle is w, at the end
of MISS. The lines of MISS that
count slow-path encodes and flips are left out of the text, not folded,
where HAS_IMM is false: a constant-true test leaves a NOP behind.

Each (family, HOOKED, ZEROS) source is expanded once per process (_text)
and compiled once (_builder), and every Runtime of that key runs the one
code object: it executes it in a namespace of its own, whose globals are
the values the Runtime binds once (its codec tables, ranges, tags, zero
cells, hook, buffer views and memo, and the names ALLOC reads,
SimHeap.alloc_names), and calls build() there. The closure cells, which a call copies into its
frame, hold only what changes: the counters, and make_arith's fop and
iop. So the per-operation cost is flat: the forms are
inline, with no per-operation call, and nothing is looked up that could
have been bound once. CPython specialises a global read for one globals
dict, so runtimes of one key used in alternation re-specialise the code
they share (about 5% per memo-path call, BENCH_23); no benchmark
alternates them, and a copy of the code per Runtime measured no faster
on any of them.

Kernels run fused with their runtime (fuse.py): for each kernel and key,
one function into which the bodies of the operations it calls are inlined,
taken from the same _text. A fused function runs in the Runtime's namespace
and over the Runtime's own closure cells (the counters), so counts(),
stats() and reset() need no copying in or out. The
operations' names and their text live in one table, _OPS, and the (fop,
iop) pairs of the generic arithmetic in another, _ARITH, which both
_compile and the fused code read. _compile keeps the closures it made
(_ops), so that a replaced operation attribute (a tracer or a test spy) is
seen, and kernels.run then runs the kernel as written.

The counters belong to the Runtime: they are closure cells of the
builder, read and zeroed through its counts() and reset(). A box event
that stays immediate only adds one to n. A miss adds one to slow and
records its event number in last; when the event before it was not a
miss, the outcome flipped once (a leading run of hits) or twice (a miss,
hits, this miss) since the previous miss. The flip back to hits after the
last miss is added when the counters are read: flips + (0 < last < n). So
flips are derived from the misses alone, and the hit path does no
bookkeeping beyond n. A family without immediates (boxed) counts n alone:
every event misses, so counts() reads slow as n and flips as 0.

The rot5 and rot4 forms are table lookups, not rotations. Self-tagging
moves only the top bits of a float (sign and exponent prefix, 6 bits for
rot5 and 4 for rot4) into the tag and shifts the rest unchanged, so which
floats stay immediate, and what the moved bits become, depends only on
that prefix; on the way back, what the top bits become depends only on the
low word field (5 or 4 bits). The family record's classes hold that
geometry, the prefix's shift and the low field's width, and each Runtime
builds two small tables from it for its config (_codec_tables): et[prefix]
for encoding and dt[low field] for decoding, with None at the entries that
are not immediate. Their entries are schemes.st_transform and
schemes.st_untransform evaluated at one representative per class, so the
reference transforms define the codec and the runtime does not restate
them. The tag test is the lookup itself: IMM binds d = dt[w & 31]
(rot4: w & 15) and DEC adds it to the shifted word; HIT binds
e = et[bits >> 58] (rot4: >> 60) and ENC subtracts it from the shifted
bits. Every box
(box_float, box_host_float and the generic re-box) tests HIT on the float
bits first and builds the word only on a hit, so a miss goes to the heap
without paying for an encode.

Every float<->bits conversion in those closures goes through one 8-byte
buffer owned by the Runtime, seen through two memoryviews: an unsigned
64-bit view and a binary64 view of the same bytes. A conversion is a store
to one view and a load from the other, bit-exact (signalling-NaN payloads
included) and free of struct calls, bytes objects and tuples. box_float
stores its bits into the unsigned view and loads the float back;
box_host_float stores its argument into the binary64 view once and loads
both the float and the bits back. Both stores come before BOX, so a
value the store rejects raises before the hook or a counter sees it: a
float given to box_float, and anything given to box_host_float that
struct's "d" does not convert (it converts ints, bools and numpy scalars
too). The buffer is shared state, so it relies on two conditions: a Runtime has a single owner and is not shared
between threads, like the SimHeap under it; and nothing (profile hook,
float operation, heap allocation) is called between a store into the
buffer and the load that reads it back.

The decode memo. Each kernel form keeps one cache of floats. A Runtime
keeps no float of a word it returned, so its operations decode each
operand or read it from the arena, unless the memo below holds it; a
fused kernel (fuse.py) keeps the float of each word its operations bind
to a name beside it (a shadow float), and reads that first. The families whose record has memo set (the table
families, NaN and NuN boxing) keep a memo, a dict from word to float, and
FLOAT looks an operand up there first, before IMM. In a reference kernel
(kernels.py) the memo holds the kernel's constants, used again and again,
and the results it passes on, so a hit skips the tag test and the decode,
which under NaN and NuN boxing is also a store into the buffer and a load
from it. In a fused kernel the shadows come first, so there the memo
serves the other operands: list elements, loop targets and parameters. A
hit evaluates w >> 128: for an int word that is 0, which CPython returns
for a shift past every digit without computing one (~w, say, allocates),
and for a float equal to a memo word it raises TypeError, as floats have
no >>. A miss goes on to IMM, the range test and the decode, and stores
the word in the memo, which is cleared once it holds MEMO_BOUND words.
Mantissa keeps no memo: over half of its float operands in mbrot, fft and
pnpoly are heap handles, which would pay the lookup for nothing, and a
memo read before IMM or after it measured slower on those kernels
(BENCH_19). The memo holds the float a decode gives for word w, so it
changes no word, counter or hook call, and it survives reset(). NaN and
NuN boxing collapse the NaNs at and above NAN_CANON (NuN: NUN_CANON_MIN)
into the one word CANON; the memo holds CANON's decoded float like any
other word's. A memo float is a float object, not a view of the buffer,
so the buffer rule holds.

The memo families reject a decoded operand outside [0, 2**64) before
decoding it (_MEMO), since the table families' DEC maps any int to float
bits; a memo word is in range. Mantissa rejects such a word in
IMM or in the buffer store. A generic operand is a heap handle when
w & ((1 << 64) | 7) == ht: every negative word has bit 64 set and fails,
where w & 7 would let it index the arena from its end; a word of 2**65 or
more indexes past the arena, and the IndexError becomes a TypeError.
Families without a heap have ht -1, which no masked word equals. Those
are the operands FLOAT rejects as non-words: floats and ints outside
[0, 2**64). No operand type is checked, which every operation would pay
for: a bool is taken for its int; a numpy integer is taken for the float
word it equals, or raises OverflowError where numpy will not combine it
with a Python int of 64 bits or more (the handle test's mask 2**64 | 7,
the range bound M64), and as a fixnum it is computed in numpy's
fixed-width arithmetic, which wraps and divides by zero without raising.

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
The family record's fixnums give the range, bound as lo and hi;
box_fixnum and every fixnum result are checked against it.
"""

import re
from dataclasses import replace
from functools import cache
from operator import add, floordiv, mul, sub
from textwrap import indent
from typing import NamedTuple

from .heap import ALLOC, SimHeap
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

MEMO_BOUND = 256  # words a Runtime keeps in its decode memo

_TYPE_ERR = "mixed or non-numeric operands"
_RANGE_ERR = "float bits out of [0, 2**64): %r"


# The names _SOURCE reads. Closure cells: the counters n (box events),
# slow (slow-path encodes), flips (flips finalised so far), last (the event
# number of the last miss) and zhits (the slow-path encodes st2zeros served
# from its zero cells). Globals of the Runtime's namespace
# (Runtime._compile): the codec tables dt and et; k, the rot4 offset; ht,
# the heap-handle tag; fxt, the fixnum tag; lo and hi, the fixnum range;
# pz_pos and pz_neg, st2zeros' zero cells; hook; mq and md, the buffer's
# two views; memo; and the names ALLOC reads. Literals: HAS_IMM, HAS_MISS,
# CANON, HOOKED, ZEROS and _LITERALS. Blocks: BOX, MISS inside it,
# ALLOC(w, x) inside MISS, and FLOAT(w, x). A first generic operand that
# is neither an immediate float nor a handle must be a fixnum, and so must
# the second. Neither +0.0 nor -0.0 lands in the rot4 tag set, so st2zeros
# handles them on the slow path, where bits is always bound when ZEROS is
# true.

_SOURCE = """
def build():
    n = slow = flips = last = zhits = 0

    def counts():
        if not HAS_IMM:
            return n, n, 0, n
        return n, slow, flips + (0 < last < n), slow - zhits

    def reset():
        nonlocal n, slow, flips, last, zhits
        n = slow = flips = last = zhits = 0

    def box(bits):
        nonlocal n, slow, flips, last, zhits
        if not 0 <= bits <= M64:
            raise ValueError(_RANGE_ERR % (bits,))
        mq[0] = bits
        r = md[0]
        BOX

    def box_host(x):
        nonlocal n, slow, flips, last, zhits
        md[0] = x
        r = md[0]
        if HAS_IMM or HOOKED:
            bits = mq[0]
        BOX

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
            nonlocal n, slow, flips, last, zhits
            try:
                FLOAT(aw, xa)
                else:
                    if not (FIX(aw) and FIX(bw)):
                        raise TypeError(_TYPE_ERR)
                    v = iop(FDEC(aw), FDEC(bw))
                    if not lo <= v <= hi:
                        raise OverflowError("fixnum overflow: %d" % v)
                    return FENC(v)
                FLOAT(bw, xb)
                else:
                    raise TypeError(_TYPE_ERR)
            except (IndexError, ValueError):  # dangling handle, word out of [0, 2**64)
                raise TypeError(_TYPE_ERR) from None
            r = fop(xa, xb)
            if HAS_IMM or HOOKED:
                md[0] = r
                bits = mq[0]
            BOX

        return arith

    def less(aw, bw):
        try:
            FLOAT(aw, xa)
            else:
                if not (FIX(aw) and FIX(bw)):
                    raise TypeError(_TYPE_ERR)
                return FDEC(aw) < FDEC(bw)
            FLOAT(bw, xb)
            else:
                raise TypeError(_TYPE_ERR)
            return xa < xb
        except (IndexError, ValueError):  # dangling handle, word out of [0, 2**64)
            raise TypeError(_TYPE_ERR) from None

    return dict(
        box=box, box_host=box_host, unbox=unbox, is_float=is_float, box_fixnum=box_fixnum,
        unbox_fixnum=unbox_fixnum, is_fixnum=is_fixnum, make_arith=make_arith, less=less,
        counts=counts, reset=reset,
    )
"""

# FLOAT(w, x) binds x to the float of generic operand w when w is a float
# word. {head} opens the chain at the tag test IMM, after the memo lookup
# (_MEMO_HIT) in a family with a memo. {decode}, after IMM, is _DECODE,
# or with a memo _MEMO: the range test, the decode and the memo store. The handle test comes last. The chain ends in an
# elif, so the else after it in the source takes every other word.
_FLOAT = """{head}IMM({w}):
{decode}
elif {w} & ((1 << 64) | 7) == ht:
    {x} = payload[{w} >> 3]"""
_MEMO_HIT = """if ({x} := memo.get({w})) is not None:
    {w} >> 128
elif """
_DECODE = """    mq[0] = DEC({w})
    {x} = md[0]"""
_MEMO = """    if {w} >> 64:
        raise TypeError(_TYPE_ERR)
    mq[0] = DEC({w})
    {x} = md[0]
    if len(memo) == MEMO_BOUND:
        memo.clear()
    memo[{w}] = {x}"""

# BOX: box float r, whose bits are bits: the hook, the event count and, on
# a hit, the immediate word; otherwise CANON or MISS.
_BOX = """if HOOKED:
    hook(bits)
if HAS_MISS:
    n += 1
if HIT(bits):
    return ENC(bits)
if not HAS_MISS:
    return CANON
MISS"""

# MISS: float r, with bits bits, misses. It counts the miss (_COUNT_MISS,
# which a family without immediates leaves out: there every event misses,
# and counts() reads slow as n and flips as 0) and returns a zero cell
# (SIGN_64 alone is the -0.0 word) or a new heap cell.
_COUNT_MISS = """slow += 1
if last != n - 1:
    flips += 1 + (last > 0)
last = n
"""
_MISS = """if ZEROS and (bits == 0 or bits == SIGN_64):
    zhits += 1
    w = pz_pos if bits == 0 else pz_neg
else:
    ALLOC(w, r)
return w"""

# The Runtime's operations, each named after the function of _SOURCE that
# defines it. The generic arithmetic is one function, arith, which
# make_arith closes over the (fop, iop) pair of each operation in _ARITH:
# fop combines the operands' floats, iop their fixnum values.
_OPS = {
    "box_float": "box",
    "box_host_float": "box_host",
    "unbox_float": "unbox",
    "is_float_value": "is_float",
    "box_fixnum": "box_fixnum",
    "unbox_fixnum": "unbox_fixnum",
    "is_fixnum_value": "is_fixnum",
    "generic_add": "arith",
    "generic_sub": "arith",
    "generic_mul": "arith",
    "generic_div": "arith",
    "generic_less": "less",
}
_ARITH = {
    "generic_add": (add, add),
    "generic_sub": (sub, sub),
    "generic_mul": (mul, mul),
    "generic_div": (ieee_div, floordiv),
}

# a block marker and its (word, float) arguments, alone on its line
_BLOCK = re.compile(r"^( *)(MISS|FLOAT|ALLOC|BOX)(?:\((\w+), (\w+)\))?$", re.M)


class _Family(NamedTuple):
    """Every decision that sets a family apart."""

    variants: tuple  # the variants it serves
    forms: dict  # HIT, IMM, DEC, ENC and the fixnum layout's FIX, FDEC, FENC
    classes: tuple = None  # table families: (class shift, low field width)
    memo: bool = False  # whether FLOAT keeps a decode memo
    canon: int = None  # without a heap: the one word of the NaNs it collapses
    fixnums: tuple = (FIXNUM_MIN, FIXNUM_MAX)  # the fixnum range


# The rot5 and rot4 forms read the tables that _codec_tables builds per
# Runtime; IMM binds d and HIT binds e for the DEC and ENC that follow
# them. k is the rot4 offset: DEC subtracts it from the whole word before
# shifting, because the borrow can cross the nibble boundary (the all-ones
# NaN encodes below 16 under rot4 and borrows). The four families that tag
# fixnums fxt share _TAGGED_FIX.
_TAGGED_FIX = {
    "FIX": "0 <= {0} <= M64 and {0} & 7 == fxt",
    "FDEC": "((({} - fxt) ^ SIGN_64) - SIGN_64) >> 3",
    "FENC": "(({} << 3) & M64) | fxt",
}
_FAMILIES = {
    "rot5": _Family(
        (ONE_TAG, TWO_TAG_BIASED),
        {
            "HIT": "(e := et[{} >> 58]) is not None",
            "IMM": "(d := dt[{} & 31]) is not None",
            "DEC": "(({} >> 5) + d) & M64",
            "ENC": "({} << 5) - e",
            **_TAGGED_FIX,
        },
        classes=(58, 5), memo=True,
    ),
    "rot4": _Family(
        (TWO_TAG_ZEROS, THREE_TAG, FOUR_TAG),
        {
            "HIT": "(e := et[{} >> 60]) is not None",
            "IMM": "(d := dt[{} & 15]) is not None",
            "DEC": "((({} - k) >> 4) & M60) | d",
            "ENC": "(({} << 4) - e) & M64",
            **_TAGGED_FIX,
        },
        classes=(60, 4), memo=True,
    ),
    "mantissa": _Family(
        (MANTISSA,), {"HIT": "{} & 3 == 0", "IMM": "{} & 3 == 0", "DEC": "{}", "ENC": "{}", **_TAGGED_FIX}
    ),
    "boxed": _Family((BOXED,), {"HIT": "False", "IMM": "False", "DEC": "{}", "ENC": "{}", **_TAGGED_FIX}),
    "nanbox": _Family(
        (NANBOX,),
        {
            "HIT": "{} < NAN_CANON",
            "IMM": "{} <= NAN_CANON",
            "DEC": "{}",
            "ENC": "{}",
            "FIX": "NAN_CANON < {0} <= M64 and ({0} >> 48) & 7 == NAN_FIXNUM_TAG",
            "FDEC": "(({} & NAN_PAYLOAD_MASK) ^ (1 << 47)) - (1 << 47)",
            "FENC": "{} & NAN_PAYLOAD_MASK | (NAN_CANON | NAN_FIXNUM_TAG << 48)",
        },
        memo=True, canon=NAN_CANON, fixnums=(NAN_FIXNUM_MIN, NAN_FIXNUM_MAX),
    ),
    "nunbox": _Family(
        (NUNBOX,),
        {
            "HIT": "{} < NUN_CANON_MIN",
            "IMM": "NUN_BIAS <= {} < 0xFFFF << 48",
            "DEC": "{} - NUN_BIAS",
            "ENC": "{} + NUN_BIAS",
            "FIX": "{0} >> 48 in (0, 0xFFFF) and {0} & 7 == 0",
            "FDEC": "(({} ^ SIGN_64) - SIGN_64) >> 3",
            "FENC": "({} << 3) & M64",
        },
        memo=True, canon=NAN_CANON + NUN_BIAS, fixnums=(NUN_FIXNUM_MIN, NUN_FIXNUM_MAX),
    ),
}
_VARIANT_FAMILY = {v: family for family, rec in _FAMILIES.items() for v in rec.variants}

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
    "_TYPE_ERR": _TYPE_ERR,
    "_RANGE_ERR": _RANGE_ERR,
}

# a form marker and its argument, a plain name
_FORM = re.compile(r"\b(HIT|IMM|DEC|ENC|FIX|FDEC|FENC)\((\w+)\)")


@cache
def _text(family, hooked, zeros):
    """The family's closure source, made once per family, hooked and zeros
    flag in a process: _SOURCE with its blocks expanded, then the family's
    forms, CANON, the four derived constants and the module constants
    substituted. _builder compiles it, and the kernel compiler (fuse.py)
    takes the bodies of its operations from it."""
    rec = _FAMILIES[family]
    forms = rec.forms
    has_imm = forms["HIT"] != "False"
    head = _MEMO_HIT if rec.memo else "if "
    blocks = {
        "BOX": _BOX,
        "MISS": (_COUNT_MISS if has_imm else "") + _MISS,
        "FLOAT": _FLOAT.replace("{head}", head).replace("{decode}", _MEMO if rec.memo else _DECODE),
        "ALLOC": ALLOC,
    }

    def block(mo):
        text = blocks[mo[2]].format(w=mo[3], x=mo[4])
        return indent(_BLOCK.sub(block, text), mo[1])  # MISS holds ALLOC

    consts = dict(
        _LITERALS, HAS_IMM=has_imm, HAS_MISS=rec.canon is None, CANON=rec.canon,
        HOOKED=hooked, ZEROS=zeros,
    )
    text = _FORM.sub(lambda mo: "(%s)" % forms[mo[1]].format(mo[2]), _BLOCK.sub(block, _SOURCE))
    return re.sub(r"\b(%s)\b" % "|".join(consts), lambda mo: repr(consts[mo[1]]), text)


@cache
def _builder(family, hooked, zeros):
    """_text(family, hooked, zeros) as a code object, compiled once per key
    in a process. Running it defines build() in the namespace it runs in,
    whose globals are the names a Runtime binds (Runtime._compile)."""
    return compile(_text(family, hooked, zeros), "<runtime %s>" % family, "exec")


def _codec_tables(scheme, shift, low):
    """(dt, et) for a table family's scheme, whose classes are the prefixes
    bits >> shift and whose low word field is low bits wide: the reference
    transforms in schemes.py evaluated at one representative per class (a
    low word field with every higher bit 0, a prefix with every lower bit
    0), and None where the class is not immediate. dt[j] holds the top bits
    that DEC puts onto the shifted word: the bits of st_untransform(j) at
    and above the shift. rot5's has no others; rot4's DEC computes the rest
    from the word and k.
    et[p] is what ENC subtracts from the shifted float bits: the prefix p
    shifted out of the top, less st_transform of the class representative,
    so that (bits << low) - et[p] is the transformed word."""
    m = self_tag_set(scheme)
    dt = [st_untransform(j, scheme) & (-1 << shift) for j in range(1 << low)]
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

    box_float takes float bits in [0, 2**64). Under every scheme it raises
    ValueError for a number outside that range and TypeError for a float
    inside it (the buffer store rejects it), both before the hook and the
    counters, as box_host_float does. box_host_float takes a host number,
    converted as struct's "d" converts it (a float, an int, a bool, a
    numpy scalar: anything with __float__ or __index__), and gives the word, counters and hook call of
    box_float(float_to_bits(x)). It raises TypeError for anything else and
    ValueError for an int too large for a float, before the hook and the
    counters. Words that are not
    floats, dangling heap handles and any word outside [0, 2**64)
    included, make is_float_value return False and unbox_float raise
    TypeError; words that are not fixnums, out-of-range words with the
    fixnum tag included, make is_fixnum_value return False and
    unbox_fixnum raise TypeError. The generic operations raise TypeError
    for all of them, negative words with the heap-handle tag and
    out-of-range words with an immediate tag included. That TypeError
    covers floats and words outside [0, 2**64), not every non-int, since
    no operand type is checked: a bool is taken for its int, and a numpy
    integer is either taken for the float word it equals or raises
    OverflowError; as a fixnum, it follows numpy's fixed-width arithmetic.

    A Runtime owns its heap. Each st2zeros Runtime allocates its own +0.0
    and -0.0 cells in it when it is built. Heap handles are checked by tag
    and arena bound under both the tagged-pointer and the generic-pointer
    layout, not by what the cell holds: the arena stores float cells only
    (ballast is counted, never stored), so no handle reaches ballast.

    The float and fixnum operations (box_float, box_host_float,
    unbox_float, is_float_value, box_fixnum, unbox_fixnum, is_fixnum_value
    and the generic_* operations) are instance attributes: closures
    compiled from one source per family, not methods. Their counters of
    box events, slow-path encodes and representation flips belong to the
    Runtime, not its heap: stats() joins them to the heap's allocation
    counters, and hit_ratio() counts only the float cells this runtime
    boxed.

    Under every scheme but boxed and mantissa, the generic operations take
    an operand's float from a memo (_memo) of at most MEMO_BOUND decoded
    words. Whether an operand came from there, a decode or the arena
    changes no word, counter or hook call.

    The float<->bits conversions of every operation share one 8-byte
    buffer per Runtime (_mq/_md, two views of the same bytes), so a Runtime
    has a single owner and must not be shared between threads."""

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
        rec = _FAMILIES[family]
        heap = self.heap
        dt, et = _codec_tables(scheme, *rec.classes) if rec.classes else (None, None)
        ht = handle_tag(scheme) if rec.canon is None else -1  # no heap: no word is a handle
        lo, hi = rec.fixnums
        zeros = variant == TWO_TAG_ZEROS
        # st2zeros stores its own +0.0 and -0.0 cells, before anything it boxes
        if zeros:
            alloc = heap.float_allocator(scheme.heap_float_tag)
            pz_pos, pz_neg = alloc(0.0), alloc(-0.0)
        else:
            pz_pos = pz_neg = None
        ns = dict(
            dt=dt, et=et, k=scheme.offset, ht=ht, fxt=fixnum_tag(scheme), lo=lo, hi=hi,
            pz_pos=pz_pos, pz_neg=pz_neg, hook=hook, mq=self._mq, md=self._md,
            memo=self._memo, **heap.alloc_names(scheme.heap_float_tag),
        )
        self._key = (family, hook is not None, zeros)
        exec(_builder(*self._key), ns)
        # popped, so that no cycle (build -> ns -> build) keeps the heap
        # alive once the Runtime is dropped
        fns = ns.pop("build")()
        self._counts, self._reset = fns["counts"], fns["reset"]
        self._ops = {
            op: fns["make_arith"](*_ARITH[op]) if name == "arith" else fns[name]
            for op, name in _OPS.items()
        }
        self.__dict__.update(self._ops)
