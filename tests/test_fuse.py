"""Kernels fused with their runtime (fuse.py) against their reference form:
the same result or exception, counters, arena and hook calls, and a
decode memo that keeps its contract, under every preset, with and without
a profile hook."""

import os
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

import tagbench
from tagbench import KERNEL_NAMES, PRESETS, Runtime, SimHeap, fuse, kernels
from tagbench.kernels import KERNEL_FUNCS, KernelSpec
from tagbench.runtime import _FAMILIES, _OPS, _VARIANT_FAMILY, MEMO_BOUND
from tagbench.schemes import NAN_CANON, NUN_CANON_MIN
from tagbench.words import bits_to_float, float_to_bits

ALL = tuple(PRESETS)
MEMO_PRESETS = tuple(p for p in ALL if _FAMILIES[_VARIANT_FAMILY[PRESETS[p].variant]].memo)
# small enough for every preset and hook, large enough that mbrot
# overflows the decode memo
SMALL = {"sumfp": 300, "fibfp": 10, "mbrot": 10, "pnpoly": 60, "fft": 32, "sum1": 200}


def k_names(rt, size, seed):
    """A kernel whose own names are names of the runtime's text: the
    counter n, rot4's offset k, memo, the arena's payload, a FLOAT chain's
    float xa, bits and r. It boxes a float every preset with a heap misses
    (1e-100) and both zeros, computes on fixnums, and uses more words than
    the decode memo keeps."""
    box = rt.box_host_float
    boxi = rt.box_fixnum
    add = rt.generic_add
    sub = rt.generic_sub
    mul = rt.generic_mul
    div = rt.generic_div
    less = rt.generic_less
    n = box(1e-100)
    k = [box(z) for z in (0.0, -0.0)]
    memo = [box(1.0 + j / 8.0) for j in range(size)]
    payload = boxi(seed)
    xa = k[0]

    def bits(r):
        if less(r, n):
            return sub(n, r)
        return mul(r, n)

    r = 0
    while less(boxi(r), boxi(size)):
        xa = add(bits(memo[r]), div(xa, memo[size - 1 - r]))
        payload = add(payload, div(boxi(r), boxi(3)))
        r += 1
    return xa, payload, add(k[1], k[0])


def k_rebound(rt, size, seed):
    """A kernel whose names are each bound first by an operation that gives
    a float's word, then again in another form: a for target, unpacking,
    augmented assignment, except ... as, a list element, with ... as, del
    and a new binding, and a nested function's parameter. A shadow kept
    past any of those would give the first binding's float. It also adds
    fixnums with an arithmetic operation and boxes a NaN that NaN and NuN
    boxing collapse into one word. size is at least 8."""
    box = rt.box_host_float
    boxi = rt.box_fixnum
    add = rt.generic_add
    mul = rt.generic_mul
    one = box(1.0)
    words = [box(2.0 + j) for j in range(size)]
    got = []
    a = box(10.0)
    for a in words:
        got.append(add(a, one))
    b = box(11.0)
    b, _ = words[1], a
    got.append(add(b, one))
    c = box(12.0)
    c -= c
    c += words[2]
    got.append(add(c, one))
    e = box(13.0)
    try:
        raise KeyError(seed)
    except KeyError as e:
        try:
            got.append(add(e, one))
        except TypeError as ex:
            got.append(str(ex))
    lst = box(14.0)
    lst = words[3]
    got.append(add(lst, one))
    w = box(15.0)
    with nullcontext(words[4]) as w:
        got.append(add(w, one))
    g = box(16.0)
    del g
    try:
        got.append(add(g, one))
    except NameError:
        got.append(None)
    g = box(17.0)
    got.append(add(g, one))
    h = box(18.0)

    def twice(h):
        return add(h, h)

    got.append(twice(words[5]))
    got.append(add(h, one))
    p = add(boxi(2), boxi(size))
    got.append(add(p, boxi(1)))
    q = box(bits_to_float(0xFFF8000000000123))
    got.append(mul(q, one))
    return got


def k_host(rt, size, seed):
    """A kernel that boxes host numbers whose float is not the number
    itself, or is a NaN with a payload, and computes with their words: an
    int no float equals (2**53 + 1, whose float is 2.0**53) beside the int
    3, a bool, numpy float32s, a signalling NaN, and NaNs with payloads at
    and above NAN_CANON and NUN_CANON_MIN, which NaN and NuN boxing
    collapse, as floats and as a float32. A shadow that kept box_host_float's argument
    in place of the float read back from the buffer would compare and
    multiply the ints exactly and the float32s in float32 arithmetic, and
    give other words."""
    box = rt.box_host_float
    add = rt.generic_add
    mul = rt.generic_mul
    div = rt.generic_div
    less = rt.generic_less
    big = box(2**53 + 1)
    three = box(3)
    near = box(2.0**53)
    yes = box(True)
    f32 = box(np.float32(1.1))
    got = [less(near, big), less(big, near), mul(big, three), div(big, three), add(yes, yes)]
    got += [mul(f32, f32), add(f32, yes)]
    nans = [bits_to_float(b) for b in (NAN_CANON, NAN_CANON | 9, NUN_CANON_MIN | 3, 0x7FF0000000000005)]
    nans.append(np.array([0xFFC00123], np.uint32).view(np.float32)[0])
    for x in nans:
        nan = box(x)
        got += [add(nan, yes), mul(yes, nan), less(nan, nan)]
    return got


def state(rt):
    """What a run leaves in rt: its counters and the arena. The decode
    memo is a cache, which the fused form fills less (a word whose float
    the kernel holds is never decoded): it is checked against its
    contract, at most MEMO_BOUND words, each with its word's exact decode,
    not compared."""
    assert len(rt._memo) <= MEMO_BOUND
    assert all(float_to_bits(x) == rt.unbox_float(w) for w, x in rt._memo.items())
    return (
        rt.stats(),
        rt._counts(),
        rt.heap._payload.tobytes(),
        rt.heap.cells_used,
    )


def outcome(preset, hooked, run, capacity=None):
    """(result or exception, state, hook bits) of run(rt) on a new Runtime
    of preset."""
    seen = []
    heap = SimHeap() if capacity is None else SimHeap(capacity)
    rt = Runtime(PRESETS[preset], heap, profile_hook=seen.append if hooked else None)
    try:
        got = run(rt)
    except Exception as ex:
        got = (type(ex), str(ex))
    return got, state(rt), seen


def both(fn, preset, hooked, size, capacity=None):
    ref = outcome(preset, hooked, lambda rt: fn(rt, size, 1), capacity)
    fused = outcome(preset, hooked, lambda rt: fuse.fused(fn, rt)(rt, size, 1), capacity)
    return ref, fused


@pytest.mark.parametrize("hooked", (False, True))
@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_fused_kernels_match_the_reference(name, hooked):
    for preset in ALL:
        ref, fused = both(KERNEL_FUNCS[name], preset, hooked, SMALL[name])
        assert fused == ref, preset


@pytest.mark.parametrize("hooked", (False, True))
def test_kernel_names_shadow_no_runtime_name(hooked):
    for preset in ALL:
        ref, fused = both(k_names, preset, hooked, 300)
        assert fused == ref, preset
        n, slow, _, allocs = ref[1][1]
        if preset in ("st1", "st2zeros"):  # the miss path ran, and st2zeros' zero cells
            assert allocs > 0 and (slow > allocs) == (preset == "st2zeros"), preset


@pytest.mark.parametrize("hooked", (False, True))
def test_rebound_names_lose_their_shadow(hooked):
    # only names every binding of which is an operation giving a float's
    # word, or a copy of such a name, keep the float beside the word: one,
    # h (twice's h is its own), the fixnum sum p and the NaN q
    for preset in ALL:
        ref, fused = both(k_rebound, preset, hooked, 8)
        assert fused == ref, preset
        code = fuse._compiled(k_rebound, Runtime(PRESETS[preset], SimHeap())._key)[0]
        names = {v for v in code.co_varnames + code.co_cellvars if v.startswith(fuse.SHADOW + fuse.KERNEL)}
        assert names == {"f_k_one", "f_k_h", "f_k_p", "f_k_q"}, preset


@pytest.mark.parametrize("hooked", (False, True))
def test_host_numbers_keep_the_float_of_their_word(hooked):
    # the float a fused kernel keeps beside a word box_host_float made is
    # the float read back from the buffer, the word's own float, and a
    # collapsed NaN's word keeps none
    for preset in ALL:
        ref, fused = both(k_host, preset, hooked, 0)
        assert fused == ref, preset
        code = fuse._compiled(k_host, Runtime(PRESETS[preset], SimHeap())._key)[0]
        shadows = {"f_k_big", "f_k_three", "f_k_near", "f_k_yes", "f_k_f32", "f_k_nan"}
        assert shadows <= set(code.co_varnames), preset


def test_the_fuser_finds_every_shadow_head_and_float():
    # for every runtime key, the fuser finds in the operations' text the
    # first test of the FLOAT chain of both operands of each generic
    # operation, and the float of each return that gives a float's word:
    # the immediate word (where the family has immediates) and the miss
    # path's word (where it has a heap), not CANON nor a fixnum result. A
    # change to the text that hid them would turn shadows off silently
    keys = {Runtime(PRESETS[p], SimHeap(), profile_hook=h)._key for p in ALL for h in (None, [].append)}
    assert len(keys) == 14
    ops = set(_OPS.values())
    for key in keys:
        rec = _FAMILIES[key[0]]
        gives = (rec.forms["HIT"] != "False") + (rec.canon is None)
        fuser = fuse._Fuser("k", *fuse._op_defs(key), 1)
        for name in ops:
            _, _, floats, heads = fuser.body(name)
            generic = name in ("arith", "less")
            assert sorted(heads.values()) == ([("aw", "xa"), ("bw", "xb")] if generic else []), (key, name)
            assert len(floats) == (gives if name in ("box", "box_host", "arith") else 0), (key, name)


@pytest.mark.parametrize("name", ("sumfp", "mbrot", "sum1"))
def test_fused_kernels_decode_no_word_they_made(name):
    # every float operand of sumfp, mbrot and sum1 is a word the kernel
    # boxed, so the fused form takes its float from its shadow: nothing is
    # decoded, and the memo, which the reference form fills, stays empty
    fn = KERNEL_FUNCS[name]
    assert set(MEMO_PRESETS) == {"st1", "st2biased", "st2zeros", "st3", "st4", "nanbox", "nunbox"}
    for preset in MEMO_PRESETS:
        for hooked in (False, True):
            rts = [Runtime(PRESETS[preset], SimHeap(), profile_hook=[].append if hooked else None) for _ in "rf"]
            fn(rts[0], SMALL[name], 1)
            fuse.fused(fn, rts[1])(rts[1], SMALL[name], 1)
            assert rts[0]._memo and not rts[1]._memo, (preset, hooked)


@pytest.mark.parametrize(
    "name, preset",
    [("k_names", p) for p in ("boxed", "mantissa", "st1", "st2zeros")]
    + [("fibfp", "boxed"), ("mbrot", "mantissa")],
)
def test_fused_kernels_raise_as_the_reference(name, preset):
    fn = k_names if name == "k_names" else KERNEL_FUNCS[name]
    for hooked in (False, True):
        ref, fused = both(fn, preset, hooked, 300 if fn is k_names else SMALL[name], capacity=40)
        assert ref[0][0] is MemoryError
        assert fused == ref, hooked


def test_a_replaced_operation_sees_every_call():
    # kernels.run keeps the reference form once an operation attribute is
    # not the closure the Runtime compiled, so a spy sees every call
    def spied(rt):
        calls = []
        add = rt.generic_add
        rt.generic_add = lambda a, b: calls.append(1) or add(a, b)
        return calls

    spec = KernelSpec("sumfp", 300, 1)
    rt = Runtime(PRESETS["st1"], SimHeap())
    calls = spied(rt)
    assert fuse.fused(KERNEL_FUNCS["sumfp"], rt) is None
    word = kernels.run(spec, rt)
    ref = Runtime(PRESETS["st1"], SimHeap())
    ref_calls = spied(ref)
    assert word == KERNEL_FUNCS["sumfp"](ref, spec.size, spec.seed)
    assert len(calls) == len(ref_calls) == 2 * (spec.size + 1)


def test_nothing_is_compiled_before_a_kernel_runs():
    # importing the package and building a Runtime of every preset compiles
    # no fused kernel; the first kernels.run compiles exactly one
    script = (
        "from tagbench import PRESETS, Runtime, fuse, kernels\n"
        "rts = [Runtime(PRESETS[p]) for p in PRESETS]\n"
        "print(fuse._compiled.cache_info().currsize)\n"
        "kernels.run(kernels.KernelSpec('sumfp', 10, 1), rts[0])\n"
        "print(fuse._compiled.cache_info().currsize)\n"
    )
    src = str(Path(tagbench.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "1"]


def k_walrus(rt, size, seed):
    add = rt.generic_add
    return add(x := rt.box_host_float(1.0), x)


def k_op_as_value(rt, size, seed):
    box = rt.box_host_float
    return list(map(box, [1.0]))


def k_op_in_boolop(rt, size, seed):
    box = rt.box_host_float
    less = rt.generic_less
    one = box(1.0)
    return size and less(one, one)


@pytest.mark.parametrize("fn", (k_walrus, k_op_as_value, k_op_in_boolop))
def test_what_cannot_be_fused_raises(fn):
    with pytest.raises(NotImplementedError, match="cannot fuse"):
        fuse.fused(fn, Runtime(PRESETS["st1"], SimHeap()))
