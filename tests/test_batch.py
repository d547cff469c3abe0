import os
import sys
import threading
import warnings
from itertools import islice

import numpy as np
import pytest

from tagbench import batch, schemes, st32
from tagbench.batch import (
    covers_block,
    nan_box_block,
    nan_roundtrip_mismatches,
    nan_unbox_block,
    nun_box_block,
    nun_roundtrip_mismatches,
    nun_unbox_block,
    splitmix64_block,
    st32_roundtrip_mismatches,
    st32_transform_block,
    st32_untransform_block,
    st_roundtrip_mismatches,
    st_transform_block,
    st_untransform_block,
    )
from tagbench.prng import splitmix64
from tagbench.schemes import PRESETS, SELF_TAG_PRESETS, covers, st_transform
from tagbench.st32 import OneTag, TwoTag, st32_covers, st32_transform

from _words import boundary_words32, boundary_words64
from test_schemes import PARAM_CONFIGS

# the presets, then every rot4 offset and every one-tag and biased two-tag
# tag
TRANSFORM_CONFIGS = {name: PRESETS[name] for name in SELF_TAG_PRESETS}
TRANSFORM_CONFIGS.update(
    ("%s-%d" % (c.variant, c.offset if c.variant in schemes.ROT4_VARIANTS else c.tag), c)
    for c in PARAM_CONFIGS
)


def test_splitmix_block_matches_scalar_stream():
    seed = 42
    want = list(islice(splitmix64(seed), 1000))
    got = splitmix64_block(seed, 0, 1000)
    assert got.dtype == np.uint64
    assert [int(x) for x in got] == want
    # a block starting mid-stream continues the same sequence
    tail = splitmix64_block(seed, 600, 400)
    assert [int(x) for x in tail] == want[600:]


@pytest.mark.parametrize("n", [1, batch.BLOCK - 1, batch.BLOCK, 2 * batch.BLOCK + 123])
def test_blocks_concatenate_to_the_stream(n):
    # a worker's generator refills its buffer in place on every block, so
    # keep copies; the 32-bit stream is the 64-bit one truncated
    size = min(batch.BLOCK, n)
    for dtype in (np.uint64, np.uint32):
        stream = batch._Stream(7, size, dtype)
        blocks = [stream.block(start, min(size, n - start)).copy() for start in range(0, n, size)]
        want = splitmix64_block(7, 0, n).astype(dtype)
        assert all(b.dtype == dtype for b in blocks)
        assert np.array_equal(np.concatenate(blocks), want)


def test_splitmix_blocks_are_fresh_arrays():
    first = splitmix64_block(7, 0, 100)
    want = first.copy()
    first[:] = 0
    assert np.array_equal(splitmix64_block(7, 0, 100), want)


def test_mismatch_total_does_not_depend_on_block(monkeypatch):
    # a backward mirror that clears bit 0 loses exactly the odd words
    n = (1 << 17) + 5
    odd = int(np.count_nonzero(splitmix64_block(9, 0, n) & np.uint64(1)))
    back = batch.st_untransform_block
    monkeypatch.setattr(batch, "st_untransform_block", lambda w, c, **kw: back(w, c, **kw) & ~np.uint64(1))
    for block in (1 << 10, 1 << 14, 1 << 16):
        monkeypatch.setattr(batch, "BLOCK", block)
        assert st_roundtrip_mismatches(PRESETS["st1"], n, seed=9) == odd > 0


def _fresh(mirror, words, config):
    """mirror(words, config), checked to be a new array of words' dtype
    that leaves words unchanged."""
    kept = words.copy()
    out = mirror(words, config)
    assert out.dtype == words.dtype
    assert not np.shares_memory(out, words)
    assert np.array_equal(words, kept)
    return out


@pytest.mark.parametrize("name", TRANSFORM_CONFIGS)
def test_transform_block_matches_scalar(name):
    cfg = TRANSFORM_CONFIGS[name]
    words = splitmix64_block(5, 0, 4096)
    tr = _fresh(st_transform_block, words, cfg)
    for i in (0, 1, 17, 4095):
        assert int(tr[i]) == st_transform(int(words[i]), cfg)
    back = _fresh(st_untransform_block, tr, cfg)
    assert np.array_equal(back, words)


@pytest.mark.parametrize("name", SELF_TAG_PRESETS)
def test_covers_block_matches_scalar(name):
    cfg = PRESETS[name]
    words = splitmix64_block(11, 0, 4096)
    cov = covers_block(words, cfg)
    assert cov.dtype == np.bool_
    for i in (0, 3, 100, 4095):
        assert bool(cov[i]) == covers(cfg, int(words[i]))


def test_boundary_word_lists():
    b64 = boundary_words64()
    assert len(b64) == 384
    assert len(set(int(x) for x in b64)) == len(b64)
    b32 = boundary_words32()
    assert len(b32) == 192


@pytest.mark.parametrize("name", SELF_TAG_PRESETS)
def test_st_roundtrip_fuzz_small(name):
    assert st_roundtrip_mismatches(PRESETS[name], 100000, seed=9) == 0


def test_nan_nun_roundtrip_fuzz_small():
    assert nan_roundtrip_mismatches(100000, seed=9) == 0
    assert nun_roundtrip_mismatches(100000, seed=9) == 0


def test_nun_blocks_wrap_without_warnings():
    # uint64 array arithmetic wraps silently, so the NuN codec needs no
    # errstate: no warning, even where the bias wraps a word around 2**64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert nun_roundtrip_mismatches(100000, seed=9) == 0
        edges = np.array([0, 1, (1 << 64) - 1], dtype=np.uint64)
        assert [int(w) for w in nun_unbox_block(edges)] == [
            (int(w) - schemes.NUN_BIAS) % (1 << 64) for w in edges
        ]
        assert [int(w) for w in nun_box_block(edges)] == [
            schemes.nun_box_float(int(w)) for w in edges
        ]


def test_nan_nun_blocks_match_references():
    # the collapse edges of both codecs, among random words
    edges = [0, schemes.NAN_CANON - 1, schemes.NAN_CANON, schemes.NAN_CANON + 1,
             schemes.NUN_CANON_MIN - 1, schemes.NUN_CANON_MIN, (1 << 64) - 1]
    words = np.concatenate([splitmix64_block(13, 0, 4096), np.array(edges, dtype=np.uint64)])
    ints = [int(b) for b in words]
    nan_boxed = nan_box_block(words)
    assert [int(w) for w in nan_boxed] == [schemes.nan_box_float(b) for b in ints]
    nun_boxed = nun_box_block(words)
    assert [int(w) for w in nun_boxed] == [schemes.nun_box_float(b) for b in ints]
    below = words < np.uint64(schemes.NAN_CANON)
    assert np.array_equal(nan_unbox_block(nan_boxed)[below], words[below])
    below = words < np.uint64(schemes.NUN_CANON_MIN)
    assert np.array_equal(nun_unbox_block(nun_boxed)[below], words[below])


def test_st32_blocks_match_scalar():
    words = splitmix64_block(3, 0, 4096).astype(np.uint64) & np.uint64(0xFFFFFFFF)
    words = words.astype(np.uint32)
    for v in [*map(OneTag, range(4)), *map(TwoTag, range(4))]:
        tr = _fresh(st32_transform_block, words, v)
        for i in (0, 9, 4095):
            assert int(tr[i]) == st32_transform(int(words[i]), v)
        assert np.array_equal(_fresh(st32_untransform_block, tr, v), words)


def _into(mirror, words, *config, scratch=None):
    """mirror(words, *config) into a given out array, and a scratch array
    of dtype scratch if one is named, checked to return out holding the
    fresh-array result and to leave words unchanged."""
    kept = words.copy()
    want = mirror(words, *config)
    out = np.full_like(words, 0x5A)
    got = mirror(words, *config, out=out,
                 scratch=None if scratch is None else np.empty(words.shape, scratch))
    assert got is out
    assert np.array_equal(out, want)
    assert np.array_equal(words, kept)


@pytest.mark.parametrize("name", TRANSFORM_CONFIGS)
def test_transform_blocks_write_into_out(name):
    cfg = TRANSFORM_CONFIGS[name]
    words = splitmix64_block(5, 0, 4096)
    for mirror in (st_transform_block, st_untransform_block):
        _into(mirror, words, cfg, scratch=np.uint64)
        _into(mirror, words, cfg)


def test_st32_blocks_write_into_out():
    words = splitmix64_block(3, 0, 4096).astype(np.uint32)
    for v in [*map(OneTag, range(4)), *map(TwoTag, range(4))]:
        for mirror in (st32_transform_block, st32_untransform_block):
            _into(mirror, words, v, scratch=np.uint32)
            _into(mirror, words, v)


def test_nan_nun_blocks_write_into_out():
    edges = [0, schemes.NAN_CANON - 1, schemes.NAN_CANON, schemes.NUN_CANON_MIN - 1,
             schemes.NUN_CANON_MIN, (1 << 64) - 1]
    words = np.concatenate([splitmix64_block(13, 0, 4096), np.array(edges, dtype=np.uint64)])
    for mirror in (nan_box_block, nun_box_block, nun_unbox_block):
        _into(mirror, words)
        _fresh(lambda w, _: mirror(w), words, None)
    _into(nun_box_block, words, scratch=np.bool_)
    # the NaN unbox is the identity: it returns its input, out or not
    assert nan_unbox_block(words) is words
    assert nan_unbox_block(words, out=np.empty_like(words)) is words


def test_st32_roundtrip_fuzz_small():
    assert st32_roundtrip_mismatches(OneTag(0), 100000, seed=9) == 0
    assert st32_roundtrip_mismatches(TwoTag(0), 100000, seed=9) == 0


def test_covers_block_mantissa_rule():
    cfg = PRESETS["mantissa"]
    words = np.arange(64, dtype=np.uint64)
    cov = covers_block(words, cfg)
    assert np.array_equal(cov, (words & np.uint64(3)) == 0)


def _chunk_lanes(n, chunk=1 << 20):
    # reference spot-check lanes: every (m // 16)-th lane of each
    # 2^20-word chunk, m its length
    for start in range(0, n, chunk):
        m = min(chunk, n - start)
        yield from range(start, start + m, max(1, m // 16))


@pytest.mark.parametrize("n,count", [(100000, 16), ((1 << 20) + 5, 21), (1 << 22, 64), (10**7, 160)])
def test_spot_check_lanes_do_not_depend_on_block(monkeypatch, n, count):
    seen64, seen32, seen_nan, seen_nun = [], [], [], []
    scalar64, scalar32 = schemes.st_transform, st32.st32_transform
    nan_ref, nun_ref = schemes.nan_box_float, schemes.nun_box_float
    monkeypatch.setattr(schemes, "st_transform", lambda b, c: seen64.append(b) or scalar64(b, c))
    monkeypatch.setattr(st32, "st32_transform", lambda b, v: seen32.append(b) or scalar32(b, v))
    monkeypatch.setattr(schemes, "nan_box_float", lambda b: seen_nan.append(b) or nan_ref(b))
    monkeypatch.setattr(schemes, "nun_box_float", lambda b: seen_nun.append(b) or nun_ref(b))
    assert st_roundtrip_mismatches(PRESETS["st1"], n, seed=9) == 0
    assert st32_roundtrip_mismatches(OneTag(0), n, seed=9) == 0
    assert nan_roundtrip_mismatches(n, seed=9) == 0
    assert nun_roundtrip_mismatches(n, seed=9) == 0
    lanes = list(_chunk_lanes(n))
    assert len(lanes) == count
    want = [int(splitmix64_block(9, i, 1)[0]) for i in lanes]
    assert seen64 == want
    assert seen32 == [w & 0xFFFFFFFF for w in want]
    assert seen_nan == want
    assert seen_nun == want


def test_exhaustive_sweep_spot_checks_16_lanes_per_4m_words():
    assert list(batch._spot_lanes(1 << 32, 1 << 22)) == list(range(0, 1 << 32, 1 << 18))


def test_spot_check_catches_a_self_consistent_vector_bug(monkeypatch):
    # Forward and inverse blocks both flip the low bit of one word, so every
    # word still roundtrips; only the comparison with the scalar transform
    # can see the bug. The word sits on the last spot lane, in the last block.
    n = (1 << 20) + 5
    lane = n - 1
    bad = splitmix64_block(9, lane, 1)[0]
    fwd, back = batch.st_transform_block, batch.st_untransform_block
    monkeypatch.setattr(batch, "st_transform_block",
                        lambda b, c, **kw: np.where(b == bad, fwd(b, c) ^ np.uint64(1), fwd(b, c)))
    monkeypatch.setattr(batch, "st_untransform_block",
                        lambda w, c, **kw: np.where(w == (fwd(bad, c) ^ np.uint64(1)), bad, back(w, c)))
    with pytest.raises(AssertionError, match="disagrees with scalar at lane %d$" % lane):
        st_roundtrip_mismatches(PRESETS["st1"], n, seed=9)

    bad32 = bad.astype(np.uint32)
    variant = OneTag(0)
    fwd32, back32 = batch.st32_transform_block, batch.st32_untransform_block
    monkeypatch.setattr(batch, "st32_transform_block",
                        lambda b, v, **kw: np.where(b == bad32, fwd32(b, v) ^ np.uint32(1), fwd32(b, v)))
    monkeypatch.setattr(batch, "st32_untransform_block",
                        lambda w, v, **kw: np.where(w == (fwd32(bad32, v) ^ np.uint32(1)), bad32, back32(w, v)))
    with pytest.raises(AssertionError, match="disagrees with scalar at lane %d$" % lane):
        st32_roundtrip_mismatches(variant, n, seed=9)

    for box, unbox, driver in (("nan_box_block", "nan_unbox_block", nan_roundtrip_mismatches),
                               ("nun_box_block", "nun_unbox_block", nun_roundtrip_mismatches)):
        fwd, back = getattr(batch, box), getattr(batch, unbox)
        flipped = fwd(bad) ^ np.uint64(1)
        monkeypatch.setattr(batch, box,
                            lambda b, fwd=fwd, **kw: np.where(b == bad, fwd(b) ^ np.uint64(1), fwd(b)))
        monkeypatch.setattr(batch, unbox,
                            lambda w, back=back, flipped=flipped, **kw: np.where(w == flipped, bad, back(w)))
        with pytest.raises(AssertionError, match="disagrees with scalar at lane %d$" % lane):
            driver(n, seed=9)


def test_workers_come_from_the_usable_cpus(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert batch._cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert batch._cpus() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert batch._cpus() == 1


def test_range32_blocks_refill_one_buffer():
    words = batch._Range32(1 << 10)
    first = words.block(0, 1 << 10)
    assert first.dtype == np.uint32
    assert np.array_equal(first, np.arange(1 << 10, dtype=np.uint32))
    last = words.block((1 << 32) - 100, 100)
    assert np.shares_memory(first, last)
    assert [int(w) for w in last] == list(range((1 << 32) - 100, 1 << 32))


SPLITS = [(workers, block) for workers in (1, 2, 3) for block in (1 << 10, 1 << 14, 1 << 16)]


def _split(monkeypatch, workers, block):
    """Force the worker count and BLOCK; returns the list of threads the
    drivers start."""
    monkeypatch.setattr(batch, "_cpus", lambda: workers)
    monkeypatch.setattr(batch, "BLOCK", block)
    started = []

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(batch.threading, "Thread", Thread)
    return started


@pytest.mark.parametrize("workers,block", SPLITS)
def test_split_keeps_the_mismatch_totals(monkeypatch, workers, block):
    # backward mirrors that clear bit 0 lose exactly the odd words (below
    # the bound, for NaN and NuN boxing), however the stream is split
    n = (1 << 21) + 5
    words = splitmix64_block(9, 0, n)
    odd = words & np.uint64(1) == 1
    want = {None: int(np.count_nonzero(odd))}
    for bound in (schemes.NAN_CANON, schemes.NUN_CANON_MIN):
        want[bound] = int(np.count_nonzero(odd & (words < np.uint64(bound))))
    for name in ("st_untransform_block", "nan_unbox_block", "nun_unbox_block"):
        back = getattr(batch, name)
        monkeypatch.setattr(batch, name,
                            lambda w, *c, back=back, **kw: back(w, *c, **kw) & ~np.uint64(1))
    started = _split(monkeypatch, workers, block)
    chunks = -(-n // (batch.CHUNK_BLOCKS * block))
    before = threading.active_count()
    assert st_roundtrip_mismatches(PRESETS["st1"], n, seed=9) == want[None] > 0
    assert nan_roundtrip_mismatches(n, seed=9) == want[schemes.NAN_CANON] > 0
    assert nun_roundtrip_mismatches(n, seed=9) == want[schemes.NUN_CANON_MIN] > 0
    assert threading.active_count() == before
    assert len(started) == 3 * (min(workers, chunks) - 1)


@pytest.mark.parametrize("workers,block", SPLITS)
def test_split_keeps_the_spot_lanes_and_their_order(monkeypatch, workers, block):
    n = (1 << 21) + 5
    seen, threads = {}, set()

    def spy(ref, log):
        def scalar(b, *config):
            threads.add(threading.get_ident())
            log.append(b)
            return ref(b, *config)
        return scalar

    for module, name in ((schemes, "st_transform"), (st32, "st32_transform"),
                         (schemes, "nan_box_float"), (schemes, "nun_box_float")):
        monkeypatch.setattr(module, name, spy(getattr(module, name), seen.setdefault(name, [])))
    _split(monkeypatch, workers, block)
    assert st_roundtrip_mismatches(PRESETS["st1"], n, seed=9) == 0
    assert st32_roundtrip_mismatches(OneTag(0), n, seed=9) == 0
    assert nan_roundtrip_mismatches(n, seed=9) == 0
    assert nun_roundtrip_mismatches(n, seed=9) == 0
    want = [int(splitmix64_block(9, i, 1)[0]) for i in _chunk_lanes(n)]
    assert len(want) == 37
    assert seen == {"st_transform": want, "st32_transform": [w & 0xFFFFFFFF for w in want],
                    "nan_box_float": want, "nun_box_float": want}
    # the scalar references run on the calling thread only
    assert threads == {threading.get_ident()}


@pytest.mark.parametrize("workers,block", SPLITS)
def test_split_reports_the_lowest_bad_lane(monkeypatch, workers, block):
    # Self-consistent bugs on two spot lanes, in the first stretch and at
    # the stream's end: with the words in several chunks, a worker may find
    # the later one first, but the lower lane is the one named.
    n = (1 << 21) + 5
    lanes = ((1 << 20) - (1 << 16), n - 1)
    bad = np.array([splitmix64_block(9, lane, 1)[0] for lane in lanes])
    fwd, back = batch.st_transform_block, batch.st_untransform_block
    cfg = PRESETS["st1"]
    flipped = fwd(bad, cfg) ^ np.uint64(1)
    monkeypatch.setattr(batch, "st_transform_block", lambda b, c, **kw: np.where(
        np.isin(b, bad), fwd(b, c) ^ np.uint64(1), fwd(b, c)))

    def backward(w, c, **kw):
        out = back(w, c)
        for f, b in zip(flipped, bad):
            out = np.where(w == f, b, out)
        return out

    monkeypatch.setattr(batch, "st_untransform_block", backward)
    _split(monkeypatch, workers, block)
    before = threading.active_count()
    with pytest.raises(AssertionError, match="disagrees with scalar at lane %d$" % lanes[0]):
        st_roundtrip_mismatches(cfg, n, seed=9)
    assert threading.active_count() == before


class Boom(Exception):
    pass


@pytest.mark.parametrize("on_worker", [True, False], ids=["worker", "caller"])
@pytest.mark.parametrize("workers", [2, 3])
def test_a_mirror_error_reaches_the_caller(monkeypatch, workers, on_worker):
    # The mirror raises on one thread only: on a started worker or on the
    # caller. Every other thread waits for that before it walks on, so the
    # threads that raise always take a chunk. Either way the error is
    # raised, the others stop, and every thread has ended.
    caller = threading.get_ident()
    raised = threading.Event()
    fwd = batch.st_transform_block

    def forward(b, c, **kw):
        if (threading.get_ident() == caller) != on_worker:
            raised.set()
            raise Boom
        raised.wait(10)
        return fwd(b, c, **kw)

    monkeypatch.setattr(batch, "st_transform_block", forward)
    started = _split(monkeypatch, workers, 1 << 10)
    before = threading.active_count()
    with pytest.raises(Boom):
        st_roundtrip_mismatches(PRESETS["st1"], 1 << 20, seed=9)
    assert raised.is_set()
    assert len(started) == workers - 1
    assert threading.active_count() == before


def test_split_under_a_short_switch_interval(monkeypatch):
    # More workers than cores, and a thread switch every microsecond: a
    # chunk claimed twice or never would change the total or the lanes.
    n = (1 << 20) + 5
    odd = int(np.count_nonzero(splitmix64_block(9, 0, n) & np.uint64(1)))
    back = batch.st_untransform_block
    monkeypatch.setattr(batch, "st_untransform_block",
                        lambda w, c, **kw: back(w, c, **kw) & ~np.uint64(1))
    seen, scalar = [], schemes.st_transform
    monkeypatch.setattr(schemes, "st_transform", lambda b, c: seen.append(b) or scalar(b, c))
    started = _split(monkeypatch, 8, 1 << 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        total = st_roundtrip_mismatches(PRESETS["st1"], n, seed=9)
    finally:
        sys.setswitchinterval(interval)
    assert total == odd
    assert seen == [int(splitmix64_block(9, i, 1)[0]) for i in _chunk_lanes(n)]
    assert len(started) == 7
