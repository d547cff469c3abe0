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
    # each block is refilled in place by the next, so keep copies
    blocks = [(start, b.copy()) for start, b in batch._blocks(7, n)]
    assert [start for start, _ in blocks] == list(range(0, n, batch.BLOCK))
    assert np.array_equal(np.concatenate([b for _, b in blocks]), splitmix64_block(7, 0, n))


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
    monkeypatch.setattr(batch, "st_untransform_block", lambda w, c: back(w, c) & ~np.uint64(1))
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
                        lambda b, c: np.where(b == bad, fwd(b, c) ^ np.uint64(1), fwd(b, c)))
    monkeypatch.setattr(batch, "st_untransform_block",
                        lambda w, c: np.where(w == (fwd(bad, c) ^ np.uint64(1)), bad, back(w, c)))
    with pytest.raises(AssertionError, match="disagrees with scalar at lane %d$" % lane):
        st_roundtrip_mismatches(PRESETS["st1"], n, seed=9)

    bad32 = bad.astype(np.uint32)
    variant = OneTag(0)
    fwd32, back32 = batch.st32_transform_block, batch.st32_untransform_block
    monkeypatch.setattr(batch, "st32_transform_block",
                        lambda b, v: np.where(b == bad32, fwd32(b, v) ^ np.uint32(1), fwd32(b, v)))
    monkeypatch.setattr(batch, "st32_untransform_block",
                        lambda w, v: np.where(w == (fwd32(bad32, v) ^ np.uint32(1)), bad32, back32(w, v)))
    with pytest.raises(AssertionError, match="disagrees with scalar at lane %d$" % lane):
        st32_roundtrip_mismatches(variant, n, seed=9)

    for box, unbox, driver in (("nan_box_block", "nan_unbox_block", nan_roundtrip_mismatches),
                               ("nun_box_block", "nun_unbox_block", nun_roundtrip_mismatches)):
        fwd, back = getattr(batch, box), getattr(batch, unbox)
        flipped = fwd(bad) ^ np.uint64(1)
        monkeypatch.setattr(batch, box,
                            lambda b, fwd=fwd: np.where(b == bad, fwd(b) ^ np.uint64(1), fwd(b)))
        monkeypatch.setattr(batch, unbox,
                            lambda w, back=back, flipped=flipped: np.where(w == flipped, bad, back(w)))
        with pytest.raises(AssertionError, match="disagrees with scalar at lane %d$" % lane):
            driver(n, seed=9)
