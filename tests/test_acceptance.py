"""Acceptance gate: one test per criterion, each with its stated
tolerance and time budget. The expected numbers live in _frozen.py."""

import math
import os
import time

import numpy as np
import pytest
from click.testing import CliRunner

from tagbench.batch import (
    covers_block,
    nan_roundtrip_mismatches,
    nun_roundtrip_mismatches,
    splitmix64_block,
    st32_transform_block,
    st_roundtrip_mismatches,
)
from tagbench.cli import main
from tagbench.profiler import render_table
from tagbench.schemes import (
    EXPONENT_PRESETS,
    ONE_TAG,
    PRESETS,
    ROT4_VARIANTS,
    SELF_TAG_PRESETS,
    TWO_TAG_BIASED,
    SchemeConfig,
    covered_prefix_classes,
    self_tag_set,
)
from tagbench.st32 import OneTag, TwoTag, st32_tag_set

from _frozen import COVERED_64, KERNELS, ONE_TAG_CLASSES

FIVE_KERNELS = ("sumfp", "fibfp", "mbrot", "pnpoly", "fft")

# The coverage ranges the CLI must print, at two significant digits.
# lo None means the zero edge, hi None means the Inf/NaN edge.
EXPECTED_COVERAGE = {
    ("st3", "64"): [(None, 1.3e-231), (1.7e-77, 2.3e77)],
    ("st1", "64"): [(None, 2.1e-289), (1.1e-19, 3.7e19), (1.9e289, None)],
    ("st2biased", "64"): [(None, 3.8e-270), (5.9e-39, 6.8e38), (1.1e270, None)],
    ("one", "32"): [(None, 3.9e-34), (3.1e-5, 1.3e5), (1.0e34, None)],
    ("two", "32"): [(None, 2.5e-29), (4.7e-10, 8.6e9), (1.6e29, None)],
}


def _parse_edge(tok):
    if tok == "0":
        return None
    if tok == "Inf/NaN":
        return None
    return float(tok)


def _two_sig(x):
    return "%.1e" % x


def test_criterion_1_coverage_boundaries():
    t0 = time.perf_counter()
    runner = CliRunner()
    for (scheme, bits), want in EXPECTED_COVERAGE.items():
        r = runner.invoke(main, ["coverage", "--scheme", scheme, "--bits", bits])
        assert r.exit_code == 0, r.output
        lines = r.output.splitlines()
        assert len(lines) == len(want), (scheme, lines)
        for line, (wlo, whi) in zip(lines, want):
            lo_tok, hi_tok = line.split(" .. ")
            lo, hi = _parse_edge(lo_tok), _parse_edge(hi_tok)
            assert (lo is None) == (wlo is None), line
            assert (hi is None) == (whi is None), line
            if wlo is not None:
                assert _two_sig(lo) == _two_sig(wlo), line
            if whi is not None:
                assert _two_sig(hi) == _two_sig(whi), line
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, "coverage queries took %.2fs" % elapsed


def test_criterion_2_allocation_vs_boxed(matrix_result):
    by = matrix_result["by"]
    for kernel in FIVE_KERNELS:
        boxed_bytes = by[(kernel, "boxed")].stats.float_bytes
        assert boxed_bytes > 0
        for scheme in EXPONENT_PRESETS:
            st_bytes = by[(kernel, scheme)].stats.float_bytes
            assert st_bytes <= 0.01 * boxed_bytes, (
                "%s under %s: %d bytes vs boxed %d"
                % (kernel, scheme, st_bytes, boxed_bytes)
            )
        assert by[(kernel, "nanbox")].stats.float_bytes == 0
        assert by[(kernel, "nunbox")].stats.float_bytes == 0
    assert matrix_result["wall"] < 120.0, "matrix took %.1fs" % matrix_result["wall"]


def test_criterion_3_tag_fraction_law():
    t0 = time.perf_counter()
    # exhaustive over the 32 exponent-prefix classes, every parameter value
    for variant in sorted(ROT4_VARIANTS):
        for off in range(8):
            base = {"two_tag_zeros": (3, 4), "three_tag": (0, 3, 4), "four_tag": (0, 3, 4, 7)}
            tags = {(t + off) % 8 for t in base[variant]}
            free = min(t for t in range(8) if t not in tags)
            cfg = SchemeConfig("x", variant, offset=off, heap_float_tag=free)
            n = len(tags)
            assert len(covered_prefix_classes(cfg)) == 32 * n // 8, (variant, off)
    for tag in range(8):
        cfg = SchemeConfig("x", ONE_TAG, tag=tag, heap_float_tag=(tag + 1) % 8)
        assert len(covered_prefix_classes(cfg)) == 4, tag  # 1/8 of 32
        free = min(t for t in range(8) if t not in (tag, (tag - 1) % 8))
        cfg = SchemeConfig("x", TWO_TAG_BIASED, tag=tag, heap_float_tag=free)
        assert len(covered_prefix_classes(cfg)) == 8, tag  # 2/8 of 32
    # 32-bit: 16 prefix classes, 2-bit tags
    for t in range(4):
        assert len(covered_prefix_classes(OneTag(t))) == 4  # 1/4 of 16
        assert len(covered_prefix_classes(TwoTag(t))) == 8  # 2/4 of 16
    # >= 10^7-word fuzz per preset: empirical immediate fraction within 1e-3
    n = 10_000_000
    words = splitmix64_block(2024, 0, n)
    for name in SELF_TAG_PRESETS:
        cfg = PRESETS[name]
        expect = bin(self_tag_set(cfg)).count("1") / 8.0
        frac = float(np.count_nonzero(covers_block(words, cfg))) / n
        assert abs(frac - expect) < 1e-3, (name, frac, expect)
    words32 = (words & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    for v in (OneTag(0), TwoTag(1)):
        tags = st32_tag_set(v)
        expect = len(tags) / 4.0
        low = st32_transform_block(words32, v) & np.uint32(3)
        frac = float(np.isin(low, list(tags)).mean())
        assert abs(frac - expect) < 1e-3, (v, frac, expect)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, "tag-fraction law took %.1fs" % elapsed


def test_criterion_4_roundtrip_bijectivity():
    t0 = time.perf_counter()
    n = 10_000_000
    for name in SELF_TAG_PRESETS:
        assert st_roundtrip_mismatches(PRESETS[name], n, seed=7) == 0, name
    assert nan_roundtrip_mismatches(n, seed=7) == 0
    assert nun_roundtrip_mismatches(n, seed=7) == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, "fuzz took %.1fs" % elapsed
    # the exhaustive 2^32 sweep for the 32-bit variants runs offline:
    # pytest -m offline (test_st32.test_exhaustive_roundtrip_all_4g_words)


def test_criterion_5_profiler_fidelity(profiles):
    profs = {k: v["profile"] for k, v in profiles["kernels"].items()}
    # sumfp: the 2 .. 3.7e19 row must render as 100%
    table = render_table([profs["sumfp"]])
    row16 = [l for l in table.splitlines() if l.startswith("2 .. 3.7e19")]
    assert row16 and row16[0].split()[-1] == "100%"
    p = profs["sumfp"]
    nonzero_frac = p.range_count(16) / (p.total - p.zeros)
    assert nonzero_frac == pytest.approx(
        KERNELS["sumfp"]["nonzero_row16_frac"], rel=1e-12
    )
    assert nonzero_frac > 0.999
    # every kernel: >= 99% of boxes (zeros included) inside 1-tag rows
    for name, p in profs.items():
        mass = p.class_mass(ONE_TAG_CLASSES)
        assert mass >= 0.99, (name, mass)
        assert mass == pytest.approx(KERNELS[name]["mass_1tag"], rel=1e-12)
        assert p.class_mass(COVERED_64["st1"]) == mass
    assert profiles["wall"] < 120.0, "profiling took %.1fs" % profiles["wall"]


def test_criterion_6_mantissa_contrast(matrix_result):
    by = matrix_result["by"]
    assert by[("sumfp", "mantissa")].stats.float_bytes == 0
    assert by[("fibfp", "mantissa")].stats.float_bytes == 0
    mbrot_mantissa = by[("mbrot", "mantissa")].stats.float_bytes
    mbrot_boxed = by[("mbrot", "boxed")].stats.float_bytes
    assert mbrot_mantissa > 0.5 * mbrot_boxed, (mbrot_mantissa, mbrot_boxed)
    # representation flips are reported, not thresholded
    for rec in matrix_result["records"]:
        flips = rec.stats.representation_flips
        assert isinstance(flips, int) and flips >= 0


def test_criterion_7_cross_scheme_checksums(matrix_result):
    by = matrix_result["by"]
    for kernel, want in KERNELS.items():
        got = {by[(kernel, scheme)].checksum_hex for scheme in PRESETS}
        assert got == {want["checksum_hex"]}, (kernel, got)
    assert matrix_result["wall"] < 120.0


def test_criterion_8_timing_is_informational_only():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read().lower()
    assert "informational" in text
    assert "machine" in text  # wall times depend on the machine
    assert "not acceptance-tested" in text
