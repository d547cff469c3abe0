"""Workbench for float value representations.

One package, three layers: pure word-level schemes (schemes, st32,
words), a simulated heap plus a per-scheme compiled runtime (heap,
runtime), and measurement on top (profiler, kernels, bench, batch)."""

from .bench import RunRecord, checksum_hex, run_kernel, run_matrix
from .heap import GENERIC_TAG, HeapStats, SimHeap
from .kernels import KERNEL_NAMES, KernelSpec, default_spec
from .profiler import FloatProfile, classify, fmt_magnitude, merge, render_table
from .runtime import Runtime
from .schemes import (
    ALL_VARIANTS,
    EXPONENT_PRESETS,
    PRESETS,
    SELF_TAG_PRESETS,
    CoverageInterval,
    SchemeConfig,
    coverage_intervals,
    covered_prefix_classes,
    covers,
    nan_box_float,
    nan_box_nonfloat,
    nan_is_float,
    nan_nonfloat_parts,
    nun_box_float,
    nun_is_float,
    nun_unbox_float,
    self_tag_set,
    st_encode,
    st_transform,
    st_untransform,
)
from .st32 import (
    OneTag,
    TwoTag,
    decode_fixnum32,
    encode_fixnum32,
    st32_coverage,
    st32_covers,
    st32_transform,
    st32_untransform,
)
from .words import (
    bits_to_float,
    decode_fixnum,
    encode_fixnum,
    float_to_bits,
    ieee_div,
    rotl64,
    rotr64,
    tag_of,
    tag_set_mask,
)

__version__ = "0.1.0"
