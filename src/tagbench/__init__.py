"""Workbench for float value representations.

One package, three layers: the word layer (schemes, st32, words, prng),
which imports nothing above it; a simulated heap of float payloads and a
per-scheme compiled runtime that owns every float and fixnum operation
(heap, runtime); and measurement on top (profiler, kernels, bench, batch).
Fixnums exist only in the runtime: the word layer has no fixnum codec."""

from .bench import RunRecord, checksum_hex, run_kernel, run_matrix
from .heap import HeapStats, SimHeap
from .kernels import KERNEL_NAMES, KernelSpec, default_spec
from .profiler import FloatProfile, fmt_magnitude, render_table
from .runtime import Runtime
from .schemes import (
    ALL_VARIANTS,
    EXPONENT_PRESETS,
    GENERIC_TAG,
    PRESETS,
    SELF_TAG_PRESETS,
    CoverageInterval,
    SchemeConfig,
    class_bounds,
    coverage_intervals,
    covered_prefix_classes,
    covers,
    nan_box_float,
    nan_box_nonfloat,
    nun_box_float,
    self_tag_set,
    st_transform,
    st_untransform,
)
from .st32 import (
    OneTag,
    TwoTag,
    st32_covers,
    st32_transform,
    st32_untransform,
)
from .words import (
    bits_to_float,
    float_to_bits,
    ieee_div,
    tag_set_mask,
)

__version__ = "0.1.0"
