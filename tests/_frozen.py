"""Expected values the test suite pins against.

Computed once with an independent big-int/plain-float script before the
package was written, then frozen here as literals. Tests compare the
package's behavior to these numbers; nothing in here is derived from
package code."""

# Per-kernel: bit-exact checksum rendering, boxing-event count, and
# distribution facts about the boxed stream (default sizes, seed 1).
KERNELS = {
    "sumfp": {
        "checksum_hex": "425d1a968a480000",
        "checksum": 500000500000.0,
        "n_boxes": 2000006,
        "zeros": 3,
        "mass_1tag": 1.0,
        "nonzero_row16_frac": 0.99999850000225,
        "miss_1tag": 0,
        "miss_2biased": 0,
        "miss_2zeros": 0,
        "miss_st3": 0,
        "miss_st4": 0,
        "mantissa_covered_frac": 1.0,
    },
    "fibfp": {
        "checksum_hex": "40f2511000000000",
        "checksum": 75025.0,
        "n_boxes": 364179,
        "zeros": 46368,
        "mass_1tag": 1.0,
        "nonzero_row16_frac": 0.6180308422301305,
        "miss_1tag": 0,
        "miss_2biased": 0,
        "miss_2zeros": 0,
        "miss_st3": 0,
        "miss_st4": 0,
        "mantissa_covered_frac": 1.0,
    },
    "mbrot": {
        "checksum_hex": "00000000000e2188",
        "checksum": 115761,
        "n_boxes": 944352,
        "zeros": 33751,
        "mass_1tag": 0.9962376317305411,
        "nonzero_row16_frac": 0.039861585919628906,
        "miss_1tag": 3553,
        "miss_2biased": 0,
        "miss_2zeros": 0,
        "miss_st3": 0,
        "miss_st4": 0,
        "mantissa_covered_frac": 0.3488084951374064,
    },
    "pnpoly": {
        "checksum_hex": "0000000000057258",
        "checksum": 44619,
        "n_boxes": 1235304,
        "zeros": 1,
        "mass_1tag": 1.0,
        "nonzero_row16_frac": 6.476143909631888e-06,
        "miss_1tag": 0,
        "miss_2biased": 0,
        "miss_2zeros": 0,
        "miss_st3": 0,
        "miss_st4": 0,
        "mantissa_covered_frac": 0.45707939098391975,
    },
    "fft": {
        "checksum_hex": "41248746549d7741",
        "checksum": 672675.165263869,
        "n_boxes": 59391,
        "zeros": 2057,
        "mass_1tag": 0.9999326497280733,
        "nonzero_row16_frac": 0.32169393379146755,
        "miss_1tag": 4,
        "miss_2biased": 0,
        "miss_2zeros": 0,
        "miss_st3": 0,
        "miss_st4": 0,
        "mantissa_covered_frac": 0.38741560169049183,
    },
    "sum1": {
        "checksum_hex": "415bc7ef5c84aad7",
        "checksum": 7282621.445597372,
        "n_boxes": 200001,
        "zeros": 1,
        "mass_1tag": 1.0,
        "nonzero_row16_frac": 0.725045,
        "miss_1tag": 0,
        "miss_2biased": 0,
        "miss_2zeros": 0,
        "miss_st3": 0,
        "miss_st4": 0,
        "mantissa_covered_frac": 0.24833375833120835,
    },
}

# Covered exponent-prefix classes (parameter-independent).
COVERED_64 = {
    "st1": frozenset({0, 15, 16, 31}),
    "st2biased": frozenset({0, 1, 14, 15, 16, 17, 30, 31}),
    "st2zeros": frozenset(range(12, 20)),
    "st3": frozenset(range(0, 4)) | frozenset(range(12, 20)),
    "st4": frozenset(range(0, 4)) | frozenset(range(12, 20)) | frozenset(range(28, 32)),
}
COVERED_32 = {
    "one": frozenset({0, 7, 8, 15}),
    "two": frozenset({0, 1, 6, 7, 8, 9, 14, 15}),
}

ONE_TAG_CLASSES = frozenset({0, 15, 16, 31})

# Exact interval endpoints (binary64 / binary32 class boundaries).
INTERVALS_64 = {
    "st3": [(0.0, 1.2882297539194267e-231), (1.727233711018889e-77, 2.315841784746324e77)],
    "st4": [
        (0.0, 1.2882297539194267e-231),
        (1.727233711018889e-77, 2.315841784746324e77),
        (3.105036184601418e231, float("inf")),
    ],
    "st2zeros": [(1.727233711018889e-77, 2.315841784746324e77)],
    "st1": [
        (0.0, 2.0522684006491881e-289),
        (1.0842021724855044e-19, 3.6893488147419103e19),
        (1.94906280228e289, float("inf")),
    ],
    "st2biased": [
        (0.0, 3.785766995733679e-270),
        (5.877471754111438e-39, 6.80564733841877e38),
        (1.0565890622713305e270, float("inf")),
    ],
}
INTERVALS_32 = {
    "one": [
        (0.0, 3.851859888774472e-34),
        (3.0517578125e-05, 131072.0),
        (1.0384593717069655e34, float("inf")),
    ],
    "two": [
        (0.0, 2.524354896707238e-29),
        (4.656612873077393e-10, 8589934592.0),
        (1.5845632502852868e29, float("inf")),
    ],
}

# The 33 magnitude boundary labels of the 34-row table.
BOUND_LABELS = [
    "5e-324", "2.1e-289", "3.8e-270", "7e-251", "1.3e-231", "2.4e-212",
    "4.4e-193", "8.1e-174", "1.5e-154", "2.8e-135", "5.1e-116", "9.4e-97",
    "1.7e-77", "3.2e-58", "5.9e-39", "1.1e-19", "2", "3.7e19", "6.8e38",
    "1.3e58", "2.3e77", "4.3e96", "7.9e115", "1.5e135", "2.7e154",
    "4.9e173", "9.1e192", "1.7e212", "3.1e231", "5.7e250", "1.1e270",
    "1.9e289", "1.8e308",
]

SPLITMIX_SEED1_FIRST3 = (
    0x910A2DEC89025CC1,
    0xBEEB8DA1658EEC67,
    0xF893A2EEFB32555E,
)

# Word-level transform examples.
ONE_BITS = 0x3FF0000000000000
PI_BITS = 0x400921FB54442D18
ST_EXAMPLES = {
    "rot4_one": 0xFF00000000000003,
    "rot4_pi": 0x00921FB54442D184,
    "st3_off0_zero": 0x0,
    "st3_off0_two": 0x4,
    "st1_tag0_one": 0x7E00000000000008,
    "fixnum_enc_5": 0x28,
    "fixnum_enc_neg1": 0xFFFFFFFFFFFFFFF8,
    "nan_nonfloat_2_0x1000": 0xFFFA000000001000,
    "nun_one": 0x3FF1000000000000,
    "nun_canon_in": 0xFFFF000000000005,
    "nun_canon_out": 0xFFF9000000000000,
}

# sha256 over exact transformed words, each little-endian (8 bytes, or 4
# for 32-bit): st_transform of boundary_words64() (tests/_words.py) and
# the first 64 splitmix64 words of seed 1, under each of PARAM_CONFIGS
# (tests/test_schemes.py, in order) and then the mantissa preset; then
# st32_transform of boundary_words32() under OneTag(0..3), TwoTag(0..3).
# Taken from the per-variant transforms before they shared one
# (bias, r, offset) triple, and equal to an independent big-int
# computation of rotl(bits + bias, r) + offset with each variant's terms
# written out.
TRANSFORM_WORDS_SHA256 = "2d74632cd0ca39b8cc969b5bf17222ddba882b436adeb923a9ba50107f56adde"

# Expected `coverage` CLI lines, compared numerically at 2 significant
# digits after parsing (lo "0" means from zero, hi "Inf/NaN" open-ended).
COVERAGE_LINES_64 = {
    "st3": ["0 .. 1.3e-231", "1.7e-77 .. 2.3e77"],
    "st1": ["0 .. 2.1e-289", "1.1e-19 .. 3.7e19", "1.9e289 .. Inf/NaN"],
    "st2biased": ["0 .. 3.8e-270", "5.9e-39 .. 6.8e38", "1.1e270 .. Inf/NaN"],
}
COVERAGE_LINES_32 = {
    "one": ["0 .. 3.9e-34", "3.1e-5 .. 1.3e5", "1.0e34 .. Inf/NaN"],
    "two": ["0 .. 2.5e-29", "4.7e-10 .. 8.6e9", "1.6e29 .. Inf/NaN"],
}
