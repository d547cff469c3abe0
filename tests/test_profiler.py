from itertools import islice

import pytest

from tagbench.profiler import (
    FloatProfile,
    bound_labels,
    fmt_magnitude,
    render_table,
)
from tagbench.prng import splitmix64
from tagbench.words import M64, QNAN_64, SIGN_64, float_to_bits

from _frozen import BOUND_LABELS


def test_bound_labels_are_the_expected_33():
    assert bound_labels() == BOUND_LABELS


def test_fmt_magnitude_spot_values():
    assert fmt_magnitude(2.0) == "2"
    assert fmt_magnitude(3.6893488147419103e19) == "3.7e19"
    assert fmt_magnitude(5e-324) == "5e-324"
    assert fmt_magnitude(1.7976931348623157e308) == "1.8e308"
    assert fmt_magnitude(1.0842021724855044e-19) == "1.1e-19"


def test_classify():
    # (bits, prefix class, counted as zero, counted as Inf/NaN), one value
    # per profile
    for bits, prefix, zero, inf_nan in (
        (0, 0, True, False),
        (1 << 63, 0, True, False),  # -0.0
        (float_to_bits(1.0), 15, False, False),
        (float_to_bits(float("inf")), 31, False, True),
        (float_to_bits(float("nan")), 31, False, True),
        (float_to_bits(5e-324), 0, False, False),
    ):
        p = FloatProfile()
        p.add(bits)
        assert p.prefix_counts == tuple(int(i == prefix) for i in range(32)), hex(bits)
        assert (p.zeros, p.inf_nan) == (int(zero), int(inf_nan)), hex(bits)


def test_derived_counts_match_per_word_classes():
    # prefix counts, total and Inf/NaN are derived from the sign and
    # exponent histogram; each must equal a count of the words' own classes
    words = [
        0, SIGN_64, 1, SIGN_64 | 1, QNAN_64, M64, 0x7FF0000000000000, 0xFFF0000000000000,
        0x7FF0000000000001, 0x000FFFFFFFFFFFFF, 0x0010000000000000, *islice(splitmix64(3), 500),
    ]
    p = FloatProfile()
    for w in words:
        p.add(w)
    assert p.total == len(words)
    assert p.prefix_counts == tuple(sum((w >> 58) & 31 == c for w in words) for c in range(32))
    assert p.zeros == sum(not w & ~SIGN_64 for w in words)
    assert p.inf_nan == sum((w >> 52) & 0x7FF == 0x7FF for w in words)
    for c in range(32):
        base = sum((w >> 58) & 31 == c for w in words)
        assert p.range_count(c) == base - (c == 0) * p.zeros - (c == 31) * p.inf_nan


def sample_profile():
    p = FloatProfile("demo")
    for x in (1.0, 2.0, 3.0, 0.0, -0.0, float("inf"), 1e300):
        p.add(float_to_bits(x))
    return p


def test_counts_and_ranges():
    p = sample_profile()
    assert p.total == 7
    assert p.zeros == 2
    assert p.inf_nan == 1
    assert p.range_count(15) == 1   # 1.0
    assert p.range_count(16) == 2   # 2.0, 3.0
    assert p.range_count(0) == 0    # zeros excluded from the magnitude row
    assert p.range_count(31) == 1   # 1e300; Inf excluded


def test_class_mass_includes_zeros_and_infnan():
    p = sample_profile()
    assert p.class_mass({15, 16}) == 3 / 7
    assert p.class_mass({0}) == 2 / 7    # the two zeros
    assert p.class_mass({31}) == 2 / 7   # 1e300 plus Inf
    assert p.class_mass(range(32)) == 1.0
    assert FloatProfile("empty").class_mass({0}) == 0.0


def test_render_table_text():
    out = render_table([sample_profile()])
    lines = out.splitlines()
    assert lines[0].split() == ["range", "demo"]
    assert len(lines) == 35  # header + zero row + 32 ranges + Inf/NaN
    assert lines[1].split() == ["0", "29%"]
    row16 = [l for l in lines if l.startswith("2 .. 3.7e19")]
    assert row16 and row16[0].split()[-1] == "29%"
    assert lines[-1].split() == ["Inf/NaN", "14%"]
    # rows with no mass render as a dash
    assert [l for l in lines if l.startswith("5e-324")][0].split()[-1] == "-"


def test_render_table_percent_rounding():
    p = FloatProfile("small")
    for _ in range(1000):
        p.add(float_to_bits(1.0))
    p.add(float_to_bits(2.0))  # 1/1001 < 0.5%: shows 0%, not a dash
    lines = render_table([p]).splitlines()
    row16 = [l for l in lines if l.startswith("2 .. 3.7e19")][0]
    assert row16.split()[-1] == "0%"
    row15 = [l for l in lines if l.startswith("1.1e-19 .. 2")][0]
    assert row15.split()[-1] == "100%"


def test_render_table_csv():
    a = sample_profile()
    b = FloatProfile("b")
    b.add(float_to_bits(1.5))
    out = render_table([a, b], fmt="csv")
    lines = out.splitlines()
    assert lines[0] == "prefix,range_lo,range_hi,demo,b"
    assert lines[1] == "zero,0,0,29%,-"
    assert lines[2].startswith("00000,5e-324,2.1e-289,")
    assert lines[-1].startswith("inf_nan,inf,inf,")
    assert len(lines) == 35


def test_render_table_rejects_unknown_format():
    with pytest.raises(ValueError):
        render_table([sample_profile()], fmt="yaml")
