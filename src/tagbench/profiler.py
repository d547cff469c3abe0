"""Distribution profiler for streams of boxed float bits.

Values are bucketed by their 5-bit exponent prefix into 32 magnitude
ranges; exact zeros and Inf/NaN get rows of their own in the rendered
table. A FloatProfile's add method is shaped to be a Runtime profile_hook,
so a workload can be profiled by running it once under any scheme.
A profile counts two things: a histogram of the sign and exponent field
(bits >> 52, 4096 entries) and the exact zeros, which add tests for only
when the exponent field is 0. Everything else is derived when read: the
32 prefix counts and the total are sums over the histogram, and Inf/NaN
are its two all-ones exponent entries. The share a self-tagging scheme
keeps immediate is class_mass(covered_prefix_classes(scheme)).

The magnitude boundary labels are two-significant-digit decimal strings,
with the first and last bounds pinned to the smallest subnormal and the
largest finite double."""

import io

from .schemes import SchemeConfig, class_bounds

MIN_SUBNORMAL = 5e-324
MAX_FINITE = 1.7976931348623157e308


def fmt_magnitude(x):
    """Two-significant-digit label: mantissa trimmed of a trailing .0,
    no exponent part for e0, edge values pinned."""
    if x == MIN_SUBNORMAL:
        return "5e-324"
    if x == MAX_FINITE:
        return "1.8e308"
    m, e = ("%.1e" % x).split("e")
    if m.endswith(".0"):
        m = m[:-2]
    e = int(e)
    return m if e == 0 else "%se%d" % (m, e)


def bound_labels():
    """The 33 boundary labels of the 32 magnitude rows."""
    labels = [fmt_magnitude(MIN_SUBNORMAL)]
    labels += [fmt_magnitude(b) for b in class_bounds(SchemeConfig)[1:-1]]
    labels.append(fmt_magnitude(MAX_FINITE))
    return labels


class FloatProfile:
    """Histogram over the sign and exponent field, read as the 32
    exponent-prefix classes, plus zero and Inf/NaN sub-counts (subsets of
    classes 0 and 31)."""

    __slots__ = ("name", "_hist", "_zeros")

    def __init__(self, name="boxes"):
        self.name = name
        self._hist = [0] * 4096
        self._zeros = 0

    def add(self, bits):
        e = bits >> 52
        self._hist[e] += 1
        if not e & 0x7FF and not bits & 0xFFFFFFFFFFFFF:
            self._zeros += 1

    @property
    def total(self):
        return sum(self._hist)

    @property
    def zeros(self):
        return self._zeros

    @property
    def inf_nan(self):
        return self._hist[0x7FF] + self._hist[0xFFF]

    @property
    def prefix_counts(self):
        """Per class, the 64 exponent entries of each sign that share its
        top five exponent bits, summed."""
        h = self._hist
        return tuple(sum(h[i : i + 64]) + sum(h[i + 2048 : i + 2112]) for i in range(0, 2048, 64))

    def range_count(self, p):
        """Count for magnitude row p, zeros and Inf/NaN excluded."""
        c = self.prefix_counts[p]
        if p == 0:
            c -= self._zeros
        if p == 31:
            c -= self.inf_nan
        return c

    def class_mass(self, classes):
        """Fraction of all counted boxes whose prefix class is in
        classes (zeros land in class 0, Inf/NaN in class 31)."""
        total = self.total
        if total == 0:
            return 0.0
        counts = self.prefix_counts
        return sum(counts[p] for p in classes) / total


def _pct(count, total):
    if count == 0:
        return "-"
    frac = count / total
    if frac < 0.005:
        return "0%"
    return "%d%%" % int(frac * 100 + 0.5)


def _rows(profiles):
    """(row id, lo label, hi label, cells) per table row."""
    bounds = bound_labels()
    rows = [("zero", "0", "0", [_pct(p.zeros, p.total or 1) for p in profiles])]
    for i in range(32):
        rows.append(
            (
                format(i, "05b"),
                bounds[i],
                bounds[i + 1],
                [_pct(p.range_count(i), p.total or 1) for p in profiles],
            )
        )
    rows.append(
        ("inf_nan", "inf", "inf", [_pct(p.inf_nan, p.total or 1) for p in profiles])
    )
    return rows


def render_table(profiles, fmt="text"):
    """Render one column per profile over the 34 rows (zero, 32 magnitude
    ranges, Inf/NaN). fmt is "text" or "csv"."""
    profiles = list(profiles)
    rows = _rows(profiles)
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(",".join(["prefix", "range_lo", "range_hi"] + [p.name for p in profiles]))
        buf.write("\n")
        for rid, lo, hi, cells in rows:
            buf.write(",".join([rid, lo, hi] + cells))
            buf.write("\n")
        return buf.getvalue()
    if fmt != "text":
        raise ValueError("unknown table format: %r" % (fmt,))
    labels = {
        "zero": "0",
        "inf_nan": "Inf/NaN",
    }
    out = []
    body = []
    for rid, lo, hi, cells in rows:
        label = labels.get(rid, "%s .. %s" % (lo, hi))
        body.append((label, cells))
    lw = max(len(label) for label, _ in body)
    lw = max(lw, len("range"))
    widths = [max(len(p.name), 4) for p in profiles]
    out.append(
        "range".ljust(lw) + "".join("  " + p.name.rjust(w) for p, w in zip(profiles, widths))
    )
    for label, cells in body:
        out.append(
            label.ljust(lw) + "".join("  " + c.rjust(w) for c, w in zip(cells, widths))
        )
    return "\n".join(out) + "\n"
