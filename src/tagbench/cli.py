"""Command line front end (installed as `tagbench`)."""

import sys

import click

from . import batch, bench, kernels, profiler
from .prng import DEFAULT_SEED
from .runtime import Runtime
from .schemes import (
    EXPONENT_PRESETS,
    PRESETS,
    class_bounds,
    coverage_intervals,
    covered_prefix_classes,
)
from .st32 import OneTag, TwoTag

_VARIANTS_32 = {"one": OneTag(0), "two": TwoTag(0)}
_COVERAGE_VARIANTS = {
    "64": {name: PRESETS[name] for name in EXPONENT_PRESETS},
    "32": _VARIANTS_32,
}


def _names(name, known, noun):
    if name == "all":
        return tuple(known)
    if name not in known:
        raise click.UsageError(
            "unknown %s %r (choose from %s or all)" % (noun, name, ", ".join(known))
        )
    return (name,)


@click.group()
def main():
    """Workbench for float value representations: boxing baselines,
    NaN/NuN boxing and the self-tagging family, with a simulated heap
    that makes allocation behavior measurable."""


@main.command("bench")
@click.option("--kernel", default="all", show_default=True, help="Kernel name or all.")
@click.option("--scheme", default="all", show_default=True, help="Scheme preset or all.")
@click.option("--reps", default=1, show_default=True, type=click.IntRange(min=1))
@click.option("--preload-bytes", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--seed", default=DEFAULT_SEED, show_default=True, type=int)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("--out", default="-", show_default=True, help="Output path, - for stdout.")
def bench_cmd(kernel, scheme, reps, preload_bytes, seed, fmt, out):
    """Run kernels against schemes and emit per-run records."""
    specs = [kernels.default_spec(k, seed) for k in _names(kernel, kernels.KERNEL_NAMES, "kernel")]
    records = bench.run_matrix(
        specs, _names(scheme, PRESETS, "scheme"), reps=reps, preload_bytes=preload_bytes
    )
    with click.open_file(out, "w") as fh:
        if fmt == "json":
            bench.write_json(records, fh)
        else:
            bench.write_csv(records, fh)
    bad = bench.failed(records)
    if bad:
        for r in bad:
            click.echo("FAILED %s/%s rep %d: %s" % (r.kernel, r.scheme, r.rep, r.error), err=True)
        sys.exit(1)


@main.command("profile")
@click.option("--kernel", default="all", show_default=True)
@click.option("--seed", default=DEFAULT_SEED, show_default=True, type=int)
@click.option("--format", "fmt", type=click.Choice(["text", "csv"]), default="text", show_default=True)
@click.option("--out", default="-", show_default=True)
def profile_cmd(kernel, seed, fmt, out):
    """Boxed-float magnitude distribution of each kernel, one column per
    kernel. The run itself uses a pure scheme, so profiling cannot change
    what gets boxed."""
    profiles = []
    for name in _names(kernel, kernels.KERNEL_NAMES, "kernel"):
        prof = profiler.FloatProfile(name)
        rt = Runtime(PRESETS["nanbox"], profile_hook=prof.add)
        kernels.run(kernels.default_spec(name, seed), rt)
        profiles.append(prof)
    with click.open_file(out, "w") as fh:
        fh.write(profiler.render_table(profiles, fmt))


@main.command("coverage")
@click.option("--scheme", required=True, help="64-bit: %s. 32-bit: one, two." % ", ".join(EXPONENT_PRESETS))
@click.option("--bits", type=click.Choice(["64", "32"]), default="64", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "csv"]), default="text", show_default=True)
def coverage_cmd(scheme, bits, fmt):
    """Magnitude ranges a scheme keeps immediate (exponent-based schemes
    only; the mantissa scheme's coverage is not a magnitude range)."""
    known = _COVERAGE_VARIANTS[bits]
    if scheme not in known:
        raise click.UsageError("%s-bit scheme must be one of: %s" % (bits, ", ".join(known)))
    variant = known[scheme]
    if fmt == "csv":
        bounds, covered = class_bounds(variant), covered_prefix_classes(variant)
        n = len(bounds) - 1
        click.echo("prefix,range_lo,range_hi,covered")
        for p in range(n):
            lo = "0" if p == 0 else profiler.fmt_magnitude(bounds[p])
            hi = "inf" if p == n - 1 else profiler.fmt_magnitude(bounds[p + 1])
            prefix = format(p, "0%db" % variant.PREFIX_BITS)
            click.echo("%s,%s,%s,%d" % (prefix, lo, hi, int(p in covered)))
        return
    for iv in coverage_intervals(variant):
        lo = "0" if iv.includes_zero else profiler.fmt_magnitude(iv.lo)
        hi = "Inf/NaN" if iv.includes_inf_nan else profiler.fmt_magnitude(iv.hi)
        click.echo("%s .. %s" % (lo, hi))


@main.command("fuzz")
@click.option("--scheme", required=True)
@click.option("--n", default=10**7, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=DEFAULT_SEED, show_default=True, type=int)
def fuzz_cmd(scheme, n, seed):
    """Roundtrip n random words through a scheme's encoding; exits
    nonzero on any mismatch."""
    if scheme == "nanbox":
        mism = batch.nan_roundtrip_mismatches(n, seed)
    elif scheme == "nunbox":
        mism = batch.nun_roundtrip_mismatches(n, seed)
    elif scheme == "boxed":
        raise click.UsageError("the boxed baseline has no word transform to fuzz")
    elif scheme in PRESETS:
        mism = batch.st_roundtrip_mismatches(PRESETS[scheme], n, seed)
    elif scheme in _VARIANTS_32:
        mism = batch.st32_roundtrip_mismatches(_VARIANTS_32[scheme], n, seed)
    else:
        raise click.UsageError("unknown scheme: %r" % (scheme,))
    click.echo("%s: %d mismatches in %d words" % (scheme, mism, n))
    if mism:
        sys.exit(1)


if __name__ == "__main__":
    main()
