import hashlib
import json

import pytest
from click.testing import CliRunner

from tagbench import batch, kernels
from tagbench.bench import CSV_COLUMNS
from tagbench.cli import main

from _frozen import COVERAGE_LINES_32, COVERAGE_LINES_64, COVERAGE_OUTPUT_SHA256, KERNELS


def invoke(args):
    return CliRunner().invoke(main, args)


def test_coverage_text_64():
    for scheme, want in COVERAGE_LINES_64.items():
        r = invoke(["coverage", "--scheme", scheme])
        assert r.exit_code == 0, scheme
        assert r.output.splitlines() == want, scheme


def test_coverage_text_32():
    for scheme, want in COVERAGE_LINES_32.items():
        r = invoke(["coverage", "--scheme", scheme, "--bits", "32"])
        assert r.exit_code == 0, scheme
        assert r.output.splitlines() == want, scheme


@pytest.mark.parametrize("scheme,bits,fmt", list(COVERAGE_OUTPUT_SHA256))
def test_coverage_output_is_pinned(scheme, bits, fmt):
    r = invoke(["coverage", "--scheme", scheme, "--bits", bits, "--format", fmt])
    assert r.exit_code == 0
    digest = hashlib.sha256(r.output.encode()).hexdigest()
    assert digest == COVERAGE_OUTPUT_SHA256[(scheme, bits, fmt)]


def test_coverage_csv():
    r = invoke(["coverage", "--scheme", "st3", "--format", "csv"])
    assert r.exit_code == 0
    lines = r.output.splitlines()
    assert lines[0] == "prefix,range_lo,range_hi,covered"
    assert len(lines) == 33
    covered = [l.split(",")[3] for l in lines[1:]]
    assert covered.count("1") == 12  # three of eight 3-bit classes


def test_coverage_rejects_mantissa():
    r = invoke(["coverage", "--scheme", "mantissa"])
    assert r.exit_code == 2
    assert "must be one of" in r.output


def test_coverage_rejects_unknown():
    assert invoke(["coverage", "--scheme", "st9"]).exit_code == 2
    assert invoke(["coverage", "--scheme", "st1", "--bits", "32"]).exit_code == 2


def test_bench_single_cell_csv():
    r = invoke(["bench", "--kernel", "fibfp", "--scheme", "nanbox"])
    assert r.exit_code == 0
    lines = r.output.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    cells = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert cells["kernel"] == "fibfp"
    assert cells["scheme"] == "nanbox"
    assert cells["float_allocs"] == "0"
    assert cells["checksum_hex"] == KERNELS["fibfp"]["checksum_hex"]


def test_bench_json_and_reps():
    r = invoke(
        ["bench", "--kernel", "fibfp", "--scheme", "boxed", "--reps", "2",
         "--format", "json", "--preload-bytes", "128"]
    )
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert len(data) == 2
    assert {d["rep"] for d in data} == {1, 2}
    assert all(d["other_bytes"] == 128 for d in data)
    assert all(d["float_allocs"] == KERNELS["fibfp"]["n_boxes"] for d in data)


def test_bench_scheme_all(tmp_path):
    out = tmp_path / "rows.csv"
    r = invoke(["bench", "--kernel", "fibfp", "--scheme", "all", "--out", str(out)])
    assert r.exit_code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 10  # header + 9 schemes
    sums = {l.split(",")[11] for l in lines[1:]}
    assert sums == {KERNELS["fibfp"]["checksum_hex"]}


def test_bench_failed_cell_exits_1(monkeypatch, tmp_path):
    def fail(spec, rt):
        raise RuntimeError("cell broke")

    monkeypatch.setattr(kernels, "run", fail)
    out = tmp_path / "rows.csv"
    r = invoke(["bench", "--kernel", "fibfp", "--scheme", "st1", "--out", str(out)])
    assert r.exit_code == 1
    assert r.stderr == "FAILED fibfp/st1 rep 1: RuntimeError: cell broke\n"
    assert out.read_text().splitlines() == [",".join(CSV_COLUMNS)]


def test_bench_rejects_unknown_names():
    assert invoke(["bench", "--kernel", "nope"]).exit_code == 2
    assert invoke(["bench", "--kernel", "fibfp", "--scheme", "nope"]).exit_code == 2


def test_profile_single_kernel_text():
    r = invoke(["profile", "--kernel", "fibfp"])
    assert r.exit_code == 0
    lines = r.output.splitlines()
    assert lines[0].split() == ["range", "fibfp"]
    assert len(lines) == 35
    assert lines[1].split()[0] == "0"  # zero row present


def test_profile_csv():
    r = invoke(["profile", "--kernel", "sumfp", "--format", "csv"])
    assert r.exit_code == 0
    lines = r.output.splitlines()
    assert lines[0] == "prefix,range_lo,range_hi,sumfp"
    row16 = [l for l in lines if l.startswith("10000,")]
    assert row16 and row16[0].endswith("100%")


def test_fuzz_clean_run():
    r = invoke(["fuzz", "--scheme", "st3", "--n", "100000"])
    assert r.exit_code == 0
    assert "0 mismatches in 100000 words" in r.output
    r = invoke(["fuzz", "--scheme", "nanbox", "--n", "50000"])
    assert r.exit_code == 0
    r = invoke(["fuzz", "--scheme", "nunbox", "--n", "50000"])
    assert r.exit_code == 0
    assert "nunbox: 0 mismatches in 50000 words" in r.output
    r = invoke(["fuzz", "--scheme", "one", "--n", "50000"])
    assert r.exit_code == 0


def test_fuzz_rejects_boxed():
    assert invoke(["fuzz", "--scheme", "boxed", "--n", "10"]).exit_code == 2


def test_fuzz_mismatch_exits_1(monkeypatch):
    monkeypatch.setattr(batch, "st_roundtrip_mismatches", lambda config, n, seed: 1)
    r = invoke(["fuzz", "--scheme", "st3", "--n", "1000"])
    assert r.exit_code == 1
    assert r.output == "st3: 1 mismatches in 1000 words\n"
