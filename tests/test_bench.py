import io
import json

import pytest

from tagbench import PRESETS, Runtime, SimHeap
from tagbench.bench import (
    CSV_COLUMNS,
    RunRecord,
    checksum_hex,
    failed,
    run_kernel,
    run_matrix,
    write_csv,
    write_json,
)
from tagbench.kernels import KERNEL_FUNCS, KernelSpec
from tagbench.words import float_to_bits


SMALL_SIZES = {"sumfp": 2000, "fibfp": 10, "mbrot": 6, "pnpoly": 200, "fft": 64, "sum1": 200}


def small_spec():
    return KernelSpec("fibfp", 12, 1)


def test_checksum_hex_is_scheme_independent():
    words = {}
    for name in PRESETS:
        rt = Runtime(PRESETS[name], SimHeap())
        f = checksum_hex(rt, rt.box_float(float_to_bits(75025.0)))
        n = checksum_hex(rt, rt.box_fixnum(44619))
        words[name] = (f, n)
    assert len(set(words.values())) == 1
    f, n = words["boxed"]
    assert f == "40f2511000000000"
    assert n == "0000000000057258"


def test_run_kernel_record():
    rt = Runtime(PRESETS["boxed"], SimHeap())
    rec = run_kernel(small_spec(), rt, rep=3)
    assert rec.kernel == "fibfp"
    assert rec.scheme == "boxed"
    assert rec.rep == 3
    assert rec.seconds > 0.0
    assert rec.error is None
    assert rec.stats.float_allocs > 0
    assert rec.hit_ratio == 0.0
    assert len(rec.checksum_hex) == 16


def test_run_kernel_resets_counters_first():
    rt = Runtime(PRESETS["boxed"], SimHeap())
    rt.box_float(float_to_bits(1.0))  # pre-run noise
    rec = run_kernel(small_spec(), rt)
    rt2 = Runtime(PRESETS["boxed"], SimHeap())
    clean = run_kernel(small_spec(), rt2)
    assert rec.stats.float_allocs == clean.stats.float_allocs


def test_run_matrix_shape_and_preload():
    recs = run_matrix([small_spec()], ["boxed", "nanbox"], reps=2, preload_bytes=64)
    assert len(recs) == 4
    assert [(r.scheme, r.rep) for r in recs] == [
        ("boxed", 1),
        ("boxed", 2),
        ("nanbox", 1),
        ("nanbox", 2),
    ]
    for r in recs:
        assert r.error is None
        assert r.stats.other_allocs == 1
        assert r.stats.other_bytes == 64
    # reps are independent runs on fresh heaps: identical counters
    assert recs[0].stats == recs[1].stats


def test_preload_changes_only_other_accounting():
    specs = [KernelSpec(k, n) for k, n in SMALL_SIZES.items()]
    bare = run_matrix(specs, list(PRESETS))
    loaded = run_matrix(specs, list(PRESETS), preload_bytes=80000)
    assert len(bare) == len(loaded) == 6 * 9
    for rec, pre in zip(bare, loaded):
        rb, rl = rec.row(), pre.row()  # row() raises for a failed cell
        assert (rb["other_allocs"], rb["other_bytes"]) == (0, 0)
        assert (rl["other_allocs"], rl["other_bytes"]) == (1, 80000)
        for col in ("other_allocs", "other_bytes", "seconds"):
            del rb[col], rl[col]
        assert rb == rl


def test_run_matrix_records_failures_and_continues(monkeypatch):
    def boom(*args):
        raise RuntimeError("injected")

    monkeypatch.setitem(KERNEL_FUNCS, "fibfp", boom)
    recs = run_matrix([small_spec()], ["boxed", "nanbox"])
    assert len(recs) == 2
    bad = failed(recs)
    assert len(bad) == 2
    assert "RuntimeError: injected" in bad[0].error
    with pytest.raises(ValueError, match="failed run has no row"):
        bad[0].row()


def test_write_csv():
    recs = run_matrix([small_spec()], ["boxed"])
    recs.append(
        RunRecord("fibfp", "broken", 1, 0.0, None, None, None, error="x")
    )
    buf = io.StringIO()
    write_csv(recs, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2  # error row skipped
    cells = lines[1].split(",")
    assert cells[0] == "fibfp"
    assert cells[1] == "boxed"
    assert cells[2] == "1"
    assert int(cells[4]) > 0
    assert len(cells) == len(CSV_COLUMNS)


def test_write_json():
    recs = run_matrix([small_spec()], ["nunbox"])
    buf = io.StringIO()
    write_json(recs, buf)
    data = json.loads(buf.getvalue())
    assert len(data) == 1
    assert data[0]["kernel"] == "fibfp"
    assert data[0]["scheme"] == "nunbox"
    assert data[0]["float_allocs"] == 0
    assert data[0]["hit_ratio"] == 1.0
    assert set(data[0]) == set(CSV_COLUMNS)
