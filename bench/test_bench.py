"""Tests of the benchmark itself, on tiny inputs: every workload's op runs
and passes its checks, a corrupted output counts as a failed op, and the
tracer reports every per-layer metric without changing any output."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_program()

import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent


def tiny(name, tmp_path, seed=7):
    workload = workloads.WORKLOADS[name](seed, tmp_path / "inputs", tiny=True)
    workload.build()
    return workload


def corrupt_after_op(workload, damage):
    """Make every op of ``workload`` damage its outputs before the check."""
    op = workload.op

    def damaged_op(i, out):
        result = op(i, out)
        damage(result.files)
        return result

    workload.op = damaged_op


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_op_passes_checks_and_is_reproducible(name, tmp_path):
    workload = tiny(name, tmp_path)
    first = run.run_op(workload, 0, tmp_path / "a")
    second = run.run_op(workload, 0, tmp_path / "b")
    assert first["ok"], first.get("error")
    assert first["scenes"] >= 1
    assert first["sha256"] == second["sha256"]


def flip_byte(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


def drop_last_line(path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


@pytest.mark.parametrize("name, damage", [
    # One flipped byte in the analytic depth's last float (its exponent).
    ("render-640", lambda files: flip_byte(files[1], -1)),
    ("render-640", lambda files: drop_last_line(files[6])),
    ("compare-reps", lambda files: drop_last_line(files[0])),
    ("ap-eval", lambda files: files[2].write_text(
        json.dumps({**json.loads(files[2].read_text()), "rows": []}))),
    ("ap-eval", lambda files: files[0].write_text("{}")),
])
def test_corrupted_output_is_a_failed_op(name, damage, tmp_path):
    workload = tiny(name, tmp_path)
    corrupt_after_op(workload, damage)
    record = run.run_op(workload, 0, tmp_path / "out")
    assert not record["ok"]
    assert "OpFailed" in record["error"]


def test_failed_op_counts_in_the_metrics():
    ok = {"ok": True, "ms": 10.0, "scenes": 1}
    bad = {"ok": False, "ms": 1.0, "scenes": 0}
    assert run.p50_ms([ok, ok, bad]) == 10.0
    assert run.p50_ms([ok, bad, bad]) is None
    assert run.scenes_per_s([ok, bad]) == pytest.approx(1 / 0.011)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_op_reports_every_layer_metric_and_same_outputs(name, tmp_path):
    workload = tiny(name, tmp_path)
    plain = run.run_op(workload, 0, tmp_path / "plain")
    t = tracer.Tracer()
    traced = run.run_op(workload, 0, tmp_path / "traced", t)
    assert traced["ok"], traced.get("error")
    assert traced["sha256"] == plain["sha256"]
    assert t.missing == []
    values = tracer.layer_metrics(t)
    assert set(values) == {name for name, _, _ in tracer.LAYER_METRICS}
    assert all(v is not None and v >= 0.0 for v in values.values())
    assert values["cli.main.ms"] >= values["cli.self_ms"] > 0.0
    # Patches are removed after the op.
    from scenefactor import cli, compare
    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(compare.icp, "__wrapped__")


def test_compare_reps_trace_counts_icp_runs(tmp_path):
    t = tracer.Tracer()
    assert run.run_op(tiny("compare-reps", tmp_path), 0, tmp_path / "out", t)["ok"]
    values = tracer.layer_metrics(t)
    assert values["registration.icp.calls"] == 3.0  # one object, three representations
    assert values["registration.icp.ms"] >= values["registration.nn_query.ms"]
    assert 0.0 < values["registration.icp.converged_frac"] <= 1.0


def test_missing_patch_target_is_reported_not_raised(tmp_path):
    targets = tracer.TARGETS + [("scenefactor.render", "no_such_kernel", "render.gone", None)]
    t = tracer.Tracer(targets)
    assert t.missing == ["render.gone"]
    assert run.run_op(tiny("render-640", tmp_path), 0, tmp_path / "out", t)["ok"]


def test_exits_nonzero_without_the_program(tmp_path):
    """Run from a directory holding only the benchmark: no result line."""
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "ap-eval", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
