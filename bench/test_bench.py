"""Tests of the benchmark's own machinery: the correctness gate, the span
self-time table, the tail percentile and the refusal to run without sources."""

from __future__ import annotations

import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _gate_single(w, op):
    """Measure one batch made of `op` alone, as the benchmark would."""
    w.batch = lambda b: [op]
    w.warmup = []
    tally = run.Tally()
    run.measure(w, 0, tally, workloads.plain_call)
    return tally


def test_count_gate_passes_on_the_closed_form():
    w = workloads.setup_count_exact(1, run.ROOT)
    knn = next(op for op in w.batch(0) if op.attrs["label"] == "K9,9")
    tally = _gate_single(w, knn)
    assert (tally.attempted, tally.failed) == (1, 0)


def test_count_gate_catches_a_broken_expected_value(monkeypatch):
    real = workloads.p_exact_knn
    monkeypatch.setattr(workloads, "p_exact_knn",
                        lambda n: real(n) + Fraction(1, 1 << (2 * n)))
    w = workloads.setup_count_exact(1, run.ROOT)
    knn = next(op for op in w.batch(0) if op.attrs["label"] == "K9,9")
    tally = _gate_single(w, knn)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_cli_gate_catches_a_broken_expected_value(monkeypatch):
    monkeypatch.setattr(workloads, "OCTA_CYCLIC", workloads.OCTA_CYCLIC + 1)
    w = workloads.setup_cli_session(1, run.ROOT)
    try:
        tally = _gate_single(w, w.batch(0)[0])  # `cycsets count` on the octahedron
    finally:
        w.close()
    assert (tally.attempted, tally.failed) == (1, 1)


def test_self_times_add_up_to_the_root():
    tr = Tracer()
    with tr.span("w", "bench") as root:
        with tr.span("a", "counting"):
            with tr.span("b", "hamilton"):
                sum(range(10000))
        with tr.span("c", "hamilton"):
            sum(range(10000))
    table = tr.self_times(root["id"])
    assert set(table) == {"bench", "counting", "hamilton"}
    assert abs(sum(table.values()) - (root["end"] - root["start"])) < 1e-9
    assert all(v >= 0 for v in table.values())


def test_tail_leaves_ten_samples_above():
    values = [float(i) for i in range(100)]
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == 90.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 90.0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "count_exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
