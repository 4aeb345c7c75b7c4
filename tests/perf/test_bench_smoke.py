"""Smoke test for the batched-throughput benchmark harness.

Runs the real harness on tiny matrices (well under a second) and
validates the ``BENCH_kernels.json`` schema, so a broken harness or a
silent schema drift fails CI without paying full benchmark cost.
"""

import json

import numpy as np

from repro.experiments.bench_batched import (
    BENCH_SCHEMA_KEYS,
    PARALLEL_ROW_SCHEMA_KEYS,
    ROW_SCHEMA_KEYS,
    SCHEMA_VERSION,
    bench_kernels,
    bench_parallel,
    run,
)
from repro.matrices.generators import banded, random_uniform

TINY = [
    ("banded", banded(200, nnz_per_row=6, bandwidth=16, seed=5)),
    ("scattered", random_uniform(200, nnz_per_row=8.0, seed=6)),
]


def _validate(payload):
    assert BENCH_SCHEMA_KEYS <= payload.keys()
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["rhs"] >= 1 and payload["repeats"] >= 1
    assert len(payload["suite"]) == len(TINY)
    assert payload["kernels"], "no measurement rows"
    matrices = {s["matrix"] for s in payload["suite"]}
    for row in payload["kernels"]:
        assert ROW_SCHEMA_KEYS <= row.keys()
        assert row["matrix"] in matrices
        assert row["nrows"] > 0 and row["nnz"] > 0
        assert row["single_gflops"] > 0.0
        assert row["batched_gflops"] > 0.0
        assert row["speedup"] > 0.0
        assert row["single_allocs"] >= 0
        assert row["single_steady_peak_bytes"] >= 0
        assert 0.0 <= row["workspace_hit_rate"] <= 1.0
        assert row["predicted_gflops"] > 0.0
        assert row["model_error_pct"] >= 0.0
    assert isinstance(payload["cost_model"], str) and payload["cost_model"]
    assert payload["cpu_count"] >= 1
    assert payload["geomean_speedup"] > 0.0
    par = payload["parallel"]
    assert par["threads"], "no parallel thread counts"
    assert par["rows"], "no measured-parallel rows"
    for row in par["rows"]:
        assert PARALLEL_ROW_SCHEMA_KEYS <= row.keys()
        assert row["matrix"] in matrices
        assert row["nthreads"] in par["threads"]
        assert row["gflops"] > 0.0
        assert row["wall_seconds"] >= 0.0
        assert row["imbalance"] >= 1.0
        assert row["wall_imbalance"] >= 1.0
        assert row["speedup"] > 0.0
        assert row["predicted_gflops"] > 0.0
        assert row["model_error_pct"] >= 0.0


def test_bench_payload_schema():
    payload = bench_kernels(rhs=4, repeats=1, matrices=TINY)
    _validate(payload)
    # speedup must be the ratio of the reported throughputs
    for row in payload["kernels"]:
        assert row["speedup"] == (
            row["batched_gflops"] / row["single_gflops"]
        ) or abs(
            row["speedup"] - row["batched_gflops"] / row["single_gflops"]
        ) < 1e-9


def test_run_writes_valid_json(tmp_path):
    out = tmp_path / "BENCH_kernels.json"
    table = run(rhs=4, repeats=1, out_path=str(out), matrices=TINY)
    assert out.exists()
    payload = json.loads(out.read_text())
    _validate(payload)
    # the rendered table carries one line per measurement row
    assert len(table.rows) == len(payload["kernels"])


def test_run_can_skip_writing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run(rhs=2, repeats=1, out_path=None, matrices=TINY)
    assert not (tmp_path / "BENCH_kernels.json").exists()


def test_bench_rejects_bad_rhs():
    import pytest

    with pytest.raises(ValueError, match="rhs"):
        bench_kernels(rhs=0, matrices=TINY)


def test_bench_feeds_calibrated_model_refinement():
    """A CalibratedModel passed as ``model=`` accumulates one observed
    predicted/measured pair per measurement cell (the refine loop's
    input)."""
    from repro.machine import KNL
    from repro.model import CalibratedModel, MachineProfile

    model = CalibratedModel(KNL, MachineProfile.identity(KNL.name))
    payload = bench_kernels(rhs=2, repeats=1, matrices=TINY,
                            threads=(1, 2), model=model)
    assert payload["cost_model"] == model.signature()
    cells = len(payload["kernels"]) + len(payload["parallel"]["rows"])
    assert model.observation_count == cells
    summary = model.refine()
    assert summary  # at least one kernel's scale was updated


def test_bench_parallel_covers_grid():
    rows = bench_parallel(threads=(1, 2), repeats=1, matrices=TINY,
                          schedules=("static-rows", "balanced-nnz"))
    # full (matrix x schedule x threads) grid, nothing silently dropped
    assert len(rows) == len(TINY) * 2 * 2
    cells = {(r["matrix"], r["schedule"], r["nthreads"]) for r in rows}
    assert len(cells) == len(rows)
    # the t=1 baseline rows define speedup 1.0
    for r in rows:
        if r["nthreads"] == 1:
            assert r["speedup"] == 1.0
            assert r["imbalance"] == 1.0
