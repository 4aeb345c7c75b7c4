"""Batched-throughput benchmark: single-RHS SpMV vs multi-RHS SpMM.

Not a paper artifact: this driver tracks the *reproduction's own*
numeric throughput across kernel variants, measuring how much the
batched ``matmat`` plane gains over ``k`` sequential ``matvec`` calls
(the SpMM lever of Saule et al., arXiv:1302.1078). Results are written
to ``BENCH_kernels.json`` at the repo root so successive PRs leave a
perf trajectory; ``tests/perf`` smoke-runs the harness on tiny inputs
and validates the schema on every CI run.
"""

from __future__ import annotations

import json
import os
import tracemalloc

import numpy as np

from ..formats import CSRMatrix
from ..kernels import baseline_kernel, merged_pool_kernel
from ..kernels.bcsr import BCSRSpMV
from ..kernels.sellcs import SellCSigmaSpMV
from ..memory import Workspace
from .common import ExperimentTable, PipelineRunner, geometric_mean

__all__ = [
    "run",
    "bench_kernels",
    "bench_parallel",
    "measure_steady_allocs",
    "BENCH_SCHEMA_KEYS",
    "ROW_SCHEMA_KEYS",
    "PARALLEL_ROW_SCHEMA_KEYS",
    "PARALLEL_THREADS",
]

#: Required top-level keys of ``BENCH_kernels.json``.
BENCH_SCHEMA_KEYS = frozenset(
    {"schema_version", "rhs", "repeats", "suite", "kernels",
     "geomean_speedup", "parallel", "cost_model", "cpu_count"}
)
#: Required keys of every per-kernel measurement row.
ROW_SCHEMA_KEYS = frozenset(
    {"kernel", "matrix", "nrows", "nnz", "single_gflops",
     "batched_gflops", "speedup", "single_allocs",
     "single_steady_peak_bytes", "workspace_hit_rate",
     "predicted_gflops", "model_error_pct"}
)
#: Required keys of every measured-parallel row.
PARALLEL_ROW_SCHEMA_KEYS = frozenset(
    {"matrix", "schedule", "nthreads", "gflops", "wall_seconds",
     "imbalance", "wall_imbalance", "speedup",
     "predicted_gflops", "model_error_pct"}
)

#: Thread counts swept by the measured-parallel section.
PARALLEL_THREADS = (1, 2, 4, 8)

#: v2: single-RHS timings run through the zero-allocation ``out=`` /
#: ``workspace=`` plane and every row records the steady-state
#: allocation telemetry of one post-warmup apply.
#: v3: a ``parallel`` section with *measured* shared-memory runs —
#: per-thread CPU-time imbalance and wall makespan for every schedule
#: policy at threads in :data:`PARALLEL_THREADS`.
#: v4: every measurement row carries the cost model's prediction next
#: to the measurement (``predicted_gflops`` / ``model_error_pct``) and
#: the payload records which model predicted (``cost_model``); a
#: :class:`~repro.model.CalibratedModel` passed as ``model=`` also
#: accumulates the pairs for :meth:`~repro.model.CalibratedModel.
#: refine`.
#: v5: the payload records the host's ``os.cpu_count()``
#: (``cpu_count``), the bound the CLI clamps the thread sweep to.
SCHEMA_VERSION = 5


def measure_steady_allocs(fn, *, min_block_bytes: int = 4096) -> dict:
    """Allocation telemetry of one ``fn()`` call under ``tracemalloc``.

    Returns ``{"count": retained array-sized blocks, "peak_bytes":
    transient high-water mark over the pre-call level}``. ``count``
    sees blocks still alive after the call (reused workspace buffers
    never appear); ``peak_bytes`` also catches temporaries that were
    freed before returning, so a zero-allocation steady state shows
    ``count == 0`` *and* a peak well under one iteration vector.
    """
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        current, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        fn()
        _, peak = tracemalloc.get_traced_memory()
        after = tracemalloc.take_snapshot()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    count = sum(
        1
        for stat in after.compare_to(before, "traceback")
        if stat.size_diff >= min_block_bytes
    )
    return {
        "count": int(count),
        "peak_bytes": int(max(peak - current, 0)),
    }


def _bench_matrices(scale: float) -> list[tuple[str, CSRMatrix]]:
    """The benchmark suite: one streaming-regular and one
    scattered-access matrix, sized (at scale 1.0) so that x far
    exceeds the last-level cache — the regime where batching pays."""
    from ..matrices.generators import banded, random_uniform

    n = max(int(64_000 * scale), 64)
    return [
        ("banded", banded(n, nnz_per_row=8, bandwidth=32, seed=5)),
        ("scattered", random_uniform(n, nnz_per_row=16.0, seed=6)),
    ]


def _bench_kernel_variants() -> list[tuple[str, object]]:
    return [
        ("csr", baseline_kernel()),
        ("csr+delta", merged_pool_kernel(("compression",))),
        ("csr+split", merged_pool_kernel(("decomposition",))),
        ("sell-8", SellCSigmaSpMV(chunk=8)),
        ("bcsr2x2", BCSRSpMV(block=2)),
    ]


def _default_model(nthreads=None):
    """The model v4 rows predict through when none is passed: the pure
    analytic simulator for the default platform."""
    from ..machine import KNL
    from ..model import AnalyticModel

    return AnalyticModel(KNL, nthreads)


def bench_parallel(
    *,
    threads: tuple[int, ...] = PARALLEL_THREADS,
    schedules: tuple[str, ...] | None = None,
    scale: float = 1.0,
    repeats: int = 3,
    matrices: list[tuple[str, CSRMatrix]] | None = None,
    engine_spec=None,
    model=None,
) -> list[dict]:
    """Measure real threaded SpMV for every schedule policy.

    Each row is one (matrix, schedule, nthreads) cell executed on the
    shared-memory pool through an engine stack
    (:func:`repro.engine.build_executor`): the best-of-``repeats`` wall
    time, its GFLOP/s, the measured per-thread CPU-time imbalance
    (work skew, robust to core oversubscription), the wall-clock
    imbalance, and the speedup over the same schedule at one thread.
    These are *measured* numbers, not cost-plane predictions — the
    imbalance column is the observed analogue of the model's P_IMB
    term.

    ``engine_spec`` (an :class:`~repro.engine.ExecutorSpec`) layers
    extra middleware — guard, supervision, a workspace arena — around
    each measured cell; its ``parallel`` axis is overridden by the
    (``schedule``, ``nthreads``) grid being swept.

    Since schema v4 every row also carries ``model``'s prediction for
    the same (schedule, nthreads) cell and the relative error against
    the measurement; if the model exposes ``observe`` (a
    :class:`~repro.model.CalibratedModel`), each predicted/measured
    pair is fed to its refinement buffer.
    """
    from dataclasses import replace

    from ..engine import ExecutorSpec, build_executor
    from ..kernels import baseline_kernel
    from ..model import prediction_error_pct
    from ..parallel import ParallelConfig
    from ..sched import SCHEDULE_POLICIES, make_partition

    base_spec = engine_spec if engine_spec is not None else ExecutorSpec()
    if schedules is None:
        schedules = tuple(SCHEDULE_POLICIES)
    if matrices is None:
        matrices = _bench_matrices(scale)
    if model is None:
        model = _default_model()
    base_kernel = baseline_kernel()
    rows: list[dict] = []
    for mat_name, csr in matrices:
        x = np.linspace(-1.0, 1.0, csr.ncols)
        flops = 2.0 * csr.nnz
        base_data = base_kernel.preprocess(csr)
        for schedule in schedules:
            base_wall = None
            for nthreads in threads:
                spec = replace(
                    base_spec,
                    parallel=ParallelConfig(nthreads=nthreads,
                                            schedule=schedule),
                    trace=False,
                )
                op = build_executor(csr, spec)
                out = np.empty(csr.nrows)
                op.apply(x, out=out)  # warm up pool + workspace
                best = None
                for _ in range(max(1, repeats)):
                    op.apply(x, out=out)
                    m = op.last_measurement
                    if m is not None and (
                        best is None
                        or m.wall_seconds < best.wall_seconds
                    ):
                        best = m
                if best is None:
                    # Every repeat degraded to the serial fallback
                    # (only possible with a supervised engine_spec
                    # under fault injection); nothing to measure.
                    continue
                if base_wall is None:
                    base_wall = best.wall_seconds
                predicted = model.run(
                    base_kernel, base_data,
                    make_partition(csr, nthreads, schedule),
                    nthreads=nthreads,
                )
                measured_gflops = flops / best.wall_seconds / 1e9
                observe = getattr(model, "observe", None)
                if observe is not None:
                    observe(base_kernel.name, predicted.seconds,
                            best.wall_seconds)
                rows.append({
                    "matrix": mat_name,
                    "schedule": schedule,
                    "nthreads": int(nthreads),
                    "gflops": measured_gflops,
                    "wall_seconds": best.wall_seconds,
                    "imbalance": best.imbalance,
                    "wall_imbalance": best.wall_imbalance,
                    "speedup": base_wall / best.wall_seconds,
                    "predicted_gflops": float(predicted.gflops),
                    "model_error_pct": prediction_error_pct(
                        predicted.gflops, measured_gflops
                    ),
                })
    return rows


def bench_kernels(
    *,
    rhs: int = 32,
    scale: float = 1.0,
    repeats: int = 3,
    matrices: list[tuple[str, CSRMatrix]] | None = None,
    kernels: list[tuple[str, object]] | None = None,
    threads: tuple[int, ...] = PARALLEL_THREADS,
    parallel_schedules: tuple[str, ...] | None = None,
    engine_spec=None,
    model=None,
) -> dict:
    """Measure single-RHS vs batched GFLOP/s for every kernel variant.

    For each (kernel, matrix) pair the single-RHS number times ``rhs``
    sequential ``apply`` calls and the batched number times one
    ``apply_multi`` over the same ``rhs`` vectors — identical flop
    counts, so the speedup column is a pure throughput ratio.

    Since schema v2 the single-RHS loop runs through the
    zero-allocation plane (caller-owned ``out=`` buffer plus a
    :class:`~repro.memory.Workspace` arena), and each row carries the
    steady-state telemetry: retained-allocation count and transient
    peak bytes of one post-warmup apply, and the arena's hit rate over
    the timed loop.

    Since schema v4 each row also records ``model``'s serial-rate
    prediction (``predicted_gflops``, at one thread — the single-RHS
    loop is serial) and its relative error against the measured
    single-RHS rate; the payload's ``cost_model`` field names the
    predicting model. Returns the ``BENCH_kernels.json`` payload.
    """
    from ..model import prediction_error_pct

    if rhs < 1:
        raise ValueError("rhs must be >= 1")
    if matrices is None:
        matrices = _bench_matrices(scale)
    if kernels is None:
        kernels = _bench_kernel_variants()
    if model is None:
        model = _default_model()
    rng = np.random.default_rng(2017)
    runner = PipelineRunner()

    rows = []
    for mat_name, csr in matrices:
        X = rng.standard_normal((csr.ncols, rhs))
        # The single-RHS loop applies contiguous rows of X^T: a strided
        # column X[:, j] would make every apply time a copy of x too.
        xs = np.ascontiguousarray(X.T)
        flops = 2.0 * csr.nnz * rhs
        y = np.empty(csr.nrows)
        for kern_name, kernel in kernels:
            data = kernel.preprocess(csr)
            workspace = Workspace()
            # Warm up both planes (primes lazy layouts, plan caches
            # and the workspace arena).
            kernel.apply(data, xs[0], out=y, workspace=workspace)
            kernel.apply_multi(data, X[:, :1])

            allocs = measure_steady_allocs(
                lambda: kernel.apply(data, xs[0], out=y,
                                     workspace=workspace)
            )

            def single():
                for x in xs:
                    kernel.apply(data, x, out=y, workspace=workspace)

            workspace.reset_stats()
            t_single = runner.time_seconds(
                single, repeats=repeats,
                label=f"single:{kern_name}:{mat_name}",
            )
            hit_rate = workspace.hit_rate
            t_batched = runner.time_seconds(
                lambda: kernel.apply_multi(data, X), repeats=repeats,
                label=f"batched:{kern_name}:{mat_name}",
            )
            single_gflops = flops / t_single / 1e9
            # Serial-rate prediction: the single-RHS loop runs one
            # thread, so predict at nthreads=1 and compare per-matvec
            # rates (identical flop accounting on both sides).
            predicted = model.run(kernel, data, nthreads=1)
            predicted_gflops = float(predicted.gflops)
            observe = getattr(model, "observe", None)
            if observe is not None:
                observe(kernel.name, predicted.seconds, t_single / rhs)
            rows.append({
                "kernel": kern_name,
                "matrix": mat_name,
                "nrows": csr.nrows,
                "nnz": csr.nnz,
                "single_gflops": single_gflops,
                "batched_gflops": flops / t_batched / 1e9,
                "speedup": t_single / t_batched,
                "single_allocs": allocs["count"],
                "single_steady_peak_bytes": allocs["peak_bytes"],
                "workspace_hit_rate": hit_rate,
                "predicted_gflops": predicted_gflops,
                "model_error_pct": prediction_error_pct(
                    predicted_gflops, single_gflops
                ),
            })

    return {
        "schema_version": SCHEMA_VERSION,
        "rhs": int(rhs),
        "repeats": int(repeats),
        "cost_model": model.signature(),
        "cpu_count": os.cpu_count(),
        "suite": [
            {"matrix": name, "nrows": csr.nrows, "nnz": csr.nnz}
            for name, csr in matrices
        ],
        "kernels": rows,
        "geomean_speedup": geometric_mean([r["speedup"] for r in rows]),
        "parallel": {
            "threads": [int(t) for t in threads],
            "engine_spec": (
                None if engine_spec is None else engine_spec.to_dict()
            ),
            "rows": bench_parallel(
                threads=threads, schedules=parallel_schedules,
                repeats=repeats, matrices=matrices,
                engine_spec=engine_spec, model=model,
            ),
        },
    }


def run(
    *,
    rhs: int = 32,
    scale: float = 1.0,
    repeats: int = 3,
    out_path: str | None = "BENCH_kernels.json",
    matrices: list[tuple[str, CSRMatrix]] | None = None,
    kernels: list[tuple[str, object]] | None = None,
    threads: tuple[int, ...] = PARALLEL_THREADS,
    parallel_schedules: tuple[str, ...] | None = None,
    engine_spec=None,
    model=None,
) -> ExperimentTable:
    """Run the batched-throughput benchmark and render it as a table.

    ``out_path`` (default ``BENCH_kernels.json`` in the current
    directory) receives the machine-readable payload; pass ``None`` to
    skip writing. ``engine_spec`` layers extra engine middleware around
    the measured-parallel section (see :func:`bench_parallel`);
    ``model`` selects the cost model behind the v4 prediction columns.
    """
    payload = bench_kernels(
        rhs=rhs, scale=scale, repeats=repeats,
        matrices=matrices, kernels=kernels,
        threads=threads, parallel_schedules=parallel_schedules,
        engine_spec=engine_spec, model=model,
    )
    table = ExperimentTable(
        experiment_id="bench-batched",
        title=f"single-RHS vs batched SpMV throughput ({rhs} RHS)",
        headers=("kernel", "matrix", "nrows", "nnz",
                 "single Gflop/s", "batched Gflop/s", "speedup",
                 "steady allocs", "ws hit rate"),
    )
    for r in payload["kernels"]:
        table.add(
            r["kernel"], r["matrix"], r["nrows"], r["nnz"],
            r["single_gflops"], r["batched_gflops"], r["speedup"],
            r["single_allocs"], r["workspace_hit_rate"],
        )
    table.note(
        f"geomean batched speedup {payload['geomean_speedup']:.2f}x "
        f"over {rhs} sequential matvecs (wall-clock, this host)"
    )
    errors = [
        r["model_error_pct"]
        for r in payload["kernels"] + payload["parallel"]["rows"]
        if np.isfinite(r["model_error_pct"])
    ]
    if errors:
        table.note(
            f"cost model [{payload['cost_model']}]: median prediction "
            f"error {float(np.median(errors)):.1f}% over "
            f"{len(errors)} cells"
        )
    par = payload["parallel"]
    tmax = max(par["threads"])
    for schedule in sorted({r["schedule"] for r in par["rows"]}):
        cells = [r for r in par["rows"]
                 if r["schedule"] == schedule and r["nthreads"] == tmax]
        if not cells:
            continue
        imb = geometric_mean([c["imbalance"] for c in cells])
        spd = geometric_mean([c["speedup"] for c in cells])
        table.note(
            f"measured parallel [{schedule}] @ {tmax} threads: "
            f"CPU-time imbalance {imb:.3f}, wall speedup {spd:.2f}x"
        )
    if out_path is not None:
        with open(out_path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        table.note(f"wrote {out_path}")
    return table
