"""Per-layer probes of the traced run.

Every figure here is timed by the benchmark around calls into one layer's
public functions; ``repro`` itself is not instrumented. Probe matrices are
a 65,536-row 2-D Poisson operator ("big") and a 2,048-row banded matrix
("small"). Engine layers are compared as stacks that differ by one layer,
timed interleaved so host drift hits each stack alike. After its timed
loop, each executor a probe built has one output checked against SciPy
by the workload's oracle, and each pooled executor has its thread count
checked against the host's CPUs.
"""

from __future__ import annotations

import os
import time
from statistics import median

import numpy as np
import scipy.sparse.linalg as spla

from host import check_threads, stream_triad
from oracle import Oracle
from workloads import CG_RTOL, CG_MAXITER, MULTI_COLS, Reference, Workload

from repro import (
    KNL,
    AdaptiveSpMV,
    CSRMatrix,
    ExecutorSpec,
    ParallelConfig,
    SupervisionSpec,
    Tracer,
    baseline_kernel,
    build_executor,
)
from repro.engine import demotion_count
from repro.experiments.bench_batched import measure_steady_allocs
from repro.kernels.registry import kernel_failure_counts
from repro.matrices import generators as gen
from repro.model import matrix_fingerprint, values_digest

pc = time.perf_counter


def per_call(fn, calls: int) -> float:
    """Mean seconds of ``calls`` back-to-back calls of ``fn``."""
    t0 = pc()
    for _ in range(calls):
        fn()
    return (pc() - t0) / calls


def timed(fn, reps: int, calls: int = 1) -> float:
    """Median over ``reps`` of the mean per-call seconds (one warm call)."""
    fn()
    return median(per_call(fn, calls) for _ in range(reps))


def check(oracle: Oracle, label: str, ref: Reference, fn, x) -> None:
    """Check one output of ``fn`` (an apply of ``ref``'s matrix) off the
    clock; a wrong one counts as a failed operation of the run."""
    oracle.run(f"layers/{label}", lambda: ref.check(fn(x), x),
               lambda: ref.check(fn(x), x))


def check_pool(ex) -> None:
    """Refuse a pooled executor with more threads than the host has CPUs
    (the caller is the run's one thread)."""
    check_threads(callers=1, pool_threads=ex.nthreads,
                  nproc=os.cpu_count() or 1)


def csr_bytes(csr: CSRMatrix) -> int:
    """Bytes one CSR apply moves, computed from array sizes (not
    measured): values, column indices, row pointers, x read once, y
    written once."""
    n, m = csr.shape
    return (csr.nnz * (csr.values.itemsize + csr.colind.itemsize)
            + (n + 1) * csr.rowptr.itemsize + 8 * (n + m))


def probe_core(big: CSRMatrix, rng, oracle: Oracle) -> dict:
    """Cold plan, new values on a known structure, and an exact hit."""
    cold, revalue, hit, first = [], [], [], []
    stages: dict[str, list[float]] = {}
    x = rng.standard_normal(big.shape[1])
    for _ in range(5):
        opt = AdaptiveSpMV(KNL)
        tracer = Tracer()
        t0 = pc()
        op = opt.optimize(big, tracer=tracer)
        t1 = pc()
        op.matvec(x)
        t2 = pc()
        cold.append(t1 - t0)
        first.append(t2 - t0)
        for s in tracer.spans:
            stages.setdefault(s.name, []).append(s.wall_seconds)
        fresh = CSRMatrix(big.rowptr, big.colind,
                          rng.uniform(0.5, 1.5, big.nnz), big.shape)
        t0 = pc()
        opt.optimize(fresh)
        t1 = pc()
        opt.optimize(fresh)
        t2 = pc()
        revalue.append(t1 - t0)
        hit.append(t2 - t1)
    out = {
        "core.cold_ms": 1e3 * median(cold),
        "core.revalue_ms": 1e3 * median(revalue),
        "core.hit_ms": 1e3 * median(hit),
    }
    for stage in ("analyze", "classify", "select", "transform"):
        out[f"pipeline.{stage}_ms"] = 1e3 * median(stages[stage])
    check(oracle, "core.optimize", Reference(big), op.matvec, x)
    return out, op, median(first)


def probe_kernels(big, big_op, small, small_op, triad_gbs: float, rng,
                  oracle: Oracle):
    """Bare kernel executors (no layer) at both sizes, and 8 columns."""
    xb = rng.standard_normal(big.shape[1])
    yb = np.empty(big.shape[0])
    xs = rng.standard_normal(small.shape[1])
    ys = np.empty(small.shape[0])
    Xs = rng.standard_normal((small.shape[1], MULTI_COLS))
    bare_big = build_executor(big, kernel=big_op.kernel, data=big_op.data)
    bare_small = build_executor(small, kernel=small_op.kernel,
                                data=small_op.data)
    base_big = build_executor(big, kernel=baseline_kernel())
    # Planned and baseline CSR alternate, so host drift hits both alike.
    planned, baseline = [], []
    bare_big.apply(xb, out=yb)
    base_big.apply(xb, out=yb)
    for _ in range(15):
        planned.append(per_call(lambda: bare_big.apply(xb, out=yb), 5))
        baseline.append(per_call(lambda: base_big.apply(xb, out=yb), 5))
    t_big, t_base = median(planned), median(baseline)
    t_small = timed(lambda: bare_small.apply(xs, out=ys), 15, 100)
    t_multi = timed(lambda: bare_small.apply_multi(Xs), 15, 20)
    ref, ref_small = Reference(big), Reference(small)
    check(oracle, "kernels.apply", ref, bare_big.apply, xb)
    check(oracle, "kernels.baseline", ref, base_big.apply, xb)
    check(oracle, "kernels.small_apply", ref_small, bare_small.apply, xs)
    check(oracle, "kernels.multi", ref_small, bare_small.apply_multi, Xs)
    S, Ss = ref.S, ref_small.S
    gbs = csr_bytes(big) / t_big / 1e9
    return {
        "kernels.apply_us": 1e6 * t_big,
        "kernels.small_apply_us": 1e6 * t_small,
        "kernels.multi_us": 1e6 * t_multi,
        "kernels.gflops": 2.0 * big.nnz / t_big / 1e9,
        "kernels.gbs_computed": gbs,
        "kernels.bw_frac": gbs / triad_gbs,
        "ref.scipy_apply_us": 1e6 * timed(lambda: S @ xb, 15, 5),
        "ref.scipy_small_apply_us": 1e6 * timed(lambda: Ss @ xs, 15, 100),
    }, t_base - t_big


def probe_engine(small, small_op, nthreads: int, rng,
                 oracle: Oracle) -> dict:
    """Marginal us/call of each engine layer, stacks timed interleaved."""
    par = ParallelConfig(nthreads=nthreads)
    specs = {
        "bare": ExecutorSpec(),
        "guard": ExecutorSpec(guard=True),
        "workspace": ExecutorSpec(workspace="shared"),
        "trace": ExecutorSpec(trace=True),
        "parallel": ExecutorSpec(parallel=par),
        "supervision": ExecutorSpec(parallel=par,
                                    supervision=SupervisionSpec()),
    }
    stacks = {
        name: build_executor(small, spec, kernel=small_op.kernel,
                             data=small_op.data)
        for name, spec in specs.items()
    }
    check_pool(stacks["parallel"])
    check_pool(stacks["supervision"])
    x = rng.standard_normal(small.shape[1])
    samples: dict[str, list[float]] = {name: [] for name in stacks}
    for stack in stacks.values():
        stack.apply(x)
    for _ in range(15):
        for name, stack in stacks.items():
            samples[name].append(per_call(lambda: stack.apply(x), 40))
    t = {name: median(v) for name, v in samples.items()}
    ref = Reference(small)
    for name, stack in stacks.items():
        check(oracle, f"engine.{name}", ref, stack.apply, x)
    return {
        "engine.guard_us": 1e6 * (t["guard"] - t["bare"]),
        "engine.workspace_us": 1e6 * (t["workspace"] - t["bare"]),
        "engine.trace_us": 1e6 * (t["trace"] - t["bare"]),
        "engine.parallel_us": 1e6 * (t["parallel"] - t["bare"]),
        "engine.supervision_us": 1e6 * (t["supervision"] - t["parallel"]),
    }


def probe_parallel(workload: Workload) -> dict:
    """The pool against serial on the workload's systems: one checked
    pooled CG solve of each, then applies on the largest, with the pool's
    own per-thread clocks and the partition's nnz balance."""
    spec = ExecutorSpec(parallel=ParallelConfig(nthreads=workload.nthreads))
    pooled = {s.name: s.op.executor(spec) for s in workload.systems}
    for ex in pooled.values():
        check_pool(ex)
    solve_s = 0.0
    for system in workload.systems:
        ex = pooled[system.name]
        ex.apply(system.b)
        solve_s += workload.solve(system, ex, "pooled")[0]
    system = max(workload.systems, key=lambda s: s.csr.nnz)
    ex, x = pooled[system.name], system.b
    serial, parallel, cpu, wall, wait = [], [], [], [], []
    for _ in range(15):
        serial.append(per_call(lambda: system.serial.apply(x), 3))
        parallel.append(per_call(lambda: ex.apply(x), 3))
        m = ex.last_measurement
        cpu.append(m.imbalance)
        wall.append(m.wall_imbalance)
        wait.append(m.wall_seconds - max(m.thread_wall_seconds))
    check(workload.oracle, "parallel.apply", system.ref, ex.apply, x)
    nnz_imbalance = []
    for s in workload.systems:
        part = pooled[s.name].partition
        sums = part.thread_sums(np.diff(s.csr.rowptr).astype(np.float64))
        nnz_imbalance.append(float(sums.max() / sums.mean()))
    return {
        "parallel.solve_s": solve_s,
        "parallel.speedup": median(serial) / median(parallel),
        "parallel.cpu_imbalance": median(cpu),
        "parallel.wall_imbalance": median(wall),
        "parallel.wait_us": 1e6 * median(wait),
        "sched.nnz_imbalance": max(nnz_imbalance),
    }


def probe_solvers(workload: Workload) -> dict:
    """Share of the serial solve spent in operator applies, and SciPy's
    CG on the same systems for context."""
    iterations = sum(s.iterations for s in workload.systems)
    spmv = 0.0
    scipy_s = 0.0
    for s in workload.systems:
        y = np.empty(s.csr.shape[0])
        spmv += s.iterations * timed(lambda: s.serial.apply(s.b, out=y), 9,
                                     5)
        t0 = pc()
        spla.cg(s.ref.S, s.b, rtol=CG_RTOL, maxiter=CG_MAXITER)
        scipy_s += pc() - t0
    solve = workload.solve_seconds()
    return {
        "solvers.iterations": iterations,
        "solvers.spmv_frac": spmv / solve,
        "solvers.vec_us_per_iter": 1e6 * (solve - spmv) / iterations,
        "ref.scipy_solve_s": scipy_s,
    }


def probe_memory(workload: Workload) -> dict:
    """Arrays an apply retains after warm-up, and workspace reuse."""
    system = workload.systems[0]
    x = system.b
    y = np.empty(system.csr.shape[0])
    system.serial.apply(x, out=y)
    allocs = measure_steady_allocs(lambda: system.serial.apply(x, out=y))
    rates = [s.op.workspace.hit_rate for s in workload.systems]
    return {
        "memory.steady_allocs": allocs["count"],
        "memory.ws_hit_frac": float(np.mean(rates)),
    }


def probe_model(big: CSRMatrix, big_op) -> dict:
    return {
        "model.fingerprint_ms": 1e3 * timed(
            lambda: (matrix_fingerprint(big), values_digest(big)), 7),
        "model.predict_us": 1e6 * timed(
            lambda: big_op.model.predict(big_op.kernel, big_op.data), 7),
    }


def layer_metrics(workload: Workload, end_to_end: list[dict]
                  ) -> tuple[dict, dict]:
    """Every per-layer metric, plus the host record of the probes.
    ``end_to_end`` (from ``BENCHMARK.json``) says which way each
    end-to-end metric is better, for its tracing overhead."""
    rng = np.random.default_rng(workload.seed + 7919)
    big = gen.poisson2d(256)
    small = gen.banded(2048, nnz_per_row=9, seed=workload.seed)
    small_op = AdaptiveSpMV(KNL).optimize(small)
    triad = stream_triad()
    oracle = workload.oracle
    out, big_op, setup = probe_core(big, rng, oracle)
    kernels, saving = probe_kernels(big, big_op, small, small_op,
                                    triad["gbs"], rng, oracle)
    out.update(kernels)
    # Applies until the plan pays for its set-up. Negative: never, the
    # planned kernel is slower than baseline CSR; a very large magnitude
    # means the two kernels differ by less than the host's noise.
    out["core.breakeven_iters"] = setup / saving
    caches = [o.plan_cache for o in workload.optimizers
              if o.plan_cache is not None]
    hits = sum(c.hits for c in caches)
    lookups = hits + sum(c.misses for c in caches)
    out["core.cache_hit_frac"] = hits / lookups if lookups else 0.0
    out["core.cache_evictions"] = sum(c.evictions for c in caches)
    out.update(probe_model(big, big_op))
    out.update(probe_engine(small, small_op, workload.nthreads, rng, oracle))
    out.update(probe_parallel(workload))
    out.update(probe_memory(workload))
    out.update(probe_solvers(workload))
    out["guard.failures"] = sum(kernel_failure_counts().values())
    out["engine.demotions"] = demotion_count()
    out["bench.failed_frac"] = oracle.failed / oracle.attempted
    plain = workload.metrics(traced=False)
    traced = workload.metrics(traced=True)
    higher = {m["name"] for m in end_to_end if m["better"] == "higher"}
    for name, value in plain.items():
        if name == "peak_rss_mb":
            share = workload.spans.nbytes() / (value * 1024 * 1024)
        elif name in higher:
            share = value / traced[name] - 1.0
        else:
            share = traced[name] / value - 1.0
        out[f"trace.overhead_frac.{name}"] = share
    probes = {"stream_triad": triad, "breakeven_saving_s": saving}
    return out, probes
