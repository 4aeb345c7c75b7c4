"""Tests of the steadiness check, the statistics it rests on, the oracle
and the thread clamp. Run with ``python -m pytest perfbench/tests``."""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from host import cache_sizes, check_threads  # noqa: E402
from oracle import Oracle, apply_error  # noqa: E402
from stats import (  # noqa: E402
    min_samples_for_tail,
    probe_slope,
    spread,
    state_slope,
    windowed_tail,
)
from steady import summarize, tracks, verdict, within  # noqa: E402


def _runs(values_by_metric: dict[str, list[float]], raw=None,
          probes=None, slopes=None) -> list[dict]:
    """Runs as ``steady.run_once`` returns them. Metrics named in ``raw``
    are host-adjusted, by the per-run ``probes``; ``slopes`` are the
    runs' own state slopes."""
    n = len(next(iter(values_by_metric.values())))
    raw = raw or {}
    return [
        {"metrics": {name: {"value": vals[i], "unit": "s"}
                     for name, vals in values_by_metric.items()},
         "record": {
             "raw": {name: vals[i] for name, vals in raw.items()},
             "adjusted_by": {name: {"phase": "requests", "power": 1,
                                    "probe_s": probes[i]}
                             for name in raw},
             "state_slopes": {name: vals[i]
                              for name, vals in (slopes or {}).items()},
         }}
        for i in range(n)
    ]


def test_spread_matches_statistics_quantiles():
    values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 1.0, 0.98, 1.02, 1.01]
    q1, med, q3 = statistics.quantiles(values, n=4)
    s = spread(values)
    assert s["q1"] == q1 and s["q3"] == q3
    assert s["median"] == statistics.median(values)
    assert s["spread"] == pytest.approx((q3 - q1) / s["median"])


def test_verdict_thresholds():
    assert verdict("solve_s", 0.02, 0.1) == "ok"
    assert verdict("solve_s", 0.05, 0.1) == "unsteady"
    assert verdict("solve_s", 0.11, 0.1) == "FAIL"
    # setup_s is reported, never judged on its spread.
    assert verdict("setup_s", 0.9, 0.25) == "-"


def test_summarize_flags_only_the_metric_that_does_not_repeat():
    declared = [
        {"name": "steady_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "noisy_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]
    runs = _runs({
        "steady_s": [1.00, 1.01, 0.99, 1.00, 1.02],
        "noisy_s": [1.0, 1.5, 0.6, 1.3, 0.8],
        "setup_s": [1.0, 2.0, 0.5, 1.5, 0.7],
    })
    rows = {r["name"]: r for r in summarize(runs, declared)}
    assert rows["steady_s"]["verdict"] == "ok"
    assert rows["noisy_s"]["verdict"] == "FAIL"
    assert rows["setup_s"]["verdict"] == "-"
    assert rows["steady_s"]["n"] == 5
    assert rows["steady_s"]["tracks"] is None


def test_probe_slope_tells_tracking_from_ignoring_the_host():
    probes = [20e-6, 24e-6, 30e-6, 22e-6, 27e-6, 32e-6]
    follows = [1e-3 * p / 20e-6 for p in probes]
    slope, se = probe_slope(follows, probes)
    assert slope == pytest.approx(1.0) and se < 1e-9
    # A rate falls as the probe grows: power -1 reads it as tracking too.
    assert probe_slope([1 / v for v in follows], probes,
                       -1)[0] == pytest.approx(1.0)
    assert probe_slope([1e-3] * 6, probes)[0] == pytest.approx(0.0)
    # Too few runs, or a probe that never moved, say nothing.
    assert probe_slope(follows[:3], probes[:3]) is None
    assert probe_slope(follows, [20e-6] * 6) is None


def test_summarize_reports_tracking_of_adjusted_metrics_only():
    probes = [20e-6, 24e-6, 30e-6, 22e-6, 27e-6]
    raw = [1e-3 * p / 20e-6 for p in probes]
    declared = [
        {"name": "call_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "peak_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
    ]
    runs = _runs({"call_s": [1e-3] * 5, "peak_mb": [10.0] * 5},
                 raw={"call_s": raw}, probes=probes,
                 slopes={"call_s": [0.9, None, 1.1, 1.0, 0.7]})
    rows = {r["name"]: r for r in summarize(runs, declared)}
    assert rows["call_s"]["tracks"][0] == pytest.approx(1.0)
    assert rows["call_s"]["within"] == pytest.approx(0.95)
    assert rows["peak_mb"]["tracks"] is None
    assert tracks(runs, "peak_mb") is None
    assert within(runs, "peak_mb") is None


def test_state_slope_reads_samples_within_a_run():
    rng = np.random.default_rng(1)
    # The host flips between a fast (20 us) and a slow (30 us) probe.
    probes = np.where(rng.random(400) < 0.4, 30e-6, 20e-6)
    probes = probes * rng.uniform(0.98, 1.02, probes.size)
    follows = [(1e-4 * p / 20e-6, p) for p in probes]
    assert state_slope(follows) == pytest.approx(1.0, abs=0.01)
    assert state_slope(follows, 95.0) == pytest.approx(1.0, abs=0.05)
    ignores = [(1e-4, p) for p in probes]
    assert state_slope(ignores) == pytest.approx(0.0)
    assert state_slope([(1e-4, 20e-6)] * 10) is None
    assert state_slope([]) is None


def test_windowed_tail_needs_ten_samples_beyond_the_percentile():
    need = min_samples_for_tail(95.0)
    assert need == 200
    with pytest.raises(ValueError):
        windowed_tail([[1.0] * (need - 1)])
    windows = [list(np.linspace(0, 1, need)), list(np.linspace(0, 3, need)),
               list(np.linspace(0, 2, need)), [5.0] * 10]
    value, used = windowed_tail(windows)
    # The short window is skipped; the median of the three p95s remains.
    assert used == 3 * need
    assert value == pytest.approx(np.percentile(windows[2], 95.0))


def test_oracle_counts_and_replays():
    oracle = Oracle()
    ref = np.array([1.0, 2.0])
    bound = np.array([1.0, 2.0])
    assert oracle.run("ok", lambda: apply_error(ref.copy(), ref, bound),
                      lambda: None)
    assert not oracle.run("wrong",
                          lambda: apply_error(ref + 1e-3, ref, bound),
                          lambda: "still wrong")
    assert not oracle.run("flaky",
                          lambda: apply_error(np.array([np.nan, 2.0]), ref,
                                              bound),
                          lambda: None)

    def boom():
        raise RuntimeError("kernel fault")

    assert not oracle.run("raised", boom, lambda: None)
    assert (oracle.attempted, oracle.failed) == (4, 3)
    kinds = {f["label"]: f["replay"] for f in oracle.replay_failures()}
    assert kinds == {"wrong": "deterministic", "flaky": "transient",
                     "raised": "transient"}


def test_apply_error_tolerates_reordered_sums_only():
    rng = np.random.default_rng(0)
    ref = rng.standard_normal(100)
    bound = np.abs(ref) + 1.0
    assert apply_error(ref * (1 + 1e-14), ref, bound) is None
    assert apply_error(ref[:99], ref, bound).startswith("shape")
    bad = ref.copy()
    bad[7] += 1e-6
    assert "(7,)" in apply_error(bad, ref, bound)


def test_thread_clamp_refuses_oversubscription():
    check_threads(callers=1, pool_threads=2, nproc=2)
    with pytest.raises(ValueError):
        check_threads(callers=2, pool_threads=2, nproc=2)
    with pytest.raises(ValueError):
        check_threads(callers=1, pool_threads=4, nproc=2)
    with pytest.raises(ValueError):
        check_threads(callers=0, pool_threads=1, nproc=2)


def test_cache_sizes_reads_sysfs_layout(tmp_path):
    for i, (level, kind, size) in enumerate(
            [("1", "Data", "48K"), ("1", "Instruction", "32K"),
             ("2", "Unified", "2048K"), ("3", "Unified", "300M")]):
        d = tmp_path / f"index{i}"
        d.mkdir()
        (d / "level").write_text(level)
        (d / "type").write_text(kind)
        (d / "size").write_text(size)
    assert cache_sizes(tmp_path) == {
        "L1d": 48 * 1024, "L2": 2048 * 1024, "L3": 300 * 1024 ** 2}
