"""Steadiness check: run one workload N times and judge each metric.

    python3 perfbench/steady.py --workload small-calls --runs 5

Each run gets its own seed (``--first-seed``, +1, ...). For every metric
the check prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the quartile distance as a share of the median, against the metric's
bound in ``BENCHMARK.json``. An end-to-end metric whose spread exceeds a
third of its bound is flagged ``unsteady``; one beyond its bound is
``FAIL`` (``setup_s`` is only reported: its spread is not bounded). The
exit code is 1 when a run fails or any metric is ``FAIL``.

For each host-adjusted metric the check also prints ``tracks``: the
slope of its raw value against its phase's mean host probe across the
runs (``stats.probe_slope``), with its standard error; and for metrics
adjusted sample by sample, ``within``: the median over runs of each run's
own ``stats.state_slope``, which asks the same of the samples within a
run. Near 1 the adjustment removes the host's state from the metric; near
0 it would put the state in, and the metric should be judged on its raw
value.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import probe_slope, spread  # noqa: E402

#: The one end-to-end metric whose run-to-run spread is not bounded.
UNBOUNDED_SPREAD = {"setup_s"}


def verdict(name: str, rel: float, bound: float) -> str:
    """``ok``, ``unsteady`` (over a third of the bound) or ``FAIL``."""
    if name in UNBOUNDED_SPREAD:
        return "-"
    if rel > bound:
        return "FAIL"
    if rel > bound / 3.0:
        return "unsteady"
    return "ok"


def tracks(runs: list[dict], name: str) -> tuple[float, float] | None:
    """``probe_slope`` of metric ``name`` over the runs' record lines."""
    by = [r["record"]["adjusted_by"].get(name) for r in runs]
    if not all(by):
        return None
    raw = [r["record"]["raw"][name] for r in runs]
    return probe_slope(raw, [b["probe_s"] for b in by], by[0]["power"])


def within(runs: list[dict], name: str) -> float | None:
    """Median over runs of each run's ``state_slope`` of metric ``name``."""
    values = [r["record"]["state_slopes"].get(name) for r in runs]
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def summarize(runs: list[dict], declared: list[dict]) -> list[dict]:
    """One row per declared metric over the ``metrics`` of ``runs``."""
    rows = []
    for metric in declared:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        row = {"name": name, "unit": metric["unit"], "n": len(values),
               **spread(values), "bound": metric["bound"],
               "tracks": tracks(runs, name), "within": within(runs, name)}
        row["verdict"] = verdict(name, row["spread"], row["bound"])
        rows.append(row)
    return rows


def run_once(workload: str, seed: int, seconds: float) -> dict:
    """One untraced run: its result line, with the record line before it
    under ``record``."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["record"] = json.loads(lines[-2])
    result["wall_s"] = wall
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds of BENCHMARK.json")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    declared = spec["end_to_end"]
    runs = []
    for i in range(args.runs):
        result = run_once(args.workload, args.first_seed + i, seconds)
        print(f"run {i + 1}/{args.runs} seed {args.first_seed + i}: "
              f"{result['wall_s']:.1f} s, correct={result['correct']}, "
              f"{result['failed']}/{result['attempted']} failed",
              flush=True)
        runs.append(result)
    rows = summarize(runs, declared)
    print(f"{'metric':34s} {'unit':>8s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'bound':>6s} {'verdict':8s} "
          f"{'tracks':>11s} within")
    for r in rows:
        t = "-" if r["tracks"] is None else "%.2f+-%.2f" % r["tracks"]
        w = "-" if r["within"] is None else f"{r['within']:.2f}"
        print(f"{r['name']:34s} {r['unit']:>8s} {r['median']:12.5g} "
              f"{r['q1']:12.5g} {r['q3']:12.5g} {r['spread']:7.3f} "
              f"{r['bound']:6.2f} {r['verdict']:8s} {t:>11s} {w}")
    for phase in runs[0]["record"]["counts"]["probe_s"]:
        if phase != "nominal":
            s = spread(r["record"]["counts"]["probe_s"][phase] for r in runs)
            print(f"mean probe ({phase}): median over runs "
                  f"{1e6 * s['median']:.2f} us, spread {s['spread']:.3f}")
    bad = [r["name"] for r in rows if r["verdict"] == "FAIL"]
    wrong = [r for r in runs if not r["correct"]]
    if bad or wrong:
        print(f"not steady: {bad}; incorrect runs: {len(wrong)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
