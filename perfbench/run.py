"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload cg-solve --seed 1 --seconds 20 --trace 0

Run from the repository root. ``--trace 0`` prints the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` runs the same workload with spans on
every other unit, then the per-layer probes, prints the per-layer
metrics (including the tracing overhead on each end-to-end metric) and
writes the spans to ``.bench_out/``. The last line of standard output is
the result; the exit code is 0 only when every output was correct.
Timings in the result are host-adjusted (see ``workloads.py``); the line
before it holds the raw values, the host record and the sample counts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

if __name__ == "__main__":
    # BLAS threads are fixed when NumPy loads its library, so the pin
    # must come before any import that pulls NumPy in.
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from host import pin_blas_threads

    pin_blas_threads()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _number(value):
    """A JSON number from a Python or NumPy scalar."""
    return value.item() if hasattr(value, "item") else value


def result_line(values: dict, declared: list[dict], oracle) -> dict:
    """The result object, with exactly the declared metrics."""
    names = {m["name"] for m in declared}
    if set(values) != names:
        raise RuntimeError(
            f"measured {sorted(set(values) ^ names)} differ from "
            f"BENCHMARK.json")
    return {
        "correct": oracle.failed == 0,
        "attempted": oracle.attempted,
        "failed": oracle.failed,
        "metrics": {m["name"]: {"value": _number(values[m["name"]]),
                                "unit": m["unit"]} for m in declared},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    from host import host_record

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, traced)
    host = host_record()
    # A count that cannot be read is recorded as unverified; the pin in
    # the environment still applies.
    host["blas_threads_verified"] = host["blas_threads"] is not None
    if host["blas_threads"] not in (None, 1):
        raise RuntimeError(f"BLAS runs {host['blas_threads']} threads")
    workload.run()
    if traced:
        from layers import layer_metrics

        values, probes = layer_metrics(workload, spec["end_to_end"])
        declared = spec["per_layer"]
    else:
        values = workload.metrics()
        probes = {}
        declared = spec["end_to_end"]
    failures = workload.oracle.replay_failures()
    counts = workload.counts()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "threads": {"callers": 1,
                    "pool": workload.nthreads if traced else 0},
        "counts": counts,
        "raw": workload.metrics(adjust=False),
        # Per adjusted metric: its phase's mean probe, and the power
        # of the probe its raw value is taken to follow (see steady.py).
        "adjusted_by": {
            name: {"phase": phase, "power": power,
                   "probe_s": counts["probe_s"][phase]}
            for name, (phase, power) in workloads.ADJUSTED_BY.items()
        },
        "state_slopes": workload.state_slopes(),
        "probes": probes,
        "failures": failures,
    }
    if traced:
        workload.spans.write(
            OUT_DIR / f"spans-{args.workload}-s{args.seed}.json", record)
    print(json.dumps(record, default=str))
    for failure in failures:
        print(f"FAILED {failure['label']}: {failure['problem']} "
              f"({failure['replay']})", file=sys.stderr)
    result = result_line(values, declared, workload.oracle)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # Benchmark the checkout's own sources, never an installed copy.
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import repro from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    if (ROOT / "src") not in Path(repro.__file__).resolve().parents:
        print(f"repro resolves to {repro.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
