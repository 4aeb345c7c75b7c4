"""Small statistics helpers shared by the run and the steadiness check."""

from __future__ import annotations

import math
import statistics

import numpy as np

#: The tail percentile reported as ``call_tail_us``.
TAIL_PERCENTILE = 95.0


def min_samples_for_tail(q: float = TAIL_PERCENTILE, beyond: int = 10) -> int:
    """Samples a window needs so ``beyond`` of them lie above percentile q."""
    return math.ceil(beyond / (1.0 - q / 100.0))


def windowed_tail(windows, q: float = TAIL_PERCENTILE) -> tuple[float, int]:
    """Median over windows of each window's percentile ``q``.

    Only windows with at least ten samples beyond the percentile count.
    Returns ``(value, samples used)``.
    """
    need = min_samples_for_tail(q)
    used = [w for w in windows if len(w) >= need]
    if not used:
        raise ValueError(
            f"no window holds the {need} samples a p{q:g} tail needs"
        )
    value = statistics.median(float(np.percentile(w, q)) for w in used)
    return value, sum(len(w) for w in used)


def spread(values) -> dict:
    """Median, quartiles and the quartile distance as a share of the
    median, with quartiles as ``statistics.quantiles(values, n=4)``."""
    values = [float(v) for v in values]
    med = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = med
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    rel = (q3 - q1) / abs(med) if med else math.inf
    return {"median": med, "q1": q1, "q3": q3, "spread": rel}


def probe_slope(raw, probes, power: int = 1) -> tuple[float, float] | None:
    """How a raw value follows the host probe across runs.

    The least-squares slope of ``log(raw)`` on ``log(probe)``, divided by
    ``power``, and its standard error. 1 means the raw value grows with the
    probe exactly as the host adjustment assumes, so the adjusted value
    does not depend on the host's state; 0 means it ignores the host's
    state, so the adjustment would put the state back in. None when there
    are fewer than four runs or the probe never moved.
    """
    x = np.log(np.asarray(probes, dtype=float))
    y = np.log(np.asarray(raw, dtype=float))
    if x.size < 4 or np.ptp(x) == 0.0:
        return None
    (slope, _), cov = np.polyfit(x, y, 1, cov=True)
    return float(slope / power), float(math.sqrt(cov[0, 0]) / abs(power))


def state_slope(pairs, q: float = 50.0) -> float | None:
    """How samples follow the host probe timed with each, within one run.

    ``pairs`` are ``(seconds, probe)``. The samples are split at their
    median probe; the result is the log ratio of the ``q``-th percentile
    of the slower half's seconds to the faster half's, over the log ratio
    of the halves' median probes. 1 means a sample's time grows with its
    probe as the host adjustment assumes. None when the probe never moved.
    """
    pairs = sorted(pairs, key=lambda pair: pair[1])
    half = len(pairs) // 2
    fast, slow = pairs[:half], pairs[len(pairs) - half:]
    if not fast:
        return None
    probes = math.log(statistics.median(p for _, p in slow)
                      / statistics.median(p for _, p in fast))
    if probes <= 0.0:
        return None
    seconds = math.log(np.percentile([s for s, _ in slow], q)
                       / np.percentile([s for s, _ in fast], q))
    return float(seconds / probes)
