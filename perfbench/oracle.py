"""Output oracle: every apply against SciPy, every solve by its residual.

Each checked operation counts as attempted; each wrong result (or
exception) counts as failed. After the run, every failure is replayed on
its own, so a deterministic error (fails again) can be told from a
transient one (passes alone).
"""

from __future__ import annotations

import traceback

import numpy as np

#: Elementwise tolerance of an apply, relative to ``(|A| |x|)_i``: the
#: rounding bound of a reordered row sum is ``nnz_row * eps`` times that,
#: far below this for every matrix the benchmark builds.
APPLY_RTOL = 1e-10

#: A solve's true residual may exceed the solver's recurrence residual
#: by rounding; it must stay within this multiple of the target.
SOLVE_SLACK = 10.0


def apply_error(y, ref: np.ndarray, bound: np.ndarray,
                rtol: float = APPLY_RTOL) -> str | None:
    """Why ``y`` is not ``ref`` within ``rtol * bound``, or None."""
    y = np.asarray(y)
    if y.shape != ref.shape:
        return f"shape {y.shape} != {ref.shape}"
    if not np.isfinite(y).all():
        return "non-finite output"
    err = np.abs(y - ref)
    worst = float(np.max(err - rtol * bound)) if err.size else 0.0
    if worst > 0.0:
        idx = tuple(int(i) for i in np.unravel_index(
            int(np.argmax(err - rtol * bound)), err.shape))
        return (f"|y-ref| = {float(err[idx]):.3e} exceeds "
                f"{rtol:g} * {float(bound[idx]):.3e} at {idx}")
    return None


def solve_error(A, b: np.ndarray, result, rtol: float,
                expected_iterations: int | None) -> str | None:
    """Why a CG result is not a solution of ``A x = b``, or None."""
    if not result.converged:
        return f"not converged after {result.iterations} iterations"
    x = np.asarray(result.x)
    if not np.isfinite(x).all():
        return "non-finite solution"
    true = float(np.linalg.norm(b - A @ x) / np.linalg.norm(b))
    if true > SOLVE_SLACK * rtol:
        return f"true residual {true:.3e} > {SOLVE_SLACK:g} * {rtol:g}"
    if (expected_iterations is not None
            and result.iterations != expected_iterations):
        return (f"{result.iterations} iterations, expected "
                f"{expected_iterations}")
    return None


class Oracle:
    """Counts checked operations and keeps each failure for replay."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[dict] = []
        self._replays: list = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, label: str, problem: str | None, replay) -> bool:
        """Count one checked operation; ``replay()`` re-runs it alone and
        returns its problem (None when it now passes)."""
        self.attempted += 1
        if problem is None:
            return True
        self.failures.append({"label": label, "problem": problem})
        self._replays.append(replay)
        return False

    def run(self, label: str, operation, replay) -> bool:
        """Run ``operation()`` (returns a problem or None), counting an
        exception as a failure with its traceback."""
        try:
            problem = operation()
        except Exception as exc:  # a failed request, not a crashed run
            problem = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
        return self.record(label, problem, replay)

    def replay_failures(self) -> list[dict]:
        """Replay every failure alone; mark it deterministic or transient."""
        for failure, replay in zip(self.failures, self._replays):
            try:
                again = replay()
            except Exception as exc:
                again = f"{type(exc).__name__}: {exc}"
            failure["replay"] = "deterministic" if again else "transient"
            failure["replay_problem"] = again
        return self.failures
