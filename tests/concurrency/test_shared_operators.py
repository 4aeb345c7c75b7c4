"""Operators served from one plan-cache entry, applied from many threads.

``AdaptiveSpMV.optimize`` hands every operator of one matrix the same
cache entry: the same converted data and the same workspace arena. The
tests here run such operators on several threads at once and check every
output against ``scipy.sparse`` elementwise (within 1e-10 of
``|A| @ |x|``), so a shared scratch buffer or a torn cache entry shows
up as a wrong number, not only as a counter.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core import AdaptiveSpMV
from repro.formats import CSRMatrix
from repro.machine import KNL
from repro.matrices.generators import fem_like, power_law

#: Four threads (more than this host class's two CPUs) x 75 calls.
NTHREADS = 4
CALLS_PER_THREAD = 75


def _wrong(y, S, x) -> bool:
    bound = 1e-10 * (abs(S) @ np.abs(x)) + 1e-300
    return not bool(np.all(np.abs(y - S @ x) <= bound))


def _run_threads(work):
    """Run ``work(tid)`` on ``NTHREADS`` threads released together;
    returns the per-thread results and re-raises the first error."""
    barrier = threading.Barrier(NTHREADS)
    results = [None] * NTHREADS
    errors = []

    def body(tid):
        try:
            barrier.wait(timeout=60)
            results[tid] = work(tid)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    # A short switch interval interleaves the threads' Python steps
    # finely, so races show up in a few hundred calls.
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=body, args=(t,))
                   for t in range(NTHREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads), "a worker hung"
    if errors:
        raise errors[0]
    return results


@pytest.mark.parametrize("matrix,kernel_tag", [
    (lambda: fem_like(8192), "unroll"),
    (lambda: power_law(8192, avg_deg=10), "split"),
], ids=["fem_like-8192", "power_law-8192-split"])
def test_two_operators_of_one_entry_on_many_threads(matrix, kernel_tag):
    csr = matrix()
    S = csr.to_scipy()
    opt = AdaptiveSpMV(KNL)
    ops = [opt.optimize(csr), opt.optimize(csr)]
    # Both operators come from one cache entry: same data, same arena.
    assert ops[0].data is ops[1].data
    assert ops[0].workspace is ops[1].workspace
    assert kernel_tag in ops[0].kernel.name

    def work(tid):
        rng = np.random.default_rng(100 + tid)
        op = ops[tid % 2]
        wrong = 0
        for _ in range(CALLS_PER_THREAD):
            x = rng.standard_normal(csr.ncols)
            wrong += _wrong(op.matvec(x), S, x)
        return wrong

    assert _run_threads(work) == [0] * NTHREADS


def test_revalued_entry_serves_each_caller_its_own_values():
    """Threads alternate two value sets of one structure: every
    ``optimize()`` is a new-values hit that replaces the entry, and a
    concurrent hit must never pair one matrix's data with the other
    matrix's digest."""
    base = power_law(2048, avg_deg=10)
    mats = [base, CSRMatrix(base.rowptr, base.colind, base.values * -3.0,
                            base.shape, trusted=True)]
    scipys = [m.to_scipy() for m in mats]
    opt = AdaptiveSpMV(KNL)
    opt.optimize(mats[0])

    def work(tid):
        rng = np.random.default_rng(200 + tid)
        wrong = 0
        for i in range(CALLS_PER_THREAD):
            which = (i + tid) % 2
            op = opt.optimize(mats[which])
            x = rng.standard_normal(base.ncols)
            wrong += _wrong(op.matvec(x), scipys[which], x)
        return wrong

    assert _run_threads(work) == [0] * NTHREADS


def test_new_values_replace_the_entry_instead_of_mutating_it():
    """The invariant behind the test above, checked without threads: a
    live entry is never written field by field, so no reader can see
    one matrix's data next to another matrix's digest."""
    base = power_law(512, avg_deg=10)
    other = CSRMatrix(base.rowptr, base.colind, base.values * 2.0,
                      base.shape, trusted=True)
    opt = AdaptiveSpMV(KNL)
    opt.optimize(base)
    ((key, first),) = opt.plan_cache._entries.items()
    before = (first.data, first.values_digest)
    op = opt.optimize(other)
    assert (first.data, first.values_digest) == before
    second = opt.plan_cache._entries[key]
    assert second is not first
    assert second.data is op.data
    assert second.workspace is first.workspace
