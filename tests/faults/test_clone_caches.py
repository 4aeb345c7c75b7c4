"""Fault clones must not inherit the source's derived caches.

Formats cache state derived from their arrays the first time it is
needed: the compiled loops' index pair, SELL-C-sigma's row-major
regrouping, a delta matrix's decoded view, the structural fingerprint.
A corrupted clone of a matrix that has already run must behave exactly
like a corrupted clone of one that never ran; otherwise it would
compute on the source's intact caches, return the clean result and
even be served the source's cached plan.
"""

import numpy as np
import pytest

from repro.core import AdaptiveSpMV, matrix_fingerprint
from repro.formats import (
    BCSRMatrix,
    CSRMatrix,
    DecomposedCSR,
    DeltaCSR,
    SellCSigmaMatrix,
)
from repro.guard import (
    STRUCTURAL_FAULTS,
    applicable_faults,
    inject_structural_fault,
)
from repro.machine import KNL

_BUILD = {
    "csr": lambda csr: csr,
    "coo": lambda csr: csr.to_coo(),
    "bcsr": lambda csr: BCSRMatrix.from_csr(csr, block=2),
    "sell-c-sigma": lambda csr: SellCSigmaMatrix.from_csr(csr, chunk=8),
    "delta-csr": DeltaCSR.from_csr,
    "decomposed-csr": DecomposedCSR.from_csr,
}


def _cold_copy(csr: CSRMatrix) -> CSRMatrix:
    """The same matrix over fresh arrays, with every cache empty."""
    return CSRMatrix(csr.rowptr.copy(), csr.colind.copy(),
                     csr.values.copy(), csr.shape)


def _warm(fmt, x, X) -> None:
    """Fill every lazily built cache the format has."""
    fmt.matvec(x)
    fmt.matmat(X)
    if isinstance(fmt, CSRMatrix):
        fmt.rmatvec(x)
        fmt.matvec_compensated(x)
        fmt.row_ids_per_nnz()
        matrix_fingerprint(fmt)


def _outcome(fmt, apply, operand):
    try:
        return apply(fmt, operand)
    except Exception as exc:  # the failure kind is the outcome
        return type(exc)


@pytest.mark.parametrize("kind", STRUCTURAL_FAULTS)
@pytest.mark.parametrize("name", sorted(_BUILD))
def test_clone_of_warm_source_behaves_like_clone_of_cold(
        name, kind, small_random_csr, skewed_csr):
    # The decomposed variant needs a non-trivial long part.
    base = skewed_csr if name == "decomposed-csr" else small_random_csr
    source = _BUILD[name](_cold_copy(base))
    if kind not in applicable_faults(source):
        pytest.skip(f"{kind} does not apply to {name}")
    rng = np.random.default_rng(11)
    x = rng.standard_normal(source.ncols)
    X = rng.standard_normal((source.ncols, 3))

    from_cold = inject_structural_fault(source, kind, seed=5)
    _warm(source, x, X)
    from_warm = inject_structural_fault(source, kind, seed=5)

    for apply, operand in ((type(source).matvec, x),
                           (type(source).matmat, X)):
        cold = _outcome(from_cold, apply, operand)
        warm = _outcome(from_warm, apply, operand)
        if isinstance(cold, np.ndarray):
            assert isinstance(warm, np.ndarray), warm
            np.testing.assert_array_equal(warm, cold)
        else:
            assert warm is cold


@pytest.mark.parametrize("kind", STRUCTURAL_FAULTS)
def test_guarded_optimize_of_corrupted_clone_misses_cache(
        kind, small_random_csr):
    source = _cold_copy(small_random_csr)
    opt = AdaptiveSpMV(KNL, classifier="profile", guard=True)
    opt.optimize(source)
    source.matvec(np.ones(source.ncols))
    assert opt.optimize(source).plan.cache_hit

    bad = inject_structural_fault(source, kind)
    assert matrix_fingerprint(bad) != matrix_fingerprint(source)
    try:
        op = opt.optimize(bad)
    except (ValueError, IndexError, RuntimeWarning):
        pass  # planning may trip over the damage; the lookup came first
    else:
        assert not op.plan.cache_hit
    assert (opt.plan_cache.hits, opt.plan_cache.misses) == (1, 2)
