"""Verification compares values: no content hash, no identity memo.

``verify_reference`` is the comparison written out once per benchmark
with nothing memoized and no shortcut taken.  Every benchmark's
``verify`` must agree with it on good, equal, perturbed and NaN-bearing
results, must fail a result whose shape is not the reference's (never
broadcast it), and a whole grid must verify without ever calling
``perf.digest``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import PAPER_ORDER, Precision, create, perf
from repro.experiments import run_grid

#: (rtol, atol) of each tolerance-checked benchmark, per precision; the
#: ``None`` atol means ``rtol * sqrt(n)``
TOLERANCES = {
    "spmv": {Precision.SINGLE: (1e-3, 1e-3), Precision.DOUBLE: (1e-8, 1e-8)},
    "vecop": {Precision.SINGLE: (1e-4, 1e-4), Precision.DOUBLE: (1e-9, 1e-9)},
    "3dstc": {Precision.SINGLE: (1e-4, 1e-4), Precision.DOUBLE: (1e-9, 1e-9)},
    "nbody": {Precision.SINGLE: (2e-3, 2e-3), Precision.DOUBLE: (1e-9, 1e-9)},
    "2dcon": {Precision.SINGLE: (1e-3, 1e-3), Precision.DOUBLE: (1e-9, 1e-9)},
    "dmmm": {Precision.SINGLE: (2e-3, None), Precision.DOUBLE: (1e-9, None)},
}
EXACT = ("hist", "amcd")

GRID_KW = dict(scale=0.05, precisions=(Precision.SINGLE, Precision.DOUBLE))


def verify_reference(bench, result) -> bool:
    """The verdict of ``bench.verify(result)``, computed from scratch."""
    ref = bench.reference_result()
    if result.shape != ref.shape:
        return False
    if bench.name == "red":
        scale = float(np.abs(bench.data).sum()) or 1.0
        tol = (1e-5 if bench.precision is Precision.SINGLE else 1e-12) * scale
        return bool(abs(float(np.ravel(result)[0]) - float(ref[0])) <= tol)
    if bench.name in EXACT:
        return bool(np.array_equal(result, ref))
    rtol, atol = TOLERANCES[bench.name][bench.precision]
    if atol is None:
        atol = float(rtol * np.sqrt(bench.n))
    return bool(np.allclose(result, ref, rtol=rtol, atol=atol))


def perturbed(x: np.ndarray) -> np.ndarray:
    """A copy of ``x`` with its first element far outside any tolerance."""
    out = np.array(x, copy=True)
    flat = out.reshape(-1)
    flat[0] = flat[0] + 1000 * (1 + abs(flat[0]))
    return out


def with_nan(x: np.ndarray) -> np.ndarray:
    """A floating copy of ``x`` whose first element is NaN."""
    out = x.astype(np.result_type(x.dtype, np.float32))
    out.reshape(-1)[0] = np.nan
    return out


def test_every_benchmark_is_covered():
    assert set(TOLERANCES) | set(EXACT) | {"red"} == set(PAPER_ORDER)


@pytest.mark.parametrize("name", PAPER_ORDER)
@pytest.mark.parametrize("precision", (Precision.SINGLE, Precision.DOUBLE))
def test_verdicts_match_the_reference_comparison(name, precision):
    bench = create(name, precision=precision, scale=0.02)
    functional = bench.functional_result()
    cases = {
        "functional": functional,
        "equal copy": np.array(functional, copy=True),
        "perturbed": perturbed(functional),
        "nan": with_nan(functional),
    }
    for label, x in cases.items():
        assert bench.verify(x) == verify_reference(bench, x), label
    assert bench.verify(functional)
    assert not bench.verify(cases["perturbed"])
    assert not bench.verify(cases["nan"])

    # a verdict must not outlive its array: a new array that may reuse
    # the dropped one's id() is compared afresh
    good = np.array(functional, copy=True)
    assert bench.verify(good)
    del good
    bad = perturbed(functional)
    assert not verify_reference(bench, bad)
    assert not bench.verify(bad)


@pytest.mark.parametrize("name", PAPER_ORDER)
@pytest.mark.parametrize("precision", (Precision.SINGLE, Precision.DOUBLE))
def test_a_wrongly_shaped_result_fails(name, precision):
    """Correct values in the wrong shape fail: a leading axis, one
    element too many, the result twice over (red's first element still
    matches) and, for a multi-dimensional result, its flattening."""
    bench = create(name, precision=precision, scale=0.02)
    functional = bench.functional_result()
    flat = functional.reshape(-1)
    cases = {
        "leading axis": functional[None],
        "one element longer": np.append(flat, flat[:1]),
        "twice over": np.concatenate([flat, flat]),
    }
    if functional.ndim > 1:
        cases["flattened"] = flat
    for label, x in cases.items():
        assert not verify_reference(bench, x), label
        assert not bench.verify(x), label
    assert bench.verify(functional)


def test_serial_and_openmp_share_one_verdict():
    from repro.benchmarks.base import Version, run_version

    bench = create("vecop", scale=0.02)
    calls = []
    original = bench.verify
    bench.verify = lambda result: calls.append(1) or original(result)
    assert run_version(bench, version=Version.SERIAL).verified
    assert run_version(bench, version=Version.OPENMP).verified
    assert calls == [1]


@pytest.mark.timeout_guard(300)
def test_grid_verifies_without_hashing(monkeypatch):
    """The full grid, inline and on a two-process pool, never calls
    ``perf.digest``; every ok cell verifies and the rows are unchanged."""
    expected = run_grid(**GRID_KW).to_json()

    def refuse(*parts):
        raise AssertionError("verification hashed a result")

    monkeypatch.setattr(perf, "digest", refuse)
    for jobs in (1, 2):
        perf.reset()
        results = run_grid(jobs=jobs, **GRID_KW)
        assert all(run.verified for run in results.results.values() if run.ok)
        assert results.to_json() == expected, f"jobs={jobs}"
