"""Pruned tuner search selects exactly what exhaustive search selects.

The pruned strategy skips a candidate only when its roofline lower
bound strictly exceeds an already-measured time, and memoizes compile
infeasibility per options point — both provably selection-preserving.
These tests check that claim empirically over the paper's full
benchmark × precision grid (including the double-precision
register-exhaustion collapse of ``nbody`` and ``2dcon``, Figure 2(b))
and over hypothesis-drawn scales and seeds.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import PAPER_ORDER, Precision, create, perf
from repro.optimizations.autotune import sweep
from tests.pricing_oracle import scalar_pricing

GRID = [
    (name, precision)
    for name in PAPER_ORDER
    for precision in (Precision.SINGLE, Precision.DOUBLE)
]


def assert_equivalent(bench):
    exhaustive = sweep(bench, strategy="exhaustive")
    pruned = sweep(bench, strategy="pruned")

    # identical candidate list, in the same canonical order
    assert [(t.options, t.local_size) for t in pruned.trials] == [
        (t.options, t.local_size) for t in exhaustive.trials
    ]
    # identical infeasibility verdicts (the DP collapse must reproduce
    # unchanged under pruning: a skipped trial is never an infeasible one)
    assert pruned.n_infeasible == exhaustive.n_infeasible
    for p, e in zip(pruned.trials, exhaustive.trials):
        assert (p.error is not None) == (e.error is not None)
        if not p.skipped:
            assert p.seconds == e.seconds

    best_p, best_e = pruned.best, exhaustive.best
    if best_e is None:
        assert best_p is None
    else:
        assert best_p is not None
        assert best_p.options == best_e.options
        assert best_p.local_size == best_e.local_size
        assert best_p.seconds == best_e.seconds
    return exhaustive, pruned


@pytest.mark.parametrize("name,precision", GRID, ids=lambda v: getattr(v, "value", v))
def test_pruned_matches_exhaustive_on_paper_grid(name, precision):
    bench = create(name, precision=precision, scale=0.25)
    assert_equivalent(bench)


def test_dp_register_exhaustion_survives_pruning():
    """Figure 2(b): the DP infeasible points stay infeasible — and the
    tuner still falls back to a near-naive winner — under pruning."""
    for name in ("nbody", "2dcon"):
        bench = create(name, precision=Precision.DOUBLE, scale=0.25)
        exhaustive, pruned = assert_equivalent(bench)
        assert pruned.n_infeasible > 0
        assert pruned.best is not None


def test_pruning_actually_prunes():
    """On the big SP spaces the bound must pay for itself (this guards
    against the bound silently degenerating to never-skip)."""
    skipped = 0
    for name in ("dmmm", "2dcon", "amcd"):
        bench = create(name, precision=Precision.SINGLE, scale=0.25)
        skipped += sweep(bench, strategy="pruned").n_skipped
    assert skipped > 0


def test_scalar_lane_selects_identically():
    """With every launch priced through the scalar references of
    ``tests/pricing_oracle.py`` the tuner produces the same timings and
    picks the same winner as through the stack-backed pricers."""
    for name in ("vecop", "red"):
        bench = create(name, precision=Precision.SINGLE, scale=0.1)
        batched = sweep(bench, strategy="pruned")
        with scalar_pricing():
            scalar = sweep(bench, strategy="pruned")
        priced = lambda r: [
            (t.options, t.local_size, t.seconds, t.error is not None)
            for t in r.trials
            if not t.skipped
        ]
        assert priced(scalar) == priced(batched)
        assert scalar.best.options == batched.best.options
        assert scalar.best.local_size == batched.best.local_size
        assert scalar.best.seconds == batched.best.seconds


@given(
    name=st.sampled_from(PAPER_ORDER),
    precision=st.sampled_from([Precision.SINGLE, Precision.DOUBLE]),
    scale=st.sampled_from([0.05, 0.1, 0.3, 0.7, 1.0]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=25, deadline=None)
def test_equivalence_across_scales_and_seeds(name, precision, scale, seed):
    # a cold lane each example: memoized compiles are shared between the
    # two sweeps inside assert_equivalent, which is exactly production
    # behaviour, but examples must not leak state into each other
    perf.reset()
    bench = create(name, precision=precision, scale=scale, seed=seed)
    assert_equivalent(bench)
