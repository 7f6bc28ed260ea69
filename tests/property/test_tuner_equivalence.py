"""The tuner's sweep prices each candidate as a one-shot probe does.

:func:`sweep` holds one ``iteration_pricer`` per options point and
prices every local size through it; a build failure condemns every
local size of its point at once.  Each trial must still be exactly what
``bench.estimate_iteration_seconds(options, local)`` returns or raises
for that candidate — the seconds bit for bit, the error text verbatim —
computed afresh, and :func:`tune` must pick the first
minimum of the trials.  These tests check that over the paper's full
benchmark × precision grid (including the double-precision
register-exhaustion collapse of ``nbody`` and ``2dcon``, Figure 2(b))
and over hypothesis-drawn scales and seeds.  In the test names,
"exhaustive" is the one-at-a-time probe and "pruned" the sweep.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import PAPER_ORDER, Precision, create
from repro.compiler.options import NAIVE
from repro.errors import CLError, CompilerError
from repro.optimizations.autotune import sweep, tune
from tests.pricing_oracle import scalar_pricing

GRID = [
    (name, precision)
    for name in PAPER_ORDER
    for precision in (Precision.SINGLE, Precision.DOUBLE)
]


def probe(bench, options, local_size):
    """(seconds, error text) of one candidate priced on its own."""
    try:
        return bench.estimate_iteration_seconds(options, local_size), None
    except (CompilerError, CLError) as exc:
        return None, str(exc)


def assert_equivalent(bench):
    result = sweep(bench)

    # one trial per distinct candidate, naive baseline last unless listed
    expected = list(dict.fromkeys([*bench.tuning_space(), (NAIVE, None)]))
    assert [(t.options, t.local_size) for t in result.trials] == expected
    for trial in result.trials:
        assert (trial.seconds, trial.error) == probe(bench, trial.options, trial.local_size)

    feasible = [t for t in result.trials if t.feasible]
    assert result.n_evaluated == len(feasible)
    assert result.n_infeasible == len(result.trials) - len(feasible)
    if not feasible:
        assert result.best is None and tune(bench) is None
        return result
    fastest = min(t.seconds for t in feasible)
    first = next(t for t in feasible if t.seconds == fastest)
    assert result.best is first
    assert tune(bench) == (first.options, first.local_size)
    return result


@pytest.mark.parametrize("name,precision", GRID, ids=lambda v: getattr(v, "value", v))
def test_pruned_matches_exhaustive_on_paper_grid(name, precision):
    bench = create(name, precision=precision, scale=0.25)
    assert_equivalent(bench)


def test_dp_register_exhaustion_survives_pruning():
    """Figure 2(b): the DP aggressive points fail to build, and the
    tuner still falls back to a near-naive winner."""
    for name in ("nbody", "2dcon"):
        bench = create(name, precision=Precision.DOUBLE, scale=0.25)
        result = assert_equivalent(bench)
        assert result.n_infeasible > 0
        assert result.best is not None


def test_scalar_lane_selects_identically():
    """With every launch priced through the scalar references of
    ``tests/pricing_oracle.py`` the tuner produces the same trials and
    picks the same winner as through the stack-backed pricers."""
    for name in ("vecop", "red"):
        bench = create(name, precision=Precision.SINGLE, scale=0.1)
        batched = sweep(bench)
        with scalar_pricing():
            scalar = sweep(bench)
        assert scalar.trials == batched.trials
        assert scalar.best == batched.best


@given(
    name=st.sampled_from(PAPER_ORDER),
    precision=st.sampled_from([Precision.SINGLE, Precision.DOUBLE]),
    scale=st.sampled_from([0.05, 0.1, 0.3, 0.7, 1.0]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=25, deadline=None)
def test_equivalence_across_scales_and_seeds(name, precision, scale, seed):
    bench = create(name, precision=precision, scale=scale, seed=seed)
    assert_equivalent(bench)
