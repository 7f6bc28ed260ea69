"""Statistical properties of the generated datasets.

The models consume *measured* dataset statistics (spmv's row-length CV,
hist's hot-bucket mass); these tests pin that the generators actually
produce distributions with the documented properties, across seeds.
"""

import numpy as np
import pytest

from repro.benchmarks import Precision, create


class TestSpmvMatrix:
    @pytest.mark.parametrize("seed", [1, 7, 1234])
    def test_row_lengths_lognormal_ragged(self, seed):
        bench = create("spmv", scale=0.1, seed=seed)
        lengths = bench.row_lengths
        assert lengths.min() >= 1
        assert 0.6 < bench.imbalance_cv < 2.0  # sigma=0.9 log-normal
        # mean near the documented 24 nnz/row
        assert 15 < lengths.mean() < 40

    def test_no_duplicate_columns_within_row(self):
        bench = create("spmv", scale=0.05, seed=3)
        for row in range(0, bench.rows, max(bench.rows // 50, 1)):
            cols = bench.indices[bench.indptr[row] : bench.indptr[row + 1]]
            assert len(cols) == len(np.unique(cols))

    def test_matrix_matches_nnz(self):
        bench = create("spmv", scale=0.05)
        assert len(bench.indices) == len(bench.data) == bench.indptr[-1] == bench.nnz


class TestHistValues:
    @pytest.mark.parametrize("seed", [1, 42])
    def test_beta_distribution_range_and_skew(self, seed):
        bench = create("hist", scale=0.1, seed=seed)
        assert bench.values.min() >= 0.0 and bench.values.max() < 1.0
        # beta(2,3): mean 0.4
        assert 0.35 < float(bench.values.mean()) < 0.45

    def test_hot_fraction_above_uniform(self):
        bench = create("hist", scale=0.1)
        uniform_mass = 1.0 / bench.BUCKETS
        assert bench.hot_fraction > 1.5 * uniform_mass

    def test_reference_counts_sum_to_n(self):
        bench = create("hist", scale=0.05)
        assert int(bench.reference_result().sum()) == bench.n


class TestNbodyBodies:
    def test_masses_positive(self):
        bench = create("nbody", scale=0.1)
        assert (bench.bodies[:, 3] > 0).all()

    def test_momentum_scale_modest(self):
        bench = create("nbody", scale=0.1)
        speeds = np.linalg.norm(bench.bodies[:, 4:7], axis=1)
        assert float(speeds.mean()) < 0.5  # gentle initial velocities

    def test_step_conserves_body_count_and_finiteness(self):
        bench = create("nbody", scale=0.05)
        out = bench.run_numpy()
        assert out.shape == bench.bodies.shape
        assert np.isfinite(out).all()


class TestAmcdChains:
    def test_seeds_unique_and_nonzero(self):
        bench = create("amcd", scale=0.1)
        assert (bench.seeds > 0).all()
        assert len(np.unique(bench.seeds)) > 0.99 * bench.chains

    def test_acceptance_rate_measured_and_fed_to_ir(self):
        """The IR's divergent-branch probability is the *measured*
        Metropolis acceptance of the actual chains."""
        from repro.compiler.options import NAIVE
        from repro.ir import Branch, walk_stmts

        bench = create("amcd", scale=0.1)
        assert 0.5 < bench.acceptance_rate < 0.95
        branches = [
            s for s in walk_stmts(bench.kernel_ir(NAIVE).body) if isinstance(s, Branch)
        ]
        assert branches[0].taken_prob == pytest.approx(bench.acceptance_rate)

    def test_lcg_is_full_32bit(self):
        from repro.benchmarks.amcd import lcg_next

        state = np.array([1], dtype=np.uint64)
        seen = set()
        for _ in range(1000):
            state = lcg_next(state)
            seen.add(int(state[0]))
        assert len(seen) == 1000  # no short cycles at this scale


class TestConvAndGrid:
    def test_filter_normalized(self):
        bench = create("2dcon", scale=0.05)
        assert float(bench.filter.sum()) == pytest.approx(1.0, rel=1e-5)

    def test_stencil_grid_cubic(self):
        bench = create("3dstc", scale=0.05)
        assert bench.grid.shape == (bench.dim,) * 3

    def test_dmmm_matrices_square(self):
        bench = create("dmmm", scale=0.05)
        assert bench.A.shape == bench.B.shape == (bench.n, bench.n)

    def test_dtype_follows_precision(self):
        assert create("vecop", scale=0.02).a.dtype == np.float32
        assert create("vecop", precision=Precision.DOUBLE, scale=0.02).a.dtype == np.float64
