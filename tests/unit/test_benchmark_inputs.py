"""Benchmark shape vs data: lazy input arrays and a SciPy-free import.

``setup()`` derives only problem sizes and the draws that feed the IR
or the traits; every other input array is drawn on first use.  These
tests pin the split: pricing, tuning and the design-space build never
draw an input, the lazily drawn arrays are bit for bit the arrays the
former eager ``setup()`` drew, and the NumPy replacements for SciPy's
convolution and CSR product compute what they claim.  The host numerics
that work in blocks (hist's counts, 2dcon's bands, 3dstc's in-place
sum) are checked bit for bit against whole-array oracles, at lengths
and heights that cross a block seam.  They also pin the
family draw record: the precisions of one (benchmark, scale, seed) share
one read-only draw, in one order, forgotten after its last reader.
"""

from __future__ import annotations

import gc
import hashlib
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.benchmarks import BENCHMARKS, PAPER_ORDER, Draws, Precision, create
from repro.benchmarks.base import cpu_pricing_inputs
from repro.benchmarks.common import BLOCK
from repro.benchmarks.conv2d import correlate_same
from repro.benchmarks.hist import bucket_counts
from repro.benchmarks.spmv import csr_matvec
from repro.benchmarks.vecop import VecOp
from repro.designspace import DesignSpace
from repro.errors import ReproError
from repro.optimizations.autotune import candidates, tune

SRC = Path(__file__).resolve().parents[2] / "src"

#: (benchmark, precision, array) -> (dtype, shape, SHA-256 of the bytes)
#: as the eager ``setup()`` drew them, at scale 0.05 and the seed below
EAGER_DIGESTS = {
    ("vecop", "single", "a"): ("float32", (209715,), "03c00abce178688aab031e5033fcfea6b6c9d9a3ee74b571b3edb421aeae20cf"),
    ("vecop", "single", "b"): ("float32", (209715,), "a961cd15b97db420b841dc5078aa3106830fe1ae745dfeb2c390685fea73c772"),
    ("vecop", "double", "a"): ("float64", (209715,), "2deca0acdd9db9c02d270ffbab6a67ff676dca06956720c82a476c8f8c6ff90c"),
    ("vecop", "double", "b"): ("float64", (209715,), "eb37e2a2f8c874a4a89d03d8f56d522593435f9ad21d147b6706b541c35860f3"),
    ("red", "single", "data"): ("float32", (419430,), "105a0232b186183a32ef2ff5f807604c2c6904468a3d8e27f56397e33ec6432d"),
    ("red", "double", "data"): ("float64", (419430,), "c10b393204522fdc279ac01a66be6ac8103879d6f172ef9a78ced7e1da1e5812"),
    ("3dstc", "single", "grid"): ("float32", (35, 35, 35), "e8bca104cb654e91396acb822e89e793bc1f1aacc1477a599c7a88bcf380fd32"),
    ("3dstc", "double", "grid"): ("float64", (35, 35, 35), "d9d175fa486da6305b92abc94c57be1af53c0ae322edffd8912d0a3b33bac214"),
    ("dmmm", "single", "A"): ("float32", (188, 188), "f75cc62d14993f248831197eb7e65b36b1b3a05a2166faf76e48e15d475ea6e1"),
    ("dmmm", "single", "B"): ("float32", (188, 188), "af7bc8568547c65925cae4bacab21a1dbdf5bd9d4f7b1da18a4905edcb0986a6"),
    ("dmmm", "double", "A"): ("float64", (188, 188), "1f4b3b67a3f32e1a199fe1d133295046610e6985fe8fb973028d448c6f790647"),
    ("dmmm", "double", "B"): ("float64", (188, 188), "b8dcbdd17c442aa08eba5b5c29f29e6d6bba9180577f11539345c8e44ecd2903"),
    ("nbody", "single", "bodies"): ("float32", (457, 8), "8facac991b0f7b76c94c44ef5ea0e84007fa589983343f99ce347d09ae6dcfd8"),
    ("nbody", "double", "bodies"): ("float64", (457, 8), "3554d3c8e56e1758af8822e837e83afafacb16e4cc0642b3bac778ec480bb560"),
    ("2dcon", "single", "image"): ("float32", (343, 343), "382df43939d2a94b436585ba0c8a65be860be8936273cb17c0305007572ad743"),
    ("2dcon", "single", "filter"): ("float32", (3, 3), "30b4b6e66cf795f9eab94507aeb25ba2515a05ff02ca7eb61c4527db64bde148"),
    ("2dcon", "double", "image"): ("float64", (343, 343), "f121b137f3a15ae98c9e58aa003928bcff223a52233193ca3deb0d9d7961aa45"),
    ("2dcon", "double", "filter"): ("float64", (3, 3), "c70a1a9837b900b19c3b147c9ef7c990e7ebce7a1bc021cbc84677c56006bd96"),
    ("spmv", "single", "row_lengths"): ("int64", (1638,), "cd0be085b1ac0a0ef40176e3d4fb9c0be21972370ba3a7d16b3fe46663b746ef"),
    ("spmv", "double", "row_lengths"): ("int64", (1638,), "cd0be085b1ac0a0ef40176e3d4fb9c0be21972370ba3a7d16b3fe46663b746ef"),
}
SEEDS = {"vecop": 11, "red": 12, "3dstc": 13, "dmmm": 14, "nbody": 15, "2dcon": 16, "spmv": 17}


def _undrawn(bench) -> bool:
    return not set(type(bench).lazy_inputs) & set(vars(bench))


def _assert_eager_digests(bench) -> None:
    """Every ``EAGER_DIGESTS`` entry of ``bench``'s benchmark and precision."""
    for (name, precision, attr), (dtype, shape, digest) in EAGER_DIGESTS.items():
        if (name, precision) == (bench.name, bench.precision.value):
            arr = getattr(bench, attr)
            assert (str(arr.dtype), arr.shape) == (dtype, shape)
            assert hashlib.sha256(arr.tobytes()).hexdigest() == digest, (name, precision, attr)


def test_import_repro_leaves_scipy_unloaded():
    code = "import sys, repro; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


class TestShapeOnlyPaths:
    @pytest.mark.parametrize("precision", list(Precision))
    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_pricing_and_tuning_draw_no_input(self, name, precision):
        bench = create(name, precision=precision, scale=0.05)
        state = bench.draws.rng.bit_generator.state
        cpu_pricing_inputs(bench)
        for options, _ in candidates(bench, include_naive=True):
            bench.kernel_ir(options)
            bench.gpu_traits(options)
        tune(bench)
        assert _undrawn(bench)
        assert bench.draws.rng.bit_generator.state == state

    def test_design_space_build_draws_no_input(self, monkeypatch):
        def refuse(bench):
            raise AssertionError(f"{bench.name} drew its inputs")

        for cls in BENCHMARKS.values():
            monkeypatch.setattr(cls, "draw_inputs", refuse)
        space = DesignSpace(scale=0.05)
        assert len(space.groups) == 2 * len(PAPER_ORDER)

    def test_first_use_draws_every_lazy_input_once(self):
        bench = create("2dcon", scale=0.05)
        image = bench.image
        assert set(bench.lazy_inputs) <= set(vars(bench))
        state = bench.draws.rng.bit_generator.state
        assert bench.filter is not None and bench.image is image
        assert bench.draws.rng.bit_generator.state == state

    def test_unknown_attribute_still_raises(self):
        bench = create("vecop", scale=0.02)
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            bench.nope
        assert _undrawn(bench)


class TestLazyInputsMatchEagerDraws:
    @pytest.mark.parametrize(
        "key", sorted(EAGER_DIGESTS), ids=lambda key: "-".join(key)
    )
    def test_digest(self, key):
        name, precision, attr = key
        bench = create(name, precision=Precision(precision), scale=0.05, seed=SEEDS[name])
        arr = getattr(bench, attr)
        dtype, shape, digest = EAGER_DIGESTS[key]
        assert (str(arr.dtype), arr.shape) == (dtype, shape)
        assert hashlib.sha256(arr.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("precision", list(Precision))
    def test_spmv_columns_distinct_within_every_row(self, precision):
        bench = create("spmv", precision=precision, scale=0.05, seed=SEEDS["spmv"])
        assert bench.indices.dtype == np.int32 and bench.indptr.dtype == np.int32
        assert np.array_equal(np.diff(bench.indptr), bench.row_lengths)
        assert bench.indices.min() >= 0 and bench.indices.max() < bench.cols
        for row in range(bench.rows):
            cols = bench.indices[bench.indptr[row] : bench.indptr[row + 1]]
            assert len(np.unique(cols)) == len(cols)


class _SwappedVecOp(VecOp):
    """vecop whose double instance draws ``b`` before ``a``."""

    def draw_inputs(self):
        names = ("a", "b") if self.precision is Precision.SINGLE else ("b", "a")
        return {name: self.take(name, lambda rng: rng.random(self.n)) for name in names}


class _ExtraDrawVecOp(VecOp):
    """vecop whose double instance draws an extra input between ``a`` and ``b``."""

    def draw_inputs(self):
        names = ("a", "b") if self.precision is Precision.SINGLE else ("a", "noise", "b")
        return {name: self.take(name, lambda rng: rng.random(self.n)) for name in names}


class TestFamilyDraws:
    """One family, one draw: the precisions of a (benchmark, scale, seed)
    share each input array instead of drawing it again."""

    @pytest.mark.parametrize("first", list(Precision), ids=lambda p: p.label)
    @pytest.mark.parametrize("name", sorted(SEEDS))
    def test_shared_record_keeps_eager_digests(self, name, first):
        draws = Draws(SEEDS[name], readers=2)
        order = [first, *(p for p in Precision if p is not first)]
        benches = [
            create(name, precision=p, scale=0.05, seed=SEEDS[name], draws=draws) for p in order
        ]
        for bench in benches:  # the first-created instance draws first
            _assert_eager_digests(bench)

    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_sibling_after_first_drew_takes_without_drawing(self, name):
        seed = SEEDS.get(name, 1234)
        draws = Draws(seed, readers=2)
        sp = create(name, precision=Precision.SINGLE, scale=0.05, seed=seed, draws=draws)
        for attr in sp.lazy_inputs:
            getattr(sp, attr)
        state = draws.rng.bit_generator.state
        dp = create(name, precision=Precision.DOUBLE, scale=0.05, seed=seed, draws=draws)
        for attr in dp.lazy_inputs:
            getattr(dp, attr)
        assert draws.rng.bit_generator.state == state
        _assert_eager_digests(dp)
        alone = create(name, precision=Precision.DOUBLE, scale=0.05, seed=seed)
        for attr in ("hot_fraction", "acceptance_rate", "row_lengths", *dp.lazy_inputs):
            if hasattr(alone, attr):
                assert np.array_equal(getattr(dp, attr), getattr(alone, attr)), attr

    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_handed_out_arrays_are_read_only(self, name, monkeypatch):
        handed = []
        take = Draws.take

        def spy(self, *args):
            array = take(self, *args)
            handed.append(array)
            return array

        monkeypatch.setattr(Draws, "take", spy)
        draws = Draws(1234, readers=2)
        for precision in Precision:
            bench = create(name, precision=precision, scale=0.05, draws=draws)
            for attr in bench.lazy_inputs:
                getattr(bench, attr)
        assert handed
        for array in handed:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        if bench.lazy_inputs:  # the double instance holds the family's arrays
            with pytest.raises(ValueError, match="read-only"):
                getattr(bench, bench.lazy_inputs[0])[...] = 0

    @pytest.mark.parametrize("first", list(Precision), ids=lambda p: p.label)
    @pytest.mark.parametrize("cls", [_SwappedVecOp, _ExtraDrawVecOp])
    def test_precision_dependent_draw_order_raises(self, cls, first):
        draws = Draws(3, readers=2)
        order = [first, *(p for p in Precision if p is not first)]
        benches = [cls(precision=p, scale=0.02, seed=3, draws=draws) for p in order]
        benches[0].a
        with pytest.raises(ReproError, match="same order"):
            benches[1].a

    def test_record_forgets_an_array_after_its_last_reader(self):
        draws = Draws(5, readers=2)
        sp = create("vecop", precision=Precision.SINGLE, scale=0.02, seed=5, draws=draws)
        dp = create("vecop", precision=Precision.DOUBLE, scale=0.02, seed=5, draws=draws)
        sp.a
        wide = weakref.ref(dp.a)  # the double instance holds the drawn float64 array
        assert sp.a.dtype == np.float32 and wide().dtype == np.float64
        del sp
        gc.collect()
        assert wide() is not None
        del dp
        gc.collect()
        assert wide() is None and draws.readers == 2

    def test_one_reader_record_keeps_nothing(self):
        draws = Draws(5)
        drawn = draws.take("x", lambda rng: rng.random(16), 0)
        ref = weakref.ref(drawn)
        del drawn
        gc.collect()
        assert ref() is None
        with pytest.raises(ReproError, match="more often"):
            draws.take("x", lambda rng: rng.random(16), 0)

    def test_failed_draw_leaves_the_generator_where_it_was(self):
        draws = Draws(7)

        def broken(rng):
            rng.random(100)
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError):
            draws.take("x", broken, 0)
        got = draws.take("x", lambda rng: rng.random(4), 0)
        assert np.array_equal(got, np.random.default_rng(7).random(4))

    def test_record_of_another_seed_is_refused(self):
        with pytest.raises(ValueError, match="seed"):
            create("vecop", scale=0.02, seed=2, draws=Draws(1))


def whole_array_counts(values: np.ndarray, buckets: int = 256) -> np.ndarray:
    """hist's bucket counts over the whole array at once, as before blocks."""
    idx = np.minimum((values * buckets).astype(np.int64), buckets - 1)
    return np.bincount(idx, minlength=buckets)


def stencil_expression(g: np.ndarray, c0: float, c1: float) -> np.ndarray:
    """3dstc's stencil as one expression, as before the in-place sum."""
    out = np.array(g, copy=True)
    c0 = g.dtype.type(c0)
    c1 = g.dtype.type(c1)
    inner = (slice(1, -1),) * 3
    out[inner] = c0 * g[inner] + c1 * (
        g[2:, 1:-1, 1:-1]
        + g[:-2, 1:-1, 1:-1]
        + g[1:-1, 2:, 1:-1]
        + g[1:-1, :-2, 1:-1]
        + g[1:-1, 1:-1, 2:]
        + g[1:-1, 1:-1, :-2]
    )
    return out


class TestNumpyKernels:
    #: the last two heights cross one and two seams of 3-row bands
    @pytest.mark.parametrize(
        "shape", [(1, 1), (2, 5), (7, 4), (16, 16), (4, BLOCK // 4 + 1), (7, BLOCK // 4 + 1)]
    )
    def test_correlate_matches_brute_force_with_borders(self, shape):
        rng = np.random.default_rng(sum(shape))
        image = rng.standard_normal(shape).astype(np.float32)
        filt = rng.random((3, 3))
        h, w = shape
        want = np.zeros(shape)
        for i in range(h):
            for j in range(w):
                acc = 0.0  # last tap first, the documented order
                for u in (2, 1, 0):
                    for v in (2, 1, 0):
                        y, x = i + u - 1, j + v - 1
                        if 0 <= y < h and 0 <= x < w:
                            acc += float(filt[u, v]) * float(image[y, x])
                want[i, j] = acc
        assert np.array_equal(correlate_same(image, filt), want)
        # a single-precision result rounds each float64 sum once
        single = correlate_same(image, filt, np.float32)
        assert single.dtype == np.float32
        assert single.tobytes() == want.astype(np.float32).tobytes()

    @pytest.mark.parametrize("precision", (Precision.SINGLE, Precision.DOUBLE))
    def test_hist_block_counts_match_a_whole_array_bincount(self, precision):
        """Set-up's count, the functional run, its ``np.histogram``
        reference and both kernel functions count every bucket as one
        whole-array ``bincount`` does, over a length that is no multiple
        of ``BLOCK`` and float32 values that round to 1.0."""
        rng = np.random.default_rng(3)
        raw = rng.beta(2.0, 3.0, size=3 * BLOCK + 77)
        raw[::997] = np.nextafter(1.0, 0.0)  # 1.0 once cast to float32
        raw[5::1009] = np.arange(256)[: len(raw[5::1009])] / 256  # bucket edges
        raw[7] = 0.0
        bench = create("hist", precision=precision, scale=0.02)
        values = raw.astype(bench.ftype)
        bench.values, bench.n = values, len(values)
        assert (values == 1.0).any() == (precision is Precision.SINGLE)
        want = whole_array_counts(values)

        assert np.array_equal(bucket_counts(raw, 256), whole_array_counts(raw))
        assert np.array_equal(bench.run_numpy(), want)
        assert np.array_equal(bench.reference_result(), want)
        kernel, merge = bench._main_func(), bench._merge_func()
        bins = np.zeros(256, dtype=np.uint32)
        kernel(values, bins)
        assert np.array_equal(bins, want)
        partials = np.zeros((bench.PRIVATE_COPIES, 256), dtype=np.uint32)
        kernel(values, partials)
        merge(partials, bins)
        assert np.array_equal(bins, want)

    @pytest.mark.parametrize("precision", (Precision.SINGLE, Precision.DOUBLE))
    def test_stencil_in_place_matches_the_expression(self, precision):
        """The in-place stencil, whose ``c0*center`` term goes one band
        of planes at a time (a (9, 100, 200) volume has bands of three
        of its seven inner planes), rounds as the one expression did."""
        bench = create("3dstc", precision=precision, scale=0.02)
        rng = np.random.default_rng(11)
        shapes = ((5, 7, 9), (9, 100, 200))
        grids = [bench.grid] + [rng.standard_normal(s).astype(bench.ftype) for s in shapes]
        assert BLOCK // (98 * 198) == 3
        for g in grids:
            want = stencil_expression(g, bench.C0, bench.C1)
            assert bench._stencil(g).tobytes() == want.tobytes()
            dst = np.zeros_like(g)
            bench.kernel_func()(g, dst)
            assert dst.tobytes() == want.tobytes()

    def test_csr_matvec_matches_dense_product(self):
        bench = create("spmv", precision=Precision.DOUBLE, scale=0.02, seed=5)
        dense = np.zeros((bench.rows, bench.cols))
        rows = np.repeat(np.arange(bench.rows), bench.row_lengths)
        dense[rows, bench.indices] = bench.data
        got = csr_matvec(bench.data, bench.indices, bench.indptr, bench.x)
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, dense @ bench.x, rtol=1e-12, atol=1e-12)
