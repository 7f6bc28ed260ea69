"""Benchmark shape vs data: lazy input arrays and a SciPy-free import.

``setup()`` derives only problem sizes and the draws that feed the IR
or the traits; every other input array is drawn on first use.  These
tests pin the split: pricing, tuning and the design-space build never
draw an input, the lazily drawn arrays are bit for bit the arrays the
former eager ``setup()`` drew, and the NumPy replacements for SciPy's
convolution and CSR product compute what they claim.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.benchmarks import BENCHMARKS, PAPER_ORDER, Precision, create
from repro.benchmarks.base import cpu_pricing_inputs
from repro.benchmarks.conv2d import correlate_same
from repro.benchmarks.spmv import csr_matvec
from repro.designspace import DesignSpace
from repro.optimizations.autotune import _candidates, tune

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
        state = bench.rng.bit_generator.state
        cpu_pricing_inputs(bench)
        for options, _ in _candidates(bench, include_naive=True):
            bench.kernel_ir(options)
            bench.gpu_traits(options)
        tune(bench)
        assert _undrawn(bench)
        assert bench.rng.bit_generator.state == state

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
        state = bench.rng.bit_generator.state
        assert bench.filter is not None and bench.image is image
        assert bench.rng.bit_generator.state == state

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


class TestNumpyKernels:
    @pytest.mark.parametrize("shape", [(1, 1), (2, 5), (7, 4), (16, 16)])
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

    def test_csr_matvec_matches_dense_product(self):
        bench = create("spmv", precision=Precision.DOUBLE, scale=0.02, seed=5)
        dense = np.zeros((bench.rows, bench.cols))
        rows = np.repeat(np.arange(bench.rows), bench.row_lengths)
        dense[rows, bench.indices] = bench.data
        got = csr_matvec(bench.data, bench.indices, bench.indptr, bench.x)
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, dense @ bench.x, rtol=1e-12, atol=1e-12)
