import multiprocessing as mp

import pytest

from paleylab import _blas

pytestmark = pytest.mark.skipif(_blas.openblas() is None, reason="numpy has no bundled OpenBLAS")


def blas_threads(_=None) -> int:
    return _blas.openblas().scipy_openblas_get_num_threads64_()


def test_import_pins_one_blas_thread():
    assert blas_threads() == 1


def test_spawned_worker_pins_one_blas_thread():
    # a campaign worker starts from a fresh interpreter and imports paleylab
    with mp.get_context("spawn").Pool(1) as pool:
        assert pool.map(blas_threads, [0]) == [1]
