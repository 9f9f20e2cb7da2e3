import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mlmnet


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def central_difference(f, x, h):
    """First derivative of a scalar->scalar map by central differences."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def fd_gradient(f, x, h=1e-6):
    """Gradient of a scalar map on R^n by central differences."""
    x = np.asarray(x, dtype=float)
    grad = np.empty(x.size)
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = h
        grad[j] = (f(x + e) - f(x - e)) / (2.0 * h)
    return grad


def fd_jacobian(f, x, h=1e-6):
    """Jacobian of a vector map on R^n by central differences, column-wise."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = h
        cols.append((f(x + e) - f(x - e)) / (2.0 * h))
    return np.column_stack(cols)


def rel_err(approx, exact):
    """Max elementwise deviation, scaled by the magnitude of `exact`."""
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    return float(np.max(np.abs(approx - exact)) / max(1.0, np.max(np.abs(exact))))


def call_on_one_blas_thread(module, function):
    """Standard output of `print(module.function())` in a child on one BLAS thread.

    With more than one BLAS thread a product depends on the thread count,
    since threads split it at offsets set by its size; bit-identity
    comparisons therefore run in a child process held to one thread.
    `module` is a test module name, importable from this directory.
    """
    return run_on_one_blas_thread(f"import {module}; print({module}.{function}())")


def run_on_one_blas_thread(source):
    """Standard output of the Python `source` run in a fresh child on one BLAS thread.

    The child imports mlmnet from the tested sources and test modules
    from this directory.
    """
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join(
            [str(Path(mlmnet.__file__).parents[1]), str(Path(__file__).parent)]
        ),
    }
    child = subprocess.run(
        [sys.executable, "-c", source],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout.strip()
