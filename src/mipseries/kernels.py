"""Simplex tableau kernels in numpy.

Each kernel is a few whole-array operations, vectorized over rows or columns
but in a row-by-row loop's operation order: the same products, the same
zero-skipping, and sums folded left to right with `np.subtract.reduce` (a
BLAS product would sum in another order).  The tableaus are therefore
bit-identical to the plain loops' (see tests/test_kernels.py).

`eliminate` pivots the tableau with its rhs as the last column,
[B^-1 A | B^-1 b].  When the pivot column has no zero entry, the loop
updates every row but the pivot row, each to row_i - f_i * row_r with f_i
the row's pivot-column entry; so one whole-array update, followed by
writing the pivot row back, does the loop's arithmetic.  A pivot column with
a zero (+0.0 or -0.0) gathers and scatters the rows it does update instead:
x - 0.0 * y is not x when y is infinite or x is -0.0.  The zero test calls
numpy's C `count_nonzero` (`count_nonzero` below), which counts -0.0 as a
zero and NaN as a nonzero, like the public function it stands in for.

Rows and columns are gathered with `ndarray.take`, which makes the same
copy as fancy indexing with less overhead per call (about 0.5 against 1.4
us on a 20 x 47 tableau, numpy 2.4 on an x86-64 VM).

The simplex calls the kernels through a `Kernels` record, so a profiler can
wrap them in one place.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


def _c_count_nonzero() -> Callable:
    """numpy's C `count_nonzero` over a whole array, which skips the public
    function's argument dispatch (0.08 against 0.31 us a call, numpy 2.4 on
    an x86-64 VM); the public `np.count_nonzero` where numpy has no such
    entry point."""
    try:
        from numpy._core.multiarray import count_nonzero
    except ImportError:
        return np.count_nonzero
    return count_nonzero


count_nonzero = _c_count_nonzero()


def eliminate(tab: np.ndarray, r: int, j: int) -> None:
    """Gaussian pivot at (r, j) on the tableau [B^-1 A | B^-1 b]."""
    col = tab[:, j]
    if count_nonzero(col) == len(col):   # -0.0 is a zero too
        prow = tab[r] / col[r]
        tab -= col[:, None] * prow
        tab[r] = prow
        return
    tab[r] /= col[r]
    f = col.copy()
    f[r] = 0.0
    rows = f.nonzero()[0]
    tab[rows] -= f[rows, None] * tab[r]


def accumulate_rowsum(out: np.ndarray, weights: np.ndarray, tab: np.ndarray) -> None:
    """out -= sum_i weights[i] * tab[i], skipping exact-zero weights."""
    rows = weights.nonzero()[0]
    if len(rows) == 0:
        return
    terms = np.empty((len(rows) + 1, tab.shape[1]))
    terms[0] = out
    np.multiply(weights[rows][:, None], tab.take(rows, 0), out=terms[1:])
    np.subtract.reduce(terms, axis=0, out=out)


def subtract_scaled_columns(beta: np.ndarray, tab: np.ndarray,
                            cols: np.ndarray, vals: np.ndarray) -> None:
    """beta -= sum_k vals[k] * tab[:, cols[k]] in column order."""
    if len(cols) == 0:
        return
    terms = np.empty((len(cols) + 1, tab.shape[0]))
    terms[0] = beta
    np.multiply(vals[:, None], tab.take(cols, 1).T, out=terms[1:])
    np.subtract.reduce(terms, axis=0, out=beta)


@dataclass(frozen=True)
class Kernels:
    name: str
    eliminate: Callable
    accumulate_rowsum: Callable
    subtract_scaled_columns: Callable


PYTHON_KERNELS = Kernels("python", eliminate, accumulate_rowsum, subtract_scaled_columns)


def get_kernels(name: str | None = None) -> Kernels:
    """The numpy kernels; `name` may be None or 'python'."""
    if name not in (None, "python"):
        raise ValueError(f"unknown kernel backend {name!r}")
    return PYTHON_KERNELS
