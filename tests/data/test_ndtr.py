"""The numpy port of Cephes ``ndtr`` against ``scipy.special.ndtr``.

Span synthesis uses the port so that it needs no scipy; every golden
digest depends on its values, so it must equal scipy's bit for bit.
Values are compared as int64 bit patterns: that tells ``0.0`` from
``-0.0`` and checks NaN's sign too.
"""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from repro.data.generators import _MAXLOG, _SQRT1_2, _ndtr

#: ``|x|`` where the port or Cephes changes formula, with x = a/sqrt(2):
#: Cephes' erf/erfc switch, erfc's own erf fallback, and its P/Q to R/S
#: switch.
X_EDGES = (_SQRT1_2, 1.0, 8.0)


def _around(a: float, ulps: int = 64) -> np.ndarray:
    """The 2 * ulps + 1 consecutive doubles centred on ``a``, and their
    negatives."""
    side = a + np.arange(-ulps, ulps + 1) * np.spacing(a)
    return np.concatenate([side, -side])


def _grid() -> np.ndarray:
    rng = np.random.default_rng(20240601)
    tiny = np.finfo(float).tiny
    subnormal = [5e-324, 2 * 5e-324, tiny / 2, tiny / 2**20, tiny]
    special = [0.0, -0.0, 40.0, -40.0, np.inf, -np.inf, np.nan, -np.nan]
    return np.concatenate(
        [_around(edge / _SQRT1_2) for edge in X_EDGES]
        # erfc underflows to 0 once x * x > MAXLOG.
        + [_around(math.sqrt(_MAXLOG) / _SQRT1_2, ulps=256)]
        + [np.array(special), np.array(subnormal), -np.array(subnormal),
           rng.normal(0.0, 3.0, 100_000), rng.uniform(-40.0, 40.0, 20_000),
           np.linspace(-12.0, 12.0, 24_001)])


def _bits(values: np.ndarray) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


def test_port_equals_scipy_bit_for_bit():
    grid = _grid()
    want = ndtr(grid)
    got = _ndtr(grid.copy())
    mismatched = np.flatnonzero(_bits(got) != _bits(want))
    assert mismatched.size == 0, [
        (grid[i], got[i], want[i]) for i in mismatched[:5]]


def test_grid_reaches_every_branch():
    grid = _grid()
    z = np.abs(grid * _SQRT1_2)
    assert (z < _SQRT1_2).any()
    assert ((_SQRT1_2 <= z) & (z < 1.0)).any()
    assert ((1.0 <= z) & (z < 8.0)).any()
    assert ((8.0 <= z) & (z * z <= _MAXLOG)).any()
    assert (np.isfinite(z) & (z * z > _MAXLOG)).any()
    assert (ndtr(grid[grid < 0]) == 0.0).any()


@pytest.mark.parametrize("size", [0, 1, 22])
def test_shapes_and_input_left_alone(size):
    a = np.linspace(-9.0, 9.0, size)
    before = a.copy()
    got = _ndtr(a)
    assert got.shape == (size,)
    assert np.array_equal(_bits(got), _bits(ndtr(before)))
    assert np.array_equal(_bits(a), _bits(before))


def test_no_floating_point_warnings():
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        _ndtr(_grid())
