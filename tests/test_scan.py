import math

import numpy as np
import pytest

from warpdirac.errors import ConfigurationError
from warpdirac.scan import (BLOCK, DEFAULT_SCAN_POLICY, InfimumScanPolicy, ScanExtremum,
                            _golden_lanes, _grid_minima, scan_infima, scan_infimum, scan_supremum)

POLICY = DEFAULT_SCAN_POLICY


def _fill(r, fs):
    """Block filler for functionals given as callables of r."""
    def fill(lo, hi, first, out):
        for k, f in enumerate(fs[first:first + len(out)]):
            out[k] = f(r[lo:hi])
    return fill


def test_constant_function():
    res = scan_infimum(lambda r: np.full_like(r, 2.5), POLICY, 2.5, 2.5)
    assert res == ScanExtremum(2.5, float(POLICY.grid()[0]))  # the grid minimum wins ties


def test_interior_minimum_refined():
    # min of (log r)^2 + 1 at r = 1, exactly 1; it grows without bound at both ends
    res = scan_infimum(lambda r: np.log(r) ** 2 + 1.0, POLICY, math.inf, math.inf)
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.arg_r == pytest.approx(1.0, rel=1e-6)


def test_limits_can_win():
    res = scan_infimum(lambda r: 1.0 / (1.0 + r), POLICY, 1.0, 0.0)
    assert res.value == 0.0
    assert math.isinf(res.arg_r)
    res0 = scan_infimum(lambda r: r / (1.0 + r), POLICY, 0.0, 1.0)
    assert res0.value == 0.0 and res0.arg_r == 0.0


def test_supremum_mirror():
    res = scan_supremum(lambda r: -((np.log(r)) ** 2) + 3.0, POLICY, -math.inf, -math.inf)
    assert res.value == pytest.approx(3.0, abs=1e-12)
    assert scan_supremum(lambda r: r / (1.0 + r), POLICY, 0.0, 1.0) == ScanExtremum(1.0, math.inf)


def test_policy_validation():
    for bad in (dict(r_min=1.0, r_max=0.5), dict(r_min=5, r_max=1), dict(points=4),
                dict(r_max=math.inf), dict(r_max=math.nan), dict(r_min=math.nan),
                dict(points=100.5), dict(points=100.0)):
        with pytest.raises(ConfigurationError):
            InfimumScanPolicy(**bad)
    assert InfimumScanPolicy(points=np.int64(100)).grid().size == 100


def test_non_finite_raises():
    with pytest.raises(FloatingPointError):
        scan_infimum(lambda r: np.where(r > 1.0, np.nan, 0.0), POLICY, 0.0, 0.0)


def test_scan_infima_equals_one_scan_per_functional():
    """Lockstep refinement: each functional's result is its lone scan's, bit for bit."""
    cases = [
        (lambda r: np.log(r) ** 2 + 1.0, math.inf, math.inf),            # interior minimum
        (lambda r: (np.log(r) - 3.0) ** 2 - 2.0, math.inf, math.inf),    # another bracket
        (lambda r: 1.0 / (1.0 + r), 1.0, 0.0),                           # limit wins
        (lambda r: -np.log(r), math.inf, -math.inf),                     # -inf limit wins
        (lambda r: np.full_like(r, 2.5), 3.0, 2.5),                      # edge, no refinement
    ]
    policy = InfimumScanPolicy(1e-3, 1e3, 2000)
    r = policy.grid()

    def evaluate(ids, radii):
        return np.array([cases[i][0](np.array([x]))[0] for i, x in zip(ids, radii)])

    batched = scan_infima(r, [(lim0, liminf) for _, lim0, liminf in cases],
                          _fill(r, [f for f, _, _ in cases]), evaluate)
    assert batched == [scan_infimum(f, policy, lim0, liminf) for f, lim0, liminf in cases]
    assert batched[3] == ScanExtremum(-math.inf, math.inf)


def test_lockstep_lanes_stop_on_their_own():
    """Brackets of different widths need different step counts; each lane matches its lone run."""
    r = np.unique(np.concatenate([np.geomspace(1e-3, 1.0, 40), np.geomspace(1.0, 1e3, 4000)]))
    fs = [lambda x: (np.log(x) + 3.0) ** 2,   # minimum in the coarse part of the grid
          lambda x: (np.log(x) - 3.0) ** 2]   # minimum in the fine part

    def evaluate(ids, radii):
        return np.array([fs[i](np.array([x]))[0] for i, x in zip(ids, radii)])

    limits = [(math.inf, math.inf)]
    together = scan_infima(r, limits * len(fs), _fill(r, fs), evaluate)
    alone = [scan_infima(r, limits, _fill(r, [f]), lambda ids, x, f=f: f(x))[0] for f in fs]
    assert together == alone


def _whole_array_infima(r, values, limits, evaluate):
    """Reference: each functional reduced from its whole grid array at once."""
    for vals in values:
        if not np.all(np.isfinite(vals)):
            bad = int(np.argmax(~np.isfinite(vals)))
            raise FloatingPointError(f"scan functional not finite at r={r[bad]:g}")
    where = [int(np.argmin(vals)) for vals in values]
    lanes = [k for k, i in enumerate(where) if 0 < i < len(r) - 1]
    refined = dict(zip(lanes, _golden_lanes(
        evaluate, lanes, [(float(r[where[k] - 1]), float(r[where[k] + 1])) for k in lanes])))
    found = []
    for k, (vals, (limit_at_zero, limit_at_infinity)) in enumerate(zip(values, limits)):
        best, arg = float(vals[where[k]]), float(r[where[k]])
        if k in refined and refined[k][0] < best:
            best, arg = refined[k]
        if limit_at_zero < best:
            best, arg = float(limit_at_zero), 0.0
        if limit_at_infinity < best:
            best, arg = float(limit_at_infinity), math.inf
        found.append(ScanExtremum(best, arg))
    return found


def _tabulated(r, values):
    """Block filler and refinement evaluator for functionals tabulated on ``r``.

    Between grid points a functional is linear in log r, so on the grid it
    is exactly its table.
    """
    log_r = np.log(r)

    def fill(lo, hi, first, out):
        for k, vals in enumerate(values[first:first + len(out)]):
            out[k] = vals[lo:hi]

    def evaluate(ids, radii):
        return np.array([np.interp(math.log(x), log_r, values[i]) for i, x in zip(ids, radii)])

    return fill, evaluate


def _blocked_and_whole(r, values, limits, rows=None):
    fill, evaluate = _tabulated(r, values)
    return (scan_infima(r, limits, fill, evaluate, rows),
            _whole_array_infima(r, values, limits, evaluate))


BLOCK_SIZES = [16, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]


@pytest.mark.parametrize("points", BLOCK_SIZES)
def test_tie_between_blocks_keeps_first_index(points):
    r = np.geomspace(1e-3, 1e3, points)
    first, last = points // 3, points - 1   # different blocks once points > BLOCK
    vals = 1.0 + np.abs(np.linspace(-1.0, 1.0, points))
    vals[first] = vals[last] = 0.0
    blocked, whole = _blocked_and_whole(r, [vals], [(2.0, 2.0)])
    assert blocked == whole
    assert r[first - 1] <= blocked[0].arg_r <= r[first + 1]


@pytest.mark.parametrize("points", BLOCK_SIZES)
def test_minimum_at_last_point_reads_the_point_before(points):
    """With points = k BLOCK + 1 the last block holds one point, the grid minimum, and value
    N-1 sits in the block before."""
    r = np.geomspace(1e-3, 1e3, points)
    falling = np.linspace(2.0, 1.0, points)        # strict decrease into r_max
    flat_tail = falling.copy()
    flat_tail[-2] = flat_tail[-1] + 1e-12
    limits = [(2.0, 1.0), (2.0, 0.5)]              # the grid minimum wins a tie with its limit
    for rows in (1, 2):
        blocked, whole = _blocked_and_whole(r, [flat_tail, falling], limits, rows)
        assert blocked == whole
        assert blocked[0] == ScanExtremum(1.0, float(r[-1]))
        assert blocked[1] == ScanExtremum(0.5, math.inf)
    assert _grid_minima(r, 1, _tabulated(r, [falling])[0], 1)[1].tolist() == [points - 1]


@pytest.mark.parametrize("points", BLOCK_SIZES)
def test_divergence_at_either_edge(points):
    """A functional that diverges at an edge says so by its -inf limit, which wins there."""
    r = np.geomspace(1e-3, 1e3, points)
    down, up = np.linspace(1.0, 0.0, points), np.linspace(0.0, 1.0, points)
    flat_head = up.copy()
    flat_head[1] = flat_head[0] + 1e-12
    limits = [(1.0, -math.inf), (-math.inf, 1.0), (-1.0, 1.0), (0.0, 1.0)]
    for rows in (None, 1, 3):  # row ranges of one, of three and one, of all four
        blocked, whole = _blocked_and_whole(r, [down, up, up, flat_head], limits, rows)
        assert blocked == whole
        assert blocked[:2] == [ScanExtremum(-math.inf, math.inf), ScanExtremum(-math.inf, 0.0)]
        assert blocked[2:] == [ScanExtremum(-1.0, 0.0), ScanExtremum(0.0, float(r[0]))]


@pytest.mark.parametrize("points", BLOCK_SIZES)
def test_nan_in_a_later_block_names_its_radius(points):
    r = np.geomspace(1e-3, 1e3, points)
    late, early = np.ones(points), np.ones(points)
    late[[points - 2, points - 1]] = np.nan, np.inf   # first functional with a bad value
    early[1] = -np.inf                                # an earlier radius, later functional
    fill, evaluate = _tabulated(r, [np.ones(points), late, early])
    limits = [(1.0, 1.0)] * 3
    with pytest.raises(FloatingPointError) as whole:
        _whole_array_infima(r, [np.ones(points), late, early], limits, evaluate)
    for rows in (None, 1, 2):  # the bad rows in one row range, in two, in one after the first
        with pytest.raises(FloatingPointError) as blocked:
            scan_infima(r, limits, fill, evaluate, rows)
        assert (str(blocked.value) == str(whole.value)
                == f"scan functional not finite at r={r[-2]:g}")


def test_fill_sees_blocks_of_at_most_block_points():
    r = np.geomspace(1e-3, 1e3, 2 * BLOCK + 1)
    spans = []

    def fill(lo, hi, first, out):
        spans.append((lo, hi, first, out.shape))
        out[:] = np.log(r[lo:hi]) ** 2

    scan_infima(r, [(math.inf, math.inf)], fill, lambda ids, x: np.log(x) ** 2)
    assert spans == [(0, BLOCK, 0, (1, BLOCK)), (BLOCK, 2 * BLOCK, 0, (1, BLOCK)),
                     (2 * BLOCK, 2 * BLOCK + 1, 0, (1, 1))]


def test_fill_sees_every_row_range_of_a_block_before_the_next_block():
    """Three functionals at most two rows at a time: two fills per block,
    all of a block's rows before the next block."""
    r = np.geomspace(1e-3, 1e3, BLOCK + 1)
    spans = []

    def fill(lo, hi, first, out):
        spans.append((lo, hi, first, out.shape))
        out[:] = np.log(r[lo:hi]) ** 2

    found = scan_infima(r, [(math.inf, math.inf)] * 3, fill, lambda ids, x: np.log(x) ** 2,
                        rows=2)
    assert spans == [(0, BLOCK, 0, (2, BLOCK)), (0, BLOCK, 2, (1, BLOCK)),
                     (BLOCK, BLOCK + 1, 0, (2, 1)), (BLOCK, BLOCK + 1, 2, (1, 1))]
    assert found == [found[0]] * 3 and found[0].value == pytest.approx(0.0, abs=1e-20)
