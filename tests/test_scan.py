import math
import tracemalloc

import numpy as np
import pytest

from warpdirac.errors import ConfigurationError
from warpdirac.scan import (BLOCK, DEFAULT_SCAN_POLICY, GROUPS, InfimumScanPolicy,
                            ScanExtremum, _golden_lanes, _grid_minima, scan_infima,
                            scan_infimum, scan_supremum)

POLICY = DEFAULT_SCAN_POLICY


def _one_term_groups(fs):
    """``terms`` for functionals given as callables of r, one group each; ``prepare``
    is the identity on the radii."""
    def terms(g, radii):
        if np.ndim(g) == 0:
            return (fs[g](radii),)
        return (np.array([fs[i](np.array([x]))[0] for i, x in zip(g, radii)]),)
    return terms


def _radii(radii):
    return radii


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
    batched = scan_infima(policy.grid(), [[(lim0, liminf)] for _, lim0, liminf in cases],
                          _radii, _one_term_groups([f for f, _, _ in cases]))
    assert batched == [[scan_infimum(f, policy, lim0, liminf)] for f, lim0, liminf in cases]
    assert batched[3] == [ScanExtremum(-math.inf, math.inf)]


def test_lockstep_lanes_stop_on_their_own():
    """Brackets of different widths need different step counts; each lane matches its lone run."""
    r = np.unique(np.concatenate([np.geomspace(1e-3, 1.0, 40), np.geomspace(1.0, 1e3, 4000)]))
    fs = [lambda x: (np.log(x) + 3.0) ** 2,   # minimum in the coarse part of the grid
          lambda x: (np.log(x) - 3.0) ** 2]   # minimum in the fine part

    limits = [[(math.inf, math.inf)]]
    together = scan_infima(r, limits * len(fs), _radii, _one_term_groups(fs))
    alone = [scan_infima(r, limits, f, lambda g, values: (values,))[0] for f in fs]
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


def _tabulated(r, values, width):
    """``terms`` for functionals tabulated on ``r``, ``width`` to a group, and the
    reference's lane evaluator; ``prepare`` is the identity on the radii.

    Between grid points a functional is linear in log r, so on the grid it
    is exactly its table.
    """
    log_r = np.log(r)

    def evaluate(ids, radii):
        return np.array([np.interp(math.log(x), log_r, values[i]) for i, x in zip(ids, radii)])

    def terms(g, radii):
        if np.ndim(g) == 0:  # a grid block: its radii are r[lo:lo + len(radii)]
            lo = int(np.searchsorted(r, radii[0]))
            return [vals[lo:lo + len(radii)] for vals in values[g * width:(g + 1) * width]]
        return [evaluate(g * width + t, radii) for t in range(width)]

    return terms, evaluate


# (filler groups before the tabulated ones, terms per group; None: all in one group).
# The tabulated groups are all in the buffer's first fill of fewer than GROUPS
# groups, straddle its first two fills, or are all in its second.
LAYOUTS = [(0, 1), (0, None), (GROUPS - 1, 1), (GROUPS, 1), (GROUPS, None)]
_FILLER = 3.0  # a constant functional, its least at the first grid point


def _padded_table(r, values, limits, pad, width):
    """scan_infima's arguments for the tabulated functionals after ``pad`` filler groups."""
    table = [np.full(len(r), _FILLER)] * (pad * width) + list(values)
    bounds = [(_FILLER, _FILLER)] * (pad * width) + list(limits)
    terms, _ = _tabulated(r, table, width)
    return [bounds[k:k + width] for k in range(0, len(bounds), width)], _radii, terms


def _blocked_and_whole(r, values, limits, pad=0, width=1):
    width = width or len(values)
    found = scan_infima(r, *_padded_table(r, values, limits, pad, width))
    blocked = [ext for group in found for ext in group][pad * width:]
    return blocked, _whole_array_infima(r, values, limits, _tabulated(r, values, width)[1])


BLOCK_SIZES = [16, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]


@pytest.mark.parametrize("points", BLOCK_SIZES)
def test_tie_between_blocks_keeps_first_index(points):
    r = np.geomspace(1e-3, 1e3, points)
    first, last = points // 3, points - 1   # different blocks once points > BLOCK
    vals = 1.0 + np.abs(np.linspace(-1.0, 1.0, points))
    vals[first] = vals[last] = 0.0
    for pad, width in LAYOUTS:
        blocked, whole = _blocked_and_whole(r, [vals], [(2.0, 2.0)], pad, width)
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
    for pad, width in LAYOUTS:
        blocked, whole = _blocked_and_whole(r, [flat_tail, falling], limits, pad, width)
        assert blocked == whole
        assert blocked[0] == ScanExtremum(1.0, float(r[-1]))
        assert blocked[1] == ScanExtremum(0.5, math.inf)
    terms, _ = _tabulated(r, [falling], 1)
    assert _grid_minima(r, 1, 1, _radii, terms)[1].tolist() == [points - 1]


@pytest.mark.parametrize("points", BLOCK_SIZES)
def test_divergence_at_either_edge(points):
    """A functional that diverges at an edge says so by its -inf limit, which wins there."""
    r = np.geomspace(1e-3, 1e3, points)
    down, up = np.linspace(1.0, 0.0, points), np.linspace(0.0, 1.0, points)
    flat_head = up.copy()
    flat_head[1] = flat_head[0] + 1e-12
    limits = [(1.0, -math.inf), (-math.inf, 1.0), (-1.0, 1.0), (0.0, 1.0)]
    for pad, width in LAYOUTS + [(GROUPS - 1, 2)]:
        blocked, whole = _blocked_and_whole(r, [down, up, up, flat_head], limits, pad, width)
        assert blocked == whole
        assert blocked[:2] == [ScanExtremum(-math.inf, math.inf), ScanExtremum(-math.inf, 0.0)]
        assert blocked[2:] == [ScanExtremum(-1.0, 0.0), ScanExtremum(0.0, float(r[0]))]


@pytest.mark.parametrize("points", BLOCK_SIZES)
def test_nan_in_a_later_block_names_its_radius(points):
    """The error names the first bad radius of the first functional, in the order
    g * width + t, that has one."""
    r = np.geomspace(1e-3, 1e3, points)
    late, early = np.ones(points), np.ones(points)
    late[[points - 2, points - 1]] = np.nan, np.inf   # first functional with a bad value
    early[1] = -np.inf                                # an earlier radius, later functional
    values, limits = [np.ones(points), late, early], [(1.0, 1.0)] * 3
    with pytest.raises(FloatingPointError) as whole:
        _whole_array_infima(r, values, limits, _tabulated(r, values, 1)[1])
    for pad, width in LAYOUTS:  # the bad functionals in one fill, in two, after filler fills
        with pytest.raises(FloatingPointError) as blocked:
            scan_infima(r, *_padded_table(r, values, limits, pad, width or len(values)))
        assert (str(blocked.value) == str(whole.value)
                == f"scan functional not finite at r={r[-2]:g}")


def test_prepare_sees_blocks_of_at_most_block_points():
    r = np.geomspace(1e-3, 1e3, 2 * BLOCK + 1)
    spans = []

    def prepare(radii):
        spans.append((float(radii[0]), len(radii)))
        return np.log(radii)

    scan_infima(r, [[(math.inf, math.inf)]], prepare, lambda g, log_r: (log_r ** 2,))
    assert spans[:3] == [(r[0], BLOCK), (r[BLOCK], BLOCK), (r[2 * BLOCK], 1)]


@pytest.mark.parametrize("groups", [1, GROUPS - 1, GROUPS, GROUPS + 1, 80])
def test_prepare_runs_once_per_block_and_step_and_terms_once_per_group(groups):
    """On the grid: one prepare per block, then one terms call per group, in order.
    In the refinement: one prepare and one terms call per golden-section step,
    over the lanes of every group, as many steps as one group alone takes."""
    r = np.geomspace(1e-3, 1e3, 2 * BLOCK + 1)
    calls, lane_groups = [], []

    def prepare(radii):
        calls.append(("prepare", len(radii)))
        return np.log(radii)

    def terms(g, log_r):
        if np.ndim(g) == 0:
            calls.append(("terms", g))
        else:
            calls.append(("terms", len(g)))
            lane_groups.append(set(g.tolist()))
        return log_r ** 2, log_r ** 2 + 1.0

    def run(count):
        calls.clear()
        lane_groups.clear()
        found = scan_infima(r, [[(math.inf, math.inf)] * 2] * count, prepare, terms)
        grid = [call for size in (BLOCK, BLOCK, 1)
                for call in [("prepare", size)] + [("terms", g) for g in range(count)]]
        assert calls[:len(grid)] == grid
        return found, calls[len(grid):]

    found, steps = run(groups)
    lanes = 2 * groups  # both terms of every group have their minimum inside the grid
    assert steps[:2] == [("prepare", 2 * lanes), ("terms", 2 * lanes)]  # both inner points
    assert steps[2:] == [("prepare", lanes), ("terms", lanes)] * (len(steps) // 2 - 1)
    assert lane_groups == [set(range(groups))] * (len(steps) // 2)
    alone = run(1)
    assert len(alone[1]) == len(steps) > 4
    assert found == [alone[0][0]] * groups
    assert found[0][0].value == pytest.approx(0.0, abs=1e-20)
    assert found[0][1].value == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("r_min, r_max, points", [
    (1e-6, 1e6, 100_000), (1e-6, 1e6, 2_000_000), (1e-3, 1e3, 5001), (1e-4, 1e4, 5000),
    (1e-6, 1e200, 20_000), (0.3, 7.0, 16)])
def test_grid_is_geomspace_bit_for_bit(r_min, r_max, points):
    grid = InfimumScanPolicy(r_min, r_max, points).grid()
    assert grid.tobytes() == np.geomspace(r_min, r_max, points).tobytes()


def test_grid_is_built_in_one_array():
    """The grid's traced peak is the grid itself: np.geomspace held two grid-sized arrays."""
    policy = InfimumScanPolicy(points=2_000_000)
    tracemalloc.start()
    try:
        grid = policy.grid()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.01 * grid.nbytes
