import math

import numpy as np
import pytest

from warpdirac.scan import InfimumScanPolicy, scan_infima, scan_infimum, scan_supremum


def test_constant_function():
    res = scan_infimum(lambda r: np.full_like(r, 2.5))
    assert res.value == 2.5
    assert not res.diverging


def test_interior_minimum_refined():
    # min of (log r)^2 + 1 at r = 1, exactly 1
    res = scan_infimum(lambda r: np.log(r) ** 2 + 1.0)
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.arg_r == pytest.approx(1.0, rel=1e-6)


def test_limits_can_win():
    res = scan_infimum(lambda r: 1.0 / (1.0 + r), limit_at_infinity=0.0)
    assert res.value == 0.0
    assert math.isinf(res.arg_r)
    res0 = scan_infimum(lambda r: r / (1.0 + r), limit_at_zero=0.0)
    assert res0.value == 0.0 and res0.arg_r == 0.0


def test_divergence_sentinel():
    res = scan_infimum(lambda r: -np.log(r))
    assert res.diverging and res.value == -math.inf


def test_supremum_mirror():
    res = scan_supremum(lambda r: -((np.log(r)) ** 2) + 3.0)
    assert res.value == pytest.approx(3.0, abs=1e-12)


def test_policy_validation():
    with pytest.raises(ValueError):
        InfimumScanPolicy(r_min=1.0, r_max=0.5)
    with pytest.raises(ValueError):
        InfimumScanPolicy(points=4)


def test_non_finite_raises():
    with pytest.raises(FloatingPointError):
        scan_infimum(lambda r: np.where(r > 1.0, np.nan, 0.0))


def test_scan_infima_equals_one_scan_per_functional():
    """Lockstep refinement: each functional's result is its lone scan's, bit for bit."""
    cases = [
        (lambda r: np.log(r) ** 2 + 1.0, None, None),           # interior minimum
        (lambda r: (np.log(r) - 3.0) ** 2 - 2.0, None, None),   # another bracket
        (lambda r: 1.0 / (1.0 + r), None, 0.0),                 # limit wins
        (lambda r: -np.log(r), None, None),                     # diverging
        (lambda r: np.full_like(r, 2.5), 3.0, None),            # edge, no refinement
    ]
    policy = InfimumScanPolicy(1e-3, 1e3, 2000)
    r = policy.grid()

    def evaluate(ids, radii):
        return np.array([cases[i][0](np.array([x]))[0] for i, x in zip(ids, radii)])

    batched = scan_infima(r, [(f(r), lim0, liminf) for f, lim0, liminf in cases], evaluate)
    assert batched == [scan_infimum(f, policy, lim0, liminf) for f, lim0, liminf in cases]


def test_lockstep_lanes_stop_on_their_own():
    """Brackets of different widths need different step counts; each lane matches its lone run."""
    r = np.unique(np.concatenate([np.geomspace(1e-3, 1.0, 40), np.geomspace(1.0, 1e3, 4000)]))
    fs = [lambda x: (np.log(x) + 3.0) ** 2,   # minimum in the coarse part of the grid
          lambda x: (np.log(x) - 3.0) ** 2]   # minimum in the fine part

    def evaluate(ids, radii):
        return np.array([fs[i](np.array([x]))[0] for i, x in zip(ids, radii)])

    together = scan_infima(r, [(f(r), None, None) for f in fs], evaluate)
    alone = [scan_infima(r, [(f(r), None, None)], lambda ids, x, f=f: f(x))[0] for f in fs]
    assert together == alone
