"""Deterministic extremum scans over the radial half-line.

All infima/suprema of radial functionals are evaluated the same way: a
logarithmic grid on [r_min, r_max], golden-section refinement around the
discrete extremum, and the analytic limits at r -> 0+ and r -> infinity,
which every caller supplies (+-inf where the functional diverges there).
The scan never guesses what happens past the grid, and every reported
constant is reproducible bit for bit.

:func:`scan_infima` runs many functionals on one grid, one block of at most
BLOCK points at a time and, within a block, at most ``rows`` functionals at
a time: the caller fills a reused ``(rows, block)`` buffer, and the scan
keeps per functional only its running minimum with the first index where
it occurs and its first non-finite radius.  That summary settles the grid
minimum and the non-finite error exactly as the whole grid array would,
with no grid-sized temporary.  All the golden-section refinements then step
in lockstep, one evaluation call per step.
:func:`scan_infimum` and :func:`scan_supremum` are its one-functional case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError

__all__ = ["InfimumScanPolicy", "ScanExtremum", "scan_infima", "scan_infimum",
           "scan_supremum", "DEFAULT_SCAN_POLICY", "MIN_SCAN_POINTS"]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_REFINE_ITERS = 80
# Grid points per block: one functional's block (32 KB) stays below glibc's
# 128 KB mmap threshold and in L2.
BLOCK = 4096
MIN_SCAN_POINTS = 16  # fewest grid points of any scan


@dataclass(frozen=True)
class InfimumScanPolicy:
    """Grid parameters for extremum scans on (0, infinity)."""

    r_min: float = 1e-6
    r_max: float = 1e6
    points: int = 100_000

    def __post_init__(self):
        if not 0 < self.r_min < self.r_max < math.inf:
            raise ConfigurationError("scan range must satisfy 0 < r_min < r_max < inf")
        if not isinstance(self.points, (int, np.integer)):
            raise ConfigurationError(f"scan points must be an integer, got {self.points!r}")
        if self.points < MIN_SCAN_POINTS:
            raise ConfigurationError(f"scan needs at least {MIN_SCAN_POINTS} points")

    def grid(self) -> np.ndarray:
        return np.geomspace(self.r_min, self.r_max, self.points)


DEFAULT_SCAN_POLICY = InfimumScanPolicy()


@dataclass(frozen=True)
class ScanExtremum:
    """Result of a scan: extremal value and its witness r (0.0 or inf for a limit)."""

    value: float
    arg_r: float

    def negated(self) -> "ScanExtremum":
        """The supremum that an infimum of the negated functional stands for."""
        return ScanExtremum(-self.value, self.arg_r)


def _grid_minima(r: np.ndarray, count: int,
                 fill: Callable[[int, int, int, np.ndarray], None],
                 rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Each functional's minimum on the grid ``r`` and the first index where it occurs.

    Block by block, ``fill(lo, hi, first, out)`` writes functionals
    ``first, first + 1, ...`` on ``r[lo:hi]`` into one reused buffer of at
    most ``rows`` rows and BLOCK points, for every row range of a block
    before the next block.  A minimum found in an earlier block wins ties,
    so its index is the first one, as ``argmin`` over the whole grid gives.
    Raises FloatingPointError at the first non-finite value of the first
    functional (in order) that has one.
    """
    n = len(r)
    buf = np.empty((min(count, rows), min(n, BLOCK)))
    low = np.full(count, np.inf)
    where = np.zeros(count, dtype=int)
    bad = np.full(count, n)  # first non-finite index; n while none is seen
    for lo in range(0, n, BLOCK):
        hi = min(n, lo + BLOCK)
        for first in range(0, count, rows):
            part = slice(first, min(count, first + rows))
            block = buf[:part.stop - first, :hi - lo]
            fill(lo, hi, first, block)
            at = block.argmin(axis=1)  # a NaN is its own argmin
            lows, highs = block[np.arange(len(block)), at], block.max(axis=1)  # max: +inf
            for k in np.flatnonzero(~(np.isfinite(lows) & np.isfinite(highs))
                                    & (bad[part] == n)):
                bad[first + k] = lo + int(np.argmax(~np.isfinite(block[k])))
            low_part, where_part = low[part], where[part]  # views: they write low, where
            new = lows < low_part
            low_part[new], where_part[new] = lows[new], lo + at[new]
    if np.any(bad < n):
        first = int(bad[np.argmax(bad < n)])
        raise FloatingPointError(f"scan functional not finite at r={r[first]:g}")
    return low, where


def _golden_lanes(evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray],
                  lanes: list[int], brackets: list[tuple[float, float]]
                  ) -> list[tuple[float, float]]:
    """Golden-section minimum on each bracket (log-r coordinates), all in lockstep.

    ``evaluate(lanes, radii)`` returns functional ``lanes[k]`` at
    ``radii[k]``.  Every step is one call over the lanes still running.
    Each lane keeps its own bookkeeping in Python floats and stops on its
    own, so it visits the same radii as a refinement run alone.
    """
    if not lanes:
        return []
    ids = np.asarray(lanes)
    count = len(lanes)
    a = [math.log(lo) for lo, _ in brackets]
    b = [math.log(hi) for _, hi in brackets]
    c = [b[k] - _GOLDEN * (b[k] - a[k]) for k in range(count)]
    d = [a[k] + _GOLDEN * (b[k] - a[k]) for k in range(count)]
    first = evaluate(np.concatenate([ids, ids]),
                     np.array([math.exp(x) for x in c + d])).tolist()
    fc, fd = first[:count], first[count:]
    active = list(range(count))
    for _ in range(_REFINE_ITERS):
        if not active:
            break
        moved_c, radii = [], []
        for k in active:
            if fc[k] <= fd[k]:
                b[k], d[k], fd[k] = d[k], c[k], fc[k]
                c[k] = b[k] - _GOLDEN * (b[k] - a[k])
                radii.append(math.exp(c[k]))
                moved_c.append(True)
            else:
                a[k], c[k], fc[k] = c[k], d[k], fd[k]
                d[k] = a[k] + _GOLDEN * (b[k] - a[k])
                radii.append(math.exp(d[k]))
                moved_c.append(False)
        values = evaluate(ids[active], np.array(radii)).tolist()
        for k, is_c, value in zip(active, moved_c, values):
            if is_c:
                fc[k] = value
            else:
                fd[k] = value
        active = [k for k in active if not b[k] - a[k] < 1e-14]
    xs = [math.exp(0.5 * (a[k] + b[k])) for k in range(count)]
    return list(zip(evaluate(ids, np.array(xs)).tolist(), xs))


def scan_infima(
    r: np.ndarray,
    limits: Sequence[tuple[float, float]],
    fill: Callable[[int, int, int, np.ndarray], None],
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray],
    rows: Optional[int] = None,
) -> list[ScanExtremum]:
    """Infima of many radial functionals scanned on one grid ``r``.

    ``limits`` holds, per functional, its analytic limits at 0 and infinity;
    either may be +-inf.  ``fill(lo, hi, first, out)`` writes functional
    ``first + k``'s values on ``r[lo:hi]`` into row k of ``out``, one reused
    buffer of at most ``rows`` rows (all of them by default) and BLOCK
    columns; it is called for every row range of one block before the
    next block, so work shared by a block's rows can be done once per
    block.  ``evaluate(ids, radii)`` returns functional ``ids[k]`` (its
    position in ``limits``) at ``radii[k]``; it serves every golden-section
    refinement step at once.  Each infimum is the first least of the grid
    minimum, its refinement (for an interior minimum), the limit at 0
    (witness 0.0) and the limit at infinity (witness inf).
    """
    low, where = _grid_minima(r, len(limits), fill, rows or len(limits))
    lanes = [k for k, i in enumerate(where) if 0 < i < len(r) - 1]
    refined = dict(zip(lanes, _golden_lanes(
        evaluate, lanes, [(float(r[where[k] - 1]), float(r[where[k] + 1])) for k in lanes])))
    found = []
    for k, (at_zero, at_inf) in enumerate(limits):
        grid = (float(low[k]), float(r[where[k]]))
        # min keeps the first least candidate: each later one must be strictly below
        found.append(ScanExtremum(*min((grid, refined.get(k, grid), (float(at_zero), 0.0),
                                        (float(at_inf), math.inf)), key=lambda c: c[0])))
    return found


def scan_infimum(f: Callable[[np.ndarray], np.ndarray], policy: InfimumScanPolicy,
                 limit_at_zero: float, limit_at_infinity: float) -> ScanExtremum:
    """Infimum of a vectorized radial functional under the scan policy.

    ``f`` must accept an ndarray of radii r > 0, and is called on one grid
    block at a time.  The analytic limits are candidate values with
    witnesses 0.0 / inf.
    """
    r = policy.grid()

    def fill(lo, hi, first, out):
        out[0] = f(r[lo:hi])

    (res,) = scan_infima(r, [(limit_at_zero, limit_at_infinity)], fill,
                         lambda ids, radii: np.asarray(f(radii), dtype=float))
    return res


def scan_supremum(f: Callable[[np.ndarray], np.ndarray], policy: InfimumScanPolicy,
                  limit_at_zero: float, limit_at_infinity: float) -> ScanExtremum:
    """Supremum scan; mirrors :func:`scan_infimum`."""
    return scan_infimum(lambda r: -np.asarray(f(r)), policy,
                        -limit_at_zero, -limit_at_infinity).negated()
