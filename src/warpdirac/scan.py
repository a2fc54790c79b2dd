"""Deterministic extremum scans over the radial half-line.

All infima/suprema of radial functionals are evaluated the same way: a
logarithmic grid on [r_min, r_max], golden-section refinement around the
discrete extremum, and analytic limits at r -> 0+ and r -> infinity appended
when the caller can supply them.  This makes every reported constant
reproducible bit for bit.

:func:`scan_infima` runs many functionals on one grid, one block of at most
BLOCK points at a time: the caller fills a reused ``(functionals, block)``
buffer, and the scan keeps per functional only its running minimum with the
first index where it occurs, its maximum, its second and next-to-last
values and its first non-finite radius.  That summary settles the grid
minimum, the divergence sentinel and the non-finite error exactly as the
whole grid array would, with no grid-sized temporary.  All the
golden-section refinements then step in lockstep, one evaluation call per
step.  :func:`scan_infimum` and :func:`scan_supremum` are its
one-functional case.
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
    """Result of a scan: extremal value, its witness r, divergence flag.

    ``arg_r`` is 0.0 or math.inf when an appended analytic limit is the
    extremum.  ``diverging`` is set when the scan detects a monotone trend
    past the grid edge with no analytic limit to settle it; the value is
    then the +-inf sentinel.
    """

    value: float
    arg_r: float
    diverging: bool = False

    def negated(self) -> "ScanExtremum":
        """The supremum that an infimum of the negated functional stands for."""
        return ScanExtremum(-self.value, self.arg_r, self.diverging)


@dataclass(frozen=True)
class _GridMinimum:
    """What survives of one functional's grid values: its minimum and limits."""

    value: float
    arg_r: float
    bracket: Optional[tuple[float, float]]  # grid neighbours of an interior minimum
    limit_at_zero: Optional[float]
    limit_at_infinity: Optional[float]


def _grid_minima(r: np.ndarray, limits: Sequence[tuple[Optional[float], Optional[float]]],
                 fill: Callable[[int, int, np.ndarray], None]) -> list:
    """Reduce each functional to a :class:`_GridMinimum`, or to the divergence sentinel.

    ``fill`` writes the functionals on ``r[lo:hi]`` into one reused
    ``(len(limits), hi - lo)`` buffer, one block of at most BLOCK points at
    a time.  A minimum found in an earlier block wins ties, so its index is
    the first one, as ``argmin`` over the whole grid gives.  Raises
    FloatingPointError at the first non-finite value of the first
    functional (in order) that has one.
    """
    n, count = len(r), len(limits)
    buf = np.empty((count, min(n, BLOCK)))
    rows = np.arange(count)
    low = np.full(count, np.inf)
    where = np.zeros(count, dtype=int)
    high = np.full(count, -np.inf)
    bad = np.full(count, n)  # first non-finite index; n while none is seen
    for lo in range(0, n, BLOCK):
        block = buf[:, :min(n - lo, BLOCK)]
        fill(lo, lo + block.shape[1], block)
        at = block.argmin(axis=1)  # a NaN is its own argmin
        lows, highs = block[rows, at], block.max(axis=1)
        for k in np.flatnonzero(~(np.isfinite(lows) & np.isfinite(highs)) & (bad == n)):
            bad[k] = lo + int(np.argmax(~np.isfinite(block[k])))
        new = lows < low
        low[new], where[new] = lows[new], lo + at[new]
        np.maximum(high, highs, out=high)
        if lo == 0:
            second = block[:, 1].copy()
        if lo <= n - 2 < lo + block.shape[1]:
            penultimate = block[:, n - 2 - lo].copy()
    if np.any(bad < n):
        first = int(bad[np.argmax(bad < n)])
        raise FloatingPointError(f"scan functional not finite at r={r[first]:g}")

    found = []
    for k, (limit_at_zero, limit_at_infinity) in enumerate(limits):
        i, best = int(where[k]), float(low[k])
        # Edge heuristics: a strict decrease into an edge with no limit available
        # is reported as divergence rather than a spurious finite infimum.
        tol = 1e-9 * max(1.0, abs(best)) + 1e-12 * (float(high[k]) - best)
        if i == n - 1 and limit_at_infinity is None and best < penultimate[k] - tol:
            found.append(ScanExtremum(-math.inf, math.inf, diverging=True))
        elif i == 0 and limit_at_zero is None and best < second[k] - tol:
            found.append(ScanExtremum(-math.inf, 0.0, diverging=True))
        else:
            bracket = (float(r[i - 1]), float(r[i + 1])) if 0 < i < n - 1 else None
            found.append(_GridMinimum(best, float(r[i]), bracket, limit_at_zero,
                                      limit_at_infinity))
    return found


def _settle(found: _GridMinimum, refined: Optional[tuple[float, float]]) -> ScanExtremum:
    """Pick among the grid minimum, its refinement and the analytic limits."""
    best, arg = found.value, found.arg_r
    if refined is not None and refined[0] < best:
        best, arg = refined
    if found.limit_at_zero is not None and found.limit_at_zero < best:
        best, arg = float(found.limit_at_zero), 0.0
    if found.limit_at_infinity is not None and found.limit_at_infinity < best:
        best, arg = float(found.limit_at_infinity), math.inf
    return ScanExtremum(best, arg)


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
    limits: Sequence[tuple[Optional[float], Optional[float]]],
    fill: Callable[[int, int, np.ndarray], None],
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> list[ScanExtremum]:
    """Infima of many radial functionals scanned on one grid ``r``.

    ``limits`` holds, per functional, its analytic limits at 0 and infinity
    (None when unknown).  ``fill(lo, hi, out)`` writes functional k's values
    on ``r[lo:hi]`` into row k of ``out``, one reused ``(len(limits),
    hi - lo)`` buffer of at most BLOCK columns.  ``evaluate(ids, radii)``
    returns functional ``ids[k]`` (its position in ``limits``) at
    ``radii[k]``; it serves every golden-section refinement step at once.
    """
    found = _grid_minima(r, limits, fill)
    lanes = [k for k, f in enumerate(found)
             if isinstance(f, _GridMinimum) and f.bracket is not None]
    refined = dict(zip(lanes, _golden_lanes(evaluate, lanes,
                                            [found[k].bracket for k in lanes])))
    return [f if isinstance(f, ScanExtremum) else _settle(f, refined.get(k))
            for k, f in enumerate(found)]


def scan_infimum(
    f: Callable[[np.ndarray], np.ndarray],
    policy: InfimumScanPolicy = DEFAULT_SCAN_POLICY,
    limit_at_zero: Optional[float] = None,
    limit_at_infinity: Optional[float] = None,
) -> ScanExtremum:
    """Infimum of a vectorized radial functional under the scan policy.

    ``f`` must accept an ndarray of radii r > 0, and is called on one grid
    block at a time.  Analytic limits are appended as candidate values
    with witnesses 0.0 / inf.
    """
    r = policy.grid()

    def fill(lo, hi, out):
        out[0] = f(r[lo:hi])

    (res,) = scan_infima(r, [(limit_at_zero, limit_at_infinity)], fill,
                         lambda ids, radii: np.asarray(f(radii), dtype=float))
    return res


def scan_supremum(
    f: Callable[[np.ndarray], np.ndarray],
    policy: InfimumScanPolicy = DEFAULT_SCAN_POLICY,
    limit_at_zero: Optional[float] = None,
    limit_at_infinity: Optional[float] = None,
) -> ScanExtremum:
    """Supremum scan; mirrors :func:`scan_infimum`."""
    neg_zero = None if limit_at_zero is None else -limit_at_zero
    neg_inf = None if limit_at_infinity is None else -limit_at_infinity
    return scan_infimum(lambda r: -np.asarray(f(r)), policy, neg_zero, neg_inf).negated()
