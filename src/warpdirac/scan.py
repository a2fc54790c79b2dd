"""Deterministic extremum scans over the radial half-line.

All infima/suprema of radial functionals are evaluated the same way: a
logarithmic grid on [r_min, r_max], golden-section refinement around the
discrete extremum, and analytic limits at r -> 0+ and r -> infinity appended
when the caller can supply them.  This makes every reported constant
reproducible bit for bit.

:func:`scan_infima` runs many functionals on one grid: each is reduced to
its grid minimum as soon as its values arrive, and all the golden-section
refinements then step in lockstep, one evaluation call per step.
:func:`scan_infimum` and :func:`scan_supremum` are its one-functional case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import starmap
from typing import Callable, Iterable, Optional

import numpy as np

__all__ = ["InfimumScanPolicy", "ScanExtremum", "scan_infima", "scan_infimum",
           "scan_supremum", "DEFAULT_SCAN_POLICY"]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_REFINE_ITERS = 80


@dataclass(frozen=True)
class InfimumScanPolicy:
    """Grid parameters for extremum scans on (0, infinity)."""

    r_min: float = 1e-6
    r_max: float = 1e6
    points: int = 100_000

    def __post_init__(self):
        if not (0 < self.r_min < self.r_max):
            raise ValueError("scan range must satisfy 0 < r_min < r_max")
        if self.points < 16:
            raise ValueError("scan needs at least 16 points")

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


def _grid_minimum(r: np.ndarray, vals, limit_at_zero: Optional[float],
                  limit_at_infinity: Optional[float]):
    """Reduce grid values to a :class:`_GridMinimum`, or to the divergence sentinel."""
    vals = np.asarray(vals, dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = int(np.argmax(~np.isfinite(vals)))
        raise FloatingPointError(f"scan functional not finite at r={r[bad]:g}")
    i = int(np.argmin(vals))
    best = float(vals[i])

    # Edge heuristics: a strict decrease into an edge with no limit available
    # is reported as divergence rather than a spurious finite infimum.
    span = float(np.max(vals) - np.min(vals))
    tol = 1e-9 * max(1.0, abs(best)) + 1e-12 * span
    if i == len(r) - 1 and limit_at_infinity is None and vals[-1] < vals[-2] - tol:
        return ScanExtremum(-math.inf, math.inf, diverging=True)
    if i == 0 and limit_at_zero is None and vals[0] < vals[1] - tol:
        return ScanExtremum(-math.inf, 0.0, diverging=True)
    bracket = (float(r[i - 1]), float(r[i + 1])) if 0 < i < len(r) - 1 else None
    return _GridMinimum(best, float(r[i]), bracket, limit_at_zero, limit_at_infinity)


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
    grid_values: Iterable[tuple[np.ndarray, Optional[float], Optional[float]]],
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> list[ScanExtremum]:
    """Infima of many radial functionals scanned on one grid ``r``.

    ``grid_values`` yields, per functional, its values on ``r`` and its
    analytic limits at 0 and infinity (None when unknown).  Each item is
    reduced before the next is drawn, so a generator keeps one functional's
    values alive at a time.  ``evaluate(ids, radii)`` returns functional
    ``ids[k]`` (its position in ``grid_values``) at ``radii[k]``; it serves
    every golden-section refinement step at once.
    """
    # starmap holds no reference to an item once it is reduced
    found = list(starmap(partial(_grid_minimum, r), grid_values))
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

    ``f`` must accept an ndarray of radii r > 0.  Analytic limits are
    appended as candidate values with witnesses 0.0 / inf.
    """
    r = policy.grid()
    (res,) = scan_infima(r, [(f(r), limit_at_zero, limit_at_infinity)],
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
