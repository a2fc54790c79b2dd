"""Deterministic extremum scans over the radial half-line.

All infima/suprema of radial functionals are evaluated the same way: a
logarithmic grid on [r_min, r_max], golden-section refinement around the
discrete extremum, and the analytic limits at r -> 0+ and r -> infinity,
which every caller supplies (+-inf where the functional diverges there).
The scan never guesses what happens past the grid, and every reported
constant is reproducible bit for bit.

:func:`scan_infima` runs groups of functionals on one grid, one block of at
most BLOCK points at a time.  The caller passes ``prepare``, what the
groups share at some radii, and ``terms``, one group's functionals from it;
the scan writes at most GROUPS groups at a time into one reused buffer,
and keeps per functional only its running minimum with the first index
where it occurs and its first non-finite radius.  That summary settles the
grid minimum and the non-finite error exactly as the whole grid array
would, with no grid-sized temporary.  All the golden-section refinements
then step in lockstep, one ``prepare`` and one ``terms`` call per step.
:func:`scan_infimum` and :func:`scan_supremum` are its one-functional case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .errors import ConfigurationError

__all__ = ["InfimumScanPolicy", "ScanExtremum", "scan_infima", "scan_infimum",
           "scan_supremum", "DEFAULT_SCAN_POLICY", "MIN_SCAN_POINTS"]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_REFINE_ITERS = 80
# Grid points per block: one functional's block (32 KB) stays below glibc's
# 128 KB mmap threshold and in L2.
BLOCK = 4096
# Groups of functionals per block buffer: with the five terms of a signed mode
# it stays at most 160 rows of BLOCK points (5.2 MB), however many groups.
GROUPS = 32
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
        """``np.geomspace(r_min, r_max, points)`` bit for bit, built in one array."""
        r = np.linspace(np.log10(self.r_min), np.log10(self.r_max), self.points)
        np.power(10.0, r, out=r)
        r[0], r[-1] = self.r_min, self.r_max
        return r


DEFAULT_SCAN_POLICY = InfimumScanPolicy()


@dataclass(frozen=True)
class ScanExtremum:
    """Result of a scan: extremal value and its witness r (0.0 or inf for a limit)."""

    value: float
    arg_r: float

    def negated(self) -> "ScanExtremum":
        """The supremum that an infimum of the negated functional stands for."""
        return ScanExtremum(-self.value, self.arg_r)


def _grid_minima(r: np.ndarray, groups: int, width: int, prepare: Callable, terms: Callable
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Each functional's minimum on the grid ``r`` and the first index where it occurs.

    Functional ``g * width + t`` is term t of group g.  Block by block,
    ``prepare`` runs once on the block's radii, and the ``width`` terms of
    each group are written into one reused buffer of at most GROUPS groups
    and BLOCK points.  A minimum found in an earlier block wins ties, so its
    index is the first one, as ``argmin`` over the whole grid gives.
    Raises FloatingPointError at the first non-finite value of the first
    functional (in order) that has one.
    """
    n, count = len(r), groups * width
    buf = np.empty((min(groups, GROUPS) * width, min(n, BLOCK)))
    low = np.full(count, np.inf)
    where = np.zeros(count, dtype=int)
    bad = np.full(count, n)  # first non-finite index; n while none is seen
    for lo in range(0, n, BLOCK):
        hi = min(n, lo + BLOCK)
        shared = prepare(r[lo:hi])
        for start in range(0, groups, GROUPS):
            stop = min(groups, start + GROUPS)
            part = slice(start * width, stop * width)
            block = buf[:part.stop - part.start, :hi - lo]
            for g in range(start, stop):
                for row, values in enumerate(terms(g, shared), (g - start) * width):
                    block[row] = values
            at = block.argmin(axis=1)  # a NaN is its own argmin
            lows, highs = block[np.arange(len(block)), at], block.max(axis=1)  # max: +inf
            for k in np.flatnonzero(~(np.isfinite(lows) & np.isfinite(highs))
                                    & (bad[part] == n)):
                bad[part.start + k] = lo + int(np.argmax(~np.isfinite(block[k])))
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
    limits: Sequence[Sequence[tuple[float, float]]],
    prepare: Callable[[np.ndarray], Any],
    terms: Callable[[Any, Any], Sequence[np.ndarray]],
) -> list[list[ScanExtremum]]:
    """Infima of groups of radial functionals scanned on one grid ``r``.

    ``limits[g][t]`` holds the analytic limits at 0 and infinity of term t
    of group g; either may be +-inf, and every group has as many terms.
    ``prepare(radii)`` computes what the groups share at some radii, once
    per grid block of at most BLOCK points and once per golden-section
    step.  ``terms(g, shared)`` returns the terms of group g at those radii,
    in order; ``g`` is an int on the grid, and an index array (one group
    per radius) in the refinement steps, which serve every refinement at
    once.  Each infimum ``found[g][t]`` is the first least of the grid
    minimum, its refinement (for an interior minimum), the limit at 0
    (witness 0.0) and the limit at infinity (witness inf).
    """
    width = len(limits[0])
    flat = [lim for group in limits for lim in group]
    low, where = _grid_minima(r, len(limits), width, prepare, terms)

    def on_lanes(ids, radii):
        values = np.array(terms(ids // width, prepare(radii)), dtype=float)
        return values[ids % width, np.arange(len(ids))]

    lanes = [k for k, i in enumerate(where) if 0 < i < len(r) - 1]
    refined = dict(zip(lanes, _golden_lanes(
        on_lanes, lanes, [(float(r[where[k] - 1]), float(r[where[k] + 1])) for k in lanes])))
    found = []
    for k, (at_zero, at_inf) in enumerate(flat):
        grid = (float(low[k]), float(r[where[k]]))
        # min keeps the first least candidate: each later one must be strictly below
        found.append(ScanExtremum(*min((grid, refined.get(k, grid), (float(at_zero), 0.0),
                                        (float(at_inf), math.inf)), key=lambda c: c[0])))
    return [found[g * width:(g + 1) * width] for g in range(len(limits))]


def scan_infimum(f: Callable[[np.ndarray], np.ndarray], policy: InfimumScanPolicy,
                 limit_at_zero: float, limit_at_infinity: float) -> ScanExtremum:
    """Infimum of a vectorized radial functional under the scan policy.

    ``f`` must accept an ndarray of radii r > 0, and is called on one grid
    block at a time.  The analytic limits are candidate values with
    witnesses 0.0 / inf.
    """
    ((res,),) = scan_infima(policy.grid(), [[(limit_at_zero, limit_at_infinity)]], f,
                            lambda g, values: (values,))
    return res


def scan_supremum(f: Callable[[np.ndarray], np.ndarray], policy: InfimumScanPolicy,
                  limit_at_zero: float, limit_at_infinity: float) -> ScanExtremum:
    """Supremum scan; mirrors :func:`scan_infimum`."""
    return scan_infimum(lambda r: -np.asarray(f(r)), policy,
                        -limit_at_zero, -limit_at_infinity).negated()
