"""Space-time norms, admissible exponents, and growth-in-mu scans.

Fractional Sobolev norms are defined once and for all through the flat
flattened reference operator: ||(1 + H0)^(s/2) v||, with H0 the discrete
flat radial Laplacian, through the SobolevCalculus of operators.py (the
exact DST-I at n = 3, the resolvent quadrature on H0's bands otherwise),
which costs no eigensolve; mu_scan builds one calculus and hands it to
every norm it takes.
Strichartz norms weight the state pointwise by (phi/r)^((n-1)/2 (1 - 2/q))
before the fractional power, take l^q(dr) in space and L^p (trapezoid over
the sampled causal window) in time; the smoothing norm integrates over the
same sampled window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .admissibility import check_admissible
from .errors import (ConfigurationError, ContractViolationError, NonAdmissibleError,
                     NumericalError, PolicyError)
from .evolution import DataTemplate, SpinorTrajectory, causal_time_limit, evolve
from .operators import RadialGrid, SobolevCalculus, assemble_dirac, flat_reference_operator
from .profiles import MetricProfile
from .scan import DEFAULT_SCAN_POLICY, InfimumScanPolicy

__all__ = ["ExponentTriple", "is_admissible_triple", "smoothing_norm", "strichartz_norm",
           "ModeScanRow", "NormScanResult", "mu_scan",
           "DEFAULT_EPSILON_LOSS", "DEFAULT_T_MAX", "DEFAULT_SAMPLES", "SLOPE_SLACK",
           "SMOOTHING_SLOPE_LIMIT"]

DEFAULT_EPSILON_LOSS = 0.1
DEFAULT_T_MAX = 8.0
DEFAULT_SAMPLES = 17
SLOPE_SLACK = 0.25
SMOOTHING_SLOPE_LIMIT = 0.5 + SLOPE_SLACK
_SCALING_TOL = 1e-12


def is_admissible_triple(p: float, q: float, m: float, n: int) -> bool:
    """Wave (m = 0) or Klein-Gordon (m != 0) scaling admissibility."""
    if p < 2.0 or q < 2.0:
        return False
    if m == 0.0:
        if not math.isfinite(q):
            return False
        lhs = (0.0 if math.isinf(p) else 2.0 / p) + (n - 1) / q
        return abs(lhs - (n - 1) / 2.0) <= _SCALING_TOL
    lhs = (0.0 if math.isinf(p) else 2.0 / p) + (0.0 if math.isinf(q) else n / q)
    return abs(lhs - n / 2.0) <= _SCALING_TOL


@dataclass(frozen=True)
class ExponentTriple:
    """Exponent pair (p, q) with the derived regularity s = 1/q - 1/p.

    Admissibility depends on the mass and dimension of the flow the pair is
    measured on, so they come from the caller.
    """

    p: float
    q: float

    @property
    def s(self) -> float:
        return 1.0 / self.q - (0.0 if math.isinf(self.p) else 1.0 / self.p)

    def require_admissible(self, m: float, n: int):
        if not is_admissible_triple(self.p, self.q, m, n):
            raise ContractViolationError(
                f"triple (p={self.p}, q={self.q}) is not admissible for m={m} in n={n}")


def _time_weights(times: np.ndarray) -> np.ndarray:
    """Trapezoid weights for the sampled window."""
    w = np.zeros_like(times)
    d = np.diff(times)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


def _check_causal(traj: SpinorTrajectory) -> None:
    """Refuse a window of fewer than two samples, or one whose first or last
    sample lies past the trajectory's causal limit."""
    if len(traj.times) < 2:
        raise ConfigurationError("a space-time norm needs at least two samples")
    limit = traj.causal_t_max
    t0, t1 = traj.times[0], traj.times[-1]
    if limit is not None and (abs(t0) > limit + 1e-9 or abs(t1) > limit + 1e-9):
        raise PolicyError(f"samples [{t0}, {t1}] exceed the causal limit {limit:g}")


def smoothing_norm(traj: SpinorTrajectory) -> float:
    """Space-time L^2 of r^-1 u over the sampled window, flattened measure dr."""
    _check_causal(traj)
    r = traj.grid.nodes[:, None]
    density = (np.abs(traj.plus) ** 2 + np.abs(traj.minus) ** 2) / r**2
    # one contiguous column per sample, so each radial sum is NumPy's pairwise sum
    densities = traj.grid.dr * np.sum(np.asfortranarray(density), axis=0)
    return float(np.sqrt(np.sum(_time_weights(traj.times) * densities)))


def strichartz_weight(profile: MetricProfile, r: np.ndarray, q: float) -> np.ndarray:
    """(phi/r)^((n-1)/2 (1 - 2/q)) evaluated on the grid, n = profile.n."""
    phi, _, _ = profile.phi_dphi_d2phi(r)
    return (phi / r) ** (0.5 * (profile.n - 1) * (1.0 - 2.0 / q))


def strichartz_norm(traj: SpinorTrajectory, triple: ExponentTriple,
                    calculus: Optional[SobolevCalculus] = None) -> float:
    """Weighted L^p_t W^(s,q) norm of a trajectory, s = 1/q - 1/p.

    The triple must be admissible for the trajectory's own mass and
    dimension, and its samples must lie in the causal window.  ``calculus``
    is the SobolevCalculus of the trajectory's own H0 (its grid and
    dimension), built here if not given; one calculus keeps its resolvent
    pivots for every norm it serves.
    """
    triple.require_admissible(traj.m, traj.profile.n)
    _check_causal(traj)
    h0 = flat_reference_operator(traj.profile.n, traj.grid)
    calc = SobolevCalculus(h0) if calculus is None else calculus
    own = calc.op
    if (own.kind, own.grid, own.profile) != (h0.kind, h0.grid, h0.profile):
        raise ConfigurationError(f"the calculus is of {own.kind} on {own.grid}, not of the "
                                 f"trajectory's H0 on {traj.grid} in n={traj.profile.n}")
    s, q, p, dr = triple.s, triple.q, triple.p, traj.grid.dr
    # a huge amplitude carries eps^(1 - 2/q) in the weight, and |.|^q may overflow:
    # a norm that is not finite is refused, not read as a slope
    with np.errstate(over="ignore", invalid="ignore"):
        weight = strichartz_weight(traj.profile, traj.grid.nodes, q)[:, None]
        mag = _squared_power(calc, weight, traj.plus, s)
        mag += _squared_power(calc, weight, traj.minus, s)
        np.sqrt(mag, out=mag)
        spatial = (dr * np.sum(mag**q, axis=0)) ** (1.0 / q)
        norm = float(np.max(spatial) if math.isinf(p)
                     else np.sum(_time_weights(traj.times) * spatial**p) ** (1.0 / p))
    if not math.isfinite(norm):
        raise NumericalError(f"the L^{p:g}_t W^({s:g},{q:g}) Strichartz norm is not finite")
    return norm


def _squared_power(calc: SobolevCalculus, weight: np.ndarray, comp: np.ndarray,
                   s: float) -> np.ndarray:
    """|calc.apply(weight comp, s)|^2 for one complex N x T component.

    A component that is purely real or purely imaginary, as each component
    of an m = 0 flow of a real datum is, goes through the calculus as that
    real part, and its transform is squared as a real array, with no
    complex copy; the squares are the complex ones, bit for bit.
    """
    re, im = comp.real, comp.imag
    if np.any(re) and np.any(im):
        return np.abs(calc.apply(weight * comp, s)) ** 2
    g = calc.apply(weight * (im if np.any(im) else re), s)
    return np.multiply(g, g, out=g)


@dataclass(frozen=True)
class ModeScanRow:
    mu: float
    strichartz: float
    smoothing: float
    h_half: float
    ratio_strichartz: float
    ratio_smoothing: float
    delta_plus: float
    delta_minus: float


@dataclass(frozen=True)
class NormScanResult:
    """Per-mode norms, ratios, and fitted growth exponents.

    Each ``*_slope_ok`` is ``slope <= limit``, or None when no slope was fitted.
    """

    family: str
    n: int
    p: float
    q: float
    m: float
    epsilon_loss: float
    rows: tuple
    strichartz_slope: Optional[float]
    smoothing_slope: Optional[float]
    strichartz_slope_limit: float
    smoothing_slope_limit: float
    strichartz_slope_ok: Optional[bool]
    smoothing_slope_ok: Optional[bool]


def _fit_slope(abs_mu: np.ndarray, ratios: np.ndarray) -> Optional[float]:
    """Least-squares slope of log ratio against log |mu|; None if degenerate."""
    # min == max rather than np.unique, which loads numpy.ma on NumPy 2.4
    if len(abs_mu) == 0 or abs_mu.min() == abs_mu.max():
        return None
    return float(np.polyfit(np.log(abs_mu), np.log(ratios), 1)[0])


def mu_scan(profile: MetricProfile, triples: Sequence[ExponentTriple],
            mu_list: Sequence[float], data_template: DataTemplate = DataTemplate(),
            grid: Optional[RadialGrid] = None, t_max: float = DEFAULT_T_MAX,
            samples: int = DEFAULT_SAMPLES, m: float = 0.0,
            epsilon_loss: float = DEFAULT_EPSILON_LOSS,
            scan: InfimumScanPolicy = DEFAULT_SCAN_POLICY) -> list[NormScanResult]:
    """Evolve identical radial data per mode and fit the norm-ratio growth.

    Returns one result per triple.  Every triple must be admissible for the
    mass ``m`` in dimension ``profile.n``.  All modes are checked for
    admissibility under ``scan`` in one pass before anything is evolved;
    the scan aborts with the report of the first requested mu that is not
    admissible for the profile.  Each mode is then assembled, evolved and
    smoothing-normed once, and every triple's Strichartz norm is taken on
    that one trajectory.  Modes run one after another, in the order of
    ``mu_list``, which must not list a mode twice.
    """
    if not math.isfinite(m):
        raise ConfigurationError(f"the mass m must be finite, got {m}")
    if samples < 2:
        raise ConfigurationError(f"mu_scan needs at least two time samples, got {samples}")
    if not 0 < t_max < math.inf:
        raise ConfigurationError(f"mu_scan needs a positive, finite t_max, got {t_max}")
    triples = tuple(triples)
    n = profile.n
    for triple in triples:
        triple.require_admissible(m, n)
    seen = set()
    for mu in mu_list:
        if float(mu) in seen:
            raise ConfigurationError(f"mode {mu} is listed twice")
        seen.add(float(mu))
    grid = grid or RadialGrid()
    limit = causal_time_limit(grid.r_max, data_template.support_radius)
    if t_max > limit + 1e-9:
        raise PolicyError(f"t_max={t_max} exceeds the causal limit {limit:g}")
    initial = data_template.realize(grid)
    times = np.linspace(0.0, t_max, samples)
    calc = SobolevCalculus(flat_reference_operator(n, grid))  # one set of pivots
    h_half = calc.norm(initial, 0.5)

    reports = check_admissible(profile, mu_list, scan)
    for mu, report in zip(mu_list, reports):
        if not report.admissible:
            raise NonAdmissibleError(
                f"mu={mu} is not admissible for {profile.family.value}", report)

    def one_mode(mu: float, report) -> list[ModeScanRow]:
        # a function scope, so each trajectory is freed before the next mode evolves
        op = assemble_dirac(profile, mu, m, grid)
        traj = evolve(op, initial, times)
        smoo = smoothing_norm(traj)
        rows = []
        for triple in triples:
            stri = strichartz_norm(traj, triple, calc)
            rows.append(ModeScanRow(
                mu=float(mu), strichartz=stri, smoothing=smoo, h_half=h_half,
                ratio_strichartz=stri / h_half, ratio_smoothing=smoo / h_half,
                delta_plus=report.delta_plus, delta_minus=report.delta_minus,
            ))
        return rows

    per_mode = [one_mode(mu, report) for mu, report in zip(mu_list, reports)]
    abs_mu = np.array([abs(float(mu)) for mu in mu_list])
    results = []
    for k, triple in enumerate(triples):
        rows = tuple(mode_rows[k] for mode_rows in per_mode)
        slope_s = _fit_slope(abs_mu, np.array([row.ratio_strichartz for row in rows]))
        slope_m = _fit_slope(abs_mu, np.array([row.ratio_smoothing for row in rows]))
        p_inv = 0.0 if math.isinf(triple.p) else 1.0 / triple.p
        limit_s = 5.0 * p_inv + epsilon_loss + SLOPE_SLACK
        results.append(NormScanResult(
            family=profile.family.value, n=n, p=triple.p, q=triple.q, m=m,
            epsilon_loss=epsilon_loss, rows=rows,
            strichartz_slope=slope_s, smoothing_slope=slope_m,
            strichartz_slope_limit=limit_s, smoothing_slope_limit=SMOOTHING_SLOPE_LIMIT,
            strichartz_slope_ok=None if slope_s is None else slope_s <= limit_s,
            smoothing_slope_ok=None if slope_m is None else slope_m <= SMOOTHING_SLOPE_LIMIT,
        ))
    return results

