"""Space-time norms, admissible exponents, and growth-in-mu scans.

Fractional Sobolev norms are defined once and for all through the flat
flattened reference operator: ||(1 + H0)^(s/2) v||, with H0 the discrete
flat radial Laplacian, by a DST-I for n = 3 and an eigenbasis otherwise
(SobolevCalculus).  Strichartz norms weight the state pointwise by
(phi/r)^((n-1)/2 (1 - 2/q)) before the fractional power, take l^q(dr) in
space and L^p (trapezoid over the causal window) in time.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .admissibility import check_admissible
from .errors import ConfigurationError, ContractViolationError, NonAdmissibleError, PolicyError
from .evolution import (DEFAULT_BUMP_CENTER, DEFAULT_BUMP_WIDTH, SpinorState,
                        SpinorTrajectory, causal_time_limit, check_bump, evolve,
                        gaussian_state)
from .operators import RadialGrid, assemble_dirac, flat_reference_operator, real_matmul
from .profiles import MetricProfile
from .scan import DEFAULT_SCAN_POLICY, InfimumScanPolicy

__all__ = ["ExponentTriple", "is_admissible_triple", "SobolevCalculus",
           "smoothing_norm", "strichartz_norm",
           "DataTemplate", "ModeScanRow", "NormScanResult", "mu_scan",
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


class SobolevCalculus:
    """Fractional calculus of (1 + H0) on one grid.

    For n = 3, H0 is the plain Dirichlet second difference, whose
    orthonormal eigenbasis is exactly the DST-I (Strang, SIAM Review 41
    (1999) 135): eigenvalues (2 sin(pi k / (2 (N + 1))) / dr)^2 and
    eigenvectors sqrt(2 / (N + 1)) sin(pi j k / (N + 1)), j, k = 1..N.  So
    the calculus needs no eigensolve and no N x N array.  For other n, H0
    carries (n-1)(n-3)/(4 r^2), and the eigenbasis comes from one
    eigh_tridiagonal per calculus; share one calculus to share it.
    """

    def __init__(self, grid: RadialGrid, n: int):
        if n < 3:
            raise ConfigurationError(f"dimension n must be >= 3, got {n}")
        self.grid, self.n = grid, n
        if n == 3:
            k = np.arange(1, grid.n_cells + 1)
            self._w = (2.0 * np.sin(0.5 * np.pi * k / (grid.n_cells + 1)) / grid.dr) ** 2
            self._u = None
        else:
            self._w, self._u = flat_reference_operator(n, grid).eigh()

    def powers(self, s: float) -> np.ndarray:
        """(1 + w)^(s/2) for the ascending eigenvalues w of H0."""
        return np.maximum(1.0 + self._w, 0.0) ** (s / 2.0)

    def coefficients(self, block: np.ndarray) -> np.ndarray:
        """U^T block: each column of a real or complex N x K block in the eigenbasis."""
        return _dst1(block) if self._u is None else real_matmul(self._u.T, block)

    def apply(self, v: np.ndarray, s: float) -> np.ndarray:
        """(1 + H0)^(s/2) v by spectral calculus, for a vector or an N x T block.

        A complex block goes through every transform as its real and
        imaginary parts side by side (the DST-I skips a part that is all
        zero), so the eigenbasis is never cast to complex.
        """
        block = self.powers(s)[:, None] * self.coefficients(v.reshape(len(self._w), -1))
        out = _dst1(block) if self._u is None else real_matmul(self._u, block)
        return out.reshape(v.shape)

    def norm(self, state: SpinorState, s: float) -> float:
        if state.grid != self.grid:
            raise ConfigurationError(f"the calculus is for {self.grid}, the state on {state.grid}")
        gp = self.apply(state.plus, s)
        gm = self.apply(state.minus, s)
        return float(np.sqrt(state.grid.dr
                             * (np.sum(np.abs(gp) ** 2) + np.sum(np.abs(gm) ** 2))))


def _dst1(block: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I of each column of a real or complex N x K block.

    sum_j x_j sin(pi j k / (N + 1)) is -Im/2 of the FFT of the odd extension
    [0, x, 0, -reversed x] of length 2 (N + 1); scaled by sqrt(2 / (N + 1)),
    the transform is orthonormal and its own inverse.  A complex block's
    real and imaginary parts go through one FFT side by side, and a part
    that is all zero is not transformed (at m = 0 a flow's v_plus is real
    and its v_minus imaginary); the FFT treats each column alone, so the
    result is the joint transform's, bit for bit.
    """
    if np.iscomplexobj(block):
        re, im = block.real, block.imag
        if not np.any(im):
            return _dst1(re) + 0j
        if not np.any(re):
            return 1j * _dst1(im)
        cols = block.shape[1]
        out = _dst1(np.hstack([re, im]))
        return out[:, :cols] + 1j * out[:, cols:]
    nn = len(block)
    ext = np.zeros((2 * (nn + 1), block.shape[1]))
    ext[1:nn + 1] = block
    ext[nn + 2:] = -block[::-1]
    return -np.sqrt(0.5 / (nn + 1)) * np.fft.rfft(ext, axis=0)[1:nn + 1].imag


def _time_weights(times: np.ndarray) -> np.ndarray:
    """Trapezoid weights for the sampled window."""
    w = np.zeros_like(times)
    d = np.diff(times)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


def _check_causal(traj: SpinorTrajectory, t0: float, t1: float) -> None:
    """Refuse a window [t0, t1] that reaches past the trajectory's causal limit."""
    limit = traj.causal_t_max
    if limit is not None and (abs(t0) > limit + 1e-9 or abs(t1) > limit + 1e-9):
        raise PolicyError(f"window [{t0}, {t1}] exceeds the causal limit {limit:g}")


def smoothing_norm(traj: SpinorTrajectory, window: tuple[float, float]) -> float:
    """Space-time L^2 of r^-1 u over the window, flattened measure dr."""
    t0, t1 = window
    if t1 <= t0:
        raise ConfigurationError("window must have positive length")
    _check_causal(traj, t0, t1)
    mask = (traj.times >= t0 - 1e-12) & (traj.times <= t1 + 1e-12)
    if np.count_nonzero(mask) < 2:
        raise ConfigurationError("window must contain at least two samples")
    times = traj.times[mask]
    r = traj.grid.nodes[:, None]
    density = (np.abs(traj.block("plus")) ** 2 + np.abs(traj.block("minus")) ** 2) / r**2
    densities = traj.grid.dr * np.sum(density[:, mask], axis=0)
    return float(np.sqrt(np.sum(_time_weights(times) * densities)))


def strichartz_weight(profile: MetricProfile, r: np.ndarray, q: float) -> np.ndarray:
    """(phi/r)^((n-1)/2 (1 - 2/q)) evaluated on the grid, n = profile.n."""
    phi, _, _ = profile.phi_dphi_d2phi(r)
    return (phi / r) ** (0.5 * (profile.n - 1) * (1.0 - 2.0 / q))


def strichartz_norm(traj: SpinorTrajectory, triple: ExponentTriple,
                    calculus: Optional[SobolevCalculus] = None) -> float:
    """Weighted L^p_t W^(s,q) norm of a trajectory, s = 1/q - 1/p.

    The triple must be admissible for the trajectory's own mass and
    dimension, and its samples must lie in the causal window.  ``calculus``
    is the SobolevCalculus of the trajectory's grid and dimension, built
    here if not given.
    """
    triple.require_admissible(traj.m, traj.profile.n)
    _check_causal(traj, traj.times[0], traj.times[-1])
    calc = SobolevCalculus(traj.grid, traj.profile.n) if calculus is None else calculus
    if calc.grid != traj.grid or calc.n != traj.profile.n:
        raise ConfigurationError(f"the calculus is for {calc.grid} in n={calc.n}, the "
                                 f"trajectory for {traj.grid} in n={traj.profile.n}")
    s = triple.s
    q = triple.q
    r = traj.grid.nodes
    dr = traj.grid.dr
    weight = strichartz_weight(traj.profile, r, q)[:, None]
    gp = calc.apply(weight * traj.block("plus"), s)
    gm = calc.apply(weight * traj.block("minus"), s)
    mag = np.sqrt(np.abs(gp) ** 2 + np.abs(gm) ** 2)
    spatial = (dr * np.sum(mag**q, axis=0)) ** (1.0 / q)
    if math.isinf(triple.p):
        return float(np.max(spatial))
    return float(np.sum(_time_weights(traj.times) * spatial**triple.p)
                 ** (1.0 / triple.p))


@dataclass(frozen=True)
class DataTemplate:
    """Shared radial initial data used across a mu scan."""

    center: float = DEFAULT_BUMP_CENTER
    width: float = DEFAULT_BUMP_WIDTH
    amplitude: float = 1.0
    component: str = "plus"

    def __post_init__(self):
        check_bump(self.center, self.width, self.amplitude)

    def realize(self, grid: RadialGrid) -> SpinorState:
        return gaussian_state(grid, self.center, self.width, self.amplitude,
                              self.component)


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
    """Per-mode norms, ratios, and fitted growth exponents."""

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

    @property
    def strichartz_slope_ok(self) -> Optional[bool]:
        if self.strichartz_slope is None:
            return None
        return self.strichartz_slope <= self.strichartz_slope_limit

    @property
    def smoothing_slope_ok(self) -> Optional[bool]:
        if self.smoothing_slope is None:
            return None
        return self.smoothing_slope <= self.smoothing_slope_limit

    def to_dict(self) -> dict:
        return {**asdict(self), "strichartz_slope_ok": self.strichartz_slope_ok,
                "smoothing_slope_ok": self.smoothing_slope_ok}


def _fit_slope(abs_mu: np.ndarray, ratios: np.ndarray) -> Optional[float]:
    """Least-squares slope of log ratio against log |mu|; None if degenerate."""
    if len(np.unique(abs_mu)) < 2:
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
    triples = tuple(triples)
    n = profile.n
    for triple in triples:
        triple.require_admissible(m, n)
    if samples < 2:
        raise ConfigurationError(f"mu_scan needs at least two time samples, got {samples}")
    if not 0 < t_max < math.inf:
        raise ConfigurationError(f"mu_scan needs a positive, finite t_max, got {t_max}")
    seen = set()
    for mu in mu_list:
        if float(mu) in seen:
            raise ConfigurationError(f"mode {mu} is listed twice")
        seen.add(float(mu))
    grid = grid or RadialGrid()
    initial = data_template.realize(grid)
    limit = causal_time_limit(grid.r_max, initial.support_radius)
    if t_max > limit + 1e-9:
        raise PolicyError(f"t_max={t_max} exceeds the causal limit {limit:g}")
    times = np.linspace(0.0, t_max, samples)
    calc = SobolevCalculus(grid, n)  # one eigenbasis per scan when n != 3
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
        smoo = smoothing_norm(traj, (0.0, t_max))
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
        results.append(NormScanResult(
            family=profile.family.value, n=n, p=triple.p, q=triple.q, m=m,
            epsilon_loss=epsilon_loss, rows=rows,
            strichartz_slope=slope_s, smoothing_slope=slope_m,
            strichartz_slope_limit=5.0 * p_inv + epsilon_loss + SLOPE_SLACK,
            smoothing_slope_limit=SMOOTHING_SLOPE_LIMIT,
        ))
    return results

