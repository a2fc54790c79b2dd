"""Mode flow exp(-i t h) and its independent flat-space oracle.

The discrete flow is computed exactly (at matrix level) from the cached
eigendecomposition of the assembled Dirac operator, so trajectories are
norm-preserving to roundoff and can be sampled at arbitrary times.  A
Crank-Nicolson stepper covers grids too large for a dense solve.

The flat oracle never touches the discrete operator: initial data are
expanded in the generalized eigenbasis sqrt(rho r) J_a(rho r) by quadrature,
each frequency advances through the exact 2x2 rotation with energy
sqrt(rho^2 + m^2), and the state is reconstructed by Gauss-Legendre
integration in rho.  The component orders are a = |2 mu + 1|/2 for v_plus
and |2 mu - 1|/2 for v_minus, matching the squared potentials
mu(mu+1)/r^2 and mu(mu-1)/r^2 of the flattened system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg
import scipy.special

from .errors import ConfigurationError, UnsupportedFamilyError
from .operators import DiscreteRadialOperator, RadialGrid, real_matmul
from .profiles import Family, MetricProfile

__all__ = ["SpinorState", "SpinorTrajectory", "gaussian_state", "evolve",
           "evolve_crank_nicolson", "FlatBesselOracle", "flat_exact_solution",
           "kg_crosscheck", "causal_time_limit",
           "DEFAULT_BUMP_CENTER", "DEFAULT_BUMP_WIDTH"]

DEFAULT_BUMP_CENTER = 12.0
DEFAULT_BUMP_WIDTH = 1.5
_SUPPORT_SIGMAS = 3.0  # Gaussian support radius = center + 3 widths
_CAUSAL_MARGIN = 2.0
_DENSE_LIMIT = 4096  # largest matrix side for the dense spectral propagator


@dataclass(frozen=True)
class SpinorState:
    """Samples of the two flattened spinor components on a radial grid."""

    grid: RadialGrid
    plus: np.ndarray
    minus: np.ndarray
    support_radius: Optional[float] = None

    def __post_init__(self):
        n = self.grid.n_cells
        if self.plus.shape != (n,) or self.minus.shape != (n,):
            raise ConfigurationError("component length must match the grid")
        if not (np.all(np.isfinite(self.plus)) and np.all(np.isfinite(self.minus))):
            raise ConfigurationError("spinor samples must be finite")

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.plus, self.minus]).astype(complex)

    @classmethod
    def from_vector(cls, grid: RadialGrid, vec: np.ndarray,
                    support_radius: Optional[float] = None) -> "SpinorState":
        n = grid.n_cells
        return cls(grid=grid, plus=vec[:n].copy(), minus=vec[n:].copy(),
                   support_radius=support_radius)

    def norm(self) -> float:
        """L^2(dr) norm under the flattened measure."""
        return float(np.sqrt(self.grid.dr
                             * (np.sum(np.abs(self.plus) ** 2)
                                + np.sum(np.abs(self.minus) ** 2))))

    def scaled(self, factor: complex) -> "SpinorState":
        return SpinorState(grid=self.grid, plus=factor * self.plus,
                           minus=factor * self.minus,
                           support_radius=self.support_radius)


@dataclass(frozen=True)
class SpinorTrajectory:
    """Time samples of one mode flow, immutable after creation."""

    times: np.ndarray
    states: tuple
    profile: MetricProfile
    mu: float
    m: float
    n: int
    causal_t_max: Optional[float] = None

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ConfigurationError("times and states must align")
        if np.any(np.diff(self.times) <= 0):
            raise ConfigurationError("times must be strictly increasing")

    @property
    def grid(self) -> RadialGrid:
        return self.states[0].grid

    def block(self, component: str) -> np.ndarray:
        """N x T samples of one component ("plus" or "minus"), one column per time."""
        return np.stack([getattr(state, component) for state in self.states], axis=1)


def causal_time_limit(r_max: float, support_radius: float) -> float:
    """Largest |t| that stays reflection-free: r_max - R_support - 2."""
    return r_max - support_radius - _CAUSAL_MARGIN


def gaussian_state(grid: RadialGrid, center: float = DEFAULT_BUMP_CENTER,
                   width: float = DEFAULT_BUMP_WIDTH, amplitude: float = 1.0,
                   component: str = "plus") -> SpinorState:
    """Gaussian bump in one component, zero in the other."""
    if component not in ("plus", "minus"):
        raise ConfigurationError("component must be 'plus' or 'minus'")
    bump = amplitude * np.exp(-((grid.nodes - center) / width) ** 2)
    zero = np.zeros(grid.n_cells)
    plus, minus = (bump, zero) if component == "plus" else (zero, bump)
    return SpinorState(grid=grid, plus=plus.astype(complex),
                       minus=minus.astype(complex),
                       support_radius=center + _SUPPORT_SIGMAS * width)


def evolve(op: DiscreteRadialOperator, initial: SpinorState,
           times: Sequence[float]) -> SpinorTrajectory:
    """Sample exp(-i t h) initial at the requested times.

    Dense spectral propagation when the matrix fits, Crank-Nicolson
    otherwise.  The spectral path computes every sample at once as
    u (exp(-i w t^T) * u^T v0) and is exactly unitary up to roundoff; a
    sample at t = 0 is the initial vector itself.
    """
    if op.kind != "dirac":
        raise ConfigurationError("evolve needs a Dirac-mode operator")
    if initial.grid != op.grid:
        raise ConfigurationError("initial data grid does not match the operator")
    times = np.asarray(times, dtype=float)
    if op.matrix.shape[0] > _DENSE_LIMIT:
        return evolve_crank_nicolson(op, initial, times)
    w, u = op.eigh()
    v0 = initial.as_vector()
    coeff = real_matmul(u.T, v0[:, None])
    vecs = real_matmul(u, np.exp(-1j * np.outer(w, times)) * coeff)
    vecs[:, times == 0.0] = v0[:, None]
    states = tuple(SpinorState.from_vector(op.grid, vecs[:, k],
                                           support_radius=initial.support_radius)
                   for k in range(len(times)))
    causal = None
    if initial.support_radius is not None:
        causal = causal_time_limit(op.grid.r_max, initial.support_radius)
    return SpinorTrajectory(times=times, states=states, profile=op.profile,
                            mu=op.mu, m=op.m, n=op.n, causal_t_max=causal)


def evolve_crank_nicolson(op: DiscreteRadialOperator, initial: SpinorState,
                          times: Sequence[float], dt: float = 0.005) -> SpinorTrajectory:
    """Unitary Cayley stepper for grids beyond the dense eigensolver."""
    times = np.asarray(times, dtype=float)
    if np.any(times < 0.0):
        raise ConfigurationError("Crank-Nicolson path only steps forward in time")
    h = op.matrix
    ident = np.eye(h.shape[0])
    lhs = scipy.linalg.lu_factor(ident + 0.5j * dt * h)
    rhs = ident - 0.5j * dt * h
    vec = initial.as_vector()
    t_now = 0.0
    states = []
    for t in times:
        steps = int(round((t - t_now) / dt))
        for _ in range(steps):
            vec = scipy.linalg.lu_solve(lhs, rhs @ vec)
        t_now += steps * dt
        states.append(SpinorState.from_vector(op.grid, vec,
                                              support_radius=initial.support_radius))
    causal = None
    if initial.support_radius is not None:
        causal = causal_time_limit(op.grid.r_max, initial.support_radius)
    return SpinorTrajectory(times=times, states=tuple(states), profile=op.profile,
                            mu=op.mu, m=op.m, n=op.n, causal_t_max=causal)


def bessel_orders(mu: float) -> tuple[float, float]:
    """(order for v_plus, order for v_minus) of the flat radial channels."""
    return abs(2.0 * mu + 1.0) / 2.0, abs(2.0 * mu - 1.0) / 2.0


class FlatBesselOracle:
    """Exact flat-space mode flow through half-line Bessel transforms.

    Forward transforms use midpoint quadrature on the grid (spectrally
    accurate for data supported away from both ends); reconstruction uses
    Gauss-Legendre nodes on [0, rho_max].
    """

    def __init__(self, mu: float, m: float, n: int, grid: RadialGrid,
                 rho_max: float = 20.0, n_rho: int = 1200):
        if mu == 0.0:
            raise ConfigurationError("mu must be nonzero")
        if n < 3:
            raise ConfigurationError("dimension n must be >= 3")
        self.mu, self.m, self.n, self.grid = mu, m, n, grid
        nodes, weights = np.polynomial.legendre.leggauss(n_rho)
        self.rho = 0.5 * rho_max * (nodes + 1.0)
        self.w_rho = 0.5 * rho_max * weights
        a_plus, a_minus = bessel_orders(mu)
        x = np.outer(self.rho, grid.nodes)
        root = np.sqrt(x)
        self._b_plus = root * scipy.special.jv(a_plus, x)
        self._b_minus = root * scipy.special.jv(a_minus, x)
        self.coupling_sign = 1.0 if mu > 0 else -1.0

    def _forward(self, state: SpinorState) -> tuple[np.ndarray, np.ndarray]:
        dr = self.grid.dr
        return dr * (self._b_plus @ state.plus), dr * (self._b_minus @ state.minus)

    def _inverse(self, hat_plus: np.ndarray, hat_minus: np.ndarray) -> SpinorState:
        plus = self._b_plus.T @ (self.w_rho * hat_plus)
        minus = self._b_minus.T @ (self.w_rho * hat_minus)
        return SpinorState(grid=self.grid, plus=plus, minus=minus)

    def propagate(self, initial: SpinorState, t: float) -> SpinorState:
        """Advance by the exact per-frequency rotation of the coupled system."""
        p0, m0 = self._forward(initial)
        omega = np.sqrt(self.rho**2 + self.m**2)
        cos = np.cos(omega * t)
        sinc = np.where(omega > 0.0, np.sin(omega * t) / np.where(omega > 0, omega, 1.0), t)
        s = self.coupling_sign
        pt = cos * p0 - 1j * sinc * (self.m * p0 + s * self.rho * m0)
        mt = cos * m0 - 1j * sinc * (s * self.rho * p0 - self.m * m0)
        out = self._inverse(pt, mt)
        return SpinorState(grid=self.grid, plus=out.plus, minus=out.minus,
                           support_radius=initial.support_radius)


def flat_exact_solution(mu: float, m: float, n: int, initial: SpinorState,
                        t: float, profile: Optional[MetricProfile] = None,
                        rho_max: float = 20.0, n_rho: int = 1200) -> SpinorState:
    """One-shot oracle evaluation; accepts only the flat profile."""
    if profile is not None and profile.family is not Family.FLAT:
        raise UnsupportedFamilyError("exact solution exists for the flat profile only")
    oracle = FlatBesselOracle(mu, m, n, initial.grid, rho_max=rho_max, n_rho=n_rho)
    return oracle.propagate(initial, t)


def kg_crosscheck(traj: SpinorTrajectory, kg_minus: DiscreteRadialOperator,
                  kg_plus: DiscreteRadialOperator) -> float:
    """Residual of the second-order form along a uniformly sampled trajectory.

    max over interior times of || D_t^2 v_pm + K v_pm || / || v_pm || with
    the centered time second difference and K the matching Klein-Gordon
    matrix (v_plus pairs with kg_minus).  O(dt^2) under refinement.
    """
    times = traj.times
    if len(times) < 3:
        raise ConfigurationError("need at least 3 time samples")
    dts = np.diff(times)
    dt = dts[0]
    if not np.allclose(dts, dt, rtol=1e-10, atol=1e-12):
        raise ConfigurationError("kg_crosscheck needs uniform time samples")
    nn = traj.grid.n_cells
    for kg in (kg_minus, kg_plus):
        if kg.matrix.shape != (nn, nn):
            raise ConfigurationError("Klein-Gordon matrix does not match the grid")
    worst = 0.0
    for comp, kg in (("plus", kg_minus), ("minus", kg_plus)):
        block = traj.block(comp)
        here = block[:, 1:-1]
        dtt = (block[:, 2:] - 2.0 * here + block[:, :-2]) / dt**2
        num = np.linalg.norm(dtt + real_matmul(kg.matrix, here), axis=0)
        denom = np.linalg.norm(here, axis=0)
        keep = denom != 0.0
        worst = max(worst, float(np.max(num[keep] / denom[keep], initial=0.0)))
    return worst
