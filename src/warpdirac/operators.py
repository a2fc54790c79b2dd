"""Discrete radial operators on the flattened half-line.

Everything is conjugated by r^((n-1)/2) so the mode operators act on plain
L^2(dr): the Dirac block form becomes

    h = [[ m, -d/dr + V ],
         [ d/dr + V, -m ]],      V = mu / phi,

and its square decouples into  diag(m^2 - d2/dr2 + V^2 - V',
                                    m^2 - d2/dr2 + V^2 + V').

The first derivative uses the centered antisymmetric stencil so the two
off-diagonal blocks are exact transposes and h is exactly symmetric; the
Klein-Gordon side uses the standard 3-point second difference.  The grid is
cell-centered, r_i = (i + 1/2) dr, so V is never evaluated at r = 0, with an
effective Dirichlet truncation at r_max.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .admissibility import ModePotential
from .errors import ConfigurationError, GridTooCoarseError, NumericalError
from .profiles import MetricProfile

__all__ = ["RadialGrid", "DiscreteRadialOperator", "sigma",
           "assemble_dirac", "assemble_kg", "flat_reference_operator",
           "weighted_laplacian_operator", "verify_square", "factorization_check",
           "norm_equivalence_check", "probe_functions",
           "DEFAULT_R_MAX", "DEFAULT_N_CELLS"]

DEFAULT_R_MAX = 40.0
DEFAULT_N_CELLS = 2048
MIN_CELLS = 16  # fewest cells of any grid
_BOUNDARY_SKIN = 4  # cells dropped at each end in stencil-mismatch residuals


@dataclass(frozen=True)
class RadialGrid:
    """Cell-centered uniform grid on (0, r_max]."""

    r_max: float = DEFAULT_R_MAX
    n_cells: int = DEFAULT_N_CELLS

    def __post_init__(self):
        if self.r_max <= 0:
            raise ConfigurationError("r_max must be positive")
        if self.n_cells < MIN_CELLS:
            raise GridTooCoarseError(
                f"grid needs at least {MIN_CELLS} cells, got {self.n_cells}")

    @property
    def dr(self) -> float:
        return self.r_max / self.n_cells

    @property
    def nodes(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.dr


class DiscreteRadialOperator:
    """Hermitian flattened radial operator, stored by its bands in O(N) memory.

    ``kind`` is one of _KINDS and ``potential`` its potential on the nodes.
    A Dirac operator is [[m, -d/dr + V], [d/dr + V, -m]] (first block v_plus)
    with the centered antisymmetric d/dr; every other kind is the 3-point
    -d2/dr2 plus its potential, a symmetric tridiagonal matrix.  ``apply``
    works on the bands; the dense ``matrix`` is assembled on each access.
    """

    def __init__(self, grid: RadialGrid, kind: str, potential: np.ndarray,
                 profile: Optional[MetricProfile] = None, mu: Optional[float] = None,
                 m: Optional[float] = None):
        if kind not in _KINDS or np.shape(potential) != grid.nodes.shape or (
                kind == "dirac" and m is None):
            raise ConfigurationError(f"bad {kind} operator: need a potential per node (and m)")
        self.grid, self.kind, self.potential = grid, kind, potential
        self.profile, self.mu, self.m = profile, mu, m
        self._eig: Optional[tuple] = None

    def _tridiagonal(self) -> tuple[np.ndarray, np.ndarray]:
        """(diagonal, off-diagonal) of a second-difference kind."""
        dr2 = self.grid.dr ** 2
        return 2.0 / dr2 + self.potential, np.full(self.grid.n_cells - 1, -1.0 / dr2)

    @property
    def matrix(self) -> np.ndarray:
        """Dense matrix, assembled from the bands on every access."""
        if self.kind != "dirac":
            d, e = self._tridiagonal()
            return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        e = np.full(self.grid.n_cells - 1, 1.0 / (2.0 * self.grid.dr))
        b = np.diag(self.potential) - np.diag(e, 1) + np.diag(e, -1)  # -d/dr + V
        mass = self.m * np.eye(self.grid.n_cells)
        return np.block([[mass, b], [b.T, -mass]])

    def apply(self, block: np.ndarray) -> np.ndarray:
        """The operator times a real or complex vector or column block, from the bands."""
        x = np.asarray(block)
        rows = x.reshape(len(x), -1).T  # one row per column of the block
        out = np.empty(rows.shape, dtype=np.result_type(rows, self.potential))
        if self.kind == "dirac":
            dirac_band_product(rows, self.potential, 0.5 / self.grid.dr, self.m, out)
        else:
            d, e = self._tridiagonal()
            np.multiply(rows, d, out=out)
            out[:, 1:] += e * rows[:, :-1]
            out[:, :-1] += e * rows[:, 1:]
        return out.T.reshape(x.shape)

    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached (ascending eigenvalues, orthonormal columns) of a tridiagonal kind."""
        if self.kind == "dirac":
            raise ConfigurationError("eigh takes a tridiagonal kind, not a Dirac operator")
        if self._eig is None:
            import scipy.linalg

            try:
                self._eig = scipy.linalg.eigh_tridiagonal(*self._tridiagonal())
            except scipy.linalg.LinAlgError as exc:  # pragma: no cover
                raise NumericalError(f"eigendecomposition failed: {exc}") from exc
        return self._eig


_KINDS = ("dirac", "kg_plus", "kg_minus", "flat_shift", "weighted_laplacian")


def dirac_band_product(x: np.ndarray, v: np.ndarray, e: float, mass: float,
                       out: np.ndarray) -> None:
    """out = [[mass, v - e D], [v + e D, -mass]] x on (rows, 2N) blocks.

    (D y)_i = y_(i+1) - y_(i-1) with zero extension, so e = 1/(2 dr) gives
    the Dirac operator; its Chebyshev step passes the bands scaled by 2/rho.
    """
    nn = len(v)
    p, q = x[:, :nn], x[:, nn:]
    out_p, out_q = out[:, :nn], out[:, nn:]
    np.multiply(q, v, out=out_p)
    np.multiply(p, v, out=out_q)
    out_p[:, :-1] -= e * q[:, 1:]
    out_p[:, 1:] += e * q[:, :-1]
    out_q[:, :-1] += e * p[:, 1:]
    out_q[:, 1:] -= e * p[:, :-1]
    if mass:
        out_p += mass * p
        out_q -= mass * q


def check_kg_pair(mode, kg_minus: DiscreteRadialOperator,
                  kg_plus: DiscreteRadialOperator) -> None:
    """Raise unless the Klein-Gordon pair has the grid and mode of ``mode``,
    a Dirac operator or a trajectory."""
    key = (mode.grid, mode.profile, mode.mu, mode.m)
    for kg, kind in ((kg_minus, "kg_minus"), (kg_plus, "kg_plus")):
        if kg.kind != kind or (kg.grid, kg.profile, kg.mu, kg.m) != key:
            raise ConfigurationError(
                f"operator mismatch: expected {kind} on the same mode/grid")


def real_matmul(a: np.ndarray, block: np.ndarray) -> np.ndarray:
    """a @ block for a real matrix ``a`` and a real or complex N x K block.

    A complex block's real and imaginary parts go through one real GEMM side
    by side, so ``a`` is never cast to complex (NumPy would otherwise copy
    the whole matrix to complex on every call).
    """
    if not np.iscomplexobj(block):
        return a @ block
    cols = block.shape[1]
    out = a @ np.hstack([block.real, block.imag])
    return out[:, :cols] + 1j * out[:, cols:]


def sigma(profile: MetricProfile, r):
    """(sigma, sigma') with sigma = r/phi, continued by sigma(0) = 1.

    sigma'(0) = -phi''(0)/2; elsewhere sigma' = (1/r - phi'/phi) sigma.
    """
    arr = np.asarray(r, dtype=float)
    scalar = np.isscalar(r) or arr.ndim == 0
    arr = np.atleast_1d(arr)
    phi, dphi, d2phi = profile.phi_dphi_d2phi(arr)
    s = np.empty_like(arr)
    sp = np.empty_like(arr)
    pos = arr > 0.0
    s[pos] = arr[pos] / phi[pos]
    sp[pos] = (1.0 / arr[pos] - dphi[pos] / phi[pos]) * s[pos]
    s[~pos] = 1.0
    _, _, d2_at_0 = profile.phi_dphi_d2phi(np.array([0.0]))
    sp[~pos] = -0.5 * d2_at_0[0]
    if scalar:
        return float(s[0]), float(sp[0])
    return s, sp


def assemble_dirac(profile: MetricProfile, mu: float, m: float,
                   grid: RadialGrid) -> DiscreteRadialOperator:
    """Flattened mode Dirac operator [[m, -d/dr + V], [d/dr + V, -m]]."""
    pot = ModePotential(profile=profile, mu=mu)
    return DiscreteRadialOperator(grid=grid, kind="dirac", potential=pot.V(grid.nodes),
                                  profile=profile, mu=mu, m=m)


def assemble_kg(profile: MetricProfile, mu: float, m: float,
                sign: int, grid: RadialGrid) -> DiscreteRadialOperator:
    """Flattened Klein-Gordon operator m^2 - d2/dr2 + V^2 + sign V'."""
    if sign not in (+1, -1):
        raise ConfigurationError("sign must be +1 or -1")
    pot = ModePotential(profile=profile, mu=mu)
    r = grid.nodes
    kind = "kg_plus" if sign > 0 else "kg_minus"
    return DiscreteRadialOperator(grid=grid, kind=kind,
                                  potential=pot.V(r) ** 2 + sign * pot.V_prime(r) + m * m,
                                  profile=profile, mu=mu, m=m)


def flat_reference_operator(n: int, grid: RadialGrid) -> DiscreteRadialOperator:
    """Flattened flat radial Laplacian H0 = -d2/dr2 + (n-1)(n-3)/(4 r^2)."""
    r = grid.nodes
    return DiscreteRadialOperator(grid=grid, kind="flat_shift",
                                  potential=(n - 1) * (n - 3) / (4.0 * r**2))


def weighted_laplacian_operator(profile: MetricProfile,
                                grid: RadialGrid) -> DiscreteRadialOperator:
    """Flattened phi-weighted radial Laplacian.

    Conjugating -phi^(1-n) d(phi^(n-1) d .) by phi^((n-1)/2) gives
    -d2/dr2 + k(k-1)(phi'/phi)^2 + k phi''/phi with k = (n-1)/2.
    """
    r = grid.nodes
    phi, dphi, d2phi = profile.phi_dphi_d2phi(r)
    k = (profile.n - 1) / 2.0
    w = k * (k - 1.0) * (dphi / phi) ** 2 + k * d2phi / phi
    return DiscreteRadialOperator(grid=grid, kind="weighted_laplacian", potential=w,
                                  profile=profile)


def probe_functions(grid: RadialGrid, count: int = 5) -> np.ndarray:
    """Fixed family of smooth interior bumps used by residual checks.

    Columns are Gaussians with centers on [0.25, 0.65] r_max and widths
    scaled to r_max, so they vanish at both boundaries to double precision.
    """
    r = grid.nodes
    centers = np.linspace(0.25, 0.65, count) * grid.r_max
    widths = np.linspace(0.035, 0.06, count) * grid.r_max
    return np.exp(-((r[:, None] - centers) / widths) ** 2)


def _interior(vcols: np.ndarray) -> np.ndarray:
    return vcols[_BOUNDARY_SKIN:-_BOUNDARY_SKIN, :]


def _square_defect(dirac: DiscreteRadialOperator, kg_minus: DiscreteRadialOperator,
                   kg_plus: DiscreteRadialOperator, top: np.ndarray, bottom: np.ndarray):
    """Per component, (h^2 - diag(K-, K+)) [top; bottom] and diag(K-, K+) [top; bottom]."""
    nn = dirac.grid.n_cells
    hh = dirac.apply(dirac.apply(np.vstack([top, bottom])))
    kk = (kg_minus.apply(top), kg_plus.apply(bottom))
    return (hh[:nn] - kk[0], hh[nn:] - kk[1]), kk


def verify_square(dirac: DiscreteRadialOperator,
                  kg_minus: DiscreteRadialOperator,
                  kg_plus: DiscreteRadialOperator) -> float:
    """Consistency residual of h^2 = diag(KG_minus, KG_plus).

    The identity cannot hold entrywise between inequivalent stencils, so the
    residual is measured on the fixed smooth probe family: Frobenius norm of
    (h^2 - diag(K-, K+)) P over interior cells, relative to diag(K-, K+) P.
    Second-order decay in dr is the contract.
    """
    check_kg_pair(dirac, kg_minus, kg_plus)
    p = probe_functions(dirac.grid)
    res, kp = _square_defect(dirac, kg_minus, kg_plus, p, p[:, ::-1])
    num = np.linalg.norm(_interior(res[0])) ** 2 + np.linalg.norm(_interior(res[1])) ** 2
    den = np.linalg.norm(_interior(kp[0])) ** 2 + np.linalg.norm(_interior(kp[1])) ** 2
    return float(np.sqrt(num / den))


def factorization_check(profile: MetricProfile, mu: float,
                        grid: RadialGrid) -> tuple[float, float]:
    """Residuals of V_- V_+ = KG_minus and V_+ V_- = KG_plus.

    V_pm are the flattened first-order factors V +- d/dr, and the massless
    Dirac operator squares to diag(V_- V_+, V_+ V_-), so both products come
    from applying it twice.  The identity is mass-free, so it takes no mass:
    both sides are compared without the m^2 shift.
    """
    dirac = assemble_dirac(profile, mu, 0.0, grid)
    kg_m = assemble_kg(profile, mu, 0.0, -1, grid)
    kg_p = assemble_kg(profile, mu, 0.0, +1, grid)
    p = probe_functions(grid)
    res, kp = _square_defect(dirac, kg_m, kg_p, p, p)
    res_minus, res_plus = (float(np.linalg.norm(_interior(r)) / np.linalg.norm(_interior(k)))
                           for r, k in zip(res, kp))
    return res_minus, res_plus


def _random_bump(rng: np.random.Generator, grid: RadialGrid) -> np.ndarray:
    """Random smooth function supported well inside the grid."""
    r = grid.nodes
    out = np.zeros_like(r)
    for _ in range(rng.integers(1, 4)):
        c = rng.uniform(0.2 * grid.r_max, 0.6 * grid.r_max)
        w = rng.uniform(0.03 * grid.r_max, 0.08 * grid.r_max)
        out += rng.uniform(-1.0, 1.0) * np.exp(-((r - c) / w) ** 2)
    if np.linalg.norm(out) == 0.0:  # pragma: no cover
        out += np.exp(-((r - 0.4 * grid.r_max) / (0.05 * grid.r_max)) ** 2)
    return out


def norm_equivalence_check(profile: MetricProfile, exponents: Sequence[float],
                           trials: int = 100, grid: Optional[RadialGrid] = None,
                           seed: int = 0) -> list[tuple[float, float]]:
    """Empirical two-sided H^s ratios between phi-weighted and flat norms.

    Multiplication by sigma^((n-1)/2) maps the flat-measure H^s onto the weighted
    one; in flattened variables both norms act on the same vector, through
    (1 + A_phi)^(s/2) and (1 + H0)^(s/2) respectively, the latter by the
    one flat Sobolev calculus (estimates.SobolevCalculus).  Returns one pair
    (max ratio, max inverse ratio) over the random trials per exponent s;
    both spectral transforms of the seeded bumps are shared by all.
    """
    from .estimates import SobolevCalculus  # estimates imports this module

    for expo in exponents:
        if not 0.0 <= expo <= 1.0:
            raise ConfigurationError(f"s must be in [0, 1], got {expo}")
    grid = grid or RadialGrid()
    w_phi, u_phi = weighted_laplacian_operator(profile, grid).eigh()
    flat = SobolevCalculus(grid, profile.n)
    rng = np.random.default_rng(seed)
    bumps = np.stack([_random_bump(rng, grid) for _ in range(trials)], axis=1)
    c_phi, c_flat = u_phi.T @ bumps, flat.coefficients(bumps)
    out = []
    for expo in exponents:
        # clip tiny negative roundoff before the fractional power
        pw_phi = np.maximum(1.0 + w_phi, 0.0) ** (expo / 2.0)
        ratio = (np.linalg.norm(pw_phi[:, None] * c_phi, axis=0)
                 / np.linalg.norm(flat.powers(expo)[:, None] * c_flat, axis=0))
        out.append((float(np.max(ratio, initial=0.0)),
                    float(np.max(1.0 / ratio, initial=0.0))))
    return out
