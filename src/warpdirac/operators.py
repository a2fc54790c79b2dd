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

Fractional powers of B = 1 + A, for a tridiagonal A, come from one resolvent
integral, B^a = (sin(pi a) / pi) int_0^inf tau^(a-1) (tau + B)^(-1) B dtau,
taken by the trapezoid rule in log(tau) with one LDL^T sweep of tau + B per
node.  Forward sweeps alone give the quadratic forms x^T B^s x of the norm
equivalence; forward and back sweeps give the action B^(s/2) v of the
SobolevCalculus behind every Sobolev and Strichartz norm.  When A has no
potential (H0 at n = 3) its eigenbasis is exactly the DST-I, and the
calculus takes that exact special case, transforming _DST_COLUMNS columns
at a time, so its scratch does not grow with the number of samples.  No
eigenbasis and no N x N array is built on any of these paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .admissibility import ModePotential
from .errors import ConfigurationError, GridTooCoarseError, NumericalError
from .profiles import Family, MetricProfile

__all__ = ["RadialGrid", "DiscreteRadialOperator", "SobolevCalculus",
           "assemble_dirac", "assemble_kg", "flat_reference_operator",
           "weighted_laplacian_operator", "verify_square", "factorization_check",
           "norm_equivalence_check", "probe_functions",
           "DEFAULT_R_MAX", "DEFAULT_N_CELLS", "DEFAULT_TRIALS"]

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
        if not 0 < self.r_max < np.inf:
            raise ConfigurationError(f"r_max must be positive and finite, got {self.r_max}")
        if not isinstance(self.n_cells, (int, np.integer)):
            raise ConfigurationError(f"n_cells must be an integer, got {self.n_cells!r}")
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
        if m is not None and not np.isfinite(m):
            raise ConfigurationError(f"the mass m must be finite, got {m}")
        bad = ~np.isfinite(potential)
        if bad.any():
            raise NumericalError(f"the {kind} potential is not finite at "
                                 f"r = {grid.nodes[np.argmax(bad)]:g}")
        self.grid, self.kind, self.potential = grid, kind, potential
        self.profile, self.mu, self.m = profile, mu, m

    def _tridiagonal(self) -> tuple[np.ndarray, np.ndarray]:
        """(diagonal, off-diagonal) of a second-difference kind."""
        dr2 = _spacing_squared(self.grid)
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
        """(ascending eigenvalues, orthonormal columns) of a tridiagonal kind.

        A dense reference for tests, computed on every call as ``matrix`` is
        assembled; no command path takes an eigenbasis.
        """
        if self.kind == "dirac":
            raise ConfigurationError("eigh takes a tridiagonal kind, not a Dirac operator")
        import scipy.linalg

        try:
            return scipy.linalg.eigh_tridiagonal(*self._tridiagonal())
        except scipy.linalg.LinAlgError as exc:  # pragma: no cover
            raise NumericalError(f"eigendecomposition failed: {exc}") from exc


_KINDS = ("dirac", "kg_plus", "kg_minus", "flat_shift", "weighted_laplacian")


def _spacing_squared(grid: RadialGrid) -> float:
    """dr^2 of a second difference; past dr = 1.3e154 the Python float's square
    raises OverflowError, which is raised again naming the spacing."""
    try:
        return grid.dr ** 2
    except OverflowError:
        raise OverflowError(f"the grid spacing dr = {grid.dr:g} (r_max / n_cells) squares "
                            f"past the largest double") from None


def dirac_band_product(x: np.ndarray, v: np.ndarray, e: float, mass: float,
                       out: np.ndarray) -> None:
    """out = [[mass, v - e D], [v + e D, -mass]] x on (rows, 2N) blocks.

    (D y)_i = y_(i+1) - y_(i-1) with zero extension, so e = 1/(2 dr) gives
    the Dirac operator; its Chebyshev step passes the bands scaled by 2/rho.
    Each off-diagonal block is one coupling_product, the lower one with -e.
    """
    nn = len(v)
    p, q = x[:, :nn], x[:, nn:]
    out_p, out_q = out[:, :nn], out[:, nn:]
    coupling_product(q, v, e, out_p)
    coupling_product(p, v, -e, out_q)
    if mass:
        out_p += mass * p
        out_q -= mass * q


def coupling_product(x: np.ndarray, v: np.ndarray, e: float, out: np.ndarray) -> None:
    """out = (v - e D) x on (rows, N) blocks, D as in dirac_band_product.

    e and -e give the v_plus and v_minus rows of the massless Dirac operator,
    bit for bit, since negating e is exact.
    """
    np.multiply(x, v, out=out)
    out[:, :-1] -= e * x[:, 1:]
    out[:, 1:] += e * x[:, :-1]


_LOG_STEP = 0.5  # trapezoid step in log(tau) of the resolvent integral
_LOG_PAD = 28.0  # log(tau) covered beyond each end of the spectrum's bounds
_BLOCK = 64  # cells per block of the back sweep of the resolvent's action
_DST_COLUMNS = 8  # columns per DST-I of the calculus at n = 3


def _log_nodes(op: DiscreteRadialOperator) -> np.ndarray:
    """Nodes u = log(tau) of the trapezoid rule for the resolvent integral of 1 + A.

    In u the integrand is analytic in the strip |Im u| < pi, so the rule of
    step _LOG_STEP converges like exp(-2 pi^2 / _LOG_STEP) (Hale, Higham and
    Trefethen, SIAM J. Numer. Anal. 46 (2008) 2505).  The nodes run from
    _LOG_PAD below log 1 (A >= 0 in the continuum) to _LOG_PAD above the
    Gershgorin bound on 1 + A, so beyond them the resolvent is its limit at
    0 or at infinity to a relative exp(-_LOG_PAD).
    """
    g = 1.0 / _spacing_squared(op.grid)
    return np.arange(-_LOG_PAD, np.log(np.max(1.0 + op.potential) + 4.0 * g) + _LOG_PAD,
                     _LOG_STEP)


def _ldl_pivots(op: DiscreteRadialOperator, tau: np.ndarray):
    """The LDL^T pivots p of tau + 1 + A for each shift in ``tau``, cell by cell.

    Yields (g / p_(i-1), 1 / p_i) for each cell i, the first ratio 0 (no cell
    before the first), with g = 1 / dr^2 the off-diagonal's magnitude.  With
    c = tau + 1 + potential, the pivots p = g + q follow
    q_i = c_i + q_(i-1) g / p_(i-1): 2 g never cancels against g^2 / p_(i-1),
    so c keeps its digits beside 2 g.  After the last cell it refuses a 1 + A
    that is not positive definite, where the resolvent integral has a pole.
    """
    g = 1.0 / _spacing_squared(op.grid)
    c = (1.0 + op.potential).tolist()
    q = tau + c[0] + g
    lowest = g + q  # least pivot of each shift
    inv = 1.0 / lowest
    yield np.zeros_like(inv), inv
    for ci in c[1:]:
        ratio = g * inv
        q *= ratio
        q += tau + ci
        pivot = g + q
        inv = 1.0 / pivot
        np.minimum(lowest, pivot, out=lowest)
        yield ratio, inv
    if not np.all(lowest > 0.0):
        raise NumericalError(f"1 + A of the {op.kind} operator is not positive definite "
                             f"on {op.grid}")


def _resolvent_sum(u: np.ndarray, s: float, nodes, low, high):
    """(sin(pi s) / pi) int_0^inf tau^(s-1) f(tau) dtau, 0 < s < 1, on the nodes u = log(tau).

    ``nodes`` is the trapezoid sum sum_j exp(u_j s) f(exp(u_j)).  Beyond the
    nodes f is its limit ``low`` at 0 below them and ``high`` / tau above
    them, and both tails of the rule are summed as geometric series.
    """
    left = low * np.exp(u[0] * s) / np.expm1(_LOG_STEP * s)
    right = high * np.exp(u[-1] * (s - 1.0)) / np.expm1(_LOG_STEP * (1.0 - s))
    return _LOG_STEP * np.sin(np.pi * s) / np.pi * (nodes + left + right)


def _one_plus(op: DiscreteRadialOperator, x: np.ndarray, lo: int = 0,
              hi: Optional[int] = None) -> np.ndarray:
    """Rows lo:hi of (1 + A) x for a real N x K block, all rows by default.

    The second difference is taken as a difference of the first differences
    x_(i+1) - x_i, zero outside the grid, from x's rows lo - 1 to hi alone.
    """
    nn = len(x)
    hi = nn if hi is None else hi
    diffs = np.empty((hi - lo + 1,) + x.shape[1:])  # x_(i+1) - x_i for i = lo - 1 .. hi - 1
    if lo:
        np.subtract(x[lo], x[lo - 1], out=diffs[0])
    else:
        diffs[0] = x[0]  # x_0 - 0
    np.subtract(x[lo + 1:hi], x[lo:hi - 1], out=diffs[1:-1])
    if hi < nn:
        np.subtract(x[hi], x[hi - 1], out=diffs[-1])
    else:
        np.negative(x[-1], out=diffs[-1])  # 0 - x_(N-1)
    bx = np.subtract(diffs[:-1], diffs[1:])
    bx *= 1.0 / _spacing_squared(op.grid)
    bx += np.multiply((1.0 + op.potential[lo:hi])[:, None], x[lo:hi], out=diffs[:-1])
    return bx


def _shifted_solves(rhs: np.ndarray, ratio: np.ndarray, inv: np.ndarray,
                    weights: np.ndarray) -> np.ndarray:
    """sum_j weights_j (tau_j + B)^(-1) rhs for a real N x K block, one shift tau_j per
    column of the pivots (``ratio[i]`` = g / p_(i-1), ``inv[i]`` = 1 / p_i).

    Each block of _BLOCK cells is swept forward, L^(-1) rhs for every column
    and shift, from a checkpoint that the first forward pass keeps at its
    first cell.  The back sweep takes the blocks from the last, sweeps each
    forward again, turns it in place into the weighted solutions and sums
    them over the shifts.  So nothing N long is kept per shift, and every
    operation treats each column alone: a column's result does not depend
    on the others.
    """
    nn = len(rhs)
    out = np.empty(rhs.shape)
    b = list(rhs[:, :, None])
    ratios, winv = list(ratio), list(inv * weights)
    block = np.empty((_BLOCK, rhs.shape[1], len(weights)))  # (cell, column, shift)
    rows = list(block)
    starts = range(0, nn, _BLOCK)
    checkpoints = np.empty((len(starts),) + block.shape[1:])

    def forward(k: int) -> int:
        """Fill the block with L^(-1) rhs on block k; returns its cell count."""
        lo, hi = starts[k], min(starts[k] + _BLOCK, nn)
        rows[0][...] = checkpoints[k]
        for cur, prev, r, bi in zip(rows[1:hi - lo], rows, ratios[lo + 1:hi], b[lo + 1:hi]):
            np.multiply(prev, r, out=cur)
            cur += bi
        return hi - lo

    checkpoints[0] = b[0]
    for k in range(1, len(starts)):
        last = rows[forward(k - 1) - 1]
        np.multiply(last, ratios[starts[k]], out=checkpoints[k])
        checkpoints[k] += b[starts[k]]
    carry, term = np.zeros(block.shape[1:]), np.empty(block.shape[1:])
    ratios.append(np.zeros(len(weights)))  # no cell beyond the last
    for k in reversed(range(len(starts))):
        count, lo = forward(k), starts[k]
        for j in reversed(range(count)):
            np.multiply(carry, ratios[lo + j + 1], out=term)
            carry = rows[j]
            carry *= winv[lo + j]
            carry += term
        carry = carry.copy()  # the next block refills the buffer
        np.sum(block[:count], axis=-1, out=out[lo:lo + count])
    return out


class SobolevCalculus:
    """Fractional calculus of B = 1 + A for one tridiagonal operator A.

    When A's potential vanishes, A is the plain Dirichlet second
    difference, whose orthonormal eigenbasis is exactly the DST-I (Strang,
    SIAM Review 41 (1999) 135): eigenvalues (2 sin(pi k / (2 (N + 1))) / dr)^2
    and eigenvectors sqrt(2 / (N + 1)) sin(pi j k / (N + 1)), j, k = 1..N.
    Otherwise B^(s/2) comes from the resolvent integral on the bands of A,
    whose LDL^T pivots the calculus builds on first use and keeps (N x 136
    twice, about 4.5 MB at 2048 cells).  Neither path builds an eigenbasis
    or an N x N array.
    """

    def __init__(self, op: DiscreteRadialOperator):
        if op.kind == "dirac":
            raise ConfigurationError(
                "a Sobolev calculus takes a tridiagonal kind, not a Dirac operator")
        self.op = op
        self._pivots: Optional[tuple] = None  # of the resolvent, built on first use

    def apply(self, v: np.ndarray, s: float) -> np.ndarray:
        """(1 + A)^(s/2) v for a vector or an N x T block; v itself at s = 0.

        A complex block goes through as its real and imaginary parts side by
        side, and a part that is all zero is skipped; both paths treat each
        column alone, so the result is the joint transform's, bit for bit.
        Where the potential does not vanish, s must lie in (-2, 2).
        """
        if s == 0.0:
            return v
        nn = self.op.grid.n_cells
        block = v.reshape(nn, -1)
        if np.any(self.op.potential):
            if not -2.0 < s < 2.0:
                raise ConfigurationError(f"the resolvent calculus takes -2 < s < 2, got {s}")
            out = _by_parts(lambda part: self._resolvent(part, s / 2.0), block)
        else:
            k = np.arange(1, nn + 1)
            w = (2.0 * np.sin(0.5 * np.pi * k / (nn + 1)) / self.op.grid.dr) ** 2
            powers = (1.0 + w)[:, None] ** (s / 2.0)
            out = _by_parts(lambda part: _dst_multiply(part, powers), block)
        return out.reshape(v.shape)

    def norm(self, state, s: float) -> float:
        """||(1 + A)^(s/2) state|| in L^2(dr) for a SpinorState on the operator's grid."""
        if state.grid != self.op.grid:
            raise ConfigurationError(
                f"the calculus is for {self.op.grid}, the state on {state.grid}")
        g = self.apply(np.stack([state.plus, state.minus], axis=1), s)
        return float(np.sqrt(state.grid.dr
                             * (np.sum(np.abs(g[:, 0]) ** 2) + np.sum(np.abs(g[:, 1]) ** 2))))

    def _resolvent(self, x: np.ndarray, a: float) -> np.ndarray:
        """B^a x for a real N x K block, 0 < |a| < 1.

        For a > 0 the integrand is f(tau) = (tau + B)^(-1) B x, whose limit at
        0 is x itself.  For a < 0 it is (tau + B)^(-1) x with the exponent
        a + 1, and its limit at 0 is the solve B^(-1) x at the shift 0.
        """
        if self._pivots is None:
            u = _log_nodes(self.op)
            ratio, inv = np.empty((2, self.op.grid.n_cells, len(u) + 1))
            tau = np.concatenate([[0.0], np.exp(u)])  # the shift 0, then the nodes
            for i, (r, p) in enumerate(_ldl_pivots(self.op, tau)):
                ratio[i], inv[i] = r, p
            self._pivots = u, ratio, inv
        u, ratio, inv = self._pivots
        if a > 0.0:
            rhs, low = _one_plus(self.op, x), x
        else:
            a += 1.0
            rhs = x
            low = _shifted_solves(x, ratio[:, :1], inv[:, :1], np.ones(1))
        nodes = _shifted_solves(rhs, ratio[:, 1:], inv[:, 1:], np.exp(u * a))
        return _resolvent_sum(u, a, nodes, low, rhs)


def _by_parts(transform, block: np.ndarray) -> np.ndarray:
    """A real transform that treats each column alone, of a real or complex N x K block.

    A complex block's real and imaginary parts go through one call side by
    side, and a part that is all zero is not transformed (at m = 0 a flow's
    v_plus is real and its v_minus imaginary).
    """
    if not np.iscomplexobj(block):
        return transform(block)
    re, im = block.real, block.imag
    if not np.any(im):
        return transform(re) + 0j
    if not np.any(re):
        return 1j * transform(im)
    cols = block.shape[1]
    out = transform(np.hstack([re, im]))
    return out[:, :cols] + 1j * out[:, cols:]


def _dst_multiply(block: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """DST-I, times ``powers`` (N x 1), DST-I again, of each column of a real N x K block.

    The transforms take _DST_COLUMNS columns at a time, so their scratch
    (the odd extension and its FFT, about 4 N reals per column) does not
    grow with K.  The FFT treats each column alone, so the result is the
    whole block's, bit for bit.
    """
    out = np.empty(block.shape)
    for j in range(0, block.shape[1], _DST_COLUMNS):
        cols = slice(j, j + _DST_COLUMNS)
        spectrum = _dst1(block[:, cols])
        spectrum *= powers
        out[:, cols] = _dst1(spectrum)
    return out


def _dst1(block: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I of each column of a real N x K block.

    sum_j x_j sin(pi j k / (N + 1)) is -Im/2 of the FFT of the odd extension
    [0, x, 0, -reversed x] of length 2 (N + 1); scaled by sqrt(2 / (N + 1)),
    the transform is orthonormal and its own inverse.
    """
    nn = len(block)
    ext = np.zeros((2 * (nn + 1), block.shape[1]))
    ext[1:nn + 1] = block
    np.negative(block[::-1], out=ext[nn + 2:])
    return -np.sqrt(0.5 / (nn + 1)) * np.fft.rfft(ext, axis=0)[1:nn + 1].imag


def assemble_dirac(profile: MetricProfile, mu: float, m: float,
                   grid: RadialGrid) -> DiscreteRadialOperator:
    """Flattened mode Dirac operator [[m, -d/dr + V], [d/dr + V, -m]]."""
    pot = ModePotential(profile=profile, mu=mu)
    return DiscreteRadialOperator(grid=grid, kind="dirac", potential=pot.V(grid.nodes),
                                  profile=profile, mu=pot.mu, m=m)


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
                                  profile=profile, mu=pot.mu, m=m)


def flat_reference_operator(n: int, grid: RadialGrid) -> DiscreteRadialOperator:
    """Flattened flat radial Laplacian H0 = -d2/dr2 + (n-1)(n-3)/(4 r^2).

    Its flat profile of dimension n refuses n < 3, where the potential is negative.
    """
    r = grid.nodes
    return DiscreteRadialOperator(grid=grid, kind="flat_shift",
                                  potential=(n - 1) * (n - 3) / (4.0 * r**2),
                                  profile=MetricProfile(Family.FLAT, n))


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


def probe_functions(grid: RadialGrid) -> np.ndarray:
    """Fixed family of five smooth interior bumps used by residual checks.

    Columns are Gaussians with centers on [0.25, 0.65] r_max and widths
    scaled to r_max, so they vanish at both boundaries to double precision.
    """
    r = grid.nodes
    centers = np.linspace(0.25, 0.65, 5) * grid.r_max
    widths = np.linspace(0.035, 0.06, 5) * grid.r_max
    return np.exp(-((r[:, None] - centers) / widths) ** 2)


def _interior(vcols: np.ndarray) -> np.ndarray:
    return vcols[_BOUNDARY_SKIN:-_BOUNDARY_SKIN, :]


def _square_defect(profile: MetricProfile, mu: float, m: float, grid: RadialGrid,
                   top: np.ndarray, bottom: np.ndarray):
    """Per component, (h^2 - diag(K-, K+)) [top; bottom] and diag(K-, K+) [top; bottom],
    with h, K- and K+ the mode's Dirac and Klein-Gordon operators on ``grid``."""
    dirac = assemble_dirac(profile, mu, m, grid)
    hh = dirac.apply(dirac.apply(np.vstack([top, bottom])))
    kk = (assemble_kg(profile, mu, m, -1, grid).apply(top),
          assemble_kg(profile, mu, m, +1, grid).apply(bottom))
    nn = grid.n_cells
    return (hh[:nn] - kk[0], hh[nn:] - kk[1]), kk


def verify_square(profile: MetricProfile, mu: float, m: float, grid: RadialGrid) -> float:
    """Consistency residual of h^2 = diag(KG_minus, KG_plus) for one mode.

    The identity cannot hold entrywise between inequivalent stencils, so the
    residual is measured on the fixed smooth probe family: Frobenius norm of
    (h^2 - diag(K-, K+)) P over interior cells, relative to diag(K-, K+) P.
    Second-order decay in dr is the contract.
    """
    p = probe_functions(grid)
    res, kp = _square_defect(profile, mu, m, grid, p, p[:, ::-1])
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
    p = probe_functions(grid)
    res, kp = _square_defect(profile, mu, 0.0, grid, p, p)
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


def _band_forms(op: DiscreteRadialOperator, x: np.ndarray,
                exponents: Sequence[float]) -> list[np.ndarray]:
    """x^T (1 + A)^s x for each s in ``exponents`` and each column of a real N x K block.

    A = op is tridiagonal, so the forms come from its bands, with B = 1 + A:
    s = 0 is ||x||^2, s = 1 is x^T B x, and for 0 < s < 1

        x^T B^s x = (sin(pi s) / pi) int_0^inf tau^(s-1) f(tau) dtau,
        f(tau) = (B x)^T (tau + B)^(-1) x

    (Bonito and Pasciak, Math. Comp. 84 (2015) 2083), on the nodes of
    ``_log_nodes``; beyond them f is ||x||^2 and x^T B x / tau.

    Each node is one forward LDL^T sweep of tau + B, all nodes and columns
    at once: f = sum_i y_i z_i / p_i with L y = B x and L z = x, so nothing
    N long is kept per node, and every exponent reuses the node values.
    B x is formed one block of _BLOCK rows at a time inside the sweep.  The
    s = 0 and s = 1 sums keep NumPy's order: it sums one column pairwise,
    so for K = 1 all N products are kept, and several columns row by row,
    so for K > 1 each block's products are added in turn to running sums.
    Refuses a B that is not positive definite.  Besides x, nothing N x K
    is held.
    """
    nn, k = x.shape
    u = _log_nodes(op)
    y, z, acc = np.zeros((3, len(u), k))  # (node, column)
    term = np.empty_like(acc)
    # x_i^2 and (B x)_i x_i; with K > 1 row 0 holds the running sums
    products = np.empty((2, nn if k == 1 else _BLOCK + 1, k))
    for i, (ratio, inv) in enumerate(_ldl_pivots(op, np.exp(u)[:, None])):
        j = i % _BLOCK
        if j == 0:
            hi = min(i + _BLOCK, nn)
            bx, xs = _one_plus(op, x, i, hi), x[i:hi]
            rows = products[:, i:hi] if k == 1 else products[:, 1:hi - i + 1]
            np.multiply(xs, xs, out=rows[0])
            np.multiply(bx, xs, out=rows[1])
            if k > 1:
                first = 1 if i == 0 else 0  # the first block starts the sums
                for sums in products:
                    sums[0] = sums[first:hi - i + 1].sum(axis=0)
        y *= ratio
        y += bx[j]
        z *= ratio
        z += x[i]
        np.multiply(y, inv, out=term)
        term *= z
        acc += term
    zero, one = (p.sum(axis=0) if k == 1 else p[0] for p in products)
    forms = {0.0: zero, 1.0: one}
    for s in set(exponents) - set(forms):
        forms[s] = _resolvent_sum(u, s, np.exp(u * s) @ acc, forms[0.0], forms[1.0])
    return [forms[s] for s in exponents]


DEFAULT_TRIALS = 100  # random test functions per norm-equivalence check


def norm_equivalence_check(profile: MetricProfile, exponents: Sequence[float],
                           trials: int = DEFAULT_TRIALS, grid: Optional[RadialGrid] = None,
                           seed: int = 0) -> list[tuple[float, float]]:
    """Empirical two-sided H^s ratios between phi-weighted and flat norms.

    Multiplication by sigma^((n-1)/2) maps the flat-measure H^s onto the weighted
    one; in flattened variables both norms act on the same vector, through
    (1 + A_phi)^(s/2) and (1 + H0)^(s/2).  Each squared norm is the quadratic
    form x^T (1 + A)^s x, taken from the bands of A (``_band_forms``), so
    no eigenbasis is built.  Returns one pair (max ratio, max inverse ratio)
    over the random trials per exponent s; the node values of both forms
    are shared by all exponents.
    """
    if trials < 1:
        raise ConfigurationError(f"norm equivalence needs at least one trial, got {trials}")
    for expo in exponents:
        if not 0.0 <= expo <= 1.0:
            raise ConfigurationError(f"s must be in [0, 1], got {expo}")
    grid = grid or RadialGrid()
    rng = np.random.default_rng(seed)
    bumps = np.empty((grid.n_cells, trials))
    for k in range(trials):
        bumps[:, k] = _random_bump(rng, grid)
    weighted = _band_forms(weighted_laplacian_operator(profile, grid), bumps, exponents)
    flat = _band_forms(flat_reference_operator(profile.n, grid), bumps, exponents)
    out = []
    for q_phi, q_flat in zip(weighted, flat):
        ratio = np.sqrt(q_phi / q_flat)
        out.append((float(np.max(ratio, initial=0.0)),
                    float(np.max(1.0 / ratio, initial=0.0))))
    return out
