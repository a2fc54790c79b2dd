"""Mode flow exp(-i t h) and its independent flat-space oracle.

The discrete flow is the Chebyshev expansion of the propagator (Tal-Ezer
and Kosloff, J. Chem. Phys. 81 (1984) 3967) on the bands of the Dirac
operator.  With rho = |m| + max|V| + 1/dr, the Gershgorin bound on the
spectrum of h,

    exp(-i t h) = sum_k (2 - delta_k0) (-i)^k J_k(rho t) T_k(h / rho),

and terms whose Bessel coefficient is below 1e-18 are dropped, which ends
the series within rho |t| + 12 (rho |t|)^(1/3) + 28 terms.  A flow whose
series would take more than 1e6 terms is refused before its Bessel table
is built and its recurrence runs (a large mass or time before h is first
applied): its cost grows with the term count, and the table alone holds
that many coefficients per sample.  One recurrence
T_(k+1) = 2 (h / rho) T_k - T_(k-1), in O(N) per step, serves every sample
time (negative and non-uniform ones included), so nothing of size N^2 is
built.  At the default grid the samples are within 2e-15 relative of an
extended-precision evaluation of the same series, and their norm drift is
below 1e-15.

h is real, so the recurrence runs only on those of the real rows
[Re v0, Im v0] that are not all zero.  At m = 0, h = [[0, B], [B^T, 0]] is
chiral: T_k(h / rho) keeps a datum that lies in one component in that
component for even k and moves it to the other for odd k.  Such a flow
keeps each T_k as the N cells of its component alone, and its steps
alternate B^T and B.  What is left out is exact zeros, so the samples are
the full recurrence's bit for bit.  A real datum in one component, the
kind the CLI builds, costs half the arithmetic, and a quarter at m = 0.

The even and odd terms are accumulated apart, as the carried rows of
[Re v0, Im v0] on the cells that each parity writes (its component's kept
cells at m = 0, both components' otherwise): a quarter of the four real
copies of the samples that a full accumulator would take at m = 0, and
half of them for a real datum at m != 0.  Even k carry a real coefficient
and odd k an imaginary one, so the samples are even Re + odd Im and
even Im - odd Re, each added in that order into the zeros of the complex
2N x T samples array.  A row the flow does not carry stays +0.0 there, so
a real datum's imaginary part is 0.0 - odd, never -odd, and carries no
-0.0.  A cut flow writes only its kept rows, and the cells below the cut
stay exact zeros.

The term count grows with rho |t|, and rho with |mu|: V = mu / r is
2 mu / dr at the first cell on the flat profile, where the mode never goes.
Inside its centrifugal barrier a solution of energy E decays like
exp(-int sqrt(V^2 - E^2) dr) (Agmon, Lectures on Exponential Decay, 1982).
So evolve bounds the datum's energy by E = 4 sqrt(|h^2 v0| / |v0|) and runs
the recurrence only on the cells outward of where that integral, taken
inward from the turning point V^2 = E^2, reaches 40: Dirichlet at the cut,
exact zeros below it.  It cuts only where that divides rho by 4 or more and
the datum vanishes in the cut cells (below 1e-14 of its largest amplitude),
and if any sample then reaches 1e-14 of it in the first 8 kept cells, the
full grid runs once instead: a flow costs at most 1.25 full-grid ones.

The flat oracle never touches the discrete operator: initial data are
expanded in the generalized eigenbasis sqrt(rho r) J_a(rho r) by quadrature,
each frequency advances through the exact 2x2 rotation with energy
sqrt(rho^2 + m^2), and the state is reconstructed by Gauss-Legendre
integration in rho.  The component orders are a = |2 mu + 1|/2 for v_plus
and |2 mu - 1|/2 for v_minus, matching the squared potentials
mu(mu+1)/r^2 and mu(mu-1)/r^2 of the flattened system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .admissibility import ModePotential
from .errors import ConfigurationError, GridTooCoarseError, NumericalError
from .operators import (DiscreteRadialOperator, RadialGrid, _by_parts, _squared_modulus,
                        coupling_product, dirac_band_product)
from .profiles import Family, MetricProfile

__all__ = ["SpinorState", "DataTemplate", "SpinorTrajectory", "gaussian_state", "evolve",
           "FlatBesselOracle", "causal_time_limit"]

_SUPPORT_SIGMAS = 3.0
_CAUSAL_MARGIN = 2.0
_CHUNK = 64  # Chebyshev vectors added into the samples per GEMM (even)
_BESSEL_TAIL = 1e-18  # |J_k| at or below which a term is dropped
_TAIL_CHECKED = 1e7  # largest rho |t| for which _tail_terms was checked
_TERM_BUDGET = 1_000_000  # most Chebyshev terms a flow may take, well inside _TAIL_CHECKED
_SERIES_TERMS = 20  # power-series terms of J_k(x) for x < 1
_AGMON_DEPTH = 40.0  # Agmon distance from the turning point to the first kept cell
_ENERGY_FACTOR = 4.0  # E = 4 sqrt(|h^2 v0| / |v0|) places the turning point
_CUT_GAIN = 4.0  # a cut must divide rho by at least this much
_EDGE_CELLS = 8  # kept cells next to the cut that every sample must leave empty
_EDGE_TOL = 1e-14  # relative to the datum's largest amplitude


def _check_support_radius(radius: Optional[float]) -> None:
    """Refuse a support radius other than None or a finite one >= 0: a NaN
    would switch off every causal-window check."""
    if radius is not None and not 0.0 <= radius < math.inf:
        raise ConfigurationError(f"support radius must be finite and >= 0, got {radius}")


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
        _check_support_radius(self.support_radius)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.plus, self.minus]).astype(complex)

    def norm(self) -> float:
        """L^2(dr) norm under the flattened measure."""
        return float(np.sqrt(self.grid.dr * (np.sum(_squared_modulus(self.plus))
                                             + np.sum(_squared_modulus(self.minus)))))


@dataclass(frozen=True)
class DataTemplate:
    """The initial datum of every mode flow: amplitude exp(-((r - center) / width)^2)
    in one component ("plus" or "minus"), zero in the other."""

    center: float = 12.0
    width: float = 1.5
    amplitude: float = 1.0
    component: str = "plus"

    def __post_init__(self):
        # center <= 0 or width <= 0 would make the support radius and causal
        # limit wrong, amplitude 0 divides every norm ratio by zero, and an
        # infinite center or width realizes a zero or a constant datum
        if not (0.0 < self.center < math.inf and 0.0 < self.width < math.inf
                and self.amplitude != 0.0 and math.isfinite(self.amplitude)):
            raise ConfigurationError(
                f"a Gaussian bump needs a finite center > 0, a finite width > 0 and a "
                f"finite amplitude != 0, got {self.center}, {self.width} and {self.amplitude}")
        if self.component not in ("plus", "minus"):
            raise ConfigurationError("component must be 'plus' or 'minus'")

    @property
    def support_radius(self) -> float:
        """Radius past which the bump counts as zero: center + 3 widths."""
        return self.center + _SUPPORT_SIGMAS * self.width

    def realize(self, grid: RadialGrid) -> SpinorState:
        """The datum on the grid; refused, like amplitude 0, if every sample is zero."""
        state = gaussian_state(grid, self.center, self.width, self.amplitude, self.component)
        if not np.any(getattr(state, self.component)):
            raise GridTooCoarseError(
                f"the datum of width {self.width} samples as zero on the grid "
                f"(dr = {grid.dr:g}); refine the grid or widen the datum")
        return state


@dataclass(frozen=True)
class SpinorTrajectory:
    """Time samples of one mode flow, immutable after creation.

    ``samples`` is one C-ordered complex 2N x T array: column k is the
    state at times[k], v_plus in the first N rows and v_minus below, so
    ``plus`` and ``minus`` are contiguous N x T views, one column per time.
    """

    times: np.ndarray
    samples: np.ndarray
    grid: RadialGrid
    profile: MetricProfile
    mu: float
    m: float
    support_radius: Optional[float] = None

    def __post_init__(self):
        if self.samples.shape != (2 * self.grid.n_cells, len(self.times)):
            raise ConfigurationError("samples must be 2N x T for the grid and times")
        if np.any(np.diff(self.times) <= 0):
            raise ConfigurationError("times must be strictly increasing")
        _check_support_radius(self.support_radius)

    @property
    def causal_t_max(self) -> Optional[float]:
        if self.support_radius is None:
            return None
        return causal_time_limit(self.grid.r_max, self.support_radius)

    @property
    def plus(self) -> np.ndarray:
        return self.samples[:self.grid.n_cells]

    @property
    def minus(self) -> np.ndarray:
        return self.samples[self.grid.n_cells:]

    def state(self, k: int) -> SpinorState:
        """The sample at times[k], its components viewing the stored samples;
        its support radius is the datum's grown by the light cone |times[k]|."""
        reach = (None if self.support_radius is None
                 else self.support_radius + float(abs(self.times[k])))
        return SpinorState(grid=self.grid, plus=self.plus[:, k], minus=self.minus[:, k],
                           support_radius=reach)

    def norms(self) -> np.ndarray:
        """SpinorState.norm of every sample, in time order."""
        return np.array([self.state(k).norm() for k in range(len(self.times))])


def causal_time_limit(r_max: float, support_radius: float) -> float:
    """Largest |t| that stays reflection-free: r_max - R_support - 2."""
    return r_max - support_radius - _CAUSAL_MARGIN


def gaussian_state(grid: RadialGrid, *bump, **fields) -> SpinorState:
    """The datum DataTemplate(*bump, **fields) sampled on the grid."""
    data = DataTemplate(*bump, **fields)
    with np.errstate(over="ignore"):  # far out the square is inf, and exp(-inf) the exact 0
        values = data.amplitude * np.exp(-((grid.nodes - data.center) / data.width) ** 2)
    zero = np.zeros(grid.n_cells)
    plus, minus = (values, zero) if data.component == "plus" else (zero, values)
    return SpinorState(grid=grid, plus=plus.astype(complex),
                       minus=minus.astype(complex), support_radius=data.support_radius)


def evolve(op: DiscreteRadialOperator, initial: SpinorState,
           times: Sequence[float]) -> SpinorTrajectory:
    """Sample exp(-i t h) initial at the requested times.

    Chebyshev expansion of the propagator on the operator's bands, cut at
    the mode's centrifugal barrier where that pays and certified (see the
    module docstring).  Every sample comes from one recurrence, negative
    and non-uniform times included; a sample at t = 0 is the initial vector
    itself.  The samples are one C-ordered 2N x T array, which the
    trajectory keeps.
    """
    if op.kind != "dirac":
        raise ConfigurationError("evolve needs a Dirac-mode operator")
    if initial.grid != op.grid:
        raise ConfigurationError("initial data grid does not match the operator")
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)):
        raise ConfigurationError(f"evolve needs finite times, got {times}")
    # rho >= |m| + 1/dr on every cut, so this refuses, before h is first
    # applied, a flow that _bessel_coefficients would refuse anyway
    _check_tail_reach((abs(float(op.m)) + 1.0 / op.grid.dr)
                      * float(np.max(np.abs(times), initial=0.0)))
    v0 = initial.as_vector()
    start = _barrier_cell(op, v0)
    vecs = _chebyshev_propagate(op, v0, times, start)
    if start and _peak(vecs, start, start + _EDGE_CELLS) > _EDGE_TOL * np.max(np.abs(v0)):
        del vecs  # the cut failed its certificate: its samples go before the rerun
        vecs = _chebyshev_propagate(op, v0, times)
    vecs[:, times == 0.0] = v0[:, None]
    vecs.flags.writeable = False  # blocks and states are views of it
    return SpinorTrajectory(times=times, samples=vecs, grid=op.grid, profile=op.profile,
                            mu=op.mu, m=op.m, support_radius=initial.support_radius)


def _barrier_cell(op: DiscreteRadialOperator, v0: np.ndarray) -> int:
    """First cell the flow of v0 keeps: the Agmon cut if it pays, else 0.

    The whole grid is kept unless the cut divides rho by _CUT_GAIN and the
    datum vanishes in the cut cells (see the module docstring).
    """
    if not np.any(v0):
        return 0
    energy = _ENERGY_FACTOR * np.sqrt(np.linalg.norm(op.apply(op.apply(v0)))
                                      / np.linalg.norm(v0))
    kappa = np.sqrt(np.maximum(op.potential**2 - energy**2, 0.0))
    turn = int(np.argmax(kappa == 0.0)) if np.any(kappa == 0.0) else len(kappa)
    depth = np.cumsum(kappa[:turn][::-1])[::-1] * op.grid.dr
    start = max(int(np.count_nonzero(depth >= _AGMON_DEPTH)) - 1, 0)
    if (not start or _spectral_bound(op) < _CUT_GAIN * _spectral_bound(op, start)
            or _peak(v0, 0, start) > _EDGE_TOL * np.max(np.abs(v0))):
        return 0
    return start


def _peak(block: np.ndarray, lo: int, hi: int) -> float:
    """Largest amplitude in cells lo <= i < hi of both components of a 2N-row block."""
    nn = len(block) // 2
    cells = np.concatenate([block[lo:hi], block[nn + lo:nn + hi]])
    return float(np.max(np.abs(cells), initial=0.0))


def _tail_terms(x: np.ndarray) -> np.ndarray:
    """Number of terms past which |J_k(x)| < _BESSEL_TAIL for good, x >= 0.

    x + 12 x^(1/3) + 28 is past the last such k by at least 24 for every x
    checked from 0 to _TAIL_CHECKED.
    """
    return (x + 12.0 * np.cbrt(x) + 28.0).astype(int)


def _bessel_j(x: np.ndarray, width: int) -> np.ndarray:
    """J_k(x) for k < width, one row per x >= 0.

    Below x = 1 at most _tail_terms(1) = 41 orders matter, and those rows
    come from the power series (_bessel_series), which gives exactly
    [1, 0, ...] at x = 0, where the recurrence below would overflow.  Above
    it, the rows come from Miller's backward recurrence
    J_(k-1) = (2k / x) J_k - J_(k+1), seeded 16 terms past each row's tail
    and normalized by J_0 + 2 sum J_2k = 1 (a few 1e-16 absolute; SciPy's jv
    loses several 1e-14 at x ~ 1e3, which would dominate the propagator's
    error).
    """
    out = np.zeros((len(x), width))
    small = x < 1.0
    out[small, :min(width, 41)] = _bessel_series(x[small], min(width, 41))
    big = x[~small]
    starts = _tail_terms(big) + 16
    rows = np.zeros((max(width, int(starts.max(initial=0)) + 1), len(big)))
    nxt = np.zeros(len(big))
    cur = np.zeros(len(big))
    for k in range(len(rows) - 1, 0, -1):
        cur[starts == k] = 1.0
        nxt, cur = cur, (2.0 * k / big) * cur - nxt
        rows[k - 1] = cur
    rows = rows[:width].T
    out[~small] = rows / (rows[:, 0] + 2.0 * rows[:, 2::2].sum(axis=1))[:, None]
    return out


def _bessel_series(x: np.ndarray, width: int) -> np.ndarray:
    """J_k(x) = sum_m (-1)^m (x/2)^(2m+k) / (m! (m+k)!) for k < width, 0 <= x <= 1.

    The leading terms (x/2)^k / k! are built as running products, so tiny x
    underflows to zero instead of overflowing.  The sum runs in increasing m
    over _SERIES_TERMS terms; for x <= 1 those from m = 10 on are below 1e-19.
    """
    half = x[:, None] / 2.0
    term = np.ones((len(x), width))
    term[:, 1:] = half / np.arange(1, width)
    term = np.cumprod(term, axis=1)
    out = term.copy()
    k = np.arange(width)
    for m in range(1, _SERIES_TERMS):
        term *= -(half * half) / (m * (m + k))
        out += term
    return out


def _check_tail_reach(largest: float) -> None:
    """Refuse a largest rho |t| past _TAIL_CHECKED (or a nan one), where the tail
    was not checked, and one whose series would take more than _TERM_BUDGET
    terms: the Bessel table and the recurrence grow with it."""
    checked = largest <= _TAIL_CHECKED
    if not checked or _tail_terms(largest) > _TERM_BUDGET:
        past = (f"its budget of {_TERM_BUDGET:.0e} terms" if checked
                else f"{_TAIL_CHECKED:.0e}, where its truncation was checked")
        raise NumericalError(f"the Chebyshev series needs rho |t| = {largest:.0e}, past {past}")


def _bessel_coefficients(x: np.ndarray) -> np.ndarray:
    """(2 - delta_k0) s_k J_k(x) with s_k = (-1)^(k // 2), one row per x.

    Coefficients with |J_k(x)| <= _BESSEL_TAIL are dropped (set to zero),
    and the columns end with the last one kept in any row.  An |x| past
    the term budget (a huge mass, potential or time) raises NumericalError
    before the table is built.
    """
    ax = np.abs(x)
    _check_tail_reach(float(np.max(ax, initial=0.0)))
    sizes = _tail_terms(ax)
    out = _bessel_j(ax, int(sizes.max(initial=1)))
    k = np.arange(out.shape[1])
    out[x < 0.0] *= np.where(k % 2 == 0, 1.0, -1.0)  # J_k(-x) = (-1)^k J_k(x)
    if np.any(np.abs(out[np.arange(len(x)), sizes - 1]) > _BESSEL_TAIL):  # pragma: no cover
        raise NumericalError(f"Chebyshev expansion not converged for rho t in {x}")
    out[np.abs(out) <= _BESSEL_TAIL] = 0.0
    out *= np.where(k % 4 < 2, 1.0, -1.0) * np.where(k == 0, 1.0, 2.0)
    keep = np.flatnonzero(np.any(out != 0.0, axis=0))
    return out[:, :keep[-1] + 1] if len(keep) else out[:, :1]


def _spectral_bound(op: DiscreteRadialOperator, start: int = 0) -> float:
    """Gershgorin bound |m| + max|V| + 1/dr on the spectrum of h on cells >= start."""
    return abs(op.m) + float(np.max(np.abs(op.potential[start:]))) + 1.0 / op.grid.dr


def _chebyshev_propagate(op: DiscreteRadialOperator, v0: np.ndarray,
                         times: np.ndarray, start: int = 0) -> np.ndarray:
    """exp(-i t h) v0 for every t, as the columns of a C-ordered complex 2N x T array.

    The recurrence runs on the bands of cells >= start, with Dirichlet at
    cell start - 1, and the samples are exact zeros below it.  It runs on
    the nonzero ones of the real rows [Re v0, Im v0] (``parts``); every
    _CHUNK Chebyshev vectors are added into an accumulator by one GEMM per
    parity of k.  Even k carry a real coefficient and odd k an imaginary
    one, so the accumulator keeps the two parities apart, each as the
    carried parts on its home cells (``cells[parity]``) alone: at m = 0 a
    datum in one component keeps T_k in that component for even k and in
    the other for odd k, so each vector is stored and stepped as that
    component's N kept cells alone (see the module docstring).  The
    parities are then added into the complex samples, whose kept rows they
    write in place (see the module docstring for the sign rule).
    """
    nn = op.grid.n_cells
    kept = nn - start
    rho = _spectral_bound(op, start)
    coeffs = _bessel_coefficients(rho * times)
    n_terms = coeffs.shape[1]
    v = 2.0 * op.potential[start:] / rho
    e = 1.0 / (op.grid.dr * rho)  # 2 * 1/(2 dr) / rho
    mass = 2.0 * op.m / rho
    x0 = np.concatenate([v0[start:nn], v0[nn + start:]])
    x0 = np.stack([x0.real, x0.imag])  # [Re v0, Im v0] on the kept cells
    parts = np.flatnonzero(np.any(x0, axis=1))
    parts = slice(parts[0], parts[-1] + 1) if len(parts) else slice(0, 1)
    comps = [c for c in (0, 1) if np.any(x0[:, c * kept:(c + 1) * kept])]
    if op.m == 0.0 and len(comps) == 1:
        chiral = [(comps[0] + k) % 2 for k in (0, 1)]  # T_k's component, by parity of k
        homes = [slice(c, c + 1) for c in chiral]  # the components T_k lies in, by parity

        def step(y, k, out):  # v_plus takes (v - e D) v_minus, v_minus (v + e D) v_plus
            coupling_product(y, v, -e if chiral[k % 2] else e, out)
    else:
        homes = [slice(0, 2)] * 2

        def step(y, k, out):
            dirac_band_product(y, v, e, mass, out)
    cells = [slice(c.start * kept, c.stop * kept) for c in homes]  # the same, in x0's columns
    first = x0[parts, cells[0]]
    acc = np.zeros((2, len(times)) + first.shape)  # [parity of k, sample, part, home cells]
    buf = np.zeros((_CHUNK + 2,) + first.shape)  # T_{k0-2}, T_{k0-1}, T_{k0}, ...
    for k0 in range(0, n_terms, _CHUNK):
        count = min(_CHUNK, n_terms - k0)
        for j in range(2, count + 2):
            k = k0 + j - 2
            if k == 0:
                buf[j] = first
            else:  # T_(k+1) = 2 (h / rho) T_k - T_(k-1)
                step(buf[j - 1], k, buf[j])
                buf[j] -= buf[j - 2]
                if k == 1:
                    buf[j] *= 0.5  # T_1 = (h / rho) T_0
        for parity in (0, 1):  # k0 is even, so T_(k0 + parity) lies in cells[parity]
            rows = buf[2 + parity:2 + count:2]
            acc[parity] += (coeffs[:, k0 + parity:k0 + count:2]
                            @ rows.reshape(len(rows), first.size)).reshape(acc.shape[1:])
        buf[:2] = buf[count:count + 2]
    # even Re + odd Im and even Im - odd Re, added in that order into zeros
    samples = np.zeros((2, nn, len(times)), dtype=complex)
    real, imag = samples.real[:, start:], samples.imag[:, start:]  # (component, kept cell, sample)
    into = [[(np.add, real), (np.add, imag)],  # even k: where Re and Im of the sum go
            [(np.subtract, imag), (np.add, real)]]  # odd k
    for parity in (0, 1):
        block = acc[parity].reshape(len(times), first.shape[0], -1, kept)
        for j, part in enumerate(range(2)[parts]):
            ufunc, dest = into[parity][part]
            dest = dest[homes[parity]]
            ufunc(dest, block[:, j].transpose(1, 2, 0), out=dest)
    return samples.reshape(2 * nn, len(times))


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
        # the flat mode mu: refuses n < 3 and |mu| <= 1/2 as every mode flow does
        ModePotential(MetricProfile(Family.FLAT, n), mu)
        import scipy.special

        self.m, self.grid = m, grid
        nodes, weights = np.polynomial.legendre.leggauss(n_rho)
        self.rho = 0.5 * rho_max * (nodes + 1.0)
        self.w_rho = 0.5 * rho_max * weights
        a_plus, a_minus = bessel_orders(mu)
        x = np.outer(self.rho, grid.nodes)
        self._b_plus = scipy.special.jv(a_plus, x)
        self._b_minus = scipy.special.jv(a_minus, x)
        root = np.sqrt(x, out=x)  # at most three n_rho x N arrays are alive
        self._b_plus *= root
        self._b_minus *= root
        self.coupling_sign = 1.0 if mu > 0 else -1.0

    def propagate(self, initial: SpinorState, t: float) -> SpinorState:
        """Transform forward, advance each frequency by the exact rotation of the
        coupled system, and transform back; the support radius grows by the
        light cone |t|, as in SpinorTrajectory.state."""
        dr = self.grid.dr
        p0 = dr * _by_parts(lambda x: self._b_plus @ x, initial.plus)
        m0 = dr * _by_parts(lambda x: self._b_minus @ x, initial.minus)
        omega = np.sqrt(self.rho**2 + self.m**2)
        cos = np.cos(omega * t)
        sinc = np.where(omega > 0.0, np.sin(omega * t) / np.where(omega > 0, omega, 1.0), t)
        s = self.coupling_sign
        pt = cos * p0 - 1j * sinc * (self.m * p0 + s * self.rho * m0)
        mt = cos * m0 - 1j * sinc * (s * self.rho * p0 - self.m * m0)
        reach = None if initial.support_radius is None else initial.support_radius + abs(t)
        return SpinorState(
            grid=self.grid,
            plus=_by_parts(lambda x: self._b_plus.T @ x, self.w_rho * pt),
            minus=_by_parts(lambda x: self._b_minus.T @ x, self.w_rho * mt),
            support_radius=reach)
