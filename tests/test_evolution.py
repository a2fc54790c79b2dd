import functools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from warpdirac import (ConfigurationError, DataTemplate, Family, FlatBesselOracle,
                       GridTooCoarseError, MetricProfile, NumericalError, RadialGrid, SpinorState, SpinorTrajectory,
                       assemble_dirac, assemble_kg, evolve, factorization_check,
                       gaussian_state, verify_square)
from warpdirac import evolution
from warpdirac.evolution import (_barrier_cell, _bessel_coefficients, _chebyshev_propagate,
                                 _tail_terms, bessel_orders, causal_time_limit)

import references
from references import kg_crosscheck

FLAT = MetricProfile(Family.FLAT)
AF001 = MetricProfile(Family.ASYMPTOTICALLY_FLAT, epsilon=0.01)
GRID = RadialGrid(40.0, 512)


def state_diff(a: SpinorState, b: SpinorState) -> float:
    num = np.sqrt(np.sum(np.abs(a.plus - b.plus) ** 2)
                  + np.sum(np.abs(a.minus - b.minus) ** 2))
    den = np.sqrt(np.sum(np.abs(b.plus) ** 2) + np.sum(np.abs(b.minus) ** 2))
    return float(num / den)


@pytest.fixture(scope="module")
def flat_op():
    return assemble_dirac(FLAT, 1.0, 0.0, GRID)


def test_time_zero_is_identity(flat_op):
    init = gaussian_state(GRID)
    traj = evolve(flat_op, init, [0.0])
    assert state_diff(traj.state(0), init) == 0.0


def test_unitarity(flat_op):
    init = gaussian_state(GRID)
    traj = evolve(flat_op, init, np.linspace(0.0, 20.0, 11))
    base = traj.state(0).norm()
    for k in range(len(traj.times)):
        assert abs(traj.state(k).norm() / base - 1.0) <= 1e-10


def test_reversibility(flat_op):
    init = gaussian_state(GRID)
    fwd = evolve(flat_op, init, [13.0]).state(0)
    back = evolve(flat_op, fwd, [-13.0]).state(0)
    assert state_diff(back, init) <= 1e-9


PROPERTY_GRID = RadialGrid(40.0, 96)
PROPERTY_OP = assemble_dirac(FLAT, 1.0, 0.0, PROPERTY_GRID)
PROPERTY_EIG = scipy.linalg.eigh(PROPERTY_OP.matrix)


# Random data fill every cell, so evolve keeps the whole grid here; the
# cut is checked against the full grid below.
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       times=st.lists(st.floats(-30.0, 30.0, allow_nan=False), min_size=1,
                      max_size=12, unique=True).map(sorted))
def test_evolve_property_random_data_and_times(seed, times):
    """Unitary, reversible, exactly labelled and equal to the per-sample
    formula u (exp(-i t w) * u^T v0), for Gaussian random data and random
    (negative, non-uniform) time sets."""
    rng = np.random.default_rng(seed)
    nn = PROPERTY_GRID.n_cells
    vec = rng.standard_normal(2 * nn) + 1j * rng.standard_normal(2 * nn)
    init = SpinorState(grid=PROPERTY_GRID, plus=vec[:nn], minus=vec[nn:])
    traj = evolve(PROPERTY_OP, init, times)
    assert traj.times.tolist() == times
    w, u = PROPERTY_EIG
    coeff = u.T @ vec
    base = init.norm()
    for k, t in enumerate(times):
        state = traj.state(k)
        assert abs(state.norm() / base - 1.0) <= 1e-12
        want = u @ (np.exp(-1j * t * w) * coeff)
        got = traj.samples[:, k]
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(vec)
        back = evolve(PROPERTY_OP, state, [-t]).state(0)
        assert state_diff(back, init) <= 1e-12


REFEREE_GRID = RadialGrid(40.0, 96)


def _evolve_block(op, vec, times):
    nn = op.grid.n_cells
    return evolve(op, SpinorState(grid=op.grid, plus=vec[:nn], minus=vec[nn:]), times).samples


REFEREE_CUT = 5


def _cut_block(op, vec, times):
    return _chebyshev_propagate(op, vec, times, REFEREE_CUT)


def _referee_data(nn):
    """Random complex data, and real data in v_plus alone and in v_minus alone."""
    rng = np.random.default_rng(11)
    vec = rng.standard_normal(2 * nn) + 1j * rng.standard_normal(2 * nn)
    plus, minus = np.zeros(2 * nn, complex), np.zeros(2 * nn, complex)
    plus[:nn] = rng.standard_normal(nn)
    minus[nn:] = rng.standard_normal(nn)
    return {"complex": vec, "plus": plus, "minus": minus}


REFEREE_TIMES = np.array([-30.0, -7.3, 0.0, 0.4, 12.0, 30.0])


@functools.lru_cache(maxsize=None)
def _long_double_flows(profile, mu, m, start):
    """exp(-i t h) v on the kept cells for each referee datum and time, with h
    the dense Dirac matrix there, as a Taylor series summed in long double.

    Each time is reached in steps t / n with |t / n| ||h|| <= 8, each summed to
    56 terms (8^56 / 56! < 1e-23), and h is applied by its nonzero diagonals.
    SciPy's expm is no reference at the tolerance below: its forward error
    at t = 12 reaches 1.3 times it on the cut flat (-2, 0.7) matrix, and moves
    with the BLAS thread count.
    """
    nn = REFEREE_GRID.n_cells
    keep = np.r_[start:nn, nn + start:2 * nn]
    h = assemble_dirac(profile, mu, m, REFEREE_GRID).matrix[np.ix_(keep, keep)]
    rho = np.max(np.abs(np.linalg.eigvalsh(h)))
    n = len(h)
    h = h.astype(np.longdouble)
    diagonals = [(k, np.diagonal(h, k)[:, None]) for k in range(1 - n, n)
                 if np.any(np.diagonal(h, k))]

    def apply(x):
        out = np.zeros_like(x)
        for k, d in diagonals:
            if k >= 0:
                out[:n - k] += d * x[k:]
            else:
                out[-k:] += d * x[:n + k]
        return out

    data = np.stack(list(_referee_data(nn).values()), axis=1)[keep]
    flows = np.empty(data.shape + (len(REFEREE_TIMES),), dtype=complex)
    for j, t in enumerate(REFEREE_TIMES):
        steps = max(1, math.ceil(abs(t) * rho / 8.0))
        dt = np.longdouble(t) / steps
        re, im = data.real.astype(np.longdouble), data.imag.astype(np.longdouble)
        for _ in range(steps):
            term_re, term_im = re.copy(), im.copy()
            for k in range(1, 57):  # term *= -i dt h / k
                term_re, term_im = apply(term_im) * (dt / k), apply(term_re) * (-dt / k)
                re += term_re
                im += term_im
        flows[:, :, j] = re.astype(float) + 1j * im.astype(float)
    return flows


@pytest.mark.parametrize("propagate", [_evolve_block, _chebyshev_propagate, _cut_block],
                         ids=["evolve", "chebyshev", "cut"])
@pytest.mark.parametrize("profile", [FLAT, AF001], ids=["flat", "af"])
@pytest.mark.parametrize("mu, m", [(1.0, 0.0), (-2.0, 0.7), (3.0, 1.5)])
def test_evolve_matches_dense_expm(propagate, profile, mu, m):
    """evolve and the recurrence equal exp(-i t h) v of the dense matrix h
    for random complex data and for real data in one component (whose
    recurrence runs on one real row, and at m = 0 on one component's
    cells), negative, zero and long times included.  Cut at a cell, the
    recurrence is the exponential of h on the kept cells (Dirichlet at the
    cut), and the cut cells are exact zeros."""
    op = assemble_dirac(profile, mu, m, REFEREE_GRID)
    nn = REFEREE_GRID.n_cells
    data = _referee_data(nn)
    start = REFEREE_CUT if propagate is _cut_block else 0
    keep = np.r_[start:nn, nn + start:2 * nn]
    got = {name: propagate(op, vec, REFEREE_TIMES) for name, vec in data.items()}
    for name, vec in data.items():
        assert not np.any(np.delete(got[name], keep, axis=0)), name
    flows = _long_double_flows(profile, mu, m, start)
    for k in range(len(REFEREE_TIMES)):
        for j, (name, vec) in enumerate(data.items()):
            want = flows[:, j, k]
            assert np.linalg.norm(got[name][keep, k] - want) <= 2e-13 * np.linalg.norm(vec), name


@pytest.mark.parametrize("component", ["plus", "minus"])
@pytest.mark.parametrize("m, width", [(0.0, 1), (0.7, 2)])
def test_real_one_component_flow_steps_single_rows(monkeypatch, component, m, width):
    """A real datum runs the recurrence on one real row, and at m = 0 a
    datum in one component steps only that row's N cells through the
    coupling stencil; with a mass, every step takes the full 2N band
    product.  ``width`` is the number of components per step."""
    grid = RadialGrid(40.0, 256)
    op = assemble_dirac(FLAT, 1.0, m, grid)
    shapes = []

    def counting(product):
        def wrapped(x, *args):
            shapes.append((product.__name__, x.shape))
            return product(x, *args)
        return wrapped

    for name in ("coupling_product", "dirac_band_product"):
        monkeypatch.setattr(evolution, name, counting(getattr(evolution, name)))
    init = gaussian_state(grid, component=component)
    traj = evolve(op, init, np.linspace(0.0, 8.0, 5))
    want = {("coupling_product" if width == 1 else "dirac_band_product",
             (1, width * grid.n_cells))}
    assert shapes and set(shapes) == want
    full = scipy.linalg.expm(-8j * op.matrix) @ init.as_vector()
    assert np.linalg.norm(traj.samples[:, -1] - full) <= 1e-12 * np.linalg.norm(full)


def _record_starts(monkeypatch):
    """Record the first kept cell of every recurrence evolve runs."""
    starts = []

    def recording(op, v0, times, start=0):
        starts.append(start)
        return _chebyshev_propagate(op, v0, times, start)

    monkeypatch.setattr(evolution, "_chebyshev_propagate", recording)
    return starts


@pytest.mark.parametrize("mu, t_max, path", [(1.0, 8.0, "chebyshev"), (1.0, 0.5, "chebyshev"),
                                             (64.0, 8.0, "cut"), (-64.0, -8.0, "cut")])
def test_evolve_takes_the_cheaper_propagator(monkeypatch, mu, t_max, path):
    """At 512 cells |mu| = 1 runs the recurrence on the full grid, and
    |mu| = 64 on the cells outward of its centrifugal barrier, once, with
    the full grid's samples to roundoff."""
    grid = RadialGrid(40.0, 512)
    op = assemble_dirac(AF001, mu, 0.7, grid)
    init = gaussian_state(grid)
    times = np.linspace(0.0, t_max, 5) if t_max > 0 else np.linspace(t_max, 0.0, 5)
    starts = _record_starts(monkeypatch)
    traj = evolve(op, init, times)
    assert len(starts) == 1 and (starts[0] > 0) == (path == "cut")
    v0 = init.as_vector()
    full = _chebyshev_propagate(op, v0, times)
    for k in range(len(times)):
        assert np.linalg.norm(traj.samples[:, k] - full[:, k]) <= 1e-12 * np.linalg.norm(v0)


@pytest.mark.parametrize("profile", [FLAT, AF001], ids=["flat", "af"])
@pytest.mark.parametrize("mu", [16.0, -64.0, 64.0, 256.0])
@pytest.mark.parametrize("m", [0.0, 0.7])
def test_cut_matches_the_full_grid(monkeypatch, profile, mu, m):
    """At 1024 cells every one of these modes is cut at its centrifugal
    barrier, once, and the samples stay within 1e-12 relative of the
    recurrence on the full grid; the cut cells are exact zeros."""
    grid = RadialGrid(40.0, 1024)
    op = assemble_dirac(profile, mu, m, grid)
    init = gaussian_state(grid)
    times = np.array([-2.0, 0.0, 0.5, 2.0])
    starts = _record_starts(monkeypatch)
    traj = evolve(op, init, times)
    assert len(starts) == 1 and starts[0] > 0
    full = _chebyshev_propagate(op, init.as_vector(), times)
    for k in range(len(times)):
        diff = np.linalg.norm(traj.samples[:, k] - full[:, k])
        assert diff <= 1e-12 * np.linalg.norm(full[:, k])
    nn = grid.n_cells
    cut = np.r_[:starts[0], nn:nn + starts[0]]
    assert not np.any(traj.samples[np.ix_(cut, times != 0.0)])


@pytest.mark.parametrize("n_cells", [1024, 2048])
@pytest.mark.parametrize("profile", [FLAT, AF001], ids=["flat", "af"])
@pytest.mark.parametrize("mu", [1.0, -1.0, 2.0, -2.0, 8.0])
def test_no_cut_where_it_does_not_pay(profile, mu, n_cells):
    """Low modes on the benchmark grids keep the whole grid, so their
    samples are the uncut recurrence's."""
    grid = RadialGrid(40.0, n_cells)
    op = assemble_dirac(profile, mu, 0.0, grid)
    assert _barrier_cell(op, gaussian_state(grid).as_vector()) == 0


def test_shallow_cut_fails_its_certificate(monkeypatch):
    """A cut 2 Agmon units deep lets the flow reach the first kept cells,
    so evolve runs the full grid once more and returns its samples, bit
    for bit."""
    monkeypatch.setattr(evolution, "_AGMON_DEPTH", 2.0)
    grid = RadialGrid(40.0, 1024)
    op = assemble_dirac(AF001, 16.0, 0.0, grid)
    init = gaussian_state(grid)
    times = np.linspace(0.0, 8.0, 5)
    starts = _record_starts(monkeypatch)
    traj = evolve(op, init, times)
    assert starts[0] > 0 and starts[1:] == [0]
    full = _chebyshev_propagate(op, init.as_vector(), times)
    assert np.array_equal(traj.samples[:, 1:], full[:, 1:])


@pytest.mark.parametrize("mu", [1.0, 64.0], ids=["chebyshev", "cut"])
def test_trajectory_is_one_sample_block(mu):
    """Cut or not, the samples are one read-only, C-ordered 2N x T array:
    plus and minus view it, state(k) is its column k, and norms() is
    SpinorState.norm of each state(k)."""
    grid = RadialGrid(40.0, 512)
    op = assemble_dirac(AF001, mu, 0.7, grid)
    init = gaussian_state(grid)
    traj = evolve(op, init, np.linspace(0.0, 8.0, 5))
    assert (_barrier_cell(op, init.as_vector()) > 0) == (mu == 64.0)
    assert traj.samples.shape == (1024, 5) and traj.samples.flags.c_contiguous
    for block, rows in ((traj.plus, slice(None, 512)), (traj.minus, slice(512, None))):
        assert np.shares_memory(block, traj.samples) and block.flags.c_contiguous
        assert np.array_equal(block, traj.samples[rows])
        with pytest.raises(ValueError):
            block[0, 0] = 0.0
    states = [traj.state(k) for k in range(5)]
    assert traj.norms().tolist() == [state.norm() for state in states]
    for k, state in enumerate(states):
        assert np.array_equal(np.concatenate([state.plus, state.minus]), traj.samples[:, k])


def test_states_and_trajectories_refuse_bad_samples():
    zero = np.zeros(GRID.n_cells, complex)
    with pytest.raises(ConfigurationError, match="length must match"):
        SpinorState(grid=GRID, plus=zero[:-1], minus=zero)
    with pytest.raises(ConfigurationError, match="must be finite"):
        SpinorState(grid=GRID, plus=zero, minus=np.full(GRID.n_cells, np.nan, complex))
    mode = dict(grid=GRID, profile=FLAT, mu=1.0, m=0.0)
    with pytest.raises(ConfigurationError, match="2N x T"):
        SpinorTrajectory(times=np.array([0.0, 1.0]), samples=np.zeros((2 * GRID.n_cells, 3)),
                         **mode)
    with pytest.raises(ConfigurationError, match="strictly increasing"):
        SpinorTrajectory(times=np.array([1.0, 1.0]), samples=np.zeros((2 * GRID.n_cells, 2)),
                         **mode)
    # a NaN support radius would switch off the causal-window check of the norms
    for radius in (math.nan, math.inf, -math.inf, -1.0):
        with pytest.raises(ConfigurationError, match="support radius"):
            SpinorState(grid=GRID, plus=zero, minus=zero, support_radius=radius)
        with pytest.raises(ConfigurationError, match="support radius"):
            SpinorTrajectory(times=np.array([0.0, 1.0]), samples=np.zeros((2 * GRID.n_cells, 2)),
                             support_radius=radius, **mode)
    for radius in (None, 0.0, 16.5):
        assert SpinorState(grid=GRID, plus=zero, minus=zero, support_radius=radius)


def test_components_are_plus_or_minus():
    with pytest.raises(ConfigurationError, match="'plus' or 'minus'"):
        DataTemplate(component="up")
    with pytest.raises(ConfigurationError, match="'plus' or 'minus'"):
        gaussian_state(GRID, component="up")


def test_evolve_needs_a_dirac_operator():
    with pytest.raises(ConfigurationError, match="Dirac-mode operator"):
        evolve(assemble_kg(FLAT, 1.0, 0.0, +1, GRID), gaussian_state(GRID), [0.0, 1.0])


def test_a_rational_or_integer_mu_flows_as_its_float():
    init = gaussian_state(GRID)
    times = np.linspace(0.0, 4.0, 3)
    want = evolve(assemble_dirac(AF001, 1.0, 0.0, GRID), init, times)
    for mu in (Fraction(1), np.float64(1.0), 1):
        traj = evolve(assemble_dirac(AF001, mu, 0.0, GRID), init, times)
        assert type(traj.mu) is float
        assert np.array_equal(traj.samples, want.samples)


def test_bessel_coefficients_match_scipy():
    """The expansion's coefficients (2 - delta_k0) s_k J_k(x), from the power
    series below x = 1 and from Miller's backward recurrence above it."""
    x = np.array([0.0, 0.4, -3.0, 250.0, 1228.8, -2048.0])
    coeffs = _bessel_coefficients(x)
    k = np.arange(coeffs.shape[1])
    want = (scipy.special.jv(k, x[:, None]) * np.where(k % 4 < 2, 1.0, -1.0)
            * np.where(k == 0, 1.0, 2.0))
    assert np.max(np.abs(coeffs - want)) <= 1e-13
    assert coeffs.shape[1] < 2048 + 12 * 2048 ** (1 / 3) + 28
    small = np.array([0.0, 1e-12, 1e-6, 1e-3, 0.3, 0.999999, 1.0])
    small = np.concatenate([small, -small])
    coeffs = _bessel_coefficients(small)
    k = np.arange(coeffs.shape[1])
    bessel = coeffs * np.where(k % 4 < 2, 1.0, -1.0) / np.where(k == 0, 1.0, 2.0)
    assert np.max(np.abs(bessel - scipy.special.jv(k, small[:, None]))) <= 1e-16
    assert bessel[0].tolist() == [1.0] + [0.0] * (len(k) - 1)


def test_tail_terms_hold_over_the_checked_range():
    """Every J_k(x) from 24 orders below _tail_terms(x) to 15 above it is at most
    _BESSEL_TAIL for x up to _TAIL_CHECKED, and a larger or NaN rho |t| is refused
    before any table is built."""
    x = np.geomspace(1.0, evolution._TAIL_CHECKED, 60)
    k = _tail_terms(x)[:, None] + np.arange(-24, 16)
    assert np.max(np.abs(scipy.special.jv(k, x[:, None]))) <= evolution._BESSEL_TAIL
    for bad in (1.0001e7, -8e12, np.inf, np.nan):
        with pytest.raises(NumericalError, match="past 1e\\+07, where its truncation"):
            _bessel_coefficients(np.array([0.5, bad]))


def test_term_budget_admits_the_largest_recorded_flow_inside_the_checked_range():
    """The 1e6-term budget admits rho t = 8.4e5 (flat |mu| = 1024 on 2048 cells
    without the cut, the largest flow on record) and lies inside the range
    where the tail was checked; a larger rho |t| inside that range is refused
    for the budget, and one past it (or a NaN) for the range."""
    budget = evolution._TERM_BUDGET
    assert _tail_terms(8.4e5) <= budget < _tail_terms(evolution._TAIL_CHECKED)
    evolution._check_tail_reach(8.4e5)
    for bad in (9.99e5, 8e6, evolution._TAIL_CHECKED):
        with pytest.raises(NumericalError, match="past its budget of 1e\\+06 terms"):
            evolution._check_tail_reach(bad)
    for bad in (1.0001e7, np.inf, np.nan):
        with pytest.raises(NumericalError, match="past 1e\\+07, where its truncation"):
            evolution._check_tail_reach(bad)


def test_a_potential_over_the_term_budget_is_refused_before_its_bessel_table():
    """At m = 0 the bound |m| + 1/dr that evolve checks first admits mu = 1e6 on
    128 cells, but V = mu / r puts its own rho t past the budget: the flow is
    refused from its spectral bound, before its Bessel table and recurrence,
    at once."""
    grid = RadialGrid(40.0, 128)
    op = assemble_dirac(FLAT, 1e6, 0.0, grid)
    start = time.perf_counter()
    with pytest.raises(NumericalError, match="past its budget of 1e\\+06 terms"):
        evolve(op, gaussian_state(grid), [0.0, 8.0])
    assert time.perf_counter() - start < 1.0


def test_a_datum_that_samples_as_zero_is_refused():
    """A bump far narrower than dr between two nodes has only zero samples, which
    would make every norm ratio 0 / 0; gaussian_state itself still samples it."""
    grid = RadialGrid(40.0, 16)
    with pytest.raises(GridTooCoarseError, match="width 0.01 samples as zero"):
        DataTemplate(width=0.01).realize(grid)
    assert not np.any(gaussian_state(grid, width=0.01).plus)
    assert np.any(DataTemplate(width=0.01, component="minus").realize(RadialGrid(40.0, 4000)).minus)


def _peak_memory_of_evolve(profile, mu, times):
    """tracemalloc peak of assembling and evolving one mode on 8192 cells."""
    grid = RadialGrid(40.0, 8192)
    tracemalloc.start()
    try:
        op = assemble_dirac(profile, mu, 0.0, grid)
        init = gaussian_state(grid)
        traj = evolve(op, init, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.times.tolist() == times.tolist()
    base = init.norm()
    assert np.max(np.abs(traj.norms() / base - 1.0)) <= 1e-12
    return peak


def test_evolve_bounded_memory_at_8192_cells():
    """Assembly and propagation stay O(N): a dense 2N x 2N matrix alone
    would take 2.1 GB here."""
    assert _peak_memory_of_evolve(FLAT, 1.0, np.linspace(0.0, 1.0, 5)) < 64 * 2**20


def test_cut_flow_bounded_memory_at_8192_cells():
    """At |mu| = 256 the full grid's Bessel table alone would hold about
    840k terms per sample; cut at the barrier, the flow stays small."""
    assert _peak_memory_of_evolve(AF001, 256.0, np.linspace(0.0, 8.0, 17)) < 64 * 2**20


@pytest.mark.parametrize("m, limit", [(0.0, 2.5), (0.7, 3.5)])
def test_evolve_scratch_is_what_the_flow_writes(monkeypatch, m, limit):
    """At 4096 cells and 33 samples the accumulator keeps each parity's
    carried rows on the cells it writes, and the parities are added straight
    into the samples: evolve's tracemalloc peak, samples included, is at
    most 2.5 (m = 0) and 3.5 (m = 0.7) times the samples' bytes.  A full
    accumulator of four real copies of the samples, and a complex copy to
    combine them, peaked at 3.76 and 4.26 times."""
    grid = RadialGrid(40.0, 4096)
    op = assemble_dirac(AF001, 1.0, m, grid)
    init = gaussian_state(grid)
    starts = _record_starts(monkeypatch)
    tracemalloc.start()
    try:
        traj = evolve(op, init, np.linspace(0.0, 8.0, 33))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert starts == [0]
    assert peak <= limit * traj.samples.nbytes


@pytest.mark.parametrize("component", ["plus", "minus"])
@pytest.mark.parametrize("amplitude", [1.0, -2.0])
@pytest.mark.parametrize("m", [0.0, 0.7])
def test_real_datum_samples_carry_no_negative_zero(component, amplitude, m):
    """The parities are added into zeros, so a part or a component that the
    flow does not carry stays +0.0, and the imaginary part of a real datum
    is 0.0 - odd: no sample, real or imaginary, is -0.0.  At m = 0 the
    even-k component is real and the odd-k one imaginary."""
    op = assemble_dirac(AF001, 2.0, m, GRID)
    traj = evolve(op, gaussian_state(GRID, amplitude=amplitude, component=component),
                  np.linspace(0.0, 8.0, 5))
    parts = traj.samples.view(float)
    assert not np.any((parts == 0.0) & np.signbit(parts))
    if m == 0.0:
        home, other = ((traj.plus, traj.minus) if component == "plus"
                       else (traj.minus, traj.plus))
        assert not np.any(home.imag) and not np.any(other.real)
        assert np.any(home.real) and np.any(other.imag)


def test_causal_window_recorded(flat_op):
    init = gaussian_state(GRID, center=12.0, width=1.5)
    traj = evolve(flat_op, init, [1.0])
    assert traj.causal_t_max == pytest.approx(causal_time_limit(40.0, 16.5))


def test_non_finite_times_and_masses_are_refused(flat_op):
    """A NaN or infinite time or mass is a ConfigurationError, not an IndexError
    from the length of the Chebyshev expansion."""
    from warpdirac import ExponentTriple, mu_scan

    init = gaussian_state(GRID)
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="finite times"):
            evolve(flat_op, init, [0.0, bad])
        with pytest.raises(ConfigurationError, match="mass m must be finite"):
            evolve(assemble_dirac(FLAT, 1.0, bad, GRID), init, [0.0, 1.0])
    with pytest.raises(ConfigurationError, match="mass m must be finite"):
        mu_scan(FLAT, [ExponentTriple(math.inf, 2.0)], [1.0], grid=GRID, m=math.nan)


def test_grid_mismatch(flat_op):
    other = gaussian_state(RadialGrid(40.0, 256))
    with pytest.raises(ConfigurationError):
        evolve(flat_op, other, [1.0])


def test_bessel_orders():
    # flattened squared potentials mu(mu+1) and mu(mu-1) give half-integer
    # orders |2 mu + 1|/2 for v_plus and |2 mu - 1|/2 for v_minus
    assert bessel_orders(1.0) == (1.5, 0.5)
    assert bessel_orders(-1.0) == (0.5, 1.5)
    assert bessel_orders(2.0) == (2.5, 1.5)


def test_half_integer_bessel_closed_form():
    # order 1/2 channel: sqrt(rho r) J_{1/2}(rho r) = sqrt(2/pi) sin(rho r)
    oracle = FlatBesselOracle(1.0, 0.0, 3, GRID, rho_max=5.0, n_rho=64)
    rho = oracle.rho[:5, None]
    r = GRID.nodes[None, :24]
    expect = np.sqrt(2.0 / np.pi) * np.sin(rho * r)
    assert np.allclose(oracle._b_minus[:5, :24], expect, atol=1e-12)


def test_oracle_roundtrip(flat_op):
    init = gaussian_state(GRID, center=7.5, width=1.5)
    out = FlatBesselOracle(1.0, 0.0, 3, GRID).propagate(init, 0.0)
    assert state_diff(out, init) <= 1e-6


def test_oracle_agreement_massless(flat_op):
    init = gaussian_state(GRID, center=7.5, width=1.5)
    got = evolve(flat_op, init, [8.0]).state(0)
    expect = FlatBesselOracle(1.0, 0.0, 3, GRID).propagate(init, 8.0)
    assert state_diff(got, expect) <= 1e-2  # coarse grid; 1e-3 at 2048 cells
    # both grow the datum's support radius by the light cone |t|
    assert expect.support_radius == got.support_radius == init.support_radius + 8.0


def test_oracle_agreement_massive():
    init = gaussian_state(GRID, center=7.5, width=1.5)
    op = assemble_dirac(FLAT, 2.0, 1.0, GRID)
    got = evolve(op, init, [6.0]).state(0)
    expect = FlatBesselOracle(2.0, 1.0, 3, GRID).propagate(init, 6.0)
    assert state_diff(got, expect) <= 2e-2


def test_oracle_holds_at_most_three_kernel_arrays():
    """The oracle keeps two real n_rho x N kernels; building them needs one
    more array and applying them none (no complex copy of a kernel)."""
    grid = RadialGrid(40.0, 512)
    init = gaussian_state(grid, center=7.5, width=1.5)
    kernel_bytes = 1200 * grid.n_cells * 8
    tracemalloc.start()
    try:
        oracle = FlatBesselOracle(1.0, 0.7, 3, grid)
        _, built = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        oracle.propagate(init, 5.0)
        _, applied = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built < 3.2 * kernel_bytes
    assert applied < 2.2 * kernel_bytes


def test_oracle_unitary():
    init = gaussian_state(GRID, center=7.5, width=1.5)
    out = FlatBesselOracle(1.0, 0.0, 3, GRID).propagate(init, 5.0)
    assert out.norm() == pytest.approx(init.norm(), rel=1e-6)


def test_kg_crosscheck_refinement():
    grid = RadialGrid(40.0, 1024)
    r = grid.nodes
    init = SpinorState(grid=grid,
                       plus=np.exp(-((r - 16.0) / 3.0) ** 2).astype(complex),
                       minus=0.8 * np.exp(-((r - 14.0) / 2.5) ** 2).astype(complex),
                       support_radius=25.0)
    op = assemble_dirac(FLAT, 1.0, 0.0, grid)
    res = []
    for dt in (0.8, 0.4):
        worst = 0.0
        for t_check in (0.8, 1.6, 2.4):
            traj = evolve(op, init, [t_check - dt, t_check, t_check + dt])
            worst = max(worst, kg_crosscheck(traj))
        res.append(worst)
    assert res[0] / res[1] >= 3.5


class DenseKG:
    """Stand-in for a Klein-Gordon operator: a dense K, for instance a
    pentadiagonal block of h^2, which no tridiagonal kind can hold."""

    def __init__(self, matrix):
        self.matrix = matrix

    def apply(self, block):
        return self.matrix @ block


def _pair_kg_crosscheck_with(monkeypatch, kg_minus, kg_plus):
    """Make kg_crosscheck pair v_plus with the dense kg_minus and v_minus with kg_plus."""
    pair = {-1: DenseKG(kg_minus), +1: DenseKG(kg_plus)}
    monkeypatch.setattr(references, "assemble_kg", lambda profile, mu, m, sign, grid: pair[sign])


def test_kg_crosscheck_eigenmode_exact(flat_op, monkeypatch):
    """On an eigenvector, with the squared operator itself on the right,
    the residual is exactly the cos second-difference defect."""
    w, u = scipy.linalg.eigh(flat_op.matrix)
    k = np.argmin(np.abs(w - 1.0))
    lam = w[k]
    nn = GRID.n_cells
    vec = u[:, k].astype(complex)
    init = SpinorState(grid=GRID, plus=vec[:nn], minus=vec[nn:])
    h2 = flat_op.matrix @ flat_op.matrix
    _pair_kg_crosscheck_with(monkeypatch, h2[:nn, :nn], h2[nn:, nn:])
    dt = 0.25
    traj = evolve(flat_op, init, [0.0, dt, 2 * dt])
    res = kg_crosscheck(traj)
    exact = abs((2.0 * math.cos(lam * dt) - 2.0) / dt**2 + lam**2)
    assert res == pytest.approx(exact, rel=1e-8)
    assert res <= (lam * dt) ** 2 / 12.0 * lam**2


def test_kg_crosscheck_mass_shift_on_eigenmode(flat_op, monkeypatch):
    """Shifting the right-hand operator by m^2 changes the residual vector
    by exactly m^2 v on an eigenmode."""
    w, u = scipy.linalg.eigh(flat_op.matrix)
    k = np.argmin(np.abs(w - 1.0))
    nn = GRID.n_cells
    vec = u[:, k].astype(complex)
    h2 = flat_op.matrix @ flat_op.matrix
    dt = 0.25
    lam = w[k]
    m2 = 3.0
    # residuals computed directly from the scalar time factor
    base = (2.0 * math.cos(lam * dt) - 2.0) / dt**2 + lam**2
    shifted = base + m2
    _pair_kg_crosscheck_with(monkeypatch, h2[:nn, :nn] + m2 * np.eye(nn),
                             h2[nn:, nn:] + m2 * np.eye(nn))
    init = SpinorState(grid=GRID, plus=vec[:nn], minus=vec[nn:])
    traj = evolve(flat_op, init, [0.0, dt, 2 * dt])
    res = kg_crosscheck(traj)
    assert res == pytest.approx(abs(shifted), rel=1e-8)


def test_kg_crosscheck_needs_uniform_times(flat_op):
    init = gaussian_state(GRID)
    traj = evolve(flat_op, init, [0.0, 0.5, 1.5])
    with pytest.raises(ConfigurationError):
        kg_crosscheck(traj)
    short = evolve(flat_op, init, [0.0, 0.5])
    with pytest.raises(ConfigurationError):
        kg_crosscheck(short)


def test_validate_residuals_bounded_memory_at_8192_cells():
    """The squaring and factorization residuals work on the bands: a dense
    Klein-Gordon matrix alone would take 512 MB here and a dense Dirac
    matrix 2.1 GB."""
    grid = RadialGrid(40.0, 8192)
    tracemalloc.start()
    try:
        square = verify_square(AF001, 1.0, 0.0, grid)
        res_minus, res_plus = factorization_check(AF001, 1.0, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert 0.0 < square < 1e-3
    assert 0.0 < res_minus < 1e-3 and 0.0 < res_plus < 1e-3
