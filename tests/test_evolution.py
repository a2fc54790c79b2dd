import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpdirac import (ConfigurationError, Family, FlatBesselOracle,
                       MetricProfile, RadialGrid, SpinorState,
                       UnsupportedFamilyError, assemble_dirac, assemble_kg,
                       evolve, flat_exact_solution, gaussian_state,
                       kg_crosscheck)
from warpdirac.evolution import bessel_orders, causal_time_limit, evolve_crank_nicolson

FLAT = MetricProfile(Family.FLAT)
GRID = RadialGrid(40.0, 512)


def state_diff(a: SpinorState, b: SpinorState) -> float:
    num = np.sqrt(np.sum(np.abs(a.plus - b.plus) ** 2)
                  + np.sum(np.abs(a.minus - b.minus) ** 2))
    den = np.sqrt(np.sum(np.abs(b.plus) ** 2) + np.sum(np.abs(b.minus) ** 2))
    return float(num / den)


@pytest.fixture(scope="module")
def flat_op():
    return assemble_dirac(FLAT, 1.0, 0.0, 3, GRID)


def test_time_zero_is_identity(flat_op):
    init = gaussian_state(GRID)
    traj = evolve(flat_op, init, [0.0])
    assert state_diff(traj.states[0], init) == 0.0


def test_unitarity(flat_op):
    init = gaussian_state(GRID)
    traj = evolve(flat_op, init, np.linspace(0.0, 20.0, 11))
    base = traj.states[0].norm()
    for state in traj.states:
        assert abs(state.norm() / base - 1.0) <= 1e-10


def test_reversibility(flat_op):
    init = gaussian_state(GRID)
    fwd = evolve(flat_op, init, [13.0]).states[0]
    back = evolve(flat_op, fwd, [-13.0]).states[0]
    assert state_diff(back, init) <= 1e-9


PROPERTY_GRID = RadialGrid(40.0, 96)
PROPERTY_OP = assemble_dirac(FLAT, 1.0, 0.0, 3, PROPERTY_GRID)


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
    init = SpinorState.from_vector(PROPERTY_GRID, vec)
    traj = evolve(PROPERTY_OP, init, times)
    assert traj.times.tolist() == times
    w, u = PROPERTY_OP.eigh()
    coeff = u.T @ vec
    base = init.norm()
    for t, state in zip(times, traj.states):
        assert abs(state.norm() / base - 1.0) <= 1e-12
        want = u @ (np.exp(-1j * t * w) * coeff)
        got = np.concatenate([state.plus, state.minus])
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(vec)
        back = evolve(PROPERTY_OP, state, [-t]).states[0]
        assert state_diff(back, init) <= 1e-12


def test_causal_window_recorded(flat_op):
    init = gaussian_state(GRID, center=12.0, width=1.5)
    traj = evolve(flat_op, init, [1.0])
    assert traj.causal_t_max == pytest.approx(causal_time_limit(40.0, 16.5))


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
    out = flat_exact_solution(1.0, 0.0, 3, init, 0.0)
    assert state_diff(out, init) <= 1e-6


def test_oracle_rejects_curved_profile():
    init = gaussian_state(GRID)
    with pytest.raises(UnsupportedFamilyError):
        flat_exact_solution(1.0, 0.0, 3, init, 1.0,
                            profile=MetricProfile(Family.SINH))


def test_oracle_agreement_massless(flat_op):
    init = gaussian_state(GRID, center=7.5, width=1.5)
    got = evolve(flat_op, init, [8.0]).states[0]
    expect = flat_exact_solution(1.0, 0.0, 3, init, 8.0)
    assert state_diff(got, expect) <= 1e-2  # coarse grid; 1e-3 at 2048 cells


def test_oracle_agreement_massive():
    init = gaussian_state(GRID, center=7.5, width=1.5)
    op = assemble_dirac(FLAT, 2.0, 1.0, 3, GRID)
    got = evolve(op, init, [6.0]).states[0]
    expect = flat_exact_solution(2.0, 1.0, 3, init, 6.0)
    assert state_diff(got, expect) <= 2e-2


def test_oracle_unitary():
    init = gaussian_state(GRID, center=7.5, width=1.5)
    out = flat_exact_solution(1.0, 0.0, 3, init, 5.0)
    assert out.norm() == pytest.approx(init.norm(), rel=1e-6)


def test_crank_nicolson_matches_spectral(flat_op):
    init = gaussian_state(GRID)
    spectral = evolve(flat_op, init, [2.0]).states[0]
    stepped = evolve_crank_nicolson(flat_op, init, [2.0], dt=0.002).states[0]
    assert state_diff(stepped, spectral) <= 1e-5
    assert abs(stepped.norm() / init.norm() - 1.0) <= 1e-12


def test_kg_crosscheck_refinement():
    grid = RadialGrid(40.0, 1024)
    r = grid.nodes
    init = SpinorState(grid=grid,
                       plus=np.exp(-((r - 16.0) / 3.0) ** 2).astype(complex),
                       minus=0.8 * np.exp(-((r - 14.0) / 2.5) ** 2).astype(complex),
                       support_radius=25.0)
    op = assemble_dirac(FLAT, 1.0, 0.0, 3, grid)
    km = assemble_kg(FLAT, 1.0, 0.0, 3, -1, grid)
    kp = assemble_kg(FLAT, 1.0, 0.0, 3, +1, grid)
    res = []
    for dt in (0.8, 0.4):
        worst = 0.0
        for t_check in (0.8, 1.6, 2.4):
            traj = evolve(op, init, [t_check - dt, t_check, t_check + dt])
            worst = max(worst, kg_crosscheck(traj, km, kp))
        res.append(worst)
    assert res[0] / res[1] >= 3.5


def test_kg_crosscheck_eigenmode_exact(flat_op):
    """On an eigenvector, with the squared operator itself on the right,
    the residual is exactly the cos second-difference defect."""
    w, u = flat_op.eigh()
    k = np.argmin(np.abs(w - 1.0))
    lam = w[k]
    nn = GRID.n_cells
    vec = u[:, k].astype(complex)
    init = SpinorState(grid=GRID, plus=vec[:nn], minus=vec[nn:])
    h2 = flat_op.matrix @ flat_op.matrix
    from warpdirac.operators import DiscreteRadialOperator
    km = DiscreteRadialOperator(grid=GRID, kind="kg_minus", matrix=h2[:nn, :nn])
    kp = DiscreteRadialOperator(grid=GRID, kind="kg_plus", matrix=h2[nn:, nn:])
    dt = 0.25
    traj = evolve(flat_op, init, [0.0, dt, 2 * dt])
    res = kg_crosscheck(traj, km, kp)
    exact = abs((2.0 * math.cos(lam * dt) - 2.0) / dt**2 + lam**2)
    assert res == pytest.approx(exact, rel=1e-8)
    assert res <= (lam * dt) ** 2 / 12.0 * lam**2


def test_kg_crosscheck_mass_shift_on_eigenmode(flat_op):
    """Shifting the right-hand operator by m^2 changes the residual vector
    by exactly m^2 v on an eigenmode."""
    w, u = flat_op.eigh()
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
    from warpdirac.operators import DiscreteRadialOperator
    km = DiscreteRadialOperator(grid=GRID, kind="kg_minus",
                                matrix=h2[:nn, :nn] + m2 * np.eye(nn))
    kp = DiscreteRadialOperator(grid=GRID, kind="kg_plus",
                                matrix=h2[nn:, nn:] + m2 * np.eye(nn))
    init = SpinorState(grid=GRID, plus=vec[:nn], minus=vec[nn:])
    traj = evolve(flat_op, init, [0.0, dt, 2 * dt])
    res = kg_crosscheck(traj, km, kp)
    assert res == pytest.approx(abs(shifted), rel=1e-8)


def test_kg_crosscheck_needs_uniform_times(flat_op):
    init = gaussian_state(GRID)
    km = assemble_kg(FLAT, 1.0, 0.0, 3, -1, GRID)
    kp = assemble_kg(FLAT, 1.0, 0.0, 3, +1, GRID)
    traj = evolve(flat_op, init, [0.0, 0.5, 1.5])
    with pytest.raises(ConfigurationError):
        kg_crosscheck(traj, km, kp)
    short = evolve(flat_op, init, [0.0, 0.5])
    with pytest.raises(ConfigurationError):
        kg_crosscheck(short, km, kp)
