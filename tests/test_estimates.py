import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpdirac import (ConfigurationError, ContractViolationError,
                       ExponentTriple, Family, MetricProfile, NonAdmissibleError,
                       RadialGrid, SpinorState, assemble_dirac, assemble_kg,
                       evolve, gaussian_state, h_sobolev_norm,
                       is_admissible_triple, mu_scan, smoothing_norm,
                       strichartz_norm)
from warpdirac.errors import PolicyError
from warpdirac.estimates import SobolevCalculus, strichartz_weight
from warpdirac.operators import DiscreteRadialOperator, flat_reference_operator

FLAT = MetricProfile(Family.FLAT)
AF001 = MetricProfile(Family.ASYMPTOTICALLY_FLAT, epsilon=0.01)
GRID = RadialGrid(40.0, 512)
T44 = ExponentTriple(p=4.0, q=4.0)


@pytest.fixture(scope="module")
def flat_traj():
    op = assemble_dirac(FLAT, 1.0, 0.0, GRID)
    init = gaussian_state(GRID)
    return evolve(op, init, np.linspace(0.0, 8.0, 17))


@pytest.mark.parametrize("p,q,m,n,ok", [
    (math.inf, 2.0, 0.0, 3, True),
    (4.0, 4.0, 0.0, 3, True),
    (4.0, 3.0, 1.0, 3, True),
    (4.0, 3.1, 1.0, 3, False),
    (1.5, 4.0, 0.0, 3, False),
    (8.0, 3.0, 0.0, 4, True),   # 2/8 + 3/3 = 5/4 ... check: (n-1)/2 = 3/2; 1/4+1 != 3/2
])
def test_admissible_triples(p, q, m, n, ok):
    if (p, q, m, n) == (8.0, 3.0, 0.0, 4):
        ok = abs(2.0 / 8.0 + 3.0 / 3.0 - 1.5) < 1e-12
    assert is_admissible_triple(p, q, m, n) is ok


def test_triple_s_derived():
    assert T44.s == 0.0
    assert ExponentTriple(p=math.inf, q=2.0).s == 0.5


def test_sobolev_norm_zero_exponent_is_l2():
    state = gaussian_state(GRID)
    assert h_sobolev_norm(state, 0.0) == pytest.approx(state.norm(), rel=1e-12)


def _sine_basis(grid):
    """Analytic Dirichlet eigenvectors sqrt(2/(N+1)) sin(pi j k/(N+1)), columns
    k = 1..N, and their eigenvalues (2 sin(pi k/(2(N+1))) / dr)^2; j k is reduced
    mod 2(N+1) in integers, so every sine argument is below 2 pi."""
    nn = grid.n_cells
    j = np.arange(1, nn + 1)
    u = np.sqrt(2.0 / (nn + 1)) * np.sin(np.pi * (np.outer(j, j) % (2 * (nn + 1))) / (nn + 1))
    return (2.0 * np.sin(0.5 * np.pi * j / (nn + 1)) / grid.dr) ** 2, u


def test_sobolev_norm_on_eigenvector():
    lam, u = flat_reference_operator(3, GRID).eigh()
    k = 40
    state = SpinorState(grid=GRID, plus=u[:, k].astype(complex),
                        minus=np.zeros(GRID.n_cells, dtype=complex))
    expect = math.sqrt(1.0 + lam[k]) * state.norm()
    assert h_sobolev_norm(state, 1.0) == pytest.approx(expect, rel=1e-12)


def test_sobolev_apply_block_matches_columns():
    calc = SobolevCalculus(GRID, 3)
    lam, u = _sine_basis(GRID)
    rng = np.random.default_rng(7)
    block = (rng.standard_normal((GRID.n_cells, 6))
             + 1j * rng.standard_normal((GRID.n_cells, 6)))
    for s in (-1.0, 0.5, 1.0):
        got = calc.apply(block, s)
        powers = np.maximum(1.0 + lam, 0.0) ** (s / 2.0)
        for k in range(block.shape[1]):
            want = u @ (powers * (u.T @ block[:, k]))
            assert np.linalg.norm(got[:, k] - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("n_cells", [1024, 2048])
def test_sobolev_dst_matches_eigenbasis(n_cells):
    """The n = 3 DST-I calculus against U diag((1 + w)^(s/2)) U^T from
    eigh_tridiagonal of the Dirichlet second difference."""
    import scipy.linalg

    grid = RadialGrid(40.0, n_cells)
    calc = SobolevCalculus(grid, 3)
    dr2 = grid.dr ** 2
    w, u = scipy.linalg.eigh_tridiagonal(np.full(n_cells, 2.0 / dr2),
                                         np.full(n_cells - 1, -1.0 / dr2))
    rng = np.random.default_rng(n_cells)
    real = rng.standard_normal((n_cells, 4))
    for block in (real, real + 1j * rng.standard_normal((n_cells, 4))):
        for s in (-1.0, -0.5, 0.5, 1.0):
            powers = ((1.0 + w) ** (s / 2.0))[:, None]
            want = u @ (powers * (u.T @ block.real)) + 1j * (u @ (powers * (u.T @ block.imag)))
            got = calc.apply(block, s)
            assert got.dtype == block.dtype
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_sobolev_norm_exponent_gate():
    with pytest.raises(ContractViolationError):
        h_sobolev_norm(gaussian_state(GRID), 1.2)


def test_smoothing_norm_zero_state(flat_traj):
    zero = SpinorState(grid=GRID, plus=np.zeros(GRID.n_cells, complex),
                       minus=np.zeros(GRID.n_cells, complex))
    op = assemble_dirac(FLAT, 1.0, 0.0, GRID)
    # evolve rejects nothing about zero data; norm is zero throughout
    traj = evolve(op, zero, [0.0, 1.0, 2.0])
    assert smoothing_norm(traj, (0.0, 2.0)) == 0.0


def test_smoothing_norm_window_policy(flat_traj):
    with pytest.raises(PolicyError):
        smoothing_norm(flat_traj, (0.0, flat_traj.causal_t_max + 5.0))
    with pytest.raises(ConfigurationError):
        smoothing_norm(flat_traj, (2.0, 1.0))


def test_smoothing_norm_window_stability():
    """Doubling the domain and window moves the value by little: the
    space-time integral is dominated by the transit past the origin."""
    vals = []
    for r_max, t_max in ((40.0, 20.0), (80.0, 40.0)):
        grid = RadialGrid(r_max, int(r_max / 40.0 * 512))
        op = assemble_dirac(FLAT, 1.0, 0.0, grid)
        init = gaussian_state(grid, center=12.0, width=1.5)
        traj = evolve(op, init, np.linspace(0.0, t_max, int(t_max * 4) + 1))
        vals.append(smoothing_norm(traj, (0.0, t_max)))
    assert abs(vals[1] - vals[0]) / vals[0] <= 0.05


def test_strichartz_weight_flat_is_one(flat_traj):
    w = strichartz_weight(FLAT, GRID.nodes, 4.0)
    assert np.all(w == 1.0)
    direct = strichartz_norm(flat_traj, T44)
    assert direct > 0.0


def test_strichartz_norm_gate(flat_traj):
    with pytest.raises(ContractViolationError):
        strichartz_norm(flat_traj, ExponentTriple(p=4.0, q=3.0))


def test_strichartz_norm_checks_the_flow_mass(flat_traj):
    """A triple is admissible or not for the mass of the flow it is measured on:
    wave scaling on a massless flow, Klein-Gordon scaling on a massive one."""
    t43 = ExponentTriple(p=4.0, q=3.0)
    massive = evolve(assemble_dirac(FLAT, 1.0, 1.0, GRID), gaussian_state(GRID),
                     np.linspace(0.0, 8.0, 5))
    with pytest.raises(ContractViolationError):
        strichartz_norm(massive, T44)
    with pytest.raises(ContractViolationError):
        strichartz_norm(flat_traj, t43)
    assert strichartz_norm(massive, t43) > 0.0


def test_strichartz_norm_s_zero_two_paths(flat_traj):
    """p = q triple has s = 0; spectral path must equal direct quadrature."""
    spectral = strichartz_norm(flat_traj, T44)
    dr = GRID.dr
    t = flat_traj.times
    spatial = np.array([
        (dr * np.sum((np.abs(s.plus) ** 2 + np.abs(s.minus) ** 2) ** 2)) ** 0.25
        for s in map(flat_traj.state, range(len(flat_traj.times)))])
    wts = np.zeros_like(t)
    wts[:-1] += 0.5 * np.diff(t)
    wts[1:] += 0.5 * np.diff(t)
    direct = float(np.sum(wts * spatial**4.0) ** 0.25)
    assert spectral == pytest.approx(direct, rel=1e-8)


def test_strichartz_norm_sup_in_time(flat_traj):
    trip = ExponentTriple(p=math.inf, q=2.0)
    val = strichartz_norm(flat_traj, trip)
    calc = SobolevCalculus(GRID, 3)
    per_time = [
        math.sqrt(GRID.dr) * math.sqrt(
            np.sum(np.abs(calc.apply(s.plus, 0.5)) ** 2)
            + np.sum(np.abs(calc.apply(s.minus, 0.5)) ** 2))
        for s in map(flat_traj.state, range(len(flat_traj.times)))]
    assert val == pytest.approx(max(per_time), rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.01, max_value=50.0))
def test_norm_homogeneity(scale):
    grid = RadialGrid(40.0, 128)
    op = assemble_dirac(FLAT, 1.0, 0.0, grid)
    init = gaussian_state(grid)
    init_scaled = SpinorState(grid=grid, plus=scale * init.plus, minus=scale * init.minus,
                              support_radius=init.support_radius)
    traj = evolve(op, init, np.linspace(0.0, 4.0, 5))
    scaled = evolve(op, init_scaled, np.linspace(0.0, 4.0, 5))
    for fn in (lambda tr: smoothing_norm(tr, (0.0, 4.0)),
               lambda tr: strichartz_norm(tr, T44)):
        assert fn(scaled) == pytest.approx(scale * fn(traj), rel=1e-9)
    assert h_sobolev_norm(init_scaled, 0.5) == pytest.approx(
        scale * h_sobolev_norm(init, 0.5), rel=1e-9)


def test_fractional_kg_norm_tracks_mode_weight():
    """||(m^2 + H_pm(mu))^(1/4) v|| stays within +-20% of
    K (1 + mu^2)^(1/4) ||v||_{H^(1/2)} across mu = 1..8, K fitted once per
    profile as the mean ratio.  Data at unit radial scale so the mode
    weight in the potential is actually exercised."""
    import scipy.linalg

    grid = RadialGrid(40.0, 512)
    state = gaussian_state(grid, center=2.5, width=1.0)
    v = state.plus.real
    h_half = h_sobolev_norm(state, 0.5)
    for profile in (FLAT, AF001):
        ratios = []
        for k in range(1, 9):
            mu = float(k)
            for sign in (+1, -1):
                kg = assemble_kg(profile, mu, 0.0, sign, grid)
                w, u = scipy.linalg.eigh(kg.matrix)
                frac = u @ (np.maximum(w, 0.0) ** 0.25 * (u.T @ v))
                lhs = math.sqrt(grid.dr) * np.linalg.norm(frac)
                ratios.append(lhs / ((1.0 + mu * mu) ** 0.25 * h_half))
        fitted = 0.5 * (min(ratios) + max(ratios))  # minimax constant fit
        assert all(0.8 * fitted <= r <= 1.2 * fitted for r in ratios)


def test_mu_scan_small():
    (res,) = mu_scan(FLAT, [T44], [1.0, 2.0, 4.0], grid=GRID, t_max=8.0, samples=9)
    assert res.strichartz_slope is not None
    assert res.strichartz_slope <= res.strichartz_slope_limit
    assert res.smoothing_slope <= res.smoothing_slope_limit
    assert all(row.strichartz > 0 and row.h_half > 0 for row in res.rows)
    d = res.to_dict()
    assert d["strichartz_slope_ok"] and d["smoothing_slope_ok"]


def test_mu_scan_n5_builds_one_eigenbasis(monkeypatch):
    """For n != 3 one scan shares one flat eigenbasis between h_half and every
    (mode, triple) norm, and gets what per-call calculi give."""
    grid = RadialGrid(40.0, 256)
    triples = [ExponentTriple(p=math.inf, q=2.0), ExponentTriple(p=4.0, q=8.0 / 3.0)]
    mus = [1.0, 2.0]
    calls = []
    eigh = DiscreteRadialOperator.eigh

    def counted(op):
        calls.append(op.kind)
        return eigh(op)

    monkeypatch.setattr(DiscreteRadialOperator, "eigh", counted)
    flat5 = MetricProfile(Family.FLAT, n=5)
    results = mu_scan(flat5, triples, mus, grid=grid, t_max=4.0, samples=5)
    assert calls == ["flat_shift"]
    monkeypatch.undo()
    initial = gaussian_state(grid)
    h_half = h_sobolev_norm(initial, 0.5, n=5)
    for k, mu in enumerate(mus):
        traj = evolve(assemble_dirac(flat5, mu, 0.0, grid), initial,
                      np.linspace(0.0, 4.0, 5))
        for result, triple in zip(results, triples):
            row = result.rows[k]
            assert row.h_half == pytest.approx(h_half, rel=1e-12)
            assert row.strichartz == pytest.approx(strichartz_norm(traj, triple),
                                                   rel=1e-12)


def test_mu_scan_single_mode_degenerate_fit():
    (res,) = mu_scan(FLAT, [T44], [2.0], grid=GRID, t_max=8.0, samples=9)
    assert res.strichartz_slope is None
    assert res.smoothing_slope is None
    assert res.strichartz_slope_ok is None
    assert res.rows[0].ratio_strichartz > 0.0


def test_mu_scan_two_triples_share_one_trajectory(monkeypatch):
    import warpdirac.estimates as estimates

    evolved = []
    real = estimates.evolve

    def counting(op, initial, times):
        evolved.append(op.mu)
        return real(op, initial, times)

    monkeypatch.setattr(estimates, "evolve", counting)
    t_inf2 = ExponentTriple(p=math.inf, q=2.0)
    mus = [1.0, -1.0, 2.0]
    both = mu_scan(AF001, [T44, t_inf2], mus, grid=GRID, t_max=8.0, samples=9)
    assert evolved == mus
    for triple, got in zip((T44, t_inf2), both):
        (alone,) = mu_scan(AF001, [triple], mus, grid=GRID, t_max=8.0, samples=9)
        assert (got.p, got.q, got.m) == (triple.p, triple.q, 0.0)
        for row, ref in zip(got.rows, alone.rows):
            for key, value in vars(ref).items():
                assert getattr(row, key) == pytest.approx(value, rel=1e-12)
        assert got.strichartz_slope == pytest.approx(alone.strichartz_slope, rel=1e-12)
        assert got.smoothing_slope == pytest.approx(alone.smoothing_slope, rel=1e-12)


def test_mu_scan_rejects_a_window_past_the_causal_limit_first(monkeypatch):
    import warpdirac.estimates as estimates

    scanned = []
    monkeypatch.setattr(estimates, "check_admissible", lambda *args: scanned.append(args))
    with pytest.raises(PolicyError):
        mu_scan(FLAT, [T44], [1.0], grid=GRID, t_max=39.0, samples=9)
    assert scanned == []


def test_mu_scan_aborts_on_non_admissible(monkeypatch):
    import warpdirac.estimates as estimates

    sinh = MetricProfile(Family.SINH)
    with pytest.raises(NonAdmissibleError) as err:
        mu_scan(sinh, [T44], [1.0], grid=GRID, t_max=8.0, samples=9)
    assert err.value.report is not None
    assert not err.value.report.admissible

    # eps = 1 admits |mu| >= 2 but not |mu| = 1: the middle mode stops the
    # scan before any mode is evolved.
    strong = MetricProfile(Family.ASYMPTOTICALLY_FLAT, epsilon=1.0)
    evolved = []
    monkeypatch.setattr(estimates, "evolve", lambda *args: evolved.append(args))
    with pytest.raises(NonAdmissibleError) as err:
        mu_scan(strong, [T44], [2.0, 1.0, 3.0], grid=GRID, t_max=8.0, samples=9)
    assert err.value.report.mu == 1.0
    assert not err.value.report.admissible
    assert evolved == []

