import math
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpdirac import (ConfigurationError, ContractViolationError, DataTemplate,
                       ExponentTriple, Family, MetricProfile, NonAdmissibleError,
                       RadialGrid, SpinorState, assemble_dirac, assemble_kg,
                       evolve, gaussian_state, is_admissible_triple, mu_scan, smoothing_norm,
                       strichartz_norm)
from warpdirac.errors import NumericalError, PolicyError
from warpdirac.estimates import _squared_power, strichartz_weight
from warpdirac.operators import (DiscreteRadialOperator, SobolevCalculus, _ldl_pivots,
                                 flat_reference_operator)

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
    (2.0, math.inf, 0.0, 3, False),  # the 3-D wave endpoint lies on the scaling line
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
    """s = 0 is the identity on both paths, with no transform and no quadrature."""
    state = gaussian_state(GRID)
    for n in (3, 5):
        calc = SobolevCalculus(flat_reference_operator(n, GRID))
        assert calc.apply(state.plus, 0.0) is state.plus
        assert calc.norm(state, 0.0) == pytest.approx(state.norm(), rel=1e-12)


def test_sobolev_calculus_refuses_n_below_3():
    """H0 = -d2/dr2 + (n-1)(n-3)/(4 r^2) has a negative potential at n = 2;
    the flat profile that H0 carries refuses n < 3, as every MetricProfile does.
    A Dirac operator has no calculus, even with a vanishing potential."""
    with pytest.raises(ConfigurationError, match="n must be >= 3"):
        SobolevCalculus(flat_reference_operator(2, GRID))
    with pytest.raises(ConfigurationError, match="not a Dirac operator"):
        SobolevCalculus(DiscreteRadialOperator(GRID, "dirac", np.zeros(GRID.n_cells), m=0.0))


@pytest.mark.parametrize("bump", [{"center": 0.0}, {"center": -12.0}, {"width": 0.0},
                                  {"width": -1.5}, {"amplitude": 0.0}, {"center": math.inf},
                                  {"width": math.inf}, {"center": math.nan},
                                  {"width": math.nan}, {"amplitude": math.inf},
                                  {"amplitude": -math.inf}, {"amplitude": math.nan}])
def test_gaussian_data_that_the_config_refuses_are_refused(bump):
    """A width of -1.5 would give support radius 7.5 (causal limit 30.5
    instead of 21.5), a center of -12 an almost-zero datum, amplitude 0 a
    division by zero in every norm ratio, an infinite center an all-zero
    datum and an infinite width a constant one; parse_config refuses all of
    them, and every non-finite value."""
    for build in (lambda: DataTemplate(**bump), lambda: gaussian_state(GRID, **bump)):
        with pytest.raises(ConfigurationError) as err:
            build()
        assert err.value.exit_code == 4


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
    calc = SobolevCalculus(flat_reference_operator(3, GRID))
    assert calc.norm(state, 1.0) == pytest.approx(expect, rel=1e-12)


def test_sobolev_apply_block_matches_columns():
    calc = SobolevCalculus(flat_reference_operator(3, GRID))
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
    calc = SobolevCalculus(flat_reference_operator(3, grid))
    dr2 = grid.dr ** 2
    w, u = scipy.linalg.eigh_tridiagonal(np.full(n_cells, 2.0 / dr2),
                                         np.full(n_cells - 1, -1.0 / dr2))
    rng = np.random.default_rng(n_cells)
    real = rng.standard_normal((n_cells, 4))
    imag = 1j * rng.standard_normal((n_cells, 4))
    for block in (real, imag, real + imag):
        for s in (-1.0, -0.5, 0.5, 1.0):
            powers = ((1.0 + w) ** (s / 2.0))[:, None]
            want = u @ (powers * (u.T @ block.real)) + 1j * (u @ (powers * (u.T @ block.imag)))
            got = calc.apply(block, s)
            assert got.dtype == block.dtype
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("n_cells", [256, 300, 512, 2048])
def test_sobolev_resolvent_matches_eigenbasis(n_cells):
    """The n = 5 calculus, whose H0 has a potential, against the dense
    U diag((1 + w)^(s/2)) U^T of op.eigh(), for real, imaginary and complex
    blocks (300 cells end in a short block of the back sweep); s < 0 takes
    the solve at the shift 0.  |s| >= 2 is refused."""
    grid = RadialGrid(40.0, n_cells)
    op = flat_reference_operator(5, grid)
    calc = SobolevCalculus(op)
    w, u = op.eigh()
    rng = np.random.default_rng(n_cells)
    real = rng.standard_normal((n_cells, 4))
    imag = 1j * rng.standard_normal((n_cells, 4))
    for block in (real, imag, real + imag):
        for s in (-1.0, -0.5, 0.25, 0.5, 1.0):
            powers = ((1.0 + w) ** (s / 2.0))[:, None]
            want = u @ (powers * (u.T @ block.real)) + 1j * (u @ (powers * (u.T @ block.imag)))
            got = calc.apply(block, s)
            assert got.dtype == block.dtype
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    for s in (-2.0, 2.0):
        with pytest.raises(ConfigurationError, match="-2 < s < 2"):
            calc.apply(real, s)


def _joint(transform, block):
    """transform of a complex block with its real and imaginary parts side by side."""
    cols = block.shape[1]
    out = transform(np.hstack([block.real, block.imag]))
    return out[:, :cols] + 1j * out[:, cols:]


@pytest.mark.parametrize("part", ["real", "imaginary", "complex"])
def test_zero_part_transforms_equal_the_joint_transform(part):
    """The n = 3 (DST-I) and n = 5 (resolvent) calculi transform only the
    part of a complex block that is not all zero, and they equal the joint
    transform of [Re | Im] exactly."""
    grid = RadialGrid(40.0, 128)
    rng = np.random.default_rng(7)
    re, im = rng.standard_normal((2, grid.n_cells, 5))
    block = {"real": re + 0j, "imaginary": 1j * im, "complex": re + 1j * im}[part]
    calc3, calc5 = (SobolevCalculus(flat_reference_operator(n, grid)) for n in (3, 5))
    for transform in (lambda x: calc3.apply(x, 0.5), lambda x: calc5.apply(x, -0.5),
                      lambda x: calc5.apply(x, 0.5)):
        got = transform(block)
        assert got.dtype == complex
        assert np.array_equal(got, _joint(transform, block))


def test_smoothing_norm_zero_state(flat_traj):
    zero = SpinorState(grid=GRID, plus=np.zeros(GRID.n_cells, complex),
                       minus=np.zeros(GRID.n_cells, complex))
    op = assemble_dirac(FLAT, 1.0, 0.0, GRID)
    # evolve rejects nothing about zero data; norm is zero throughout
    traj = evolve(op, zero, [0.0, 1.0, 2.0])
    assert smoothing_norm(traj) == 0.0


def test_smoothing_norm_window_policy():
    """Both norms integrate over every sample, so both refuse a trajectory
    sampled past its causal limit."""
    op = assemble_dirac(FLAT, 1.0, 0.0, GRID)
    long = evolve(op, gaussian_state(GRID), np.linspace(0.0, 30.0, 31))  # limit 21.5
    for norm in (smoothing_norm, lambda traj: strichartz_norm(traj, T44)):
        with pytest.raises(PolicyError, match="causal limit"):
            norm(long)
    single = evolve(op, gaussian_state(GRID), [3.0])
    for norm in (smoothing_norm, lambda traj: strichartz_norm(traj, T44),
                 lambda traj: strichartz_norm(traj, ExponentTriple(p=math.inf, q=2.0))):
        with pytest.raises(ConfigurationError, match="at least two samples"):
            norm(single)
    # a sample's support has grown by the light cone, so a second 20-unit leg
    # from t = 20 has 1.5 units left
    leg = evolve(op, long.state(20), np.linspace(0.0, 20.0, 21))
    assert leg.causal_t_max == pytest.approx(1.5)
    with pytest.raises(PolicyError):
        smoothing_norm(leg)


def test_smoothing_norm_window_stability():
    """Doubling the domain and window moves the value by little: the
    space-time integral is dominated by the transit past the origin."""
    vals = []
    for r_max, t_max in ((40.0, 20.0), (80.0, 40.0)):
        grid = RadialGrid(r_max, int(r_max / 40.0 * 512))
        op = assemble_dirac(FLAT, 1.0, 0.0, grid)
        init = gaussian_state(grid, center=12.0, width=1.5)
        traj = evolve(op, init, np.linspace(0.0, t_max, int(t_max * 4) + 1))
        vals.append(smoothing_norm(traj))
    assert abs(vals[1] - vals[0]) / vals[0] <= 0.05


def test_strichartz_weight_flat_is_one(flat_traj):
    w = strichartz_weight(FLAT, GRID.nodes, 4.0)
    assert np.all(w == 1.0)
    direct = strichartz_norm(flat_traj, T44)
    assert direct > 0.0


def test_sobolev_norm_refuses_a_state_of_another_grid():
    """A state's norm would fold a finer grid into columns or read another dr."""
    for cells, calc_grid in ((512, RadialGrid(40.0, 256)), (256, RadialGrid(20.0, 256))):
        state = gaussian_state(RadialGrid(40.0, cells), center=10.0)
        with pytest.raises(ConfigurationError, match="calculus"):
            SobolevCalculus(flat_reference_operator(3, calc_grid)).norm(state, 0.5)


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
    calc = SobolevCalculus(flat_reference_operator(3, GRID))
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
    for fn in (smoothing_norm, lambda tr: strichartz_norm(tr, T44)):
        assert fn(scaled) == pytest.approx(scale * fn(traj), rel=1e-9)
    calc = SobolevCalculus(flat_reference_operator(3, grid))
    assert calc.norm(init_scaled, 0.5) == pytest.approx(scale * calc.norm(init, 0.5), rel=1e-9)


def test_fractional_kg_norm_tracks_mode_weight():
    """||(m^2 + H_pm(mu))^(1/4) v|| stays within +-20% of
    K (1 + mu^2)^(1/4) ||v||_{H^(1/2)} across mu = 1..8, K fitted once per
    profile as the mean ratio.  Data at unit radial scale so the mode
    weight in the potential is actually exercised."""
    import scipy.linalg

    grid = RadialGrid(40.0, 512)
    state = gaussian_state(grid, center=2.5, width=1.0)
    v = state.plus.real
    h_half = SobolevCalculus(flat_reference_operator(3, grid)).norm(state, 0.5)
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
    d = asdict(res)
    assert d["strichartz_slope_ok"] and d["smoothing_slope_ok"]


def test_mu_scan_n5_takes_no_eigenbasis(monkeypatch):
    """For n != 3 a scan never calls eigh, and its rows are what per-call
    norms give."""
    grid = RadialGrid(40.0, 256)
    triples = [ExponentTriple(p=math.inf, q=2.0), ExponentTriple(p=4.0, q=8.0 / 3.0)]
    mus = [1.0, 2.0]

    def refuse(self):
        raise AssertionError("mu_scan called eigh")

    monkeypatch.setattr(DiscreteRadialOperator, "eigh", refuse)
    flat5 = MetricProfile(Family.FLAT, n=5)
    results = mu_scan(flat5, triples, mus, grid=grid, t_max=4.0, samples=5)
    initial = gaussian_state(grid)
    h_half = SobolevCalculus(flat_reference_operator(5, grid)).norm(initial, 0.5)
    for k, mu in enumerate(mus):
        traj = evolve(assemble_dirac(flat5, mu, 0.0, grid), initial,
                      np.linspace(0.0, 4.0, 5))
        for result, triple in zip(results, triples):
            row = result.rows[k]
            assert row.h_half == pytest.approx(h_half, rel=1e-12)
            assert row.strichartz == pytest.approx(strichartz_norm(traj, triple),
                                                   rel=1e-12)


def test_mu_scan_n5_builds_the_pivots_once(monkeypatch):
    """A scan hands one calculus to h_half and to every Strichartz norm, so
    the resolvent pivots of H0 are built once (3 modes x 2 triples would
    build them 7 times over), and its rows are per-call norms bit for bit."""
    grid = RadialGrid(40.0, 512)
    profile = MetricProfile(Family.ASYMPTOTICALLY_FLAT, n=5, epsilon=0.01)
    triples = [ExponentTriple(p=4.0, q=8.0 / 3.0), ExponentTriple(p=math.inf, q=2.0)]
    mus = [2.0, -2.0, 3.0]
    builds = []

    def counted(op, tau):
        builds.append(op.kind)
        return _ldl_pivots(op, tau)

    monkeypatch.setattr("warpdirac.operators._ldl_pivots", counted)
    results = mu_scan(profile, triples, mus, grid=grid, t_max=4.0, samples=5)
    assert builds == ["flat_shift"]
    initial = gaussian_state(grid)
    for k, mu in enumerate(mus):
        traj = evolve(assemble_dirac(profile, mu, 0.0, grid), initial, np.linspace(0.0, 4.0, 5))
        for result, triple in zip(results, triples):
            assert result.rows[k].strichartz == strichartz_norm(traj, triple)


def test_a_strichartz_norm_that_overflows_is_refused_without_a_warning():
    """At eps = 1e300 the weight (phi/r)^(1/2) of q = 4 is about 1e150 at n = 3,
    so |.|^4 overflows: the norm is refused (NumericalError, exit 5) with no
    NumPy warning, not handed to a slope fit as inf.  q = 2 has no weight."""
    prof = MetricProfile(Family.ASYMPTOTICALLY_FLAT, epsilon=1e300)
    grid = RadialGrid(40.0, 128)
    traj = evolve(assemble_dirac(prof, 1.0, 0.0, grid), gaussian_state(grid),
                  np.linspace(0.0, 4.0, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="Strichartz norm is not finite"):
            strichartz_norm(traj, T44)
        assert math.isfinite(strichartz_norm(traj, ExponentTriple(p=math.inf, q=2.0)))


def test_strichartz_norm_refuses_a_calculus_of_another_grid_or_dimension(flat_traj):
    for n, grid in ((3, RadialGrid(40.0, 256)), (5, GRID)):
        with pytest.raises(ConfigurationError, match="calculus"):
            strichartz_norm(flat_traj, T44, SobolevCalculus(flat_reference_operator(n, grid)))
    own = SobolevCalculus(flat_reference_operator(3, GRID))
    assert strichartz_norm(flat_traj, T44, own) == strichartz_norm(flat_traj, T44)


def test_n5_strichartz_norm_keeps_no_dense_array():
    """One n = 5 Strichartz norm at 2048 cells and 17 samples peaks at
    10.6 MB under tracemalloc (the dense calculus it replaced peaked at
    67-83 MB, its 2048 x 2048 eigenbasis alone being 33.5 MB)."""
    grid = RadialGrid(40.0, 2048)
    profile = MetricProfile(Family.ASYMPTOTICALLY_FLAT, n=5, epsilon=0.01)
    traj = evolve(assemble_dirac(profile, 2.0, 0.0, grid), gaussian_state(grid),
                  np.linspace(0.0, 8.0, 17))
    tracemalloc.start()
    try:
        strichartz_norm(traj, ExponentTriple(p=math.inf, q=2.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14e6


def test_n3_strichartz_norm_scratch_is_a_fraction_of_its_samples():
    """At m = 0 each component of the flow is purely real or purely
    imaginary, so an n = 3 Strichartz norm at inf:2 transforms and squares
    real arrays, its DST a few columns at a time: at 4096 cells and 33
    samples its tracemalloc peak is at most 1.5 times the samples' bytes
    (2.29 times with complex copies and whole-block transforms)."""
    grid = RadialGrid(40.0, 4096)
    traj = evolve(assemble_dirac(AF001, 1.0, 0.0, grid), gaussian_state(grid),
                  np.linspace(0.0, 8.0, 33))
    calc = SobolevCalculus(flat_reference_operator(3, grid))
    tracemalloc.start()
    try:
        strichartz_norm(traj, ExponentTriple(p=math.inf, q=2.0), calc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * traj.samples.nbytes


def test_massive_n3_strichartz_norm_transforms_each_part_alone():
    """At m = 0.7 both parts of each component are nonzero; an n = 3
    Strichartz norm at inf:2 transforms and squares them one after the
    other, with no side-by-side or complex copy: at 4096 cells and 33
    samples its tracemalloc peak is at most 1.6 times the samples' bytes
    (2.18 times when the parts went through one stacked transform and the
    result was squared as a complex modulus)."""
    grid = RadialGrid(40.0, 4096)
    traj = evolve(assemble_dirac(AF001, 1.0, 0.7, grid), gaussian_state(grid),
                  np.linspace(0.0, 8.0, 33))
    calc = SobolevCalculus(flat_reference_operator(3, grid))
    tracemalloc.start()
    try:
        strichartz_norm(traj, ExponentTriple(p=math.inf, q=2.0), calc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * traj.samples.nbytes


@pytest.mark.parametrize("s", [0.5, 0.0])
@pytest.mark.parametrize("n", [3, 5])
def test_real_components_square_as_the_complex_ones(s, n):
    """A purely real, a purely imaginary and a zero component: the squared
    transform equals |calc.apply(weight comp, s)|^2, bit for bit.  A general
    complex component squares as re^2 + im^2: T(weight re)^2 + T(weight im)^2
    with T = calc.apply(., s), bit for bit."""
    calc = SobolevCalculus(flat_reference_operator(n, GRID))
    rng = np.random.default_rng(n)
    weight = 1.0 + rng.random((GRID.n_cells, 1))
    x, y = rng.standard_normal((2, GRID.n_cells, 5))
    x[:, 0] = 0.0
    for comp in (x + 0j, 1j * y, np.zeros((GRID.n_cells, 5), complex)):
        want = np.abs(calc.apply(weight * comp, s)) ** 2
        assert _squared_power(calc, weight, comp, s).tobytes() == want.tobytes()
    comp = x + 1j * y
    want = (calc.apply(weight * comp.real, s) ** 2
            + calc.apply(weight * comp.imag, s) ** 2)
    assert _squared_power(calc, weight, comp, s).tobytes() == want.tobytes()


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


def test_mu_scan_needs_two_samples_before_scanning(monkeypatch):
    """A single time sample leaves no smoothing window, and a window end that
    is not positive and finite none at all; both are refused before anything
    is scanned or evolved."""
    import warpdirac.estimates as estimates

    ran = []
    monkeypatch.setattr(estimates, "check_admissible", lambda *args: ran.append(args))
    monkeypatch.setattr(estimates, "evolve", lambda *args: ran.append(args))
    with pytest.raises(ConfigurationError, match="at least two time samples, got 1"):
        mu_scan(FLAT, [T44], [1.0, 2.0], grid=RadialGrid(40, 512), samples=1)
    for t_max in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="positive, finite t_max"):
            mu_scan(FLAT, [T44], [1.0, 2.0], grid=RadialGrid(40, 512), t_max=t_max)
    assert ran == []


def test_mu_scan_refuses_a_non_finite_mass_before_scanning(monkeypatch):
    """The p = inf, q = 2 endpoint is admissible whatever the mass, so the
    mass itself is checked before the admissibility scan."""
    import warpdirac.estimates as estimates

    ran = []
    monkeypatch.setattr(estimates, "check_admissible", lambda *args: ran.append(args))
    for m in (math.nan, math.inf):
        assert is_admissible_triple(math.inf, 2.0, m, 3)
        with pytest.raises(ConfigurationError, match="mass m must be finite"):
            mu_scan(FLAT, [ExponentTriple(p=math.inf, q=2.0)], [1.0, 2.0],
                    grid=RadialGrid(40, 256), m=m)
    assert ran == []


def test_mu_scan_rejects_a_repeated_mode(monkeypatch):
    """A mode listed twice is refused before anything is scanned or evolved,
    as the config refuses it."""
    import warpdirac.estimates as estimates

    ran = []
    monkeypatch.setattr(estimates, "check_admissible", lambda *args: ran.append(args))
    monkeypatch.setattr(estimates, "evolve", lambda *args: ran.append(args))
    with pytest.raises(ConfigurationError, match="listed twice"):
        mu_scan(FLAT, [ExponentTriple(4, 4)], [1.0, 1.0, 2.0],
                grid=RadialGrid(40, 256), samples=5)
    with pytest.raises(ConfigurationError, match="listed twice"):
        mu_scan(FLAT, [T44], [2, 1.0, 2.0], grid=RadialGrid(40, 256), samples=5)
    assert ran == []


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

