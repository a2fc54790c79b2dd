import inspect
import math
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.linalg

from warpdirac import (ConfigurationError, Family, GridTooCoarseError,
                       MetricProfile, ModePotential, RadialGrid, assemble_dirac,
                       assemble_kg, check_admissible, factorization_check,
                       flat_reference_operator, norm_equivalence_check, sigma,
                       verify_square)
from warpdirac.estimates import mu_scan, strichartz_weight
from warpdirac.evolution import SpinorTrajectory
from warpdirac.operators import (DiscreteRadialOperator, _random_bump,
                                 weighted_laplacian_operator)
from warpdirac.profiles import sigma_log_derivative_bound

FLAT = MetricProfile(Family.FLAT)
SINH = MetricProfile(Family.SINH)
AF001 = MetricProfile(Family.ASYMPTOTICALLY_FLAT, epsilon=0.01)

GRID = RadialGrid(40.0, 512)


@pytest.mark.parametrize("api", [assemble_dirac, assemble_kg, factorization_check,
                                 weighted_laplacian_operator, norm_equivalence_check,
                                 strichartz_weight, mu_scan, ModePotential],
                         ids=lambda api: api.__name__)
def test_profile_apis_take_no_dimension(api):
    """The dimension of a profile-taking API is profile.n, never a second argument."""
    params = inspect.signature(api).parameters
    assert "profile" in params and "n" not in params
    if api is factorization_check:
        assert "m" not in params  # the factorization identity is mass-free


def test_operators_and_trajectories_store_no_dimension():
    """The dimension is stored once, on the profile."""
    assert "n" not in inspect.signature(DiscreteRadialOperator).parameters
    assert "n" not in {field.name for field in fields(SpinorTrajectory)}
    assert not hasattr(flat_reference_operator(5, GRID), "n")


def test_grid_nodes_offset():
    g = RadialGrid(20.0, 16)
    assert g.dr == 1.25
    assert np.allclose(g.nodes, [0.625 + 1.25 * i for i in range(16)])
    assert np.all(g.nodes > 0.0)
    assert np.all(np.diff(g.nodes) > 0.0)


def test_sigma_flat():
    s, sp = sigma(FLAT, 3.7)
    assert s == 1.0 and sp == 0.0


def test_sigma_sinh_origin():
    s, sp = sigma(SINH, 0.0)
    assert s == 1.0
    assert sp == 0.0  # phi''(0) = sinh 0 = 0


def test_sigma_sinh_at_one():
    s, sp = sigma(SINH, 1.0)
    assert s == pytest.approx(1.0 / math.sinh(1.0), rel=1e-14)
    expected_sp = (1.0 - math.cosh(1.0) / math.sinh(1.0)) / math.sinh(1.0)
    assert sp == pytest.approx(expected_sp, rel=1e-14)
    # cross-check the derivative by central differences
    h = 1e-6
    s_hi, _ = sigma(SINH, 1.0 + h)
    s_lo, _ = sigma(SINH, 1.0 - h)
    assert sp == pytest.approx((s_hi - s_lo) / (2.0 * h), abs=1e-9)


def test_sigma_af_origin_slope():
    # phi''(0) = 2 eps for alpha = 1, so sigma'(0) = -eps
    _, sp = sigma(AF001, 0.0)
    assert sp == pytest.approx(-0.01, rel=1e-12)


def test_grid_too_coarse():
    with pytest.raises(GridTooCoarseError, match="at least 16 cells, got 8"):
        RadialGrid(40.0, 8)


def test_dirac_exactly_symmetric():
    for prof in (FLAT, AF001, SINH):
        op = assemble_dirac(prof, 2.0, 0.5, GRID)
        assert np.array_equal(op.matrix, op.matrix.T)


def _dense_dirac(prof, mu, m, grid):
    nn = grid.n_cells
    e = np.ones(nn - 1) / (2.0 * grid.dr)
    d = np.diag(e, 1) - np.diag(e, -1)
    v = np.diag(ModePotential(profile=prof, mu=mu).V(grid.nodes))
    want = np.zeros((2 * nn, 2 * nn))
    want[:nn, :nn] = m * np.eye(nn)
    want[nn:, nn:] = -m * np.eye(nn)
    want[:nn, nn:] = -d + v
    want[nn:, :nn] = d + v
    return want


def _dense_second_difference(pot, grid):
    nn = grid.n_cells
    main = np.full(nn, 2.0) / grid.dr**2
    off = np.full(nn - 1, -1.0) / grid.dr**2
    return np.diag(main) + np.diag(off, 1) + np.diag(off, -1) + np.diag(pot)


def _dense_kg(sign):
    def build(prof, mu, m, grid):
        pot = ModePotential(profile=prof, mu=mu)
        r = grid.nodes
        return _dense_second_difference(pot.V(r) ** 2 + sign * pot.V_prime(r) + m * m, grid)
    return build


def _dense_flat(prof, mu, m, grid, n=4):
    return _dense_second_difference((n - 1) * (n - 3) / (4.0 * grid.nodes**2), grid)


def _dense_weighted(prof, mu, m, grid, n=4):
    phi, dphi, d2phi = prof.phi_dphi_d2phi(grid.nodes)
    k = (n - 1) / 2.0
    return _dense_second_difference(k * (k - 1.0) * (dphi / phi) ** 2 + k * d2phi / phi, grid)


KINDS = {
    "dirac": (lambda prof, mu, m, g: assemble_dirac(prof, mu, m, g), _dense_dirac),
    "kg_plus": (lambda prof, mu, m, g: assemble_kg(prof, mu, m, +1, g), _dense_kg(+1)),
    "kg_minus": (lambda prof, mu, m, g: assemble_kg(prof, mu, m, -1, g), _dense_kg(-1)),
    "flat_shift": (lambda prof, mu, m, g: flat_reference_operator(4, g), _dense_flat),
    "weighted_laplacian": (lambda prof, mu, m, g:
                           weighted_laplacian_operator(replace(prof, n=4), g),
                           _dense_weighted),
}


@pytest.mark.parametrize("kind", list(KINDS))
def test_dirac_matrix_is_the_dense_assembly(kind):
    """For every kind, the on-demand dense matrix is, bit for bit, the np.diag
    assembly ([[m, -d/dr + V], [d/dr + V, -m]] for Dirac, -d2/dr2 plus the
    potential otherwise); apply is that matrix product on real and complex
    blocks; and the tridiagonal eigensolver matches the dense one."""
    build, dense = KINDS[kind]
    grid = RadialGrid(40.0, 64)
    rng = np.random.default_rng(7)
    for prof, mu, m in ((FLAT, 1.0, 0.0), (AF001, -2.0, 0.7), (SINH, 3.0, 1.5)):
        op = build(prof, mu, m, grid)
        assert op.kind == kind
        a = op.matrix
        assert a.tobytes() == dense(prof, mu, m, grid).tobytes()
        x = rng.standard_normal((len(a), 3))
        for block in (x, x + 1j * rng.standard_normal(x.shape), x[:, 0]):
            want = a @ block
            assert np.linalg.norm(op.apply(block) - want) <= 1e-14 * np.linalg.norm(want)
        if kind == "dirac":
            continue
        w, u = op.eigh()
        w_ref = scipy.linalg.eigh(a)[0]
        assert np.max(np.abs(w - w_ref)) <= 1e-13 * np.max(np.abs(w_ref))
        assert np.linalg.norm(a @ u - u * w) <= 1e-13 * np.linalg.norm(a)
        assert np.max(np.abs(u.T @ u - np.eye(len(w)))) <= 1e-13


def test_kg_flat_potentials_exact():
    # mu = 1: V^2 - V' = 2/r^2 and V^2 + V' = 0 (up to one ulp of 1/r^2)
    km = assemble_kg(FLAT, 1.0, 0.0, -1, GRID)
    kp = assemble_kg(FLAT, 1.0, 0.0, +1, GRID)
    lap = flat_reference_operator(3, GRID)  # n=3: plain -d2/dr2
    r = GRID.nodes
    assert np.allclose(np.diag(km.matrix - lap.matrix), 2.0 / r**2, rtol=1e-13)
    assert np.max(np.abs(np.diag(kp.matrix - lap.matrix)) * r**2) < 1e-11


def test_massless_spectrum_symmetric():
    op = assemble_dirac(FLAT, 1.0, 0.0, GRID)
    w = np.linalg.eigvalsh(op.matrix)
    assert np.max(np.abs(w + w[::-1])) <= 1e-9 * np.max(np.abs(w))


def test_mass_gap():
    op = assemble_dirac(FLAT, 1.0, 1.0, GRID)
    w = np.linalg.eigvalsh(op.matrix)
    assert np.min(np.abs(w)) >= 1.0 - 5.0 * GRID.dr


def test_mu_sign_flip_unitary_equivalence():
    w_pos = np.sort(np.abs(np.linalg.eigvalsh(assemble_dirac(FLAT, 1.0, 0.0, GRID).matrix)))
    w_neg = np.sort(np.abs(np.linalg.eigvalsh(assemble_dirac(FLAT, -1.0, 0.0, GRID).matrix)))
    assert np.max(np.abs(w_pos - w_neg)) <= 1e-9 * w_pos[-1]


def test_kg_positive_when_admissible():
    for prof, mu in ((FLAT, 1.0), (AF001, 2.0)):
        assert check_admissible(prof, [mu])[0].admissible
        for sign in (+1, -1):
            k = assemble_kg(prof, mu, 0.0, sign, GRID)
            w = np.linalg.eigvalsh(k.matrix)
            assert w[0] >= -1e-8 * np.linalg.norm(k.matrix)


def test_verify_square_parameter_mismatch():
    h = assemble_dirac(FLAT, 1.0, 0.0, GRID)
    km = assemble_kg(FLAT, 1.0, 0.0, -1, GRID)
    kp_wrong = assemble_kg(FLAT, 2.0, 0.0, +1, GRID)
    with pytest.raises(ConfigurationError):
        verify_square(h, km, kp_wrong)
    with pytest.raises(ConfigurationError):
        verify_square(h, kp_wrong, km)


def test_verify_square_convergence():
    res = []
    for n_cells in (256, 512, 1024):
        g = RadialGrid(40.0, n_cells)
        h = assemble_dirac(FLAT, 1.0, 0.0, g)
        km = assemble_kg(FLAT, 1.0, 0.0, -1, g)
        kp = assemble_kg(FLAT, 1.0, 0.0, +1, g)
        res.append(verify_square(h, km, kp))
    assert res[0] / res[1] >= 3.5
    assert res[1] / res[2] >= 3.5


def test_verify_square_mass_enters_exactly():
    # m^2 I appears identically on both sides, so the defect matrix
    # h^2 - diag(K-, K+) is independent of the mass.
    defects = []
    for m in (0.0, 2.0):
        h = assemble_dirac(FLAT, 1.0, m, GRID).matrix
        km = assemble_kg(FLAT, 1.0, m, -1, GRID).matrix
        kp = assemble_kg(FLAT, 1.0, m, +1, GRID).matrix
        nn = GRID.n_cells
        block = np.zeros_like(h)
        block[:nn, :nn] = km
        block[nn:, nn:] = kp
        defects.append(h @ h - block)
    assert np.max(np.abs(defects[0] - defects[1])) <= 1e-12 * np.max(np.abs(defects[0]))


def test_factorization_convergence_and_mass_independence():
    res = [factorization_check(FLAT, 1.0, RadialGrid(40.0, k))
           for k in (256, 512, 1024)]
    for i in (0, 1):
        assert res[i][0] / res[i + 1][0] >= 3.5
        assert res[i][1] / res[i + 1][1] >= 3.5
    # the identity is mass-free, so factorization_check takes no mass
    with_mass = factorization_check(FLAT, 1.0, RadialGrid(40.0, 256))
    assert with_mass[0] == pytest.approx(res[0][0], abs=1e-12)
    assert with_mass[1] == pytest.approx(res[0][1], abs=1e-12)


def test_factorization_sign_swap_under_mu_flip():
    rm, rp = factorization_check(FLAT, 2.0, GRID)
    rm_neg, rp_neg = factorization_check(FLAT, -2.0, GRID)
    # V -> -V swaps the two factorization channels
    assert rm == pytest.approx(rp_neg, rel=1e-10)
    assert rp == pytest.approx(rm_neg, rel=1e-10)


def test_operator_data_must_fit_its_kind():
    """An operator is a known kind with a potential on the nodes, and a Dirac
    operator also has a mass; a mismatch is a ConfigurationError, not a later
    crash.  A Dirac operator has no tridiagonal eigendecomposition."""
    pot = np.ones(GRID.n_cells)
    with pytest.raises(ConfigurationError):
        DiscreteRadialOperator(grid=GRID, kind="dirac", potential=pot)
    with pytest.raises(ConfigurationError):
        DiscreteRadialOperator(grid=GRID, kind="kg_plus", potential=pot[:8], m=0.0)
    with pytest.raises(ConfigurationError):
        DiscreteRadialOperator(grid=GRID, kind="kg", potential=pot, m=0.0)
    with pytest.raises(ConfigurationError):
        assemble_dirac(FLAT, 1.0, 0.0, GRID).eigh()


def test_norm_equivalence_flat_is_exact():
    [(worst, worst_inv)] = norm_equivalence_check(FLAT, [0.7], trials=20, grid=GRID)
    assert worst == pytest.approx(1.0, abs=1e-10)
    assert worst_inv == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n", [4, 5])
def test_norm_equivalence_flat_is_exact_in_higher_dimensions(n):
    """On the flat profile both sides are (n-1)(n-3)/(4 r^2) - d2/dr2: every ratio is 1."""
    flat = MetricProfile(Family.FLAT, n=n)
    for worst, worst_inv in norm_equivalence_check(flat, [0.0, 0.5, 1.0], trials=10, grid=GRID):
        assert worst == pytest.approx(1.0, abs=1e-12)
        assert worst_inv == pytest.approx(1.0, abs=1e-12)


def test_norm_equivalence_s_zero_isometry():
    for prof in (AF001, SINH):
        [(worst, worst_inv)] = norm_equivalence_check(prof, [0.0], trials=10, grid=GRID)
        assert worst == pytest.approx(1.0, abs=1e-8)
        assert worst_inv == pytest.approx(1.0, abs=1e-8)


def test_norm_equivalence_exponent_sequence_shares_one_setup():
    exponents = (0.0, 0.5, 1.0)
    pairs = norm_equivalence_check(AF001, exponents, trials=12, grid=GRID, seed=3)
    assert pairs == [norm_equivalence_check(AF001, [s], trials=12, grid=GRID, seed=3)[0]
                     for s in exponents]
    # reference: one matvec pair per seeded bump instead of one stacked GEMM
    w_phi, u_phi = weighted_laplacian_operator(AF001, GRID).eigh()
    w_flat, u_flat = flat_reference_operator(3, GRID).eigh()
    rng = np.random.default_rng(3)
    bumps = [_random_bump(rng, GRID) for _ in range(12)]
    for s, (worst, worst_inv) in zip(exponents, pairs):
        ratios = [np.linalg.norm(np.maximum(1.0 + w_phi, 0.0) ** (s / 2) * (u_phi.T @ v))
                  / np.linalg.norm(np.maximum(1.0 + w_flat, 0.0) ** (s / 2) * (u_flat.T @ v))
                  for v in bumps]
        assert worst == pytest.approx(max(ratios), rel=1e-14)
        assert worst_inv == pytest.approx(max(1.0 / r for r in ratios), rel=1e-14)
    with pytest.raises(ConfigurationError):
        norm_equivalence_check(AF001, (0.5, 1.5), trials=1, grid=GRID)


def test_norm_equivalence_af_bound():
    [(worst, worst_inv)] = norm_equivalence_check(AF001, [1.0], trials=40, grid=GRID)
    assert max(worst, worst_inv) <= 1.02


def test_norm_equivalence_exponent_range():
    from warpdirac.errors import ConfigurationError as CfgErr
    with pytest.raises(CfgErr):
        norm_equivalence_check(FLAT, [1.5], trials=1, grid=GRID)


def test_sigma_log_derivative_bounds():
    assert sigma_log_derivative_bound(FLAT) == 0.0
    # sup |1/r - coth r| = 1, attained in the limit r -> infinity
    assert sigma_log_derivative_bound(SINH) == pytest.approx(1.0, abs=1e-9)
    assert sigma_log_derivative_bound(AF001) == pytest.approx(0.01, abs=1e-6)


def test_weighted_laplacian_flat_matches_reference():
    a = weighted_laplacian_operator(MetricProfile(Family.FLAT, n=4), GRID)
    b = flat_reference_operator(4, GRID)
    assert np.array_equal(a.matrix, b.matrix)
