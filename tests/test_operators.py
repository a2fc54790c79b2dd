import inspect
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.linalg

from warpdirac import (ConfigurationError, Family, GridTooCoarseError,
                       MetricProfile, ModePotential, RadialGrid, assemble_dirac,
                       assemble_kg, check_admissible, factorization_check,
                       flat_reference_operator, norm_equivalence_check,
                       verify_square)
from warpdirac.estimates import mu_scan, strichartz_weight
from warpdirac.evolution import SpinorTrajectory
from warpdirac import operators
from warpdirac.errors import NumericalError
from warpdirac.operators import (_BLOCK, DiscreteRadialOperator, SobolevCalculus, _band_forms,
                                 _Bumps, weighted_laplacian_operator)
from warpdirac.profiles import sigma_log_derivative_bound

from references import (random_bump, stacked_bumps, stacked_norm_equivalence_check,
                        whole_block_band_forms, whole_block_dst_calculus)

FLAT = MetricProfile(Family.FLAT)
SINH = MetricProfile(Family.SINH)
AF001 = MetricProfile(Family.ASYMPTOTICALLY_FLAT, epsilon=0.01)

GRID = RadialGrid(40.0, 512)


@pytest.mark.parametrize("api", [assemble_dirac, assemble_kg, verify_square,
                                 factorization_check, weighted_laplacian_operator,
                                 norm_equivalence_check, strichartz_weight, mu_scan,
                                 ModePotential],
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


def test_grid_too_coarse():
    with pytest.raises(GridTooCoarseError, match="at least 16 cells, got 8"):
        RadialGrid(40.0, 8)
    for r_max, n_cells in ((math.nan, 64), (math.inf, 64), (40.0, 64.5), (40.0, 64.0)):
        with pytest.raises(ConfigurationError):
            RadialGrid(r_max, n_cells)
    assert RadialGrid(40.0, np.int64(64)).nodes.shape == (64,)


def test_kg_refuses_a_sign_other_than_one():
    with pytest.raises(ConfigurationError, match="sign must be"):
        assemble_kg(FLAT, 1.0, 0.0, 0, GRID)


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


def test_verify_square_convergence():
    res = []
    for n_cells in (256, 512, 1024):
        res.append(verify_square(FLAT, 1.0, 0.0, RadialGrid(40.0, n_cells)))
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
    for m in (math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="mass m must be finite"):
            assemble_dirac(FLAT, 1.0, m, GRID)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_potential_that_is_not_finite_is_refused(bad):
    """A potential with a NaN or an infinity (sinh's phi overflows past r = 710)
    is a NumericalError naming the kind and the first bad node, not a later crash."""
    pot = np.ones(GRID.n_cells)
    pot[[100, 200]] = bad
    with pytest.raises(NumericalError,
                       match=f"the kg_minus potential is not finite at r = {GRID.nodes[100]:g}$"):
        DiscreteRadialOperator(GRID, "kg_minus", pot)


def test_norm_equivalence_flat_is_exact():
    """At n = 3 the flat weighted Laplacian is the plain second difference,
    so both sides run identical bands through identical arithmetic and every
    ratio is exactly 1."""
    [(worst, worst_inv)] = norm_equivalence_check(FLAT, [0.7], trials=20, grid=GRID)
    assert (worst, worst_inv) == (1.0, 1.0)


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
    bumps = [random_bump(rng, GRID) for _ in range(12)]
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
    with pytest.raises(CfgErr, match="at least one trial, got 0"):
        norm_equivalence_check(FLAT, [0.5], trials=0, grid=GRID)


def _bumps(grid, count, seed=0):
    return stacked_bumps(grid, count, seed)


@pytest.mark.parametrize("n_cells", [512, 2048])
def test_band_forms_match_the_dst1_forms_of_h0(n_cells):
    """At n = 3, H0 is the plain second difference, whose exact eigenbasis is
    the DST-I of SobolevCalculus: the quadrature of the resolvent integral
    gives its forms x^T (1 + H0)^s x within 1e-14."""
    grid = RadialGrid(40.0, n_cells)
    h0 = flat_reference_operator(3, grid)
    x = _bumps(grid, 20)
    exponents = (0.1, 0.25, 0.5, 0.75, 0.9)
    calculus = SobolevCalculus(h0)
    for s, form in zip(exponents, _band_forms(h0, x, exponents)):
        exact = np.sum(calculus.apply(x, s) ** 2, axis=0)
        assert np.max(np.abs(form / exact - 1.0)) <= 5e-13


@pytest.mark.parametrize("prof", [SINH, AF001], ids=["sinh", "af"])
def test_band_forms_at_the_integer_exponents(prof):
    """s = 1 is x^T (1 + A) x and s = 0 is ||x||^2, with no quadrature."""
    op = weighted_laplacian_operator(prof, GRID)
    x = _bumps(GRID, 20, seed=4)
    zero, one = _band_forms(op, x, (0.0, 1.0))
    assert np.array_equal(zero, np.sum(x * x, axis=0))
    dense = np.sum(x * (x + op.matrix @ x), axis=0)
    assert np.max(np.abs(one / dense - 1.0)) <= 1e-13


@pytest.mark.parametrize("k", [1, 7, 8, 9, 20, 100])
@pytest.mark.parametrize("prof", [FLAT, SINH, AF001, replace(AF001, n=5)],
                         ids=["flat", "sinh", "af", "af5"])
def test_band_forms_with_one_scratch_keep_the_whole_block_bits(prof, k):
    """B x formed a row block at a time, and the s = 0 and s = 1 forms summed
    block by block, keep the bits of a fresh N x K temporary per step, at
    every column count (NumPy sums one column pairwise and several row by
    row) and on grids whose cell count is not a multiple of the block."""
    for grid in (GRID, RadialGrid(40.0, 300), RadialGrid(40.0, 2047)):
        op = weighted_laplacian_operator(prof, grid)
        x = _bumps(grid, k, seed=k)
        exponents = (0.0, 0.5, 1.0, 0.25)
        for got, want in zip(_band_forms(op, x, exponents),
                             whole_block_band_forms(op, x, exponents), strict=True):
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]


def test_norm_equivalence_bumps_are_the_stacked_bumps(monkeypatch):
    """Both forms read the trials from one source of row blocks, each block
    C-contiguous and the same bits as that block of the stacked bumps."""
    seen = []
    real = operators._band_forms

    def recording(op, x, exponents):
        seen.append(x)
        return real(op, x, exponents)

    monkeypatch.setattr(operators, "_band_forms", recording)
    norm_equivalence_check(AF001, (0.5,), trials=9, grid=GRID, seed=3)
    stacked = _bumps(GRID, 9, seed=3)
    assert len(seen) == 2 and all(x.shape == stacked.shape for x in seen)
    for x in seen:
        blocks = [x[lo:lo + _BLOCK + 2] for lo in range(0, GRID.n_cells, _BLOCK)]
        assert all(b.flags.c_contiguous for b in blocks)
        assert np.array_equal(np.concatenate([b[:_BLOCK] for b in blocks]), stacked)


SEEDS, TRIALS = (0, 1, 7), (1, 2, 7, 64, 65, 100)


@pytest.mark.parametrize("n_cells", [256, 1000, 2048])
def test_bump_row_blocks_are_the_stacked_bumps(n_cells):
    """Every row block that _band_forms reads, rows lo - 1 .. hi of each block
    of _BLOCK rows, is that block of the reference's stacked bumps, bit for
    bit, at every seed and trial count."""
    grid = RadialGrid(40.0, n_cells)
    for seed in SEEDS:
        for trials in TRIALS:
            bumps = _Bumps(np.random.default_rng(seed), grid, trials)
            stacked = stacked_bumps(grid, trials, seed)
            assert bumps.shape == stacked.shape
            for lo in range(0, n_cells, _BLOCK):
                rows = slice(max(lo - 1, 0), lo + _BLOCK + 1)
                assert bumps[rows].tobytes() == stacked[rows].tobytes()


NORM_PROFILES = {"flat": FLAT, "af": AF001, "sinh": SINH, "poly": MetricProfile(Family.POLYNOMIAL),
                 "af245": MetricProfile(Family.ASYMPTOTICALLY_FLAT, epsilon=0.5, alpha=2, beta=4)}


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("tag", sorted(NORM_PROFILES))
def test_norm_equivalence_from_row_blocks_keeps_the_stacked_bits(tag, n):
    """The ratios from bumps formed a row block at a time are those of the
    stacked N x trials block, every bit, on every grid; the seeds and trial
    counts take turns across the grids and the cases."""
    prof = replace(NORM_PROFILES[tag], n=n)
    exponents = (0.0, 0.5, 1.0, 0.25)
    turn = sorted(NORM_PROFILES).index(tag) + n
    for k, n_cells in enumerate((256, 1000, 2048)):
        seed, trials = SEEDS[(turn + k) % len(SEEDS)], TRIALS[(turn + k) % len(TRIALS)]
        grid = RadialGrid(40.0, n_cells)
        got = norm_equivalence_check(prof, exponents, trials, grid, seed)
        want = stacked_norm_equivalence_check(prof, exponents, trials, grid, seed)
        assert [v.hex() for pair in got for v in pair] == [v.hex() for pair in want
                                                            for v in pair]


class _ZeroAmplitudes:
    """A generator stand-in whose trials draw one Gaussian of amplitude 0."""

    def integers(self, lo, hi):
        return 1

    def uniform(self, lo, hi):
        return 0.0 if lo == -1.0 else 0.5 * (lo + hi)


def test_a_trial_whose_amplitudes_are_zero_is_the_fixed_bump():
    """A trial whose Gaussians sum to a zero column is the fixed bump at
    0.4 r_max, as in the reference, bit for bit."""
    bumps = _Bumps(_ZeroAmplitudes(), GRID, 3)
    want = random_bump(_ZeroAmplitudes(), GRID)
    assert np.any(want)
    for k in range(3):
        assert bumps[0:GRID.n_cells][:, k].tobytes() == want.tobytes()


def test_norm_equivalence_memory_does_not_grow_with_the_trials():
    """At 2048 cells and 400 trials the check's tracemalloc peak is at most
    0.75 N trials 8 bytes: the bumps are formed a row block at a time, and
    only node-by-trial arrays are held (the stacked block and its copies
    peaked at 1.5 N trials 8 bytes)."""
    grid = RadialGrid(40.0, 2048)
    tracemalloc.start()
    try:
        norm_equivalence_check(AF001, (0.0, 0.5, 1.0), trials=400, grid=grid, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * grid.n_cells * 400 * 8


def test_band_forms_refuse_an_operator_that_is_not_positive_definite():
    """1 + A with A = -d2/dr2 - 5 has negative eigenvalues, where the resolvent
    integral has a pole and (1 + A)^s x is no norm; the calculus, which takes
    the same integral, refuses it too."""
    op = DiscreteRadialOperator(GRID, "weighted_laplacian", np.full(GRID.n_cells, -5.0))
    for exponents in ((0.5,), (0.0, 1.0)):
        with pytest.raises(NumericalError, match="not positive definite"):
            _band_forms(op, _bumps(GRID, 2), exponents)
    for s in (-0.5, 0.5):
        with pytest.raises(NumericalError, match="not positive definite"):
            SobolevCalculus(op).apply(_bumps(GRID, 2), s)


def test_norm_equivalence_keeps_no_eigenbasis(monkeypatch):
    """validate's check at 2048 cells and 100 trials: no eigh, and a
    tracemalloc peak of at most 3.5 MB, far below the 33.5 MB of one
    2048 x 2048 eigenbasis: besides the 1.6 MB of bumps, only row blocks
    and node-set arrays are held (N x K temporaries for B x peaked at 6 MB)."""

    def refuse(self):
        raise AssertionError("norm_equivalence_check called eigh")

    monkeypatch.setattr(DiscreteRadialOperator, "eigh", refuse)
    grid = RadialGrid(40.0, 2048)
    tracemalloc.start()
    try:
        norm_equivalence_check(AF001, (0.0, 0.5, 1.0), trials=100, grid=grid, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5e6


@pytest.mark.parametrize("n_cells", [64, 1023, 2048])
@pytest.mark.parametrize("cols", [1, 7, 8, 9, 33, 66])
def test_dst_calculus_in_column_blocks_keeps_the_whole_blocks_bits(n_cells, cols):
    """The n = 3 calculus transforms a few columns at a time; each column's
    result is the whole-block transform's, bit for bit and signed zeros
    included, whether the block ends inside a column block or on its edge,
    and for the parts of a complex block."""
    grid = RadialGrid(40.0, n_cells)
    calc = SobolevCalculus(flat_reference_operator(3, grid))
    rng = np.random.default_rng(n_cells + cols)
    block = rng.standard_normal((n_cells, cols))
    block[rng.random(block.shape) < 0.2] = 0.0
    block[rng.random(block.shape) < 0.2] = -0.0
    block[:, -1] = -0.0
    block[:n_cells // 2, 0] = -0.0
    both = block + 1j * block[::-1]
    for s in (1.0, 0.5, -0.25):
        want = whole_block_dst_calculus(grid, block, s)
        assert calc.apply(block, s).tobytes() == want.tobytes()
        want = operators._by_parts(lambda part: whole_block_dst_calculus(grid, part, s), both)
        assert calc.apply(both, s).tobytes() == want.tobytes()


def test_sigma_log_derivative_bounds():
    assert sigma_log_derivative_bound(FLAT) == 0.0
    # sup |1/r - coth r| = 1, attained in the limit r -> infinity
    assert sigma_log_derivative_bound(SINH) == pytest.approx(1.0, abs=1e-9)
    assert sigma_log_derivative_bound(AF001) == pytest.approx(0.01, abs=1e-6)


def test_weighted_laplacian_flat_matches_reference():
    a = weighted_laplacian_operator(MetricProfile(Family.FLAT, n=4), GRID)
    b = flat_reference_operator(4, GRID)
    assert np.array_equal(a.matrix, b.matrix)
