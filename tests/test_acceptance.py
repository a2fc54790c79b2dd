"""Acceptance suite: quantitative gates, one printed verdict per criterion.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see every line.
Defaults throughout: n = 3, r_max = 40, 2048 cells.
"""

import math

import numpy as np
import pytest

from warpdirac import (ExponentTriple, Family, MetricProfile,
                       RadialGrid, SpinorState, assemble_dirac,
                       check_A2, check_admissible,
                       evolve, factorization_check,
                       FlatBesselOracle, gaussian_state,
                       lp_band, mu_scan,
                       norm_equivalence_check,
                       sphere_spectrum, verify_square)
from warpdirac.cli import main as cli_main
from warpdirac.profiles import sigma_log_derivative_bound

from references import kg_crosscheck, laplace_eigenvalue_check

FLAT = MetricProfile(Family.FLAT)
AF001 = MetricProfile(Family.ASYMPTOTICALLY_FLAT, epsilon=0.01)
R_MAX = 40.0
LADDER = (256, 512, 1024, 2048)


def verdict(number: int, ok: bool, detail: str):
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def flat_dirac_2048():
    return assemble_dirac(FLAT, 1.0, 0.0, RadialGrid(R_MAX, 2048))


def _ladder_order(residuals):
    return float(-np.polyfit(np.log(LADDER), np.log(residuals), 1)[0])


def test_criterion_1_squaring_convergence():
    worst = math.inf
    worst_case = ""
    for profile, tag in ((FLAT, "flat"), (AF001, "af")):
        for mu in (1.0, 2.0):
            for m in (0.0, 1.0):
                res = []
                for n_cells in LADDER:
                    res.append(verify_square(profile, mu, m, RadialGrid(R_MAX, n_cells)))
                order = _ladder_order(res)
                if order < worst:
                    worst, worst_case = order, f"{tag} mu={mu:g} m={m:g}"
    verdict(1, worst >= 1.9,
            f"squaring residual order >= 1.9 on all cases (worst {worst:.3f} at {worst_case})")


def test_criterion_2_factorization_convergence():
    worst = math.inf
    worst_case = ""
    for profile, tag in ((FLAT, "flat"), (AF001, "af")):
        for mu in (1.0, 2.0):
            res_m, res_p = [], []
            for n_cells in LADDER:
                rm, rp = factorization_check(profile, mu, RadialGrid(R_MAX, n_cells))
                res_m.append(rm)
                res_p.append(rp)
            order = min(_ladder_order(res_m), _ladder_order(res_p))
            if order < worst:
                worst, worst_case = order, f"{tag} mu={mu:g}"
    verdict(2, worst >= 1.9,
            f"factorization residual order >= 1.9 on all cases (worst {worst:.3f} at {worst_case})")


def test_criterion_3_flat_delta_values():
    worst = 0.0
    for rep in check_admissible(FLAT, [float(k) for k in range(1, 9)]):
        worst = max(worst, abs(rep.delta_plus - 0.25), abs(rep.delta_minus - 0.25))
    verdict(3, worst <= 1e-6,
            f"flat delta_pm(mu) = 1/4 for mu in 1..8 (max deviation {worst:.2e})")


def test_criterion_4_delta_floor():
    worst_margin = math.inf
    for eps in (0.001, 0.01):
        profile = MetricProfile(Family.ASYMPTOTICALLY_FLAT, epsilon=eps)
        a2 = check_A2(profile, 1.0)
        assert a2.passed
        bound = a2.delta_floor
        mus = [float(sign * k) for k in range(1, 9) for sign in (1, -1)]
        for rep in check_admissible(profile, mus):
            margin = min(rep.delta_plus, rep.delta_minus) - (bound - 1e-6)
            worst_margin = min(worst_margin, margin)
    verdict(4, worst_margin >= 0.0,
            f"delta_pm >= guaranteed floor - 1e-6 on |mu| <= 8, eps in {{1e-3, 1e-2}} "
            f"(worst margin {worst_margin:.2e})")


def test_criterion_5_failure_reproduction():
    sinh_profile = MetricProfile(Family.SINH)
    (rep,) = check_admissible(sinh_profile, [-1.0])
    value_at_2 = 16.0 * (1.0 - math.cosh(2.0)) / math.sinh(2.0) ** 2 + 1.0
    sinh_ok = (not rep.admissible and rep.witness_r is not None
               and 1.0 < rep.witness_r < 4.0
               and abs(value_at_2 - (-2.36)) < 0.01)
    poly = MetricProfile(Family.POLYNOMIAL, degree=3)
    poly_reports = check_admissible(poly, [1.0, -1.0, 2.0, -2.0])
    poly_ok = any(not r.admissible and r.witness_r is not None
                  for r in poly_reports)
    verdict(5, sinh_ok and poly_ok,
            f"sinh mu=-1 fails with witness r={rep.witness_r:.3f} "
            f"(quadratic term at r=2: {value_at_2:.3f}); polynomial p=3 fails")


def test_criterion_6_flat_exact_solution(flat_dirac_2048):
    errors = []
    for n_cells in (512, 1024, 2048):
        grid = RadialGrid(R_MAX, n_cells)
        init = gaussian_state(grid, center=7.5, width=1.5)
        op = (flat_dirac_2048 if n_cells == 2048
              else assemble_dirac(FLAT, 1.0, 0.0, grid))
        got = evolve(op, init, [8.0]).state(0)
        expect = FlatBesselOracle(1.0, 0.0, 3, grid).propagate(init, 8.0)
        num = np.sqrt(np.sum(np.abs(got.plus - expect.plus) ** 2)
                      + np.sum(np.abs(got.minus - expect.minus) ** 2))
        den = np.sqrt(np.sum(np.abs(expect.plus) ** 2)
                      + np.sum(np.abs(expect.minus) ** 2))
        errors.append(float(num / den))
    ratios_ok = errors[0] / errors[1] >= 3.0 and errors[1] / errors[2] >= 3.0
    verdict(6, errors[2] <= 1e-3 and ratios_ok,
            f"oracle agreement {errors[2]:.2e} <= 1e-3 at 2048 cells; "
            f"refinement ratios {errors[0]/errors[1]:.2f}, {errors[1]/errors[2]:.2f}")


def test_criterion_7_unitarity_reversibility(flat_dirac_2048):
    grid = flat_dirac_2048.grid
    init = gaussian_state(grid, center=12.0, width=1.5)
    t_max = grid.r_max - init.support_radius - 2.0
    traj = evolve(flat_dirac_2048, init, np.linspace(0.0, t_max, 23))
    base = traj.state(0).norm()
    drift = max(abs(traj.state(k).norm() / base - 1.0) for k in range(len(traj.times)))
    back = evolve(flat_dirac_2048, traj.state(-1), [-t_max]).state(0)
    num = np.sqrt(np.sum(np.abs(back.plus - init.plus) ** 2)
                  + np.sum(np.abs(back.minus - init.minus) ** 2))
    rt = float(num) / base
    verdict(7, drift <= 1e-10 and rt <= 1e-9,
            f"norm drift {drift:.2e} <= 1e-10 over [0, {t_max:g}]; "
            f"roundtrip error {rt:.2e} <= 1e-9")


def test_criterion_8_kg_crosscheck_order(flat_dirac_2048):
    grid = flat_dirac_2048.grid
    r = grid.nodes
    init = SpinorState(grid=grid,
                       plus=np.exp(-((r - 16.0) / 3.0) ** 2).astype(complex),
                       minus=0.8 * np.exp(-((r - 14.0) / 2.5) ** 2).astype(complex),
                       support_radius=25.0)
    dts = (0.8, 0.4, 0.2)
    res = []
    for dt in dts:
        worst = 0.0
        for t_check in (0.8, 1.6, 2.4):
            traj = evolve(flat_dirac_2048, init, [t_check - dt, t_check, t_check + dt])
            worst = max(worst, kg_crosscheck(traj))
        res.append(worst)
    order = float(np.polyfit(np.log(dts), np.log(res), 1)[0])
    verdict(8, order >= 1.9,
            f"second-order-form residual order {order:.3f} >= 1.9 in dt")


def test_criterion_9_growth_gates():
    triple = ExponentTriple(p=4.0, q=4.0)
    (result,) = mu_scan(FLAT, [triple], [float(k) for k in range(1, 9)],
                        grid=RadialGrid(R_MAX, 2048), t_max=8.0, samples=33)
    s_ok = result.strichartz_slope <= result.strichartz_slope_limit
    m_ok = result.smoothing_slope <= result.smoothing_slope_limit
    verdict(9, s_ok and m_ok,
            f"fitted slopes: strichartz {result.strichartz_slope:.3f} <= "
            f"{result.strichartz_slope_limit:g}, smoothing "
            f"{result.smoothing_slope:.3f} <= {result.smoothing_slope_limit:g}")


def test_criterion_10_norm_equivalence():
    grid = RadialGrid(R_MAX, 2048)
    worst_excess = -math.inf
    for profile, tag in ((FLAT, "flat"), (AF001, "af")):
        c_phi = sigma_log_derivative_bound(profile)
        exponents = (0.0, 0.5, 1.0)
        ratios = norm_equivalence_check(profile, exponents, trials=100, grid=grid)
        for s, (worst, worst_inv) in zip(exponents, ratios):
            bound = (1.0 + c_phi) ** s + 1e-3
            worst_excess = max(worst_excess, max(worst, worst_inv) - bound)
    verdict(10, worst_excess <= 0.0,
            f"weighted/flat H^s ratios within (1 + c_phi)^s + 1e-3 "
            f"(worst excess {worst_excess:.2e})")


def test_criterion_11_mode_band_combinatorics():
    checked = 0
    for n in (3, 4, 5):
        modes = sphere_spectrum(n, 64)
        for mode in modes:
            for component in ("+", "-"):
                lhs, rhs = laplace_eigenvalue_check(mode, component)
                assert lhs == rhs
            checked += 1
        for j in range(6):
            band = lp_band(n, j)
            for mode in modes:
                degs = (mode.degree_plus, mode.degree_minus)
                if mode.abs_mu > band.b:
                    assert all(d >= 2 ** (j + 1) for d in degs)
                if mode.abs_mu < band.a:
                    assert all(d < 2**j for d in degs)
    verdict(11, True, f"degree/eigenvalue identities exact on {checked} modes, "
            "band membership exact for j < 6, n in {3, 4, 5}")


def test_criterion_12_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("profile.family = flat\nmodes.mu_list = 1\n"
                   "grid.n_cells = 512\ntrials = 8\ntime.samples = 5\n")
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = cli_main(["validate", "--config", str(cfg), "--out", str(out),
                         "--seed", "0"])
        assert code == 0
        outs.append((out / "validate.json").read_bytes())
    verdict(12, outs[0] == outs[1],
            f"two validate runs byte-identical ({len(outs[0])} bytes)")
