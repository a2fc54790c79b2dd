import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpdirac import (ConfigurationError, Family,
                       MetricProfile, ModePotential, check_admissible, delta_c,
                       delta_phi, delta_pm, delta_lower_bound,
                       profile_constants)
from warpdirac import admissibility
from warpdirac.scan import BLOCK, DEFAULT_SCAN_POLICY, InfimumScanPolicy, scan_supremum

FLAT = MetricProfile(Family.FLAT)
SINH = MetricProfile(Family.SINH)
POLY3 = MetricProfile(Family.POLYNOMIAL, degree=3)
AF001 = MetricProfile(Family.ASYMPTOTICALLY_FLAT, epsilon=0.01)


def flat_delta_oracle(mu: float, sign: int) -> float:
    """Symbolic flat-space value: with V = mu/r both r-dependent terms are
    the constant 1/4 + mu^2 -+ mu, so delta = min(1/4, 1/4 + mu^2 -+ mu)."""
    return min(0.25, 0.25 + mu * mu - sign * mu)


def flat_delta_phi_oracle(mu: float) -> float:
    """min(1, 4 mu(mu+1) + 1) for phi = r: both infima are that constant."""
    return min(1.0, 4.0 * mu * (mu + 1.0) + 1.0)


@pytest.mark.parametrize("mu", [1.0, 2.0, 3.0, 5.0, 8.0, -1.0, -4.0, -8.0])
def test_flat_delta_pm_matches_oracle(mu):
    pair = delta_pm(ModePotential(profile=FLAT, mu=mu))
    assert pair.delta_plus == pytest.approx(flat_delta_oracle(mu, +1), abs=1e-9)
    assert pair.delta_minus == pytest.approx(flat_delta_oracle(mu, -1), abs=1e-9)


def test_flat_deltas_are_one_quarter():
    for mu in range(1, 9):
        pair = delta_pm(ModePotential(profile=FLAT, mu=float(mu)))
        assert pair.delta_plus == pytest.approx(0.25, abs=1e-6)
        assert pair.delta_minus == pytest.approx(0.25, abs=1e-6)


@pytest.mark.parametrize("mu", [1.0, 2.0, -1.0, -3.0])
def test_flat_delta_phi_matches_oracle(mu):
    res = delta_phi(FLAT, mu)
    assert res.value == pytest.approx(flat_delta_phi_oracle(mu), abs=1e-9)


def test_mu_zero_rejected():
    with pytest.raises(ConfigurationError):
        ModePotential(profile=FLAT, mu=0.0)


def test_flat_channel_potentials():
    # c_pm = (mu^2 -+ mu)/r^2 in three flat dimensions
    pot = ModePotential(profile=FLAT, mu=2.0)
    r = np.geomspace(0.1, 30.0, 50)
    assert np.allclose(pot.c_channel(r, +1) * r**2, 2.0, rtol=1e-12)
    assert np.allclose(pot.c_channel(r, -1) * r**2, 6.0, rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1.0, 2.0, -1.0, 3.5, -2.5]),
       st.floats(min_value=1e-3, max_value=300.0),  # direct phi^2 overflows past this for sinh
       st.sampled_from(["flat", "af", "sinh", "poly"]))
def test_quadratic_weight_identity(mu, r, tag):
    """4 (1/4 + r^2 (V^2 - V')) equals 4 r^2 mu(mu + phi')/phi^2 + 1."""
    prof = {"flat": FLAT, "af": AF001, "sinh": SINH, "poly": POLY3}[tag]
    pot = ModePotential(profile=prof, mu=mu)
    rv, r2vp, _, _ = pot.scaled_parts(np.array([r]))
    lhs = 4.0 * (0.25 + rv[0] ** 2 - r2vp[0])
    phi, dphi, _ = prof.phi_dphi_d2phi(np.array([r]))
    rhs = 4.0 * r**2 * mu * (mu + dphi[0]) / phi[0] ** 2 + 1.0
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_delta_phi_equals_four_delta_minus():
    for prof in (FLAT, AF001):
        for mu in (1.0, -1.0, 2.0, -3.0):
            pair = delta_pm(ModePotential(profile=prof, mu=mu))
            res = delta_phi(prof, mu)
            assert res.value == pytest.approx(4.0 * pair.delta_minus, rel=1e-9)


@pytest.mark.parametrize("prof", [FLAT, AF001], ids=["flat", "af"])
def test_delta_c_equals_delta_pm(prof):
    for mu in [float(k) for k in range(1, 9)] + [-1.0, -2.0, -5.0, -8.0]:
        pot = ModePotential(profile=prof, mu=mu)
        pair = delta_pm(pot)
        assert delta_c(pot, +1).value == pytest.approx(pair.delta_plus, abs=1e-9)
        assert delta_c(pot, -1).value == pytest.approx(pair.delta_minus, abs=1e-9)


def test_delta_c_zero_potential_shape():
    # c == 0 gives min(1/4, (n-2)^2/4, (n-2)^2/4) = 1/4 for n >= 3; realized
    # here through the flat mu = 1 plus channel whose potential vanishes.
    pot = ModePotential(profile=FLAT, mu=1.0)
    res = delta_c(pot, +1)
    assert res.value == pytest.approx(0.25, abs=1e-9)


def test_delta_c_dimension_shift():
    # same channel, higher n: the (n-2)^2/4 shift raises both infima
    pot5 = ModePotential(profile=MetricProfile(Family.FLAT, n=5), mu=2.0)
    res = delta_c(pot5, +1)
    assert res.value == pytest.approx(0.25, abs=1e-9)
    assert res.quad_term.value == pytest.approx(9.0 / 4.0 + (4.0 - 2.0), abs=1e-9) \
        or res.quad_term.value > 0.25


def test_flat_admissible():
    for rep in check_admissible(FLAT, [1.0, -1.0, 2.0]):
        assert rep.admissible
        assert rep.witness_r is None
        assert rep.limit_at_infinity_ok
        assert math.isfinite(rep.sup_4r2V)


def test_af_admissible():
    (rep,) = check_admissible(AF001, [1.0])
    assert rep.admissible


def test_sinh_fails_with_witness_near_two():
    (rep,) = check_admissible(SINH, [-1.0])
    assert not rep.admissible
    assert rep.witness_r is not None and 1.0 < rep.witness_r < 4.0
    # quoted failure value at r = 2: 16 (1 - cosh 2)/sinh^2 2 + 1
    expected = 16.0 * (1.0 - math.cosh(2.0)) / math.sinh(2.0) ** 2 + 1.0
    assert expected == pytest.approx(-2.36, abs=0.01)
    pot = ModePotential(profile=SINH, mu=-1.0)
    rv, r2vp, _, _ = pot.scaled_parts(np.array([2.0]))
    assert 4.0 * (rv[0] ** 2 - r2vp[0]) + 1.0 == pytest.approx(expected, rel=1e-12)
    assert rep.delta_phi_mu < expected + 0.2  # infimum at least as deep


def test_polynomial_fails():
    results = check_admissible(POLY3, [1.0, -1.0, 2.0, -2.0])
    assert any(not r.admissible for r in results)
    for r in results:
        if not r.admissible:
            assert r.witness_r is not None and r.witness_r > 0.0


PROFILES = {"flat": FLAT, "af": AF001, "sinh": SINH, "poly": POLY3}
SIGNED_MUS = [float(sign * k) for k in range(1, 9) for sign in (1, -1)]


def _single_functional_report(prof, mu, scan):
    """Report fields from one scan per functional, as check_admissible once did per mode."""
    pot = ModePotential(profile=prof, mu=mu)
    pair = delta_pm(pot, scan)
    pos, neg = delta_phi(prof, mu, scan), delta_phi(prof, -mu, scan)

    def r2w(parts):
        return parts[0] ** 2 - parts[1]

    at_inf = pot.scaled_parts_at_infinity()
    sup = scan_supremum(lambda r: np.abs(4.0 * r2w(pot.scaled_parts(r))), scan,
                        limit_at_zero=abs(4.0 * r2w(pot.scaled_parts_at_zero())),
                        limit_at_infinity=None if at_inf is None else abs(4.0 * r2w(at_inf)))
    probes = []
    for r in (scan.r_max / 100, scan.r_max / 10, scan.r_max):
        rv, r2vp, _, _ = pot.scaled_parts(np.array([r]))
        probes.append(abs(float(rv[0] ** 2 - r2vp[0])) / r**2)
    decays = probes[0] >= probes[1] >= probes[2] and probes[2] < 1e-6
    sup_finite = not sup.diverging and math.isfinite(sup.value)
    admissible = pos.value > 0.0 and neg.value > 0.0 and sup_finite and decays
    witness = None
    if not admissible:
        terms = [d.violating_term() for d in (pos, neg)]
        terms = [t for t in terms if t is not None]
        witness = terms[0].arg_r if terms else (None if sup_finite else sup.arg_r)
    return dict(mu=mu, family=prof.family.value, n=3,
                delta_plus=pair.delta_plus, delta_minus=pair.delta_minus,
                delta_phi_mu=pos.value, delta_phi_neg_mu=neg.value,
                sup_4r2V=sup.value, limit_at_infinity_ok=decays,
                admissible=admissible, witness_r=witness)


@pytest.mark.parametrize("scan", [DEFAULT_SCAN_POLICY, InfimumScanPolicy(1e-4, 1e4, 5000)],
                         ids=["default", "narrow"])
@pytest.mark.parametrize("tag", sorted(PROFILES))
def test_batched_reports_equal_single_functional_scans(tag, scan):
    """One check over all modes gives every field of the per-functional scans, bit for bit."""
    prof = PROFILES[tag]
    reports = check_admissible(prof, SIGNED_MUS, scan)
    assert len(reports) == len(SIGNED_MUS)
    for mu, rep in zip(SIGNED_MUS, reports):
        assert rep.to_dict() == _single_functional_report(prof, mu, scan), mu
    if tag in ("sinh", "poly"):
        assert any(rep.witness_r is not None for rep in reports)


@pytest.mark.parametrize("tag", sorted(PROFILES))
def test_mode_terms_equal_the_written_out_functionals(tag):
    """The shared subexpressions of _parts and _mode_terms change no bit of any functional."""
    ratios = PROFILES[tag].ratios(InfimumScanPolicy(1e-4, 1e4, 5000).grid())
    s1, s2, s3 = ratios
    for mu in SIGNED_MUS + [np.resize(SIGNED_MUS, len(s1))]:  # array mu as in refinements
        rv = mu * s1
        r2vp = -mu * s1 * s2
        r3vpp = 2.0 * mu * s1 * s2**2 - mu * s3
        r3wp = mu * s3 - 2.0 * rv**2 * s2 - 2.0 * mu * s1 * s2**2
        hardy = [0.25 + rv**2 + sign * r2vp for sign in (1, -1)]
        cubic = [0.25 - (2.0 * rv * r2vp + sign * r3vpp) - (rv**2 + sign * r2vp)
                 for sign in (1, -1)]
        expected = (hardy[0], cubic[0], hardy[1], cubic[1], 4.0 * (rv**2 - r2vp) + 1.0,
                    -4.0 * (rv**2 - r2vp) - 4.0 * r3wp + 1.0, -np.abs(4.0 * (rv**2 - r2vp)))
        parts = admissibility._parts(mu, ratios)
        for got, want in zip((*parts, *admissibility._mode_terms(parts)),
                             (rv, r2vp, r3vpp, r3wp, *expected), strict=True):
            assert np.array_equal(got, want)


def test_one_profile_evaluation_per_scan_grid(monkeypatch):
    """One ratios call on the policy grid; refinements share their small calls across modes."""
    sizes = []
    real = MetricProfile.ratios

    def counting(self, r):
        sizes.append(np.size(r))
        return real(self, r)

    monkeypatch.setattr(MetricProfile, "ratios", counting)

    def small_calls(mus):
        sizes.clear()
        check_admissible(AF001, mus)
        assert sizes.count(DEFAULT_SCAN_POLICY.points) == 1
        return len(sizes) - 1

    two = small_calls([1.0, -1.0])
    assert two > 2  # the refinement ran
    assert small_calls(SIGNED_MUS) == two


def test_profile_is_never_evaluated_beyond_the_policy_range(monkeypatch):
    """The decay probes come from the policy, not from fixed radii up to 1e6."""
    scan = InfimumScanPolicy(1e-4, 1e4, 5000)
    largest = []
    real = MetricProfile.ratios

    def recording(self, r):
        largest.append(float(np.max(r)))
        return real(self, r)

    monkeypatch.setattr(MetricProfile, "ratios", recording)
    check_admissible(AF001, SIGNED_MUS, scan)
    assert largest and max(largest) <= scan.r_max


def test_blocked_scan_of_distinct_functionals(monkeypatch):
    """Mode terms only see one grid block; each signed mu scans its seven functionals once."""
    expected = check_admissible(AF001, SIGNED_MUS)
    longest, counts, blocks = [0], [], []
    filling = [False]
    real_terms, real_parts = admissibility._mode_terms, admissibility._parts
    real_scan = admissibility.scan_infima

    def sized(parts):
        longest[0] = max(longest[0], np.size(parts[0]))
        return real_terms(parts)

    def recorded(mu, ratios):
        if filling[0]:
            blocks[-1].append(mu)
        return real_parts(mu, ratios)

    def counting(r, limits, fill, evaluate):
        counts.append(len(limits))

        def block_fill(lo, hi, out):
            blocks.append([])
            filling[0] = True
            fill(lo, hi, out)
            filling[0] = False

        return real_scan(r, limits, block_fill, evaluate)

    monkeypatch.setattr(admissibility, "_mode_terms", sized)
    monkeypatch.setattr(admissibility, "_parts", recorded)
    monkeypatch.setattr(admissibility, "scan_infima", counting)
    assert check_admissible(AF001, SIGNED_MUS) == expected
    assert 0 < longest[0] <= BLOCK
    assert counts == [16 * 7]  # every (mu, term) of 16 signed modes
    assert len(blocks) > 1 and all(sorted(b) == sorted(SIGNED_MUS) for b in blocks)


def test_report_serialization_fields():
    (rep,) = check_admissible(FLAT, [1.0])
    d = rep.to_dict()
    for key in ("delta_plus", "delta_minus", "delta_phi_mu", "delta_phi_neg_mu",
                "sup_4r2V", "limit_at_infinity_ok", "admissible", "witness_r"):
        assert key in d


def test_delta_floor_values():
    consts = profile_constants(AF001)
    assert delta_lower_bound(consts, 2.0) == 0.25
    assert delta_lower_bound(consts, 1.0) == pytest.approx(
        0.125 - max(consts.a_phi, consts.b_phi))
    flat_consts = profile_constants(FLAT)
    assert delta_lower_bound(flat_consts, 1.0) == pytest.approx(0.125)


def test_delta_floor_substitution_example():
    from warpdirac.profiles import ProfileConstants
    consts = ProfileConstants(a_phi=0.05, b_phi=0.04, c_phi=0.0)
    assert delta_lower_bound(consts, 1.0) == pytest.approx(0.075)


@pytest.mark.parametrize("eps", [0.001, 0.01])
def test_delta_floor_holds_on_sphere_modes(eps):
    prof = MetricProfile(Family.ASYMPTOTICALLY_FLAT, epsilon=eps)
    consts = profile_constants(prof)
    bound = delta_lower_bound(consts, 1.0)
    quarter = delta_lower_bound(consts, 2.0)
    assert quarter == 0.25
    for k in range(1, 11):
        for mu in (float(k), -float(k)):
            pair = delta_pm(ModePotential(profile=prof, mu=mu))
            assert pair.delta_plus >= bound - 1e-6
            assert pair.delta_minus >= bound - 1e-6
            if k >= 2:
                # modes above the mu0 = 2 gap keep the full quarter
                assert min(pair.delta_plus, pair.delta_minus) >= quarter - 1e-6
