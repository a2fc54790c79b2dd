import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpdirac import (ConfigurationError, Family, HypothesisViolationError,
                       MetricProfile, UnsupportedFamilyError, check_A2,
                       profile_constants)
from warpdirac import cli, profiles, scan
from warpdirac.profiles import ProfileConstants, sigma_log_derivative_bound
from warpdirac.scan import DEFAULT_SCAN_POLICY, scan_supremum

FLAT = MetricProfile(Family.FLAT)
SINH = MetricProfile(Family.SINH)
AF001 = MetricProfile(Family.ASYMPTOTICALLY_FLAT, epsilon=0.01, alpha=1, beta=1)
POLY3 = MetricProfile(Family.POLYNOMIAL, degree=3)

# frozen via an independent sympy-derivative + golden-section oracle
AF001_A_PHI = 0.010886621079
AF001_B_PHI = 0.019818434518
AF0001_A_PHI = 0.001088662108
AF0001_B_PHI = 0.001972913368


def test_flat_is_identity():
    """Flat is phi1 = 0 on the asymptotically flat path, whose epsilon it
    still carries: phi = r, phi' = 1, phi'' = 0 and ratios (1, 1, 0) exactly."""
    r = np.linspace(0.0, 50.0, 101)
    phi, dphi, d2phi = FLAT.phi_dphi_d2phi(r)
    assert FLAT.epsilon != 0.0
    assert np.array_equal(phi, r)
    assert np.all(dphi == 1.0)
    assert np.all(d2phi == 0.0)
    for ratio, want in zip(FLAT.ratios(np.geomspace(1e-6, 1e6, 101)), (1.0, 1.0, 0.0)):
        assert np.all(ratio == want)
    assert FLAT.ratios_at_infinity() == (1.0, 1.0, 0.0)


def test_sinh_values():
    phi, dphi, d2phi = SINH.phi_dphi_d2phi(1.0)
    assert phi == pytest.approx(math.sinh(1.0), abs=1e-15)
    assert dphi == pytest.approx(math.cosh(1.0), abs=1e-15)
    assert d2phi == pytest.approx(math.sinh(1.0), abs=1e-15)


def test_af_value_at_one():
    phi, _, _ = AF001.phi_dphi_d2phi(1.0)
    assert phi == pytest.approx(1.0 + 0.01 / math.sqrt(2.0), rel=1e-14)


def test_origin_limits():
    for prof in (FLAT, SINH, AF001, POLY3):
        phi, dphi, _ = prof.phi_dphi_d2phi(0.0)
        assert phi == 0.0
        assert dphi == 1.0


def test_positive_away_from_origin():
    # direct sinh evaluation overflows past r ~ 710; scans use scaled ratios
    r = np.geomspace(1e-6, 500.0, 400)
    for prof in (FLAT, SINH, AF001, POLY3):
        phi, _, _ = prof.phi_dphi_d2phi(r)
        assert np.all(phi > 0.0)


def test_invalid_parameters():
    with pytest.raises(ConfigurationError):
        MetricProfile(Family.ASYMPTOTICALLY_FLAT, epsilon=-0.1)
    with pytest.raises(ConfigurationError):
        MetricProfile(Family.ASYMPTOTICALLY_FLAT, alpha=3, beta=2)
    with pytest.raises(ConfigurationError):
        MetricProfile(Family.POLYNOMIAL, degree=1)
    with pytest.raises(ConfigurationError):
        MetricProfile(Family.FLAT, n=2)
    with pytest.raises(ConfigurationError, match="beta must be <= 12"):
        MetricProfile(Family.ASYMPTOTICALLY_FLAT, alpha=1, beta=13)
    for bad in (dict(epsilon=math.nan), dict(epsilon=math.inf), dict(n=3.5), dict(alpha=1.5),
                dict(beta=2.0), dict(degree=3.5)):
        with pytest.raises(ConfigurationError):
            MetricProfile(Family.ASYMPTOTICALLY_FLAT, **bad)
    assert MetricProfile(Family.POLYNOMIAL, n=np.int64(4), degree=np.int64(5)).degree == 5


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["flat", "sinh", "af", "af_high", "poly"]),
       st.floats(min_value=1e-3, max_value=50.0))
def test_derivatives_match_finite_differences(tag, r):
    prof = {
        "flat": FLAT, "sinh": SINH, "af": AF001, "poly": POLY3,
        "af_high": MetricProfile(Family.ASYMPTOTICALLY_FLAT, epsilon=0.05,
                                 alpha=2, beta=3),
    }[tag]
    h = 1e-5
    phi, dphi, d2phi = prof.phi_dphi_d2phi(r)
    pm, _, _ = prof.phi_dphi_d2phi(max(r - h, 0.0))
    pp, _, _ = prof.phi_dphi_d2phi(r + h)
    fd1 = (pp - pm) / (2.0 * h)
    fd2 = (pp - 2.0 * phi + pm) / h**2
    scale1 = max(abs(dphi), 1.0)
    # second differences at h = 1e-5 carry roundoff ~ phi * eps / h^2
    scale2 = max(abs(d2phi), abs(phi), 1.0)
    assert abs(fd1 - dphi) / scale1 < 1e-6
    assert abs(fd2 - d2phi) / scale2 < 1e-4


def _single_functional_constants(prof, policy=DEFAULT_SCAN_POLICY):
    """ProfileConstants from one scan_supremum per phi1 functional."""
    lim = prof.phi1_limit_at_infinity()

    def f_a(r):
        phi1, rp, _ = prof.phi1_parts(r)
        return np.abs(phi1 + rp)

    def f_b1(r):
        phi1, rp, _ = prof.phi1_parts(r)
        return np.abs(rp + (1.0 + phi1) * (phi1 + rp))

    def f_b2(r):
        phi1, rp, rpp = prof.phi1_parts(r)
        return np.abs(2.0 * rp**2 + (1.0 + phi1) * rpp)

    sup_a = scan_supremum(f_a, policy, limit_at_zero=0.0, limit_at_infinity=abs(lim))
    sup_b1 = scan_supremum(f_b1, policy, limit_at_zero=0.0,
                           limit_at_infinity=abs((1.0 + lim) * lim))
    sup_b2 = scan_supremum(f_b2, policy, limit_at_zero=0.0, limit_at_infinity=0.0)
    return ProfileConstants(
        a_phi=sup_a.value, b_phi=sup_b1.value + sup_b2.value,
        c_phi=sigma_log_derivative_bound(prof, policy),
        arg_a=sup_a.arg_r, arg_b1=sup_b1.arg_r, arg_b2=sup_b2.arg_r)


def _hex_fields(consts):
    return {name: float(value).hex() for name, value in vars(consts).items()}


@pytest.mark.parametrize("eps, alpha, beta", [(0.01, 1, 1), (0.001, 1, 1), (0.5, 2, 4),
                                              (0.2, 1, 1), (3.0, 1, 3), (20.0, 1, 3),
                                              (0.3, 2, 2)])
def test_one_table_equals_single_functional_scans(eps, alpha, beta):
    """The one-table constants equal one scan_supremum per functional, every bit."""
    prof = MetricProfile(Family.ASYMPTOTICALLY_FLAT, epsilon=eps, alpha=alpha, beta=beta)
    assert _hex_fields(profile_constants(prof)) == _hex_fields(_single_functional_constants(prof))


def test_profile_constants_one_table_per_check(monkeypatch):
    """An AF check_A2 runs two scans: the phi1 table and the sigma'/sigma bound."""
    real, calls = scan.scan_infima, []

    def counting(r, limits, prepare, terms):
        calls.append([len(group) for group in limits])
        return real(r, limits, prepare, terms)

    monkeypatch.setattr(scan, "scan_infima", counting)
    monkeypatch.setattr(profiles, "scan_infima", counting)
    check_A2(AF001, 1.0)
    assert calls == [[3], [1]]


def _assert_exact_zeros(c):
    """+0.0 constants, each witnessed at the first grid radius."""
    assert [float(x).hex() for x in (c.a_phi, c.b_phi, c.c_phi)] == [(0.0).hex()] * 3
    assert (c.arg_a, c.arg_b1, c.arg_b2) == (DEFAULT_SCAN_POLICY.r_min,) * 3


def test_profile_constants_flat_zero():
    _assert_exact_zeros(profile_constants(FLAT))


def test_profile_constants_zero_amplitude():
    _assert_exact_zeros(profile_constants(MetricProfile(Family.ASYMPTOTICALLY_FLAT, epsilon=0.0)))


def test_profile_constants_frozen_values():
    c = profile_constants(AF001)
    assert c.a_phi == pytest.approx(AF001_A_PHI, abs=1e-9)
    assert c.b_phi == pytest.approx(AF001_B_PHI, abs=1e-9)
    assert 0.0 < c.a_phi < 0.05
    assert 0.0 < c.b_phi < 0.05
    # c_phi = sup |phi1'/(1+phi1)| is attained at r = 0 for alpha = beta = 1
    assert c.c_phi == pytest.approx(0.01, abs=1e-10)
    small = profile_constants(MetricProfile(Family.ASYMPTOTICALLY_FLAT, epsilon=0.001))
    assert small.a_phi == pytest.approx(AF0001_A_PHI, abs=1e-9)
    assert small.b_phi == pytest.approx(AF0001_B_PHI, abs=1e-9)


def test_profile_constants_monotone_in_amplitude():
    scales = [0.001, 0.005, 0.02, 0.08, 0.3]
    a_vals, b_vals = [], []
    for eps in scales:
        c = profile_constants(MetricProfile(Family.ASYMPTOTICALLY_FLAT, epsilon=eps))
        a_vals.append(c.a_phi)
        b_vals.append(c.b_phi)
    assert all(x < y for x, y in zip(a_vals, a_vals[1:]))
    assert all(x < y for x, y in zip(b_vals, b_vals[1:]))


def test_profile_constants_unsupported_families():
    for prof in (SINH, POLY3):
        with pytest.raises(UnsupportedFamilyError):
            profile_constants(prof)
    with pytest.raises(UnsupportedFamilyError, match="no phi1 decomposition"):
        SINH.phi1_parts(np.array([1.0]))
    with pytest.raises(UnsupportedFamilyError, match="no phi1 decomposition"):
        SINH.phi1_limit_at_infinity()


def test_every_family_has_finite_ratio_limits():
    for prof in (FLAT, SINH, AF001, POLY3, MetricProfile(Family.ASYMPTOTICALLY_FLAT,
                                                         epsilon=0.5, alpha=2, beta=2)):
        limits = prof.ratios_at_infinity()
        assert isinstance(limits, tuple) and len(limits) == 3
        assert all(math.isfinite(x) for x in limits)


HUGE_AF = MetricProfile(Family.ASYMPTOTICALLY_FLAT, epsilon=1.35e154)
REAL_RATIOS = MetricProfile.ratios


def _squared_den_ratios(self, r):
    """MetricProfile.ratios with the AF s3 divided by den**2 alone, as it once was."""
    s1, s2, _ = REAL_RATIOS(self, r)
    phi1, rp, rpp = self.phi1_parts(r)
    return s1, s2, (2.0 * rp + rpp) / (1.0 + phi1) ** 2


def test_huge_amplitude_ratio_s3_does_not_overflow():
    """At eps = 1.35e154, (1 + phi1)^2 overflows on the far grid while 1 + phi1
    is finite: s3 = r^3 phi''/phi^2 stays finite and right there, with no
    warning, and every s3 whose square is finite keeps the bits of dividing
    by it."""
    r = DEFAULT_SCAN_POLICY.grid()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, s3 = HUGE_AF.ratios(r)
    phi1, rp, rpp = HUGE_AF.phi1_parts(r)
    den, num = 1.0 + phi1, 2.0 * rp + rpp
    with np.errstate(over="ignore"):
        square = den**2
    fits = np.isfinite(square)
    assert fits.any() and not fits.all()
    assert np.all(np.isfinite(s3))
    assert np.array_equal(s3[fits], num[fits] / square[fits])
    # in scaled variables nothing overflows: s3 (den 2^-600)^2 = num 2^-600 2^-600
    scale = 2.0**-600
    assert np.allclose(s3 * (den * scale) ** 2, num * scale * scale, rtol=1e-14, atol=0.0)


def test_check_metric_at_a_huge_amplitude_warns_no_overflow(tmp_path, monkeypatch):
    """check-metric at eps = 1.35e154 runs without a RuntimeWarning, and at
    eps = 0.01 writes the bytes of s3 divided by den**2 alone."""
    def check_metric(eps, out):
        cfg = tmp_path / f"{out}.cfg"
        cfg.write_text(f"profile.family = asymptotically_flat\nprofile.epsilon = {eps!r}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["check-metric", "--config", str(cfg),
                             "--out", str(tmp_path / out)]) == 0
        return hashlib.sha256((tmp_path / out / "check_metric.json").read_bytes()).hexdigest()

    check_metric(1.35e154, "huge")
    kept = check_metric(0.01, "small")
    monkeypatch.setattr(MetricProfile, "ratios", _squared_den_ratios)
    assert check_metric(0.01, "former") == kept


def test_check_A2_flat_passes():
    verdict = check_A2(FLAT, 1.0)
    assert verdict.passed
    assert verdict.threshold == pytest.approx(0.125)
    assert verdict.achieved == 0.0


def test_check_A2_sinh_unsupported():
    with pytest.raises(UnsupportedFamilyError):
        check_A2(SINH, 1.0)


def test_check_A2_large_amplitude_fails():
    # eps = 0.2 gives max(A, B) ~ 0.435 > 1/8 (independent oracle)
    prof = MetricProfile(Family.ASYMPTOTICALLY_FLAT, epsilon=0.2)
    verdict = check_A2(prof, 1.0)
    assert not verdict.passed
    assert verdict.threshold == pytest.approx(min(0.25, 0.125))
    assert verdict.achieved > 0.125


def test_check_A2_threshold_cases():
    assert check_A2(AF001, 2.0).threshold == 1.0
    assert check_A2(AF001, 0.75).threshold == pytest.approx(0.25 + 0.75**2 - 0.75)



def test_check_A2_hypothesis_gate():
    with pytest.raises(HypothesisViolationError):
        check_A2(AF001, 0.5)
