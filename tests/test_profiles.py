import json
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

from references import reference_phi1_parts, reference_ratios

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
    """ProfileConstants from one scan_supremum per phi1 functional, with its limits
    written out from lim phi1 at infinity."""
    lim = float(prof.phi1_parts(np.inf)[0])

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
        POLY3.phi1_parts(np.inf)


def test_every_family_has_finite_ratio_limits():
    for prof in (FLAT, SINH, AF001, POLY3, MetricProfile(Family.ASYMPTOTICALLY_FLAT,
                                                         epsilon=0.5, alpha=2, beta=2)):
        limits = prof.ratios_at_infinity()
        assert isinstance(limits, tuple) and len(limits) == 3
        assert all(math.isfinite(x) for x in limits)


@pytest.mark.parametrize("eps, alpha, beta", [(0.0, 1, 1), (0.01, 1, 1), (0.5, 2, 2),
                                              (0.5, 2, 4), (20.0, 1, 3), (1e300, 12, 12)])
def test_limits_at_infinity_are_the_bounded_formulas_at_infinity(eps, alpha, beta):
    """phi1_parts and ratios at r = inf are exact: phi1 = L, r phi1' = r^2 phi1'' = 0
    and ratios (1/(1+L), 1, +0.0), with L = eps when alpha == beta, else 0.
    These are the limits check_admissible takes, and profile_constants' limits
    are its terms at r = 0 and inf, bit for bit the hand-written ones they
    replace: (-0.0, -|L|), (-0.0, -|(1+L) L|) and (-0.0, -0.0)."""
    for prof in (FLAT, MetricProfile(Family.ASYMPTOTICALLY_FLAT, epsilon=eps,
                                     alpha=alpha, beta=beta)):
        lim = prof.epsilon if prof.family is not Family.FLAT and alpha == beta else 0.0
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            phi1, rp, rpp = (float(x) for x in prof.phi1_parts(np.inf))
            at_zero = [float(x) for x in prof.phi1_parts(0.0)]
            limits = prof.ratios_at_infinity()
        assert (phi1.hex(), rp, rpp, at_zero) == (lim.hex(), 0.0, 0.0, [0.0] * 3)
        assert [x.hex() for x in limits] == [x.hex() for x in (1.0 / (1.0 + lim), 1.0, 0.0)]
        assert [float(x).hex() for x in prof.ratios(np.inf)] == [x.hex() for x in limits]
        if lim < 1e150:  # (1 + L) L overflows beyond
            ends = profiles._phi1_terms(prof.phi1_parts(np.array([0.0, np.inf])))
            assert [[float(x).hex() for x in end] for end in ends] == [
                [x.hex() for x in pair] for pair in
                [(-0.0, -abs(lim)), (-0.0, -abs((1.0 + lim) * lim)), (-0.0, -0.0)]]


_RADII = st.one_of(st.floats(min_value=0.0, max_value=1e300),
                   st.floats(min_value=0.0, max_value=10.0),
                   st.sampled_from([0.0, 1.0, 30.0, 355.0, 710.0, 1e154, 1e300]))
_PROFILES = st.one_of(
    st.builds(lambda eps, a, d: MetricProfile(Family.ASYMPTOTICALLY_FLAT, epsilon=eps,
                                              alpha=a, beta=min(a + d, 12)),
              st.one_of(st.floats(min_value=0.0, max_value=1e300, allow_subnormal=False),
                        st.floats(min_value=0.0, max_value=10.0, allow_subnormal=False)),
              st.integers(1, 12), st.integers(0, 11)),
    st.just(SINH), st.just(FLAT),
    st.builds(lambda p: MetricProfile(Family.POLYNOMIAL, degree=p), st.integers(2, 20)))


def _reference_where_it_fits(formula, prof, r):
    """The earlier formula at r, or None where it overflows, divides by zero or
    loses digits to a subnormal intermediate."""
    try:
        with np.errstate(all="raise"):
            return formula(prof, np.array([r]))
    except FloatingPointError:
        return None


@settings(max_examples=400, deadline=None)
@given(_PROFILES, _RADII)
def test_bounded_formulas_are_finite_and_match_the_earlier_ones(prof, r):
    """On all of [0, 1e300], amplitudes up to 1e300, 1 <= alpha <= beta <= 12,
    sinh and degrees 2-20: phi1_parts and ratios raise no floating-point
    error and are finite, and wherever the earlier power formulas
    (tests/references.py) compute without overflow or underflow they agree
    within 1e-10 relative, or 1e-12 absolute near zeros.  phi1_parts is
    compared in units of the amplitude, since it scales with it; a subnormal
    amplitude has too few digits for that, so amplitudes are normal or 0."""
    checks = []
    if r > 0.0:
        checks.append((MetricProfile.ratios, reference_ratios, 1.0))
    if prof.family in (Family.FLAT, Family.ASYMPTOTICALLY_FLAT):
        checks.append((MetricProfile.phi1_parts, reference_phi1_parts, prof.epsilon or 1.0))
    for formula, reference, scale in checks:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = [np.asarray(x, dtype=float) for x in formula(prof, np.array([r]))]
        assert all(np.all(np.isfinite(x)) for x in got)
        want = _reference_where_it_fits(reference, prof, r)
        if want is not None:
            for new, old in zip(got, want):
                np.testing.assert_allclose(new / scale, old / scale, rtol=1e-10, atol=1e-12)


HUGE_AF = MetricProfile(Family.ASYMPTOTICALLY_FLAT, epsilon=1.35e154)


def test_huge_amplitude_ratio_s3_does_not_overflow():
    """At eps = 1.35e154, (1 + phi1)^2 overflows on the far grid while 1 + phi1
    is finite: s3 = r^3 phi''/phi^2 stays finite there, with no warning, and
    within 1e-10 of the earlier formula, which divided by den twice there."""
    r = DEFAULT_SCAN_POLICY.grid()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, s3 = HUGE_AF.ratios(r)
    den = 1.0 + HUGE_AF.phi1_parts(r)[0]
    with np.errstate(over="ignore"):
        assert not np.all(np.isfinite(den**2))
    assert np.all(np.isfinite(s3))
    np.testing.assert_allclose(s3, reference_ratios(HUGE_AF, r)[2], rtol=1e-10, atol=1e-12)


def _assert_close_records(new, old):
    """Equal keys, flags and strings; numbers within 1e-10 relative or 1e-12 absolute."""
    if isinstance(new, dict):
        assert new.keys() == old.keys()
        for key in new:
            _assert_close_records(new[key], old[key])
    elif isinstance(new, list):
        assert len(new) == len(old)
        for a, b in zip(new, old):
            _assert_close_records(a, b)
    elif isinstance(new, float) and isinstance(old, float):
        assert new == pytest.approx(old, rel=1e-10, abs=1e-12)
    else:
        assert new == old


def test_check_metric_at_a_huge_amplitude_warns_no_overflow(tmp_path, monkeypatch):
    """check-metric at eps = 1.35e154 runs without a RuntimeWarning and finds
    the failure of delta_phi near r = 1/eps (exit 3), and at eps = 0.01 writes
    within 1e-10 of what the earlier ratio formulas give."""
    def check_metric(eps, out, code=0):
        cfg = tmp_path / f"{out}.cfg"
        cfg.write_text(f"profile.family = asymptotically_flat\nprofile.epsilon = {eps!r}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["check-metric", "--config", str(cfg),
                             "--out", str(tmp_path / out)]) == code
        return json.loads((tmp_path / out / "check_metric.json").read_text())

    check_metric(1.35e154, "huge", code=3)
    kept = check_metric(0.01, "small")
    monkeypatch.setattr(MetricProfile, "ratios", reference_ratios)
    _assert_close_records(kept, check_metric(0.01, "former"))


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
