import math
import tracemalloc
import warnings
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpdirac import (ConfigurationError, Family, FlatBesselOracle,
                       HypothesisViolationError, MetricProfile, ModePotential,
                       RadialGrid, assemble_dirac, check_A2,
                       check_admissible, profile_constants, sphere_spectrum)
from warpdirac import admissibility
from warpdirac.admissibility import (_MINUS, _PHI, Delta, _mode_terms, _parts,
                                     _parts_at_infinity, _parts_at_zero, _row_limits)
from warpdirac.reporting import canonical_json
from warpdirac.scan import (BLOCK, DEFAULT_SCAN_POLICY, GROUPS, InfimumScanPolicy,
                            scan_infimum, scan_supremum)

from references import delta_c, full_grid_check_admissible

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
    (rep,) = check_admissible(FLAT, [mu])
    assert rep.delta_plus == pytest.approx(flat_delta_oracle(mu, +1), abs=1e-9)
    assert rep.delta_minus == pytest.approx(flat_delta_oracle(mu, -1), abs=1e-9)


def test_flat_deltas_are_one_quarter():
    for rep in check_admissible(FLAT, [float(mu) for mu in range(1, 9)]):
        assert rep.delta_plus == pytest.approx(0.25, abs=1e-6)
        assert rep.delta_minus == pytest.approx(0.25, abs=1e-6)


@pytest.mark.parametrize("mu", [1.0, 2.0, -1.0, -3.0])
def test_flat_delta_phi_matches_oracle(mu):
    (rep,) = check_admissible(FLAT, [mu])
    assert rep.delta_phi_mu == pytest.approx(flat_delta_phi_oracle(mu), abs=1e-9)


def test_mu_zero_rejected():
    with pytest.raises(ConfigurationError):
        ModePotential(profile=FLAT, mu=0.0)


@pytest.mark.parametrize("mu", [0.3, -0.3, 0.5, -0.5])
def test_modes_below_the_self_adjointness_hypothesis_are_refused(mu):
    """|mu| <= 1/2 is refused by the library as by the CLI (exit 4): no
    admissibility report, no operator, no oracle flow.  0.55 is still a mode."""
    for build in (lambda: ModePotential(profile=FLAT, mu=mu),
                  lambda: check_admissible(FLAT, [2.0, mu]),
                  lambda: assemble_dirac(FLAT, mu, 0.0, RadialGrid(40.0, 64)),
                  lambda: FlatBesselOracle(mu, 0.0, 3, RadialGrid(40.0, 64))):
        with pytest.raises(HypothesisViolationError, match="1/2") as err:
            build()
        assert err.value.exit_code == 4
    assert ModePotential(profile=FLAT, mu=math.copysign(0.55, mu)).mu == math.copysign(0.55, mu)


def test_flat_channel_potentials():
    # V^2 +- V' = (mu^2 -+ mu)/r^2 for phi = r
    pot = ModePotential(profile=FLAT, mu=2.0)
    r = np.geomspace(0.1, 30.0, 50)
    assert np.allclose((pot.V(r) ** 2 + pot.V_prime(r)) * r**2, 2.0, rtol=1e-12)
    assert np.allclose((pot.V(r) ** 2 - pot.V_prime(r)) * r**2, 6.0, rtol=1e-12)


@pytest.mark.parametrize("mu", [1.0, -2.5])
def test_sinh_v_prime_stays_finite_where_phi_squared_overflows(mu):
    """From r ~ 355 to 710 sinh's phi^2 overflows while phi does not; V' there is
    -mu cosh/sinh^2 = -2 mu e^-r to rounding, not a signed zero.  Below 355 the
    value keeps the bits of -mu phi'/phi^2."""
    pot = ModePotential(profile=SINH, mu=mu)
    far = np.array([356.0, 400.0, 600.0, 700.0])
    near = np.geomspace(1e-3, 354.0, 200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pot.V_prime(far)
        kept = pot.V_prime(near)
    assert np.allclose(got, -2.0 * mu * np.exp(-far), rtol=1e-14, atol=0.0)
    phi, dphi, _ = SINH.phi_dphi_d2phi(near)
    assert np.array_equal(kept, -mu * dphi / phi**2)


@pytest.mark.parametrize("prof, radius", [
    (FLAT, 1e6), (AF001, 1e6),
    (MetricProfile(Family.ASYMPTOTICALLY_FLAT, epsilon=0.5, alpha=2, beta=4), 1e6),
    (POLY3, 1e6), (MetricProfile(Family.POLYNOMIAL, degree=20), 1e6), (SINH, 50.0)],
    ids=["flat", "af001", "af_2_4", "poly3", "poly20", "sinh"])
def test_ratio_limits_give_the_limits_of_the_scaled_parts(prof, radius):
    """The stand-in 0 for r phi'/phi on sinh and polynomials is exact in the scaled
    parts, since each multiplies it by r/phi or r^3 phi''/phi^2: far out they
    approach their limits at infinity."""
    r = np.array([radius])
    for mu in (1.0, -1.0, 2.5):
        near = [float(x[0]) for x in _parts(mu, prof.ratios(r))]
        assert near == pytest.approx(list(_parts_at_infinity(prof, mu)), rel=0.0, abs=1e-9)
    # r phi'/phi itself grows like r on sinh and tends to the degree on a polynomial
    s2 = float(prof.ratios(r)[1][0])
    if prof.family is Family.SINH:
        assert s2 == pytest.approx(radius)
    elif prof.family is Family.POLYNOMIAL:
        assert s2 == pytest.approx(prof.degree, rel=1e-5)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1.0, 2.0, -1.0, 3.5, -2.5]),
       st.floats(min_value=1e-3, max_value=300.0),  # direct phi^2 overflows past this for sinh
       st.sampled_from(["flat", "af", "sinh", "poly"]))
def test_quadratic_weight_identity(mu, r, tag):
    """4 (1/4 + r^2 (V^2 - V')) equals 4 r^2 mu(mu + phi')/phi^2 + 1."""
    prof = {"flat": FLAT, "af": AF001, "sinh": SINH, "poly": POLY3}[tag]
    rv, r2vp, _, _ = _parts(mu, prof.ratios(np.array([r])))
    lhs = 4.0 * (0.25 + rv[0] ** 2 - r2vp[0])
    phi, dphi, _ = prof.phi_dphi_d2phi(np.array([r]))
    rhs = 4.0 * r**2 * mu * (mu + dphi[0]) / phi[0] ** 2 + 1.0
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_delta_phi_equals_four_delta_minus():
    for prof in (FLAT, AF001):
        for rep in check_admissible(prof, [1.0, -1.0, 2.0, -3.0]):
            assert rep.delta_phi_mu == pytest.approx(4.0 * rep.delta_minus, rel=1e-9)


@pytest.mark.parametrize("prof", [FLAT, AF001], ids=["flat", "af"])
def test_delta_c_equals_delta_pm(prof):
    mus = [float(k) for k in range(1, 9)] + [-1.0, -2.0, -5.0, -8.0]
    for mu, rep in zip(mus, check_admissible(prof, mus), strict=True):
        pot = ModePotential(profile=prof, mu=mu)
        assert delta_c(pot, +1).value == pytest.approx(rep.delta_plus, abs=1e-9)
        assert delta_c(pot, -1).value == pytest.approx(rep.delta_minus, abs=1e-9)


def test_delta_c_zero_potential_shape():
    # c == 0 gives min(1/4, (n-2)^2/4, (n-2)^2/4) = 1/4 for n >= 3; realized
    # here through the flat mu = 1 plus channel whose potential vanishes.
    pot = ModePotential(profile=FLAT, mu=1.0)
    res = delta_c(pot, +1)
    assert res.value == pytest.approx(0.25, abs=1e-9)


def test_delta_c_refuses_a_sign_other_than_one():
    with pytest.raises(ConfigurationError, match="sign must be"):
        delta_c(ModePotential(profile=FLAT, mu=1.0), 0)


def test_no_modes_give_no_reports():
    assert check_admissible(AF001, []) == []


def test_report_mu_is_a_float():
    """A rational, NumPy or integer mu is stored as a float, so the report is writable."""
    reports = [check_admissible(FLAT, [mu])[0] for mu in (Fraction(1), np.float64(1.0), 1)]
    assert all(type(rep.mu) is float for rep in reports)
    assert reports[0] == reports[1] == reports[2] == check_admissible(FLAT, [1.0])[0]
    assert canonical_json(asdict(reports[0]))


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
    rv, r2vp, _, _ = _parts(-1.0, SINH.ratios(np.array([2.0])))
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
LARGE_AND_SMALL_MUS = [float(sign * k) for k in (1, 2, 1000, 1024) for sign in (1, -1)]


@pytest.mark.parametrize("r_max", [None, 1e2, 1e3, 1e8], ids=["default", "1e2", "1e3", "1e8"])
@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("family", [Family.FLAT, Family.ASYMPTOTICALLY_FLAT])
def test_flat_and_af_modes_are_admissible_at_every_scan_range(family, n, r_max):
    """W -> 0 comes from the exact limit at infinity, so neither |mu| up to the
    config's cap of 1024 nor a short scan range makes a mode non-admissible."""
    prof = MetricProfile(family, n, epsilon=0.01)
    scan = DEFAULT_SCAN_POLICY if r_max is None else InfimumScanPolicy(1e-6, r_max, 2000)
    for rep in check_admissible(prof, LARGE_AND_SMALL_MUS, scan):
        assert rep.admissible and rep.limit_at_infinity_ok, rep
        assert rep.witness_r is None


@pytest.mark.parametrize("prof", [SINH, POLY3], ids=["sinh", "poly"])
def test_growing_profiles_fail_with_a_witness_on_a_short_scan_range(prof):
    """At scan.r_max = 10 sinh and polynomial still fail with a finite witness,
    and W -> 0 at infinity holds for every mode."""
    scan = InfimumScanPolicy(DEFAULT_SCAN_POLICY.r_min, 10.0, DEFAULT_SCAN_POLICY.points)
    reports = check_admissible(prof, SIGNED_MUS, scan)
    assert not all(rep.admissible for rep in reports)
    for rep in reports:
        assert rep.limit_at_infinity_ok
        assert (rep.witness_r is None) == rep.admissible
        assert rep.witness_r is None or math.isfinite(rep.witness_r)


def _single_functional_report(prof, mu, scan):
    """Report fields from one scan per functional, as check_admissible once did per mode."""

    def single_delta(nu, cap, row):
        """min(cap, ...) of _mode_terms rows row and row + 1 at nu, each scanned alone."""
        limits = _row_limits(prof, nu)
        return Delta.from_terms(cap, *(
            scan_infimum(lambda r, t=t: _mode_terms(_parts(nu, prof.ratios(r)))[t], scan,
                         limit_at_zero=limits[t][0], limit_at_infinity=limits[t][1])
            for t in (row, row + 1)))

    plus, minus = (single_delta(nu, 0.25, _MINUS) for nu in (-mu, mu))
    pos, neg = (single_delta(nu, 1.0, _PHI) for nu in (mu, -mu))

    def r2w(parts):
        return parts[0] ** 2 - parts[1]

    sup = scan_supremum(lambda r: np.abs(4.0 * r2w(_parts(mu, prof.ratios(r)))), scan,
                        limit_at_zero=abs(4.0 * r2w(_parts_at_zero(mu))),
                        limit_at_infinity=abs(4.0 * r2w(_parts_at_infinity(prof, mu))))
    # W -> 0 at infinity: 4 r^2 W + 1 has a finite limit there
    decays = math.isfinite(4.0 * r2w(_parts_at_infinity(prof, mu)) + 1.0)
    sup_finite = math.isfinite(sup.value)
    admissible = pos.value > 0.0 and neg.value > 0.0 and sup_finite and decays
    witness = None
    if not admissible:
        terms = [d.violating_term() for d in (pos, neg)]
        terms = [t for t in terms if t is not None]
        witness = terms[0].arg_r if terms else (None if sup_finite else sup.arg_r)
    return dict(mu=mu, family=prof.family.value, n=3,
                delta_plus=plus.value, delta_minus=minus.value,
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
        assert asdict(rep) == _single_functional_report(prof, mu, scan), mu
    if tag in ("sinh", "poly"):
        assert any(rep.witness_r is not None for rep in reports)


@pytest.mark.parametrize("tag", sorted(PROFILES))
def test_mode_lists_not_closed_under_negation_keep_their_bits(tag):
    """A mode list that is not closed under mu -> -mu, or repeats a |mu|,
    gives every report the bits of the per-functional scans."""
    prof = PROFILES[tag]
    for mus in ([1.0, 2.0], [-3.0], [2.0, -2.0]):
        for mu, rep in zip(mus, check_admissible(prof, mus), strict=True):
            assert asdict(rep) == _single_functional_report(prof, mu, DEFAULT_SCAN_POLICY), mu


@pytest.mark.parametrize("tag", ["af", "sinh"])
def test_mode_lists_over_three_chunks_keep_their_bits(tag):
    """mu = 1..39 (78 signed modes) is scanned GROUPS signed modes at a time, and
    every report still has the bits of the per-functional scans."""
    prof = PROFILES[tag]
    scan = InfimumScanPolicy(1e-4, 1e4, 2000)
    mus = [float(k) for k in range(1, 40)]
    assert 2 * len(mus) > 2 * GROUPS
    for mu, rep in zip(mus, check_admissible(prof, mus, scan), strict=True):
        assert asdict(rep) == _single_functional_report(prof, mu, scan), mu


def test_admissibility_memory_does_not_grow_with_the_mode_count(monkeypatch):
    """+-1..+-64 is one table of 128 groups of five functionals, each block's
    terms written GROUPS groups at a time into the scan's one buffer, and the
    check's tracemalloc peak stays at most 16 MB (one buffer for all 128
    signed modes took 31.6 MB)."""
    calls, per_block = [], []
    real_scan = admissibility.scan_infima

    def counting(r, limits, prepare, terms):
        calls.append((len(limits), {len(group) for group in limits}))

        def prepare_block(radii):
            per_block.append(0)
            return prepare(radii)

        def counted_terms(g, shared):
            per_block[-1] += 1
            return terms(g, shared)

        return real_scan(r, limits, prepare_block, counted_terms)

    monkeypatch.setattr(admissibility, "scan_infima", counting)
    mus = [float(sign * k) for k in range(1, 65) for sign in (1, -1)]
    tracemalloc.start()
    try:
        reports = check_admissible(AF001, mus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reports) == len(mus) and all(rep.admissible for rep in reports)
    assert calls == [(128, {5})]
    blocks = -(-DEFAULT_SCAN_POLICY.points // BLOCK)
    assert per_block[:blocks] == [128] * blocks and set(per_block[blocks:]) == {1}
    assert 128 > GROUPS
    assert peak <= 16e6


@pytest.mark.parametrize("family", ["flat", "af", "sinh"])
def test_admissibility_memory_does_not_grow_with_the_scan_grid(family):
    """Nothing grows with scan.points: the grid is formed a block at a time,
    so the check's tracemalloc peak grows by at most 0.1 byte per added point
    from 100k to 400k points, and stays at most 1.5 MB at 400k (the whole
    grid took 8 bytes a point and 4.2 MB there, evaluating the profile on
    the whole grid 49 to 72 bytes a point, and np.geomspace 14.7)."""
    prof = {"flat": FLAT, "af": AF001, "sinh": SINH}[family]
    peaks = []
    for points in (100_000, 400_000):
        scan = InfimumScanPolicy(DEFAULT_SCAN_POLICY.r_min, DEFAULT_SCAN_POLICY.r_max, points)
        tracemalloc.start()
        try:
            check_admissible(prof, [1.0, 2.0], scan)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 300_000 <= 0.1
    assert peaks[1] <= 1.5e6


def _written_out_channels(rv, r2vp, r3vpp):
    """The Hardy-form (quadratic, cubic) pair of the + and then the - channel."""
    return [(0.25 + rv**2 + sign * r2vp,
             0.25 - (2.0 * rv * r2vp + sign * r3vpp) - (rv**2 + sign * r2vp))
            for sign in (1, -1)]


@pytest.mark.parametrize("tag", sorted(PROFILES))
def test_mode_terms_equal_the_written_out_functionals(tag):
    """The shared subexpressions of _parts and _mode_terms change no bit of any functional,
    and the - rows at -mu are the written-out + channel at mu, on the grid and in the limits."""
    prof = PROFILES[tag]
    ratios = prof.ratios(InfimumScanPolicy(1e-4, 1e4, 5000).radii(0, 5000))
    s1, s2, s3 = ratios
    for mu in SIGNED_MUS + [np.resize(SIGNED_MUS, len(s1))]:  # array mu as in refinements
        rv = mu * s1
        r2vp = -mu * s1 * s2
        r3vpp = 2.0 * (mu * s1 * s2) * s2 - mu * s3
        r3wp = mu * s3 - 2.0 * rv**2 * s2 - 2.0 * (mu * s1 * s2) * s2
        plus, minus = _written_out_channels(rv, r2vp, r3vpp)
        expected = (*minus, 4.0 * (rv**2 - r2vp) + 1.0,
                    -4.0 * (rv**2 - r2vp) - 4.0 * r3wp + 1.0, -np.abs(4.0 * (rv**2 - r2vp)))
        parts = admissibility._parts(mu, ratios)
        for got, want in zip((*parts, *admissibility._mode_terms(parts)),
                             (rv, r2vp, r3vpp, r3wp, *expected), strict=True):
            assert np.array_equal(got, want)
        mirrored = admissibility._mode_terms(admissibility._parts(-mu, ratios))
        for got, want in zip(mirrored[:2], plus, strict=True):
            assert np.array_equal(got, want)
    for mu in SIGNED_MUS:
        at_zero, at_inf = (_written_out_channels(*parts[:3])[0]
                           for parts in (_parts_at_zero(mu), _parts_at_infinity(prof, mu)))
        assert admissibility._row_limits(prof, -mu)[:2] == list(zip(at_zero, at_inf))
    for mu in (1.0, 2.5, 8.0):
        pos, neg = check_admissible(prof, [mu, -mu])
        assert pos.delta_plus == neg.delta_minus and neg.delta_plus == pos.delta_minus


def test_one_profile_evaluation_per_scan_grid(monkeypatch):
    """One ratios call per grid block, however many modes; refinements share
    their small calls across modes."""
    sizes = []
    real = MetricProfile.ratios

    def counting(self, r):
        sizes.append(np.size(r))
        return real(self, r)

    monkeypatch.setattr(MetricProfile, "ratios", counting)
    points = DEFAULT_SCAN_POLICY.points
    blocks = [BLOCK] * (points // BLOCK) + [points % BLOCK]

    def small_calls(mus):
        sizes.clear()
        check_admissible(AF001, mus)
        assert sizes[:len(blocks)] == blocks
        return len(sizes) - len(blocks)

    two = small_calls([1.0, -1.0])
    assert two > 2  # the refinement ran
    assert small_calls(SIGNED_MUS) == two
    many = [float(k) for k in range(1, 41)]
    assert 2 * len(many) > 2 * GROUPS
    assert small_calls(many) == two


def test_profile_is_never_evaluated_beyond_the_policy_range(monkeypatch):
    """Every profile evaluation lies in the policy's range, not at fixed radii up to 1e6."""
    scan = InfimumScanPolicy(1e-4, 1e4, 5000)
    largest = []
    real = MetricProfile.ratios

    def recording(self, r):
        largest.append(float(np.max(r)))
        return real(self, r)

    monkeypatch.setattr(MetricProfile, "ratios", recording)
    check_admissible(AF001, SIGNED_MUS, scan)
    assert largest and max(largest) <= scan.r_max


@pytest.mark.parametrize("prof", [FLAT, SINH, POLY3, AF001,
                                  MetricProfile(Family.ASYMPTOTICALLY_FLAT, epsilon=1.0)])
def test_up_to_unit_amplitude_the_scan_grid_is_the_policy_grid(prof):
    policy = InfimumScanPolicy(1e-4, 1e4, 5000)
    assert admissibility._scan_grid(prof, policy) == policy


@pytest.mark.parametrize("eps", [1e3, 1e300])
@pytest.mark.parametrize("alpha, beta", [(1, 1), (1, 2), (2, 4)])
def test_a_widened_scan_grid_is_geomspace_of_its_range(eps, alpha, beta):
    """The widened grid, formed a block at a time, is np.geomspace of its own
    range, bit for bit."""
    prof = MetricProfile(Family.ASYMPTOTICALLY_FLAT, epsilon=eps, alpha=alpha, beta=beta)
    grid = admissibility._scan_grid(prof, DEFAULT_SCAN_POLICY)
    assert grid.r_min < DEFAULT_SCAN_POLICY.r_min and grid.points == DEFAULT_SCAN_POLICY.points
    blocks = [grid.radii(lo, min(lo + BLOCK, grid.points)) for lo in range(0, grid.points, BLOCK)]
    want = np.geomspace(grid.r_min, grid.r_max, grid.points)
    assert np.concatenate(blocks).tobytes() == want.tobytes()


@pytest.mark.parametrize("eps", [1e10, 1e100, 1.35e154, 1e300])
def test_a_large_amplitude_begins_the_scan_grid_below_r_min(eps):
    """Near r = 0 the terms depend on phi1 ~ eps r (alpha = 1) alone, so
    delta_phi(-1) fails near r = 1/eps with -37/27 at every eps.  The grid
    begins at r_min / eps, with the policy's points, and finds the failure
    far below r_min, where the limit at 0 alone would read it as admissible."""
    prof = MetricProfile(Family.ASYMPTOTICALLY_FLAT, epsilon=eps)
    grid = admissibility._scan_grid(prof, DEFAULT_SCAN_POLICY)
    r = grid.radii(0, grid.points)
    assert r[0] == DEFAULT_SCAN_POLICY.r_min * eps**-1.0
    assert (r[-1], len(r)) == (DEFAULT_SCAN_POLICY.r_max, DEFAULT_SCAN_POLICY.points)
    (rep,) = check_admissible(prof, [1.0])
    assert not rep.admissible
    assert rep.delta_phi_neg_mu == pytest.approx(-37.0 / 27.0, rel=1e-12)
    assert rep.witness_r * eps == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("eps", [1e10, 1e100, 1e300])
def test_a_large_amplitude_with_beta_above_alpha_ends_the_scan_grid_beyond_r_max(eps):
    """At alpha = 1, beta = 2, phi1 ~ eps / r is of order 1 near r = eps, past
    r_max, where delta_minus and delta_phi(mu) have their infima.  The grid
    ends at r_max eps, and every delta of modes 1 and 2 is that of eps = 1e10
    read on a grid wide enough for both ends."""
    prof = MetricProfile(Family.ASYMPTOTICALLY_FLAT, epsilon=eps, alpha=1, beta=2)
    grid = admissibility._scan_grid(prof, DEFAULT_SCAN_POLICY)
    r = grid.radii(0, grid.points)
    assert (r[0], r[-1]) == (DEFAULT_SCAN_POLICY.r_min * eps**-1.0,
                            DEFAULT_SCAN_POLICY.r_max * eps)
    wide = InfimumScanPolicy(1e-20, 1e20, 400_000)
    reference = check_admissible(replace(prof, epsilon=1e10), [1.0, 2.0], wide)
    for rep, ref in zip(check_admissible(prof, [1.0, 2.0]), reference):
        assert not rep.admissible
        for key in ("delta_plus", "delta_minus", "delta_phi_mu", "delta_phi_neg_mu"):
            assert getattr(rep, key) == pytest.approx(getattr(ref, key), rel=1e-6), key
    assert reference[0].delta_minus < 0.2  # the default policy grid alone reads 1/4


def test_a_widened_scan_grid_stays_between_the_smallest_double_and_1e308():
    """r_min / eps underflows to 0 at r_min = 1e-30, eps = 1e300, and
    beta - alpha = 1 puts r_max eps past the largest double at eps = 1e303:
    the grid begins at the smallest positive double and ends at 1e308, with
    no overflow on the way, and still finds the failure near r = 1/eps and
    the infimum of delta_minus near r = eps."""
    policy = InfimumScanPolicy(1e-30, 1e6, 20_000)
    for eps, beta in ((1e300, 1), (1e303, 2)):
        prof = MetricProfile(Family.ASYMPTOTICALLY_FLAT, epsilon=eps, alpha=1, beta=beta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = admissibility._scan_grid(prof, policy)
            r = grid.radii(0, grid.points)
            (rep,) = check_admissible(prof, [1.0], policy)
        assert r[0] == math.ulp(0.0) and np.all(np.isfinite(r))
        assert r[-1] == (policy.r_max if beta == 1 else 1e308)
        assert rep.delta_phi_neg_mu == pytest.approx(-37.0 / 27.0, rel=1e-12)
    assert rep.delta_minus == pytest.approx(0.175926, rel=1e-5)


def test_blocked_scan_of_distinct_functionals(monkeypatch):
    """Mode terms only see one grid block; each signed mu scans its five functionals once."""
    expected = check_admissible(AF001, SIGNED_MUS)
    longest, counts, blocks = [0], [], []
    real_terms, real_parts = admissibility._mode_terms, admissibility._parts
    real_scan = admissibility.scan_infima

    def sized(parts):
        longest[0] = max(longest[0], np.size(parts[0]))
        return real_terms(parts)

    def recorded(mu, ratios):
        if np.ndim(mu) == 0 and np.ndim(ratios[0]) == 1:  # a grid block: no limit, no lanes
            blocks[-1].append(float(mu))
        return real_parts(mu, ratios)

    def counting(r, limits, prepare, terms):
        counts.append([len(group) for group in limits])

        def block_prepare(radii):
            blocks.append([])
            return prepare(radii)

        return real_scan(r, limits, block_prepare, terms)

    monkeypatch.setattr(admissibility, "_mode_terms", sized)
    monkeypatch.setattr(admissibility, "_parts", recorded)
    monkeypatch.setattr(admissibility, "scan_infima", counting)
    assert check_admissible(AF001, SIGNED_MUS) == expected
    assert 0 < longest[0] <= BLOCK
    assert counts == [[5] * 16]  # every (mu, term) of 16 signed modes
    grid_blocks = [b for b in blocks if b]
    assert len(grid_blocks) > 1 and all(b == SIGNED_MUS for b in grid_blocks)


STREAMED_PROFILES = {
    **{f"af{a}{b}_{eps:g}": MetricProfile(Family.ASYMPTOTICALLY_FLAT, epsilon=eps,
                                          alpha=a, beta=b)
       for a, b, eps in ((1, 1, 0.01), (2, 4, 0.5), (1, 3, 20.0))},
    "flat": FLAT, "sinh": SINH, "poly": POLY3,
}


def _hex_fields(report):
    return {key: value.hex() if isinstance(value, float) else value
            for key, value in asdict(report).items()}


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("tag", sorted(STREAMED_PROFILES))
def test_streamed_table_equals_the_full_grid_table(tag, n):
    """Streaming the grid block by block, with one profile evaluation per
    block and one refinement for the whole table, keeps every report field
    of the full-grid tables in float hex."""
    prof = replace(STREAMED_PROFILES[tag], n=n)
    got = check_admissible(prof, SIGNED_MUS)
    assert ([_hex_fields(rep) for rep in got]
            == [_hex_fields(rep) for rep in full_grid_check_admissible(prof, SIGNED_MUS)])


@pytest.mark.parametrize("tag", ["af11_0.01", "sinh"])
def test_streamed_table_over_three_chunks_equals_the_full_grid_tables(tag):
    """modes.mu_max = 40 at n = 3 is 80 signed modes, three fills of the
    scan's block buffer per grid block, against the full-grid table."""
    prof = STREAMED_PROFILES[tag]
    mus = [mode.mu for mode in sphere_spectrum(3, 40)]
    assert len(mus) > 2 * GROUPS
    got = check_admissible(prof, mus)
    assert ([_hex_fields(rep) for rep in got]
            == [_hex_fields(rep) for rep in full_grid_check_admissible(prof, mus)])


def test_report_serialization_fields():
    (rep,) = check_admissible(FLAT, [1.0])
    d = asdict(rep)
    for key in ("delta_plus", "delta_minus", "delta_phi_mu", "delta_phi_neg_mu",
                "sup_4r2V", "limit_at_infinity_ok", "admissible", "witness_r"):
        assert key in d


def test_delta_floor_values():
    consts = profile_constants(AF001)
    assert check_A2(AF001, 2.0).delta_floor == 0.25
    assert check_A2(AF001, 1.0).delta_floor == pytest.approx(
        0.125 - max(consts.a_phi, consts.b_phi))
    assert check_A2(FLAT, 1.0).delta_floor == pytest.approx(0.125)


@pytest.mark.parametrize("mu0", [0.75, 1.0, 1.5, 2.0, 3.0])
def test_delta_floor_substitution_example(mu0):
    """check_A2's own arithmetic: below mu0 = 2 the floor is what the achieved
    max(A_phi, B_phi) leaves of the threshold, from 2 on it is 1/4."""
    verdict = check_A2(MetricProfile(Family.ASYMPTOTICALLY_FLAT, epsilon=0.02), mu0)
    achieved = max(verdict.constants.a_phi, verdict.constants.b_phi)
    assert verdict.achieved == achieved
    if mu0 < 2.0:
        assert verdict.threshold == min(0.25 + mu0 * mu0 - mu0, 0.125)
        assert verdict.delta_floor == verdict.threshold - achieved
    else:
        assert (verdict.threshold, verdict.delta_floor) == (1.0, 0.25)


@pytest.mark.parametrize("eps", [0.001, 0.01])
def test_delta_floor_holds_on_sphere_modes(eps):
    prof = MetricProfile(Family.ASYMPTOTICALLY_FLAT, epsilon=eps)
    bound = check_A2(prof, 1.0).delta_floor
    quarter = check_A2(prof, 2.0).delta_floor
    assert quarter == 0.25
    mus = [float(sign * k) for k in range(1, 11) for sign in (1, -1)]
    for rep in check_admissible(prof, mus):
        assert rep.delta_plus >= bound - 1e-6
        assert rep.delta_minus >= bound - 1e-6
        if abs(rep.mu) >= 2:
            # modes above the mu0 = 2 gap keep the full quarter
            assert min(rep.delta_plus, rep.delta_minus) >= quarter - 1e-6
