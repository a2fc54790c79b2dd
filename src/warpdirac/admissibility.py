"""Mode potentials and the delta functionals gating the global estimates.

For an angular eigenvalue mu the radial reduction carries the potential
V = mu / phi.  Two derived quantities drive everything here:

* the Hardy-form infima

      delta_pm = min[ 1/4,
                      inf 1/4 + r^2 (V^2 +- V'),
                      inf 1/4 - r^3 (2VV' +- V'') - r^2 (V^2 +- V') ]

* the quadratic-weight variant built from W = V^2 - V' = mu (mu + phi')/phi^2

      delta_phi(mu) = min( 1, inf 4 r^2 W + 1, inf -4 r^2 W - 4 r^3 W' + 1 )

Each is a :class:`Delta`: min(cap, quadratic infimum, cubic infimum) with
both scanned infima, the first non-positive of which witnesses a failure.
The two are tied by the algebraic identity 4 r^2 W + 1 = 4 (1/4 + r^2 (V^2 - V'))
which is kept as a permanent regression test.  All infima are evaluated in
the scaled variables (r V, r^2 V', r^3 V'', r^3 W'), built from the bounded
profile ratios of :meth:`warpdirac.MetricProfile.ratios`, so none of them
overflows at any radius for |mu| up to about 1e153: a scan grid may reach
scan.r_max = 1e300 and beyond for every family, sinh included.  V is odd in
mu, so the + channel at mu is the - channel at -mu, and delta_+(mu) is
delta_-(-mu) bit for bit.

:func:`check_admissible` checks a whole sequence of modes in one pass over
the scan grid (:func:`warpdirac.scan.scan_infima`): block by block the
profile ratios are evaluated once, then each signed mu's scaled parts and
five functionals (:func:`_mode_terms`, the one place they are written), and
every golden-section refinement of the whole table steps together.  Its
values equal those of one :func:`warpdirac.scan.scan_infimum` per term of
:func:`_mode_terms`, with the limits of :func:`_row_limits`, bit for bit.
The grid is the scan policy's, widened for an asymptotically flat
amplitude eps > 1 (:func:`_scan_grid`), which moves the radii where phi1 is
of order 1 toward r = 0 and, for beta > alpha, toward r = inf.
The floor on delta_pm that the A2 smallness test guarantees is the
``delta_floor`` of :func:`warpdirac.profiles.check_A2`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import HypothesisViolationError
from .profiles import Family, MetricProfile
from .scan import DEFAULT_SCAN_POLICY, InfimumScanPolicy, ScanExtremum, scan_infima

__all__ = ["ModePotential", "Delta", "AdmissibilityReport", "check_admissible"]

@dataclass(frozen=True)
class ModePotential:
    """V = mu/phi and its derivative, for operator assembly on a grid.

    mu must satisfy the standing hypothesis |mu| > 1/2, under which the mode
    is limit-point at r = 0; the CLI's modes are refused the same way.
    """

    profile: MetricProfile
    mu: float

    def __post_init__(self):
        object.__setattr__(self, "mu", float(self.mu))
        if not abs(self.mu) > 0.5:
            raise HypothesisViolationError(
                f"angular eigenvalue mu={self.mu} needs |mu| > 1/2 "
                f"(self-adjointness hypothesis)")

    def V(self, r):
        phi, _, _ = self.profile.phi_dphi_d2phi(np.asarray(r, dtype=float))
        return self.mu / phi

    def V_prime(self, r):
        phi, dphi, _ = self.profile.phi_dphi_d2phi(np.asarray(r, dtype=float))
        # sinh: phi^2 overflows to inf from r ~ 355 on while phi is finite, and
        # dividing by phi twice keeps V' ~ -2 mu e^-r there; past r ~ 710 phi' is
        # inf too, and the nan of inf / inf is refused by the operator that
        # assembles the potential
        with np.errstate(over="ignore", invalid="ignore"):
            square = phi**2
            return np.where(np.isinf(square) & np.isfinite(phi),
                            -self.mu * (dphi / phi) / phi, -self.mu * dphi / square)


def _parts(mu, ratios):
    """(rV, r^2 V', r^3 V'', r^3 W') from the profile ratios, W = mu (mu + phi')/phi^2.

    ``mu`` may be an array.
    """
    s1, s2, s3 = ratios
    rv = mu * s1
    r2vp = -rv * s2
    mu_s3 = mu * s3
    bend = -2.0 * r2vp * s2  # 2 mu s1 s2^2, bounded where s2 = r coth r is not
    return rv, r2vp, bend - mu_s3, mu_s3 - 2.0 * rv**2 * s2 - bend


def _parts_at_zero(mu: float) -> tuple:
    """Limits of _parts as r -> 0+ (phi(0) = 0, phi'(0) = 1)."""
    return mu, -mu, 2.0 * mu, -2.0 * mu * (mu + 1.0)


def _parts_at_infinity(profile: MetricProfile, mu: float) -> tuple:
    return _parts(mu, profile.ratios_at_infinity())


# Terms of _mode_terms: the first of the (quadratic, cubic) pairs of delta_- and
# delta_phi, and the one behind sup |4 r^2 W|.
_MINUS, _PHI, _SUP_TERM = 0, 2, 4


def _mode_terms(parts) -> tuple:
    """The five infimum functionals of one signed mu, from its scaled parts.

    In order: 1/4 + r^2 (V^2 - V'), 1/4 - r^3 (2VV' - V'') - r^2 (V^2 - V'),
    4 r^2 W + 1, -4 r^2 W - 4 r^3 W' + 1 and -|4 r^2 W|.  _parts(-mu) negates
    rV, r^2 V' and r^3 V'' exactly, so the - rows at -mu are the + channel at mu.
    """
    rv, r2vp, r3vpp, r3wp = parts
    rv2 = rv**2
    w4 = 4.0 * (rv2 - r2vp)  # 4 r^2 W
    return ((0.25 + rv2) - r2vp, 0.25 - (2.0 * rv * r2vp - r3vpp) - (rv2 - r2vp),
            w4 + 1.0, -w4 - 4.0 * r3wp + 1.0, -np.abs(w4))


def _row_limits(profile: MetricProfile, mu: float) -> list:
    """(limit at r -> 0+, limit at r -> infinity) of each _mode_terms term.

    The limits are Python floats, whose square raises OverflowError past
    |rV| = 1.3e154 (rV = mu at r -> 0); that is refused as an OverflowError
    that names the mode.
    """
    try:
        return list(zip(_mode_terms(_parts_at_zero(mu)),
                        _mode_terms(_parts_at_infinity(profile, mu))))
    except OverflowError:
        raise OverflowError(f"the admissibility terms of mode mu={mu:g} overflow: "
                            f"(r V)^2 = mu^2 at r -> 0 is past the largest double") from None


def _scan_grid(profile: MetricProfile, scan: InfimumScanPolicy) -> np.ndarray:
    """The radii that :func:`check_admissible` scans: the policy grid, widened
    for an asymptotically flat amplitude eps > 1.

    The ratios, and so the terms, are functions of phi1 alone where
    phi1 ~ eps r^alpha (r -> 0) and phi1 ~ eps r^(alpha - beta) (r -> inf),
    and the scan adds their limits at 0 and inf.  A large eps moves what the
    terms do where phi1 is of order 1 (delta_phi fails near r = eps^(-1/alpha)
    for alpha = 1) out of [r_min, r_max], where the limits alone would stand
    for it.  So the grid runs from r_min eps^(-1/alpha) to, for beta > alpha,
    r_max eps^(1/(beta - alpha)), where phi1 is what it is at r_min and r_max
    for eps = 1, with the policy's number of points, from no lower than the
    smallest positive double to no higher than 1e308, whose power of ten the
    grid still forms.
    """
    if profile.family is Family.ASYMPTOTICALLY_FLAT and profile.epsilon > 1.0:
        a, b, eps = profile.alpha, profile.beta, profile.epsilon
        r_max = scan.r_max if b == a else scan.r_max * eps ** (1.0 / (b - a))
        scan = replace(scan, r_min=max(scan.r_min * eps ** (-1.0 / a), math.ulp(0.0)),
                       r_max=min(r_max, 1e308))
    return scan.grid()


@dataclass(frozen=True)
class Delta:
    """min(cap, inf of a quadratic term, inf of a cubic term), with both infima."""

    value: float
    quad_term: ScanExtremum
    cubic_term: ScanExtremum

    @classmethod
    def from_terms(cls, cap: float, quad: ScanExtremum, cubic: ScanExtremum) -> "Delta":
        return cls(min(cap, quad.value, cubic.value), quad, cubic)

    def violating_term(self) -> Optional[ScanExtremum]:
        """First non-positive term (quadratic checked before cubic), if any."""
        return next((t for t in (self.quad_term, self.cubic_term) if t.value <= 0.0), None)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the full sufficient-condition check for one mode.

    ``limit_at_infinity_ok`` says W -> 0 as r -> infinity: the exact limit of
    4 r^2 W + 1 there is finite.
    """

    mu: float
    family: str
    n: int
    delta_plus: float
    delta_minus: float
    delta_phi_mu: float
    delta_phi_neg_mu: float
    sup_4r2V: float
    limit_at_infinity_ok: bool
    admissible: bool
    witness_r: Optional[float] = None


def check_admissible(profile: MetricProfile, mus: Sequence[float],
                     scan: InfimumScanPolicy = DEFAULT_SCAN_POLICY
                     ) -> list[AdmissibilityReport]:
    """Full sufficient-condition report for each angular eigenvalue, in order.

    Mode mu needs delta_pm(mu), delta_phi(+-mu) and sup |4 r^2 W| at mu.
    All of these are read from one table with a group of five terms, those
    of :func:`_mode_terms`, for every signed mu in +-mus, so delta_+(mu) is
    read from the - terms of -mu.  One pass walks the grid of
    :func:`_scan_grid` block by block (:func:`warpdirac.scan.scan_infima`):
    ``profile.ratios`` is the scan's ``prepare``, once per block, and each
    signed mu's scaled parts and terms follow from it.  So the working set is
    the grid and the scan's one block buffer, however long the grid.  Every golden-section
    refinement of the table steps in lockstep with one ``profile.ratios``
    call per step.
    W -> 0 at infinity is read from the table's own limit of 4 r^2 W + 1
    there.  The values are those of one scan per functional of each mode,
    bit for bit.
    """
    pots = [ModePotential(profile=profile, mu=mu) for mu in mus]
    if not pots:
        return []
    signed = list(dict.fromkeys(sign * pot.mu for pot in pots for sign in (1, -1)))
    mu_of = np.array(signed)
    limits = {mu: _row_limits(profile, mu) for mu in signed}
    found = scan_infima(_scan_grid(profile, scan), list(limits.values()), profile.ratios,
                        lambda g, ratios: _mode_terms(_parts(mu_of[g], ratios)))
    term = dict(zip(signed, found))

    reports = []
    for pot in pots:
        mu = pot.mu
        plus, minus = (Delta.from_terms(0.25, *term[nu][_MINUS:_MINUS + 2])
                       for nu in (-mu, mu))
        dphi_pos, dphi_neg = (Delta.from_terms(1.0, *term[nu][_PHI:_PHI + 2])
                              for nu in (mu, -mu))
        sup = term[mu][_SUP_TERM].negated()
        sup_finite = math.isfinite(sup.value)
        decay_ok = math.isfinite(limits[mu][_PHI][1])
        admissible = (dphi_pos.value > 0.0 and dphi_neg.value > 0.0
                      and sup_finite and decay_ok)
        # an admissible mode has no violating term and a finite supremum
        violated = dphi_pos.violating_term() or dphi_neg.violating_term()
        witness = violated.arg_r if violated else (None if sup_finite else sup.arg_r)
        reports.append(AdmissibilityReport(
            mu=mu, family=profile.family.value, n=profile.n,
            delta_plus=plus.value, delta_minus=minus.value,
            delta_phi_mu=dphi_pos.value, delta_phi_neg_mu=dphi_neg.value,
            sup_4r2V=sup.value, limit_at_infinity_ok=decay_ok,
            admissible=admissible, witness_r=witness,
        ))
    return reports

