"""Warped factors phi(r) and their smallness constants.

The metric on the spatial slice is dr^2 + phi(r)^2 d(omega)^2.  Four closed
families are supported; derivatives are hand-coded so that downstream
admissibility functionals see exact phi, phi', phi'' rather than numerical
differentiation noise.  Flat is the asymptotically flat form with phi1 = 0
exactly, and is evaluated through it.

Families
--------
flat                 phi(r) = r,  phi1 = 0
asymptotically_flat  phi(r) = r (1 + phi1(r)),  phi1 = eps r^a / (1+r^2)^(b/2)
sinh                 phi(r) = sinh r
polynomial           phi(r) = r + r^2 + ... + r^p

The scan reads each profile through :meth:`MetricProfile.ratios` (and, for
the explicit condition, ``phi1_parts``), written in quantities bounded by
construction, so one formula per family holds on the whole half-line with
no intermediate that overflows, at any amplitude: asymptotically flat in
t = r^2/(1+r^2) and u = 1/(1+r^2), sinh through e^-r, and the polynomial by
Horner in min(r, 1/r).  The flat / asymptotically flat limits at infinity
are the same formulas at r = inf, where x = min(r, 1/r) = 0 makes them
exact.

The smallness constants A_phi, B_phi of a flat / asymptotically flat
profile are the suprema of the three functionals of :func:`_phi1_terms`,
scanned as one group of :func:`warpdirac.scan.scan_infima` on
``phi1_parts``; :func:`check_A2` tests them against the spectral gap.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, HypothesisViolationError, UnsupportedFamilyError
from .scan import DEFAULT_SCAN_POLICY, InfimumScanPolicy, scan_infima, scan_supremum

__all__ = ["Family", "MetricProfile", "ProfileConstants", "A2Verdict",
           "sigma_log_derivative_bound", "profile_constants", "check_A2"]

MAX_POLY_DEGREE = 20  # widest accepted degree; the scan's ratios are bounded at any degree
MAX_AF_EXPONENT = 12


class Family(enum.Enum):
    FLAT = "flat"
    ASYMPTOTICALLY_FLAT = "asymptotically_flat"
    SINH = "sinh"
    POLYNOMIAL = "polynomial"


@dataclass(frozen=True)
class MetricProfile:
    """Immutable description of one warped factor.

    ``epsilon``, ``alpha``, ``beta`` only apply to the asymptotically flat
    family, ``degree`` only to the polynomial one.  ``n`` is the spatial
    dimension of the warped product.  The field defaults are also those of
    a run configuration.
    """

    family: Family
    n: int = 3
    epsilon: float = 0.01
    alpha: int = 1
    beta: int = 1
    degree: int = 3

    def __post_init__(self):
        for name in ("n", "alpha", "beta", "degree"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ConfigurationError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n < 3:
            raise ConfigurationError(f"dimension n must be >= 3, got {self.n}")
        if self.family is Family.ASYMPTOTICALLY_FLAT:
            if not 0 <= self.epsilon < np.inf:
                raise ConfigurationError(
                    f"amplitude epsilon must be finite and >= 0, got {self.epsilon}")
            if not (1 <= self.alpha <= self.beta):
                raise ConfigurationError(
                    f"exponents must satisfy 1 <= alpha <= beta, got "
                    f"alpha={self.alpha}, beta={self.beta}")
            if self.beta > MAX_AF_EXPONENT:
                raise ConfigurationError(f"beta must be <= {MAX_AF_EXPONENT}")
        if self.family is Family.POLYNOMIAL and not (2 <= self.degree <= MAX_POLY_DEGREE):
            raise ConfigurationError(
                f"polynomial degree must be in [2, {MAX_POLY_DEGREE}], got {self.degree}")

    # -- phi1 decomposition (flat / asymptotically flat only) ---------------

    def _phi1_factors(self, r):
        """(phi1, g, c) with r phi1' = phi1 g and r^2 phi1'' = phi1 c, elementwise.

        With x = min(r, 1/r), t = r^2/(1+r^2) and u = 1/(1+r^2) are x^2 v and
        v = 1/(1+x^2) in some order, so no factor exceeds 1 and none
        overflows: phi1 = eps t^(a/2) u^((b-a)/2) is eps v^(b/2) times x^a
        (r <= 1) or x^(b-a) (r > 1), g = a u + (a-b) t and
        c = g (g - 1) - 2 b t u, with g - 1 = (a-1) u + (a-b-1) t.  All three
        are exact at r = 0 (t = 0, u = 1) and at r = inf (t = 1, u = 0).
        Flat is phi1 = 0 with exact zeros.
        """
        if self.family is Family.FLAT:
            z = np.zeros_like(r)
            return z, z, z
        if self.family is not Family.ASYMPTOTICALLY_FLAT:
            raise UnsupportedFamilyError(
                f"{self.family.value} profile has no phi1 decomposition")
        a, b = self.alpha, self.beta
        big = r > 1.0
        x = np.divide(1.0, r, out=r.copy(), where=big)
        v = 1.0 / (1.0 + x * x)
        x2v = x * x * v
        t, u = np.where(big, v, x2v), np.where(big, x2v, v)
        phi1 = self.epsilon * np.where(big, x ** (b - a), x**a) * v ** (b / 2.0)
        g = a * u + (a - b) * t
        return phi1, g, g * ((a - 1) * u + (a - b - 1) * t) - 2.0 * b * t * u

    def phi1_parts(self, r):
        """(phi1, r phi1', r^2 phi1'') elementwise, finite on all of [0, inf]."""
        phi1, g, c = self._phi1_factors(np.asarray(r, dtype=float))
        return phi1, phi1 * g, phi1 * c

    # -- direct evaluation ---------------------------------------------------

    def phi_dphi_d2phi(self, r):
        """(phi, phi', phi'') elementwise; exact limits at r = 0."""
        r = np.asarray(r, dtype=float)
        if self.family is Family.SINH:
            with np.errstate(over="ignore"):  # inf past r ~ 710, correctly rounded
                return np.sinh(r), np.cosh(r), np.sinh(r)
        if self.family is Family.POLYNOMIAL:
            p = self.degree
            ks = np.arange(1, p + 1)
            phi = sum(r**k for k in ks)
            dphi = sum(k * r ** (k - 1) for k in ks)
            d2phi = sum(k * (k - 1) * r ** (k - 2) for k in ks if k >= 2)
            return phi, dphi, d2phi
        phi1, rp, rpp = self.phi1_parts(r)
        phi = r * (1.0 + phi1)
        dphi = 1.0 + phi1 + rp
        d2phi = np.where(r > 0.0, (2.0 * rp + rpp) / np.where(r > 0.0, r, 1.0), 0.0)
        # phi''(0) = 2 phi1'(0), nonzero only for alpha == 1; flat keeps an unused epsilon
        if self.family is Family.ASYMPTOTICALLY_FLAT and self.alpha == 1:
            d2phi = np.where(r == 0.0, 2.0 * self.epsilon, d2phi)
        return phi, dphi, d2phi

    def ratios(self, r):
        """Stable ratios (r/phi, r phi'/phi, r^3 phi''/phi^2) for r > 0.

        Finite and warning-free for every r up to inf and every amplitude,
        also where phi itself overflows (sinh beyond r ~ 710): r / sinh r
        through e^-r, the polynomial's sums by Horner in min(r, 1/r), and the
        asymptotically flat ratios from the bounded factors of
        :meth:`_phi1_factors` and phi1 / (1 + phi1) < 1.
        """
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0.0):
            raise ValueError("ratios need r > 0; use the analytic limits at 0")
        if self.family is Family.SINH:
            # r / sinh r = 2 r e^-r / (1 - e^-2r), and 1 - e^-2r = -expm1(-r) (1 + e^-r)
            e = np.exp(-r)
            s1 = r * (e + e) / (-np.expm1(-r) * (1.0 + e))
            return s1, r / np.tanh(r), s1 * r * r
        if self.family is Family.POLYNOMIAL:
            # phi/r, phi' and r phi'' are polynomials in z = r; beyond r = 1, divided
            # by r^(p-1), in z = 1/r with the orders k reversed (Horner in z <= 1)
            p = self.degree
            k = np.arange(p, 0.0, -1.0)  # the orders of the terms, from that of z^(p-1) down
            out = np.empty((3,) + r.shape)
            big = r > 1.0
            for part, z, ks, e in ((~big, r[~big], k, 0), (big, 1.0 / r[big], k[::-1], p - 1)):
                g, dphi, rpp = (np.polyval(c, z) for c in (np.ones(p), ks, ks * (ks - 1.0)))
                scale = z**e
                out[:, part] = scale / g, dphi / g, rpp * scale / g**2
            return tuple(out)
        return self._phi1_ratios(r)

    def _phi1_ratios(self, r):
        """:meth:`ratios` of a flat / asymptotically flat profile, also at r = inf.

        :meth:`ratios_at_infinity` reads the limits here, so that every call of
        :meth:`ratios` is an evaluation on the scan range.
        """
        phi1, g, c = self._phi1_factors(r)
        s1 = 1.0 / (1.0 + phi1)
        h = phi1 * s1  # phi1 / (1 + phi1), in [0, 1)
        return s1, 1.0 + h * g, h * s1 * (g + g + c)

    def ratios_at_infinity(self) -> tuple:
        """Limits of :meth:`ratios` at r -> infinity, finite for every family.

        For the flat / asymptotically flat families they are the ratios at
        r = inf, exact there: (1/(1+L), 1, 0) with L = lim phi1, eps when
        alpha == beta and 0 otherwise.  On sinh and polynomial growth
        r/phi and r^3 phi''/phi^2 tend to 0, but r phi'/phi does not: it
        grows like r on sinh and tends to the degree on a polynomial.  The
        0 that stands in for it is exact where the limits are used, in the
        scaled parts of :mod:`warpdirac.admissibility`: each multiplies it
        by r/phi or r^3 phi''/phi^2.
        """
        if self.family in (Family.SINH, Family.POLYNOMIAL):
            return 0.0, 0.0, 0.0
        return tuple(float(x) for x in self._phi1_ratios(np.array(np.inf)))


@dataclass(frozen=True)
class ProfileConstants:
    """Smallness constants of the phi1 decomposition.

    a_phi  = sup |phi1 + r phi1'|
    b_phi  = sup |r phi1' + (1+phi1)(phi1 + r phi1')|
             + sup |2 r^2 (phi1')^2 + (1+phi1) r^2 phi1''|
    c_phi  = sup |sigma'/sigma| = sup |phi1' / (1+phi1)|
    """

    a_phi: float
    b_phi: float
    c_phi: float
    arg_a: float = 0.0
    arg_b1: float = 0.0
    arg_b2: float = 0.0


@dataclass(frozen=True)
class A2Verdict:
    """The A2 smallness test at the spectral gap mu0.

    ``delta_floor`` is the lower bound on delta_pm over all modes with
    |mu| >= mu0 that a passed test guarantees: 1/4 when mu0 >= 2, otherwise
    ``threshold - achieved``.
    """

    passed: bool
    threshold: float
    achieved: float
    mu0: float
    delta_floor: float
    constants: ProfileConstants


def sigma_log_derivative_bound(profile: MetricProfile,
                               scan: InfimumScanPolicy = DEFAULT_SCAN_POLICY) -> float:
    """sup over r of |sigma'/sigma| = |1/r - phi'/phi|, by extremum scan.

    sigma = r/phi; this is the constant entering the weighted/flat Sobolev
    norm equivalence, finite for every supported family.
    """

    def f(r):
        _, s2, _ = profile.ratios(r)
        return np.abs((1.0 - s2) / r)

    _, _, d2_at_0 = profile.phi_dphi_d2phi(np.array([0.0]))
    at_zero = abs(0.5 * float(d2_at_0[0]))
    at_inf = 1.0 if profile.family is Family.SINH else 0.0
    return scan_supremum(f, scan, limit_at_zero=at_zero,
                         limit_at_infinity=at_inf).value


def _phi1_terms(parts) -> tuple:
    """The negated functionals behind A_phi and B_phi's two suprema, from phi1_parts."""
    phi1, rp, rpp = parts
    return (-np.abs(phi1 + rp), -np.abs(rp + (1.0 + phi1) * (phi1 + rp)),
            -np.abs(2.0 * rp**2 + (1.0 + phi1) * rpp))


def profile_constants(profile: MetricProfile,
                      scan: InfimumScanPolicy = DEFAULT_SCAN_POLICY) -> ProfileConstants:
    """Scan the A_phi, B_phi, c_phi suprema for a flat / asymptotically flat profile.

    The three phi1 suprema are the infima of the terms of :func:`_phi1_terms`,
    scanned as one group (:func:`warpdirac.scan.scan_infima`): ``phi1_parts``
    is the scan's ``prepare``, one call per grid block and per golden-section
    step.  Their values and witnesses are those of one
    :func:`warpdirac.scan.scan_supremum` per functional, bit for bit.
    Families without a phi1 decomposition raise UnsupportedFamilyError.
    """
    # each term's limits are its values at r = 0 and r = inf, where phi1_parts is exact
    ends = _phi1_terms(profile.phi1_parts(np.array([0.0, np.inf])))
    limits = [(float(lo), float(hi)) for lo, hi in ends]
    (infima,) = scan_infima(scan, [limits], profile.phi1_parts,
                            lambda g, parts: _phi1_terms(parts))
    sup_a, sup_b1, sup_b2 = (t.negated() for t in infima)
    return ProfileConstants(
        a_phi=sup_a.value,
        b_phi=sup_b1.value + sup_b2.value,
        c_phi=sigma_log_derivative_bound(profile, scan),
        arg_a=sup_a.arg_r,
        arg_b1=sup_b1.arg_r,
        arg_b2=sup_b2.arg_r,
    )


def check_A2(profile: MetricProfile, mu0: float,
             scan: InfimumScanPolicy = DEFAULT_SCAN_POLICY) -> A2Verdict:
    """Smallness test: max(A_phi, B_phi) against the mu0-dependent threshold.

    The bound is 1 for mu0 >= 2 (inclusive), where the floor on delta_pm
    is the full 1/4, and the strict bound min(1/4 + mu0^2 - mu0, 1/8)
    otherwise, where the floor is what the achieved value leaves of it.
    """
    if not mu0 > 0.5:
        raise HypothesisViolationError(
            f"spectral gap hypothesis needs mu0 > 1/2, got {mu0}")
    consts = profile_constants(profile, scan)
    achieved = max(consts.a_phi, consts.b_phi)
    if mu0 >= 2.0:
        threshold, floor = 1.0, 0.25
        passed = achieved <= threshold
    else:
        threshold = min(0.25 + mu0 * mu0 - mu0, 0.125)
        passed = achieved < threshold
        floor = threshold - achieved
    return A2Verdict(passed=passed, threshold=threshold, achieved=achieved,
                     mu0=mu0, delta_floor=floor, constants=consts)
