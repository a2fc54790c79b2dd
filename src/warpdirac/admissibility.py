"""Mode potentials and the delta functionals gating the global estimates.

For an angular eigenvalue mu the radial reduction carries the potential
V = mu / phi.  Two derived quantities drive everything here:

* the Hardy-form infima

      delta_pm = min[ 1/4,
                      inf 1/4 + r^2 (V^2 +- V'),
                      inf 1/4 - r^3 (2VV' +- V'') - r^2 (V^2 +- V') ]

* the quadratic-weight variant built from W = V^2 - V' = mu (mu + phi')/phi^2

      delta_phi(mu) = min( 1, inf 4 r^2 W + 1, inf -4 r^2 W - 4 r^3 W' + 1 )

The two are tied by the algebraic identity 4 r^2 W + 1 = 4 (1/4 + r^2 (V^2 - V'))
which is kept as a permanent regression test.  All infima are evaluated in
overflow-safe scaled variables (r V, r^2 V', r^3 V'', r^3 W') so the scan
grid can span [1e-6, 1e6] for every family including sinh.

:func:`check_admissible` checks a whole sequence of modes in one pass: the
profile is evaluated once on the scan grid, then block by block the scaled
parts of each signed mu and its functionals (:func:`_mode_terms`, the one
place they are written) are scanned together
(:func:`warpdirac.scan.scan_infima`), and every golden-section refinement
of every mode steps together.  Its values equal those of the
per-functional scans (:func:`delta_pm`, :func:`delta_phi`) bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .profiles import MetricProfile, ProfileConstants
from .scan import (DEFAULT_SCAN_POLICY, InfimumScanPolicy, ScanExtremum, scan_infima,
                   scan_infimum)

__all__ = ["ModePotential", "DeltaPair", "DeltaPhi", "DeltaC",
           "AdmissibilityReport", "delta_pm", "delta_phi", "delta_c",
           "check_admissible", "delta_lower_bound"]

_DECAY_TOL = 1e-6


@dataclass(frozen=True)
class ModePotential:
    """V = mu/phi together with its first two derivatives.

    The channel potentials are c_pm = -(n-1)(n-3)/(4 r^2) + V^2 +- V',
    with n = profile.n.
    """

    profile: MetricProfile
    mu: float

    def __post_init__(self):
        if self.mu == 0.0:
            raise ConfigurationError("angular eigenvalue mu must be nonzero")

    # direct values, fine for moderate r (operator assembly on a grid)
    def V(self, r):
        phi, _, _ = self.profile.phi_dphi_d2phi(np.asarray(r, dtype=float))
        return self.mu / phi

    def V_prime(self, r):
        phi, dphi, _ = self.profile.phi_dphi_d2phi(np.asarray(r, dtype=float))
        return -self.mu * dphi / phi**2

    def c_channel(self, r, sign: int):
        """c_+ (sign=+1) or c_- (sign=-1) at radii r > 0."""
        r = np.asarray(r, dtype=float)
        v, vp = self.V(r), self.V_prime(r)
        n = self.profile.n
        return -((n - 1) * (n - 3)) / (4.0 * r**2) + v**2 + sign * vp

    # scaled, overflow-safe combinations used by the scans
    def scaled_parts(self, r):
        """(rV, r^2 V', r^3 V'', r^3 W') with W = mu (mu + phi')/phi^2, r > 0."""
        return _parts(self.mu, self.profile.ratios(r))

    def scaled_parts_at_zero(self):
        """Limits of scaled_parts as r -> 0+ (phi(0)=0, phi'(0)=1)."""
        return _parts_at_zero(self.mu)

    def scaled_parts_at_infinity(self) -> Optional[tuple]:
        return _parts_at_infinity(self.profile, self.mu)


def _parts(mu, ratios):
    """(rV, r^2 V', r^3 V'', r^3 W') from the profile ratios; ``mu`` may be an array."""
    s1, s2, s3 = ratios
    rv = mu * s1
    mu_s3 = mu * s3
    bend = 2.0 * rv * s2**2  # 2 mu s1 s2^2
    return rv, -rv * s2, bend - mu_s3, mu_s3 - 2.0 * rv**2 * s2 - bend


def _parts_at_zero(mu: float) -> tuple:
    return mu, -mu, 2.0 * mu, -2.0 * mu * (mu + 1.0)


def _parts_at_infinity(profile: MetricProfile, mu: float) -> Optional[tuple]:
    lims = profile.ratios_at_infinity()
    return None if lims is None else _parts(mu, lims)


# Rows of _mode_terms: delta_pm's four terms, delta_phi's two, and the one
# behind sup |4 r^2 W|.
_PM_TERMS, _PHI_TERMS, _SUP_TERM = range(4), (4, 5), 6


def _mode_terms(parts) -> tuple:
    """The seven infimum functionals of one signed mu, from its scaled parts.

    In order: 1/4 + r^2 (V^2 +- V') and 1/4 - r^3 (2VV' +- V'') - r^2 (V^2 +- V')
    for + then -, 4 r^2 W + 1, -4 r^2 W - 4 r^3 W' + 1 and -|4 r^2 W|.
    """
    rv, r2vp, r3vpp, r3wp = parts
    rv2 = rv**2
    quarter = 0.25 + rv2
    cross = 2.0 * rv * r2vp
    w4 = 4.0 * (rv2 - r2vp)  # 4 r^2 W
    return (quarter + r2vp, 0.25 - (cross + r3vpp) - (rv2 + r2vp),
            quarter - r2vp, 0.25 - (cross - r3vpp) - (rv2 - r2vp),
            w4 + 1.0, -w4 - 4.0 * r3wp + 1.0, -np.abs(w4))


def _scan_term(pot: ModePotential, t: int, scan: InfimumScanPolicy) -> ScanExtremum:
    """Infimum of row t of :func:`_mode_terms` for one mode, scanned alone."""
    at_inf = pot.scaled_parts_at_infinity()
    return scan_infimum(
        lambda r: _mode_terms(pot.scaled_parts(r))[t], scan,
        limit_at_zero=_mode_terms(pot.scaled_parts_at_zero())[t],
        limit_at_infinity=None if at_inf is None else _mode_terms(at_inf)[t])


@dataclass(frozen=True)
class DeltaPair:
    """delta_+ and delta_- with the per-term infima that produced them."""

    delta_plus: float
    delta_minus: float
    plus_quadratic: ScanExtremum
    plus_cubic: ScanExtremum
    minus_quadratic: ScanExtremum
    minus_cubic: ScanExtremum

    @classmethod
    def from_terms(cls, pq: ScanExtremum, pc: ScanExtremum,
                   mq: ScanExtremum, mc: ScanExtremum) -> "DeltaPair":
        return cls(delta_plus=min(0.25, pq.value, pc.value),
                   delta_minus=min(0.25, mq.value, mc.value),
                   plus_quadratic=pq, plus_cubic=pc,
                   minus_quadratic=mq, minus_cubic=mc)


@dataclass(frozen=True)
class DeltaPhi:
    value: float
    quad_term: ScanExtremum
    cubic_term: ScanExtremum

    @classmethod
    def from_terms(cls, quad: ScanExtremum, cubic: ScanExtremum) -> "DeltaPhi":
        return cls(value=min(1.0, quad.value, cubic.value), quad_term=quad, cubic_term=cubic)

    def violating_term(self) -> Optional[ScanExtremum]:
        """First non-positive term (quadratic checked before cubic), if any."""
        if self.value > 0.0:
            return None
        for term in (self.quad_term, self.cubic_term):
            if term.value <= 0.0:
                return term
        return None  # pragma: no cover


@dataclass(frozen=True)
class DeltaC:
    value: float
    quad_term: ScanExtremum
    cubic_term: ScanExtremum


def delta_pm(pot: ModePotential,
             scan: InfimumScanPolicy = DEFAULT_SCAN_POLICY) -> DeltaPair:
    """Both Hardy-form infima for the +/- channels of one mode."""
    return DeltaPair.from_terms(*(_scan_term(pot, t, scan) for t in _PM_TERMS))


def delta_phi(profile: MetricProfile, mu: float,
              scan: InfimumScanPolicy = DEFAULT_SCAN_POLICY) -> DeltaPhi:
    """Quadratic-weight variant built on W = mu (mu + phi')/phi^2."""
    pot = ModePotential(profile=profile, mu=mu)
    return DeltaPhi.from_terms(*(_scan_term(pot, t, scan) for t in _PHI_TERMS))


def delta_c(pot: ModePotential, sign: int,
            scan: InfimumScanPolicy = DEFAULT_SCAN_POLICY) -> DeltaC:
    """Generic channel functional min[1/4, inf(c r^2 + (n-2)^2/4), inf(-r^3 c' - r^2 c + (n-2)^2/4)].

    Evaluated directly from the c_{+-} channel of ``pot``; agreement with
    :func:`delta_pm` is an invariant, not an implementation shortcut.
    """
    if sign not in (+1, -1):
        raise ConfigurationError("sign must be +1 or -1")
    n = pot.profile.n
    shift = (n - 2) ** 2 / 4.0
    corner = (n - 1) * (n - 3) / 4.0

    def r2c(parts):
        rv, r2vp, _, _ = parts
        return -corner + rv**2 + sign * r2vp

    def term2(parts):
        return r2c(parts) + shift

    def term3(parts):
        rv, r2vp, r3vpp, _ = parts
        r3cp = 2.0 * corner + 2.0 * rv * r2vp + sign * r3vpp
        return -r3cp - r2c(parts) + shift

    at_inf = pot.scaled_parts_at_infinity()

    def infimum(term):
        return scan_infimum(lambda r: term(pot.scaled_parts(r)), scan,
                            limit_at_zero=term(pot.scaled_parts_at_zero()),
                            limit_at_infinity=None if at_inf is None else term(at_inf))

    quad, cubic = infimum(term2), infimum(term3)
    return DeltaC(value=min(0.25, quad.value, cubic.value),
                  quad_term=quad, cubic_term=cubic)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the full sufficient-condition check for one mode."""

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

    def to_dict(self) -> dict:
        return asdict(self)


def _potential_decays(mu: float, probes: tuple, probe_ratios) -> bool:
    """Surrogate for lim_{r->inf} W = 0: monotone decay below 1e-6 at probes."""
    rv, r2vp, _, _ = _parts(mu, probe_ratios)
    vals = [abs(float(rv[k] ** 2 - r2vp[k])) / r**2 for k, r in enumerate(probes)]
    return vals[0] >= vals[1] >= vals[2] and vals[2] < _DECAY_TOL


def check_admissible(profile: MetricProfile, mus: Sequence[float],
                     scan: InfimumScanPolicy = DEFAULT_SCAN_POLICY
                     ) -> list[AdmissibilityReport]:
    """Full sufficient-condition report for each angular eigenvalue, in order.

    Mode mu needs delta_pm(mu), delta_phi(+-mu) and sup |4 r^2 W| at mu.
    All of these are scanned in one pass: ``profile.ratios`` once on the
    policy grid, then block by block the scaled parts of each signed mu and
    the :func:`_mode_terms` rows it needs (:func:`warpdirac.scan.scan_infima`);
    delta_phi(-mu) also serves mode -mu.  Every golden-section refinement
    steps in lockstep with one ``profile.ratios`` call per step.  The
    potential's decay is probed at the top of the policy range.  The values
    are those of :func:`delta_pm`, :func:`delta_phi` and a supremum scan per
    mode, bit for bit.
    """
    pots = [ModePotential(profile=profile, mu=mu) for mu in mus]
    if not pots:
        return []
    needed = {}  # signed mu -> the _mode_terms rows it needs
    for pot in pots:
        needed[pot.mu] = range(_SUP_TERM + 1)
        needed.setdefault(-pot.mu, _PHI_TERMS)
    jobs = [(mu, t) for mu, terms in needed.items() for t in terms]
    rows = {}  # signed mu -> (term, row) pairs to fill from its scaled parts
    for row, (mu, t) in enumerate(jobs):
        rows.setdefault(mu, []).append((t, row))
    r = scan.grid()
    ratios = profile.ratios(r)

    def fill(lo, hi, out):
        block = tuple(s[lo:hi] for s in ratios)
        for mu, terms in rows.items():
            values = _mode_terms(_parts(mu, block))
            for t, row in terms:
                out[row] = values[t]

    limits = []
    for mu, terms in needed.items():
        at_zero = _mode_terms(_parts_at_zero(mu))
        at_inf = _parts_at_infinity(profile, mu)
        at_inf = None if at_inf is None else _mode_terms(at_inf)
        limits += [(at_zero[t], None if at_inf is None else at_inf[t]) for t in terms]

    job_mu = np.array([mu for mu, _ in jobs], dtype=float)
    job_term = np.array([t for _, t in jobs])

    def evaluate(ids, radii):
        values = np.stack(_mode_terms(_parts(job_mu[ids], profile.ratios(radii))))
        return values[job_term[ids], np.arange(len(ids))]

    found = dict(zip(jobs, scan_infima(r, limits, fill, evaluate)))
    probes = (scan.r_max / 100, scan.r_max / 10, scan.r_max)
    probe_ratios = profile.ratios(np.array(probes))

    reports = []
    for pot in pots:
        mu = pot.mu
        pair = DeltaPair.from_terms(*(found[(mu, t)] for t in _PM_TERMS))
        dphi_pos = DeltaPhi.from_terms(*(found[(mu, t)] for t in _PHI_TERMS))
        dphi_neg = DeltaPhi.from_terms(*(found[(-mu, t)] for t in _PHI_TERMS))
        sup = found[(mu, _SUP_TERM)].negated()
        sup_finite = not sup.diverging and math.isfinite(sup.value)
        decay_ok = _potential_decays(mu, probes, probe_ratios)
        admissible = (dphi_pos.value > 0.0 and dphi_neg.value > 0.0
                      and sup_finite and decay_ok)

        witness = None
        if not admissible:
            for d in (dphi_pos, dphi_neg):
                t = d.violating_term()
                if t is not None:
                    witness = t.arg_r
                    break
            if witness is None and not sup_finite:
                witness = sup.arg_r

        reports.append(AdmissibilityReport(
            mu=mu, family=profile.family.value, n=profile.n,
            delta_plus=pair.delta_plus, delta_minus=pair.delta_minus,
            delta_phi_mu=dphi_pos.value, delta_phi_neg_mu=dphi_neg.value,
            sup_4r2V=sup.value, limit_at_infinity_ok=decay_ok,
            admissible=admissible, witness_r=witness,
        ))
    return reports


def delta_lower_bound(constants: ProfileConstants, mu0: float) -> float:
    """Guaranteed lower bound for delta_pm over all modes with |mu| >= mu0.

    1/4 when mu0 >= 2, otherwise min(1/4 + mu0^2 - mu0, 1/8) - max(A_phi, B_phi).
    """
    if not mu0 > 0.5:
        raise ConfigurationError(f"lower bound needs mu0 > 1/2, got {mu0}")
    if mu0 >= 2.0:
        return 0.25
    return min(0.25 + mu0 * mu0 - mu0, 0.125) - max(constants.a_phi, constants.b_phi)
