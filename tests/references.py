"""Independent second evaluations that tests compare the package against.

No command runs these: ``delta_c`` scans the generic-channel form of the
Hardy infima that :func:`warpdirac.check_admissible` reads from its table,
``kg_crosscheck`` checks a Dirac flow against the Klein-Gordon form of the
mode (acceptance criterion 8), and ``laplace_eigenvalue_check`` checks the
sphere's degree bookkeeping against the flat Laplacian (criterion 11).
``full_grid_check_admissible``, ``whole_block_band_forms`` and
``stacked_norm_equivalence_check`` are the earlier forms of
:func:`warpdirac.check_admissible` (the profile evaluated on the whole scan
grid, each mode reading its block of it), of ``operators._band_forms`` (a
fresh N x K temporary per step) and of
:func:`warpdirac.norm_equivalence_check` (each trial's bump formed alone
by ``random_bump`` on the whole grid, the trials stacked into one
N x trials block), whose bits the streamed forms keep;
``whole_block_dst_calculus`` is the earlier DST-I
path of :class:`warpdirac.SobolevCalculus` (the whole block in one
transform, its odd extension built from a negated copy), whose bits the
column-blocked one keeps.  ``reference_phi1_parts`` and ``reference_ratios``
are the earlier profile formulas, in powers of r that overflow at large r
or large amplitudes, which the bounded formulas of
:class:`warpdirac.MetricProfile` match wherever these are finite.
"""

import math
from fractions import Fraction

import numpy as np

from warpdirac import (ConfigurationError, Family, ModeIndex, ModePotential, SpinorTrajectory,
                       assemble_kg, flat_reference_operator)
from warpdirac.admissibility import (_MINUS, _PHI, _SUP_TERM, AdmissibilityReport, Delta,
                                     _mode_terms, _parts, _parts_at_infinity, _parts_at_zero,
                                     _row_limits, _scan_grid)
from warpdirac.operators import (_band_forms, _ldl_pivots, _log_nodes, _resolvent_sum,
                                 weighted_laplacian_operator)
from warpdirac.scan import DEFAULT_SCAN_POLICY, InfimumScanPolicy, scan_infima, scan_infimum


def delta_c(pot: ModePotential, sign: int,
            scan: InfimumScanPolicy = DEFAULT_SCAN_POLICY) -> Delta:
    """Generic channel functional min[1/4, inf(c r^2 + (n-2)^2/4), inf(-r^3 c' - r^2 c + (n-2)^2/4)].

    Evaluated directly from the c_{+-} channel of ``pot``; agreement with
    the delta_+- of :func:`warpdirac.check_admissible` is an invariant, not
    an implementation shortcut.
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

    at_inf = _parts_at_infinity(pot.profile, pot.mu)

    def infimum(term):
        return scan_infimum(lambda r: term(_parts(pot.mu, pot.profile.ratios(r))), scan,
                            limit_at_zero=term(_parts_at_zero(pot.mu)),
                            limit_at_infinity=term(at_inf))

    return Delta.from_terms(0.25, infimum(term2), infimum(term3))


def kg_crosscheck(traj: SpinorTrajectory) -> float:
    """Residual of the second-order form along a uniformly sampled trajectory.

    max over interior times of || D_t^2 v_pm + K v_pm || / || v_pm || with
    the centered time second difference and K the matching Klein-Gordon
    operator, assembled on the trajectory's grid for its mode and mass
    (v_plus pairs with kg_minus).  O(dt^2) under refinement.
    """
    times = traj.times
    if len(times) < 3:
        raise ConfigurationError("need at least 3 time samples")
    dts = np.diff(times)
    dt = dts[0]
    if not np.allclose(dts, dt, rtol=1e-10, atol=1e-12):
        raise ConfigurationError("kg_crosscheck needs uniform time samples")
    worst = 0.0
    for block, sign in ((traj.plus, -1), (traj.minus, +1)):
        kg = assemble_kg(traj.profile, traj.mu, traj.m, sign, traj.grid)
        here = block[:, 1:-1]
        dtt = (block[:, 2:] - 2.0 * here + block[:, :-2]) / dt**2
        num = np.linalg.norm(dtt + kg.apply(here), axis=0)
        denom = np.linalg.norm(here, axis=0)
        keep = denom != 0.0
        worst = max(worst, float(np.max(num[keep] / denom[keep], initial=0.0)))
    return worst


def laplace_eigenvalue_check(mode: ModeIndex, component: str) -> tuple[Fraction, Fraction]:
    """(lhs, rhs) of the flat-Laplacian eigenvalue identity for one component.

    lhs is the product formula in mu; rhs is l (l + n - 2) at the
    component's degree.  The contract lhs == rhs holds exactly.
    """
    if component not in ("+", "-"):
        raise ConfigurationError("component must be '+' or '-'")
    mu, n = mode.mu, mode.n
    half = Fraction(n - 1, 2)
    if component == "+":
        lhs = (mu - half) * (mu + half - 1)
        deg = mode.degree_plus
    else:
        lhs = (mu + half) * (mu - half + 1)
        deg = mode.degree_minus
    rhs = Fraction(deg * (deg + n - 2))
    return lhs, rhs


def full_grid_check_admissible(profile, mus, scan=DEFAULT_SCAN_POLICY):
    """check_admissible with ``profile.ratios`` evaluated once on its whole scan
    grid, each group's terms reading their block of it, and the refinement
    steps evaluating the ratios inside ``terms``."""
    pots = [ModePotential(profile=profile, mu=mu) for mu in mus]
    if not pots:
        return []
    signed = list(dict.fromkeys(sign * pot.mu for pot in pots for sign in (1, -1)))
    mu_of = np.array(signed)
    grid = _scan_grid(profile, scan)
    r = grid.radii(0, grid.points)
    ratios = profile.ratios(r)

    def terms(g, radii):
        if np.ndim(g) == 0:  # a grid block: its radii are r[lo:lo + len(radii)]
            lo = int(np.searchsorted(r, radii[0]))
            return _mode_terms(_parts(signed[g], tuple(s[lo:lo + len(radii)] for s in ratios)))
        return _mode_terms(_parts(mu_of[g], profile.ratios(radii)))

    limits = {mu: _row_limits(profile, mu) for mu in signed}
    term = dict(zip(signed, scan_infima(grid, list(limits.values()), lambda radii: radii,
                                        terms)))

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


def random_bump(rng, grid):
    """Random smooth function supported well inside the grid: one to three
    Gaussians, each added in turn to zeros, and a fixed bump where they sum
    to a zero column."""
    r = grid.nodes
    out = np.zeros_like(r)
    for _ in range(rng.integers(1, 4)):
        c = rng.uniform(0.2 * grid.r_max, 0.6 * grid.r_max)
        w = rng.uniform(0.03 * grid.r_max, 0.08 * grid.r_max)
        out += rng.uniform(-1.0, 1.0) * np.exp(-((r - c) / w) ** 2)
    if np.linalg.norm(out) == 0.0:
        out += np.exp(-((r - 0.4 * grid.r_max) / (0.05 * grid.r_max)) ** 2)
    return out


def stacked_bumps(grid, trials, seed=0):
    """The N x trials block of ``random_bump`` columns drawn from one seeded generator."""
    rng = np.random.default_rng(seed)
    bumps = np.empty((grid.n_cells, trials))
    for k in range(trials):
        bumps[:, k] = random_bump(rng, grid)
    return bumps


def stacked_norm_equivalence_check(profile, exponents, trials, grid, seed=0):
    """norm_equivalence_check with the trials' bumps stacked into one N x trials block."""
    bumps = stacked_bumps(grid, trials, seed)
    weighted = _band_forms(weighted_laplacian_operator(profile, grid), bumps, exponents)
    flat = _band_forms(flat_reference_operator(profile.n, grid), bumps, exponents)
    out = []
    for q_phi, q_flat in zip(weighted, flat):
        ratio = np.sqrt(q_phi / q_flat)
        out.append((float(np.max(ratio, initial=0.0)),
                    float(np.max(1.0 / ratio, initial=0.0))))
    return out


def whole_block_band_forms(op, x, exponents):
    """operators._band_forms with (1 + A) x, x * x and (B x) * x each a fresh N x K array."""
    diffs = np.diff(x, axis=0)
    bx = np.empty_like(x)
    np.subtract(diffs[:-1], diffs[1:], out=bx[1:-1])
    bx[0], bx[-1] = x[0] - diffs[0], diffs[-1] + x[-1]
    del diffs
    bx *= 1.0 / op.grid.dr ** 2
    bx += (1.0 + op.potential)[:, None] * x
    forms = {0.0: np.sum(x * x, axis=0), 1.0: np.sum(bx * x, axis=0)}
    u = _log_nodes(op)
    y, z, acc = np.zeros((3, len(u), x.shape[1]))
    term = np.empty_like(acc)
    for i, (ratio, inv) in enumerate(_ldl_pivots(op, np.exp(u)[:, None])):
        y *= ratio
        y += bx[i]
        z *= ratio
        z += x[i]
        np.multiply(y, inv, out=term)
        term *= z
        acc += term
    for s in set(exponents) - set(forms):
        forms[s] = _resolvent_sum(u, s, np.exp(u * s) @ acc, forms[0.0], forms[1.0])
    return [forms[s] for s in exponents]


def reference_phi1_parts(profile, r):
    """MetricProfile.phi1_parts as powers of r and of w = 1 + r^2: it overflows
    where r^(a + 2) does, and huge amplitudes overflow r^2 phi1''."""
    r = np.asarray(r, dtype=float)
    if profile.family is Family.FLAT:
        z = np.zeros_like(r)
        return z, z.copy(), z.copy()
    eps, a, b = profile.epsilon, profile.alpha, profile.beta
    w = 1.0 + r * r
    phi1 = eps * r**a * w ** (-b / 2.0)
    # r phi1' = eps r^a w^(-b/2-1) (a + (a-b) r^2)
    s = a + (a - b) * r * r
    rp = eps * r**a * w ** (-b / 2.0 - 1.0) * s
    # r^2 phi1'' by the product rule; at a = 1 the first term is a zero with the
    # sign of the second, so 0.0 stands in for it bit for bit
    first = (a - 1.0) * eps * r**a * w ** (-b / 2.0 - 1.0) * s if a != 1 else 0.0
    rpp = (first
           - (b + 2.0) * eps * r ** (a + 2) * w ** (-b / 2.0 - 2.0) * s
           + 2.0 * (a - b) * eps * r ** (a + 2) * w ** (-b / 2.0 - 1.0))
    return phi1, rp, rpp


def reference_ratios(profile, r):
    """MetricProfile.ratios with sinh split at r = 30 into r / sinh r and
    2 r e^-r, the polynomial's power sums, and the asymptotically flat s3
    divided by den**2, or by den twice where den**2 overflows."""
    r = np.asarray(r, dtype=float)
    if profile.family is Family.SINH:
        s1 = np.empty_like(r)
        s3 = np.empty_like(r)
        small = r <= 30.0
        rs = r[small]
        s1[small] = rs / np.sinh(rs)
        s3[small] = rs**3 / np.sinh(rs)
        rl = r[~small]
        s1[~small] = 2.0 * rl * np.exp(-rl)
        s3[~small] = 2.0 * rl**3 * np.exp(-rl)
        s2 = r / np.tanh(r)
        return s1, s2, s3
    if profile.family is Family.POLYNOMIAL:
        p = profile.degree
        g = sum(r**k for k in range(p))            # phi / r
        dphi = sum(k * r ** (k - 1) for k in range(1, p + 1))
        rpp = sum(k * (k - 1) * r ** (k - 1) for k in range(2, p + 1))  # r phi''
        return 1.0 / g, dphi / g, rpp / g**2
    phi1, rp, rpp = reference_phi1_parts(profile, r)
    den = 1.0 + phi1
    s1 = 1.0 / den
    s2 = 1.0 + rp / den
    with np.errstate(over="ignore"):
        square = den**2
    num = 2.0 * rp + rpp
    s3 = np.where(np.isinf(square) & np.isfinite(den), num / den / den, num / square)
    return s1, s2, s3


def whole_block_dst_calculus(grid, block, s):
    """(1 + H0)^(s/2) of a real N x K block at n = 3, every column in one DST-I."""
    nn = grid.n_cells
    k = np.arange(1, nn + 1)
    w = (2.0 * np.sin(0.5 * np.pi * k / (nn + 1)) / grid.dr) ** 2
    powers = (1.0 + w)[:, None] ** (s / 2.0)

    def dst1(x):
        ext = np.zeros((2 * (nn + 1), x.shape[1]))
        ext[1:nn + 1] = x
        ext[nn + 2:] = -x[::-1]
        return -np.sqrt(0.5 / (nn + 1)) * np.fft.rfft(ext, axis=0)[1:nn + 1].imag

    return dst1(powers * dst1(block))
