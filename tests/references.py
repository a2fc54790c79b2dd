"""Independent second evaluations that tests compare the package against.

No command runs these: ``delta_c`` scans the generic-channel form of the
Hardy infima that :func:`warpdirac.check_admissible` reads from its table,
``kg_crosscheck`` checks a Dirac flow against the Klein-Gordon form of the
mode (acceptance criterion 8), and ``laplace_eigenvalue_check`` checks the
sphere's degree bookkeeping against the flat Laplacian (criterion 11).
"""

from fractions import Fraction

import numpy as np

from warpdirac import (ConfigurationError, ModeIndex, ModePotential, SpinorTrajectory,
                       assemble_kg)
from warpdirac.admissibility import Delta, _parts, _parts_at_infinity, _parts_at_zero
from warpdirac.scan import DEFAULT_SCAN_POLICY, InfimumScanPolicy, scan_infimum


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
