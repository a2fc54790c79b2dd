"""Angular Dirac spectrum bookkeeping on the round sphere.

Eigenvalues live in +-((n-1)/2 + k), k = 0, 1, ...; each eigenvalue carries
the spherical harmonic degrees of its two spinor components and the
dimension of its eigenspace on S^(n-1), 2^floor((n-1)/2) C(k + n - 2, k)
(Camporesi and Higuchi, J. Geom. Phys. 20 (1996) 1).  Everything here is
exact arithmetic on dyadic rationals; no floats enter the combinatorics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigurationError

__all__ = ["ModeIndex", "LPBand", "sphere_spectrum", "lp_band", "band_index"]


def _exact(value, name: str) -> Fraction:
    """``value`` as an exact Fraction; nan, inf and non-numbers are refused."""
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ConfigurationError(f"{name}={value!r} is not a rational number") from None


def _degrees(mu: Fraction, n: int) -> tuple[int, int]:
    """Harmonic degrees (plus component, minus component) for eigenvalue mu."""
    mu, half = Fraction(mu), Fraction(n - 1, 2)
    if mu > 0:
        dp, dm = mu - half, mu - half + 1
    else:
        dp, dm = -mu - half + 1, -mu - half
    if dp.denominator != 1 or dm.denominator != 1 or dp < 0 or dm < 0:
        raise ConfigurationError(f"mu={mu} is not in the sphere spectrum for n={n}")
    return int(dp), int(dm)


@dataclass(frozen=True)
class ModeIndex:
    """Dirac eigenvalue mu on S^(n-1); its degrees and multiplicity derive from (mu, n).

    ``mu`` is stored as the exact Fraction of the int, float or str given."""

    mu: Fraction
    n: int

    def __post_init__(self):
        object.__setattr__(self, "mu", _exact(self.mu, "mu"))
        if self.n < 3:
            raise ConfigurationError(f"dimension n must be >= 3, got {self.n}")
        _degrees(self.mu, self.n)  # raises unless mu is in the spectrum (0 never is)

    @property
    def abs_mu(self) -> Fraction:
        return abs(self.mu)

    @property
    def degree_plus(self) -> int:
        return _degrees(self.mu, self.n)[0]

    @property
    def degree_minus(self) -> int:
        return _degrees(self.mu, self.n)[1]

    @property
    def multiplicity(self) -> int:
        """Dimension of the eigenspace: 2^floor((n-1)/2) C(k + n - 2, k) at
        |mu| = (n-1)/2 + k, the same for both signs; 2|mu| when n = 3."""
        k = int(self.abs_mu - Fraction(self.n - 1, 2))
        return 2 ** ((self.n - 1) // 2) * math.comb(k + self.n - 2, k)


@dataclass(frozen=True)
class LPBand:
    """Dyadic eigenvalue band [a, b] matched to harmonic degrees [2^j, 2^(j+1))."""

    j: int
    a: Fraction
    b: Fraction


def sphere_spectrum(n: int, mu_max) -> list[ModeIndex]:
    """All modes with |mu| <= mu_max, both signs, ordered by mu."""
    if n < 3:
        raise ConfigurationError(f"dimension n must be >= 3, got {n}")
    mu_max = _exact(mu_max, "mu_max")  # exact for a float, so a cap below a mode leaves it out
    gap = Fraction(n - 1, 2)
    modes: list[ModeIndex] = []
    mu = gap
    while mu <= mu_max:
        for signed in (-mu, mu):
            modes.append(ModeIndex(signed, n))
        mu += 1
    modes.sort(key=lambda m: m.mu)
    return modes


def lp_band(n: int, j: int) -> LPBand:
    """Band j: a = (n-1)/2 + 2^j - 1, b = (n-1)/2 + 2^(j+1)."""
    if n < 3:
        raise ConfigurationError(f"dimension n must be >= 3, got {n}")
    if j < 0:
        raise ConfigurationError(f"band index must be >= 0, got {j}")
    half = Fraction(n - 1, 2)
    return LPBand(j=j, a=half + 2**j - 1, b=half + 2 ** (j + 1))


def band_index(mode: ModeIndex) -> int:
    """Smallest j whose band [a_j, b_j] contains |mu| (bands overlap): at
    |mu| = (n-1)/2 + k, the j with 2^j < k <= 2^(j+1), or 0 for k <= 2."""
    k = int(mode.abs_mu - Fraction(mode.n - 1, 2))
    return max(0, (k - 1).bit_length() - 1)
