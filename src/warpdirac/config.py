"""Strict key-value run configuration.

The format is one ``key = value`` pair per line, ``#`` comments, no
sections.  Unknown keys are rejected so a config means the same thing
across versions.  All cross-field constraints (triple admissibility, mode
membership in the sphere spectrum, causal window against the grid) are
validated before any computation starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import ConfigurationError
from .estimates import (DEFAULT_EPSILON_LOSS, DEFAULT_SAMPLES, DEFAULT_T_MAX, DataTemplate,
                        ExponentTriple, is_admissible_triple)
from .evolution import causal_time_limit, gaussian_support_radius
from .operators import DEFAULT_N_CELLS, DEFAULT_R_MAX, DEFAULT_TRIALS, MIN_CELLS, RadialGrid
from .profiles import Family, MetricProfile
from .scan import DEFAULT_SCAN_POLICY, MIN_SCAN_POINTS, InfimumScanPolicy
from .spectrum import ModeIndex, lp_band, sphere_spectrum

__all__ = ["RunConfig", "parse_config", "load_config"]

_FAMILIES = {f.value: f for f in Family}
_MAX_ABS_MU = 1024  # largest |mu| that modes.mu_max or modes.band_j may enumerate


@dataclass(frozen=True)
class RunConfig:
    profile: MetricProfile
    m: float
    modes: tuple
    grid: RadialGrid
    t_max: float
    samples: int
    triples: tuple
    epsilon_loss: float
    data: DataTemplate
    scan: InfimumScanPolicy
    trials: int

    @property
    def n(self) -> int:
        """The spatial dimension, which the profile carries."""
        return self.profile.n


class _Parser:
    """Line-oriented key=value reader with positional error reporting."""

    def __init__(self, text: str):
        self.pairs: dict[str, tuple[str, int]] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                col = len(raw) - len(raw.lstrip()) + 1
                raise ConfigurationError(
                    f"line {lineno}, column {col}: expected 'key = value'")
            key, value = line.split("=", 1)
            key, value = key.strip(), value.strip()
            if not key or not value:
                raise ConfigurationError(f"line {lineno}: empty key or value")
            if key in self.pairs:
                raise ConfigurationError(f"line {lineno}: duplicate key '{key}'")
            self.pairs[key] = (value, lineno)
        self.lines = {key: lineno for key, (_, lineno) in self.pairs.items()}

    def error(self, key: str, problem: str) -> ConfigurationError:
        """The error for a value the config gave ``key``, at that key's line."""
        return ConfigurationError(f"line {self.lines[key]}: '{key}' {problem}")

    def take(self, key: str) -> Optional[tuple[str, int]]:
        return self.pairs.pop(key, None)

    def take_float(self, key: str, default: float, minimum: Optional[float] = None) -> float:
        got = self.take(key)
        if got is None:
            return default
        try:
            number = float(got[0])
        except ValueError:
            number = math.nan
        if not math.isfinite(number):
            raise self.error(key, "must be a finite number")
        if minimum is not None and number < minimum:
            raise self.error(key, f"must be at least {minimum:g}")
        return number

    def take_positive(self, key: str, default: float) -> float:
        """take_float for a key whose value must be positive (as its default is)."""
        number = self.take_float(key, default)
        if number <= 0:
            raise self.error(key, "must be positive")
        return number

    def take_int(self, key: str, default: int, minimum: Optional[int] = None) -> int:
        got = self.take(key)
        if got is None:
            return default
        try:
            number = int(got[0])
        except ValueError:
            raise self.error(key, "must be an integer") from None
        if minimum is not None and number < minimum:
            raise self.error(key, f"must be at least {minimum}")
        return number

    def take_str(self, key: str, default: str, choices: tuple) -> str:
        got = self.take(key)
        if got is None:
            return default
        if got[0] not in choices:
            raise self.error(key, f"must be one of {', '.join(choices)}")
        return got[0]

    def reject_unknown(self):
        if self.pairs:
            key, (_, lineno) = next(iter(self.pairs.items()))
            raise ConfigurationError(f"line {lineno}: unknown key '{key}'")


def _parse_triples(spec: str, lineno: int, m: float, n: int) -> tuple:
    triples = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if ":" not in chunk:
            raise ConfigurationError(
                f"line {lineno}: triple '{chunk}' must look like 'p:q'")
        ps, qs = (s.strip() for s in chunk.split(":", 1))
        try:
            p = math.inf if ps in ("inf", "Inf") else float(ps)
            q = float(qs)
        except ValueError:
            raise ConfigurationError(f"line {lineno}: bad exponents in '{chunk}'") from None
        if not is_admissible_triple(p, q, m, n):
            raise ConfigurationError(
                f"line {lineno}: (p={ps}, q={qs}, m={m:g}) violates the admissible-triple "
                f"scaling rule (2/p + (n-1)/q = (n-1)/2 for m = 0, 2/p + n/q = n/2 "
                f"otherwise, with p, q >= 2)")
        triples.append(ExponentTriple(p=p, q=q))
    if not triples:
        raise ConfigurationError(f"line {lineno}: empty triple list")
    return tuple(triples)


def _parse_modes(parser: _Parser, n: int) -> tuple:
    mu_list = parser.take("modes.mu_list")
    band_j = parser.take("modes.band_j")
    mu_max = parser.take("modes.mu_max")
    given = [x for x in (mu_list, band_j, mu_max) if x is not None]
    if len(given) > 1:
        raise ConfigurationError(
            "choose exactly one of modes.mu_list, modes.band_j, modes.mu_max")
    if mu_list is not None:
        value, lineno = mu_list
        modes = {}
        for chunk in value.split(","):
            try:
                mu = Fraction(chunk.strip())
            except (ValueError, ZeroDivisionError):
                raise ConfigurationError(
                    f"line {lineno}: '{chunk.strip()}' is not a rational number") from None
            if mu in modes:
                raise ConfigurationError(f"line {lineno}: mode {mu} is listed twice")
            try:
                modes[mu] = ModeIndex(mu, n)
            except ConfigurationError as exc:
                raise ConfigurationError(
                    f"line {lineno}: mu={chunk.strip()} rejected: not in the sphere "
                    f"spectrum +-((n-1)/2 + N) for n={n}, or |mu| <= 1/2 "
                    f"(self-adjointness hypothesis). Underlying check: {exc}") from None
        return tuple(modes.values())
    if band_j is not None:
        value, lineno = band_j
        try:
            j = int(value)
        except ValueError:
            raise ConfigurationError(f"line {lineno}: band index must be an integer") from None
        # 2^(j+1) alone passes the cap once j reaches the cap's bit length
        if j >= _MAX_ABS_MU.bit_length() or lp_band(n, j).b > _MAX_ABS_MU:
            raise ConfigurationError(
                f"line {lineno}: band {j} reaches past |mu| = {_MAX_ABS_MU}")
        band = lp_band(n, j)
        return tuple(m for m in sphere_spectrum(n, band.b) if band.a <= m.abs_mu)
    if mu_max is not None:
        value, lineno = mu_max
        try:
            cap = float(value)
        except ValueError:
            raise ConfigurationError(f"line {lineno}: modes.mu_max must be a number") from None
        if not (math.isfinite(cap) and cap <= _MAX_ABS_MU):
            raise ConfigurationError(
                f"line {lineno}: modes.mu_max must be a finite number at most {_MAX_ABS_MU}")
        return tuple(sphere_spectrum(n, cap))
    return tuple(sphere_spectrum(n, (n - 1) / 2 + 1))


def parse_config(text: str) -> RunConfig:
    """Parse and cross-validate one configuration document."""
    parser = _Parser(text)

    fam_got = parser.take("profile.family")
    if fam_got is None:
        raise ConfigurationError("missing required key 'profile.family'")
    fam_name, fam_line = fam_got
    if fam_name not in _FAMILIES:
        raise ConfigurationError(
            f"line {fam_line}: unknown family '{fam_name}' "
            f"(choose from {', '.join(sorted(_FAMILIES))})")

    family = _FAMILIES[fam_name]
    default_profile = MetricProfile(family)
    n = parser.take_int("n", default_profile.n, minimum=3)
    profile = MetricProfile(
        family=family, n=n,
        epsilon=parser.take_float("profile.epsilon", default_profile.epsilon, minimum=0),
        alpha=parser.take_int("profile.alpha", default_profile.alpha),
        beta=parser.take_int("profile.beta", default_profile.beta),
        degree=parser.take_int("profile.degree", default_profile.degree),
    )
    m = parser.take_float("m", 0.0)
    modes = _parse_modes(parser, n)
    if not modes:
        raise ConfigurationError(
            f"the modes section enumerates no mode: the smallest |mu| for n={n} "
            f"is {(n - 1) / 2:g}")

    grid = RadialGrid(
        r_max=parser.take_positive("grid.r_max", DEFAULT_R_MAX),
        n_cells=parser.take_int("grid.n_cells", DEFAULT_N_CELLS, minimum=MIN_CELLS))
    t_max = parser.take_positive("time.t_max", DEFAULT_T_MAX)
    samples = parser.take_int("time.samples", DEFAULT_SAMPLES, minimum=2)

    triples_got = parser.take("triples")
    if triples_got is None:
        # diagonal admissible exponent: p = q on the scaling line
        p_diag = 2.0 * (n + 1) / (n - 1) if m == 0.0 else 2.0 * (n + 2) / n
        triples = (ExponentTriple(p=p_diag, q=p_diag),)
    else:
        triples = _parse_triples(triples_got[0], triples_got[1], m, n)

    default = DataTemplate()
    bump = dict(
        center=parser.take_positive("data.center", default.center),
        width=parser.take_positive("data.width", default.width),
        amplitude=parser.take_float("data.amplitude", default.amplitude),
        component=parser.take_str("data.component", default.component, ("plus", "minus")),
    )
    if bump["amplitude"] == 0:
        raise parser.error("data.amplitude", "must be nonzero")
    data = DataTemplate(**bump)

    try:
        scan = InfimumScanPolicy(
            r_min=parser.take_float("scan.r_min", DEFAULT_SCAN_POLICY.r_min),
            r_max=parser.take_float("scan.r_max", DEFAULT_SCAN_POLICY.r_max),
            points=parser.take_int("scan.points", DEFAULT_SCAN_POLICY.points,
                                   minimum=MIN_SCAN_POINTS),
        )
    except ValueError as exc:
        raise ConfigurationError(f"scan policy: {exc}") from None
    epsilon_loss = parser.take_float("epsilon_loss", DEFAULT_EPSILON_LOSS, minimum=0)
    trials = parser.take_int("trials", DEFAULT_TRIALS, minimum=1)
    parser.reject_unknown()

    limit = causal_time_limit(grid.r_max, gaussian_support_radius(data.center, data.width))
    if t_max > limit + 1e-9:
        raise ConfigurationError(
            f"time.t_max={t_max:g} exceeds the causal window "
            f"(r_max - data support - 2 = {limit:g}); enlarge grid.r_max or "
            f"shrink the window")

    return RunConfig(profile=profile, m=m, modes=modes, grid=grid,
                     t_max=t_max, samples=samples, triples=triples,
                     epsilon_loss=epsilon_loss, data=data, scan=scan, trials=trials)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
