"""Strict key-value run configuration.

The format is one ``key = value`` pair per line, ``#`` comments, no
sections.  Unknown keys are rejected so a config means the same thing
across versions.  Every value is read by one parser, which refuses a bad
value with an error naming its key and line; cross-field constraints
(triple admissibility, mode membership in the sphere spectrum, the scan
range, the causal window against the grid) are validated before any
computation starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigurationError
from .estimates import (DEFAULT_EPSILON_LOSS, DEFAULT_SAMPLES, DEFAULT_T_MAX, ExponentTriple,
                        is_admissible_triple)
from .evolution import DataTemplate, causal_time_limit
from .operators import DEFAULT_N_CELLS, DEFAULT_R_MAX, DEFAULT_TRIALS, MIN_CELLS, RadialGrid
from .profiles import MAX_AF_EXPONENT, MAX_POLY_DEGREE, Family, MetricProfile
from .scan import DEFAULT_SCAN_POLICY, MIN_SCAN_POINTS, InfimumScanPolicy
from .spectrum import ModeIndex, lp_band, sphere_spectrum

__all__ = ["RunConfig", "parse_config", "load_config"]

_MODE_KEYS = ("modes.mu_list", "modes.band_j", "modes.mu_max")  # choose at most one
_MAX_ABS_MU = 1024  # largest |mu| that modes.mu_max or modes.band_j may enumerate
_CAUSAL_KEYS = ("time.t_max", "grid.r_max", "data.center", "data.width")


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
        self.pairs: dict[str, str] = {}
        self.lines: dict[str, int] = {}
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
            self.pairs[key], self.lines[key] = value, lineno

    def error(self, key: str, problem: str) -> ConfigurationError:
        """The error for a value the config gave ``key``, at that key's line."""
        return ConfigurationError(f"line {self.lines[key]}: '{key}' {problem}")

    def take(self, key: str) -> Optional[str]:
        return self.pairs.pop(key, None)

    def take_float(self, key: str, default: Optional[float],
                   minimum: Optional[float] = None) -> Optional[float]:
        got = self.take(key)
        if got is None:
            return default
        try:
            number = float(got)
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

    def take_int(self, key: str, default: Optional[int],
                 minimum: Optional[int] = None) -> Optional[int]:
        got = self.take(key)
        if got is None:
            return default
        try:
            number = int(got)
        except ValueError:
            raise self.error(key, "must be an integer") from None
        if minimum is not None and number < minimum:
            raise self.error(key, f"must be at least {minimum}")
        return number

    def take_str(self, key: str, default: Optional[str], choices: tuple) -> Optional[str]:
        got = self.take(key)
        if got is not None and got not in choices:
            raise self.error(key, f"must be one of {', '.join(choices)}")
        return default if got is None else got

    def reject_unknown(self):
        if self.pairs:
            key = next(iter(self.pairs))
            raise ConfigurationError(f"line {self.lines[key]}: unknown key '{key}'")


def _parse_triples(parser: _Parser, m: float, n: int) -> tuple:
    spec = parser.take("triples")
    if spec is None:
        # diagonal admissible exponent: p = q on the scaling line
        p_diag = 2.0 * (n + 1) / (n - 1) if m == 0.0 else 2.0 * (n + 2) / n
        return (ExponentTriple(p=p_diag, q=p_diag),)
    triples = []
    for chunk in map(str.strip, spec.split(",")):
        ps, _, qs = (s.strip() for s in chunk.partition(":"))
        try:
            p, q = float(ps), float(qs)  # float reads 'inf' for p
        except ValueError:
            raise parser.error("triples", f"has '{chunk}', which is not 'p:q'") from None
        if not is_admissible_triple(p, q, m, n):
            raise parser.error(
                "triples", f"has (p={ps}, q={qs}), which for m={m:g} violates the "
                f"admissible-triple scaling rule (2/p + (n-1)/q = (n-1)/2 for m = 0, "
                f"2/p + n/q = n/2 otherwise, with p, q >= 2)")
        triples.append(ExponentTriple(p=p, q=q))
    return tuple(triples)


def _parse_modes(parser: _Parser, n: int) -> tuple:
    given = sorted((key for key in _MODE_KEYS if key in parser.pairs), key=parser.lines.get)
    if len(given) > 1:
        raise parser.error(given[1], f"cannot be given with '{given[0]}': choose exactly "
                                     f"one of {', '.join(_MODE_KEYS)}")
    spec = parser.take("modes.mu_list")
    if spec is not None:
        modes = {}
        for chunk in map(str.strip, spec.split(",")):
            try:
                mode = ModeIndex(chunk, n)
            except ConfigurationError:
                raise parser.error("modes.mu_list", f"must list modes of the sphere spectrum "
                                   f"+-((n-1)/2 + N) for n={n}, not '{chunk}'") from None
            if mode.mu in modes:
                raise parser.error("modes.mu_list", f"lists mode {mode.mu} twice")
            modes[mode.mu] = mode
        return tuple(modes.values())
    j = parser.take_int("modes.band_j", None, minimum=0)
    if j is not None:
        # 2^(j+1) alone passes the cap once j reaches the cap's bit length
        if j >= _MAX_ABS_MU.bit_length() or lp_band(n, j).b > _MAX_ABS_MU:
            raise parser.error("modes.band_j", f"reaches past |mu| = {_MAX_ABS_MU}")
        band = lp_band(n, j)
        return tuple(m for m in sphere_spectrum(n, band.b) if band.a <= m.abs_mu)
    cap = parser.take_float("modes.mu_max", None)
    if cap is not None:
        if not (n - 1) / 2 <= cap <= _MAX_ABS_MU:
            # below (n-1)/2, the smallest |mu| of the sphere spectrum, it enumerates no mode
            raise parser.error("modes.mu_max", f"must lie between (n-1)/2 = {(n - 1) / 2:g} "
                                               f"and {_MAX_ABS_MU}")
        return tuple(sphere_spectrum(n, cap))
    return tuple(sphere_spectrum(n, (n - 1) / 2 + 1))


def parse_config(text: str) -> RunConfig:
    """Parse and cross-validate one configuration document."""
    parser = _Parser(text)

    family = parser.take_str("profile.family", None, tuple(f.value for f in Family))
    if family is None:
        raise ConfigurationError("missing required key 'profile.family'")
    default_profile = MetricProfile(Family(family))
    n = parser.take_int("n", default_profile.n, minimum=3)
    epsilon = parser.take_float("profile.epsilon", default_profile.epsilon, minimum=0)
    alpha = parser.take_int("profile.alpha", default_profile.alpha)
    beta = parser.take_int("profile.beta", default_profile.beta)
    degree = parser.take_int("profile.degree", default_profile.degree)
    if default_profile.family is Family.ASYMPTOTICALLY_FLAT and not (
            1 <= alpha <= beta <= MAX_AF_EXPONENT):
        raise parser.error("profile.beta" if "profile.beta" in parser.lines else "profile.alpha",
                           f"must keep 1 <= profile.alpha <= profile.beta <= {MAX_AF_EXPONENT}, "
                           f"got {alpha} and {beta}")
    if default_profile.family is Family.POLYNOMIAL and not 2 <= degree <= MAX_POLY_DEGREE:
        raise parser.error("profile.degree", f"must lie between 2 and {MAX_POLY_DEGREE}")
    profile = MetricProfile(default_profile.family, n, epsilon, alpha, beta, degree)
    m = parser.take_float("m", 0.0)
    modes = _parse_modes(parser, n)

    grid = RadialGrid(
        r_max=parser.take_positive("grid.r_max", DEFAULT_R_MAX),
        n_cells=parser.take_int("grid.n_cells", DEFAULT_N_CELLS, minimum=MIN_CELLS))
    t_max = parser.take_positive("time.t_max", DEFAULT_T_MAX)
    samples = parser.take_int("time.samples", DEFAULT_SAMPLES, minimum=2)
    triples = _parse_triples(parser, m, n)

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

    r_min = parser.take_positive("scan.r_min", DEFAULT_SCAN_POLICY.r_min)
    r_max = parser.take_float("scan.r_max", DEFAULT_SCAN_POLICY.r_max)
    if r_min >= r_max:
        raise parser.error("scan.r_max" if "scan.r_max" in parser.lines else "scan.r_min",
                           f"must keep scan.r_min < scan.r_max, got {r_min:g} and {r_max:g}")
    points = parser.take_int("scan.points", DEFAULT_SCAN_POLICY.points, minimum=MIN_SCAN_POINTS)
    scan = InfimumScanPolicy(r_min=r_min, r_max=r_max, points=points)
    epsilon_loss = parser.take_float("epsilon_loss", DEFAULT_EPSILON_LOSS, minimum=0)
    trials = parser.take_int("trials", DEFAULT_TRIALS, minimum=1)
    parser.reject_unknown()

    limit = causal_time_limit(grid.r_max, data.support_radius)
    if t_max > limit + 1e-9:
        # the defaults fit the window, so the config gave at least one of these keys
        given = [key for key in _CAUSAL_KEYS if key in parser.lines]
        raise parser.error(max(given, key=parser.lines.get),
                           f"puts time.t_max={t_max:g} past the causal window "
                           f"(r_max - data support - 2 = {limit:g}); enlarge grid.r_max "
                           f"or shrink the window")

    return RunConfig(profile=profile, m=m, modes=modes, grid=grid,
                     t_max=t_max, samples=samples, triples=triples,
                     epsilon_loss=epsilon_loss, data=data, scan=scan, trials=trials)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
