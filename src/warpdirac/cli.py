"""Command-line driver: configuration in, bit-exact JSON/CSV artifacts out.

Subcommands
-----------
check-metric     admissibility report per configured mode
spectrum         angular mode table as CSV
validate         squaring / factorization / norm-equivalence conformance
evolve           trajectory CSV per mode plus a JSON metadata header
strichartz-scan  growth-in-mu scan with fitted slopes

Exit codes: 0 pass, 2 contract violation, 3 non-admissible metric,
4 configuration error (command-line usage errors and artifact writes that
fail included), 5 numerical failure.  Failed runs never leave partial
artifacts: each artifact is staged as soon as the command has produced it,
written to a hidden temp file in the output directory, and the staged
files are renamed into place together once the command has returned.  On
any error the run's staged and renamed files are removed, and so is the
output directory if the run created it.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import functools
import gc
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .admissibility import check_admissible
from .config import RunConfig, load_config
from .errors import ConfigurationError, WarpDiracError
from .estimates import mu_scan
from .evolution import evolve
from .operators import (RadialGrid, assemble_dirac, factorization_check,
                        norm_equivalence_check, verify_square)
from .profiles import MetricProfile, sigma_log_derivative_bound
from .reporting import write_csv_atomic, write_json_atomic
from .spectrum import band_index

_NORM_EQUIV_SLACK = 1e-3
_ORDER_GATE = 1.9


def _profile_dict(profile: MetricProfile) -> dict:
    d = {"family": profile.family.value, "n": profile.n}
    if profile.family.value == "asymptotically_flat":
        d.update(epsilon=profile.epsilon, alpha=profile.alpha, beta=profile.beta)
    if profile.family.value == "polynomial":
        d.update(degree=profile.degree)
    return d


def _mu_label(mu: float) -> str:
    return f"{mu:g}"


def _write_all(out: Path, command) -> int:
    """Run ``command(stage)``, publish the artifacts it stages and return its exit code.

    ``stage(name, payload)`` writes one artifact at once to a hidden temp
    file in ``out`` (a .json name takes a JSON value, a .csv one (header,
    rows)), so a command can hand over each artifact when it is finished and
    let it go.  Only after the command has returned are the staged files
    renamed into place.  On any error the staged files and those already
    renamed are removed, and so is ``out`` if this run created it; a write
    or rename that fails is refused with a ConfigurationError naming the
    artifact's path.
    """
    created = not out.exists()
    staged, published = [], []

    def stage(name: str, payload):
        path, hidden = out / name, out / f".{name}.{os.urandom(8).hex()}"
        try:
            if name.endswith(".json"):
                write_json_atomic(hidden, payload)
            else:
                write_csv_atomic(hidden, *payload)
        except OSError as exc:
            raise ConfigurationError(f"cannot write {path}: {exc}") from exc
        staged.append((hidden, path))

    try:
        code = command(stage)
        for hidden, path in staged:
            try:
                os.replace(hidden, path)
            except OSError as exc:
                raise ConfigurationError(f"cannot write {path}: {exc}") from exc
            published.append(path)
        return code
    except BaseException:
        for path in [hidden for hidden, _ in staged] + published:
            path.unlink(missing_ok=True)
        if created:
            with contextlib.suppress(OSError):
                out.rmdir()
        raise


def cmd_check_metric(cfg: RunConfig, args, stage) -> int:
    mus = sorted({float(m.mu) for m in cfg.modes})
    reports = check_admissible(cfg.profile, mus, cfg.scan)
    payload = {
        "profile": _profile_dict(cfg.profile),
        "reports": [asdict(r) for r in reports],
        "all_admissible": all(r.admissible for r in reports),
    }
    stage("check_metric.json", payload)
    return 0 if payload["all_admissible"] else 3


def cmd_spectrum(cfg: RunConfig, args, stage) -> int:
    rows = []
    for mode in cfg.modes:
        rows.append((
            _mu_label(float(mode.mu)),
            mode.multiplicity,
            mode.degree_plus,
            mode.degree_minus,
            band_index(mode),
        ))
    header = ["mu", "multiplicity", "degree_plus", "degree_minus", "band_j"]
    stage("spectrum.csv", (header, rows))
    return 0


def _ladder(n_cells: int) -> list[int]:
    # rungs below 256 cells are pre-asymptotic for the probe family
    steps = [n_cells // 8, n_cells // 4, n_cells // 2, n_cells]
    return [n for n in steps if n >= 256]


def _order(ns: list[int], residuals: list[float]) -> float:
    return float(-np.polyfit(np.log(ns), np.log(residuals), 1)[0])


def cmd_validate(cfg: RunConfig, args, stage) -> int:
    mus = sorted({abs(float(m.mu)) for m in cfg.modes})
    ns = _ladder(cfg.grid.n_cells)
    if len(ns) < 2:
        raise ConfigurationError("grid.n_cells too small for a refinement ladder")
    squaring = []
    factorization = []
    for mu in mus:
        sq_res, fa_res_m, fa_res_p = [], [], []
        for n_cells in ns:
            grid = RadialGrid(cfg.grid.r_max, n_cells)
            sq_res.append(verify_square(cfg.profile, mu, cfg.m, grid))
            rm, rp = factorization_check(cfg.profile, mu, grid)
            fa_res_m.append(rm)
            fa_res_p.append(rp)
        sq_order = _order(ns, sq_res)
        fa_order = min(_order(ns, fa_res_m), _order(ns, fa_res_p))
        squaring.append({
            "mu": mu,
            "ladder": [{"n_cells": k, "residual": r} for k, r in zip(ns, sq_res)],
            "order": sq_order,
            "pass": sq_order >= _ORDER_GATE,
        })
        factorization.append({
            "mu": mu,
            "ladder": [{"n_cells": k, "residual_minus": rm, "residual_plus": rp}
                       for k, rm, rp in zip(ns, fa_res_m, fa_res_p)],
            "order": fa_order,
            "pass": fa_order >= _ORDER_GATE,
        })
    c_phi = sigma_log_derivative_bound(cfg.profile, cfg.scan)
    equivalence = []
    exponents = (0.0, 0.5, 1.0)
    ratios = norm_equivalence_check(cfg.profile, exponents, trials=cfg.trials,
                                    grid=cfg.grid, seed=args.seed)
    for s, (worst, worst_inv) in zip(exponents, ratios):
        bound = (1.0 + c_phi * (cfg.n - 1) / 2.0) ** s + _NORM_EQUIV_SLACK
        equivalence.append({
            "s": s, "worst_ratio": worst, "worst_inverse_ratio": worst_inv,
            "bound": bound, "pass": max(worst, worst_inv) <= bound,
        })
    passed = (all(e["pass"] for e in equivalence)
              and all(e["pass"] for e in squaring)
              and all(e["pass"] for e in factorization))
    payload = {
        "profile": _profile_dict(cfg.profile),
        "m": cfg.m,
        "grid": asdict(cfg.grid),
        "seed": args.seed,
        "c_phi": c_phi,
        "squaring": squaring,
        "factorization": factorization,
        "norm_equivalence": equivalence,
        "pass": passed,
    }
    stage("validate.json", payload)
    return 0 if passed else 2


_TRAJECTORY_HEADER = ["t", "r", "re_v_plus", "im_v_plus", "re_v_minus", "im_v_minus"]


def _evolve_mode(cfg: RunConfig, mu: float, initial, times: np.ndarray, stage) -> dict:
    """Flow one mode, stage its trajectory CSV and return its metadata entry.

    Nothing of the flow outlives the call, so a run holds one mode at a time.
    """
    traj = evolve(assemble_dirac(cfg.profile, mu, cfg.m, cfg.grid), initial, times)
    r = cfg.grid.nodes
    # one row per (time, node), time-major: the CSV is this T*N x 6 block
    plus, minus = traj.plus.T, traj.minus.T
    table = np.column_stack([np.repeat(traj.times, len(r)), np.tile(r, len(times)),
                             plus.real.ravel(), plus.imag.ravel(),
                             minus.real.ravel(), minus.imag.ravel()])
    name = f"trajectory_mu_{_mu_label(mu)}.csv"
    stage(name, (_TRAJECTORY_HEADER, table))
    norms = traj.norms()
    return {"mu": mu, "file": name,
            "norm_drift": float(np.max(np.abs(norms / norms[0] - 1.0)))}


def cmd_evolve(cfg: RunConfig, args, stage) -> int:
    times = np.linspace(0.0, cfg.t_max, cfg.samples)
    initial = cfg.data.realize(cfg.grid)
    meta_modes = [_evolve_mode(cfg, float(mode.mu), initial, times, stage)
                  for mode in cfg.modes]
    stage("evolve_meta.json", {
        "profile": _profile_dict(cfg.profile),
        "m": cfg.m,
        "grid": asdict(cfg.grid),
        "times": [float(t) for t in times],
        "data": asdict(cfg.data),
        "modes": meta_modes,
    })
    return 0


def cmd_strichartz_scan(cfg: RunConfig, args, stage) -> int:
    mus = [float(m.mu) for m in cfg.modes]
    results = mu_scan(cfg.profile, cfg.triples, mus, data_template=cfg.data,
                      grid=cfg.grid, t_max=cfg.t_max, samples=cfg.samples,
                      m=cfg.m, epsilon_loss=cfg.epsilon_loss, scan=cfg.scan)
    failed = any(ok is False for result in results
                 for ok in (result.strichartz_slope_ok, result.smoothing_slope_ok))
    stage("strichartz_scan.json", {"scans": [asdict(result) for result in results]})
    header = ["mu", "ratio_strichartz", "ratio_smoothing"]
    for result in results:
        rows = [(row.mu, row.ratio_strichartz, row.ratio_smoothing)
                for row in result.rows]
        p_label = "inf" if math.isinf(result.p) else f"{result.p:g}"
        stage(f"strichartz_scan_p{p_label}_q{result.q:g}.csv", (header, rows))
    return 2 if failed else 0


_COMMANDS = {
    "check-metric": cmd_check_metric,
    "spectrum": cmd_spectrum,
    "validate": cmd_validate,
    "evolve": cmd_evolve,
    "strichartz-scan": cmd_strichartz_scan,
}


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error is a configuration error (exit 4), not argparse's exit 2."""

    def error(self, message):
        raise ConfigurationError(f"{self.prog}: {message}")


def _seed(text: str) -> int:
    """--seed: a nonnegative integer, as np.random.default_rng requires."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="warpdirac",
        description="Radial Dirac verification lab on warped-product manifolds")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", default="out", help="output directory (default out)")
        p.add_argument("--seed", type=_seed, default=0,
                       help="seed for random test functions")
    return parser


def main(argv=None) -> int:
    # freeze the heap at exit, so that the interpreter's shutdown collections
    # skip the objects the imports left (about 23k, 4-6 ms a pass); the handler
    # is registered once per process, however often main runs
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config)
        return _write_all(Path(args.out),
                          functools.partial(_COMMANDS[args.command], cfg, args))
    except WarpDiracError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ArithmeticError as exc:  # FloatingPointError, OverflowError, ZeroDivisionError
        print(f"numerical error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
