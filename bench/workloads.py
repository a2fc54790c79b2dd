"""The benchmark's workloads: generated configs, CLI invocations, artifact checks.

Every workload uses n = 3, m = 0, r_max = 40 and the default Gaussian data
(center 12, width 1.5).  ``--threads`` is never passed, so the CLI default is
part of what is measured.  README.md in this directory says why each
workload was chosen.

Checks test invariants with tolerances, never golden bytes: artifacts differ
in the last digits between BLAS thread counts, and later numerical changes
alter them on purpose.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

BASE = {"n": "3", "m": "0", "grid.r_max": "40"}
NORM_DRIFT_MAX = 1e-10
ORACLE_REL_ERR_MAX = 1e-3


@dataclass(frozen=True)
class Invocation:
    """One CLI process: a subcommand, its generated config and the exit it must give."""

    name: str
    command: str
    settings: dict
    expected_exit: int = 0

    def config_text(self) -> str:
        lines = [f"{key} = {value}" for key, value in {**BASE, **self.settings}.items()]
        return "\n".join(lines) + "\n"


AF = {"profile.family": "asymptotically_flat", "profile.epsilon": "0.01"}
STATIC_MODES = {"modes.mu_max": "8"}

WORKLOADS = {
    "scan_af": (
        Invocation("scan", "strichartz-scan",
                   {**AF, "modes.mu_list": "1, -1, 2", "triples": "4:4, inf:2",
                    "grid.n_cells": "1024", "time.samples": "33"}),
    ),
    "evolve_flat": (
        Invocation("evolve", "evolve",
                   {"profile.family": "flat", "modes.mu_list": "1, -1", "time.samples": "17"}),
    ),
    "verify_static": (
        Invocation("spectrum", "spectrum", {"profile.family": "flat", **STATIC_MODES}),
        Invocation("check_flat", "check-metric", {"profile.family": "flat", **STATIC_MODES}),
        Invocation("check_af", "check-metric", {**AF, **STATIC_MODES}),
        Invocation("check_sinh", "check-metric", {"profile.family": "sinh", **STATIC_MODES},
                   expected_exit=3),
        Invocation("check_polynomial", "check-metric",
                   {"profile.family": "polynomial", "profile.degree": "3", **STATIC_MODES},
                   expected_exit=3),
        Invocation("validate", "validate",
                   {**AF, "modes.mu_list": "1, 2", "grid.n_cells": "2048", "trials": "100"}),
    ),
}


def _finite_positive(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and x > 0


def check_scan(out: Path, inv: Invocation) -> tuple[list, dict]:
    problems = []
    scans = json.loads((out / "strichartz_scan.json").read_text())["scans"]
    if len(scans) != 2:
        problems.append(f"expected 2 scans, got {len(scans)}")
    for scan in scans:
        label = f"p={scan['p']} q={scan['q']}"
        if scan["strichartz_slope_ok"] is not True or scan["smoothing_slope_ok"] is not True:
            problems.append(f"{label}: slope gate not true")
        if len(scan["rows"]) != 3:
            problems.append(f"{label}: expected 3 mode rows")
        for row in scan["rows"]:
            for key in ("strichartz", "smoothing", "h_half"):
                if not _finite_positive(row[key]):
                    problems.append(f"{label} mu={row['mu']}: {key}={row[key]!r}")
    return problems, {}


def _read_trajectory(path: Path, n_cells: int):
    import numpy as np

    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        data = np.array([[float(x) for x in row] for row in reader])
    times = data[::n_cells, 0]
    states = data.reshape(len(times), n_cells, 6)
    return times, states


def check_evolve(out: Path, inv: Invocation) -> tuple[list, dict]:
    """Norm drift, sample times and the flat Bessel oracle at t = t_max."""
    import numpy as np
    from warpdirac import FlatBesselOracle, RadialGrid, gaussian_state
    from warpdirac.config import parse_config

    problems = []
    cfg = parse_config(inv.config_text())
    requested = np.linspace(0.0, cfg.t_max, cfg.samples)
    meta = json.loads((out / "evolve_meta.json").read_text())
    if meta["times"] != requested.tolist():
        problems.append("evolve_meta.json times differ from the requested times")
    grid = RadialGrid(cfg.grid.r_max, cfg.grid.n_cells)
    initial = gaussian_state(grid, cfg.data.center, cfg.data.width,
                             cfg.data.amplitude, cfg.data.component)
    worst = 0.0
    oracle_s = 0.0
    for mode in meta["modes"]:
        if not mode["norm_drift"] <= NORM_DRIFT_MAX:
            problems.append(f"mu={mode['mu']}: norm_drift {mode['norm_drift']!r}")
        times, states = _read_trajectory(out / mode["file"], grid.n_cells)
        if times.tolist() != requested.tolist():
            problems.append(f"mu={mode['mu']}: trajectory times differ from the requested times")
        if not np.array_equal(states[0, :, 1], grid.nodes):
            problems.append(f"mu={mode['mu']}: trajectory radii differ from the grid")
        start = time.perf_counter()
        exact = FlatBesselOracle(mode["mu"], cfg.m, cfg.n, grid).propagate(initial, cfg.t_max)
        oracle_s += time.perf_counter() - start
        last = states[-1]
        got = np.concatenate([last[:, 2] + 1j * last[:, 3], last[:, 4] + 1j * last[:, 5]])
        want = np.concatenate([exact.plus, exact.minus])
        worst = max(worst, float(np.linalg.norm(got - want) / np.linalg.norm(want)))
    if not worst <= ORACLE_REL_ERR_MAX:
        problems.append(f"oracle_rel_err {worst!r} above {ORACLE_REL_ERR_MAX}")
    return problems, {"oracle_rel_err": worst, "oracle_s": oracle_s}


def check_spectrum(out: Path, inv: Invocation) -> tuple[list, dict]:
    with (out / "spectrum.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    mus = sorted(abs(float(row["mu"])) for row in rows)
    # n = 3: mu = +-(1 + k), k = 0..7, for |mu| <= 8
    want = sorted(float(k) for k in range(1, 9) for _ in (0, 1))
    return ([] if mus == want else [f"spectrum lists |mu| = {mus}"]), {}


def check_metric(out: Path, inv: Invocation) -> tuple[list, dict]:
    problems = []
    payload = json.loads((out / "check_metric.json").read_text())
    reports = payload["reports"]
    if len(reports) != 16:
        problems.append(f"expected 16 mode reports, got {len(reports)}")
    expect_admissible = inv.expected_exit == 0
    if payload["all_admissible"] is not expect_admissible:
        problems.append(f"all_admissible is {payload['all_admissible']}")
    if not expect_admissible:
        witnessed = [r for r in reports if not r["admissible"]]
        if not witnessed or not all(
                isinstance(r["witness_r"], float) and math.isfinite(r["witness_r"])
                for r in witnessed):
            problems.append("a non-admissible report lacks a finite witness_r")
    return problems, {}


def check_validate(out: Path, inv: Invocation) -> tuple[list, dict]:
    payload = json.loads((out / "validate.json").read_text())
    return ([] if payload["pass"] is True else ["validate.json pass is not true"]), {}


CHECKS = {
    "strichartz-scan": check_scan,
    "evolve": check_evolve,
    "spectrum": check_spectrum,
    "check-metric": check_metric,
    "validate": check_validate,
}
