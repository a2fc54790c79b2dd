"""Reproduce the per-call figures of the ROADMAP "Baseline" section from traced runs.

    python3 bench/baseline.py

Each of the three repeats runs three traced CLI processes (the ROADMAP
default scan: flat data on the asymptotically flat profile, eps = 0.01,
mu = 1, 2048 cells, 33 samples; ``check-metric`` over 16 modes; ``validate``
with 100 trials) and times the benchmark's own Bessel oracle for one mode.
The table prints the median of the repeats beside each ROADMAP figure and
marks the figures that differ from it by more than the repeats' own spread
(max - min over median).
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import time

from run_bench import OUT, SRC, hang_limit, run_invocation
from tracer import COUNTS, END, NAME, START, outermost, self_times
from workloads import WORKLOADS, Invocation

REPEATS = 3

ROADMAP_SCAN = Invocation("roadmap_default", "strichartz-scan", {
    "profile.family": "asymptotically_flat", "profile.epsilon": "0.01",
    "modes.mu_list": "1", "grid.n_cells": "2048", "time.samples": "33"})
STATIC = {inv.name: inv for inv in WORKLOADS["verify_static"]}
INVOCATIONS = (ROADMAP_SCAN, STATIC["check_af"], STATIC["validate"])

# (key, what, ROADMAP figure in seconds)
ROADMAP = (
    ("eigh_4096", "dense eigh of the 4096x4096 Dirac matrix, per call", 6.7),
    ("evolve_33", "evolve over 33 samples, eigendecomposition cached", 15.6),
    ("strichartz_33", "strichartz_norm over 33 samples, per call", 5.3),
    ("check_admissible", "check_admissible, per mode", 0.1),
    ("oracle", "Bessel oracle built and propagated once, per mode", 2.0),
    ("norm_equivalence", "norm_equivalence_check with 100 trials, per call", 2.6),
)


def _per_call(spans, names, keep=lambda span: True) -> list[float]:
    return [spans[i][END] - spans[i][START] for i in outermost(spans, names) if keep(spans[i])]


def one_repeat(workdir) -> dict:
    from warpdirac import FlatBesselOracle, RadialGrid, gaussian_state

    spans = {}
    for inv in INVOCATIONS:
        trace = workdir / f"{inv.name}.spans.json"
        rec = run_invocation(inv, workdir, seed=0, limit_s=hang_limit(0), trace=trace)
        shutil.rmtree(rec["out"], ignore_errors=True)
        if rec["exit"] != inv.expected_exit:
            raise RuntimeError(f"{inv.name} exited {rec['exit']}")
        spans[inv.name] = json.loads(trace.read_text())["spans"]
    scan = spans["roadmap_default"]
    evolve_self = [t for s, t in zip(scan, self_times(scan)) if s[NAME] == "evolution.evolve"]
    grid = RadialGrid(40.0, 2048)
    start = time.perf_counter()
    FlatBesselOracle(1.0, 0.0, 3, grid).propagate(gaussian_state(grid), 8.0)
    oracle = time.perf_counter() - start
    eigh = _per_call(scan, {"operators.DiscreteRadialOperator.eigh"},
                     lambda s: s[COUNTS]["computed"] and s[COUNTS]["side"] == 4096)
    return {
        "eigh_4096": statistics.median(eigh),
        "evolve_33": sum(evolve_self),
        "strichartz_33": statistics.median(_per_call(scan, {"estimates.strichartz_norm"})),
        "check_admissible": statistics.mean(_per_call(
            spans["check_af"], {"admissibility.check_admissible"})),
        "oracle": oracle,
        "norm_equivalence": statistics.median(_per_call(
            spans["validate"], {"operators.norm_equivalence_check"})),
    }


def main() -> int:
    if not (SRC / "warpdirac" / "cli.py").is_file():
        print(f"error: no warpdirac sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / "work" / "baseline"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runs = [one_repeat(workdir) for _ in range(REPEATS)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{'ROADMAP baseline item':55s} {'ROADMAP':>8s} {'traced':>8s} {'spread':>7s}")
    for key, what, figure in ROADMAP:
        values = [run[key] for run in runs]
        median = statistics.median(values)
        spread = (max(values) - min(values)) / median
        diff = (median - figure) / figure
        verdict = f"DIFFERS by {diff:+.0%}" if abs(diff) > spread else "within spread"
        print(f"{what:55s} {figure:7.2f}s {median:7.2f}s {spread:7.1%}  {verdict}")
    print(f"({REPEATS} repeats; spread = (max - min) / median of the repeats)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
