"""Fast self-test of the benchmark harness (a few seconds, no workload run).

    python3 -m pytest bench/test_harness.py -q

It is kept out of the package's own test suite, which collects ``tests/``
only.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

from run_bench import END_TO_END, hang_limit, run_pass  # noqa: E402
from tracer import (NAME, PARENT, LAYER_METRICS, Tracer, layer_metrics,  # noqa: E402
                    outermost, self_times, union_length)
from workloads import WORKLOADS  # noqa: E402

from warpdirac import cli, evolution, operators  # noqa: E402
from warpdirac.config import load_config  # noqa: E402
from warpdirac.evolution import causal_time_limit, gaussian_state  # noqa: E402
from warpdirac.profiles import Family, MetricProfile  # noqa: E402

ALL_INVOCATIONS = [(w, inv) for w, invs in WORKLOADS.items() for inv in invs]


@pytest.mark.parametrize("workload,inv", ALL_INVOCATIONS,
                         ids=[f"{w}-{inv.name}" for w, inv in ALL_INVOCATIONS])
def test_generated_config_loads_inside_the_causal_window(tmp_path, workload, inv):
    path = tmp_path / "run.cfg"
    path.write_text(inv.config_text(), encoding="utf-8")
    cfg = load_config(path)
    assert (cfg.n, cfg.m, cfg.grid.r_max) == (3, 0.0, 40.0)
    assert (cfg.data.center, cfg.data.width) == (12.0, 1.5)
    support = cfg.data.center + 3.0 * cfg.data.width
    assert cfg.t_max <= causal_time_limit(cfg.grid.r_max, support)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(LAYER_METRICS)


def test_union_length_merges_overlaps_and_skips_empty_intervals():
    assert union_length([(3, 4), (0, 1), (0.5, 2), (5, 5)]) == pytest.approx(3.0)
    assert union_length([]) == 0.0


def test_self_time_on_nested_multithread_spans():
    # Main thread: A [0, 10] holds B [1, 4], which holds C [2, 3].  Two worker
    # threads run D [2, 6] and E [5, 8] on behalf of A, overlapping B and
    # each other, so A's children cover [1, 8].
    spans = [
        ["A", 0.0, 10.0, None, 1, {}],
        ["B", 1.0, 4.0, 0, 1, {}],
        ["C", 2.0, 3.0, 1, 1, {}],
        ["D", 2.0, 6.0, 0, 2, {}],
        ["E", 5.0, 8.0, 0, 3, {}],
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 3.0])
    assert outermost(spans, {"A", "C"}) == [0]
    assert outermost(spans, {"C", "D"}) == [2, 3]


def test_worker_spans_take_the_waiting_main_thread_span_as_parent():
    tracer = Tracer()
    leaf = tracer.wrap(lambda x: 2 * x, "t.leaf")

    def fan_out(xs):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(leaf, xs))

    assert tracer.wrap(fan_out, "t.top")([1, 2, 3]) == [2, 4, 6]
    spans = tracer.spans
    assert [s[NAME] for s in spans] == ["t.top"] + ["t.leaf"] * 3
    assert all(s[PARENT] == 0 for s in spans[1:])
    top_self = self_times(spans)[0]
    assert 0.0 <= top_self <= spans[0][2] - spans[0][1]


def test_installed_wrappers_return_the_unwrapped_results():
    grid = operators.RadialGrid(40.0, 64)
    profile = MetricProfile(family=Family.ASYMPTOTICALLY_FLAT, n=3, epsilon=0.01)
    times = [0.0, 0.5, 1.0]
    plain_op = operators.assemble_dirac(profile, 1.0, 0.0, 3, grid)
    plain_traj = evolution.evolve(plain_op, gaussian_state(grid), times)
    plain_report = cli.check_admissible(profile, 1.0)
    original_evolve = cli.evolve

    tracer = Tracer()
    restore = tracer.install()
    try:
        assert cli.evolve is not original_evolve
        op = cli.assemble_dirac(profile, 1.0, 0.0, 3, grid)
        traj = cli.evolve(op, gaussian_state(grid), times)
        report = cli.check_admissible(profile, 1.0)
    finally:
        restore()
    assert cli.evolve is original_evolve
    np.testing.assert_array_equal(op.matrix, plain_op.matrix)
    for got, want in zip(traj.states, plain_traj.states):
        np.testing.assert_array_equal(got.plus, want.plus)
        np.testing.assert_array_equal(got.minus, want.minus)
    assert report == plain_report
    names = {s[NAME] for s in tracer.spans}
    assert {"operators.assemble_dirac", "evolution.evolve", "admissibility.check_admissible",
            "operators.DiscreteRadialOperator.eigh", "scan.scan_infimum"} <= names
    layers = layer_metrics([tracer.spans], oracle_s=0.0, overhead_s=0.0)
    assert layers["operators.eigh_calls"] == 1
    assert layers["operators.eigh_max_side"] == 128
    assert layers["evolution.evolve_samples"] == 3
    assert layers["admissibility.check_admissible_calls"] == 1
    assert layers["operators.dirac_matrix_bytes"] == 128 * 128 * 8


def test_launcher_traces_a_cli_process(tmp_path):
    inv = WORKLOADS["verify_static"][0]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(inv.config_text(), encoding="utf-8")
    mark, spans_file, out = tmp_path / "mark", tmp_path / "spans.json", tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, str(ROOT / "bench" / "launch.py"), "--mark", str(mark),
                    "--trace", str(spans_file), "--", inv.command, "--config", str(cfg),
                    "--out", str(out)], env=env, check=True, timeout=60)
    assert float(mark.read_text()) > 0.0
    spans = json.loads(spans_file.read_text())["spans"]
    layers = layer_metrics([spans], oracle_s=0.0, overhead_s=0.0)
    assert layers["reporting.files_written"] == 1
    assert layers["reporting.bytes_written"] == (out / "spectrum.csv").stat().st_size
    assert "cli.cmd_spectrum" in {s[NAME] for s in spans}


def test_only_a_process_that_outlives_its_own_hang_limit_is_killed(tmp_path):
    # The limit grows with --seconds and counts from each process's own
    # start, so a long run never kills a healthy invocation that starts late.
    for seconds in (1, 20, 130, 600):
        assert hang_limit(seconds) >= 6 * seconds
    spectrum = WORKLOADS["verify_static"][:1]
    for _ in range(2):
        record, = run_pass(spectrum, tmp_path, seed=1, limit_s=hang_limit(130),
                           trace=False)["invocations"]
        assert (record["exit"], record["problems"]) == (0, [])
    record, = run_pass(spectrum, tmp_path, seed=1, limit_s=0.05,
                       trace=False)["invocations"]
    assert record["exit"] != 0 and record["problems"]


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    got = subprocess.run([sys.executable, "bench/run_bench.py", "--workload", "scan_af",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert got.returncode != 0
    assert got.stdout == ""
