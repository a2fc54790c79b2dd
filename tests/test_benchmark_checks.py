"""The benchmark's own invocations and artifact checks, run in this process.

Each invocation of ``bench/workloads.py`` runs through ``cli.main`` on its
generated config, and its workload check must find no problem: a change that
would make the benchmark report wrong outputs fails here first.
"""

import sys
from pathlib import Path

import pytest

from warpdirac import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import CHECKS, WORKLOADS  # noqa: E402

RUNS = [inv for invocations in WORKLOADS.values() for inv in invocations]


@pytest.mark.parametrize("inv", RUNS, ids=[inv.name for inv in RUNS])
def test_benchmark_invocation_passes_its_check(inv, tmp_path, capsys):
    config = tmp_path / f"{inv.name}.cfg"
    config.write_text(inv.config_text(), encoding="utf-8")
    out = tmp_path / inv.name
    assert cli.main([inv.command, "--config", str(config), "--out", str(out),
                     "--seed", "1"]) == inv.expected_exit
    capsys.readouterr()
    problems, _ = CHECKS[inv.command](out, inv)
    assert problems == []
