"""The benchmark's own invocations, artifact checks and tracer, run in this process.

Each invocation of ``bench/workloads.py`` runs through ``cli.main`` on its
generated config, and its workload check must find no problem: a change that
would make the benchmark report wrong outputs fails here first.  The tracer
of the benchmark's traced run hooks package names, so it must install too.
"""

import sys
from pathlib import Path

import pytest

from warpdirac import admissibility, cli, estimates
from warpdirac.operators import DiscreteRadialOperator

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from tracer import Tracer  # noqa: E402
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


def test_tracer_installs_and_restores_its_hooks():
    """Installing fails if the package loses a name that the tracer hooks;
    restoring puts the hooked methods and functions back."""
    eigh = vars(DiscreteRadialOperator)["eigh"]
    init = vars(estimates.SobolevCalculus)["__init__"]
    check = admissibility.check_admissible
    restore = Tracer().install()
    try:
        assert vars(DiscreteRadialOperator)["eigh"] is not eigh
        assert vars(estimates.SobolevCalculus)["__init__"] is not init
        assert admissibility.check_admissible is not check
    finally:
        restore()
    assert vars(DiscreteRadialOperator)["eigh"] is eigh
    assert vars(estimates.SobolevCalculus)["__init__"] is init
    assert admissibility.check_admissible is check
