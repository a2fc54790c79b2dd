import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpdirac import assemble_dirac, evolve
from warpdirac.cli import main
from warpdirac.config import RunConfig, parse_config
from warpdirac.errors import ConfigurationError
from warpdirac.estimates import DEFAULT_EPSILON_LOSS, DataTemplate
from warpdirac.operators import RadialGrid
from warpdirac.scan import InfimumScanPolicy
from warpdirac.reporting import canonical_json, write_csv_atomic

SRC = Path(__file__).resolve().parents[1] / "src"

MINIMAL = "profile.family = flat\nn = 3\n"

SMALL = """\
profile.family = flat
modes.mu_list = 1
grid.n_cells = 512
trials = 8
time.samples = 5
"""


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.grid.r_max == 40.0
    assert cfg.grid.n_cells == 2048
    assert cfg.n == 3 and cfg.m == 0.0
    assert cfg.t_max == 8.0
    assert [float(t.p) for t in cfg.triples] == [4.0]
    assert sorted(float(m.mu) for m in cfg.modes) == [-2.0, -1.0, 1.0, 2.0]


def test_minimal_config_takes_the_library_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.grid == RadialGrid()
    assert cfg.data == DataTemplate()
    assert cfg.scan == InfimumScanPolicy()
    assert cfg.epsilon_loss == DEFAULT_EPSILON_LOSS


def test_comments_and_blank_lines():
    cfg = parse_config("# header\n\nprofile.family = flat  # inline\n")
    assert cfg.profile.family.value == "flat"


def test_unknown_key_rejected():
    with pytest.raises(ConfigurationError, match="unknown key"):
        parse_config(MINIMAL + "nope = 1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigurationError, match="duplicate"):
        parse_config("profile.family = flat\nprofile.family = sinh\n")


def test_parse_error_position():
    with pytest.raises(ConfigurationError, match="line 2"):
        parse_config("profile.family = flat\njust some words\n")


def test_bad_triple_names_rule():
    with pytest.raises(ConfigurationError, match="admissible-triple scaling rule"):
        parse_config(MINIMAL + "triples = 4:1.5\n")


def test_mode_below_gap_rejected():
    with pytest.raises(ConfigurationError, match="sphere spectrum"):
        parse_config(MINIMAL + "modes.mu_list = 0.5\n")


def test_mode_selection_exclusive():
    with pytest.raises(ConfigurationError, match="exactly one"):
        parse_config(MINIMAL + "modes.mu_list = 1\nmodes.mu_max = 2\n")


def test_band_selection():
    cfg = parse_config(MINIMAL + "modes.band_j = 0\n")
    assert sorted(float(m.mu) for m in cfg.modes) == [-3.0, -2.0, -1.0, 1.0, 2.0, 3.0]


def test_multiplicity_table_from_config():
    cfg = parse_config("profile.family = flat\nn = 5\nmodes.mu_max = 3\n"
                       "modes.multiplicities = 2:16, 3:40\n")
    mult = {float(m.mu): m.multiplicity for m in cfg.modes}
    assert mult[2.0] == 16 and mult[-3.0] == 40
    with pytest.raises(ConfigurationError, match="multiplicity"):
        parse_config(MINIMAL + "modes.multiplicities = 2=16\n")


def test_causal_window_gate():
    with pytest.raises(ConfigurationError, match="causal"):
        parse_config(MINIMAL + "time.t_max = 30\n")


def test_inf_exponent():
    cfg = parse_config(MINIMAL + "triples = inf:2\n")
    assert math.isinf(cfg.triples[0].p)


CONFIG_KEYS = ("profile.family", "n", "m", "profile.epsilon", "profile.alpha",
               "profile.beta", "profile.degree", "modes.mu_list", "modes.band_j",
               "modes.mu_max", "modes.multiplicities", "grid.r_max", "grid.n_cells",
               "time.t_max", "time.samples", "triples", "data.center", "data.width",
               "data.amplitude", "data.component", "scan.r_min", "scan.r_max",
               "scan.points", "epsilon_loss", "trials")
CONFIG_VALUES = st.one_of(
    st.text(max_size=12),
    st.integers(-10**9, 10**9).map(str),
    st.floats().map(repr),
    st.sampled_from(["flat", "sinh", "polynomial", "asymptotically_flat", "plus", "1/0",
                     "0/0", "1, -1", "2:0", "4:4, inf:2", "inf:2", "nan", "-inf", "1e308"]),
)
CONFIG_PAIRS = st.dictionaries(st.sampled_from(CONFIG_KEYS), CONFIG_VALUES, max_size=4)


@settings(max_examples=400, deadline=None)
@given(pairs=CONFIG_PAIRS, junk=st.lists(st.text(max_size=24), max_size=1),
       family=st.sampled_from(["", "profile.family = flat", "profile.family = sinh"]))
def test_parse_config_raises_only_configuration_errors(pairs, junk, family):
    """Any text either parses into a RunConfig or raises ConfigurationError."""
    lines = [family, *(f"{key} = {value}" for key, value in pairs.items()), *junk]
    try:
        cfg = parse_config("\n".join(lines))
    except ConfigurationError:
        return
    assert isinstance(cfg, RunConfig)


@pytest.mark.parametrize("line", ["modes.mu_list = 1/0", "modes.multiplicities = 1/0:2",
                                  "scan.r_min = -1", "modes.mu_max = 1e300",
                                  "modes.mu_max = -inf", "modes.band_j = 1000",
                                  "grid.r_max = nan", "time.t_max = -inf",
                                  "modes.mu_max = -5", "modes.mu_max = 0.5"],
                         ids=lambda line: line.replace(" ", ""))
def test_degenerate_values_are_configuration_errors(line):
    with pytest.raises(ConfigurationError):
        parse_config(MINIMAL + line + "\n")


@pytest.mark.parametrize("key", ["aggregate.a", "aggregate.b", "out_dir"])
def test_removed_aggregate_keys_are_unknown(key):
    with pytest.raises(ConfigurationError, match=f"unknown key '{key}'"):
        parse_config(MINIMAL + f"{key} = 1.0\n")


@pytest.mark.parametrize("command", ["check-metric", "evolve"])
def test_cli_rejects_config_without_modes(tmp_path, command):
    cfg = _write(tmp_path, SMALL.replace("modes.mu_list = 1", "modes.mu_max = 0.5"))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 4
    assert not out.exists() or not any(out.iterdir())


def test_canonical_json_shape():
    text = canonical_json({"b": 1.0, "a": [True, None, 0.5], "c": "x\"y"})
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert "5.0000000000000000e-01" in text
    assert canonical_json(float("inf")) == '"inf"'
    assert canonical_json(float("-inf")) == '"-inf"'
    assert canonical_json(float("nan")) == '"nan"'


def _write(tmp_path: Path, text: str) -> str:
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return str(p)


def test_cli_spectrum_csv(tmp_path):
    cfg = _write(tmp_path, MINIMAL + "modes.mu_max = 2\n")
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    raw = (out / "spectrum.csv").read_bytes()
    assert b"\r" not in raw  # LF endings
    lines = raw.decode().strip().split("\n")
    assert lines[0] == "mu,multiplicity,degree_plus,degree_minus,band_j"
    assert len(lines) == 5


def test_cli_check_metric_flat_ok(tmp_path):
    cfg = _write(tmp_path, SMALL)
    out = tmp_path / "out"
    assert main(["check-metric", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "check_metric.json").read_text())
    assert data["all_admissible"] is True


def test_cli_check_metric_sinh_exit_code(tmp_path):
    cfg = _write(tmp_path, "profile.family = sinh\nmodes.mu_list = -1\n")
    out = tmp_path / "out"
    assert main(["check-metric", "--config", cfg, "--out", str(out)]) == 3
    data = json.loads((out / "check_metric.json").read_text())
    assert data["all_admissible"] is False
    assert data["reports"][0]["witness_r"] is not None


def test_cli_configuration_error_writes_nothing(tmp_path):
    cfg = _write(tmp_path, MINIMAL + "time.t_max = 39\n")
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 4
    assert not out.exists()


@pytest.mark.parametrize("command", ["check-metric", "evolve", "strichartz-scan"])
@pytest.mark.parametrize("t_max", ["0", "-2"])
def test_cli_rejects_nonpositive_t_max(tmp_path, capsys, command, t_max):
    cfg = _write(tmp_path, SMALL + f"time.t_max = {t_max}\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 4
    assert "line 6: 'time.t_max' must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    ("grid.r_max = -1", "'grid.r_max' must be positive"),
    ("grid.n_cells = 8", "'grid.n_cells' must be at least 16"),
    ("data.width = 0", "'data.width' must be positive"),
], ids=["r_max", "n_cells", "width"])
def test_cli_out_of_range_value_names_its_key_and_line(tmp_path, capsys, line, message):
    cfg = _write(tmp_path, MINIMAL + line + "\n")
    out = tmp_path / "out"
    assert main(["check-metric", "--config", cfg, "--out", str(out)]) == 4
    assert f"line 3: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["check-metric", "spectrum", "evolve"])
def test_cli_rejects_a_grid_below_the_assembly_minimum(tmp_path, capsys, command):
    """Every command refuses a grid that operator assembly could not use, at its line."""
    cfg = _write(tmp_path, MINIMAL + "grid.n_cells = 8\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 4
    assert "line 3: 'grid.n_cells' must be at least 16" in capsys.readouterr().err
    assert not out.exists()


def test_cli_validate_small(tmp_path):
    cfg = _write(tmp_path, SMALL)
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg, "--out", str(out), "--seed", "1"]) == 0
    data = json.loads((out / "validate.json").read_text())
    assert data["pass"] is True
    assert {e["s"] for e in data["norm_equivalence"]} == {0.0, 0.5, 1.0}


def test_cli_validate_needs_two_ladder_rungs(tmp_path, capsys):
    cfg = _write(tmp_path, SMALL.replace("grid.n_cells = 512", "grid.n_cells = 256"))
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 4
    assert "too small for a refinement ladder" in capsys.readouterr().err
    assert not out.exists()


def test_cli_validate_byte_identical(tmp_path):
    cfg = _write(tmp_path, SMALL)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["validate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["validate", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "validate.json").read_bytes() == (out2 / "validate.json").read_bytes()


def test_cli_evolve_artifacts(tmp_path):
    cfg = _write(tmp_path, SMALL)
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    meta = json.loads((out / "evolve_meta.json").read_text())
    assert meta["modes"][0]["file"] == "trajectory_mu_1.csv"
    assert meta["modes"][0]["norm_drift"] <= 1e-10
    lines = (out / "trajectory_mu_1.csv").read_text().strip().split("\n")
    assert lines[0] == "t,r,re_v_plus,im_v_plus,re_v_minus,im_v_minus"
    assert len(lines) == 1 + 5 * 512


def test_cli_evolve_csv_is_the_trajectory(tmp_path):
    """The trajectory CSV holds every sample of evolve, one row per (time,
    node), each float as its repr; norm_drift is the per-state formula."""
    text = ("profile.family = flat\nmodes.mu_list = 1, -1\ngrid.n_cells = 64\n"
            "time.samples = 3\n")
    out = tmp_path / "out"
    assert main(["evolve", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
    meta = json.loads((out / "evolve_meta.json").read_text())
    cfg = parse_config(text)
    times = np.linspace(0.0, cfg.t_max, cfg.samples)
    initial = cfg.data.realize(cfg.grid)
    for mu, mode in zip((1.0, -1.0), meta["modes"]):
        traj = evolve(assemble_dirac(cfg.profile, mu, cfg.m, cfg.grid), initial, times)
        lines = ["t,r,re_v_plus,im_v_plus,re_v_minus,im_v_minus"]
        for k, t in enumerate(times):
            state = traj.state(k)
            for i, r in enumerate(cfg.grid.nodes):
                cells = (t, r, state.plus[i].real, state.plus[i].imag,
                         state.minus[i].real, state.minus[i].imag)
                lines.append(",".join(repr(float(c)) for c in cells))
        assert mode["file"] == f"trajectory_mu_{mu:g}.csv"
        assert (out / mode["file"]).read_bytes() == ("\n".join(lines) + "\n").encode()
        base = traj.state(0).norm()
        drift = max(abs(traj.state(k).norm() / base - 1.0) for k in range(len(times)))
        assert mode["norm_drift"] == drift


def test_csv_cells_are_repr_or_the_value(tmp_path):
    path = tmp_path / "cells.csv"
    floats = [-0.0, 5e-324, 1e16, 1e-05, 0.1, math.nan, math.inf, -math.inf]
    want = "-0.0,5e-324,1e+16,1e-05,0.1,nan,inf,-inf"
    write_csv_atomic(path, ["a", "b"], [floats + [7, ""], (-3, "x")])
    assert path.read_text() == "a,b\n" + want + ",7,\n-3,x\n"
    write_csv_atomic(path, ["a"], np.array([floats, floats[::-1]]))
    assert path.read_text() == "a\n" + want + "\n" + ",".join(want.split(",")[::-1]) + "\n"


def test_check_metric_and_spectrum_never_load_scipy(tmp_path):
    cfg = _write(tmp_path, "profile.family = asymptotically_flat\nprofile.epsilon = 0.01\n"
                           "modes.mu_max = 2\n")
    script = ("import sys\nimport warpdirac\nfrom warpdirac import cli\n"
              "for command in ('check-metric', 'spectrum'):\n"
              f"    assert cli.main([command, '--config', {cfg!r}, '--out', "
              f"{str(tmp_path / 'out')!r}]) == 0\n"
              "print('scipy' in sys.modules)\n")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, check=True)
    assert result.stdout == "False\n"
    assert (tmp_path / "out" / "check_metric.json").exists()
    assert (tmp_path / "out" / "spectrum.csv").exists()


def test_evolve_and_strichartz_scan_never_load_scipy(tmp_path):
    """Both mode-flow commands on their default n = 3 paths: Chebyshev
    propagation on the full grid (|mu| <= 2) and cut at the centrifugal
    barrier (|mu| = 64), power-series Bessel rows and the DST-I Sobolev
    calculus."""
    flat = _write(tmp_path, SMALL.replace("modes.mu_list = 1", "modes.mu_list = 1, -1, 64"))
    (tmp_path / "af").mkdir()
    af = _write(tmp_path / "af", "profile.family = asymptotically_flat\nprofile.epsilon = 0.01\n"
                                 "modes.mu_list = 1, -1, 2\ntriples = 4:4, inf:2\n"
                                 "grid.n_cells = 512\ntime.samples = 9\n")
    script = ("import sys\nfrom warpdirac import cli\n"
              f"assert cli.main(['evolve', '--config', {flat!r}, '--out', "
              f"{str(tmp_path / 'evolve')!r}]) == 0\n"
              f"assert cli.main(['strichartz-scan', '--config', {af!r}, '--out', "
              f"{str(tmp_path / 'scan')!r}]) == 0\n"
              "print('scipy' in sys.modules)\n")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, check=True)
    assert result.stdout == "False\n"
    assert (tmp_path / "evolve" / "trajectory_mu_-1.csv").exists()
    assert (tmp_path / "evolve" / "trajectory_mu_64.csv").exists()
    assert (tmp_path / "scan" / "strichartz_scan.json").exists()


def test_cli_strichartz_scan(tmp_path):
    cfg = _write(tmp_path, SMALL.replace("modes.mu_list = 1",
                                         "modes.mu_list = 1, 2"))
    out = tmp_path / "out"
    assert main(["strichartz-scan", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "strichartz_scan.json").read_text())
    assert data["scans"][0]["strichartz_slope_ok"] is True
    csv_lines = (out / "strichartz_scan_p4_q4.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "mu,ratio_strichartz,ratio_smoothing"
    assert len(csv_lines) == 3


def test_cli_strichartz_scan_uses_configured_scan_policy(tmp_path, monkeypatch):
    import warpdirac.estimates as estimates

    text = SMALL + "scan.r_min = 1e-4\nscan.r_max = 1e4\nscan.points = 5000\n"
    seen = []
    real = estimates.check_admissible

    def recording(profile, mus, scan=None):
        seen.append(scan)
        return real(profile, mus, scan)

    monkeypatch.setattr(estimates, "check_admissible", recording)
    cfg = _write(tmp_path, text)
    assert main(["strichartz-scan", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert seen == [parse_config(text).scan]
    assert seen[0].points == 5000


def test_cli_missing_config(tmp_path):
    assert main(["spectrum", "--config", str(tmp_path / "absent.cfg")]) == 4


@pytest.mark.parametrize("args", [
    ["spectrum", "--out", "{out}"],
    ["strichartz-scan", "--config", "{cfg}", "--out", "{out}", "--threads", "2"],
    ["validate", "--config", "{cfg}", "--out", "{out}", "--seed", "abc"],
    ["validate", "--config", "{cfg}", "--out", "{out}", "--seed", "-1"],
], ids=["missing-config", "threads", "seed-abc", "seed-negative"])
def test_cli_usage_errors_are_configuration_errors(tmp_path, capsys, args):
    cfg = _write(tmp_path, SMALL)
    out = tmp_path / "out"
    assert main([a.format(cfg=cfg, out=out) for a in args]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["check-metric", "spectrum", "validate", "evolve",
                                     "strichartz-scan"])
def test_cli_help_lists_config_out_seed(capsys, command):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    options = re.findall(r"--[a-z]+", capsys.readouterr().out)
    assert sorted(set(options)) == ["--config", "--help", "--out", "--seed"]
