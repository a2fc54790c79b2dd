import inspect
import json
import math
import os
import re
import stat
import subprocess
import sys
import time
import tracemalloc
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpdirac import (AdmissibilityReport, Family, MetricProfile, NormScanResult,
                       assemble_dirac, evolve)
from warpdirac import cli
from warpdirac.cli import main
from warpdirac.config import RunConfig, parse_config
from warpdirac.errors import ConfigurationError, NumericalError
from warpdirac.estimates import DEFAULT_EPSILON_LOSS, DEFAULT_SAMPLES, DEFAULT_T_MAX, mu_scan
from warpdirac.evolution import DataTemplate
from warpdirac.operators import (DEFAULT_TRIALS, DiscreteRadialOperator, RadialGrid,
                                 norm_equivalence_check)
from warpdirac.scan import InfimumScanPolicy
from warpdirac.reporting import (canonical_json, write_csv_atomic, write_json_atomic,
                                 write_text_atomic)

SRC = Path(__file__).resolve().parents[1] / "src"
README = Path(__file__).resolve().parents[1] / "README.md"

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
    assert cfg.profile == MetricProfile(Family.FLAT)
    assert cfg.grid == RadialGrid()
    assert cfg.data == DataTemplate()
    assert cfg.scan == InfimumScanPolicy()
    assert cfg.epsilon_loss == DEFAULT_EPSILON_LOSS
    assert (cfg.t_max, cfg.samples, cfg.trials) == (DEFAULT_T_MAX, DEFAULT_SAMPLES,
                                                    DEFAULT_TRIALS)
    # the library functions default to the same values
    scan_params = inspect.signature(mu_scan).parameters
    assert scan_params["t_max"].default == cfg.t_max
    assert scan_params["samples"].default == cfg.samples
    assert inspect.signature(norm_equivalence_check).parameters["trials"].default == cfg.trials


def test_profile_keys_are_checked_for_the_family_that_uses_them():
    assert parse_config(MINIMAL + "profile.degree = 50\nprofile.alpha = 9\n").profile.degree == 50


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
    cfg = parse_config(MINIMAL + "modes.band_j = 1\n")  # [2, 5]: its lower edge filters
    assert sorted(float(m.mu) for m in cfg.modes) == [-5.0, -4.0, -3.0, -2.0,
                                                      2.0, 3.0, 4.0, 5.0]


def test_mu_max_is_an_exact_cap():
    cfg = parse_config(MINIMAL + "modes.mu_max = 2.9999999\n")
    assert sorted(float(m.mu) for m in cfg.modes) == [-2.0, -1.0, 1.0, 2.0]


def test_causal_window_gate():
    """The window is refused at the last-given of the keys that set it."""
    with pytest.raises(ConfigurationError, match="causal"):
        parse_config(MINIMAL + "time.t_max = 30\n")
    with pytest.raises(ConfigurationError,
                       match=r"^line 2: 'grid.r_max' puts time.t_max=8 past the causal window"):
        parse_config("profile.family = flat\ngrid.r_max = 20\n")
    with pytest.raises(ConfigurationError, match=r"^line 3: 'grid.r_max' .* causal"):
        parse_config("profile.family = flat\ntime.t_max = 18\ngrid.r_max = 30\n")


def test_inf_exponent():
    cfg = parse_config(MINIMAL + "triples = inf:2\n")
    assert math.isinf(cfg.triples[0].p)


CONFIG_KEYS = ("profile.family", "n", "m", "profile.epsilon", "profile.alpha",
               "profile.beta", "profile.degree", "modes.mu_list", "modes.band_j",
               "modes.mu_max", "grid.r_max", "grid.n_cells",
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


@pytest.mark.parametrize("key", ["aggregate.a", "aggregate.b", "out_dir",
                                 "modes.multiplicities"])
def test_removed_aggregate_keys_are_unknown(key):
    with pytest.raises(ConfigurationError, match=f"line 3: unknown key '{key}'"):
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
    assert canonical_json({}) == "{}" and canonical_json([]) == "[]"
    assert canonical_json("a\\b\x01") == '"a\\\\b\\u0001"'
    assert canonical_json("a\nb") == '"a\\nb"'
    with pytest.raises(TypeError, match="keys must be strings"):
        canonical_json({1: 0.5})
    with pytest.raises(TypeError, match="cannot serialize"):
        canonical_json(1j)


def test_a_failed_write_leaves_no_file(tmp_path):
    with pytest.raises(UnicodeEncodeError):
        write_text_atomic(tmp_path / "a.json", "\ud800")  # a lone surrogate has no UTF-8
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_artifacts_take_the_mode_that_open_gives(tmp_path, umask):
    previous = os.umask(umask)
    try:
        write_text_atomic(tmp_path / "a.json", "{}\n")
        write_csv_atomic(tmp_path / "b.csv", ["a"], [(1,)])
    finally:
        os.umask(previous)
    for path in tmp_path.iterdir():
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask


def test_artifacts_are_written_without_touching_the_umask(tmp_path, monkeypatch):
    """The process umask is never set, not even for a moment: another thread
    creating a file meanwhile would get none."""

    def refuse(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", refuse)
    write_json_atomic(tmp_path / "a.json", {"x": 0.5})
    write_csv_atomic(tmp_path / "b.csv", ["a"], [(1,)])
    assert (tmp_path / "a.json").read_text() == '{\n  "x": 5.0000000000000000e-01\n}\n'
    assert (tmp_path / "b.csv").read_text() == "a\n1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.csv"]


def test_cli_write_failure_exits_4_and_leaves_no_artifact(tmp_path, capsys):
    """--out naming a file fails at the first write; a directory in the place
    of the second artifact fails after evolve_meta.json is in place, which
    is then removed."""
    cfg = _write(tmp_path, SMALL)
    taken = tmp_path / "taken"
    taken.write_text("x")
    assert main(["spectrum", "--config", cfg, "--out", str(taken)]) == 4
    assert f"cannot write {taken / 'spectrum.csv'}" in capsys.readouterr().err
    assert taken.read_text() == "x"
    out = tmp_path / "out"
    (out / "trajectory_mu_1.csv").mkdir(parents=True)
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 4
    assert f"cannot write {out / 'trajectory_mu_1.csv'}" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["trajectory_mu_1.csv"]
    assert not any((out / "trajectory_mu_1.csv").iterdir())


@pytest.mark.parametrize("existed", [False, True], ids=["new-out", "existing-out"])
def test_cli_failure_after_a_staged_artifact_leaves_no_artifact(tmp_path, monkeypatch, capsys,
                                                                existed):
    """A two-mode evolve whose second flow fails exits 5 after the first
    mode's CSV was staged: no staged file is left, and --out is removed if
    the run created it."""
    calls, staged = [], []

    def failing(*args):
        calls.append(args)
        if len(calls) == 2:
            staged.extend(p.name for p in out.iterdir())
            raise NumericalError("second flow fails")
        return evolve(*args)

    monkeypatch.setattr(cli, "evolve", failing)
    cfg = _write(tmp_path, SMALL.replace("modes.mu_list = 1", "modes.mu_list = 1, 2"))
    out = tmp_path / "out"
    if existed:
        out.mkdir()
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 5
    assert "second flow fails" in capsys.readouterr().err
    assert len(calls) == 2 and len(staged) == 1
    assert staged[0].startswith(".trajectory_mu_1.csv.")
    assert out.exists() == existed
    if existed:
        assert list(out.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["run.cfg"] + (["out"] if existed else []))


def _evolve_peak(tmp_path: Path, mu_max: int) -> int:
    cfg = _write(tmp_path, f"profile.family = flat\nmodes.mu_max = {mu_max}\n"
                           "grid.n_cells = 2048\ntime.samples = 17\n")
    tracemalloc.start()
    try:
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / f"out{mu_max}")]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evolve_holds_one_mode_at_a_time(tmp_path):
    """Each mode's CSV is staged as its flow ends and nothing of the flow is
    kept, so evolve's tracemalloc peak at 2048 cells and 17 samples grows by
    under 0.5 MB from 2 to 6 modes (keeping every mode's table until the
    last write grew it by 6.8 MB)."""
    two, six = (_evolve_peak(tmp_path, mu_max) for mu_max in (1, 3))
    assert len(list((tmp_path / "out3").glob("trajectory_mu_*.csv"))) == 6
    assert six - two < 0.5e6


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


@pytest.mark.parametrize("settings", ["modes.mu_list = 999, 1000, 1024\n", "scan.r_max = 1000\n"],
                         ids=["large-mu", "short-scan"])
def test_cli_check_metric_flat_is_admissible_at_large_mu_and_short_scans(tmp_path, settings):
    """Flat space is admissible however small W is at the top of the scan range."""
    cfg = _write(tmp_path, "profile.family = flat\n" + settings)
    out = tmp_path / "out"
    assert main(["check-metric", "--config", cfg, "--out", str(out)]) == 0
    for rep in json.loads((out / "check_metric.json").read_text())["reports"]:
        assert rep["admissible"] is True and rep["limit_at_infinity_ok"] is True, rep
        assert rep["witness_r"] is None


def test_cli_strichartz_scan_runs_flat_at_mu_1000(tmp_path):
    cfg = _write(tmp_path, "profile.family = flat\nmodes.mu_list = 1000\ngrid.n_cells = 256\n"
                           "time.t_max = 4\ntime.samples = 5\n")
    assert main(["strichartz-scan", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


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


FLAT = "profile.family = flat\n"


@pytest.mark.parametrize("text, message", [
    pytest.param(FLAT + "grid.r_max = -1", "line 2: 'grid.r_max' must be positive", id="r_max"),
    pytest.param(FLAT + "grid.n_cells = 8", "line 2: 'grid.n_cells' must be at least 16",
                 id="n_cells"),
    pytest.param(FLAT + "data.width = 0", "line 2: 'data.width' must be positive", id="width"),
    pytest.param(FLAT + "n = 2", "line 2: 'n' must be at least 3", id="n"),
    pytest.param(FLAT + "profile.epsilon = -1", "line 2: 'profile.epsilon' must be at least 0",
                 id="epsilon"),
    pytest.param(FLAT + "data.component = up",
                 "line 2: 'data.component' must be one of plus, minus", id="component"),
    pytest.param(FLAT + "data.amplitude = 0", "line 2: 'data.amplitude' must be nonzero",
                 id="amplitude"),
    pytest.param(FLAT + "epsilon_loss = -1", "line 2: 'epsilon_loss' must be at least 0",
                 id="epsilon_loss"),
    pytest.param(FLAT + "scan.points = 3", "line 2: 'scan.points' must be at least 16",
                 id="scan_points"),
    pytest.param(FLAT + "modes.band_j = -1", "line 2: 'modes.band_j' must be at least 0",
                 id="band_j_negative"),
    pytest.param(FLAT + "modes.band_j = x", "line 2: 'modes.band_j' must be an integer",
                 id="band_j_word"),
    pytest.param(FLAT + "modes.mu_max = 2000",
                 "line 2: 'modes.mu_max' must lie between (n-1)/2 = 1 and 1024",
                 id="mu_max_above_cap"),
    pytest.param(FLAT + "modes.mu_max = nan", "line 2: 'modes.mu_max' must be a finite number",
                 id="mu_max_nan"),
    pytest.param(FLAT + "modes.mu_max = 0.5",
                 "line 2: 'modes.mu_max' must lie between (n-1)/2 = 1 and 1024",
                 id="mu_max_below_gap"),
    pytest.param(FLAT + "modes.mu_list = 1, x",
                 "line 2: 'modes.mu_list' must list modes of the sphere spectrum "
                 "+-((n-1)/2 + N) for n=3, not 'x'", id="mu_list_word"),
    pytest.param(FLAT + "modes.mu_list = 1.3",
                 "line 2: 'modes.mu_list' must list modes of the sphere spectrum "
                 "+-((n-1)/2 + N) for n=3, not '1.3'", id="mu_list_off_spectrum"),
    pytest.param(FLAT + "modes.mu_list = 1\nmodes.mu_max = 2",
                 "line 3: 'modes.mu_max' cannot be given with 'modes.mu_list': choose exactly "
                 "one of modes.mu_list, modes.band_j, modes.mu_max", id="two_mode_selectors"),
    pytest.param(FLAT + "triples = 4", "line 2: 'triples' has '4', which is not 'p:q'",
                 id="triple_without_colon"),
    pytest.param(FLAT + "triples = 3:3",
                 "line 2: 'triples' has (p=3, q=3), which for m=0 violates the "
                 "admissible-triple scaling rule", id="triple_not_admissible"),
    pytest.param(FLAT + "scan.r_min = 5\nscan.r_max = 1",
                 "line 3: 'scan.r_max' must keep scan.r_min < scan.r_max, got 5 and 1",
                 id="scan_range_reversed"),
    pytest.param(FLAT + "scan.r_min = -1", "line 2: 'scan.r_min' must be positive",
                 id="scan_r_min_negative"),
    pytest.param(FLAT + "scan.r_max = 1e-7",
                 "line 2: 'scan.r_max' must keep scan.r_min < scan.r_max, got 1e-06 and 1e-07",
                 id="scan_r_max_below_default_r_min"),
    pytest.param("profile.family = polynomial\nprofile.degree = 50",
                 "line 2: 'profile.degree' must lie between 2 and 20", id="degree"),
    pytest.param("profile.family = asymptotically_flat\nprofile.alpha = 3",
                 "line 2: 'profile.alpha' must keep 1 <= profile.alpha <= profile.beta <= 12, "
                 "got 3 and 1", id="alpha_above_default_beta"),
    pytest.param("profile.family = asymptotically_flat\nprofile.beta = 13\nprofile.alpha = 2",
                 "line 2: 'profile.beta' must keep 1 <= profile.alpha <= profile.beta <= 12, "
                 "got 2 and 13", id="beta_above_cap"),
    pytest.param("profile.family = torus",
                 "line 1: 'profile.family' must be one of flat, asymptotically_flat, sinh, "
                 "polynomial", id="family"),
])
def test_cli_out_of_range_value_names_its_key_and_line(tmp_path, capsys, text, message):
    cfg = _write(tmp_path, text + "\n")
    out = tmp_path / "out"
    assert main(["check-metric", "--config", cfg, "--out", str(out)]) == 4
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["check-metric", "evolve", "strichartz-scan"])
@pytest.mark.parametrize("mu_list", ["1, 1", "1.0, -1, 2/2"])
def test_cli_rejects_a_mode_listed_twice(tmp_path, capsys, command, mu_list):
    """1, 1.0 and 2/2 are one mode, which a run may list only once."""
    cfg = _write(tmp_path, SMALL.replace("modes.mu_list = 1", f"modes.mu_list = {mu_list}"))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 4
    assert "line 2: 'modes.mu_list' lists mode 1 twice" in capsys.readouterr().err
    assert not out.exists()


def test_readme_configuration_block_sets_every_key():
    """README's example config parses, and its keys, with the modes.*
    alternatives its comment names, are exactly the accepted ones."""
    block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    assert isinstance(parse_config(block), RunConfig)
    keys = re.findall(r"^([\w.]+) *=", block, re.M) + re.findall(r"modes\.\w+", block)
    assert set(keys) == set(CONFIG_KEYS)


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


def test_csv_float_array_is_str_of_each_cell(tmp_path):
    """An array renders each distinct bit pattern of a column once; the bytes
    are str of every cell, across block edges, with -0.0 apart from 0.0."""
    rng = np.random.default_rng(7)
    special = np.array([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
                        -2.5e-310, 2.2250738585072014e-308, 0.1, 1e16, -1e-05])
    cells = rng.choice(special, size=(9000, 3))
    cells[::7, 1] = rng.standard_normal(len(cells[::7]))  # many distinct values
    cells[:, 2] = np.repeat(np.linspace(0.0, 1.0, 9), 1000)  # runs of one value
    path = tmp_path / "floats.csv"
    write_csv_atomic(path, ["a", "b", "c"], cells)
    want = "a,b,c\n" + "".join(",".join(map(str, row)) + "\n" for row in cells.tolist())
    assert path.read_bytes() == want.encode()
    rendered = set(want.replace("\n", ",").split(","))
    assert {"-0.0", "0.0", "nan", "inf", "-inf", "5e-324"} <= rendered


def test_import_pins_one_blas_thread_unless_set():
    """The package sets OPENBLAS_NUM_THREADS to 1 before NumPy loads, so
    OpenBLAS starts no worker thread; a value already set is left alone."""
    script = ("import os, sys\nimport warpdirac\n"
              "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
              "if sys.platform.startswith('linux'):\n"
              "    print(len(os.listdir('/proc/self/task')))\n")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = path
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout == ("1\n1\n" if sys.platform.startswith("linux") else "1\n")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env={**env, "OPENBLAS_NUM_THREADS": "2"}, check=True)
    assert result.stdout.splitlines()[0] == "2"


def test_check_metric_and_spectrum_never_load_scipy(tmp_path):
    """Neither SciPy nor numpy.ma is loaded by the static commands."""
    cfg = _write(tmp_path, "profile.family = asymptotically_flat\nprofile.epsilon = 0.01\n"
                           "modes.mu_max = 2\n")
    script = ("import sys\nimport warpdirac\nfrom warpdirac import cli\n"
              "for command in ('check-metric', 'spectrum'):\n"
              f"    assert cli.main([command, '--config', {cfg!r}, '--out', "
              f"{str(tmp_path / 'out')!r}]) == 0\n"
              "print('scipy' in sys.modules, 'numpy.ma' in sys.modules)\n")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, check=True)
    assert result.stdout == "False False\n"
    assert (tmp_path / "out" / "check_metric.json").exists()
    assert (tmp_path / "out" / "spectrum.csv").exists()


def test_evolve_and_strichartz_scan_never_load_scipy(tmp_path):
    """Both mode-flow commands at n = 3 and n = 5: Chebyshev propagation on
    the full grid (|mu| <= 2) and cut at the centrifugal barrier
    (|mu| = 64), power-series Bessel rows, and the Sobolev calculus by the
    DST-I (n = 3) and by the resolvent quadrature (n = 5, where H0 has a
    potential).  The slope fit loads no numpy.ma either (np.unique would)."""
    flat = _write(tmp_path, SMALL.replace("modes.mu_list = 1", "modes.mu_list = 1, -1, 64"))
    runs = [("evolve", flat, "evolve")]
    for n, mus, triples in ((3, "1, -1, 2", "4:4, inf:2"),
                            (5, "2, -2, 3", "4:2.6666666666666667, inf:2")):
        (tmp_path / f"af{n}").mkdir()
        af = _write(tmp_path / f"af{n}",
                    "profile.family = asymptotically_flat\nprofile.epsilon = 0.01\n"
                    f"modes.mu_list = {mus}\ntriples = {triples}\n"
                    f"grid.n_cells = 512\ntime.samples = 9\nn = {n}\n")
        runs.append(("strichartz-scan", af, f"scan{n}"))
    (tmp_path / "flat5").mkdir()
    runs.append(("evolve", _write(tmp_path / "flat5", SMALL.replace(
        "modes.mu_list = 1", "modes.mu_list = 2, -3") + "n = 5\n"), "evolve5"))
    script = "import sys\nfrom warpdirac import cli\n"
    for command, cfg, out in runs:
        script += (f"assert cli.main([{command!r}, '--config', {cfg!r}, '--out', "
                   f"{str(tmp_path / out)!r}]) == 0\n")
    script += "print('scipy' in sys.modules, 'numpy.ma' in sys.modules)\n"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, check=True)
    assert result.stdout == "False False\n"
    assert (tmp_path / "evolve" / "trajectory_mu_-1.csv").exists()
    assert (tmp_path / "evolve" / "trajectory_mu_64.csv").exists()
    assert (tmp_path / "evolve5" / "trajectory_mu_-3.csv").exists()
    for n in (3, 5):
        assert (tmp_path / f"scan{n}" / "strichartz_scan.json").exists()


AF_VALIDATE = ("profile.family = asymptotically_flat\nprofile.epsilon = 0.01\n"
               "modes.mu_max = 2\ngrid.n_cells = 512\ntrials = 20\nn = {n}\n")


def test_validate_never_loads_scipy(tmp_path):
    """validate's norm equivalence takes its quadratic forms from the bands,
    so neither n = 3 nor n = 5 (where H0 has a potential) loads SciPy, nor
    numpy.ma."""
    script = "import sys\nfrom warpdirac import cli\n"
    for n in (3, 5):
        (tmp_path / f"n{n}").mkdir()
        cfg = _write(tmp_path / f"n{n}", AF_VALIDATE.format(n=n))
        script += (f"assert cli.main(['validate', '--config', {cfg!r}, '--out', "
                   f"{str(tmp_path / f'out{n}')!r}]) == 0\n")
    script += "print('scipy' in sys.modules, 'numpy.ma' in sys.modules)\n"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, check=True)
    assert result.stdout == "False False\n"
    for n in (3, 5):
        assert json.loads((tmp_path / f"out{n}" / "validate.json").read_text())["pass"] is True


@pytest.mark.parametrize("n", [3, 5])
def test_validate_calls_no_eigensolver(tmp_path, monkeypatch, n):
    def refuse(self):
        raise AssertionError("validate called eigh")

    monkeypatch.setattr(DiscreteRadialOperator, "eigh", refuse)
    cfg = _write(tmp_path, AF_VALIDATE.format(n=n))
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


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


def test_cli_numerical_failure_exits_5_and_writes_nothing(tmp_path):
    """A mode of mu = 1e154 overflows -4 r^3 W' = 8 mu^2 at r -> 0 on flat:
    exit 5, no artifact, and one line that names the mode."""
    cfg = _write(tmp_path, "profile.family = flat\nmodes.mu_list = 1e154\n"
                           "scan.points = 2000\n")
    out = tmp_path / "out"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "warpdirac.cli", "check-metric",
                             "--config", cfg, "--out", str(out)], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 5
    assert result.stderr == ("numerical error: the admissibility terms of mode mu=1e+154 "
                             "overflow: they reach 8 mu^2 at r -> 0, past the largest double\n")
    assert not out.exists()


def test_main_freezes_the_heap_at_exit(tmp_path):
    """main registers gc.freeze with atexit once per process, however often
    it runs: a handler registered before main runs after it, once, and sees
    the heap frozen."""
    cfg = _write(tmp_path, "profile.family = flat\nmodes.mu_max = 2\n")
    script = (
        "import atexit, gc, sys\n"
        "from warpdirac import cli\n"
        "freeze, calls = gc.freeze, []\n"
        "gc.freeze = lambda: calls.append(freeze())\n"
        "atexit.register(lambda: print(len(calls), gc.get_freeze_count() > 0))\n"
        "for k in range(2):\n"
        "    assert cli.main(['spectrum', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script, cfg, str(tmp_path / "out")],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert (result.returncode, result.stderr, result.stdout) == (0, "", "1 True\n")


@pytest.mark.parametrize("command, keys, code, message", [
    ("evolve", {"m": "-1e300"}, 5, "the Chebyshev series needs rho |t| = 8e+300, past 1e+07"),
    ("strichartz-scan", {"m": "-1e300", "modes.mu_list": "1, 2"}, 5,
     "the Chebyshev series needs rho |t| = 8e+300, past 1e+07"),
    ("strichartz-scan", {"m": "1e12", "modes.mu_list": "1, 2"}, 5,
     "the Chebyshev series needs rho |t| = 8e+12, past 1e+07"),
    ("evolve", {"m": "1e6"}, 5,
     "the Chebyshev series needs rho |t| = 8e+06, past its budget of 1e+06 terms"),
    ("validate", {"profile.family": "sinh", "grid.n_cells": "512", "grid.r_max": "800"}, 5,
     "the kg_minus potential is not finite at r = 710.938"),
    ("validate", {"grid.n_cells": "512", "grid.r_max": "1e300"}, 5,
     "numerical error: the grid spacing dr = 3.90625e+297 (r_max / n_cells) squares past "
     "the largest double"),
    ("evolve", {"grid.n_cells": "512", "grid.r_max": "1e300"}, 4,
     "the datum of width 1.5 samples as zero on the grid (dr = 1.95313e+297)"),
    ("check-metric", {"modes.mu_list": "1e160"}, 5,
     "numerical error: the admissibility terms of mode mu=1e+160 overflow"),
    ("check-metric", {"modes.mu_list": "1e154"}, 5,
     "numerical error: the admissibility terms of mode mu=1e+154 overflow"),
    ("check-metric", {"modes.mu_list": "6.7e153"}, 5,
     "numerical error: the admissibility terms of mode mu=6.7e+153 overflow"),
    ("strichartz-scan", {"modes.mu_list": "1e160, 2"}, 5,
     "numerical error: the admissibility terms of mode mu=1e+160 overflow"),
    ("check-metric", {"profile.family": "asymptotically_flat", "profile.epsilon": "1e3",
                      "profile.alpha": "12", "profile.beta": "12",
                      "modes.mu_list": "4.7e153", "scan.points": "2000"}, 5,
     "numerical error: the admissibility terms of mode mu=4.7e+153 are not finite at r=0.3575"),
    ("evolve", {"data.width": "0.01", "grid.n_cells": "16"}, 4,
     "the datum of width 0.01 samples as zero on the grid (dr = 2.5)"),
    ("strichartz-scan", {"data.width": "0.01", "grid.n_cells": "16", "modes.mu_list": "1, 2"},
     4, "the datum of width 0.01 samples as zero on the grid (dr = 2.5)"),
], ids=["negative-huge-mass", "negative-huge-mass-scan", "huge-mass", "over-budget-mass",
        "sinh-overflow", "huge-radius", "huge-radius-evolve", "huge-mode", "mode-1e154",
        "mode-6.7e153", "huge-mode-scan", "mode-4.7e153-on-the-grid",
        "zero-datum-evolve", "zero-datum-scan"])
def test_cli_out_of_range_runs_exit_with_their_code(tmp_path, command, keys, code, message):
    """A mass past the Bessel series' checked range of rho |t| or past its term
    budget, a potential that overflows, a radius whose dr^2 overflows, a mode
    whose mu^2 overflows at r -> 0 or only on the scan grid, and a datum that
    the grid samples as zero end in a documented exit code with one error
    line that names the value: no traceback, no artifact (so no NaN norm
    drift).  Each is a process of its own under python -W error, so a NumPy
    warning on the way (a huge mass applied to the datum, sinh's overflow, a
    datum sampled at r = 1e300, a mode's terms overflowing on the scan grid)
    would end it with a traceback."""
    result, out = _run_warning_free(tmp_path, command, keys)
    assert result.returncode == code, result.stderr
    (line,) = result.stderr.splitlines()
    assert message in line
    assert not out.exists()


def test_over_budget_flow_is_refused_within_a_second(tmp_path):
    """Flat evolve at m = 1e6 on 128 cells to t = 8 (rho t about 8e6, far past
    the 1e6-term budget) is refused before its first product, at once."""
    cfg = _write(tmp_path, "profile.family = flat\nmodes.mu_list = 1\ngrid.n_cells = 128\n"
                           "time.samples = 3\nm = 1e6\n")
    start = time.perf_counter()
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "out")]) == 5
    assert time.perf_counter() - start < 1.0
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, keys, code", [
    ("check-metric", {"profile.family": "asymptotically_flat", "scan.r_max": "1e200"}, 0),
    ("check-metric", {"profile.family": "polynomial", "profile.degree": "20",
                      "scan.r_max": "1e200"}, 3),
    ("check-metric", {"profile.family": "sinh", "scan.r_max": "1e300"}, 3),
    ("check-metric", {"profile.family": "asymptotically_flat", "profile.epsilon": "1e300"}, 3),
    ("strichartz-scan", {"profile.family": "asymptotically_flat", "profile.epsilon": "1e300"},
     3),
    ("validate", {"profile.family": "asymptotically_flat", "profile.epsilon": "1e300",
                  "grid.n_cells": "2048"}, 0),
], ids=["af-r_max-1e200", "degree-20-r_max-1e200", "sinh-r_max-1e300", "af-eps-1e300",
        "af-eps-1e300-scan", "af-eps-1e300-validate"])
def test_huge_radii_and_amplitudes_keep_their_verdicts(tmp_path, command, keys, code):
    """The profile ratios are bounded at every radius and amplitude, so these
    runs end with the verdict of a moderate value and no warning under
    python -W error; strichartz-scan refuses an inadmissible mode with one
    error line and writes nothing.  At eps = 1e300 the failure of delta_phi
    sits near r = 1/eps, where the admissibility grid, begun at
    r_min / eps, finds it on the default scan policy."""
    keys = {"modes.mu_list": "1, 2", **keys}
    result, out = _run_warning_free(tmp_path, command, keys)
    assert result.returncode == code, result.stderr
    if command == "strichartz-scan":
        (line,) = result.stderr.splitlines()
        assert "is not admissible" in line
        assert not out.exists()
    else:
        assert result.stderr == ""
        assert out.exists()


@pytest.mark.parametrize("command, r_max", [("evolve", 500), ("validate", 500),
                                            ("evolve", 800)])
def test_sinh_runs_past_the_overflow_radius_print_nothing(tmp_path, command, r_max):
    """sinh's phi^2 is inf from r ~ 355 and phi from r ~ 710, correctly rounded:
    under python -W error these runs still exit 0 with nothing on stderr."""
    result, out = _run_warning_free(tmp_path, command, {
        "profile.family": "sinh", "grid.n_cells": "512", "grid.r_max": str(r_max)})
    assert (result.returncode, result.stderr) == (0, "")
    assert out.exists()


def _run_warning_free(tmp_path, command, keys):
    """One CLI process under python -W error on a small flat config updated by keys."""
    keys = {"profile.family": "flat", "modes.mu_list": "1", "grid.n_cells": "128",
            "time.samples": "3", **keys}
    text = "".join(f"{key} = {value}\n" for key, value in keys.items())
    out = tmp_path / "out"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-W", "error", "-m", "warpdirac.cli", command,
                             "--config", _write(tmp_path, text), "--out", str(out)],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, timeout=120)
    return result, out


def test_artifact_records_are_written_whole(tmp_path):
    """Every check-metric report and strichartz-scan scan holds exactly the
    fields of its record, and the grid and data blocks of evolve and validate
    are those of the configuration."""
    text = SMALL + "scan.points = 2000\n"
    cfg = parse_config(text)
    for command in ("check-metric", "evolve", "validate"):
        assert main([command, "--config", _write(tmp_path, text),
                     "--out", str(tmp_path / command)]) == 0
    reports = json.loads((tmp_path / "check-metric" / "check_metric.json").read_text())["reports"]
    assert [set(r) for r in reports] == [{f.name for f in fields(AdmissibilityReport)}]
    meta = json.loads((tmp_path / "evolve" / "evolve_meta.json").read_text())
    assert meta["data"] == asdict(cfg.data) and meta["grid"] == asdict(cfg.grid)
    assert json.loads((tmp_path / "validate" / "validate.json").read_text())["grid"] \
        == asdict(cfg.grid)

    for k, mu_list in enumerate(("1, 2", "1, -1")):  # |mu| = 1 twice fits no slope
        out = tmp_path / f"scan{k}"
        scan_text = text.replace("modes.mu_list = 1", f"modes.mu_list = {mu_list}")
        assert main(["strichartz-scan", "--config", _write(tmp_path, scan_text),
                     "--out", str(out)]) == 0
        (scan,) = json.loads((out / "strichartz_scan.json").read_text())["scans"]
        assert set(scan) == {f.name for f in fields(NormScanResult)}
        for kind in ("strichartz", "smoothing"):
            slope = scan[f"{kind}_slope"]
            assert (slope is None) == (k == 1)
            want = None if slope is None else slope <= scan[f"{kind}_slope_limit"]
            assert scan[f"{kind}_slope_ok"] is want


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
