"""Which functions of the package no command runs.

Thirteen small CLI invocations run in this process under ``sys.setprofile``:
every subcommand on small grids, and four runs that fail with exit codes
3, 4 and 5.  Every ``def`` in ``src/warpdirac`` is named by its qualname in the
source and matched to the code objects that ran by its first line, which
for a decorated ``def`` is its first decorator's line (``co_firstlineno``).
The ``def``s that never ran must be exactly NEVER_RUN: the flat oracle and
the dense references, which the benchmark still uses, and the paper's
explicit condition on the metric.  A reference that only tests use lives in
``tests/references.py``.  Anything else that no command runs is either a command path that lost its
caller or code to delete.

The package's modules import each other at module level only: a ``def``
that imports a package module hides an import cycle.
"""

import ast
import importlib
import sys
from pathlib import Path

import warpdirac
from warpdirac import cli

PACKAGE = Path(warpdirac.__file__).resolve().parent

NEVER_RUN = {
    # the flat oracle, which the benchmark's evolve check imports
    "evolution.FlatBesselOracle.__init__",
    "evolution.FlatBesselOracle.propagate",
    "evolution.bessel_orders",
    # dense references, which the benchmark's tracer hooks
    "operators.DiscreteRadialOperator.matrix",
    "operators.DiscreteRadialOperator.eigh",
    # the paper's explicit sufficient condition on the metric
    "profiles._phi1_terms",
    "profiles.profile_constants",
    "profiles.check_A2",
}

_SCAN = "profile.family = {family}\nn = {n}\ngrid.n_cells = 256\ntriples = {triples}\n"
_SMALL_SCAN = "scan.points = 2000\n"
# (arguments after the subcommand's --config/--out, config text, exit code)
INVOCATIONS = {
    "strichartz-scan": [
        ([], _SCAN.format(family="asymptotically_flat", n=3, triples="4:4, inf:2")
         + "modes.mu_list = 1, -1, 2\n" + _SMALL_SCAN, 0),
        ([], _SCAN.format(family="asymptotically_flat", n=5, triples="inf:2")
         + "modes.mu_list = 2, -2, 3\n" + _SMALL_SCAN, 0),
        ([], _SCAN.format(family="sinh", n=3, triples="4:4") + _SMALL_SCAN, 3),
    ],
    "evolve": [
        ([], "profile.family = asymptotically_flat\nm = 0.7\nmodes.mu_list = 64, 1\n"
             "grid.n_cells = 256\n", 0),
        ([], "profile.family = flat\ngrid.n_cells = 256\n", 0),
    ],
    "spectrum": [
        ([], "profile.family = flat\nmodes.band_j = 2\n", 0),
        (["--bogus"], "profile.family = flat\n", 4),
    ],
    "check-metric": [
        *(([], f"profile.family = {family}\n{_SMALL_SCAN}", code)
          for family, code in (("sinh", 3), ("polynomial", 3), ("asymptotically_flat", 0))),
        # a mode whose terms overflow on the scan grid, and not at r -> 0
        ([], "profile.family = asymptotically_flat\nprofile.epsilon = 1e3\nprofile.alpha = 12\n"
             "profile.beta = 12\nmodes.mu_list = 4.7e153\n" + _SMALL_SCAN, 5),
    ],
    "validate": [
        (["--seed", "1"], "profile.family = asymptotically_flat\ngrid.n_cells = 512\n"
                          "trials = 8\n" + _SMALL_SCAN, 0),
        ([], "profile.family = flat\ngrid.n_cells = 8\n", 4),
    ],
}


def _defs() -> dict:
    """{(source file, first line): 'module.qualname'} for every def in the package."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(path, first)] = f"{path.stem}.{prefix}{child.name}"
                    visit(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def test_every_def_outside_the_pinned_ones_runs_under_a_command(tmp_path, capsys):
    codes, ran = [], set()

    def record(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    runs = [(command, extra, text, code) for command, cases in INVOCATIONS.items()
            for extra, text, code in cases]
    assert len(runs) == 13
    sys.setprofile(record)
    try:
        for k, (command, extra, text, _) in enumerate(runs):
            config = tmp_path / f"run{k}.cfg"
            config.write_text(text, encoding="utf-8")
            codes.append(cli.main([command, "--config", str(config),
                                   "--out", str(tmp_path / f"out{k}"), *extra]))
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [code for *_, code in runs]

    started = {(Path(c.co_filename).resolve(), c.co_firstlineno) for c in ran}
    never = {name for key, name in _defs().items() if key not in started}
    assert never == NEVER_RUN

    # every exported name resolves, in each module and at the package root
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"warpdirac.{path.stem}".removesuffix(".__init__"))
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists {name}"
    root = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    for node in root.body:
        if isinstance(node, ast.ImportFrom):
            source = importlib.import_module(f"warpdirac.{node.module}")
            for alias in node.names:
                assert hasattr(source, alias.name) and hasattr(warpdirac, alias.name)


def test_no_def_imports_a_package_module():
    """SciPy's imports inside the functions that call it are the only
    function-level imports; a package module is imported at the top."""
    inside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for stmt in ast.walk(node):
                if isinstance(stmt, ast.ImportFrom):
                    names = [stmt.module or ""] if not stmt.level else ["."]
                elif isinstance(stmt, ast.Import):
                    names = [alias.name for alias in stmt.names]
                else:
                    continue
                if any(name == "." or name.split(".")[0] == "warpdirac" for name in names):
                    inside.append(f"{path.stem}.{node.name}, line {stmt.lineno}")
    assert inside == []
