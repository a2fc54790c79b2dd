"""End-to-end benchmark of the ``warpdirac`` CLI.

    python3 bench/run_bench.py --workload scan_af --seed 1 --seconds 20 --trace 0
    python3 bench/run_bench.py --workload all

Each workload is a fixed list of CLI invocations with generated configs.  A
pass runs them one at a time, each in a fresh process (a closed loop with
one client), then checks every artifact.  Passes repeat while the next one
is expected to finish within ``--seconds``; there is always at least one.
``--trace 1`` adds one traced pass, whose per-layer metrics replace the
end-to-end ones in the result line.  The last line of standard output is
the result as one JSON object; the lines before it are the human report.
Raw numbers, the environment and the generated configs go to
``.bench_out/BENCH_<workload>_seed<seed>_trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7  # set-ups timed per run, topped up with set-up-only probes
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))

sys.path.insert(0, str(BENCH))
from tracer import LAYER_METRICS, layer_metrics  # noqa: E402
from workloads import CHECKS, WORKLOADS  # noqa: E402


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def hang_limit(seconds: float) -> float:
    """Seconds after its own start at which a CLI process is taken to hang and killed.

    It grows with ``--seconds``, so a run asked to measure longer never kills
    an invocation only because the run itself has been going for a while.
    """
    return max(120.0, 6.0 * seconds)


def run_invocation(inv, workdir: Path, seed: int, limit_s: float,
                   setup_only: bool = False, trace: Path | None = None) -> dict:
    """Start one CLI process, wait for it, and return its timings and usage.

    The process is killed if it runs longer than ``limit_s``.
    """
    cfg = workdir / f"{inv.name}.cfg"
    cfg.write_text(inv.config_text(), encoding="utf-8")
    out = workdir / inv.name
    shutil.rmtree(out, ignore_errors=True)
    mark = workdir / f"{inv.name}.mark"
    mark.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "launch.py"), "--mark", str(mark)]
    if setup_only:
        cmd.append("--setup-only")
    if trace is not None:
        cmd += ["--trace", str(trace)]
    cmd += ["--", inv.command, "--config", str(cfg), "--out", str(out), "--seed", str(seed)]
    with open(workdir / f"{inv.name}.stderr", "w", encoding="utf-8") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, env=_child_env(), stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(limit_s, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    setup = float(mark.read_text()) - start if mark.exists() else None
    return {"name": inv.name, "exit": proc.returncode, "wall_s": end - start,
            "setup_s": setup, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "out": out}


def run_pass(invocations, workdir: Path, seed: int, limit_s: float, trace: bool) -> dict:
    """Run every invocation of a workload once and check its artifacts."""
    records, extras, traces = [], {}, []
    for inv in invocations:
        spans = workdir / f"{inv.name}.spans.json" if trace else None
        rec = run_invocation(inv, workdir, seed, limit_s, trace=spans)
        rec["problems"] = []
        if rec["exit"] != inv.expected_exit:
            err = (workdir / f"{inv.name}.stderr").read_text(errors="replace").strip()
            rec["problems"].append(f"exit {rec['exit']}, expected {inv.expected_exit}: {err[-300:]}")
        else:
            try:
                problems, extra = CHECKS[inv.command](rec["out"], inv)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems, extra = [f"artifact check raised {exc!r}"], {}
            rec["problems"] += problems
            extras.update(extra)
        shutil.rmtree(rec.pop("out"), ignore_errors=True)
        if spans is not None:
            traces.append(json.loads(spans.read_text())["spans"] if spans.exists() else [])
        records.append(rec)
    result = {"invocations": records, "extras": extras,
              "wall_s": sum(r["wall_s"] for r in records),
              "cpu_s": sum(r["cpu_s"] for r in records),
              "peak_rss_mb": max(r["rss_mb"] for r in records)}
    if trace:
        result["traces"] = traces
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    invocations = WORKLOADS[workload]
    workdir = OUT / "work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    limit_s = hang_limit(seconds)
    run_start = time.monotonic()
    try:
        passes = []
        while True:
            began = time.monotonic()
            passes.append(run_pass(invocations, workdir, seed, limit_s, trace=False))
            took = time.monotonic() - began
            if time.monotonic() - run_start + took > seconds:
                break
        setups = [r["setup_s"] for p in passes for r in p["invocations"]
                  if r["setup_s"] is not None]
        probes = 0
        while len(setups) < SETUP_SAMPLES:
            rec = run_invocation(invocations[probes % len(invocations)], workdir, seed,
                                 limit_s, setup_only=True)
            shutil.rmtree(rec["out"], ignore_errors=True)
            probes += 1
            if rec["exit"] != 0 or rec["setup_s"] is None:
                break  # the real invocations fail too, and are counted as failed
            setups.append(rec["setup_s"])
        result = {
            "passes": passes,
            "setup_samples": setups,
            "metrics": {
                "wall_s": statistics.median(p["wall_s"] for p in passes),
                "setup_s": len(invocations) * statistics.median(setups or [0.0]),
                "cpu_s": statistics.median(p["cpu_s"] for p in passes),
                "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            },
        }
        if trace:
            traced = run_pass(invocations, workdir, seed, limit_s, trace=True)
            result["traced_pass"] = traced
            result["layers"] = layer_metrics(
                traced.pop("traces"),
                oracle_s=traced["extras"].get("oracle_s", 0.0),
                overhead_s=traced["wall_s"] - result["metrics"]["wall_s"])
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _blas_version(module) -> str | None:
    try:
        deps = module.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError, AttributeError):
        return None
    return deps.get("blas", {}).get("version")


def environment(seed: int, workload: str) -> dict:
    """What the result depends on besides the code under test."""
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=False)
            commit = got.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                   "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_version(numpy),
        "scipy_blas": _blas_version(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
        "seed": seed,
        "configs": {inv.name: inv.config_text() for inv in WORKLOADS[workload]},
    }


def _outcome(result: dict) -> tuple[int, int, list]:
    passes = result["passes"] + ([result["traced_pass"]] if "traced_pass" in result else [])
    records = [r for p in passes for r in p["invocations"]]
    problems = [f"{r['name']}: {msg}" for r in records for msg in r["problems"]]
    return len(records), sum(1 for r in records if r["problems"]), problems


def report(workload: str, seed: int, result: dict, trace: bool, outcome) -> dict:
    """Print the human report and return the contract metrics."""
    attempted, failed, problems = outcome
    n_pass = len(result["passes"])
    n_inv = len(WORKLOADS[workload])
    print(f"== {workload}  seed {seed}  {n_pass} pass(es) of {n_inv} invocation(s)")
    m = result["metrics"]
    print(f"  wall_s        {m['wall_s']:10.3f} s   median of {n_pass} pass(es)")
    print(f"  setup_s       {m['setup_s']:10.3f} s   {n_inv} x median of "
          f"{len(result['setup_samples'])} set-ups")
    print(f"  cpu_s         {m['cpu_s']:10.3f} s   median of {n_pass} pass(es)")
    print(f"  peak_rss_mb   {m['peak_rss_mb']:10.1f} MB  median of {n_pass} pass(es)")
    print(f"  error_rate    {failed / attempted:10.3f}     {failed} of {attempted} invocations")
    oracle = [p["extras"]["oracle_rel_err"] for p in result["passes"]
              if "oracle_rel_err" in p["extras"]]
    if oracle:
        print(f"  oracle_rel_err {statistics.median(oracle):9.3e}     median of {len(oracle)}")
    for msg in problems:
        print(f"  FAILED {msg}")
    if not trace:
        return {name: {"value": m[name], "unit": unit} for name, unit in END_TO_END}
    layers = result["layers"]
    print("  traced pass, per layer:")
    for name, unit in LAYER_METRICS:
        print(f"    {name:40s} {layers[name]:14.6g} {unit}")
    return {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_METRICS}


def _save(workload: str, seed: int, trace: bool, result: dict, env: dict) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"BENCH_{workload}_seed{seed}_trace{int(trace)}.json"
    path.write_text(json.dumps({"env": env, **result}, indent=1, default=str),
                    encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "warpdirac" / "cli.py").is_file():
        print(f"error: no warpdirac sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    trace = bool(args.trace)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = measure(name, args.seed, args.seconds, trace)
        env = environment(args.seed, name)
        outcome = _outcome(result)
        metrics = report(name, args.seed, result, trace, outcome)
        print(f"  env {json.dumps({k: v for k, v in env.items() if k != 'configs'})}")
        print(f"  raw results in {_save(name, args.seed, trace, result, env).relative_to(ROOT)}")
        attempted, failed, _ = outcome
        combined["attempted"] += attempted
        combined["failed"] += failed
        combined["correct"] = combined["correct"] and failed == 0
        if args.workload == "all":
            combined["metrics"].update({f"{name}.{k}": v for k, v in metrics.items()})
        else:
            combined["metrics"] = metrics
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
