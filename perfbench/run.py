"""sparsact benchmark: three workloads, each timed in fresh worker processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]  # every workload

Run from the repository root; the program is imported from ./src, and
scratch output goes to ./.bench_build/perfbench. Workers run with BLAS
pinned to one thread. Each workload ends with a JSON line: with --trace 0
it holds the end-to-end metrics, whose times are scaled to the host's
reference speed (see worker.HostSpeed); with --trace 1 the per-layer
metrics of a traced worker, checked bit for bit against an untraced one.
The exit code is 0 only when every request of every workload got its
right answer. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("tensegrity-demo", "chain-prune-hinf", "random-designs")
SETUP_SAMPLES = 5     # set-up is timed in this many processes, median reported
BUDGET_S = 170.0      # a whole run must end within 180 s
TAIL_MIN_SAMPLES = 100  # p90 leaves >= 10 samples beyond it


class WorkerFailed(Exception):
    pass


def _child_env():
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_worker(out, deadline, *args):
    """Run worker.py in a fresh process; return its result with its set-up time added."""
    out.mkdir(parents=True)
    log = out / "worker.log"
    t0 = time.monotonic()
    with open(log, "w") as f:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "--out", str(out), *args],
                cwd=ROOT, env=_child_env(), stdout=f, stderr=subprocess.STDOUT,
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"worker {' '.join(args)} ran past the time budget")
    result = out / "result.json"
    if proc.returncode != 0 or not result.is_file():
        tail = log.read_text()[-4000:]
        raise WorkerFailed(f"worker {' '.join(args)} exited {proc.returncode}:\n{tail}")
    res = json.loads(result.read_text())
    raw = res["first_request"] - t0
    res["setup"] = {"seconds": raw, "scaled_s": raw * res["setup_scale"]}
    return res


def _tail(values):
    """90th percentile when >= 100 samples leave 10 beyond it, else the maximum."""
    if len(values) >= TAIL_MIN_SAMPLES:
        return statistics.quantiles(values, n=10)[-1], f"p90 of {len(values)}"
    return max(values), f"max of {len(values)}"


def _problems(res):
    """Message of every request whose check did not pass; see worker.py."""
    return [r["check"] for r in res["requests"] if r["check"]]


def _times(setups, res, key):
    """Timing metrics, name -> (value, sample note), from the times under `key`."""
    reqs = res["requests"]
    passes = [sum(r[key] for r in reqs if r["pass"] == i) for i in range(len(res["pass_s"]))]
    design = [r[key] for r in reqs if r["kind"] == "design"]
    infeasible = [r[key] for r in reqs if r["kind"] == "infeasible"]
    tail, tail_note = _tail(design)
    return {
        "setup_s": (statistics.median(s[key] for s in setups),
                    f"median of {len(setups)} processes"),
        "wall_s": (statistics.median(passes), f"median of {len(passes)} pass(es)"),
        "design_s.p50": (statistics.median(design), f"median of {len(design)}"),
        "design_s.p90": (tail, tail_note),
        "infeasible_s.p50": (statistics.median(infeasible), f"median of {len(infeasible)}"),
    }


def end_to_end(setups, res):
    """name -> (value, unit, sample note).

    Times are scaled to the host's reference speed (worker.HostSpeed); the
    note gives the same statistic of the raw wall-clock times.
    """
    raw = _times(setups, res, "seconds")
    metrics = {name: (value, "s", f"{note}; wall clock {raw[name][0]:.6g} s")
               for name, (value, note) in _times(setups, res, "scaled_s").items()}
    metrics["peak_rss_mb"] = (res["peak_rss_mb"], "MB", "1 process")
    return metrics


def measure(workload, seed, seconds, trace, out, deadline):
    """Returns (attempted, problems, metrics, machine)."""
    common = ["--workload", workload, "--seed", str(seed)]
    if not trace:
        setups = [run_worker(out / f"setup{i}", deadline, *common, "--setup-only")["setup"]
                  for i in range(SETUP_SAMPLES - 1)]
        res = run_worker(out / "run", deadline, *common, "--seconds", str(seconds))
        metrics = end_to_end(setups + [res["setup"]], res)
        return len(res["requests"]), _problems(res), metrics, res["machine"]

    base = run_worker(out / "untraced", deadline, *common, "--seconds", str(seconds))
    traced = run_worker(out / "traced", deadline, *common,
                        "--passes", str(len(base["pass_s"])), "--trace")
    OUT_ROOT.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(out / "traced" / "spans.json", OUT_ROOT / f"spans-{workload}.json")
    problems = _problems(base) + _problems(traced)
    pairs = list(zip(base["requests"], traced["requests"]))
    if len(base["requests"]) != len(traced["requests"]):
        problems.append("traced and untraced runs made different numbers of requests")
    problems += [f"request {i}: traced output differs from the untraced output"
                 for i, (a, b) in enumerate(pairs) if a["digest"] != b["digest"]]
    layers = traced["layers"]
    layers["trace.overhead_s"] = (statistics.fmean(traced["pass_s"])
                                  - statistics.fmean(base["pass_s"]))
    metrics = {name: (layers[name], unit, note) for name, unit, note in METRICS}
    return len(base["requests"]) + len(traced["requests"]), problems, metrics, base["machine"]


def report(workload, seed, attempted, problems, metrics, machine):
    """Print the metrics; correct is false when any request failed its check."""
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(f"workload {workload} seed {seed}: {attempted} requests, {len(problems)} failed "
          f"(fail_share {len(problems) / attempted:.4g})")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:30s} {value:14.6g} {unit:8s} {note}")
    for msg in problems:
        print(f"FAILED {workload}: {msg}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": len(problems),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _) in metrics.items()}}


def run_workload(workload, seed, seconds, trace):
    """Measure one workload within BUDGET_S, print its result; True if correct."""
    out = OUT_ROOT / f"{workload}-{seed}-{os.getpid()}"
    try:
        res = report(workload, seed, *measure(workload, seed, seconds, trace, out,
                                              time.monotonic() + BUDGET_S))
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps(res), flush=True)
    return res["correct"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload; default: all of them, one after another")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "sparsact" / "__init__.py").is_file():
        print(f"error: no sparsact sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else WORKLOADS
    results = [run_workload(wl, args.seed, args.seconds, bool(args.trace)) for wl in workloads]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
