"""One benchmark workload, run in a fresh process started by run.py.

Usage: worker.py --workload NAME --seed N --out DIR (--seconds S | --passes K)
                 [--trace] [--setup-only]

Set-up (imports, seeded inputs, plant JSON) ends at the first timed
request. The worker then repeats the workload's pass, its fixed list of
requests, until S seconds have been measured, or until K passes are done.
Untraced, it times a reference kernel twice a second to follow the host's
speed (see HostSpeed). The outputs are checked only after the last pass. The
result, with per-request latencies, check failures and output digests,
goes to DIR/result.json.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy

from sparsact import analysis, cli, joint, outputfb, statefb
from sparsact.bench import MassSpringChain, TensegrityApprox
from sparsact.errors import InfeasiblePerformance
from sparsact.joint import JointSpec
from sparsact.model import GeneralizedPlant, save_plant, validate_plant
from sparsact.statefb import SfSynthesisSpec

import tracer as tracing

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

# A check returns None when the request was answered correctly, else a
# message. Every request has one right outcome, a certified design or a
# certified infeasibility; any other outcome, an error of any kind
# included, fails the check.


# ---------------------------------------------------------------------------
# independent checks


def closed_loop(plant, ctrl):
    """(A, B, C, D) of the disturbance-to-output map, assembled here.

    `ctrl` holds either K (state feedback) or AK, BK, CK, DK (output
    feedback) as arrays. Deliberately not sparsact.model's interconnection,
    so that a defect there cannot hide from the check.
    """
    if "K" in ctrl:
        K = ctrl["K"]
        return plant.A + plant.Bu @ K, plant.Bw, plant.Cz + plant.Du @ K, plant.Dw
    AK, BK, CK, DK = (ctrl[k] for k in ("AK", "BK", "CK", "DK"))
    A = np.block([[plant.A + plant.Bu @ DK @ plant.Cy, plant.Bu @ CK],
                  [BK @ plant.Cy, AK]])
    B = np.vstack([plant.Bw + plant.Bu @ DK @ plant.Dyw, BK @ plant.Dyw])
    C = np.hstack([plant.Cz + plant.Du @ DK @ plant.Cy, plant.Du @ CK])
    D = plant.Dw + plant.Du @ DK @ plant.Dyw
    return A, B, C, D


def independent_norm(plant, ctrl, kind):
    norm = analysis.h2_norm if kind == "h2" else analysis.hinf_norm
    return norm(closed_loop(plant, ctrl)).value


def _select(plant, acts, sens):
    return SimpleNamespace(A=plant.A, Bu=plant.Bu[:, acts], Bw=plant.Bw, Cz=plant.Cz,
                           Du=plant.Du[:, acts], Dw=plant.Dw, Cy=plant.Cy[sens, :],
                           Dyw=plant.Dyw[sens, :])


def _digest(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# workloads


class CliWorkload:
    """One sparsify design, then a certified-infeasible request, via sparsact.cli.

    The refused request is repeated REFUSALS times, so that its median
    rests on a few seconds of samples rather than on one short burst. Each
    request writes into its own directory so that every output can be
    checked after the timed section.
    """

    def __init__(self, name, seed, out):
        self.seed, self.out = seed, out
        self.ref = REFERENCE[name]
        self.plant = self.build_plant()
        self.plant_json = str(out / "plant.json")
        save_plant(self.plant, self.plant_json)

    def requests(self, i):
        base = self.out / f"pass{i}"
        refused = [("infeasible", ["synth", "--model", self.plant_json,
                                   "--mode", self.ref["infeasible_mode"],
                                   "--gamma0", repr(self.ref["infeasible_gamma0"]),
                                   "--out", str(base / f"infeasible{k}")])
                   for k in range(self.REFUSALS)]
        return [("design", self.design_argv(str(base / "design")))] + refused

    def run_pass(self, i, tracer):
        records = []
        for k, (kind, argv) in enumerate(self.requests(i)):
            rc = error = None
            t = time.perf_counter()
            if tracer:
                tracer.request = f"{i}:{k}"
                idx = tracer.open("cli.main", "cli")
            try:
                rc = cli.main(argv)
            except Exception:  # a failed request, reported by check()
                error = traceback.format_exc()
            if tracer:
                tracer.close(idx)
            seconds = time.perf_counter() - t
            records.append(SimpleNamespace(kind=kind, start=t, seconds=seconds, rc=rc,
                                           error=error,
                                           dir=Path(argv[argv.index("--out") + 1])))
        return records

    def check(self, rec):
        if rec.error is not None:
            return rec.error
        if rec.kind == "infeasible":
            return None if rec.rc == 2 else f"infeasible request exited {rec.rc}, not 2"
        if rec.rc != 0:
            return f"design exited {rec.rc}, not 0; see the worker log"
        ref = self.ref
        res = json.loads((rec.dir / "result.json").read_text())
        for key in ("gamma0", "kept_actuators", "kept_sensors", "iterations", "stop_reason"):
            if key in ref and res.get(key) != ref[key]:
                return f"{key} {res.get(key)!r} differs from the reference {ref[key]!r}"
        ctrl = {k: np.array(v, dtype=float)
                for k, v in json.loads((rec.dir / "controller.json").read_text()).items()}
        plant = _select(self.plant, res["kept_actuators"], res["kept_sensors"])
        norm = independent_norm(plant, ctrl, ref["norm_kind"])
        if not norm < ref["gamma0"]:
            return f"recomputed norm {norm!r} is not below {ref['gamma0']}"
        if abs(norm - ref["norm"]) > REFERENCE["norm_rtol"] * ref["norm"]:
            return f"recomputed norm {norm!r} differs from the reference {ref['norm']!r}"
        if "simulation_rows" in ref:
            sim = np.loadtxt(rec.dir / "simulation.csv", delimiter=",", skiprows=1, ndmin=2)
            if sim.shape != (ref["simulation_rows"], 1 + len(res["kept_actuators"])) \
                    or not np.all(np.isfinite(sim)):
                return f"simulation.csv has shape {sim.shape} or non-finite entries"
        return None

    def digest(self, rec):
        files = sorted(rec.dir.iterdir()) if rec.dir.is_dir() else []
        return _digest(rec.rc, *[(f.name, f.read_bytes()) for f in files])


class TensegrityDemo(CliWorkload):
    """The paper's joint H2 design at gamma0 = 0.42, loop capped at 3 outer iterations."""

    REFUSALS = 3  # about 3.5 s each

    def build_plant(self):
        return TensegrityApprox().build()

    def design_argv(self, out):
        return ["demo", "--family", "tensegrity", "--reweight-max", "3", "--nonlinear-sim",
                "--seed", str(self.seed), "--out", out]


class ChainPruneHinf(CliWorkload):
    """Joint H-infinity prune of a five-mass chain; the loop stops on its own."""

    REFUSALS = 4  # about 0.6 s each

    def build_plant(self):
        return MassSpringChain(5).build()

    def design_argv(self, out):
        return ["prune", "--model", self.plant_json, "--mode", "joint-hinf",
                "--gamma0", repr(self.ref["gamma0"]), "--out", out]


MODES = ("sf-hinf", "sf-h2", "of-hinf", "of-h2", "joint-hinf", "joint-h2")
SYNTH = {"sf": (statefb, "synth_sf"), "of": (outputfb, "synth_of"),
         "joint": (joint, "synth_joint")}


def random_plant(rng, nx, dw_zero, stable_margin=0.5):
    """Random well-posed plant with two of each signal; the test suite's recipe."""
    for _ in range(50):
        A = rng.standard_normal((nx, nx))
        A = A - (np.max(np.linalg.eigvals(A).real) + stable_margin) * np.eye(nx)
        plant = GeneralizedPlant(
            A=A,
            Bu=rng.standard_normal((nx, 2)),
            Bw=rng.standard_normal((nx, 2)),
            Cz=rng.standard_normal((2, nx)),
            Du=0.3 * rng.standard_normal((2, 2)),
            Dw=np.zeros((2, 2)) if dw_zero else 0.1 * rng.standard_normal((2, 2)),
            Cy=rng.standard_normal((2, nx)),
            Dyw=np.zeros((2, 2)))
        if not validate_plant(plant):
            return plant
    raise RuntimeError("could not generate a well-posed random plant")


class RandomDesigns:
    """Small random plants, one design each, over all six modes.

    A batch is 30 requests: every mode at every state dimension nx =
    2..6, so batches differ only in their random matrices. For one
    H-infinity mode per nx the plant gets Dw != 0 and gamma0 = 0.5
    sigma_max(Dw), which no controller can meet: those five requests must
    come back certified infeasible. The others ask for 1.3 times the
    open-loop norm plus 0.1, which the zero controller already meets.
    A pass is the same BATCHES batches, made at set-up, every time, so
    that each pass times the same requests however fast it runs; one pass
    gives 200 feasible latencies, 20 of them beyond the 90th percentile.

    The plants are drawn from POOL_SEED, not from the run's seed, so
    every run times the same 240 requests. Pools drawn from other seeds
    hit an of-hinf solver defect now and then (see README.md, "Known
    failures of the program").
    """

    SIZES = range(2, 7)
    BATCHES = 8
    POOL_SEED = 0

    def __init__(self, name, seed, out):
        rng = np.random.default_rng(self.POOL_SEED)
        hinf = [m for m in MODES if m.endswith("hinf")]
        self.pool = [self._request(rng, nx, mode,
                                   mode in hinf and (nx + hinf.index(mode)) % 3 == 0)
                     for _ in range(self.BATCHES) for nx in self.SIZES for mode in MODES]

    @staticmethod
    def _request(rng, nx, mode, infeasible):
        family, kind = mode.split("-")
        plant = random_plant(rng, nx, dw_zero=not infeasible)
        if infeasible:
            gamma0 = 0.5 * float(np.linalg.norm(plant.Dw, 2))
        else:
            norm = analysis.h2_norm if kind == "h2" else analysis.hinf_norm
            gamma0 = 1.3 * norm((plant.A, plant.Bw, plant.Cz, plant.Dw)).value + 0.1
        spec_type = JointSpec if family == "joint" else SfSynthesisSpec
        return SimpleNamespace(mode=mode, family=family, kind=kind, plant=plant,
                               gamma0=gamma0, infeasible=infeasible,
                               spec=spec_type(plant=plant, performance_kind=kind, gamma0=gamma0))

    def run_pass(self, i, tracer):
        records = []
        for j, req in enumerate(self.pool):
            module, attr = SYNTH[req.family]
            synthesize = getattr(module, attr)  # looked up per call: the tracer patches it
            if tracer:
                tracer.request = f"{i}:{j}"
            result = refusal = error = None
            t = time.perf_counter()
            try:
                result = synthesize(req.spec)
            except InfeasiblePerformance as exc:
                refusal = str(exc)
            except Exception:  # a failed request, reported by check()
                error = traceback.format_exc()
            seconds = time.perf_counter() - t
            # keep only what the checks need, so that memory does not grow with passes
            records.append(SimpleNamespace(
                kind="infeasible" if req.infeasible else "design", start=t, seconds=seconds,
                req=req,
                ctrl=self._controller(result) if result else None,
                norm=result.verified_closed_loop.value if result else None,
                refusal=refusal, error=error))
        return records

    @staticmethod
    def _controller(result):
        if hasattr(result, "K"):
            return {"K": result.K.K}
        c = result.controller
        return {"AK": c.AK, "BK": c.BK, "CK": c.CK, "DK": c.DK}

    def check(self, rec):
        req = rec.req
        if rec.error is not None:
            return f"{req.mode} nx={req.plant.nx}: {rec.error}"
        if req.infeasible:
            if rec.refusal is not None:
                return None
            return f"{req.mode}: expected certified infeasibility, got a design"
        if rec.refusal is not None:
            return f"{req.mode}: feasible request refused: {rec.refusal}"
        norm = independent_norm(req.plant, rec.ctrl, req.kind)
        if not norm < req.gamma0:
            return f"{req.mode}: recomputed norm {norm!r} is not below {req.gamma0!r}"
        return None

    def digest(self, rec):
        if rec.ctrl is None:
            return _digest(rec.req.mode, rec.refusal, rec.error)
        arrays = [np.ascontiguousarray(a).tobytes() for a in rec.ctrl.values()]
        return _digest(rec.req.mode, rec.norm, *arrays)


WORKLOADS = {"tensegrity-demo": TensegrityDemo, "chain-prune-hinf": ChainPruneHinf,
             "random-designs": RandomDesigns}


# ---------------------------------------------------------------------------


class HostSpeed:
    """Follows the host's speed by timing a fixed reference kernel.

    On a virtual machine shared with other tenants, the same work runs up
    to twice as slowly in phases that last from seconds to minutes, and
    process CPU time slows with wall time, so run-to-run spreads of 10-40%
    come from the host rather than from the program. A timer signal runs
    the kernel (small Cholesky factorisations, matrix products and
    interpreted arithmetic, the mix a design spends its time on) every
    EVERY_S in this process, so on the same virtual CPU; a kernel timed
    from another process did not follow this one's speed. adjust() takes
    the kernel runs out of a request's time and scales what is left by
    NOMINAL_S over the median kernel time during the request and just
    before and after it: the seconds the request would have taken at the
    host's reference speed. No sparsact code runs in the kernel, so a
    change to the program moves these times as it moves wall time.
    """

    EVERY_S = 0.5
    NOMINAL_S = 0.010  # about the kernel median on the reference machine; see README.md

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((120, 120))
        self.spd = self.a @ self.a.T + 120 * np.eye(120)
        self.ends, self.seconds = [], []  # one entry per kernel run
        self.kernel()  # first-call costs belong to set-up

    def kernel(self):
        s = 0.0
        for _ in range(30):
            np.linalg.cholesky(self.spd)
            self.a @ self.a
            for i in range(2000):
                s += i * 0.5
        return s

    def sample(self, *_signal):
        t = time.perf_counter()
        self.kernel()
        self.ends.append(time.perf_counter())
        self.seconds.append(self.ends[-1] - t)

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.EVERY_S, self.EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def adjust(self, start, seconds):
        """(seconds less the kernel runs inside, that scaled to NOMINAL_S)."""
        i = bisect.bisect_left(self.ends, start)
        j = bisect.bisect_left(self.ends, start + seconds)
        own = seconds - sum(self.seconds[i:j])
        return own, own * self.NOMINAL_S / statistics.median(self.seconds[max(0, i - 1):j + 1])


def machine():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def _check(workload, rec):
    try:
        return workload.check(rec)
    except (OSError, ValueError, KeyError) as exc:  # missing or malformed outputs
        return f"unreadable output: {exc!r}"


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--passes", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.workload, args.seed, args.out)
    host = HostSpeed()
    result = {}
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    result["first_request"] = time.monotonic()
    for _ in range(3):
        host.sample()
    # set-up is scaled by the kernel runs right after it
    result["setup_scale"] = host.NOMINAL_S / statistics.median(host.seconds)
    if args.setup_only:
        (args.out / "result.json").write_text(json.dumps(result))
        return 0

    # the traced run only gives per-layer times, which are not scaled
    if not tracer:
        host.start()
    passes = []  # the records of each pass
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass(len(passes), tracer))
        if args.passes is not None:
            if len(passes) >= args.passes:
                break
        elif time.perf_counter() - start >= args.seconds:
            break
    host.stop()
    host.sample()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["machine"] = machine()
    for records in passes:
        for r in records:
            r.seconds, r.scaled_s = host.adjust(r.start, r.seconds)
    pass_s = [sum(r.seconds for r in records) for records in passes]
    if tracer:
        tracer.uninstall()
        tracer.write(args.out / "spans.json")
        result["layers"] = tracer.metrics(len(pass_s), sum(pass_s))
    result["pass_s"] = pass_s
    result["requests"] = [
        {"pass": i, "kind": r.kind, "seconds": r.seconds, "scaled_s": r.scaled_s,
         "check": _check(workload, r), "digest": workload.digest(r)}
        for i, records in enumerate(passes) for r in records]
    (args.out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
