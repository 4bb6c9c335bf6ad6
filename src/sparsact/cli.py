"""Command-line front end.

Subcommands: synth (one design + mandatory verification), verify (norms of
an existing controller), sweep (designs across a list of gamma0 bounds),
prune (reweighted sparsification plus re-solve on the pruned hardware),
demo (built-in benchmark study).  Plants and controllers travel as JSON;
study outputs are JSON and CSV with round-trippable float formatting.

Exit status: 0 on success, 2 when the requested performance is certified
infeasible, 1 on usage errors or any other failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import analysis
from .bench import (MassSpringChain, ScalarOracle, TensegrityApprox,
                    gamma_sweep, simulate_closed_loop, sweep_to_csv)
from .errors import InfeasiblePerformance, SparsactError
from .joint import JointSpec, synth_joint
from .model import (close_loop, controller_from_dict, controller_to_dict,
                    load_plant, save_plant)
from .outputfb import synth_of
from .sdp import SolverOptions
from .sparsify import (ReweightPolicy, _iteration_summary, prune_and_resolve,
                       reweight_iterate)
from .statefb import SfSynthesisSpec, synth_sf

__all__ = ["main"]

MODES = ("sf-hinf", "sf-h2", "of-hinf", "of-h2", "joint-hinf", "joint-h2")


def _fmt(x):
    """Round-trippable decimal form (17 significant digits)."""
    return format(float(x), ".17g")


def _csv_floats(text):
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list of numbers, got {text!r}")


def _write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _ensure_out(args):
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _solver_options(args):
    return SolverOptions(dump_path=getattr(args, "dump_sdp", None))


def _build_spec(plant, args):
    kind = args.mode.split("-")[1]
    if args.mode.startswith("joint"):
        return JointSpec(plant=plant, performance_kind=kind, gamma0=args.gamma0,
                         mu=args.mu, nu=args.nu, solver=_solver_options(args))
    return SfSynthesisSpec(plant=plant, performance_kind=kind, gamma0=args.gamma0,
                           rho=args.rho, gamma_max=args.gamma_max,
                           solver=_solver_options(args))


def _synth_fn(mode):
    if mode.startswith("joint"):
        return synth_joint
    if mode.startswith("of"):
        return synth_of
    return synth_sf


def _run_mode(plant, args):
    spec = _build_spec(plant, args)
    return spec, _synth_fn(args.mode)(spec)


def _solver_trace_csv(sol):
    lines = ["iteration,pobj,dobj,gap,pres,dres,tau,kappa,mu"]
    for it in sol.iterates:
        lines.append(",".join([str(it.iteration)] + [
            _fmt(v) for v in (it.pobj, it.dobj, it.gap, it.pres, it.dres,
                              it.tau, it.kappa, it.mu)]))
    return "\n".join(lines) + "\n"


def _norm_report_dict(rep):
    return {"value": rep.value, "kind": rep.kind, "method": rep.method,
            "converged": rep.converged, "iterations": rep.iterations,
            "peak_frequency": rep.peak_frequency}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(args):
    plant = load_plant(args.model)
    spec, result = _run_mode(plant, args)
    out = _ensure_out(args)
    _write_json(os.path.join(out, "controller.json"),
                controller_to_dict(result.controller if hasattr(result, "controller")
                                   else result.K))
    _write_json(os.path.join(out, "result.json"),
                {"mode": args.mode, "gamma0": args.gamma0, **result.to_dict()})
    with open(os.path.join(out, "solver_trace.csv"), "w") as f:
        f.write(_solver_trace_csv(result.solution))
    print(f"verified closed-loop {result.verified_closed_loop.kind} norm "
          f"{_fmt(result.verified_closed_loop.value)} < gamma0 {_fmt(args.gamma0)}")
    return 0


def _cmd_verify(args):
    plant = load_plant(args.model)
    with open(args.controller) as f:
        cl = close_loop(plant, controller_from_dict(json.load(f)))
    reports = {"hinf": _norm_report_dict(analysis.hinf_norm(cl))}
    if not np.any(cl.Dcl != 0.0):
        reports["h2"] = _norm_report_dict(analysis.h2_norm(cl))
    reports["channel_h2"] = [_norm_report_dict(r)
                             for r in analysis.channel_h2_norms(plant, cl)]
    out = _ensure_out(args)
    _write_json(os.path.join(out, "verify.json"), reports)
    for name in ("hinf", "h2"):
        if name in reports:
            print(f"{name} norm: {_fmt(reports[name]['value'])}")
    if args.gamma0 is not None:
        key = "h2" if (args.kind == "h2" and "h2" in reports) else "hinf"
        if reports[key]["value"] >= args.gamma0:
            print(f"{key} norm exceeds gamma0 {_fmt(args.gamma0)}", file=sys.stderr)
            return 2
    return 0


def _policy(args):
    kw = {}
    if args.reweight_max is not None:
        kw["max_outer"] = args.reweight_max
    if args.epsilon is not None:
        kw["epsilon"] = args.epsilon
    if args.threshold is not None:
        kw["threshold_ratio"] = args.threshold
    return ReweightPolicy(**kw)


def _active_sets(pruned, threshold_ratio):
    """The pruned design's active sets in original plant indices.

    They override the result's own fields, which index the reduced plant
    and use the default threshold, so that they sit beside kept_* in the
    same indices and follow the run's threshold_ratio.
    """
    _, active = _iteration_summary(pruned.result, threshold_ratio)
    if isinstance(active, dict):
        return {"active_actuators": [pruned.kept_actuators[i] for i in active["actuators"]],
                "active_sensors": [pruned.kept_sensors[j] for j in active["sensors"]]}
    return {"active_set": [pruned.kept_actuators[i] for i in active]}


def _cmd_sweep(args):
    plant = load_plant(args.model)

    def spec_for(g0):
        ns = argparse.Namespace(**vars(args))
        ns.gamma0 = g0
        return _build_spec(plant, ns)

    rows = gamma_sweep(spec_for, args.gamma0, policy=_policy(args),
                       synthesize=_synth_fn(args.mode))
    out = _ensure_out(args)
    with open(os.path.join(out, "sweep.csv"), "w") as f:
        f.write(sweep_to_csv(rows))
    for r in rows:
        print(f"gamma0 {_fmt(r['gamma0'])}: {r['status']}")
    if all(r["status"] == "infeasible" for r in rows):
        return 2
    return 0


def _cmd_prune(args):
    plant = load_plant(args.model)
    spec = _build_spec(plant, args)
    policy = _policy(args)
    trace = reweight_iterate(spec, policy, _synth_fn(args.mode))
    pruned = prune_and_resolve(trace, spec)
    out = _ensure_out(args)
    result = pruned.result
    _write_json(os.path.join(out, "controller.json"),
                controller_to_dict(result.controller if hasattr(result, "controller")
                                   else result.K))
    _write_json(os.path.join(out, "result.json"), {
        "mode": args.mode,
        "gamma0": args.gamma0,
        "kept_actuators": pruned.kept_actuators,
        "kept_sensors": pruned.kept_sensors,
        "iterations": len(trace),
        "stop_reason": trace.stop_reason,
        **result.to_dict(),
        **_active_sets(pruned, trace.threshold_ratio),
    })
    _write_json(os.path.join(out, "trace.json"), trace.to_dict())
    save_plant(pruned.reduced_plant, os.path.join(out, "pruned_plant.json"))
    print(f"kept actuators {pruned.kept_actuators}, sensors {pruned.kept_sensors} "
          f"after {len(trace)} iterations ({trace.stop_reason})")
    print(f"verified closed-loop {result.verified_closed_loop.kind} norm "
          f"{_fmt(result.verified_closed_loop.value)} < gamma0 {_fmt(args.gamma0)}")
    return 0


def _demo_family(name):
    if name == "scalar":
        return ScalarOracle()
    if name == "chain":
        return MassSpringChain(4)
    if name == "tensegrity":
        return TensegrityApprox()
    raise argparse.ArgumentTypeError(f"unknown family {name!r}")


def _cmd_demo(args):
    family = _demo_family(args.family)
    plant = family.build()
    out = _ensure_out(args)
    save_plant(plant, os.path.join(out, "plant.json"))
    gamma0 = args.gamma0
    if gamma0 is None:
        gamma0 = {"scalar": 2.0, "chain": 2.0, "tensegrity": 0.42}[args.family]
    kind = "h2" if args.family == "tensegrity" else "hinf"
    spec = JointSpec(plant=plant, performance_kind=kind, gamma0=gamma0,
                     solver=_solver_options(args))
    trace = reweight_iterate(spec, _policy(args))
    pruned = prune_and_resolve(trace, spec)
    result = pruned.result
    _write_json(os.path.join(out, "controller.json"),
                controller_to_dict(result.controller))
    _write_json(os.path.join(out, "result.json"), {
        "family": args.family,
        "gamma0": gamma0,
        "kept_actuators": pruned.kept_actuators,
        "kept_sensors": pruned.kept_sensors,
        "iterations": len(trace),
        **result.to_dict(),
        **_active_sets(pruned, trace.threshold_ratio),
    })
    extra = None
    if args.nonlinear_sim:
        if not isinstance(family, TensegrityApprox):
            print("--nonlinear-sim is only available for the tensegrity family",
                  file=sys.stderr)
            return 1
        extra = family.cubic_stiffening()
    # the pruned controller lives on the reduced actuator/sensor sets; the
    # reduced plant has the same states, so the nonlinear term still applies
    sim = simulate_closed_loop(pruned.reduced_plant, result.controller,
                               {"kind": "noise", "seed": args.seed},
                               horizon=args.horizon, nonlinear_extra=extra,
                               seed=args.seed)
    with open(os.path.join(out, "simulation.csv"), "w") as f:
        f.write("time," + ",".join(f"u{i + 1}" for i in range(sim.controls.shape[1])) + "\n")
        for t, u in zip(sim.time, sim.controls):
            f.write(",".join([_fmt(t)] + [_fmt(v) for v in u]) + "\n")
    print(f"kept actuators {pruned.kept_actuators}, sensors {pruned.kept_sensors}")
    print(f"verified closed-loop {result.verified_closed_loop.kind} norm "
          f"{_fmt(result.verified_closed_loop.value)} < gamma0 {_fmt(gamma0)}")
    print(f"peak control magnitudes: {[_fmt(v) for v in sim.peaks]}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common_synth_args(sp, gamma0_list=False):
    sp.add_argument("--model", required=True, help="plant JSON file")
    sp.add_argument("--mode", required=True, choices=MODES)
    if gamma0_list:
        sp.add_argument("--gamma0", required=True, type=_csv_floats,
                        help="comma-separated list of closed-loop bounds")
    else:
        sp.add_argument("--gamma0", required=True, type=float,
                        help="closed-loop performance bound")
    sp.add_argument("--rho", type=_csv_floats, default=None,
                    help="per-actuator objective weights (sf/of modes)")
    sp.add_argument("--mu", type=_csv_floats, default=None,
                    help="per-actuator group weights (joint modes)")
    sp.add_argument("--nu", type=_csv_floats, default=None,
                    help="per-sensor group weights (joint modes)")
    sp.add_argument("--gamma-max", type=_csv_floats, default=None,
                    help="per-actuator caps on the bounds (sf/of modes)")
    sp.add_argument("--out", default=None, help="output directory")
    sp.add_argument("--dump-sdp", default=None, metavar="PATH",
                    help="dump the packed cone program as sparse triplets")
    sp.add_argument("--seed", type=int, default=0)


def _add_policy_args(sp):
    sp.add_argument("--reweight-max", type=int, default=None,
                    help="maximum reweighting iterations")
    sp.add_argument("--epsilon", type=float, default=None,
                    help="reweighting regularizer")
    sp.add_argument("--threshold", type=float, default=None,
                    help="active-set threshold ratio")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sparsact",
        description="Sparse actuation/sensing controller synthesis with "
                    "certified closed-loop performance.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="one design plus mandatory verification")
    _add_common_synth_args(sp)
    sp.set_defaults(func=_cmd_synth)

    sp = sub.add_parser("verify", help="norms of an existing controller")
    sp.add_argument("--model", required=True)
    sp.add_argument("--controller", required=True)
    sp.add_argument("--gamma0", type=float, default=None,
                    help="optional bound to check against (exit 2 if exceeded)")
    sp.add_argument("--kind", choices=("hinf", "h2"), default="hinf")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("sweep", help="designs across a list of gamma0 bounds")
    _add_common_synth_args(sp, gamma0_list=True)
    _add_policy_args(sp)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("prune", help="reweighted sparsification and re-solve")
    _add_common_synth_args(sp)
    _add_policy_args(sp)
    sp.set_defaults(func=_cmd_prune)

    sp = sub.add_parser("demo", help="built-in benchmark study")
    sp.add_argument("--family", choices=("scalar", "chain", "tensegrity"),
                    default="tensegrity")
    sp.add_argument("--gamma0", type=float, default=None)
    sp.add_argument("--horizon", type=float, default=20.0)
    sp.add_argument("--nonlinear-sim", action="store_true")
    sp.add_argument("--out", default=None)
    sp.add_argument("--dump-sdp", default=None)
    sp.add_argument("--seed", type=int, default=0)
    _add_policy_args(sp)
    sp.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors; the contract reserves 2 for
        # infeasibility, so remap
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except InfeasiblePerformance as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (SparsactError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
