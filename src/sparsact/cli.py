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
# synth_joint is unused here but bound for perfbench/tracer.py to patch
from .joint import JointSpec, synth_joint  # noqa: F401
from .model import (close_loop, controller_from_dict, controller_to_dict,
                    load_plant, save_plant)
from .outputfb import OfSynthesisSpec
from .sdp import SolverOptions
from .sparsify import (ReweightPolicy, _iteration_summary, prune_and_resolve,
                       reweight_iterate)
from .statefb import ACTIVE_THRESHOLD_RATIO, SfSynthesisSpec, result_to_dict

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
    """The spec of args.mode; it carries the design that args.mode names.
    A weight or cap flag that this design does not read is a usage error."""
    design, kind = args.mode.split("-")
    unread = ("rho", "gamma_max") if design == "joint" else ("mu", "nu")
    given = [f"--{name.replace('_', '-')}" for name in unread
             if getattr(args, name) is not None]
    if given:
        raise ValueError(f"mode {args.mode} does not read {', '.join(given)}")
    common = dict(plant=plant, performance_kind=kind, gamma0=args.gamma0,
                  solver=_solver_options(args))
    if design == "joint":
        return JointSpec(mu=args.mu, nu=args.nu, **common)
    spec_type = OfSynthesisSpec if design == "of" else SfSynthesisSpec
    return spec_type(rho=args.rho, gamma_max=args.gamma_max, **common)


def _write_design(out, result, active, fields):
    """controller.json, and result.json: the result's values, its active
    sets ``active`` by weight group, and ``fields``."""
    _write_json(os.path.join(out, "controller.json"), controller_to_dict(result.controller))
    active = {f"active_{g}": v for g, v in active.items()}
    if len(active) == 1:  # the Gamma designs write their one group as "active_set"
        active = {"active_set": active["active_actuators"]}
    _write_json(os.path.join(out, "result.json"),
                {**result_to_dict(result), **active, **fields})


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
    result = _build_spec(load_plant(args.model), args).synthesize()
    out = _ensure_out(args)
    _, active = _iteration_summary(result, ACTIVE_THRESHOLD_RATIO)
    _write_design(out, result, active, {"mode": args.mode, "gamma0": args.gamma0})
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
        if args.kind not in reports:
            print(f"{args.kind} norm is unbounded: the closed loop has feedthrough "
                  "Dcl != 0", file=sys.stderr)
            return 2
        if reports[args.kind]["value"] >= args.gamma0:
            print(f"{args.kind} norm exceeds gamma0 {_fmt(args.gamma0)}", file=sys.stderr)
            return 2
    return 0


def _policy(args):
    """The loop policy of the flags given; ReweightPolicy's defaults stand for the rest."""
    given = {"max_outer": args.reweight_max, "epsilon": args.epsilon,
             "threshold_ratio": args.threshold}
    return ReweightPolicy(**{name: v for name, v in given.items() if v is not None})


def _pruned_design(spec, args, fields):
    """Reweight spec, prune and re-solve it, and write the pruned design
    into args.out, with ``fields``, the kept hardware and the loop's stop."""
    trace = reweight_iterate(spec, _policy(args))
    pruned = prune_and_resolve(trace, spec)
    out = _ensure_out(args)
    _write_design(out, pruned.result, pruned.active, {
        **fields, **{f"kept_{g}": v for g, v in pruned.kept.items()},
        "stop_reason": trace.stop_reason, "iterations": len(trace)})
    return out, trace, pruned


def _cmd_sweep(args):
    plant = load_plant(args.model)

    def spec_for(g0):
        ns = argparse.Namespace(**vars(args))
        ns.gamma0 = g0
        return _build_spec(plant, ns)

    rows = gamma_sweep(spec_for, args.gamma0, policy=_policy(args))
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
    out, trace, pruned = _pruned_design(spec, args, {"mode": args.mode, "gamma0": args.gamma0})
    result = pruned.result
    _write_json(os.path.join(out, "trace.json"), trace.to_dict())
    save_plant(pruned.reduced_plant, os.path.join(out, "pruned_plant.json"))
    print(f"kept actuators {pruned.kept_actuators}, sensors {pruned.kept_sensors} "
          f"after {len(trace)} iterations ({trace.stop_reason})")
    print(f"verified closed-loop {result.verified_closed_loop.kind} norm "
          f"{_fmt(result.verified_closed_loop.value)} < gamma0 {_fmt(args.gamma0)}")
    return 0


def _cmd_demo(args):
    if args.nonlinear_sim and args.family != "tensegrity":
        print("--nonlinear-sim is only available for the tensegrity family",
              file=sys.stderr)
        return 1
    family = {"scalar": ScalarOracle(), "chain": MassSpringChain(4),
              "tensegrity": TensegrityApprox()}[args.family]
    plant = family.build()
    gamma0 = args.gamma0
    if gamma0 is None:
        gamma0 = {"scalar": 2.0, "chain": 2.0, "tensegrity": 0.42}[args.family]
    kind = "h2" if args.family == "tensegrity" else "hinf"
    spec = JointSpec(plant=plant, performance_kind=kind, gamma0=gamma0,
                     solver=_solver_options(args))
    # plant.json too is written only once the design is certified
    out, _, pruned = _pruned_design(spec, args, {"family": args.family, "gamma0": gamma0})
    save_plant(plant, os.path.join(out, "plant.json"))
    result = pruned.result
    extra = family.cubic_stiffening() if args.nonlinear_sim else None
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
