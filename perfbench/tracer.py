"""Spans and counts at sparsact's layer boundaries, recorded from outside.

The tracer replaces each layer's public functions, as their callers see
them, with wrappers that record a span (name, layer, start, end, parent
span, request id). sparsact's modules import most of these functions by
name, so each consumer module is patched separately. Spans stay in memory
until the run ends. Counts that need the solver's inputs and outputs
(coefficient slices, flops, certificate checks) are computed after the
timed passes from references kept by the `solve_sdp` wrapper.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import Counter

import numpy as np

# (consumer module, attribute, layer). One entry per name binding that a
# workload reaches; the defining module's own attribute is patched where a
# caller reaches the function through it.
PATCHES = [
    ("sparsact.statefb", "solve_sdp", "sdp"),
    ("sparsact.outputfb", "solve_sdp", "sdp"),
    ("sparsact.joint", "solve_sdp", "sdp"),
    ("sparsact.lmi", "compile_lmis", "lmi"),
    ("sparsact.analysis", "hinf_norm", "analysis"),
    ("sparsact.analysis", "h2_norm", "analysis"),
    ("sparsact.analysis", "channel_h2_norms", "analysis"),
    ("sparsact.statefb", "synth_sf", "synth"),
    ("sparsact.outputfb", "synth_of", "synth"),
    ("sparsact.joint", "synth_joint", "synth"),
    ("sparsact.sparsify", "synth_joint", "synth"),
    ("sparsact.cli", "synth_joint", "synth"),
    ("sparsact.cli", "reweight_iterate", "sparsify"),
    ("sparsact.cli", "prune_and_resolve", "sparsify"),
    ("sparsact.cli", "simulate_closed_loop", "bench"),
]

LAYERS = ("cli", "sparsify", "synth", "lmi", "sdp", "analysis", "bench")

# What each wrapper keeps of a call for the counts made after the run.
_KEEP = {
    "solve_sdp": lambda args, out: (args[0], out),
    "reweight_iterate": lambda args, out: (len(out), out.stop_reason),
    "hinf_norm": lambda args, out: out.iterations,
    "simulate_closed_loop": lambda args, out: len(out.time) - 1,
}

# name, unit, how it is aggregated; the order in which run.py prints them
METRICS = [
    ("lmi.compile_s", "s", "self time per pass"),
    ("lmi.compile_calls", "count", "per pass"),
    ("lmi.coef_slices", "count", "computed, mean per problem"),
    ("lmi.coef_nonzero_ratio", "ratio", "computed, over all problems"),
    ("lmi.coef_mb", "MB", "computed, largest problem"),
    ("sdp.solve_s", "s", "per pass"),
    ("sdp.solves", "count", "per pass"),
    ("sdp.iters", "count", "mean per solve"),
    ("sdp.s_per_iter", "s", "over all solves"),
    ("sdp.vars_max", "count", "largest problem"),
    ("sdp.svec_dim_max", "count", "largest problem"),
    ("sdp.flops_per_iter.schur", "flop", "computed, iteration-weighted mean"),
    ("sdp.flops_per_iter.scaling", "flop", "computed, iteration-weighted mean"),
    ("sdp.flops_per_iter.factor", "flop", "computed, iteration-weighted mean"),
    ("sdp.exit.converged", "count", "per pass"),
    ("sdp.exit.reduced", "count", "per pass"),
    ("sdp.exit.infeasible", "count", "per pass"),
    ("sdp.exit.other", "count", "per pass"),
    ("sdp.cert_clean_ratio", "ratio", "of the optimal exits"),
    ("sdp.infeasible_s", "s", "median per infeasible solve"),
    ("synth.build_s", "s", "self time per pass, before the solve"),
    ("synth.recover_s", "s", "self time per pass, after the solve"),
    ("analysis.hinf_s", "s", "per pass"),
    ("analysis.hinf_calls", "count", "per pass"),
    ("analysis.hinf_iters", "count", "per pass"),
    ("analysis.h2_s", "s", "per pass, outside channel_h2_norms"),
    ("analysis.channel_h2_s", "s", "per pass"),
    ("analysis.channel_h2_calls", "count", "per pass"),
    ("sparsify.outer_iters", "count", "mean per design"),
    ("sparsify.solves_per_design", "count", "mean per design"),
    ("sparsify.capped", "count", "per pass"),
    ("sparsify.self_s", "s", "self time per pass"),
    ("bench.sim_s", "s", "per pass"),
    ("bench.sim_steps_per_s", "steps/s", "RK4 steps over sim time"),
    ("cli.self_s", "s", "self time per pass"),
    ("trace.wall_s", "s", "traced, per pass"),
    ("trace.overhead_s", "s", "traced minus untraced, per pass"),
    ("trace.unattributed_s", "s", "outside every span, per pass"),
]

_NAME, _LAYER, _START, _END, _PARENT, _REQUEST = range(6)


class Tracer:
    """In-memory span recorder; `install` patches sparsact, `uninstall` undoes it."""

    def __init__(self):
        self.spans = []
        self.kept = []  # (attribute name, span index, kept value)
        self.request = None
        self._stack = []
        self._patched = []

    def open(self, name, layer):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, layer, time.perf_counter(), None, parent, self.request])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx):
        self.spans[idx][_END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, attr, layer):
        keep = _KEEP.get(attr)

        def traced(*args, **kwargs):
            idx = self.open(f"{layer}.{attr}", layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if keep is not None:
                self.kept.append((attr, idx, keep(args, out)))
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for modname, attr, layer in PATCHES:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr)
            self._patched.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(orig, attr, layer))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def write(self, path):
        cols = ("name", "layer", "start", "end", "parent", "request")
        with open(path, "w") as f:
            json.dump([dict(zip(cols, s)) for s in self.spans], f)

    def metrics(self, passes, wall_s):
        """Per-layer metrics, normalised per pass where they accumulate.

        `wall_s` is the traced run's total timed seconds; the layers' self
        times plus trace.unattributed_s add up to it divided by `passes`.
        """
        spans = self.spans
        children = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[_PARENT] is not None:
                children[s[_PARENT]].append(i)
        dur = [s[_END] - s[_START] for s in spans]
        self_s = [dur[i] - sum(dur[c] for c in children[i]) for i in range(len(spans))]
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i, s in enumerate(spans):
            layer_self[s[_LAYER]] += self_s[i]
        top = sum(dur[i] for i, s in enumerate(spans) if s[_PARENT] is None)

        build = recover = 0.0
        for i, s in enumerate(spans):
            if s[_LAYER] == "synth":
                b, r = _split_self(s, [spans[c] for c in children[i]])
                build += b
                recover += r

        def named(name, parent_name=None):
            return [i for i, s in enumerate(spans) if s[_NAME] == name
                    and (parent_name is None or s[_PARENT] is None
                         or spans[s[_PARENT]][_NAME] != parent_name)]

        hinf = named("analysis.hinf_norm")
        h2_top = named("analysis.h2_norm", parent_name="analysis.channel_h2_norms")
        chan = named("analysis.channel_h2_norms")
        kept = {}
        for attr, idx, val in self.kept:
            kept.setdefault(attr, []).append((idx, val))
        sims = kept.get("simulate_closed_loop", [])
        sim_s = sum(dur[i] for i, _ in sims)
        loops = kept.get("reweight_iterate", [])
        solves = [(dur[i], problem, sol) for i, (problem, sol) in kept.get("solve_sdp", [])]
        solves_in_sparsify = sum(1 for i, _ in kept.get("solve_sdp", [])
                                 if _has_ancestor(spans, i, "sparsify"))

        m = {
            "lmi.compile_s": layer_self["lmi"] / passes,
            "lmi.compile_calls": len(named("lmi.compile_lmis")) / passes,
            "synth.build_s": build / passes,
            "synth.recover_s": recover / passes,
            "analysis.hinf_s": sum(dur[i] for i in hinf) / passes,
            "analysis.hinf_calls": len(hinf) / passes,
            "analysis.hinf_iters": sum(v for _, v in kept.get("hinf_norm", [])) / passes,
            "analysis.h2_s": sum(dur[i] for i in h2_top) / passes,
            "analysis.channel_h2_s": sum(dur[i] for i in chan) / passes,
            "analysis.channel_h2_calls": len(chan) / passes,
            "sparsify.outer_iters": _mean([n for _, (n, _) in loops]),
            "sparsify.solves_per_design": solves_in_sparsify / len(loops) if loops else 0.0,
            "sparsify.capped": sum(1 for _, (_, why) in loops
                                   if why == "max_outer reached") / passes,
            "sparsify.self_s": layer_self["sparsify"] / passes,
            "bench.sim_s": sim_s / passes,
            "bench.sim_steps_per_s": sum(v for _, v in sims) / sim_s if sim_s else 0.0,
            "cli.self_s": layer_self["cli"] / passes,
            "trace.wall_s": wall_s / passes,
            "trace.unattributed_s": (wall_s - top) / passes,
        }
        m.update(_solver_counts(solves, passes))
        return m


def _has_ancestor(spans, idx, layer):
    p = spans[idx][_PARENT]
    while p is not None:
        if spans[p][_LAYER] == layer:
            return True
        p = spans[p][_PARENT]
    return False


def _split_self(span, kids):
    """Self time of a synthesis span before and after its last solve ends."""
    cut = max((k[_END] for k in kids if k[_LAYER] == "sdp"), default=span[_END])
    before = cut - span[_START] - sum(k[_END] - k[_START] for k in kids if k[_END] <= cut)
    after = span[_END] - cut - sum(k[_END] - k[_START] for k in kids if k[_START] >= cut)
    return before, after


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def exit_class(solution):
    """converged | reduced | infeasible | other, from the solver's status and message."""
    if solution.status == "optimal":
        return "converged" if solution.message == "converged" else "reduced"
    if solution.status == "infeasible":
        return "infeasible"
    return "other"


def problem_counts(problem):
    """Computed sizes and per-iteration flops of one compiled cone program.

    schur: forming H from the scaled coefficient rows, sum 2 k^2 d;
    scaling: the two n x n products per coefficient slice in the NT
    conjugation, sum 4 k n^3; factor: LU of the (n_vars + n_eq) KKT
    matrix, (2/3) N^3. k is a block's slice count, n its dimension and
    d = n(n+1)/2 its svec dimension.
    """
    slices = nonzero = nbytes = svec = schur = scaling = 0
    for blk in problem.blocks:
        k, n = len(blk.var_idx), blk.dim
        d = n * (n + 1) // 2
        slices += k
        nonzero += int(np.count_nonzero(np.any(blk.coefs != 0.0, axis=(1, 2))))
        nbytes += blk.coefs.nbytes
        svec += d
        schur += 2 * k * k * d
        scaling += 4 * k * n ** 3
    kkt = problem.num_vars + problem.eq_A.shape[0]
    return {"slices": slices, "nonzero": nonzero, "mb": nbytes / 1e6,
            "vars": problem.num_vars, "svec": svec, "schur": schur,
            "scaling": scaling, "factor": 2.0 * kkt ** 3 / 3.0}


def _solver_counts(solves, passes):
    # imported here so that run.py can read METRICS without importing sparsact
    from sparsact.sdp import check_certificate

    exits = Counter(exit_class(sol) for _, _, sol in solves)
    m = {f"sdp.exit.{c}": exits[c] / passes
         for c in ("converged", "reduced", "infeasible", "other")}
    counts = [problem_counts(problem) for _, problem, _ in solves]
    iters = [sol.iterations for _, _, sol in solves]
    total_iters = sum(iters)
    optimal = [(problem, sol) for _, problem, sol in solves if sol.status == "optimal"]
    clean = sum(1 for problem, sol in optimal if check_certificate(problem, sol).clean)
    slices = sum(c["slices"] for c in counts)
    solve_s = sum(d for d, _, _ in solves)
    infeasible = [d for d, _, sol in solves if sol.status == "infeasible"]
    m.update({
        "sdp.solve_s": solve_s / passes,
        "sdp.solves": len(solves) / passes,
        "sdp.iters": _mean(iters),
        "sdp.s_per_iter": solve_s / total_iters if total_iters else 0.0,
        "sdp.vars_max": max((c["vars"] for c in counts), default=0),
        "sdp.svec_dim_max": max((c["svec"] for c in counts), default=0),
        "lmi.coef_slices": _mean([c["slices"] for c in counts]),
        "lmi.coef_nonzero_ratio": sum(c["nonzero"] for c in counts) / slices if slices else 0.0,
        "lmi.coef_mb": max((c["mb"] for c in counts), default=0.0),
        "sdp.cert_clean_ratio": clean / len(optimal) if optimal else 0.0,
        "sdp.infeasible_s": statistics.median(infeasible) if infeasible else 0.0,
    })
    for key in ("schur", "scaling", "factor"):
        # iteration-weighted mean over the run's solves
        m[f"sdp.flops_per_iter.{key}"] = (
            sum(c[key] * n for c, n in zip(counts, iters)) / total_iters
            if total_iters else 0.0)
    return m
