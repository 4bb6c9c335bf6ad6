"""What importing sparsact and running a small design loads, and the
names that perfbench/tracer.py patches.

Imports count in every run's start-up time, and the sdp module promises
that small problems never load scipy.sparse.
"""

import importlib
import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

TESTS = Path(__file__).resolve().parent

SCRIPT = textwrap.dedent("""
    import sys

    import sparsact

    plant = sparsact.GeneralizedPlant(
        A=[[-1.0, 0.5], [-0.5, -0.2]], Bu=[[0.0], [1.0]], Bw=[[1.0], [0.3]],
        Cz=[[1.0, 0.0], [0.0, 0.0]], Du=[[0.0], [0.1]], Dw=[[0.0], [0.0]],
        Cy=[[1.0, 0.0]], Dyw=[[0.0]])
    norm = sparsact.hinf_norm((plant.A, plant.Bw, plant.Cz, plant.Dw))
    gamma0 = 1.3 * norm.value + 0.1
    result = sparsact.synth_of(sparsact.SfSynthesisSpec(
        plant=plant, performance_kind="hinf", gamma0=gamma0))
    assert norm.converged and result.verified_closed_loop.value < gamma0
    print(" ".join(sorted(sys.modules)))
""")


def test_small_design_loads_no_sparse_signal_or_optimize():
    src = str(TESTS.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n" + SCRIPT],
        capture_output=True, text=True, check=True, timeout=120).stdout
    loaded = set(out.split())
    assert "sparsact" in loaded and "scipy.linalg" in loaded
    for name in ("scipy.sparse", "scipy.signal", "scipy.optimize"):
        assert name not in loaded


def test_tracer_patches_resolve():
    # the tracer patches each (module, attribute) binding that a workload
    # reaches; a binding that has gone would otherwise fail only the benchmark
    path = TESTS.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for modname, attr, layer in tracer.PATCHES:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (modname, attr)
        assert layer in tracer.LAYERS
