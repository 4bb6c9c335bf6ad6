import json

import numpy as np
import pytest

from sparsact import joint, outputfb, statefb
from sparsact.bench import ScalarOracle
from sparsact.cli import main
from sparsact.model import GeneralizedPlant, save_plant
from sparsact.statefb import ACTIVE_THRESHOLD_RATIO, VERIFY_RTOL, active_set_from_values

from conftest import THREE_ACTUATORS


@pytest.fixture
def scalar_model(tmp_path):
    path = tmp_path / "plant.json"
    save_plant(ScalarOracle().build(), path)
    return str(path)


@pytest.fixture
def dup_model(tmp_path):
    path = tmp_path / "dup.json"
    save_plant(GeneralizedPlant(
        A=[[1.0]], Bu=[[1.0, 1.0]], Bw=[[1.0]], Cz=[[1.0]],
        Du=[[0.0, 0.0]], Dw=[[0.0]], Cy=[[1.0]], Dyw=[[0.0]]), path)
    return str(path)


@pytest.fixture
def second_model(tmp_path):
    """Actuator 0 and sensor 0 do nothing; the second of each does."""
    path = tmp_path / "second.json"
    save_plant(GeneralizedPlant(
        A=[[1.0]], Bu=[[0.0, 1.0]], Bw=[[1.0]], Cz=[[1.0], [0.0]],
        Du=[[0.0, 0.0], [0.0, 0.1]], Dw=[[0.0], [0.0]],
        Cy=[[0.0], [1.0]], Dyw=[[0.0], [0.0]]), path)
    return str(path)


class TestSynth:
    def test_scalar_state_feedback(self, scalar_model, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["synth", "--model", scalar_model, "--mode", "sf-hinf",
                   "--gamma0", "2.0", "--out", str(out)])
        assert rc == 0
        ctrl = json.loads((out / "controller.json").read_text())
        assert ctrl["K"][0][0] == pytest.approx(-2.0, rel=1e-2)
        result = json.loads((out / "result.json").read_text())
        assert result["mode"] == "sf-hinf"
        assert result["closed_loop_norm"] < 2.0 * (1 + 1e-5)
        trace = (out / "solver_trace.csv").read_text()
        assert trace.startswith("iteration,pobj,dobj")
        assert "verified closed-loop" in capsys.readouterr().out

    def test_output_feedback_mode(self, scalar_model, tmp_path):
        out = tmp_path / "out"
        rc = main(["synth", "--model", scalar_model, "--mode", "of-hinf",
                   "--gamma0", "2.0", "--out", str(out)])
        assert rc == 0
        ctrl = json.loads((out / "controller.json").read_text())
        assert "AK" in ctrl

    def test_infeasible_caps_exit_2(self, dup_model, tmp_path):
        rc = main(["synth", "--model", dup_model, "--mode", "sf-hinf",
                   "--gamma0", "2.0", "--gamma-max", "0.4,0.4",
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_output_feedback_refuses_dyu(self, tmp_path, capsys):
        path = tmp_path / "dyu.json"
        save_plant(GeneralizedPlant(
            A=[[1.0]], Bu=[[1.0]], Bw=[[1.0]], Cz=[[1.0]], Du=[[0.0]],
            Dw=[[0.0]], Cy=[[1.0]], Dyw=[[0.0]], Dyu=[[1.0]]), path)
        rc = main(["synth", "--model", str(path), "--mode", "of-hinf",
                   "--gamma0", "2.0", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "Dyu must be identically zero" in capsys.readouterr().err
        assert not (tmp_path / "o" / "controller.json").exists()

    def test_h2_feedthrough_is_error(self, tmp_path):
        path = tmp_path / "feed.json"
        save_plant(GeneralizedPlant(
            A=[[1.0]], Bu=[[1.0]], Bw=[[1.0]], Cz=[[1.0]], Du=[[0.0]],
            Dw=[[1.0]], Cy=[[1.0]], Dyw=[[0.0]]), path)
        rc = main(["synth", "--model", str(path), "--mode", "sf-h2",
                   "--gamma0", "2.0", "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_dump_sdp(self, scalar_model, tmp_path):
        dump = tmp_path / "cone.txt"
        rc = main(["synth", "--model", scalar_model, "--mode", "sf-hinf",
                   "--gamma0", "2.0", "--out", str(tmp_path / "o"),
                   "--dump-sdp", str(dump)])
        assert rc == 0
        assert dump.exists() and dump.stat().st_size > 0

    def test_deterministic_artifacts(self, scalar_model, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["synth", "--model", scalar_model, "--mode", "sf-hinf",
                  "--gamma0", "2.0", "--out", str(out)])
            outs.append((out / "result.json").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("mode", ["sf-hinf", "of-h2", "joint-hinf"])
    def test_active_sets_at_default_threshold(self, second_model, tmp_path, monkeypatch,
                                              mode):
        module, name = {"sf": (statefb, "synth_sf"), "of": (outputfb, "synth_of"),
                        "joint": (joint, "synth_joint")}[mode.split("-")[0]]
        synthesize, results = getattr(module, name), []

        def recording(spec):
            results.append(synthesize(spec))
            return results[-1]

        monkeypatch.setattr(module, name, recording)
        out = tmp_path / "o"
        rc = main(["synth", "--model", second_model, "--mode", mode, "--gamma0", "3.0",
                   "--out", str(out)])
        assert rc == 0
        result = json.loads((out / "result.json").read_text())
        [res] = results
        norms = res.group_norms
        # only the second actuator and sensor act, so each set is [1]
        if mode.startswith("joint"):
            assert result["active_actuators"] == active_set_from_values(
                norms["actuators"], ACTIVE_THRESHOLD_RATIO) == [1]
            assert result["active_sensors"] == active_set_from_values(
                norms["sensors"], ACTIVE_THRESHOLD_RATIO) == [1]
        else:
            assert result["active_set"] == active_set_from_values(
                norms["actuators"], ACTIVE_THRESHOLD_RATIO) == [1]


class TestVerify:
    def _synth(self, scalar_model, tmp_path):
        out = tmp_path / "synth"
        main(["synth", "--model", scalar_model, "--mode", "sf-hinf",
              "--gamma0", "2.0", "--out", str(out)])
        return str(out / "controller.json")

    def test_reports_norms(self, scalar_model, tmp_path):
        ctrl = self._synth(scalar_model, tmp_path)
        out = tmp_path / "verify"
        rc = main(["verify", "--model", scalar_model, "--controller", ctrl,
                   "--out", str(out)])
        assert rc == 0
        rep = json.loads((out / "verify.json").read_text())
        assert rep["hinf"]["value"] < 2.0
        assert len(rep["channel_h2"]) == 1

    def test_peak_frequency(self, tmp_path):
        # 1/(s^2 + 2 zeta s + 1) with zeta = 0.05 under the zero gain: the
        # peak is at sqrt(1 - 2 zeta^2)
        zeta = 0.05
        model = tmp_path / "resonance.json"
        save_plant(GeneralizedPlant(
            A=[[0.0, 1.0], [-1.0, -2.0 * zeta]], Bu=[[0.0], [1.0]], Bw=[[0.0], [1.0]],
            Cz=[[1.0, 0.0]], Du=[[0.0]], Dw=[[0.0]], Cy=[[1.0, 0.0]], Dyw=[[0.0]]), model)
        ctrl = tmp_path / "zero.json"
        ctrl.write_text(json.dumps({"K": [[0.0, 0.0]]}))
        out = tmp_path / "verify"
        rc = main(["verify", "--model", str(model), "--controller", str(ctrl),
                   "--out", str(out)])
        assert rc == 0
        rep = json.loads((out / "verify.json").read_text())
        hinf = rep["hinf"]
        assert hinf["converged"] and hinf["iterations"] >= 1
        w = hinf["peak_frequency"]
        assert w == pytest.approx(np.sqrt(1.0 - 2.0 * zeta ** 2), abs=1e-3)
        gain = 1.0 / abs(1.0 - w ** 2 + 2j * zeta * w)
        assert gain == pytest.approx(hinf["value"], rel=VERIFY_RTOL)
        assert rep["h2"]["peak_frequency"] is None

    def test_bound_check_exit_2(self, scalar_model, tmp_path):
        ctrl = self._synth(scalar_model, tmp_path)
        rc = main(["verify", "--model", scalar_model, "--controller", ctrl,
                   "--gamma0", "0.1", "--out", str(tmp_path / "v")])
        assert rc == 2

    def test_h2_bound_with_feedthrough_is_unbounded(self, tmp_path, capsys):
        # under K = 0 the closed loop keeps the feedthrough Dw = 0.5, so its
        # H2 norm is infinite; its H-infinity norm, 1.5, would pass gamma0 = 10
        model = tmp_path / "feed.json"
        save_plant(GeneralizedPlant(
            A=[[-1.0]], Bu=[[1.0]], Bw=[[1.0]], Cz=[[1.0]], Du=[[0.0]],
            Dw=[[0.5]], Cy=[[1.0]], Dyw=[[0.0]]), model)
        ctrl = tmp_path / "zero.json"
        ctrl.write_text(json.dumps({"K": [[0.0]]}))
        out = tmp_path / "verify"
        rc = main(["verify", "--model", str(model), "--controller", str(ctrl),
                   "--kind", "h2", "--gamma0", "10", "--out", str(out)])
        assert rc == 2
        assert "h2 norm is unbounded" in capsys.readouterr().err
        rep = json.loads((out / "verify.json").read_text())
        assert "h2" not in rep
        assert rep["hinf"]["value"] == pytest.approx(1.5, rel=1e-5)


class TestSweep:
    def test_csv_and_exit_codes(self, dup_model, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--model", dup_model, "--mode", "sf-hinf",
                   "--gamma0", "1.5,3.0", "--out", str(out)])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert lines[0].startswith("gamma0,status")
        assert len(lines) == 3

    def test_output_feedback_mode_runs_output_feedback(self, dup_model, tmp_path,
                                                       monkeypatch):
        calls = {"sf": 0, "of": 0}

        def counting(name, fn):
            def synthesize(spec):
                calls[name] += 1
                return fn(spec)
            return synthesize

        monkeypatch.setattr(statefb, "synth_sf", counting("sf", statefb.synth_sf))
        monkeypatch.setattr(outputfb, "synth_of", counting("of", outputfb.synth_of))
        rc = main(["sweep", "--model", dup_model, "--mode", "of-hinf",
                   "--gamma0", "3.0", "--reweight-max", "2",
                   "--out", str(tmp_path / "s")])
        assert rc == 0
        # two reweighted solves and the pruned re-solve, all output feedback
        assert calls == {"sf": 0, "of": 3}

    def test_all_infeasible_exit_2(self, dup_model, tmp_path):
        rc = main(["sweep", "--model", dup_model, "--mode", "sf-hinf",
                   "--gamma0", "2.0", "--gamma-max", "0.4,0.4",
                   "--out", str(tmp_path / "s")])
        assert rc == 2


class TestPrune:
    def test_artifacts_and_kept_sets(self, dup_model, tmp_path):
        out = tmp_path / "prune"
        rc = main(["prune", "--model", dup_model, "--mode", "sf-hinf",
                   "--gamma0", "2.0", "--out", str(out)])
        assert rc == 0
        result = json.loads((out / "result.json").read_text())
        assert result["kept_actuators"] == [0]
        assert (out / "trace.json").exists()
        pruned = json.loads((out / "pruned_plant.json").read_text())
        assert np.asarray(pruned["Bu"]).shape == (1, 1)

    def test_joint_mode(self, scalar_model, tmp_path):
        out = tmp_path / "jp"
        rc = main(["prune", "--model", scalar_model, "--mode", "joint-h2",
                   "--gamma0", "2.0", "--reweight-max", "3", "--out", str(out)])
        assert rc == 0
        result = json.loads((out / "result.json").read_text())
        assert "kept_sensors" in result


    @pytest.mark.parametrize("mode,groups", [("sf-hinf", ["actuators"]),
                                             ("joint-hinf", ["actuators", "sensors"])])
    def test_trace_is_keyed_by_weight_group(self, dup_model, tmp_path, mode, groups):
        out = tmp_path / "o"
        rc = main(["prune", "--model", dup_model, "--mode", mode, "--gamma0", "3.0",
                   "--reweight-max", "3", "--out", str(out)])
        assert rc == 0
        trace = json.loads((out / "trace.json").read_text())
        sizes = {"actuators": 2, "sensors": 1}
        assert trace["iterations"]
        for it in trace["iterations"]:
            for key in ("weights", "values", "active_set"):
                assert sorted(it[key]) == groups
            for g in groups:
                assert len(it["weights"][g]) == sizes[g]
                assert len(it["values"][g]) == sizes[g]
                assert set(it["active_set"][g]) <= set(range(sizes[g]))

    @pytest.mark.parametrize("mode", ["sf-hinf", "joint-h2"])
    def test_active_sets_in_original_indices(self, second_model, tmp_path, mode):
        # only the second actuator and sensor are kept; the active sets must
        # name each by its original index, 1
        out = tmp_path / "o"
        rc = main(["prune", "--model", second_model, "--mode", mode, "--gamma0", "3.0",
                   "--reweight-max", "3", "--out", str(out)])
        assert rc == 0
        result = json.loads((out / "result.json").read_text())
        assert result["kept_actuators"] == [1]
        if mode == "sf-hinf":
            assert result["active_set"] == [1]
        else:
            assert result["kept_sensors"] == [1]
            assert result["active_actuators"] == [1]
            assert result["active_sensors"] == [1]


class TestDemo:
    def test_scalar_family(self, tmp_path):
        out = tmp_path / "demo"
        rc = main(["demo", "--family", "scalar", "--horizon", "2.0",
                   "--reweight-max", "2", "--out", str(out)])
        assert rc == 0
        sim = (out / "simulation.csv").read_text()
        assert sim.startswith("time,u1")
        assert (out / "plant.json").exists()
        assert (out / "controller.json").exists()

    def test_nonlinear_sim_rejected_off_tensegrity(self, tmp_path):
        rc = main(["demo", "--family", "scalar", "--nonlinear-sim",
                   "--out", str(tmp_path / "d")])
        assert rc == 1
        # refused before the design runs, so nothing was written
        assert not (tmp_path / "d" / "controller.json").exists()

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the second outer solve stalls at reduced accuracy (dual residual "
        "2.5e-7), and its controller verifies at 2.00685 > gamma0 = 2"))
    def test_chain_family(self, tmp_path):
        rc = main(["demo", "--family", "chain", "--horizon", "1",
                   "--out", str(tmp_path / "d")])
        assert rc == 0


class TestUsage:
    def test_missing_required_flag(self):
        assert main(["synth", "--mode", "sf-hinf", "--gamma0", "2.0"]) == 1

    def test_unknown_mode(self, scalar_model):
        assert main(["synth", "--model", scalar_model, "--mode", "lqr",
                     "--gamma0", "2.0"]) == 1

    def test_bad_gamma0_list(self, scalar_model):
        assert main(["sweep", "--model", scalar_model, "--mode", "sf-hinf",
                     "--gamma0", "abc"]) == 1

    @pytest.mark.parametrize("case", [
        "synth-sf-hinf--seed", "sweep-sf-hinf--seed", "prune-sf-hinf--seed",
        "synth-joint-hinf--rho", "prune-joint-h2--gamma-max",
        "synth-sf-hinf--mu", "sweep-of-h2--nu",
    ])
    def test_flag_the_mode_does_not_read(self, scalar_model, tmp_path, case):
        # demo alone reads --seed; the scalar plant has one actuator and sensor
        command, _, rest = case.partition("-")
        mode, _, flag = rest.partition("--")
        out = tmp_path / "o"
        rc = main([command, "--model", scalar_model, "--mode", mode, "--gamma0", "2.0",
                   "--out", str(out), f"--{flag}", "1"])
        assert rc == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["prune", "demo"])
    @pytest.mark.parametrize("threshold", ["1.5", "-0.5"])
    def test_impossible_threshold(self, tmp_path, command, threshold, capsys):
        # a ratio of 1.5 would keep every actuator and mark none active, and
        # -0.5 would act as 0; both are refused before any design runs, and
        # nothing is written
        model = tmp_path / "plant.json"
        save_plant(GeneralizedPlant(**THREE_ACTUATORS), model)
        out = tmp_path / "o"
        argv = (["prune", "--model", str(model), "--mode", "sf-hinf", "--gamma0", "2.0"]
                if command == "prune" else ["demo", "--family", "scalar"])
        rc = main(argv + ["--threshold", threshold, "--out", str(out)])
        assert rc == 1
        assert "threshold_ratio" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_model_file(self, tmp_path):
        assert main(["synth", "--model", str(tmp_path / "nope.json"),
                     "--mode", "sf-hinf", "--gamma0", "2.0"]) == 1
