import json

import numpy as np
import pytest

from sparsact import cli, joint, outputfb, statefb
from sparsact.bench import ScalarOracle
from sparsact.cli import _fmt, main
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

    @pytest.mark.parametrize("names", ["u1", [1, None]])
    def test_bad_channel_names_rejected(self, dup_model, tmp_path, capsys, names):
        # a string is not split into characters, and every name is a string
        d = json.loads(open(dup_model).read())
        d["actuator_names"] = names
        model = tmp_path / "named.json"
        model.write_text(json.dumps(d))
        out = tmp_path / "o"
        rc = main(["synth", "--model", str(model), "--mode", "sf-hinf",
                   "--gamma0", "2.0", "--out", str(out)])
        assert rc == 1
        assert "error: actuator_names must be None or a sequence of strings" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_infeasible_caps_exit_2(self, dup_model, tmp_path, capsys):
        # no plant-only bound settles the caps: the SDP refuses, and nothing is written
        out = tmp_path / "o"
        rc = main(["synth", "--model", dup_model, "--mode", "sf-hinf",
                   "--gamma0", "2.0", "--gamma-max", "0.4,0.4", "--out", str(out)])
        assert rc == 2
        assert "no Lyapunov certificate exists" in capsys.readouterr().err
        assert not out.exists()

    def test_bound_refusal_exit_2(self, tmp_path, capsys):
        # Dw = 1 is the closed loop's feedthrough under every controller
        model = tmp_path / "dw.json"
        save_plant(GeneralizedPlant(A=[[-1.0]], Bu=[[1.0]], Bw=[[1.0]], Cz=[[1.0]],
                                    Du=[[0.0]], Dw=[[1.0]], Cy=[[1.0]], Dyw=[[0.0]]), model)
        out = tmp_path / "o"
        rc = main(["synth", "--model", str(model), "--mode", "of-hinf", "--gamma0", "0.5",
                   "--out", str(out)])
        assert rc == 2
        assert ("closed-loop Hinf norm of at least 1, sigma_max(Dw), the closed loop's "
                "feedthrough, above gamma0 0.5") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--model", "--controller"])
    def test_non_object_json_rejected(self, scalar_model, tmp_path, capsys, flag):
        # a JSON list is no record: exit 1 with the record named, no traceback
        bad = tmp_path / "list.json"
        bad.write_text("[[1.0]]")
        out = tmp_path / "o"
        if flag == "--model":
            argv = ["synth", "--model", str(bad), "--mode", "sf-hinf", "--gamma0", "2"]
        else:
            argv = ["verify", "--model", scalar_model, "--controller", str(bad)]
        rc = main(argv + ["--out", str(out)])
        assert rc == 1
        record = "plant" if flag == "--model" else "controller"
        assert (f"error: a {record} must be a JSON object of its matrices, got list"
                in capsys.readouterr().err)
        assert not out.exists()

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

    def test_gamma0_whose_square_overflows(self, scalar_model, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["synth", "--model", scalar_model, "--mode", "of-h2",
                   "--gamma0", "1e308", "--out", str(out)])
        assert rc == 1
        assert "error: gamma0 must be positive and below" in capsys.readouterr().err
        assert not out.exists()

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


CONTRACT_MODES = ("sf-hinf", "of-h2", "joint-hinf")
CONTRACT_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e-308", "1e308", "2")


def _contract_cases():
    """mode x gamma0 x weight; numpy's overflow warning still escapes
    cli.main at weight 1e308 with a gamma0 that designs (ROADMAP item 15)."""
    for mode in CONTRACT_MODES:
        for gamma0 in CONTRACT_VALUES:
            for weight in CONTRACT_VALUES:
                marks = ()
                if weight == "1e308" and gamma0 in ("1e-308", "2"):
                    marks = pytest.mark.xfail(
                        raises=RuntimeWarning, strict=True,
                        reason=f"{mode} at gamma0 {gamma0}, weight 1e308: overflow "
                               "encountered in dot (ROADMAP item 15)")
                yield pytest.param(mode, gamma0, weight, marks=marks,
                                   id=f"{mode}-gamma0={gamma0}-weight={weight}")


class TestSynthContract:
    """Every synth request exits 0, 1 or 2 without an exception, and only
    exit 0 leaves an --out directory."""

    @pytest.mark.parametrize("mode,gamma0,weight", list(_contract_cases()))
    def test_exit_code_and_outputs(self, scalar_model, tmp_path, mode, gamma0, weight):
        flag = "--mu" if mode.startswith("joint") else "--rho"
        out = tmp_path / "out"
        rc = main(["synth", "--model", scalar_model, "--mode", mode, f"--gamma0={gamma0}",
                   f"{flag}={weight}", "--out", str(out)])
        assert rc in (0, 1, 2)
        assert rc == 0 or not out.exists()

    @pytest.mark.parametrize("mode", CONTRACT_MODES)
    def test_dump_in_missing_directory(self, scalar_model, tmp_path, capsys, mode):
        out = tmp_path / "out"
        rc = main(["synth", "--model", scalar_model, "--mode", mode, "--gamma0", "2",
                   "--dump-sdp", str(tmp_path / "missing" / "cone.txt"), "--out", str(out)])
        assert rc == 1
        assert "No such file or directory" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("gamma0", ["nan", "inf", "-inf", "-1", "0"])
    def test_bad_gamma0_rejected(self, scalar_model, tmp_path, capsys, gamma0):
        # refused before any norm is computed, and nothing is written
        ctrl = tmp_path / "zero.json"
        ctrl.write_text(json.dumps({"K": [[0.0]]}))
        out = tmp_path / "verify"
        rc = main(["verify", "--model", scalar_model, "--controller", str(ctrl),
                   f"--gamma0={gamma0}", "--out", str(out)])
        assert rc == 1
        assert "gamma0 must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

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

    def test_unstable_loop_with_gamma0_exits_2(self, scalar_model, tmp_path, capsys):
        # A = Bu = 1 under K = 0.5 leaves the pole at 1.5: a failed check
        ctrl = tmp_path / "k.json"
        ctrl.write_text(json.dumps({"K": [[0.5]]}))
        out = tmp_path / "verify"
        rc = main(["verify", "--model", scalar_model, "--controller", str(ctrl),
                   "--gamma0", "2", "--out", str(out)])
        assert rc == 2
        assert "closed loop is not stable: its norms are unbounded" in capsys.readouterr().err
        assert not (out / "verify.json").exists()

    def test_unstable_loop_without_gamma0_exits_1(self, scalar_model, tmp_path, capsys):
        ctrl = tmp_path / "k.json"
        ctrl.write_text(json.dumps({"K": [[0.5]]}))
        out = tmp_path / "verify"
        rc = main(["verify", "--model", scalar_model, "--controller", str(ctrl),
                   "--out", str(out)])
        assert rc == 1
        assert "Hinf norm undefined" in capsys.readouterr().err
        assert not (out / "verify.json").exists()


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

    def test_pruned_plant_keeps_dyu(self, tmp_path):
        # output feedback refuses the pruned plant as it refuses the original
        model = tmp_path / "dyu.json"
        save_plant(GeneralizedPlant(A=[[1.0]], Bu=[[1.0, 1.0]], Bw=[[1.0]], Cz=[[1.0]],
                                    Dyu=[[0.5, 0.7]]), model)
        out = tmp_path / "prune"
        rc = main(["prune", "--model", str(model), "--mode", "sf-hinf",
                   "--gamma0", "2.0", "--out", str(out)])
        assert rc == 0
        kept = json.loads((out / "result.json").read_text())["kept_actuators"]
        assert len(kept) == 1
        pruned = json.loads((out / "pruned_plant.json").read_text())
        assert pruned["Dyu"] == [[[0.5, 0.7][kept[0]]]]
        for plant in (model, out / "pruned_plant.json"):
            assert main(["synth", "--model", str(plant), "--mode", "of-hinf",
                         "--gamma0", "2.0", "--out", str(tmp_path / "of")]) == 1

    @pytest.mark.parametrize("mode", ["sf-hinf", "joint-hinf"])
    def test_dump_sdp_holds_the_re_solve(self, tmp_path, mode):
        # every solve rewrites the dump, so prune leaves the re-solve's problem,
        # byte for byte the one that synth on the pruned plant writes
        model = tmp_path / "plant.json"
        save_plant(GeneralizedPlant(**THREE_ACTUATORS), model)
        design = ["--mode", mode, "--gamma0", "2"]
        assert main(["prune", "--model", str(model), *design, "--out", str(tmp_path / "p"),
                     "--dump-sdp", str(tmp_path / "prune.txt")]) == 0
        assert main(["synth", "--model", str(tmp_path / "p" / "pruned_plant.json"), *design,
                     "--out", str(tmp_path / "s"), "--dump-sdp", str(tmp_path / "synth.txt")]) == 0
        assert (tmp_path / "prune.txt").read_bytes() == (tmp_path / "synth.txt").read_bytes()

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

    def test_simulation_csv_is_the_fmt_form(self, tmp_path, monkeypatch):
        # the rows are written with one % format each; they must be the
        # bytes that _fmt gives value by value
        sims = []

        def simulate(*args, **kwargs):
            sims.append(cli_simulate(*args, **kwargs))
            return sims[-1]

        cli_simulate = cli.simulate_closed_loop
        monkeypatch.setattr(cli, "simulate_closed_loop", simulate)
        out = tmp_path / "demo"
        assert main(["demo", "--family", "scalar", "--horizon", "1.0",
                     "--reweight-max", "2", "--out", str(out)]) == 0
        [sim] = sims
        want = "time,u1\n" + "".join(
            ",".join([_fmt(t)] + [_fmt(v) for v in u]) + "\n"
            for t, u in zip(sim.time, sim.controls))
        assert (out / "simulation.csv").read_text() == want
        assert len(want.splitlines()) == 1002

    def test_nonlinear_sim_rejected_off_tensegrity(self, tmp_path):
        rc = main(["demo", "--family", "scalar", "--nonlinear-sim",
                   "--out", str(tmp_path / "d")])
        assert rc == 1
        # refused before the design runs, so nothing was written
        assert not (tmp_path / "d" / "controller.json").exists()

    @pytest.mark.parametrize("horizon", ["-1", "nan", "inf"])
    def test_bad_horizon_rejected(self, tmp_path, capsys, horizon):
        # refused before the design runs, so nothing was written
        out = tmp_path / "d"
        rc = main(["demo", "--family", "scalar", "--horizon", horizon, "--out", str(out)])
        assert rc == 1
        assert "horizon must be finite and nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        # refused before the design runs, so nothing was written
        out = tmp_path / "d"
        rc = main(["demo", "--family", "scalar", "--seed", "-1", "--horizon", "0.1",
                   "--out", str(out)])
        assert rc == 1
        assert "--seed must be a nonnegative integer, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_unallocatable_horizon_rejected(self, tmp_path, capsys):
        # 1e15 steps at dt = 1e-3: refused before the design runs
        out = tmp_path / "d"
        rc = main(["demo", "--family", "scalar", "--horizon", "1e12", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "horizon 1000000000000.0 at dt 0.001 makes a time grid too long to allocate" in err
        assert not out.exists()

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

    @pytest.mark.parametrize("argv,field", [
        (["synth", "--mode", "sf-hinf", "--gamma0", "2", "--rho", "nan,1,1"], "rho"),
        (["synth", "--mode", "sf-hinf", "--gamma0", "inf"], "gamma0"),
        (["synth", "--mode", "sf-h2", "--gamma0", "inf"], "gamma0"),
        (["synth", "--mode", "joint-h2", "--gamma0", "2", "--mu", "nan,1,1"], "mu"),
        (["synth", "--mode", "sf-hinf", "--gamma0", "2", "--gamma-max", "inf,inf,inf"],
         "gamma_max"),
        (["prune", "--mode", "sf-hinf", "--gamma0", "2", "--epsilon", "inf"], "epsilon"),
    ], ids=["rho-nan", "sf-hinf-gamma0-inf", "sf-h2-gamma0-inf", "mu-nan", "gamma-max-inf",
            "epsilon-inf"])
    def test_non_finite_input(self, tmp_path, argv, field, capsys):
        # refused before any solve, with the field named, and nothing written
        model = tmp_path / "plant.json"
        save_plant(GeneralizedPlant(**THREE_ACTUATORS), model)
        out = tmp_path / "o"
        rc = main(argv + ["--model", str(model), "--out", str(out)])
        assert rc == 1
        assert f"error: {field} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_model_file(self, tmp_path):
        assert main(["synth", "--model", str(tmp_path / "nope.json"),
                     "--mode", "sf-hinf", "--gamma0", "2.0"]) == 1
