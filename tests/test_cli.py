"""End-to-end checks of the `sim` command line: exit codes, file layout,
JSON payloads, and sweep aggregation. Everything runs in-process through
cli.main so coverage and determinism are easy to reason about."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from attrep import DomainSpec, Field, ModelParams, compute_bounds
from attrep.cli import EXIT_BLOWUP, EXIT_ERROR, EXIT_OK, main
from attrep.config import load_config, set_sweep_value
from attrep.grid import read_field_csv, write_field_csv

FOUR_PI = 4.0 * math.pi

REPO_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


def base_config(**overrides):
    cfg = {
        "domain": {"lengths": [1.0, 1.0], "cells": [32, 32]},
        "params": {
            "alpha": 1.0,
            "beta": 1.0,
            "gamma": 1.0,
            "delta": 1.0,
            "chi": 1.0,
            "xi": 1.0,
            "rho": 0.5,
            "dim": 2,
        },
        "initial": {
            "kind": "gaussian-bump",
            "amplitude": 1.0,
            "center": [0.5, 0.5],
            "width": 0.1,
            "mass": 2.0,
        },
        "stepper": {"scheme": "explicit-upwind", "cfl_safety": 0.4, "dt_max": 0.01},
        "diagnostics": {"p": [2.0], "sample_every": 5},
        "outputs": {"directory": "sim_out", "snapshot_every": 0},
        "t_end": 2e-3,
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            for inner, v in value.items():
                if v is None:
                    cfg[key].pop(inner, None)
                else:
                    cfg[key][inner] = v
        else:
            cfg[key] = value
    return cfg


def write_config(tmp_path, name="exp.json", **overrides):
    cfg = base_config(**overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestClassify:
    def test_subcritical_json(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            params={"rho": 1.0, "chi": 2.0},
            initial={"mass": FOUR_PI / 2.0},
        )
        assert main(["classify", cfg]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["regime"] == "SubcriticalMass"
        assert out["critical_mass"] == pytest.approx(FOUR_PI, rel=1e-12)
        assert out["mass"] == pytest.approx(FOUR_PI / 2.0, rel=1e-9)
        assert out["predicted_outcome"] == "bounded"
        assert out["theorem_applies"] is False

    def test_supercritical_json(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            params={"rho": 1.0, "chi": 2.0},
            initial={"mass": 2.0 * FOUR_PI},
        )
        assert main(["classify", cfg]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["regime"] == "SupercriticalMass"
        assert out["predicted_outcome"] == "blowup"

    def test_sublinear_guarantee(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["classify", cfg]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["regime"] == "SublinearGlobal"
        assert out["theorem_applies"] is True

    def test_repulsion_dominant(self, tmp_path, capsys):
        cfg = write_config(tmp_path, params={"rho": 1.0, "xi": 3.0})
        assert main(["classify", cfg]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["regime"] == "RepulsionDominant"
        assert out["critical_mass"] is None


class TestBounds:
    def test_json_matches_library(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, bounds={"p": 1.5})
        assert main(["bounds", cfg_path]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)

        cfg = load_config(cfg_path)
        from attrep.model import build_initial_data

        _, mass = build_initial_data(cfg.initial, cfg.domain)
        report = compute_bounds(cfg.params, mass, 1.5, dom=cfg.domain)
        expected = report.to_dict()
        for key in ("theta", "c1", "eta", "c_tilde", "c_star", "cbar", "c_star_total"):
            assert out[key] == pytest.approx(expected[key], rel=1e-12), key
        assert out["provenance"] == expected["provenance"]

    def test_default_exponent_is_three_quarter_dim(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["bounds", cfg]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["p"] == 1.5
        assert out["n"] == 2

    def test_p_override_wins(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bounds={"p": 1.5})
        assert main(["bounds", cfg, "--p", "2.5"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["p"] == 2.5

    def test_p_at_most_one_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["bounds", cfg, "--p", "1.0"]) == EXIT_ERROR
        assert "p > 1" in capsys.readouterr().err

    def test_linear_production_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, params={"rho": 1.0})
        assert main(["bounds", cfg]) == EXIT_ERROR
        assert "rho" in capsys.readouterr().err


class TestSimulate:
    def test_output_tree(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bounds={"p": 2.0})
        out_dir = tmp_path / "run"
        assert main(["simulate", cfg, "--out", str(out_dir)]) == EXIT_OK
        for name in (
            "diagnostics.csv",
            "u_final.csv",
            "v_final.csv",
            "w_final.csv",
            "diagnostics.svg",
            "summary.json",
        ):
            assert (out_dir / name).exists(), name

        header = (out_dir / "diagnostics.csv").read_text().splitlines()[0]
        assert header == "t,mass,u_min,u_max,E_2,gradE_2,v_max,w_max,dEdt,rhs_bound"

        summary = read_json(out_dir / "summary.json")
        assert summary["status"] == "Completed"
        assert summary["cells"] == [32, 32]
        assert summary["scheme"] == "explicit-upwind"
        assert summary["conservation_drift"] <= 1e-12
        assert summary["min_density_ratio"] >= -1e-13
        assert "2" in summary["final_energies"]
        assert summary["bounds"]["p"] == 2.0
        assert summary["energy_inequality"]["n_pairs"] >= 1
        assert 0.0 < summary["absorptive"]["max_ratio"]

        status_line = capsys.readouterr().out
        assert "Completed" in status_line
        assert "outputs in" in status_line

    def test_final_fields_readable(self, tmp_path):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "run"
        assert main(["simulate", cfg, "--out", str(out_dir)]) == EXIT_OK
        dom = DomainSpec((1.0, 1.0), (32, 32))
        u = read_field_csv(out_dir / "u_final.csv", dom)
        assert float(u.values.sum()) * dom.h**2 == pytest.approx(2.0, rel=1e-9)

    def test_uniform_reaches_steady(self, tmp_path):
        cfg = write_config(
            tmp_path,
            initial={"kind": "uniform", "amplitude": 1.0, "mass": None, "width": None},
            t_end=1.0,
        )
        out_dir = tmp_path / "run"
        assert main(["simulate", cfg, "--out", str(out_dir)]) == EXIT_OK
        assert read_json(out_dir / "summary.json")["status"] == "SteadyDetected"

    def test_blowup_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path,
            domain={"lengths": [1.0, 1.0], "cells": [64, 64]},
            params={"rho": 1.0, "chi": 2.0},
            initial={"width": 0.08, "mass": 3.0 * FOUR_PI},
            t_end=0.05,
            blowup_threshold=5000.0,
        )
        out_dir = tmp_path / "run"
        assert main(["simulate", cfg, "--out", str(out_dir)]) == EXIT_BLOWUP
        summary = read_json(out_dir / "summary.json")
        assert summary["status"] == "BlowupSuspected"
        assert summary["t_final"] < 0.05

    def test_missing_rho_names_field(self, tmp_path, capsys):
        raw = base_config()
        del raw["params"]["rho"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(raw))
        assert main(["simulate", str(path)]) == EXIT_ERROR
        assert "params.rho" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, field",
        [
            # without the check this run never stops: NaN compares false both ways
            ({"t_end": math.nan, "steady_tol": math.nan}, "t_end"),
            # without the check blow-up detection is silently off
            ({"blowup_threshold": math.nan}, "blowup_threshold"),
            ({"diagnostics": {"p": [2.0, math.inf]}}, "diagnostics.p"),
            ({"initial": {"center": [math.nan, 0.5]}}, "initial.center"),
            ({"initial": {"center": [None, 0.5]}}, "initial.center"),
            # an integer literal beyond float range is infinite, not an OverflowError
            ({"t_end": 10**400}, "t_end"),
        ],
    )
    def test_bad_config_number_rejected(self, tmp_path, capsys, overrides, field):
        cfg = write_config(tmp_path, **overrides)
        out_dir = tmp_path / "run"
        assert main(["simulate", cfg, "--out", str(out_dir)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert field in err and "expected a" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag", ["--t-end", "--blowup-threshold"])
    @pytest.mark.parametrize("text", ["nan", "inf"])
    def test_non_finite_override_rejected(self, tmp_path, capsys, flag, text):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "run"
        assert main(["simulate", cfg, "--out", str(out_dir), flag, text]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert flag in err and "finite" in err
        assert not out_dir.exists()

    def test_negative_snapshot_every_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "run"
        assert main(["simulate", cfg, "--out", str(out_dir), "--snapshot-every", "-3"]) == EXIT_ERROR
        assert "--snapshot-every" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_dim_other_than_two_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, params={"dim": 3})
        out_dir = tmp_path / "run"
        assert main(["simulate", cfg, "--out", str(out_dir)]) == EXIT_ERROR
        assert "params.dim" in capsys.readouterr().err
        assert not out_dir.exists()
        # the analytic commands still accept any dim >= 2
        assert main(["classify", cfg]) == EXIT_OK

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", cfg, "--out", str(a)]) == EXIT_OK
        assert main(["simulate", cfg, "--out", str(b)]) == EXIT_OK
        for name in ("diagnostics.csv", "u_final.csv", "v_final.csv", "w_final.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_snapshot_cadence(self, tmp_path):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "run"
        code = main(["simulate", cfg, "--out", str(out_dir), "--snapshot-every", "5"])
        assert code == EXIT_OK
        snaps = sorted(p.name for p in out_dir.glob("u_0*.csv"))
        assert snaps[0] == "u_00000000.csv"
        assert "u_00000005.csv" in snaps

    def test_stale_snapshots_removed(self, tmp_path):
        # No drift, so dt is the diffusive bound 0.4 h^2 / 4 with h = 1/16.
        dt = 0.4 / 16**2 / 4
        cfg = write_config(
            tmp_path,
            domain={"cells": [16, 16]},
            params={"chi": 0.0, "xi": 0.0},
            outputs={"snapshot_every": 1},
        )
        out_dir = tmp_path / "run"
        args = ["simulate", cfg, "--out", str(out_dir), "--t-end"]
        assert main(args + [repr(5.5 * dt)]) == EXIT_OK
        assert len(list(out_dir.glob("u_0*.csv"))) == 7
        (out_dir / "u_notes.csv").write_text("kept\n")
        assert main(args + [repr(1.5 * dt)]) == EXIT_OK
        assert read_json(out_dir / "summary.json")["steps"] == 2
        snaps = sorted(p.name for p in out_dir.glob("u_0*.csv"))
        assert snaps == ["u_00000000.csv", "u_00000001.csv", "u_00000002.csv"]
        assert (out_dir / "u_notes.csv").read_text() == "kept\n"
        assert (out_dir / "u_final.csv").exists()

    def test_t_end_zero_override(self, tmp_path):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "run"
        assert main(["simulate", cfg, "--out", str(out_dir), "--t-end", "0"]) == EXIT_OK
        lines = (out_dir / "diagnostics.csv").read_text().splitlines()
        assert len(lines) == 1
        summary = read_json(out_dir / "summary.json")
        assert summary["status"] == "Completed"
        assert summary["steps"] == 0
        assert summary["final_energies"] == {}

    def test_scheme_override_recorded(self, tmp_path):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "run"
        code = main(["simulate", cfg, "--out", str(out_dir), "--scheme", "imex-diffusion"])
        assert code == EXIT_OK
        assert read_json(out_dir / "summary.json")["scheme"] == "imex-diffusion"

    def test_from_file_initial(self, tmp_path):
        dom = DomainSpec((1.0, 1.0), (32, 32))
        x, y = dom.cell_centers()
        values = 1.0 + 0.3 * np.cos(np.pi * x)[:, None] * np.cos(np.pi * y)[None, :]
        u0_path = tmp_path / "u0.csv"
        write_field_csv(Field(values, dom), u0_path)
        cfg = write_config(
            tmp_path,
            initial={
                "kind": "from-file",
                "path": str(u0_path),
                "mass": None,
                "width": None,
                "amplitude": None,
            },
        )
        out_dir = tmp_path / "run"
        assert main(["simulate", cfg, "--out", str(out_dir)]) == EXIT_OK
        summary = read_json(out_dir / "summary.json")
        assert summary["mass_initial"] == pytest.approx(1.0, rel=1e-12)


class TestSweep:
    def test_critical_mass_pair(self, tmp_path):
        cfg = write_config(
            tmp_path,
            domain={"lengths": [1.0, 1.0], "cells": [64, 64]},
            params={"rho": 1.0, "chi": 2.0},
            initial={"width": 0.08, "mass": FOUR_PI / 2.0},
            sweep={"axis": "initial.mass", "values": [FOUR_PI / 2.0, 3.0 * FOUR_PI]},
            t_end=0.05,
            blowup_threshold=5000.0,
        )
        out_dir = tmp_path / "sweep"
        assert main(["sweep", cfg, "--out", str(out_dir)]) == EXIT_OK

        lines = (out_dir / "regime_map.csv").read_text().splitlines()
        assert lines[0] == "initial.mass,classifier_prediction,observed_outcome,agreement"
        assert len(lines) == 3
        sub = lines[1].split(",")
        sup = lines[2].split(",")
        assert sub[1:] == ["SubcriticalMass", "bounded", "true"]
        assert sup[1:] == ["SupercriticalMass", "blowup", "true"]
        assert (out_dir / "regime_map.svg").exists()
        for point in ("point_000", "point_001"):
            assert (out_dir / point / "summary.json").exists()
            assert (out_dir / point / "diagnostics.csv").exists()

    def test_rho_axis_all_bounded(self, tmp_path):
        cfg = write_config(
            tmp_path,
            params={"chi": 5.0, "xi": 0.1},
            sweep={"axis": "params.rho", "values": [0.3, 0.6, 0.9]},
            t_end=2e-3,
        )
        out_dir = tmp_path / "sweep"
        assert main(["sweep", cfg, "--out", str(out_dir)]) == EXIT_OK
        lines = (out_dir / "regime_map.csv").read_text().splitlines()[1:]
        assert len(lines) == 3
        for line in lines:
            fields = line.split(",")
            assert fields[1] == "SublinearGlobal"
            assert fields[2] == "bounded"
            assert fields[3] == "true"

    def test_points_match_simulate(self, tmp_path):
        # one pipeline: each point directory is what `simulate` writes for
        # that point's config, byte for byte, apart from the wall time
        overrides = dict(
            sweep={"axis": "initial.mass", "values": [1.0, 2.5]},
            bounds={"p": 2.0},
            outputs={"snapshot_every": 2},
        )
        cfg = write_config(tmp_path, **overrides)
        sweep_dir = tmp_path / "sweep"
        assert main(["sweep", cfg, "--out", str(sweep_dir)]) == EXIT_OK
        raw = base_config(**overrides)
        for i, value in enumerate(raw["sweep"]["values"]):
            point = sweep_dir / f"point_{i:03d}"
            path = tmp_path / f"point_{i}.json"
            path.write_text(json.dumps(set_sweep_value(raw, "initial.mass", value)))
            run_dir = tmp_path / f"simulate_{i}"
            assert main(["simulate", str(path), "--out", str(run_dir)]) == EXIT_OK
            names = sorted(p.name for p in point.iterdir())
            assert names == sorted(p.name for p in run_dir.iterdir())
            assert {"u_00000000.csv", "v_final.csv", "diagnostics.svg"} <= set(names)
            for name in names:
                if name == "summary.json":
                    a, b = read_json(point / name), read_json(run_dir / name)
                    assert a.pop("wall_time_s") > 0.0 and b.pop("wall_time_s") > 0.0
                    assert a == b
                    assert "energy_inequality" in a
                else:
                    assert (point / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_error_reason_on_stderr(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sweep={"axis": "initial.mass", "values": [1.0, -1.0]})
        out_dir = tmp_path / "sweep"
        assert main(["sweep", cfg, "--out", str(out_dir)]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == "initial.mass = -1.0: error: target mass must be positive, got -1.0\n"
        assert "error:" not in captured.out
        lines = (out_dir / "regime_map.csv").read_text().splitlines()
        assert lines[2] == "-1,error,error,na"
        assert not (out_dir / "point_001").exists()

    @pytest.mark.parametrize("bad", ["abc", True, math.nan, -math.inf])
    def test_non_numeric_value_rejected(self, tmp_path, capsys, bad):
        cfg = write_config(tmp_path, sweep={"axis": "initial.mass", "values": [1.0, bad]})
        out_dir = tmp_path / "sweep"
        assert main(["sweep", cfg, "--out", str(out_dir)]) == EXIT_ERROR
        assert "'sweep.values[1]'" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_int_values_kept(self, tmp_path):
        cfg = load_config(write_config(tmp_path, sweep={"axis": "params.dim", "values": [2, 3]}))
        assert cfg.sweep_values == (2, 3)
        assert all(type(v) is int for v in cfg.sweep_values)

    def test_missing_sweep_block(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["sweep", cfg]) == EXIT_ERROR
        assert "no sweep block" in capsys.readouterr().err

    def test_empty_values(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sweep={"axis": "initial.mass", "values": []})
        assert main(["sweep", cfg]) == EXIT_ERROR
        assert "sweep.values is empty" in capsys.readouterr().err

    def test_dim_other_than_two_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, params={"dim": 3}, sweep={"axis": "initial.mass", "values": [1.0]}
        )
        out_dir = tmp_path / "sweep"
        assert main(["sweep", cfg, "--out", str(out_dir)]) == EXIT_ERROR
        assert "params.dim" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unknown_axis_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sweep={"axis": "params.nope", "values": [1.0]})
        assert main(["sweep", cfg]) == EXIT_ERROR
        assert "params.nope" in capsys.readouterr().err

    def test_parallel_workers_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SIM_WORKERS", "2")
        cfg = write_config(
            tmp_path,
            sweep={"axis": "initial.mass", "values": [1.0, 2.0]},
        )
        out_dir = tmp_path / "sweep"
        assert main(["sweep", cfg, "--out", str(out_dir)]) == EXIT_OK
        assert len((out_dir / "regime_map.csv").read_text().splitlines()) == 3

    def test_bad_workers_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SIM_WORKERS", "many")
        cfg = write_config(tmp_path, sweep={"axis": "initial.mass", "values": [1.0]})
        assert main(["sweep", cfg]) == EXIT_ERROR
        assert "SIM_WORKERS" in capsys.readouterr().err


class TestRepoConfigs:
    @pytest.mark.parametrize("path", REPO_CONFIGS, ids=lambda p: p.stem)
    def test_example_config_parses(self, path):
        cfg = load_config(str(path))
        assert cfg.t_end > 0.0

    def test_examples_exist(self):
        assert len(REPO_CONFIGS) >= 3
