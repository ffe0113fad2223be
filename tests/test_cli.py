"""End-to-end checks of the `sim` command line: exit codes, file layout,
JSON payloads, and sweep aggregation. Everything runs in-process through
cli.main so coverage and determinism are easy to reason about."""

import hashlib
import importlib.util
import inspect
import itertools
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from attrep import BumpSpec, DomainSpec, Field, InitialData, ModelParams, compute_bounds
from attrep.cli import EXIT_BLOWUP, EXIT_ERROR, EXIT_OK, main
from attrep.config import _SCHEMA, from_dict, load_config, sweep_point
from attrep.errors import ConfigError, SimulationError
from attrep.grid import read_field_csv, write_field_csv
from attrep.model import _INITIAL_KINDS

FOUR_PI = 4.0 * math.pi

REPO_ROOT = Path(__file__).resolve().parents[1]
REPO_CONFIGS = sorted((REPO_ROOT / "configs").glob("*.json"))

# An override value that writes an explicit JSON null; None deletes the key.
JSON_NULL = object()


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
                    cfg[key][inner] = None if v is JSON_NULL else v
        else:
            cfg[key] = value
    return cfg


# A two-bump multi-bump initial block for base_config, without the bump keys.
MULTI_BUMP = {
    "kind": "multi-bump",
    "bumps": [
        {"center": [0.3, 0.3], "width": 0.1, "amplitude": 1.0},
        {"center": [0.7, 0.6], "width": 0.1, "amplitude": 2.0},
    ],
    "amplitude": None,
    "center": None,
    "width": None,
}


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

    def test_sublinear_without_repulsion(self, tmp_path, capsys):
        # The proof's constants need xi > 0 (compute_bounds rejects xi = 0).
        cfg = write_config(tmp_path, params={"xi": 0.0})
        assert main(["classify", cfg]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["regime"] == "SublinearGlobal"
        assert out["theorem_applies"] is False

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

    def test_non_finite_p_names_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["bounds", cfg, "--p", "nan"]) == EXIT_ERROR
        assert "'--p': expected a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("length", [1e150, 1e-150])
    def test_extreme_lengths_print_error(self, tmp_path, capsys, length):
        # The test family's norms leave the float range: an error line and
        # exit 1, not a traceback.
        cfg = write_config(
            tmp_path,
            domain={"lengths": [length, length], "cells": [8, 8]},
            initial={"kind": "uniform", "amplitude": 1.0, "center": None, "width": None, "mass": None},
        )
        assert main(["bounds", cfg, "--p", "1.5"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: test-family norms leave the float range on a domain of lengths ({length!r}, {length!r})\n"

    def test_linear_production_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, params={"rho": 1.0})
        assert main(["bounds", cfg]) == EXIT_ERROR
        assert "rho" in capsys.readouterr().err

    def test_pure_repulsion_has_zero_c1(self, tmp_path, capsys):
        # chi = 0 switches attraction off, and c1 -> 0 as chi -> 0
        cfg = write_config(tmp_path, domain={"cells": [16, 16]}, params={"chi": 0.0}, bounds={"p": 2.0})
        assert main(["bounds", cfg]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["c1"] == 0.0
        out_dir = tmp_path / "run"
        assert main(["simulate", cfg, "--out", str(out_dir)]) == EXIT_OK
        summary = read_json(out_dir / "summary.json")
        assert summary["bounds"]["c1"] == 0.0
        assert summary["energy_inequality"]["n_pairs"] > 0


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
        "initial, expected",
        [
            ({"kind": "uniform", "amplitude": 3}, InitialData("uniform", amplitude=3.0, mass=2.0)),
            ({"amplitude": None, "center": None}, InitialData("gaussian-bump", width=0.1, mass=2.0)),
            (
                MULTI_BUMP,
                InitialData(
                    "multi-bump", bumps=(BumpSpec((0.3, 0.3), 0.1, 1.0), BumpSpec((0.7, 0.6), 0.1, 2.0)), mass=2.0
                ),
            ),
            ({"kind": "from-file", "path": "u0.csv"}, InitialData("from-file", path="u0.csv", mass=2.0)),
        ],
    )
    def test_each_initial_kind_reads_its_keys(self, tmp_path, initial, expected):
        # keys of other kinds are left at their defaults, as is gaussian-bump's amplitude
        assert load_config(write_config(tmp_path, initial=initial)).initial == expected

    @pytest.mark.parametrize(
        "initial, key",
        [
            ({"kind": "uniform", "amplitude": None}, "amplitude"),
            ({"width": None}, "width"),
            ({**MULTI_BUMP, "bumps": None}, "bumps"),
            ({"kind": "from-file"}, "path"),
        ],
    )
    def test_required_initial_key_missing(self, tmp_path, initial, key):
        with pytest.raises(SimulationError, match=re.escape(f"'initial.{key}': missing")):
            load_config(write_config(tmp_path, initial=initial))

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
            # a cell count is a JSON integer: no truncation, no string, no bool
            ({"domain": {"cells": [16.7, 16.2]}}, "domain.cells"),
            ({"domain": {"cells": ["16", "16"]}}, "domain.cells"),
            ({"domain": {"lengths": [1, 1], "cells": [True, True]}}, "domain.cells"),
            # a number is a JSON number, not a string or a bool
            ({"domain": {"lengths": ["1", "1"]}}, "domain.lengths"),
            ({"initial": {"center": ["0.5", "0.5"]}}, "initial.center"),
            ({"initial": {"center": [True, False]}}, "initial.center"),
            (
                {
                    "initial": {
                        "kind": "multi-bump",
                        "bumps": [{"center": ["0.5", "0.5"], "width": 0.1, "amplitude": 1.0}],
                    }
                },
                "initial.bumps[0].center",
            ),
            ({"diagnostics": {"p": ["3"]}}, "diagnostics.p"),
            ({"diagnostics": {"p": [2.0, True]}}, "diagnostics.p"),
            # an explicit null is not an omitted key
            ({"initial": {"center": JSON_NULL}}, "initial.center"),
            # energy exponents are numbers above 1
            ({"diagnostics": {"p": [1.0]}}, "diagnostics.p"),
            ({"bounds": {"p": 0.5}}, "bounds.p"),
            # one column per exponent: a repeat would write E_2 twice
            ({"diagnostics": {"p": [2.0, 2.0]}}, "diagnostics.p"),
            ({"diagnostics": {"p": [2.0, 2]}}, "diagnostics.p"),
            # every key of initial is read, also where its kind never uses it
            ({"initial": {"kind": "uniform", "width": "abc"}}, "initial.width"),
            ({"initial": {"kind": "uniform", "center": [None, "x"]}}, "initial.center"),
            ({"initial": {"kind": "uniform", "bumps": 7}}, "initial.bumps"),
            ({"initial": {"kind": "uniform", "path": 3}}, "initial.path"),
        ],
    )
    def test_bad_config_number_rejected(self, tmp_path, capsys, overrides, field):
        cfg = write_config(tmp_path, **overrides)
        out_dir = tmp_path / "run"
        assert main(["simulate", cfg, "--out", str(out_dir)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert field in err and "expected a" in err
        assert not out_dir.exists()

    def test_bad_bump_names_its_index(self, tmp_path, capsys):
        # each bump is built under its own path, its NegativeAmplitude too
        bumps = [MULTI_BUMP["bumps"][0], {**MULTI_BUMP["bumps"][1], "amplitude": -2}]
        cfg = write_config(tmp_path, initial={**MULTI_BUMP, "bumps": bumps})
        out_dir = tmp_path / "run"
        assert main(["simulate", cfg, "--out", str(out_dir)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "error: config field 'initial.bumps[1]': bump amplitude must be >= 0, got -2.0" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "params, problem",
        [({"rho": 2.0}, "rho must lie in (0, 1]"), ({"alpha": -1.0}, "coefficient 'alpha' must be strictly positive")],
    )
    def test_bad_params_name_their_block(self, params, problem):
        # ModelParams' own range errors come out as config errors of the block
        with pytest.raises(ConfigError) as info:
            from_dict(base_config(params=params))
        assert info.value.field == "params"
        assert str(info.value).startswith(f"config field 'params': {problem}")

    @pytest.mark.parametrize(
        "overrides, field",
        [
            # without the check each of these runs at its default with exit code 0
            ({"stepper": {"shceme": "imex-diffusion"}}, "stepper.shceme"),
            ({"diagnostics": {"every": 3}}, "diagnostics.every"),
            ({"t_ned": 1.0}, "t_ned"),
            (
                {
                    "initial": {
                        "kind": "multi-bump",
                        "bumps": [{"centre": [0.5, 0.5], "width": 0.1, "amplitude": 1.0}],
                    }
                },
                "initial.bumps[0].centre",
            ),
        ],
    )
    def test_unknown_key_rejected(self, tmp_path, capsys, overrides, field):
        cfg = write_config(tmp_path, **overrides)
        out_dir = tmp_path / "run"
        assert main(["simulate", cfg, "--out", str(out_dir)]) == EXIT_ERROR
        assert f"config field '{field}': unknown key" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_readme_schema_table_matches_reader(self):
        # the README's `| block | keys |` table lists, per block, the keys the
        # reader takes; the root row lists the scalars outside any block
        lines = (REPO_ROOT / "README.md").read_text().splitlines()
        start = lines.index("| block | keys |") + 2
        table = {}
        for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:]):
            block, keys = (cell.strip() for cell in line.strip("|").split("|"))
            keys = re.sub(r"\([^)]*\)|\[[^]]*\]", "", keys)  # drop notes and value shapes
            quoted = ",".join(re.findall(r"`([^`]*)`", keys))
            table[block.strip("`")] = {key.strip() for key in quoted.split(",")}
        root = table.pop("root")
        assert set(table) | root == set(_SCHEMA)
        for block, keys in table.items():
            assert keys == set(inspect.getclosurevars(_SCHEMA[block]).nonlocals["schema"]), block
        shape = {key for _, reads in _INITIAL_KINDS.values() for key in reads}
        assert table["initial"] == {"kind", "mass"} | shape

    def test_config_directory_is_an_error(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: config field '<file>': cannot read") and str(tmp_path) in err

    def test_output_path_that_is_a_file_is_an_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "taken"
        out.write_text("kept\n")
        assert main(["simulate", cfg, "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_text() == "kept\n"

    def test_bounds_exponent_joins_sampled_exponents(self, tmp_path):
        cfg = write_config(tmp_path, bounds={"p": 1.5}, diagnostics={"p": [2.0]})
        out_dir = tmp_path / "run"
        assert main(["simulate", cfg, "--out", str(out_dir)]) == EXIT_OK
        header = (out_dir / "diagnostics.csv").read_text().splitlines()[0]
        assert header == "t,mass,u_min,u_max,E_2,E_1.5,gradE_2,gradE_1.5,v_max,w_max,dEdt,rhs_bound"
        summary = read_json(out_dir / "summary.json")
        assert list(summary["final_energies"]) == ["2", "1.5"]
        assert summary["bounds"]["p"] == 1.5
        assert summary["energy_inequality"]["n_pairs"] >= 1
        assert 0.0 < summary["absorptive"]["max_ratio"]

    @pytest.mark.parametrize(
        "params, text",
        [
            ({"rho": 2.0}, "rho must lie in (0, 1]"),
            ({"gamma": 0.0}, "coefficient 'gamma' must be strictly positive"),
            ({"chi": -1.0}, "coefficient 'chi' must be nonnegative"),
        ],
    )
    def test_inadmissible_params_fail_at_load(self, tmp_path, capsys, params, text):
        cfg = write_config(tmp_path, params=params)
        out_dir = tmp_path / "run"
        with pytest.raises(SimulationError, match=re.escape(text)):
            load_config(cfg)
        assert main(["simulate", cfg, "--out", str(out_dir)]) == EXIT_ERROR
        assert text in capsys.readouterr().err
        assert not out_dir.exists()

    def test_bounds_failure_leaves_no_output_directory(self, tmp_path, capsys):
        # the config parses; compute_bounds rejects the constant inside the run pipeline
        cfg = write_config(tmp_path, bounds={"p": 2.0, "cgn": -1.0})
        out_dir = tmp_path / "run"
        assert main(["simulate", cfg, "--out", str(out_dir)]) == EXIT_ERROR
        assert "C_GN estimate must be finite and > 0" in capsys.readouterr().err
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

    def test_stale_plot_removed(self, tmp_path):
        # A run with no records writes no plot and leaves none of an earlier
        # run's beside its header-only diagnostics.csv.
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "run"
        assert main(["simulate", cfg, "--out", str(out_dir)]) == EXIT_OK
        assert (out_dir / "diagnostics.svg").exists()
        assert main(["simulate", cfg, "--out", str(out_dir), "--t-end", "0"]) == EXIT_OK
        assert len((out_dir / "diagnostics.csv").read_text().splitlines()) == 1
        assert not (out_dir / "diagnostics.svg").exists()
        assert main(["simulate", cfg, "--out", str(out_dir)]) == EXIT_OK
        assert (out_dir / "diagnostics.svg").exists()

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
        for i, value in enumerate(overrides["sweep"]["values"]):
            point = sweep_dir / f"point_{i:03d}"
            path = tmp_path / f"point_{i}.json"
            path.write_text(json.dumps(base_config(initial={"mass": value}, **overrides)))
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

    def test_inadmissible_base_fails_at_load(self, tmp_path, capsys):
        # the axis would override the bad leaf, but the base config must stand alone
        cfg = write_config(tmp_path, params={"rho": 2.0}, sweep={"axis": "params.rho", "values": [0.5]})
        out_dir = tmp_path / "sweep"
        assert main(["sweep", cfg, "--out", str(out_dir)]) == EXIT_ERROR
        assert "rho must lie in (0, 1]" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_root_level_axis(self):
        cfg = from_dict(base_config(sweep={"axis": "t_end", "values": [0.5]}))
        point = sweep_point(cfg, 0.5)
        assert point == replace(cfg, t_end=0.5)
        assert cfg.t_end == 2e-3
        assert point.params is cfg.params and point.initial is cfg.initial
        nested = sweep_point(replace(cfg, sweep_axis="params.rho"), 0.7)
        assert nested.params == replace(cfg.params, rho=0.7)
        assert cfg.params.rho == 0.5
        assert nested.initial is cfg.initial

    def test_point_values_are_floats(self):
        # read as floats at load, so a point replaces its leaf with a float
        cfg = from_dict(base_config(sweep={"axis": "initial.mass", "values": [3]}))
        assert cfg.sweep_values == (3.0,) and type(cfg.sweep_values[0]) is float
        assert type(sweep_point(cfg, cfg.sweep_values[0]).initial.mass) is float

    @pytest.mark.parametrize(
        "initial, text",
        [
            (
                {**MULTI_BUMP, "bumps": [{"center": [0.3, 0.3], "width": -0.1, "amplitude": 1.0}]},
                "bump width must be positive, got -0.1",
            ),
            ({"width": 0}, "bump width must be positive, got 0"),
            ({"kind": "uniform", "amplitude": -1}, "uniform level must be >= 0, got -1"),
            ({"mass": -1}, "target mass must be positive, got -1"),
        ],
    )
    def test_base_initial_data_fails_at_load(self, tmp_path, capsys, initial, text):
        # the base must build even where every point replaces the bad leaf,
        # and its error names the bump or the block
        cfg = write_config(tmp_path, initial=initial, sweep={"axis": "initial.mass", "values": [1.0, 2.0]})
        out_dir = tmp_path / "sweep"
        assert main(["sweep", cfg, "--out", str(out_dir)]) == EXIT_ERROR
        field = "initial.bumps[0]" if "bumps" in initial else "initial"
        assert f"error: config field {field!r}: {text}" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "initial, axis, problem",
        [
            (MULTI_BUMP, "initial.width", "multi-bump initial data never reads 'initial.width'"),
            (MULTI_BUMP, "initial.amplitude", "multi-bump initial data never reads 'initial.amplitude'"),
            ({"kind": "uniform", "mass": None}, "initial.width", "uniform initial data never reads 'initial.width'"),
            ({"kind": "from-file", "path": "u0.csv"}, "initial.width", "from-file initial data never reads"),
            ({"kind": "from-file", "path": "u0.csv"}, "initial.amplitude", "from-file initial data never reads"),
            ({}, "initial.amplitude", "'initial.amplitude' is cancelled by the rescale to initial.mass"),
            ({"kind": "uniform"}, "initial.amplitude", "'initial.amplitude' is cancelled by the rescale"),
        ],
    )
    def test_unread_axis_rejected_at_load(self, tmp_path, capsys, initial, axis, problem):
        cfg = write_config(tmp_path, initial=initial, sweep={"axis": axis, "values": [0.5, 1.0]})
        out_dir = tmp_path / "sweep"
        assert main(["sweep", cfg, "--out", str(out_dir)]) == EXIT_ERROR
        assert f"error: config field 'sweep.axis': {problem}" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_amplitude_axis_without_mass_runs(self, tmp_path):
        cfg = write_config(
            tmp_path, initial={"mass": None}, sweep={"axis": "initial.amplitude", "values": [1.0, 2.0]}
        )
        out_dir = tmp_path / "sweep"
        assert main(["sweep", cfg, "--out", str(out_dir)]) == EXIT_OK
        masses = [read_json(out_dir / f"point_{i:03d}" / "summary.json")["mass_initial"] for i in (0, 1)]
        assert masses[1] == pytest.approx(2.0 * masses[0], rel=1e-14)

    def test_missing_sweep_block(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["sweep", cfg]) == EXIT_ERROR
        assert "no sweep block" in capsys.readouterr().err

    def test_empty_sweep_block_rejected(self, tmp_path, capsys):
        # An empty block is a sweep with no axis, not a config without one.
        cfg = write_config(tmp_path, sweep={})
        for command in ("simulate", "sweep"):
            out_dir = tmp_path / command
            assert main([command, cfg, "--out", str(out_dir)]) == EXIT_ERROR
            assert "config field 'sweep.axis': missing" in capsys.readouterr().err
            assert not out_dir.exists()

    def test_empty_values(self, tmp_path, capsys):
        # A sweep of no points fails at load, under either command.
        cfg = write_config(tmp_path, sweep={"axis": "initial.mass", "values": []})
        for command in ("simulate", "sweep"):
            out_dir = tmp_path / command
            assert main([command, cfg, "--out", str(out_dir)]) == EXIT_ERROR
            assert "config field 'sweep.values': expected a non-empty list" in capsys.readouterr().err
            assert not out_dir.exists()

    def test_config_built_in_the_library_refuses_half_a_sweep(self):
        # A sweep of no points, an axis without values or values without an
        # axis is refused when the config is built, not by the sweep.
        swept = from_dict(base_config(sweep={"axis": "initial.mass", "values": [1.0]}))
        plain = from_dict(base_config())
        for values in ((), None):
            with pytest.raises(ValueError, match="a sweep needs an axis and values"):
                replace(swept, sweep_values=values)
        with pytest.raises(ValueError, match="a sweep needs an axis and values"):
            replace(plain, sweep_values=(1.0,))
        assert replace(swept, sweep_axis=None, sweep_values=None) == plain

    def test_dim_other_than_two_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, params={"dim": 3}, sweep={"axis": "initial.mass", "values": [1.0]}
        )
        out_dir = tmp_path / "sweep"
        assert main(["sweep", cfg, "--out", str(out_dir)]) == EXIT_ERROR
        assert "params.dim" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unknown_axis_rejected(self, tmp_path, capsys):
        # params.dim is no axis: the stepper runs dim = 2 only
        out_dir = tmp_path / "sweep"
        for axis in ("params.nope", "params.dim"):
            cfg = write_config(tmp_path, sweep={"axis": axis, "values": [2]})
            assert main(["sweep", cfg, "--out", str(out_dir)]) == EXIT_ERROR
            assert f"config field 'sweep.axis': '{axis}' is not sweepable" in capsys.readouterr().err
            assert not out_dir.exists()

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

    def test_workers_env_below_one_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SIM_WORKERS", "0")
        cfg = write_config(tmp_path, sweep={"axis": "initial.mass", "values": [1.0]})
        out_dir = tmp_path / "sweep"
        assert main(["sweep", cfg, "--out", str(out_dir)]) == EXIT_ERROR
        assert "'SIM_WORKERS': expected an integer >= 1, got 0" in capsys.readouterr().err
        assert not out_dir.exists()


class TestRepoConfigs:
    @pytest.mark.parametrize("path", REPO_CONFIGS, ids=lambda p: p.stem)
    def test_example_config_parses(self, path):
        cfg = load_config(str(path))
        assert cfg.t_end > 0.0

    def test_examples_exist(self):
        assert len(REPO_CONFIGS) >= 3

    # sha256 of repr(ExperimentConfig), first 16 hex digits. `digest` is the
    # pin of the parser from before its leaf readers were merged into one per
    # kind; its config ended in a field `raw` holding the input dict, so the
    # test appends `, raw={...}` to today's repr to check it. REPR_PINS were
    # taken from the last parser with `raw`: its repr with the trailing
    # `, raw={...}` cut.
    REPR_PINS = {
        ("critical_mass_sweep", None): "e7bb2e10ff1e60af",
        ("diffusion_bump", None): "dd6b76be1653f684",
        ("sublinear_bounded", None): "d64ac8b3a5f8d3a8",
        ("diag-io-64", 1): "cf6c59052653af88",
        ("diag-io-64", 2): "0df89c323ef46724",
        ("imex-cli-128", 1): "3ea36f93f68ddcf3",
        ("imex-cli-128", 2): "a4ee942151632d38",
        ("sweep-64", 1): "186a4ae4c6192116",
        ("sweep-64", 2): "319edd7eb0c92683",
    }

    @pytest.mark.parametrize(
        "name, seed, digest",
        [
            ("critical_mass_sweep", None, "14a7796203e22ff0"),
            ("diffusion_bump", None, "df43be1ec55d9380"),
            ("sublinear_bounded", None, "10eb286d14701282"),
            ("diag-io-64", 1, "8e0c9e463bcc22e0"),
            ("diag-io-64", 2, "b27ea2032517de0b"),
            ("imex-cli-128", 1, "9a153189678c097c"),
            ("imex-cli-128", 2, "980c84449d0eb9c5"),
            ("sweep-64", 1, "80012f4e119482c5"),
            ("sweep-64", 2, "48044dd854f73d57"),
        ],
    )
    def test_parses_as_before(self, name, seed, digest):
        if seed is None:
            raw = read_json(REPO_ROOT / "configs" / f"{name}.json")
        else:
            spec = importlib.util.spec_from_file_location("workloads", REPO_ROOT / "perfbench" / "workloads.py")
            workloads = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(workloads)
            raw = workloads.make_spec(name, seed)["config"]
        text = repr(from_dict(raw))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == self.REPR_PINS[name, seed]
        with_raw = f"{text[:-1]}, raw={raw!r})"
        assert hashlib.sha256(with_raw.encode()).hexdigest()[:16] == digest
