import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dfsqc import cli, linalg
from dfsqc.cli import main
from dfsqc.encoding import LogicalRegister, restrict_to_dfs
from dfsqc.gates import CNOT_LOGICAL, sequence_unitary

from reference import max_phase_diff, sequence_from_json


def write_config(tmp_path, name="config.json", **overrides):
    config = {
        "experiment": "bell",
        "seed": 17,
        "output_dir": str(tmp_path / "out"),
    }
    config.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path, config


class TestValidate:
    def test_valid_config(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        assert main(["validate", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, typo_field=3)
        assert main(["validate", str(path)]) == 2
        assert "typo_field" in capsys.readouterr().err

    def test_bad_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"experiment\": ,\n}")
        assert main(["validate", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_required_field(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"experiment": "bell", "seed": 1}))
        assert main(["validate", str(path)]) == 2
        assert "output_dir" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

    def test_non_utf8_config_refused(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(b"\xff\xfe{")
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path)]) == 2
        assert "utf-8" in capsys.readouterr().err

    @pytest.mark.parametrize("key, text", [
        ("noise_samples", '"noise_samples": 10, "noise_samples": 20'),
        ("collective_phase_std", '"noise": {"collective_phase_std": 0.1, '
                                 '"collective_phase_std": 0.2}'),
    ], ids=["top", "nested"])
    def test_duplicate_key_refused(self, tmp_path, capsys, key, text):
        path, _ = write_config(tmp_path)
        path.write_text(path.read_text()[:-1] + ", " + text + "}")
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path)]) == 2
        assert f"{key}: duplicate key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, field", [
        ([1, 2], "config: must be an object"),
        ({"seed": 1, "output_dir": "out"}, "experiment: required"),
        ({"experiment": "bogus", "seed": 1, "output_dir": "out"}, "experiment"),
        ({"experiment": "bell", "seed": 1, "output_dir": ""}, "output_dir"),
        ({"experiment": "bell", "seed": 1, "output_dir": "out",
          "register": {"n_logical": 2}}, "register.pairs: required"),
        ({"experiment": "bell", "seed": 1, "output_dir": "out",
          "register": 5}, "register: must be an object"),
    ], ids=["array", "no-experiment", "unknown-experiment", "empty-output-dir",
            "no-pairs", "register-not-object"])
    def test_malformed_config_refused(self, tmp_path, capsys, monkeypatch,
                                      config, field):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path)]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestStrictJson:
    def test_nan_in_config_rejected(self, tmp_path, capsys):
        path, _ = write_config(
            tmp_path, noise={"ac_stark_phase_jitter_std": float("nan")})
        assert "NaN" in path.read_text()
        assert main(["run", str(path)]) == 2
        assert "NaN" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_infinity_in_config_rejected(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, experiment="coherence",
                               phi_std=float("inf"))
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path)]) == 2
        assert "Infinity" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("number", ["1e400", "1" + "0" * 400],
                             ids=["float", "int"])
    def test_number_outside_float_range_rejected(self, tmp_path, capsys,
                                                 number):
        path, _ = write_config(tmp_path, experiment="coherence", phi_std=0.5)
        path.write_text(path.read_text().replace("0.5", number))
        assert main(["run", str(path)]) == 2
        assert number[:20] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_output_not_written(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run_coherence", lambda config, seed: (
            {"coherence_ratio": float("nan")}, {}, []))
        path, _ = write_config(tmp_path, experiment="coherence")
        assert main(["run", str(path)]) != 0
        assert not (tmp_path / "out" / "report.json").exists()


class TestSemanticConfigErrors:
    def test_control_equals_target(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, control=1, target=1)
        assert main(["run", str(path)]) == 2
        assert "control/target" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_imbalance_at_or_below_minus_one(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, noise={"intensity_imbalance": -3})
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path)]) == 2
        assert "noise" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_noise_seed_refused(self, tmp_path, capsys):
        # the run seed draws every shot, so a noise seed would do nothing
        path, _ = write_config(tmp_path, noise={"collective_phase_std": 0.3,
                                                "seed": 20090})
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path)]) == 2
        assert "noise" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_shots_under_exact_statistics_refused(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, experiment="cnot-tomo",
                               exact_statistics=True, shots=5)
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path)]) == 2
        assert "shots" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_flag_refused(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        assert main(["run", str(path), "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_qubit_out_of_range(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, experiment="cnot-tomo", target=2)
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path)]) == 2
        assert "control/target" in capsys.readouterr().err

    def test_three_qubit_cnot_tomo_refused_at_once(self, tmp_path, capsys):
        register = {"n_logical": 3, "pairs": [[0, 1], [2, 3], [4, 5]]}
        path, _ = write_config(
            tmp_path, experiment="cnot-tomo", register=register,
            control=1, target=2, noise={"collective_phase_std": 0.3})
        start = time.perf_counter()
        assert main(["run", str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        assert "register" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment", ["bell", "cnot-tomo"])
    def test_register_beyond_the_tensor_cap_refused(self, tmp_path, capsys,
                                                    experiment):
        register = {"n_logical": 2, "pairs": [[9, 10], [11, 12]]}
        assert LogicalRegister(2, ((9, 10), (11, 12))).dim > linalg.MAX_TENSOR_DIM
        path, _ = write_config(tmp_path, experiment=experiment,
                               register=register)
        start = time.perf_counter()
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        assert "register: 13 ions" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment, ignored", [
        ("bell", {"shots": 5, "n_haar_samples": 5000, "phi_std": 1.0,
                  "timing_fractions": [0.1]}),
        ("cnot-tomo", {"phi_std": 1.0}),
        ("coherence", {"noise": {"collective_phase_std": 0.3}}),
        ("ms-scan", {"register": {"n_logical": 1, "pairs": [[0, 1]]}}),
        ("cp-scan", {"noise_samples": 10}),
        ("ms-scan", {"gate_params": {"delta_cp": 1e9}}),
        ("cp-scan", {"gate_params": {"delta_ms": 1e9}}),
    ])
    def test_field_the_experiment_ignores_refused(self, tmp_path, capsys,
                                                  experiment, ignored):
        path, _ = write_config(tmp_path, experiment=experiment, **ignored)
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in ignored)
        assert f"not read by the {experiment} experiment" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, overrides", [
        ("seed", {"seed": 1.0}),
        ("control", {"control": 1.0}),
        ("n_phase_samples", {"experiment": "coherence",
                             "n_phase_samples": 1000.0}),
        ("shots", {"experiment": "cnot-tomo", "shots": 10.0}),
        ("noise_samples", {"noise": {"collective_phase_std": 0.3},
                           "noise_samples": 10.0}),
        ("register.pairs", {"register": {"n_logical": 2,
                                         "pairs": [[0.0, 1], [2, 3]]}}),
    ])
    def test_integral_float_in_integer_field_refused(self, tmp_path, capsys,
                                                     field, overrides):
        path, _ = write_config(tmp_path, **overrides)
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path)]) == 2
        assert f"{field}: must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, overrides", [
        ("seed", {"seed": -1}),
        ("noise_samples", {"noise_samples": 0}),
        ("control", {"control": True}),
        ("shots", {"experiment": "cnot-tomo", "shots": 0}),
        ("exact_statistics", {"experiment": "cnot-tomo", "exact_statistics": 1}),
        ("n_haar_samples", {"experiment": "cnot-tomo", "n_haar_samples": 999}),
        ("phi_std", {"experiment": "coherence", "phi_std": -0.1}),
        ("n_phase_samples", {"experiment": "coherence", "n_phase_samples": 999}),
        ("spin_phase", {"experiment": "ms-scan", "spin_phase": 0}),
        ("timing_fractions", {"experiment": "cp-scan",
                              "timing_fractions": [0.1, -0.5]}),
        ("gate_params.delta_ms", {"gate_params": {"delta_ms": "7e3"}}),
    ])
    def test_value_outside_its_field_refused(self, tmp_path, capsys, field,
                                             overrides):
        path, _ = write_config(tmp_path, **overrides)
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path)]) == 2
        assert f"{field}: must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, overrides", [
        ("n_haar_samples", {"experiment": "cnot-tomo", "n_haar_samples": 10 ** 9}),
        ("shots", {"experiment": "cnot-tomo", "shots": 10 ** 12}),
        ("n_phase_samples", {"experiment": "coherence",
                             "n_phase_samples": 10 ** 11}),
    ])
    def test_sample_count_beyond_the_memory_budget_refused(
            self, tmp_path, capsys, field, overrides):
        path, _ = write_config(tmp_path, **overrides)
        tracemalloc.start()
        try:
            assert main(["validate", str(path)]) == 2
            assert main(["run", str(path)]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20  # refused before any array is built
        assert f"{field}: must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides", [
        {"experiment": "cnot-tomo", "shots": 100, "n_haar_samples": 200_000},
        {"experiment": "coherence", "n_phase_samples": 100_000},
    ])
    def test_default_sample_counts_within_the_budget(self, tmp_path, overrides):
        path, _ = write_config(tmp_path, **overrides)
        assert main(["validate", str(path)]) == 0

    @pytest.mark.parametrize("kind", ["ms-scan", "cp-scan"])
    def test_empty_timing_fractions_refused(self, tmp_path, capsys, kind):
        path, _ = write_config(tmp_path, experiment=kind, timing_fractions=[])
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path)]) == 2
        assert "timing_fractions" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under-file"])
    def test_output_dir_blocked_by_file_refused(self, tmp_path, capsys, under):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        path, _ = write_config(tmp_path, output_dir=str(blocker / under))
        before = sorted(tmp_path.rglob("*"))
        assert main(["validate", str(path)]) == 2
        assert sorted(tmp_path.rglob("*")) == before
        start = time.perf_counter()
        assert main(["run", str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        assert "output_dir" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before


class TestRunBell:
    def test_noiseless_perfect(self, tmp_path):
        path, config = write_config(tmp_path)
        assert main(["run", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["experiment"] == "bell"
        for f in report["metrics"]["fidelity"]:
            assert f == pytest.approx(1.0, abs=1e-10)
        for p in report["metrics"]["permanence"]:
            assert p == pytest.approx(1.0, abs=1e-10)
        matrices = json.loads((tmp_path / "out" / "matrices.json").read_text())
        assert "bell_00_logical" in matrices

    def test_noiseless_perfect_swapped_roles(self, tmp_path):
        path, _ = write_config(tmp_path, control=1, target=0)
        assert main(["run", str(path)]) == 0
        metrics = json.loads(
            (tmp_path / "out" / "report.json").read_text())["metrics"]
        for value in metrics["fidelity"] + metrics["permanence"]:
            assert value == pytest.approx(1.0, abs=1e-10)

    def test_calibrated_noise_band(self, tmp_path):
        path, _ = write_config(
            tmp_path,
            noise={"addressing_ratio": 0.05, "intensity_imbalance": 0.08,
                   "ac_stark_phase_jitter_std": 0.3,
                   "collective_phase_std": 0.3},
            noise_samples=200)
        assert main(["run", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        for f in report["metrics"]["fidelity"]:
            assert 0.85 <= f <= 0.95

    def test_report_carries_hash_and_version(self, tmp_path):
        path, _ = write_config(tmp_path)
        main(["run", str(path)])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["tool"] == "dfsqc"
        assert len(report["config_hash"]) == 64
        assert "reference_experiment" in report["context"]


class TestRunCnotTomo:
    def test_exact_statistics(self, tmp_path):
        path, _ = write_config(
            tmp_path, experiment="cnot-tomo", exact_statistics=True,
            n_haar_samples=20_000)
        assert main(["run", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        m = report["metrics"]
        assert m["process_fidelity"] >= 0.999
        assert m["mean_gate_fidelity"] >= 0.999
        assert m["mean_permanence"] == pytest.approx(1.0, abs=1e-6)
        assert "mean_gate_fidelity_stderr" in m
        matrices = json.loads((tmp_path / "out" / "matrices.json").read_text())
        assert "chi" in matrices and "chi_ideal" in matrices
        assert matrices["chi"]["basis"][0] == "II"

    def test_six_ion_register(self, tmp_path):
        path, _ = write_config(
            tmp_path, experiment="cnot-tomo", exact_statistics=True,
            register={"n_logical": 2, "pairs": [[2, 3], [4, 5]]},
            noise={"addressing_ratio": 0.05, "intensity_imbalance": 0.08,
                   "ac_stark_phase_jitter_std": 0.3,
                   "collective_phase_std": 0.3},
            noise_samples=4, n_haar_samples=1000)
        assert main(["run", str(path)]) == 0
        m = json.loads((tmp_path / "out" / "report.json").read_text())["metrics"]
        figures = [v for k, v in m.items() if k != "shots_per_setting"]
        figures = [x for v in figures for x in (v if isinstance(v, list) else [v])]
        assert len(figures) == 24
        assert all(0.0 <= x <= 1.0 for x in figures)


class TestRunCoherence:
    def test_ratio_above_hundred(self, tmp_path):
        path, _ = write_config(
            tmp_path, experiment="coherence", phi_std=float(np.pi),
            n_phase_samples=100_000, seed=3)
        assert main(["run", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["metrics"]["coherence_ratio"] >= 100.0

    @pytest.mark.parametrize("phi_std", [1e200, 10 ** 200], ids=["float", "int"])
    def test_huge_phase_spread_underflows(self, tmp_path, phi_std):
        path, _ = write_config(tmp_path, experiment="coherence",
                               phi_std=phi_std, n_phase_samples=1000)
        assert main(["run", str(path)]) == 0
        text = (tmp_path / "out" / "report.json").read_text()
        report = json.loads(text, parse_constant=lambda name: pytest.fail(name))
        assert report["metrics"]["physical_coherence_analytic"] == 0.0


class TestRunScans:
    @pytest.mark.parametrize("kind", ["ms-scan", "cp-scan"])
    def test_scan_csv(self, tmp_path, kind):
        path, _ = write_config(
            tmp_path, experiment=kind, timing_fractions=[0.0, 0.05])
        assert main(["run", str(path)]) == 0
        csv_path = tmp_path / "out" / f"{kind.split('-')[0]}_scan.csv"
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "fraction,infidelity"
        assert len(lines) == 3
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        rows = report["metrics"]["rows"]
        assert rows[0]["infidelity"] < 1e-5
        assert rows[1]["infidelity"] > rows[0]["infidelity"]
        # atomic writes leave no temporary files behind
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(
            ["report.json", csv_path.name])

    @pytest.mark.parametrize("delta", [1e308, 1e-300])
    @pytest.mark.parametrize("kind", ["ms-scan", "cp-scan"])
    def test_extreme_detuning_same_rows(self, tmp_path, kind, delta):
        # the rows depend on the detuning only through g / delta, which
        # the spin phase fixes
        fractions = [-0.3, 0.0, 0.05, 0.2]
        rows = {}
        for name, params in (("default", {}),
                             ("extreme", {f"delta_{kind[:2]}": delta})):
            path, _ = write_config(
                tmp_path, name=f"{name}.json", experiment=kind,
                output_dir=str(tmp_path / name), gate_params=params,
                timing_fractions=fractions)
            assert main(["run", str(path)]) == 0
            report = json.loads((tmp_path / name / "report.json").read_text())
            rows[name] = report["metrics"]["rows"]
        assert [r["fraction"] for r in rows["extreme"]] == fractions
        for got, want in zip(rows["extreme"], rows["default"]):
            assert abs(got["infidelity"] - want["infidelity"]) < 1e-12


class TestNumericalContractExit:
    def test_truncation_violation_exits_3(self, tmp_path, capsys):
        # a drive far too strong for the truncated oscillator basis
        path, _ = write_config(tmp_path, experiment="ms-scan",
                               spin_phase=200.0, timing_fractions=[0.0])
        assert main(["run", str(path)]) == 3
        assert "population" in capsys.readouterr().err


class TestReproducibility:
    def test_identical_reports_across_runs(self, tmp_path):
        config = {
            "experiment": "bell",
            "seed": 23,
            "output_dir": str(tmp_path / "a"),
            "noise": {"addressing_ratio": 0.05, "intensity_imbalance": 0.08,
                      "ac_stark_phase_jitter_std": 0.3,
                      "collective_phase_std": 0.3},
            "noise_samples": 64,
        }
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(config))
        assert main(["run", str(path)]) == 0
        first = (tmp_path / "a" / "report.json").read_bytes()
        assert main(["run", str(path)]) == 0
        second = (tmp_path / "a" / "report.json").read_bytes()
        assert first == second

    def test_seed_override_changes_hash_not_config(self, tmp_path):
        path, _ = write_config(tmp_path, seed=5)
        main(["run", str(path), "--seed", "99"])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["seed"] == 99


class TestDumpSequence:
    def test_roundtrip_same_unitary(self, capsys):
        assert main(["dump-sequence"]) == 0
        doc = json.loads(capsys.readouterr().out)
        seq = sequence_from_json(doc)
        reg = LogicalRegister(2)
        u = restrict_to_dfs(sequence_unitary(seq), reg)
        assert max_phase_diff(CNOT_LOGICAL, u) < 1e-10

    def test_structure_and_duration(self, capsys):
        main(["dump-sequence"])
        doc = json.loads(capsys.readouterr().out)
        kinds = [op["kind"] for op in doc["ops"]]
        assert kinds.count("CPGate") == 2
        echo = [op for op in doc["ops"]
                if op["kind"] == "MSRotation" and op["angle"] == np.pi]
        assert {tuple(op["targets"]) for op in echo} == {(0, 1), (2, 3)}
        total = sum(op["duration"] for op in doc["ops"]) * 1e6
        assert doc["total_duration_us"] == pytest.approx(total)
        assert doc["total_duration_us"] == pytest.approx(1654.29, abs=0.01)

    @pytest.mark.parametrize("argv", [["--control", "5"],
                                      ["--control", "0", "--target", "0"],
                                      ["--target", "-1"]])
    def test_bad_qubit_refused(self, capsys, argv):
        assert main(["dump-sequence"] + argv) == 2
        captured = capsys.readouterr()
        assert "--control/--target" in captured.err
        assert captured.out == ""

    def test_swapped_roles(self, capsys):
        assert main(["dump-sequence", "--control", "1", "--target", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        seq = sequence_from_json(doc)
        from dfsqc.gates import cnot_logical_matrix
        u = restrict_to_dfs(sequence_unitary(seq), LogicalRegister(2))
        assert max_phase_diff(cnot_logical_matrix(1, 0), u) < 1e-10


def test_cli_import_needs_no_test_extra():
    # scipy, hypothesis and pytest are the `test` extra of pyproject.toml;
    # jsonschema is no dependency at all
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, dfsqc.cli; print(sorted({m.split('.')[0] for m in "
            "sys.modules} & {'scipy', 'hypothesis', 'pytest', 'jsonschema'}))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
