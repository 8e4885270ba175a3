import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfsqc import cli, gates, noise, tomography
from dfsqc.cli import main
from dfsqc.encoding import LogicalRegister, restrict_to_dfs
from dfsqc.gates import (CNOT_LOGICAL, circuit_unitary, compile_circuit,
                         sequence_unitary)

from reference import max_phase_diff, sequence_from_json

ROOT = Path(__file__).resolve().parents[1]
CALIBRATED = {"addressing_ratio": 0.05, "intensity_imbalance": 0.08,
              "ac_stark_phase_jitter_std": 0.3, "collective_phase_std": 0.3}
# exact calibrated bell figures on the default register, control 0, inputs
# 00, 01, 10, 11, frozen from the first run of the exact channel
BELL_FIDELITIES = [0.8762120592870157, 0.8819073495919306, 0.8982876338113266,
                   0.898151054689484]
BELL_PERMANENCES = [0.8973734693657329, 0.8953194508688942, 0.8903460910642013,
                    0.8951176846731321]
# exact calibrated cnot-tomo figures, "shots": null, same register and roles
TOMO_FIGURES = {"process_fidelity": 0.9011394213545602,
                "mean_gate_fidelity": 0.9209115370836483,
                "mean_permanence": 0.9174710285081038,
                "mean_overall": 0.8449096550931136}
TOMO_PERMANENCES = [
    0.8916105680213549, 0.9405690887532857, 0.8897732310608233,
    0.9153718893770515, 0.9434698416851268, 0.8942346155726502,
    0.9240502805538174, 0.9256325257377408, 0.8959013901865411,
    0.8779023111031776, 0.8604634025221451, 0.8897263026808762,
    0.9179680315698024, 0.9134414572837517, 0.9016371483148513,
    0.981188999439617]


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
        ("noise.collective_phase_std", '"noise": {"collective_phase_std": 0.1, '
                                       '"collective_phase_std": 0.2}'),
    ], ids=["top", "nested"])
    def test_duplicate_key_refused(self, tmp_path, capsys, key, text):
        path, _ = write_config(tmp_path)
        path.write_text(path.read_text()[:-1] + ", " + text + "}")
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path)]) == 2
        assert f"error: {key}: duplicate key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_duplicate_among_many_keys_refused_fast(self, tmp_path, capsys):
        # the keys are counted once, not once per key
        path = tmp_path / "c.json"
        text = json.dumps(dict.fromkeys((f"k{i}" for i in range(10 ** 5)), 1))
        path.write_text(text[:-1] + ', "k7": 2}')
        start = time.perf_counter()
        assert main(["validate", str(path)]) == 2
        assert time.perf_counter() - start < 5
        assert capsys.readouterr().err == "error: k7: duplicate key in config\n"

    @pytest.mark.parametrize("argv, config, echoed", [
        (["W"], None, "W"), (["run", "--W=1"], None, "--W"),
        (["validate", "c.json", "W"], None, "W"),
        (["validate", "c.json"], '"W": 1', "W"),
        (["validate", "c.json"], '"W": 1, "W": 2', "W"),
    ], ids=["command", "option", "argument", "unread_key", "duplicate_key"])
    def test_long_word_refused_shortened(self, tmp_path, capsys, monkeypatch,
                                         argv, config, echoed):
        # a refusal names a 10^5-character word by its first 100 characters
        word = "s" * 10 ** 5
        monkeypatch.chdir(tmp_path)
        if config is not None:
            fields = json.dumps({"experiment": "bell", "seed": 7, "output_dir": "out"})
            Path("c.json").write_text(f"{fields[:-1]}, {config.replace('W', word)}}}")
        assert main([a.replace("W", word) for a in argv]) == 2
        err = capsys.readouterr().err
        assert len(err.encode()) < 300 and err.count("\n") == 1
        assert err.startswith(f"error: {cli._shown(echoed.replace('W', word))}: ")
        assert cli._shown(word) == "s" * 100 + "... (100000 characters)"

    @pytest.mark.parametrize("text", [
        "[" * 10 ** 5 + "]" * 10 ** 5,
        '{"a": ' * 10 ** 5 + "1" + "}" * 10 ** 5,
        '{"experiment": "coherence", "seed": 7, "output_dir": "out", '
        '"phi_std": ' + "[" * 10 ** 5 + "1" + "]" * 10 ** 5 + "}",
    ], ids=["array", "object", "field"])
    def test_deeply_nested_config_refused(self, tmp_path, capsys, monkeypatch,
                                          text):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "c.json"
        path.write_text(text)
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: config is nested too deeply to parse\n" * 2)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, field", [
        ([1, 2], "config: must be an object"),
        ({"seed": 1, "output_dir": "out"}, "experiment: required"),
        ({"experiment": "bogus", "seed": 1, "output_dir": "out"}, "experiment"),
        # unhashable: the experiment is looked up in the table only once known
        ({"experiment": [], "seed": 1, "output_dir": "out"}, "experiment: must be"),
        ({"experiment": {}, "seed": 1, "output_dir": "out"}, "experiment: must be"),
        ({"experiment": "bell", "seed": 1, "output_dir": ""}, "output_dir"),
        ({"experiment": "bell", "seed": 1, "output_dir": "out",
          "register": {"n_logical": 2}}, "register.pairs: required"),
        ({"experiment": "bell", "seed": 1, "output_dir": "out",
          "register": 5}, "register: must be an object"),
        # detunings whose loop times 2 pi / delta overflowed, when read
        ({"experiment": "cp-scan", "seed": 1, "output_dir": "out",
          "gate_params": {"delta_cp": 1e-310}}, "gate_params: "),
        ({"experiment": "ms-scan", "seed": 1, "output_dir": "out",
          "gate_params": {"delta_ms": 5e-324}}, "gate_params: "),
    ], ids=["array", "no-experiment", "unknown-experiment", "experiment-list",
            "experiment-object", "empty-output-dir",
            "no-pairs", "register-not-object", "tiny-delta-cp", "tiny-delta-ms"])
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
        monkeypatch.setattr(cli.EXPERIMENTS["coherence"], "run",
                            lambda config, seed: (
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

    @pytest.mark.parametrize("epsilon", [1.0, 1e160])
    @pytest.mark.parametrize("experiment", ["bell", "cnot-tomo"])
    def test_imbalance_at_or_above_one(self, tmp_path, capsys, experiment,
                                       epsilon):
        # the first ion's weight 1 + epsilon may be at most twice the second's
        path, _ = write_config(tmp_path, experiment=experiment,
                               noise={"intensity_imbalance": epsilon},
                               **({"shots": None} if experiment == "cnot-tomo" else {}))
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err.count("error: noise: ") == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("epsilon", [-0.999, 0.999])
    def test_imbalance_just_inside_the_bounds_runs(self, tmp_path, epsilon):
        path, _ = write_config(tmp_path, noise={"intensity_imbalance": epsilon})
        assert main(["run", str(path)]) == 0
        text = (tmp_path / "out" / "report.json").read_text()
        json.loads(text, parse_constant=lambda name: pytest.fail(name))

    @pytest.mark.parametrize("experiment", ["bell", "cnot-tomo"])
    @pytest.mark.parametrize("pairs", [[[0, 2], [1, 3]], [[0, 1], [3, 4]]],
                             ids=["pair-not-adjacent", "centers-not-adjacent"])
    def test_layout_the_cnot_cannot_use_names_register(self, tmp_path, capsys,
                                                       experiment, pairs):
        path, _ = write_config(tmp_path, experiment=experiment,
                               register={"n_logical": 2, "pairs": pairs})
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err.count("error: register: ") == 2
        assert not (tmp_path / "out").exists()

    def test_noise_seed_refused(self, tmp_path, capsys):
        # the run seed draws every shot, so a noise seed would do nothing
        path, _ = write_config(tmp_path, noise={"collective_phase_std": 0.3,
                                                "seed": 20090})
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path)]) == 2
        assert "noise" in capsys.readouterr().err
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

    @pytest.mark.parametrize("experiment", ["bell", "cnot-tomo"])
    @pytest.mark.parametrize("control, target", [(0, 0), (5, 1)])
    def test_role_error_names_the_gate(self, tmp_path, capsys, experiment,
                                       control, target):
        # the roles are at fault, not the register: the refusal quotes the
        # first gate without a matrix, and bell's x on the control comes
        # before its CNOT
        path, _ = write_config(tmp_path, experiment=experiment,
                               control=control, target=target)
        gate = (("x", 5, np.pi / 2) if (experiment, control) == ("bell", 5)
                else ("cnot", control, target))
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count(f"control/target: no gate {gate!r}") == 2
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("experiment, ignored", [
        ("bell", {"shots": 5, "n_haar_samples": 5000, "phi_std": 1.0,
                  "timing_fractions": [0.1]}),
        ("cnot-tomo", {"phi_std": 1.0, "exact_statistics": True}),
        ("coherence", {"noise": {"collective_phase_std": 0.3},
                       "n_phase_samples": 100_000}),
        ("ms-scan", {"register": {"n_logical": 1, "pairs": [[0, 1]]}}),
        ("cp-scan", {"noise_samples": 10}),
        ("ms-scan", {"gate_params": {"delta_cp": 1e9}}),
        ("cp-scan", {"gate_params": {"delta_ms": 1e9}}),
        # the gate times are constants, so no experiment reads a detuning
        ("bell", {"gate_params": {}}),
        ("cnot-tomo", {"gate_params": {"delta_ms": 1, "delta_cp": 1e9}}),
        ("coherence", {"gate_params": {"delta_ms": 1e9}}),
        ("ms-scan", {"gate_params": {"delta_ms": 1e9}}),
        ("cp-scan", {"gate_params": {"delta_cp": 1e9}}),
        ("bell", {"gate_params": {"delta_ms": "7e3"}}),
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
        ("target", {"target": 0.0}),
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
        ("shots", {"experiment": "cnot-tomo", "shots": "100"}),
        ("n_haar_samples", {"experiment": "cnot-tomo", "n_haar_samples": 999}),
        ("phi_std", {"experiment": "coherence", "phi_std": -0.1}),
        ("phi_std", {"experiment": "coherence", "phi_std": True}),
        ("spin_phase", {"experiment": "ms-scan", "spin_phase": 0}),
        ("timing_fractions", {"experiment": "cp-scan",
                              "timing_fractions": [0.1, -0.5]}),
        ("noise_samples", {"noise_samples": 10 ** 4 + 1}),
        ("noise_samples", {"noise": {"ac_stark_phase_jitter_std": 0.3},
                           "noise_samples": 10 ** 12}),
        ("shots", {"experiment": "cnot-tomo", "shots": 10 ** 4 + 1}),
        ("n_haar_samples", {"experiment": "cnot-tomo",
                            "n_haar_samples": 2 ** 20 + 1}),
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
    ])
    def test_huge_count_refused_early(
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

    def test_sample_counts_at_their_caps_validate(self, tmp_path):
        # the heaviest cnot-tomo that validates: jittering noise on a 5-ion
        # light cone and every count at its cap, about 0.6 s to run
        path, _ = write_config(
            tmp_path, experiment="cnot-tomo", noise=CALIBRATED,
            register={"n_logical": 2, "pairs": [[1, 2], [3, 4]]},
            noise_samples=10 ** 4, shots=10 ** 4, n_haar_samples=2 ** 20)
        assert main(["validate", str(path)]) == 0

    @pytest.mark.parametrize("overrides", [
        {"experiment": "cnot-tomo", **{
            name: cli.EXPERIMENTS["cnot-tomo"].fields[name].default
            for name in ("shots", "n_haar_samples")}},
    ])
    def test_default_sample_counts_validate(self, tmp_path, overrides):
        path, _ = write_config(tmp_path, **overrides)
        assert main(["validate", str(path)]) == 0

    @pytest.mark.parametrize("kind", ["ms-scan", "cp-scan"])
    def test_empty_timing_fractions_refused(self, tmp_path, capsys, kind):
        path, _ = write_config(tmp_path, experiment=kind, timing_fractions=[])
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path)]) == 2
        assert "timing_fractions" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_timing_fractions_capped_at_the_count_cap(self, tmp_path, capsys):
        # a scan row per fraction, so the list is bounded like a sample count
        fractions = [(k % 999 - 499) / 1000 for k in range(10 ** 4)]
        path, _ = write_config(tmp_path, "long.json", experiment="ms-scan",
                               timing_fractions=fractions + [0.0])
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path)]) == 2
        assert "timing_fractions: must be a list of 1 to 10000" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        path, _ = write_config(tmp_path, experiment="ms-scan",
                               timing_fractions=fractions)
        assert main(["run", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(report["metrics"]["rows"]) == 10 ** 4

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

    def test_output_dir_that_cannot_be_made_refused(self, tmp_path, capsys,
                                                    monkeypatch):
        path, _ = write_config(tmp_path, output_dir=str(tmp_path / ("x" * 300)))
        monkeypatch.setattr(cli, "run_experiment", lambda config, seed: (
            pytest.fail("ran an experiment it cannot write")))
        assert main(["run", str(path)]) == 2
        assert "output_dir: " in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["a\0b", "a\ud800b",
                                      os.path.join("new", "x" * 300),
                                      os.path.join(*["y" * 250] * 20)],
                             ids=["nul", "lone-surrogate", "long-component",
                                  "long-path"])
    def test_output_dir_makedirs_cannot_create_refused(self, tmp_path, capsys,
                                                        name):
        # refused by validate too, and before run creates any parent
        path, _ = write_config(tmp_path, output_dir=os.path.join(tmp_path, name))
        before = sorted(tmp_path.rglob("*"))
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err.count("output_dir: ") == 2
        assert sorted(tmp_path.rglob("*")) == before


class TestFieldDefaults:
    @pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
    def test_table_default_is_what_an_unset_field_runs(self, tmp_path,
                                                       experiment):
        defaults = {name: spec.default
                    for name, spec in cli.EXPERIMENTS[experiment].fields.items()
                    if isinstance(spec, cli.FieldSpec)}
        assert defaults and None not in defaults.values()
        outputs = []
        for name, fields in (("unset", {}), ("set", defaults)):
            path, _ = write_config(tmp_path, name=f"{name}.json",
                                   experiment=experiment,
                                   output_dir=str(tmp_path / name), **fields)
            assert main(["run", str(path)]) == 0
            report = json.loads((tmp_path / name / "report.json").read_text())
            files = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()
                     if p.name != "report.json"}
            outputs.append((report["metrics"], files))
        assert outputs[0] == outputs[1]


class TestExperimentTable:
    def test_patched_row_is_a_whole_experiment(self, tmp_path, capsys,
                                               monkeypatch):
        # one row adds an experiment: its fields are checked, it runs, and
        # the refusal of an unknown experiment lists it
        gain = cli.FieldSpec(lambda v: type(v) is int, "an integer", 2)
        monkeypatch.setitem(cli.EXPERIMENTS, "echo", cli.Experiment(
            fields={"knob": {"gain": gain}}, circuit=None,
            run=lambda run, seed: ({"knob": run["knob"], "seed": seed}, {}, [])))
        path, _ = write_config(tmp_path, experiment="echo", knob={"gain": 3})
        assert main(["validate", str(path)]) == 0
        assert main(["run", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["metrics"] == {"knob": {"gain": 3}, "seed": 17}
        capsys.readouterr()
        path, _ = write_config(tmp_path, experiment="echo",
                               knob={"gain": 3, "typo": 1})
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: knob.typo: not read by the echo experiment\n")
        path, _ = write_config(tmp_path, experiment="nope")
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: experiment: must be one of bell, cnot-tomo, coherence, "
            "ms-scan, cp-scan, echo, got \"nope\"\n")

    def test_patched_circuit_runs_through_the_one_cnot_build(self, tmp_path,
                                                               monkeypatch):
        # bell's run function on the circuit X(pi/2) alone: the ideal it is
        # judged against is that circuit's, so every input is perfect
        monkeypatch.setitem(cli.EXPERIMENTS, "x-half", cli.Experiment(
            fields=cli.EXPERIMENTS["bell"].fields,
            circuit=lambda c, t: [("x", c, np.pi / 2)], run=cli.run_bell))
        logical = []
        for experiment in ("x-half", "bell"):
            path, _ = write_config(tmp_path, experiment=experiment,
                                   output_dir=str(tmp_path / experiment))
            assert main(["run", str(path)]) == 0
            out = tmp_path / experiment
            metrics = json.loads((out / "report.json").read_text())["metrics"]
            assert metrics["fidelity"] == pytest.approx([1.0] * 4, abs=1e-10)
            assert metrics["permanence"] == pytest.approx([1.0] * 4, abs=1e-10)
            logical.append(json.loads((out / "matrices.json").read_text()))
        assert logical[0] != logical[1]


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

    def test_calibrated_exact_goldens(self, tmp_path):
        # the exact jitter and collective averages on the default register,
        # control 0; the figures hold to rounding, with no sampling error
        path, _ = write_config(tmp_path, noise=CALIBRATED)
        assert main(["run", str(path)]) == 0
        metrics = json.loads((tmp_path / "out" / "report.json").read_text())[
            "metrics"]
        for key, golden in (("fidelity", BELL_FIDELITIES),
                            ("permanence", BELL_PERMANENCES)):
            assert np.allclose(metrics[key], golden, rtol=0, atol=1e-12), key

    def test_report_does_not_depend_on_the_seed(self, tmp_path):
        # nothing is sampled, so only the seed field moves
        path, _ = write_config(tmp_path, noise=CALIBRATED)
        reports = []
        for seed in ("7", "8"):
            assert main(["run", str(path), "--seed", seed]) == 0
            reports.append(json.loads(
                (tmp_path / "out" / "report.json").read_text()))
        assert [r.pop("seed") for r in reports] == [7, 8]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("control", [0, 1])
    def test_calls_no_lapack(self, tmp_path, monkeypatch, control):
        # the circuit's ideal X(pi/2) is written out in closed form, so a
        # bell request maps no LAPACK code
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK called")

        for name in ("eigh", "eig", "svd", "lstsq", "solve", "inv"):
            monkeypatch.setattr(np.linalg, name, refuse)
        with pytest.raises(AssertionError, match="LAPACK"):
            np.linalg.eigh(np.eye(2))
        path, _ = write_config(tmp_path, noise=CALIBRATED, control=control,
                               target=1 - control)
        assert main(["run", str(path)]) == 0

    def test_input_that_leaves_the_subspace_reports_null(self, tmp_path):
        # near-total crosstalk at the lowest imbalance that validates leaves
        # inputs 00 and 10 about 1e-11 of their weight in the subspace: no
        # logical state is left to judge, so only their permanence is given
        path, _ = write_config(tmp_path, noise={
            "intensity_imbalance": -0.9999999, "addressing_ratio": 0.999999})
        outputs = []
        for _ in range(2):
            assert main(["run", str(path)]) == 0
            outputs.append([(tmp_path / "out" / name).read_bytes()
                            for name in ("report.json", "matrices.json")])
        assert outputs[0] == outputs[1]
        for text in outputs[0]:
            json.loads(text, parse_constant=pytest.fail)
        metrics = json.loads(outputs[0][0])["metrics"]
        matrices = json.loads(outputs[0][1])
        for k, bits in enumerate(metrics["inputs"]):
            left = bits in ("00", "10")
            assert (metrics["permanence"][k] < 1e-9) == left
            assert 0.0 <= metrics["permanence"][k] <= 1.0
            for key in ("fidelity", "overall"):
                assert (metrics[key][k] is None) == left
            assert (matrices[f"bell_{bits}_logical"] is None) == left

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
            tmp_path, experiment="cnot-tomo", shots=None,
            n_haar_samples=20_000)
        assert main(["run", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        m = report["metrics"]
        assert m["process_fidelity"] >= 0.999
        assert m["mean_gate_fidelity"] >= 0.999
        assert m["mean_permanence"] == pytest.approx(1.0, abs=1e-6)
        assert not [key for key in m if key.endswith("_stderr")]
        assert 0 <= m["chi_negative_mass"] < 1e-12
        assert m["consistency_gap"] <= 1e-12
        matrices = json.loads((tmp_path / "out" / "matrices.json").read_text())
        assert "chi" in matrices and "chi_ideal" in matrices
        assert matrices["chi"]["basis"][0] == "II"

    def test_calibrated_exact_goldens(self, tmp_path):
        # exact statistics leave nothing sampled, so the figures hold to
        # rounding at any seed
        path, _ = write_config(tmp_path, experiment="cnot-tomo", seed=7,
                               noise=CALIBRATED, shots=None)
        assert main(["run", str(path)]) == 0
        metrics = json.loads((tmp_path / "out" / "report.json").read_text())[
            "metrics"]
        for key, golden in TOMO_FIGURES.items():
            assert metrics[key] == pytest.approx(golden, rel=0, abs=1e-12), key
        assert np.allclose(metrics["input_permanences"], TOMO_PERMANENCES,
                           rtol=0, atol=1e-12)

    def test_six_ion_register(self, tmp_path):
        path, _ = write_config(
            tmp_path, experiment="cnot-tomo", shots=None,
            register={"n_logical": 2, "pairs": [[2, 3], [4, 5]]},
            noise={"addressing_ratio": 0.05, "intensity_imbalance": 0.08,
                   "ac_stark_phase_jitter_std": 0.3,
                   "collective_phase_std": 0.3},
            noise_samples=4, n_haar_samples=1000)
        assert main(["run", str(path)]) == 0
        m = json.loads((tmp_path / "out" / "report.json").read_text())["metrics"]
        figures = [v for k, v in m.items() if k != "shots_per_setting"]
        figures = [x for v in figures for x in (v if isinstance(v, list) else [v])]
        assert len(figures) == 22
        assert all(0.0 <= x <= 1.0 for x in figures)

    @pytest.mark.parametrize("offset", [0, 1, 2])
    def test_permanence_does_not_depend_on_idle_ions(self, tmp_path, offset):
        # 4, 5 and 6 ions, the gate on the last 4: idle ions measured in
        # every setting must not bias the shot estimate of the permanence
        register = {"n_logical": 2, "pairs": [[offset, offset + 1],
                                              [offset + 2, offset + 3]]}
        for seed in (7, 8, 9):
            means = []
            for shots in (None, 100):
                path, config = write_config(
                    tmp_path, experiment="cnot-tomo", seed=seed, shots=shots,
                    register=register, noise=CALIBRATED, noise_samples=30,
                    n_haar_samples=1000)
                assert main(["run", str(path)]) == 0
                report = Path(config["output_dir"]) / "report.json"
                means.append(json.loads(report.read_text())["metrics"][
                    "mean_permanence"])
            assert abs(means[1] - means[0]) < 0.01, (seed, means)

    def test_shot_mean_permanence_is_unbiased(self, tmp_path):
        # tr chi is linear in the frequencies, so over seeds 100-199 the
        # 100-shot estimates average to the exact figure within 4 standard
        # errors of their mean
        path, _ = write_config(tmp_path, experiment="cnot-tomo",
                               noise=CALIBRATED, shots=None)
        run = cli.load_config(str(path))
        exact = cli.run_cnot_tomo(run, 0)[0]["mean_permanence"]
        estimates = [cli.run_cnot_tomo({**run, "shots": 100}, seed)[0][
            "mean_permanence"] for seed in range(100, 200)]
        stderr = np.std(estimates, ddof=1) / np.sqrt(len(estimates))
        assert abs(np.mean(estimates) - exact) < 4 * stderr

    def test_benchmark_shaped_run_stays_small(self, tmp_path):
        # calibrated noise and 100 shots, as the benchmark runs it; a cheap
        # run first imports everything the measured one uses
        warm, _ = write_config(tmp_path, "warm.json", experiment="cnot-tomo",
                               noise=CALIBRATED, noise_samples=1, shots=1,
                               n_haar_samples=1000)
        path, _ = write_config(tmp_path, experiment="cnot-tomo",
                               noise=CALIBRATED, shots=100,
                               n_haar_samples=200_000)
        assert main(["run", str(warm)]) == 0
        tracemalloc.start()
        try:
            assert main(["run", str(path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6


WIDE = {f"{experiment}-{ions}": (experiment, [[lo, lo + 1], [lo + 2, lo + 3]])
        for experiment in ("bell", "cnot-tomo")
        for ions, lo in (("9", 5), ("10", 6), ("11", 7), ("12", 8), ("13", 9),
                         ("104", 100), ("1e18", 10 ** 18))}


class TestLightCone:
    @pytest.mark.parametrize("experiment, pairs", WIDE.values(), ids=WIDE)
    def test_wide_register_runs_on_its_core(self, tmp_path, experiment, pairs):
        # every register with its lowest pair ion at 1 or above has the same
        # 5-ion light cone, so it gives the reports of pairs (1, 2), (3, 4)
        counts = {"noise_samples": 30}
        if experiment == "cnot-tomo":
            counts.update(shots=100, n_haar_samples=1000)
        outputs = []
        for name, layout in (("wide", pairs), ("core", [[1, 2], [3, 4]])):
            path, _ = write_config(
                tmp_path, f"{name}.json", experiment=experiment,
                output_dir=str(tmp_path / name), noise=CALIBRATED,
                register={"n_logical": 2, "pairs": layout}, **counts)
            start = time.perf_counter()
            assert main(["validate", str(path)]) == 0
            assert main(["run", str(path)]) == 0
            assert time.perf_counter() - start < 1.0
            out = tmp_path / name
            outputs.append((json.loads((out / "report.json").read_text())["metrics"],
                            (out / "matrices.json").read_bytes()))
        assert outputs[0] == outputs[1]

    @settings(max_examples=15, deadline=None)
    @given(experiment=st.sampled_from(["bell", "cnot-tomo"]),
           offset=st.integers(0, 3), reverse=st.booleans(),
           roles=st.sampled_from([(0, 1), (1, 0)]),
           noise=st.fixed_dictionaries({
               "addressing_ratio": st.floats(0.0, 0.2),
               "intensity_imbalance": st.floats(-0.2, 0.2),
               "ac_stark_phase_jitter_std": st.floats(0.0, 0.5),
               "collective_phase_std": st.floats(0.0, 0.5)}),
           noise_samples=st.integers(1, 3), seed=st.integers(0, 2 ** 32))
    def test_core_run_matches_the_full_register(self, experiment, offset,
                                                reverse, roles, noise,
                                                noise_samples, seed):
        # the oracle runs the same experiment on the unshifted register of
        # up to 7 ions; both layouts the compiler accepts are drawn
        ions = [offset + k for k in range(4)]
        if reverse:  # the mirrored layout, pair 0 on the highest ions
            ions.reverse()
        pairs = [ions[:2], ions[2:]]
        config = {"experiment": experiment, "seed": seed, "output_dir": "out",
                  "register": {"n_logical": 2, "pairs": pairs}, "noise": noise,
                  "noise_samples": noise_samples, "control": roles[0],
                  "target": roles[1]}
        if experiment == "cnot-tomo":
            config.update(shots=None, n_haar_samples=1000)
        core = cli._check_semantics(config)
        assert core["register"].n_ions == 4 + (offset > 0)
        register = LogicalRegister.from_json(config["register"])
        circuit = [("cnot", *roles)]
        if experiment == "bell":
            circuit.insert(0, ("x", roles[0], np.pi / 2))
        full = dict(core, register=register,
                    sequence=compile_circuit(circuit, register))
        got, want = (cli.run_experiment(run, seed)[:2] for run in (core, full))
        assert got[0].keys() == want[0].keys() and got[1].keys() == want[1].keys()
        for key in got[0]:
            a, b = got[0][key], want[0][key]
            assert a == b or np.allclose(a, b, rtol=0, atol=1e-12), key
        for key in got[1]:
            entries = [m["entries"] if isinstance(m, dict) else m
                       for m in (got[1][key], want[1][key])]
            assert np.allclose(*entries, rtol=0, atol=1e-12), key


class TestCollectiveImmunity:
    @pytest.mark.parametrize("experiment", ["bell", "cnot-tomo"])
    def test_collective_phase_moves_no_figure(self, tmp_path, experiment):
        # every figure reads only the encoded block, where the collective
        # mask is exactly 1: the immunity the decoherence-free encoding gives
        counts = {} if experiment == "bell" else {"shots": None,
                                                  "n_haar_samples": 1000}
        outputs = []
        for std in (0.0, 0.3, 2.5):
            out = tmp_path / str(std)
            path, _ = write_config(
                tmp_path, f"{std}.json", experiment=experiment,
                output_dir=str(out),
                noise=dict(CALIBRATED, collective_phase_std=std), **counts)
            assert main(["run", str(path)]) == 0
            metrics = json.loads((out / "report.json").read_text())["metrics"]
            outputs.append((json.dumps(metrics, sort_keys=True),
                            (out / "matrices.json").read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]


class TestRunCoherence:
    def test_ratio_above_hundred(self, tmp_path):
        path, _ = write_config(
            tmp_path, experiment="coherence", phi_std=float(np.pi), seed=3)
        assert main(["run", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["metrics"]["coherence_ratio"] >= 100.0

    def test_report_does_not_depend_on_the_seed(self, tmp_path):
        # the ratio is exact: nothing is sampled, so only the seed field moves
        metrics = []
        for seed in (3, 4):
            path, _ = write_config(tmp_path, experiment="coherence", seed=seed)
            assert main(["run", str(path)]) == 0
            report = json.loads((tmp_path / "out" / "report.json").read_text())
            metrics.append(report["metrics"])
        assert metrics[0] == metrics[1]

    @pytest.mark.parametrize("phi_std", [1e200, 10 ** 200], ids=["float", "int"])
    def test_huge_phase_spread_underflows(self, tmp_path, phi_std):
        path, _ = write_config(tmp_path, experiment="coherence",
                               phi_std=phi_std)
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

    def test_huge_spin_phase_runs_exactly(self, tmp_path):
        # any finite spin phase runs, with no overflow: the loop closes
        # exactly at fraction 0, and elsewhere the motion leaks
        fractions = [-0.4, -0.02, 0.0, 1e-9, 0.3, 0.49]
        for spin_phase in (200.0, 1.7e308):
            path, _ = write_config(tmp_path, experiment="ms-scan",
                                   spin_phase=spin_phase,
                                   timing_fractions=fractions)
            assert main(["run", str(path)]) == 0
            report = json.loads((tmp_path / "out" / "report.json").read_text())
            rows = {r["fraction"]: r["infidelity"] for r in report["metrics"]["rows"]}
            assert rows[0.0] == 0.0
            assert all(0.0 <= i <= 1.0 for i in rows.values())

    def test_ms_and_cp_scans_agree(self, tmp_path):
        # both collective spins have the spectrum {2, 0, 0, -2}
        rows = []
        for kind in ("ms-scan", "cp-scan"):
            path, _ = write_config(tmp_path, experiment=kind, spin_phase=0.7,
                                   timing_fractions=[-0.3, 0.0, 0.05, 0.2])
            assert main(["run", str(path)]) == 0
            report = json.loads((tmp_path / "out" / "report.json").read_text())
            rows.append(report["metrics"]["rows"])
        assert rows[0] == rows[1]


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
        ops, reg = sequence_from_json(doc)
        assert reg == LogicalRegister(2)
        u = restrict_to_dfs(sequence_unitary(ops, reg.n_ions), reg)
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
        ops, reg = sequence_from_json(doc)
        assert reg == LogicalRegister(2)
        u = restrict_to_dfs(sequence_unitary(ops, reg.n_ions), reg)
        assert max_phase_diff(circuit_unitary([("cnot", 1, 0)]), u) < 1e-10


class TestUsage:
    @pytest.mark.parametrize("argv, named", [
        ([], "command"),
        (["bogus"], "bogus"),
        (["{config}"], "{config}"),
        (["run"], "config"),
        (["validate"], "config"),
        (["run", "{config}", "extra"], "extra"),
        (["dump-sequence", "extra"], "extra"),
        (["run", "{config}", "--se", "5"], "--se"),
        (["run", "{config}", "--control", "1"], "--control"),
        (["validate", "{config}", "--seed", "1"], "--seed"),
        (["--seed", "1", "run", "{config}"], "--seed"),
        (["run", "{config}", "-s", "1"], "-s"),
        (["run", "{config}", "--seed"], "--seed"),
        (["run", "{config}", "--seed", "x"], "--seed"),
        (["run", "{config}", "--seed=1.5"], "--seed"),
        (["dump-sequence", "--target="], "--target"),
        (["dump-sequence", "--control", "one"], "--control"),
    ])
    def test_usage_error_exits_2_naming_the_word(self, tmp_path, capsys, argv,
                                                 named):
        # refused before anything runs, as an invalid config is
        path, _ = write_config(tmp_path)
        argv = [word.format(config=path) for word in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert named.format(config=path) in captured.err
        assert not (tmp_path / "out").exists()

    def test_option_value_after_equals_sign(self, tmp_path):
        path, _ = write_config(tmp_path, seed=5)
        assert main(["run", "--seed=7", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["seed"] == 7

    def test_dump_sequence_options_after_equals_sign(self, capsys):
        assert main(["dump-sequence", "--control=1", "--target=0"]) == 0
        joined = capsys.readouterr()
        assert main(["dump-sequence", "--target", "0", "--control", "1"]) == 0
        assert joined == capsys.readouterr()

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["run", "--help"],
                                      ["bogus", "-h"]])
    def test_help_prints_the_usage(self, capsys, argv):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(
            "usage: dfsqc run <config.json> [--seed N]\n")
        assert "dfsqc dump-sequence [--control N --target M]" in captured.out
        assert "Scan experiments emit CSV files" in captured.out
        assert captured.err == ""

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out == "dfsqc 0.1.0\n"


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


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20)


@pytest.mark.parametrize("builtin", [True, False], ids=["builtin", "fallback"])
@settings(deadline=None, max_examples=40)
@given(config=st.dictionaries(st.text(), JSON_VALUES, max_size=6))
def test_config_hash_is_sha256_of_canonical_json(builtin, config):
    # the interpreter's own SHA-256 where it has one, else hashlib's; the
    # built-in modules are hidden to take the fallback
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    want = hashlib.sha256(canonical.encode()).hexdigest()
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hashlib, "sha256",
                   lambda data, _f=hashlib.sha256: calls.append(data) or _f(data))
        if not builtin:
            for name in ("_sha2", "_sha256"):
                mp.setitem(sys.modules, name, None)
        assert cli.config_hash(config) == want
    assert len(calls) == (0 if builtin else 1)


#: Runs ``dfsqc.cli.main`` on each argument list of the JSON list given
#: first and prints, after each, which of the modules named in the JSON
#: list given second are loaded, as a JSON list of lists.
MODULE_PROBE = """
import json, sys
from dfsqc import cli
names, loaded = json.loads(sys.argv[2]), []
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
    loaded.append([name for name in names if name in sys.modules])
print(json.dumps(loaded))
"""


def modules_after(argvs, names):
    """Which of ``names`` are loaded after each argument list of ``argvs``,
    run in turn in one fresh process."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", MODULE_PROBE,
                           json.dumps(argvs), json.dumps(names)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def modules_after_validate_and_run(tmp_path, experiment, names):
    """Which of ``names`` are loaded after ``validate``, then after ``run``,
    of the experiment's default config, in a fresh process."""
    path = str(write_config(tmp_path, experiment=experiment)[0])
    return modules_after([["validate", path], ["run", path]], names)


@pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
def test_no_openssl_loaded(tmp_path, experiment):
    # config_hash needs no hashlib, so validate and run of every experiment
    # leave libcrypto unloaded
    assert modules_after_validate_and_run(
        tmp_path, experiment, ["_hashlib"]) == [[], []]


@pytest.mark.parametrize("command", [*cli.EXPERIMENTS, "dump-sequence",
                                     "--version", "--help"])
def test_no_option_parser_or_csv_loaded(tmp_path, command):
    # cli.parse_args reads the command line and motional joins the scan CSV
    # itself, so no command pays for argparse, the gettext and locale
    # modules its messages load, getopt (which loads gettext too) or csv
    names = ["argparse", "getopt", "gettext", "locale", "csv"]
    if command in cli.EXPERIMENTS:
        assert modules_after_validate_and_run(
            tmp_path, command, names) == [[], []]
    else:
        assert modules_after([[command]], names) == [[]]


@pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
def test_no_numpy_random_loaded(tmp_path, experiment):
    # shots come from the SplitMix64 stream in plain numpy, so nothing
    # imports numpy.random or what it pulls in; cnot-tomo's 100-shot run
    # shows the probe reaches the shot stream
    drawn = ["dfsqc.tomography"] if experiment == "cnot-tomo" else []
    assert modules_after_validate_and_run(
        tmp_path, experiment,
        ["numpy.random", "secrets", "_hashlib", "dfsqc.tomography"]) == [
            [], drawn]


#: Runs ``dfsqc.cli.main`` on its arguments after importing the module
#: named first, and prints whether numpy and ``dfsqc.tomography`` were
#: imported.
NUMPY_PROBE = """
import importlib, sys
importlib.import_module(sys.argv[1])
if sys.argv[2:]:
    from dfsqc import cli
    code = cli.main(sys.argv[2:])
    assert code == 0, code
print(*(name in sys.modules for name in (
    "numpy", "dfsqc.tomography", "dataclasses", "csv", "dfsqc.motional")))
"""


@pytest.mark.parametrize("command, experiment, loads_numpy", [
    ("import dfsqc", None, False),
    ("import dfsqc.cli", None, False),
    ("--version", None, False),
    ("run", "ms-scan", False),
    ("run", "cp-scan", False),
    ("validate", "ms-scan", False),
    ("validate", "cp-scan", False),
    ("validate", "coherence", False),
    ("run", "coherence", False),
    ("validate", "bell", True),
    ("run", "bell", True),
])
def test_numpy_loaded_only_where_used(tmp_path, command, experiment,
                                      loads_numpy):
    # the scans, coherence and most validations compute without numpy, so
    # they must not pay for importing it; validate of bell shows the probe
    # can see it.
    # Only cnot-tomo reads tomography, so no command here imports it; no
    # command imports dataclasses or csv, and only a scan's run imports
    # motional
    module, argv = "dfsqc.cli", [command]
    if command.startswith("import"):
        module, argv = command.split()[1], []
    if experiment is not None:
        argv.append(str(write_config(tmp_path, experiment=experiment)[0]))
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE, module, *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    scan = command == "run" and experiment in ("ms-scan", "cp-scan")
    assert proc.stdout.split()[-5:] == [str(loads_numpy), "False", "False",
                                        "False", str(scan)]


def test_layer_functions_looked_up_at_call_time(tmp_path, monkeypatch):
    # the benchmark tracer wraps module attributes; a run that bound them
    # at import time would bypass its wrappers
    calls = []
    for module, name in [(noise, "sample_noisy_channel"),
                         (tomography, "process_tomography"),
                         (tomography, "chi_linear_solve"),
                         (gates, "compile_cnot")]:
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    path, _ = write_config(tmp_path, "bell.json", noise=CALIBRATED,
                           noise_samples=4)
    assert main(["run", str(path)]) == 0
    assert {"sample_noisy_channel", "compile_cnot"} <= set(calls)
    calls.clear()
    path, _ = write_config(tmp_path, "tomo.json", experiment="cnot-tomo",
                           shots=None, n_haar_samples=1000)
    assert main(["run", str(path)]) == 0
    assert {"sample_noisy_channel", "process_tomography",
            "chi_linear_solve", "compile_cnot"} <= set(calls)


@pytest.mark.parametrize("workload, index", [("tomo", 0), ("bell", 0),
                                             ("scan", 0), ("scan", 1)])
def test_benchmark_configs_validate(tmp_path, workload, index):
    # the benchmark's configs must stay valid: a field it still sets that
    # the package refuses would break the benchmark, not only this suite
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    config = workloads.request_config(workload, 7, index, str(tmp_path / "out"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["validate", str(path)]) == 0
