"""Command-line front end.

Subcommands
-----------
``dfsqc run <config.json>``
    Run one experiment described by a JSON config (schema below) and
    write ``report.json``, ``matrices.json`` and any scan CSV files into
    the configured output directory, each atomically.  Exit code 2 flags
    an invalid config, found before any computation; 3 a
    numerical-contract violation (oscillator truncation or gate-closure
    failure).
``dfsqc dump-sequence [--control N --target M]``
    Print the compiled CNOT pulse sequence as JSON (durations in
    seconds, total in microseconds) on stdout.
``dfsqc validate <config.json>``
    Check a config without running it.

``--seed`` overrides the config seed and, like it, must be non-negative.
Reports are reproducible: the same (config, seed) gives the same bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import tempfile
from typing import Optional

import jsonschema
import numpy as np

from . import __version__, motional
from .encoding import (LogicalRegister, coherence_ratio, decode_in_dfs,
                       embed_in_dfs, encode)
from .errors import (ClosureError, ConfigError, DfsqcError, LayoutError,
                     TruncationError, ValidationError)
from .gates import (SWAP_LOGICAL, GateParams, PulseSequence,
                    bell_state_logical, cnot_logical_matrix, compile_cnot,
                    ms_pulse)
from .noise import NoiseModel, sample_noisy_channel
from .tomography import (chi_from_unitary, dfs_report, haar_report,
                         matrix_to_json, process_fidelity, process_tomography)

#: Fields every experiment reads.
COMMON_FIELDS = ("experiment", "seed", "output_dir")
_BELL_FIELDS = ("register", "gate_params", "noise", "noise_samples",
                "control", "target")
_SCAN_FIELDS = ("gate_params", "spin_phase", "timing_fractions")
#: Further fields each experiment reads; a config that sets any other
#: field is refused.
EXPERIMENT_FIELDS = {
    "bell": _BELL_FIELDS,
    "cnot-tomo": _BELL_FIELDS + ("shots", "exact_statistics", "n_haar_samples"),
    "coherence": ("phi_std", "n_phase_samples"),
    "ms-scan": _SCAN_FIELDS,
    "cp-scan": _SCAN_FIELDS,
}
EXPERIMENTS = tuple(EXPERIMENT_FIELDS)

CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "additionalProperties": False,
    "required": ["experiment", "seed", "output_dir"],
    "properties": {
        "experiment": {"enum": list(EXPERIMENTS)},
        "seed": {"type": "integer", "minimum": 0},
        "output_dir": {"type": "string", "minLength": 1},
        "register": {
            "type": "object",
            "additionalProperties": False,
            "required": ["n_logical", "pairs"],
            "properties": {
                "n_logical": {"type": "integer", "minimum": 1},
                "pairs": {"type": "array", "items": {
                    "type": "array", "items": {"type": "integer", "minimum": 0},
                    "minItems": 2, "maxItems": 2}},
            },
        },
        "gate_params": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "delta_ms": {"type": "number", "exclusiveMinimum": 0},
                "delta_cp": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "noise": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "addressing_ratio": {"type": "number", "minimum": 0,
                                     "exclusiveMaximum": 1},
                "intensity_imbalance": {"type": "number", "exclusiveMinimum": -1},
                "ac_stark_phase_jitter_std": {"type": "number", "minimum": 0},
                "collective_phase_std": {"type": "number", "minimum": 0},
            },
        },
        "control": {"type": "integer", "minimum": 0},
        "target": {"type": "integer", "minimum": 0},
        "shots": {"type": ["integer", "null"], "minimum": 1},
        "exact_statistics": {"type": "boolean"},
        "n_haar_samples": {"type": "integer", "minimum": 1000},
        "noise_samples": {"type": "integer", "minimum": 1},
        "phi_std": {"type": "number", "minimum": 0},
        "n_phase_samples": {"type": "integer", "minimum": 1000},
        "timing_fractions": {"type": "array",
                             "items": {"type": "number",
                                       "exclusiveMinimum": -0.5,
                                       "exclusiveMaximum": 0.5}},
        "spin_phase": {"type": "number", "exclusiveMinimum": 0},
    },
}

#: Published figures of the trapped-ion experiment this toolkit models,
#: quoted for context in report footers (percent).
REFERENCE_EXPERIMENT = {
    "bell_fidelities_pct": [89.0, 91.0, 91.0, 92.0],
    "bell_permanences_pct": [90.2, 94.3, 83.9, 86.0],
    "mean_gate_fidelity_pct": 89.0,
    "mean_permanence_pct": 89.0,
    "overall_fidelity_pct": 79.0,
}


def _reject_constant(name: str):
    raise ConfigError(f"config is not strict JSON: {name} is not a number")


def _reject_overflow(text: str) -> str:
    """Pass a JSON number's text on if it fits in a float, else refuse it."""
    if math.isinf(float(text)):
        shown = text if len(text) <= 24 else f"{text[:20]}... ({len(text)} characters)"
        raise ConfigError(f"config number {shown} is outside the float range")
    return text


def load_config(path: str) -> dict:
    """Parse, schema-check and semantically check a config file.

    Every problem raises :class:`ConfigError` naming the field at fault.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        config = json.loads(
            text, parse_constant=_reject_constant,
            parse_float=lambda t: float(_reject_overflow(t)),
            parse_int=lambda t: int(_reject_overflow(t)))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config is not valid JSON (line {exc.lineno}, column {exc.colno}): "
            f"{exc.msg}") from exc
    validator = jsonschema.Draft7Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(config), key=lambda e: list(e.path))
    if errors:
        details = "; ".join(
            f"{'.'.join(str(p) for p in e.path) or '<root>'}: {e.message}"
            for e in errors)
        raise ConfigError(f"config failed schema validation: {details}")
    _check_semantics(config)
    return config


@contextlib.contextmanager
def _field(name: str):
    try:
        yield
    except DfsqcError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _check_semantics(config: dict) -> None:
    """Refuse any field the chosen experiment does not read, then build
    what the experiment derives from the config, so that a config the
    schema admits but the physics does not is refused before any
    computation."""
    experiment = config["experiment"]
    ignored = [name for name in config if name not in COMMON_FIELDS
               and name not in EXPERIMENT_FIELDS[experiment]]
    if ignored:
        raise ConfigError(f"{', '.join(ignored)}: not read by the "
                          f"{experiment} experiment")
    uses_cnot = experiment in ("bell", "cnot-tomo")
    if config.get("exact_statistics") and config.get("shots") is not None:
        raise ConfigError(
            "shots: not used under exact_statistics; give one of the two")
    with _field("register"):
        register = _register(config)
        if uses_cnot and register.n_logical != 2:
            raise LayoutError(f"{experiment} needs 2 logical qubits, "
                              f"got {register.n_logical}")
    with _field("gate_params"):
        params = _gate_params(config)
    with _field("noise"):
        _noise(config)
    if uses_cnot:
        control, target = config.get("control", 0), config.get("target", 1)
        with _field("control/target"):
            compile_cnot(control, target, register, params)
            cnot_logical_matrix(control, target)


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to a unique temporary file next to ``path``, sync it
    and rename it over ``path``, so readers never see a partial file."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _json_text(obj) -> str:
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValidationError(f"output is not strict JSON: {exc}") from exc


def _register(config: dict) -> LogicalRegister:
    if "register" in config:
        return LogicalRegister.from_json(config["register"])
    return LogicalRegister(2)


def _gate_params(config: dict) -> GateParams:
    if "gate_params" in config:
        return GateParams.from_json(config["gate_params"])
    return GateParams()


def _noise(config: dict) -> Optional[NoiseModel]:
    if "noise" in config:
        return NoiseModel.from_json(config["noise"])
    return None


def run_bell(config: dict, seed: int) -> tuple:
    register = _register(config)
    params = _gate_params(config)
    control = config.get("control", 0)
    target = config.get("target", 1)
    cnot = compile_cnot(control, target, register, params)
    prep = ms_pulse(np.pi / 2, control, register, 0.0, params)
    seq = PulseSequence(ops=[prep] + list(cnot.ops), register=register)
    inputs = [format(k, "02b") for k in range(4)]
    psi = np.stack([encode(register, bits) for bits in inputs])
    rhos = sample_noisy_channel(seq, psi[:, :, None] * psi[:, None, :].conj(),
                                _noise(config), config.get("noise_samples", 300),
                                seed=seed)
    metrics = {"inputs": inputs, "fidelity": [], "permanence": [], "overall": []}
    matrices = {}
    for bits, rho in zip(inputs, rhos):
        if control == 0:
            ideal = bell_state_logical(bits)
        else:
            ideal = SWAP_LOGICAL @ bell_state_logical(bits[::-1])
        perm, fid, overall = dfs_report(rho, ideal, register)
        metrics["fidelity"].append(fid)
        metrics["permanence"].append(perm)
        metrics["overall"].append(overall)
        rho_l, _ = decode_in_dfs(rho, register)
        matrices[f"bell_{bits}_logical"] = matrix_to_json(rho_l)
    return metrics, matrices, []


def run_cnot_tomo(config: dict, seed: int) -> tuple:
    register = _register(config)
    params = _gate_params(config)
    noise_model = _noise(config)
    exact = config.get("exact_statistics", False)
    shots = None if exact else config.get("shots", 100)
    n_haar = config.get("n_haar_samples", 200_000)
    n_samples = config.get("noise_samples", 300)
    control = config.get("control", 0)
    target = config.get("target", 1)
    cnot = compile_cnot(control, target, register, params)

    def channel(rho_l):
        return sample_noisy_channel(cnot, embed_in_dfs(rho_l, register),
                                    noise_model, n_samples, seed=seed)

    result = process_tomography(channel, shots=shots, seed=seed,
                                register=register)
    ideal = cnot_logical_matrix(control, target)
    chi_ideal = chi_from_unitary(ideal)
    w = result.permanence_functional()
    report = haar_report(result.chi, ideal, w, n_samples=n_haar, seed=seed)
    gap = abs(report["mean_overall"]
              - report["mean_permanence"] * report["mean_gate_fidelity"])
    metrics = {
        "shots_per_setting": shots,
        "process_fidelity": process_fidelity(result.chi, chi_ideal),
        "input_permanences": [float(p) for p in result.permanences],
        "consistency_gap": gap,
        **report,
    }
    matrices = {"chi": result.chi.to_json(),
                "chi_ideal": chi_ideal.to_json()}
    return metrics, matrices, []


def run_coherence(config: dict, seed: int) -> tuple:
    phi_std = config.get("phi_std", float(np.pi))
    n = config.get("n_phase_samples", 100_000)
    ratio = coherence_ratio(phi_std, n, seed)
    phi = float(phi_std)  # a float square underflows the exponential to 0.0
    metrics = {"phi_std": phi_std, "n_phase_samples": n,
               "coherence_ratio": ratio,
               "physical_coherence_analytic": float(np.exp(-phi * phi / 2))}
    return metrics, {}, []


def run_scan(config: dict, seed: int, kind: str) -> tuple:
    params = _gate_params(config)
    delta = params.delta_ms if kind == "ms" else params.delta_cp
    spin_phase = config.get("spin_phase", float(np.pi / 8))
    fractions = config.get("timing_fractions",
                           [0.0, 0.01, 0.02, 0.05, 0.1, 0.2])
    model = motional.DrivenOscillatorModel(
        coupling=motional.coupling_for_phase(spin_phase, delta),
        delta=delta,
        spin_op_kind=motional.SPIN_X if kind == "ms" else motional.SPIN_Z)
    rows = motional.off_resonant_error_scan(model, fractions)
    metrics = {"detuning": delta, "spin_phase": spin_phase,
               "rows": [{"fraction": f, "infidelity": i} for f, i in rows]}
    return metrics, {}, [(f"{kind}_scan.csv", motional.scan_csv_text(rows))]


def run_experiment(config: dict, seed: int) -> tuple:
    kind = config["experiment"]
    if kind == "bell":
        return run_bell(config, seed)
    if kind == "cnot-tomo":
        return run_cnot_tomo(config, seed)
    if kind == "coherence":
        return run_coherence(config, seed)
    if kind == "ms-scan":
        return run_scan(config, seed, "ms")
    if kind == "cp-scan":
        return run_scan(config, seed, "cp")
    raise ConfigError(f"unknown experiment {kind!r}")


def cmd_run(args) -> int:
    try:
        config = load_config(args.config)
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else config["seed"]
    try:
        metrics, matrices, csvs = run_experiment(config, seed)
    except (TruncationError, ClosureError) as exc:
        print(f"numerical contract violated: {exc}", file=sys.stderr)
        return 3
    report = {
        "tool": "dfsqc",
        "version": __version__,
        "experiment": config["experiment"],
        "config_hash": config_hash(config),
        "seed": seed,
        "metrics": metrics,
        "context": {"reference_experiment": REFERENCE_EXPERIMENT},
    }
    files = [("report.json", _json_text(report))]
    if matrices:
        files.append(("matrices.json", _json_text(matrices)))
    out_dir = config["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    for name, text in files + csvs:
        _atomic_write(os.path.join(out_dir, name), text)
    print(f"wrote {os.path.join(out_dir, 'report.json')}")
    return 0


def cmd_dump_sequence(args) -> int:
    register = LogicalRegister(2)
    seq = compile_cnot(args.control, args.target, register, GateParams())
    doc = seq.to_json()
    doc["total_duration_us"] = seq.total_duration * 1e6
    print(json.dumps(doc, indent=2))
    return 0


def cmd_validate(args) -> int:
    try:
        load_config(args.config)
    except ConfigError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 2
    print("config ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfsqc",
        description="Simulate and characterize encoded trapped-ion gates.",
        epilog=(
            "Scan experiments emit CSV files with columns (fraction, "
            "infidelity); bell and cnot-tomo write matrices.json with "
            "row-major [re, im] matrix entries."))
    parser.add_argument("--version", action="version",
                        version=f"dfsqc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.set_defaults(fn=cmd_run)

    p_dump = sub.add_parser("dump-sequence",
                            help="print the compiled CNOT pulse sequence")
    p_dump.add_argument("--control", type=int, default=0)
    p_dump.add_argument("--target", type=int, default=1)
    p_dump.set_defaults(fn=cmd_dump_sequence)

    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("config")
    p_val.set_defaults(fn=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except DfsqcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
