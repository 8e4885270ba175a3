"""Command-line front end.

Subcommands
-----------
``dfsqc run <config.json>``
    Run one experiment described by a JSON config (fields in
    ``EXPERIMENT_FIELDS`` below) and write ``report.json``,
    ``matrices.json`` and any scan CSV files into the configured output
    directory, each atomically.  Exit code 2 flags an invalid config,
    found before any computation; 3 a numerical-contract violation
    (oscillator truncation or gate-closure failure).
``dfsqc dump-sequence [--control N --target M]``
    Print the compiled CNOT pulse sequence as JSON (durations in seconds,
    total in microseconds) on stdout; exit 2 flags an invalid pair.
``dfsqc validate <config.json>``
    Check a config without running it.

``--seed`` overrides the config seed and, like it, must be non-negative.
Reports are reproducible: the same (config, seed) gives the same bytes.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import json
import math
import os
import sys
import tempfile
from typing import Optional

import numpy as np

from . import __version__, linalg, motional
from .encoding import (LogicalRegister, coherence_ratio, decode_in_dfs,
                       embed_in_dfs, encode)
from .errors import (ClosureError, ConfigError, DfsqcError, DimensionError,
                     LayoutError, TruncationError, ValidationError)
from .gates import (SWAP_LOGICAL, GateParams, PulseSequence,
                    bell_state_logical, cnot_logical_matrix, compile_cnot,
                    ms_pulse)
from .noise import NoiseModel, sample_noisy_channel
from .tomography import (chi_from_unitary, dfs_report, haar_report,
                         matrix_to_json, process_fidelity, process_tomography)


#: What one config value must be: ``test(value)`` holds, as ``what`` says.
FieldSpec = collections.namedtuple("FieldSpec", "test what required",
                                   defaults=(False,))


def _integer(value) -> bool:
    return type(value) is int  # JSON 1.0 and true are refused


def _real(value) -> bool:
    return type(value) in (int, float)


def _int_from(low: int) -> FieldSpec:
    return FieldSpec(lambda v: _integer(v) and v >= low, f"an integer >= {low}")


#: Bytes the working arrays of one sampled quantity may take.
MEMORY_BUDGET = 2 ** 30


def _samples(low: int, bytes_each: int) -> FieldSpec:
    """A sample count >= ``low`` whose arrays, at ``bytes_each`` bytes per
    sample, fit in ``MEMORY_BUDGET``."""
    high = MEMORY_BUDGET // bytes_each
    return FieldSpec(lambda v: _integer(v) and low <= v <= high,
                     f"an integer from {low} to {high} (more do not fit "
                     f"in the {MEMORY_BUDGET >> 20} MiB memory budget)")


_INTEGER, _REAL = FieldSpec(_integer, "an integer"), FieldSpec(_real, "a number")
# Sample counts, at bytes per sample rounded up from the tracemalloc peak of
# the arrays a run builds: 24 per shot, 960 per Haar state, 40 per phase.
_SHOTS, _HAAR, _PHASES = _samples(1, 32), _samples(1000, 1024), _samples(1000, 64)
# Nested objects get types only: LogicalRegister, GateParams and NoiseModel,
# which _check_semantics builds, check their bounds.
_CNOT_FIELDS = {
    "register": {"n_logical": _INTEGER._replace(required=True),
                 "pairs": FieldSpec(lambda v: type(v) is list and all(
                     type(p) is list and len(p) == 2 and all(map(_integer, p))
                     for p in v), "a list of [ion, ion] integer pairs", required=True)},
    "gate_params": {"delta_ms": _REAL, "delta_cp": _REAL},
    "noise": dict.fromkeys(("addressing_ratio", "intensity_imbalance",
                            "ac_stark_phase_jitter_std", "collective_phase_std"),
                           _REAL),
    "noise_samples": _int_from(1), "control": _INTEGER, "target": _INTEGER,
}
_SCAN_FIELDS = {
    "spin_phase": FieldSpec(lambda v: _real(v) and v > 0, "a number > 0"),
    "timing_fractions": FieldSpec(
        lambda v: type(v) is list and v != []
        and all(_real(f) and -0.5 < f < 0.5 for f in v),
        "a non-empty list of numbers in (-0.5, 0.5)"),
}
#: The fields each experiment reads besides ``COMMON_FIELDS``, with what
#: each must be; an object is a nested table of the sub-fields read.  A
#: config that sets any other field is refused.
EXPERIMENT_FIELDS = {
    "bell": _CNOT_FIELDS,
    "cnot-tomo": {**_CNOT_FIELDS,
                  "shots": FieldSpec(lambda v: v is None or _SHOTS.test(v),
                                     f"null or {_SHOTS.what}"),
                  "exact_statistics": FieldSpec(lambda v: type(v) is bool,
                                                "true or false"),
                  "n_haar_samples": _HAAR},
    "coherence": {"phi_std": FieldSpec(lambda v: _real(v) and v >= 0, "a number >= 0"),
                  "n_phase_samples": _PHASES},
    "ms-scan": {"gate_params": {"delta_ms": _REAL}, **_SCAN_FIELDS},
    "cp-scan": {"gate_params": {"delta_cp": _REAL}, **_SCAN_FIELDS},
}
EXPERIMENTS = tuple(EXPERIMENT_FIELDS)
#: Fields every experiment reads.
COMMON_FIELDS = {
    "experiment": FieldSpec(lambda v: v in EXPERIMENTS,
                            "one of " + ", ".join(EXPERIMENTS), required=True),
    "seed": _int_from(0)._replace(required=True),
    "output_dir": FieldSpec(lambda v: type(v) is str and v != "",
                            "a non-empty string", required=True),
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


def _shown(text: str) -> str:
    return text if len(text) <= 24 else f"{text[:20]}... ({len(text)} characters)"


def _reject_constant(name: str):
    raise ConfigError(f"config is not strict JSON: {name} is not a number")


def _reject_overflow(text: str) -> str:
    """Pass a JSON number's text on if it fits in a float, else refuse it."""
    if math.isinf(float(text)):
        raise ConfigError(f"config number {_shown(text)} is outside the float range")
    return text


def _reject_duplicates(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        twice = [n for n in obj if [k for k, _ in pairs].count(n) > 1]
        raise ConfigError(f"{', '.join(twice)}: duplicate key in config")
    return obj


def load_config(path: str) -> dict:
    """Parse a UTF-8, strict-JSON config file and check it with
    :func:`_check_semantics`; every problem raises :class:`ConfigError`."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        config = json.loads(
            text, parse_constant=_reject_constant,
            object_pairs_hook=_reject_duplicates,
            parse_float=lambda t: float(_reject_overflow(t)),
            parse_int=lambda t: int(_reject_overflow(t)))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config is not valid JSON (line {exc.lineno}, column {exc.colno}): "
            f"{exc.msg}") from exc
    _check_semantics(config)
    return config


@contextlib.contextmanager
def _field(name: str):
    try:
        yield
    except DfsqcError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _check_fields(value, table: dict, path: str, experiment) -> None:
    """Check an object against a field table, naming a field at fault by
    its dotted path: a required field missing, a value not what the table
    says, or a field the table does not list."""
    if type(value) is not dict:
        raise ConfigError(f"{path[:-1] or 'config'}: must be an object")
    for name, spec in table.items():
        if name not in value:
            if getattr(spec, "required", False):
                raise ConfigError(f"{path}{name}: required")
        elif isinstance(spec, dict):
            _check_fields(value[name], spec, f"{path}{name}.", experiment)
        elif not spec.test(value[name]):
            raise ConfigError(f"{path}{name}: must be {spec.what}, "
                              f"got {_shown(json.dumps(value[name]))}")
    unread = [path + name for name in value if name not in table]
    if unread:
        raise ConfigError(f"{', '.join(unread)}: not read by the "
                          f"{experiment} experiment")


def _check_semantics(config) -> None:
    """Check the config against ``COMMON_FIELDS`` and its experiment's
    ``EXPERIMENT_FIELDS``, then build what the run derives from it and look
    at its output directory, so that no run starts that cannot finish."""
    experiment = config.get("experiment") if type(config) is dict else None
    fields = EXPERIMENT_FIELDS[experiment] if experiment in EXPERIMENTS else {}
    _check_fields(config, {**COMMON_FIELDS, **fields}, "", experiment)
    uses_cnot = experiment in ("bell", "cnot-tomo")
    if config.get("exact_statistics") and config.get("shots") is not None:
        raise ConfigError(
            "shots: not used under exact_statistics; give one of the two")
    with _field("register"):
        register = _register(config)
        if uses_cnot and register.n_logical != 2:
            raise LayoutError(f"{experiment} needs 2 logical qubits, "
                              f"got {register.n_logical}")
        # by ion count: the 2^n of a huge ion index is itself too costly
        if register.n_ions > linalg.MAX_TENSOR_DIM.bit_length() - 1:
            raise DimensionError(f"{register.n_ions} ions exceed the state "
                                 f"dimension cap {linalg.MAX_TENSOR_DIM}")
    with _field("gate_params"):
        params = _gate_params(config)
    with _field("noise"):
        _noise(config)
    if uses_cnot:
        control, target = config.get("control", 0), config.get("target", 1)
        with _field("control/target"):
            compile_cnot(control, target, register, params)
            cnot_logical_matrix(control, target)
    parent = config["output_dir"]  # the nearest path that exists
    while parent and not os.path.lexists(parent):
        parent = os.path.dirname(parent)
    if parent and not os.path.isdir(parent):
        raise ConfigError(f"output_dir: {parent} is not a directory")


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
    return GateParams.from_json(config.get("gate_params", {}))


def _noise(config: dict) -> Optional[NoiseModel]:
    return NoiseModel.from_json(config["noise"]) if "noise" in config else None


def run_bell(config: dict, seed: int) -> tuple:
    register = _register(config)
    params = _gate_params(config)
    control, target = config.get("control", 0), config.get("target", 1)
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
    control, target = config.get("control", 0), config.get("target", 1)
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
    if kind in ("ms-scan", "cp-scan"):
        return run_scan(config, seed, kind[:2])
    runs = {"bell": run_bell, "cnot-tomo": run_cnot_tomo, "coherence": run_coherence}
    return runs[kind](config, seed)


def cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
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
    with _field("--control/--target"):
        seq = compile_cnot(args.control, args.target, LogicalRegister(2), GateParams())
    doc = seq.to_json()
    doc["total_duration_us"] = seq.total_duration * 1e6
    print(json.dumps(doc, indent=2))
    return 0


def cmd_validate(args) -> int:
    load_config(args.config)
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
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
