"""Command-line front end.

Subcommands
-----------
``dfsqc run <config.json>``
    Run one experiment described by a JSON config (fields in
    ``EXPERIMENT_FIELDS`` below) and write ``report.json``,
    ``matrices.json`` and any scan CSV files into the configured output
    directory, each atomically.  :func:`load_config` checks the config
    and returns the run's inputs, built once: the run functions read
    only those.  Exit code 2 flags an invalid config, found before any
    computation.  ``bell`` and ``cnot-tomo`` run on the light cone of the
    CNOT, the at most 5 ions its noisy pulses touch, wherever the pairs
    sit on the string, and each sample count has a fixed range, so every
    config that validates runs in seconds.
``dfsqc dump-sequence [--control N --target M]``
    Print the compiled CNOT pulse sequence as JSON (durations in seconds,
    total in microseconds) on stdout; exit 2 flags an invalid pair.
``dfsqc validate <config.json>``
    Check a config without running it.

``--seed`` overrides the config seed and, like it, must be non-negative.
Reports are reproducible: the same (config, seed) gives the same bytes.

Only ``run`` and ``validate`` of ``bell`` and ``cnot-tomo``, and
``dump-sequence``, import numpy; ``coherence``, the scans and ``--version``
start without it.
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

from . import __version__, motional
from .errors import ConfigError, DfsqcError, LayoutError, ValidationError


#: What a config value must be (``test(value)`` holds, as ``what`` says) and its
#: default or ``_REQUIRED``; a nested object's class holds its sub-fields' defaults.
FieldSpec = collections.namedtuple("FieldSpec", "test what default", defaults=(None,))
_REQUIRED = object()


def _integer(value) -> bool:
    return type(value) is int  # JSON 1.0 and true are refused


def _real(value) -> bool:
    return type(value) in (int, float)


def _integers(low: int, high: float = math.inf) -> FieldSpec:
    return FieldSpec(lambda v: _integer(v) and low <= v <= high,
                     f"an integer >= {low}" if high == math.inf
                     else f"an integer from {low} to {high}")


_INTEGER, _REAL = FieldSpec(_integer, "an integer"), FieldSpec(_real, "a number")
# Sample counts are capped by the time a run takes on its light cone of at
# most 5 ions: a jittering cnot-tomo with every count at its cap takes about
# 2.1 s on a 2-core Intel Xeon host with one BLAS thread, 1.6 s of it
# drawing the shots.
_COUNT = _integers(1, 10 ** 4)  # noise_samples and shots
# Nested objects get types only: LogicalRegister and NoiseModel, which
# _check_semantics builds, check their bounds.
_CNOT_FIELDS = {
    "register": {"n_logical": _INTEGER._replace(default=_REQUIRED),
                 "pairs": FieldSpec(lambda v: type(v) is list and all(
                     type(p) is list and len(p) == 2 and all(map(_integer, p))
                     for p in v), "a list of [ion, ion] integer pairs", _REQUIRED)},
    "noise": dict.fromkeys(("addressing_ratio", "intensity_imbalance",
                            "ac_stark_phase_jitter_std", "collective_phase_std"),
                           _REAL),
    # noise_samples is range-checked but read by nothing: the jitter average
    # is exact.  perfbench/workloads.request_config still sets it, so refusing
    # it waits for the benchmark to drop the field.
    "noise_samples": _COUNT._replace(default=300),
    "control": _INTEGER._replace(default=0), "target": _INTEGER._replace(default=1),
}
_SCAN_FIELDS = {
    "spin_phase": FieldSpec(lambda v: _real(v) and v > 0, "a number > 0", math.pi / 8),
    "timing_fractions": FieldSpec(
        lambda v: type(v) is list and v != []
        and all(_real(f) and -0.5 < f < 0.5 for f in v),
        "a non-empty list of numbers in (-0.5, 0.5)",
        (0.0, 0.01, 0.02, 0.05, 0.1, 0.2)),
}
#: The fields each experiment reads besides ``COMMON_FIELDS``, with what
#: each must be and its default; an object is a nested table of the
#: sub-fields read.  A config that sets any other field is refused.
EXPERIMENT_FIELDS = {
    "bell": _CNOT_FIELDS,
    "cnot-tomo": {**_CNOT_FIELDS,
                  "shots": FieldSpec(lambda v: v is None or _COUNT.test(v),
                                     f"null or {_COUNT.what}", 100),
                  # n_haar_samples is range-checked but read by nothing: the
                  # Haar figures are exact.  perfbench/workloads.request_config
                  # still sets it, so refusing it waits for the benchmark to
                  # drop the field.
                  "n_haar_samples": _integers(1000, 2 ** 20)._replace(
                      default=200_000)},
    "coherence": {"phi_std": FieldSpec(lambda v: _real(v) and v >= 0,
                                       "a number >= 0", math.pi)},
    "ms-scan": _SCAN_FIELDS,
    "cp-scan": _SCAN_FIELDS,
}
EXPERIMENTS = tuple(EXPERIMENT_FIELDS)
#: Fields every experiment reads.
COMMON_FIELDS = {
    "experiment": FieldSpec(lambda v: v in EXPERIMENTS,
                            "one of " + ", ".join(EXPERIMENTS), _REQUIRED),
    "seed": _integers(0)._replace(default=_REQUIRED),
    "output_dir": FieldSpec(lambda v: type(v) is str and v != "",
                            "a non-empty string", _REQUIRED),
}

#: Cap on :func:`coherence_ratio`, which grows like ``exp(phi_std^2 / 2)``.
MAX_COHERENCE_RATIO = 1e6

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
    """Parse a UTF-8, strict-JSON config file and return the run inputs
    that :func:`_check_semantics` builds from it; every problem raises
    :class:`ConfigError`."""
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
    return _check_semantics(config)


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
            if getattr(spec, "default", None) is _REQUIRED:
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


def _check_semantics(config) -> dict:
    """Check the config against ``COMMON_FIELDS`` and its experiment's
    ``EXPERIMENT_FIELDS`` and build the run's inputs, creating nothing, so that
    no run starts that cannot finish: each top-level field's value or default
    and ``config_hash``; for a CNOT also the built ``noise`` (``None``: ideal),
    the ideal ``cnot_matrix``, and the ``register`` shifted to its light cone
    with the ``cnot`` compiled there."""
    experiment = config.get("experiment") if type(config) is dict else None
    fields = EXPERIMENT_FIELDS[experiment] if experiment in EXPERIMENTS else {}
    table = {**COMMON_FIELDS, **fields}
    _check_fields(config, table, "", experiment)
    run = {name: getattr(spec, "default", None) for name, spec in table.items()}
    run.update(config, config_hash=config_hash(config))
    if experiment in ("bell", "cnot-tomo"):
        from .encoding import LogicalRegister
        from .gates import cnot_logical_matrix, compile_cnot
        from .noise import NoiseModel, string_neighbors
        with _field("register"):
            register = (LogicalRegister.from_json(config["register"])
                        if "register" in config else LogicalRegister(2))
            if register.n_logical != 2:
                raise LayoutError(f"{experiment} needs 2 logical qubits, "
                                  f"got {register.n_logical}")
        with _field("noise"):
            run["noise"] = (NoiseModel.from_json(config["noise"])
                            if "noise" in config else None)
        with _field("control/target"):
            run["cnot_matrix"] = cnot_logical_matrix(run["control"], run["target"])
        with _field("register"):  # roles {0, 1} are valid, so the layout is at fault
            cnot = compile_cnot(run["control"], run["target"], register)
        # Run on the light cone, the ions a noisy pulse touches: every ion
        # below it stays |0> and none lies above it, so dropping them changes
        # no decoded figure.  No register.dim is read before the shift, so a
        # pair at ion 10^18 costs what the 5-ion cone does.
        shift = min(i for op in cnot.ops for i in
                    op.targets + string_neighbors(op.targets, register.n_ions))
        run["register"] = LogicalRegister(2, tuple(
            (a - shift, b - shift) for a, b in register.pairs))
        run["cnot"] = compile_cnot(run["control"], run["target"], run["register"])
    # refuse an output_dir that os.makedirs cannot create
    try:
        if b"\0" in os.fsencode(config["output_dir"]):
            raise ConfigError("output_dir: contains a NUL character")
    except UnicodeError as exc:
        raise ConfigError(f"output_dir: not a file name: {exc}") from exc
    parent, missing = config["output_dir"], []  # up to the nearest path that exists
    while parent and not os.path.lexists(parent):
        parent, name = os.path.split(parent)
        missing.append(len(os.fsencode(name)))
    if parent and not os.path.isdir(parent):
        raise ConfigError(f"output_dir: {parent} is not a directory")
    longest, parent = max(missing, default=0), parent or "."
    if longest > os.pathconf(parent, "PC_NAME_MAX") >= 0:
        raise ConfigError(f"output_dir: a {longest}-byte path component is "
                          "longer than its file system allows")
    # the longest path written is matrices.json's mkstemp file, its name
    # plus "." and 8 characters; PC_PATH_MAX counts the terminating NUL
    length = len(os.fsencode(config["output_dir"])) + len("/matrices.json.") + 8
    if length >= os.pathconf(parent, "PC_PATH_MAX") >= 0:
        raise ConfigError(f"output_dir: the {length}-byte paths of the files "
                          "written inside are longer than its file system allows")
    return run


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


def run_bell(run: dict, seed: int) -> tuple:
    import numpy as np

    from . import linalg
    from .encoding import dfs_report, encode, restrict_to_dfs
    from .gates import PulseSequence, ms_pulse
    from .noise import sample_noisy_channel
    register, control = run["register"], run["control"]
    prep = ms_pulse(np.pi / 2, control, register)
    seq = PulseSequence(ops=[prep] + list(run["cnot"].ops), register=register)
    inputs = [format(k, "02b") for k in range(4)]
    psi = np.stack([encode(register, bits) for bits in inputs])
    rhos = sample_noisy_channel(seq, psi[:, :, None] * psi[:, None, :].conj(),
                                run["noise"])
    x = linalg.expm_hermitian(linalg.SIGMA_X, np.pi / 4)  # X(pi/2) on the control
    x_c = linalg.tensor(*[x if q == control else linalg.ID2 for q in range(2)])
    metrics = {"inputs": inputs, "fidelity": [], "permanence": [], "overall": []}
    matrices = {}
    for bits, rho, e_k in zip(inputs, rhos, np.eye(4, dtype=complex)):
        perm, fid, overall = dfs_report(rho, run["cnot_matrix"] @ (x_c @ e_k),
                                        register)
        metrics["fidelity"].append(fid)
        metrics["permanence"].append(perm)
        metrics["overall"].append(overall)
        matrices[f"bell_{bits}_logical"] = linalg.matrix_to_json(
            restrict_to_dfs(rho, register) / perm)
    return metrics, matrices, []


def run_cnot_tomo(run: dict, seed: int) -> tuple:
    from .encoding import embed_in_dfs
    from .noise import sample_noisy_channel
    from .tomography import (chi_from_unitary, haar_report, process_fidelity,
                             process_tomography, project_chi_cp)
    register, shots = run["register"], run["shots"]

    def channel(rho_l):
        return sample_noisy_channel(run["cnot"], embed_in_dfs(rho_l, register),
                                    run["noise"])

    result = process_tomography(channel, register, shots=shots, seed=seed)
    chi_ideal = chi_from_unitary(run["cnot_matrix"])
    chi_cp, negative_mass = project_chi_cp(result.chi)
    report = haar_report(result.chi, chi_ideal)
    gap = abs(report["mean_overall"]
              - report["mean_permanence"] * report["mean_gate_fidelity"])
    metrics = {
        "shots_per_setting": shots,
        "process_fidelity": process_fidelity(result.chi, chi_ideal),
        "input_permanences": [float(p) for p in result.permanences],
        "consistency_gap": gap,
        "chi_negative_mass": negative_mass,
        **report,
    }
    matrices = {"chi": chi_cp.to_json(), "chi_ideal": chi_ideal.to_json()}
    return metrics, matrices, []


def coherence_ratio(phi_std: float) -> float:
    """Ratio of logical to physical coherence surviving collective dephasing
    of standard deviation ``phi_std``, capped at ``MAX_COHERENCE_RATIO``.

    An equal superposition keeps its coherence exactly as a logical qubit,
    whose basis states carry one excitation each, and keeps
    ``exp(-phi_std^2 / 2)`` of it as a bare physical qubit, the unit-step
    factor of ``encoding.collective_dephasing``.
    """
    if not 0 <= phi_std < math.inf:
        raise ValidationError("phi_std must be finite and non-negative")
    phi = float(phi_std)  # a float square underflows the exponential to 0.0
    step = math.exp(-phi * phi / 2)
    return MAX_COHERENCE_RATIO if step <= 1 / MAX_COHERENCE_RATIO else 1 / step


def run_coherence(run: dict, seed: int) -> tuple:
    phi_std = run["phi_std"]
    phi = float(phi_std)
    metrics = {"phi_std": phi_std, "coherence_ratio": coherence_ratio(phi_std),
               "physical_coherence_analytic": math.exp(-phi * phi / 2)}
    return metrics, {}, []


def run_scan(run: dict, seed: int, kind: str) -> tuple:
    spin_phase = run["spin_phase"]
    rows = motional.off_resonant_error_scan(spin_phase, run["timing_fractions"])
    metrics = {"spin_phase": spin_phase,
               "rows": [{"fraction": f, "infidelity": i} for f, i in rows]}
    return metrics, {}, [(f"{kind}_scan.csv", motional.scan_csv_text(rows))]


def run_experiment(run: dict, seed: int) -> tuple:
    kind = run["experiment"]
    if kind in ("ms-scan", "cp-scan"):
        return run_scan(run, seed, kind[:2])
    runs = {"bell": run_bell, "cnot-tomo": run_cnot_tomo, "coherence": run_coherence}
    return runs[kind](run, seed)


def cmd_run(args) -> int:
    run = load_config(args.config)
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    seed = args.seed if args.seed is not None else run["seed"]
    out_dir = run["output_dir"]
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output_dir: {exc}") from exc
    metrics, matrices, csvs = run_experiment(run, seed)
    report = {
        "tool": "dfsqc",
        "version": __version__,
        "experiment": run["experiment"],
        "config_hash": run["config_hash"],
        "seed": seed,
        "metrics": metrics,
        "context": {"reference_experiment": REFERENCE_EXPERIMENT},
    }
    files = [("report.json", _json_text(report))]
    if matrices:
        files.append(("matrices.json", _json_text(matrices)))
    for name, text in files + csvs:
        _atomic_write(os.path.join(out_dir, name), text)
    print(f"wrote {os.path.join(out_dir, 'report.json')}")
    return 0


def cmd_dump_sequence(args) -> int:
    from .encoding import LogicalRegister
    from .gates import compile_cnot
    with _field("--control/--target"):
        seq = compile_cnot(args.control, args.target, LogicalRegister(2))
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
