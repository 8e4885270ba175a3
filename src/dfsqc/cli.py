"""Command-line front end.

Subcommands
-----------
``dfsqc run <config.json>``
    Run one experiment described by a JSON config, a row of ``EXPERIMENTS``
    below (its fields, circuit and run function), and write ``report.json``,
    ``matrices.json`` and any scan CSV files into the configured output
    directory, each atomically.  :func:`load_config` checks the config
    and returns the run's inputs, built once: the run functions read
    only those.  Exit code 2 flags an invalid config, found before any
    computation.  A row's circuit (``bell``: ``X(pi/2)`` on the control
    then the CNOT; ``cnot-tomo``: the CNOT alone) runs on its light cone,
    the at most 5 ions its noisy pulses touch, wherever the pairs sit on
    the string; each sample count has a fixed range, so every config that
    validates runs in seconds.
``dfsqc dump-sequence [--control N --target M]``
    Print the compiled CNOT pulse sequence as JSON (durations in seconds,
    total in microseconds) on stdout; exit 2 flags an invalid pair.
``dfsqc validate <config.json>``
    Check a config without running it.

``--seed`` overrides the config seed and, like it, must be non-negative.
Reports are reproducible: the same (config, seed) gives the same bytes.
:func:`parse_args` reads the command line by ``COMMANDS``: options as
``--opt N`` or ``--opt=N`` in any position, never abbreviated.  The
installed ``dfsqc`` and ``python -m dfsqc.cli`` both run :func:`entry`.

Only ``run`` and ``validate`` of ``bell`` and ``cnot-tomo``, and
``dump-sequence``, import numpy; ``coherence``, the scans and ``--version``
start without it.  Only ``run`` of a scan imports ``motional``.  No
command imports the standard library's option parsers, ``gettext``,
``locale``, ``csv`` or the data-class module.  ``config_hash`` uses
the interpreter's built-in SHA-256, not ``hashlib``, and ``cnot-tomo``
draws its shots from a SplitMix64 stream in plain numpy, so no command
loads ``numpy.random`` or OpenSSL's libcrypto.
"""

from __future__ import annotations

import collections
import contextlib
import gc
import importlib
import json
import math
import os
import sys
import tempfile
from types import SimpleNamespace as Experiment

from . import __version__
from .errors import (ConfigError, DfsqcError, EmptySubspaceError, LayoutError,
                     ValidationError)


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
# most 5 ions: a calibrated cnot-tomo on pairs [[1, 2], [3, 4]] with every
# count at its cap takes 0.6-0.7 s on a 2-core Intel Xeon host with one BLAS
# thread (medians of 5 fresh processes), most of it drawing shots; a scan of
# 10^4 timing fractions takes 0.25 s.
_COUNT = _integers(1, 10 ** 4)  # noise_samples, shots, timing_fractions' length
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
        lambda v: type(v) is list and _COUNT.test(len(v))
        and all(_real(f) and -0.5 < f < 0.5 for f in v),
        "a list of 1 to 10000 numbers in (-0.5, 0.5)",
        (0.0, 0.01, 0.02, 0.05, 0.1, 0.2)),
}
#: Fields every experiment reads besides ``experiment``, a key of ``EXPERIMENTS``.
COMMON_FIELDS = {
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
    """Check the config against ``COMMON_FIELDS`` and its row of ``EXPERIMENTS``
    and build the run's inputs, creating nothing, so that no run starts that
    cannot finish: each top-level field's value or default and ``config_hash``;
    for a row with a circuit also the built ``noise`` (``None``: ideal), the
    ``ideal`` unitary of the circuit, the ``register`` shifted to its light
    cone (its pairs and the ion below them) and its pulse list ``sequence``."""
    experiment = config.get("experiment") if type(config) is dict else None
    row = EXPERIMENTS.get(experiment) if type(experiment) is str else None
    table = {"experiment": FieldSpec(lambda v: type(v) is str and v in EXPERIMENTS,
                                     "one of " + ", ".join(EXPERIMENTS), _REQUIRED),
             **COMMON_FIELDS, **(row.fields if row else {})}
    _check_fields(config, table, "", experiment)
    run = {name: getattr(spec, "default", None) for name, spec in table.items()}
    run.update(config, config_hash=config_hash(config))
    if row.circuit is not None:
        from .encoding import LogicalRegister
        from .gates import circuit_unitary, compile_circuit
        from .noise import NoiseModel
        with _field("register"):
            register = (LogicalRegister.from_json(config["register"])
                        if "register" in config else LogicalRegister(2))
            if register.n_logical != 2:
                raise LayoutError(f"{experiment} needs 2 logical qubits, "
                                  f"got {register.n_logical}")
        with _field("noise"):
            run["noise"] = (NoiseModel.from_json(config["noise"])
                            if "noise" in config else None)
        circuit = row.circuit(run["control"], run["target"])
        with _field("control/target"):
            run["ideal"] = circuit_unitary(circuit)
        # only to name the config's own ions in a layout error, e.g. center ions (6, 8)
        with _field("register"):  # roles {0, 1} are valid, so the layout is at fault
            compile_circuit(circuit, register)
        # Run on the light cone, the pairs and the ion below them that crosstalk
        # reaches: the ions below stay |0> and none lies above, so dropping them
        # changes no figure; no register.dim is read first, so ion 10^18 is cheap.
        shift = max(0, min(min(pair) for pair in register.pairs) - 1)
        run["register"] = LogicalRegister(2, tuple(
            (a - shift, b - shift) for a, b in register.pairs))
        run["sequence"] = compile_circuit(circuit, run["register"])
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
    """SHA-256 of the config's canonical JSON, from the interpreter's own
    SHA-256 module where it has one, as ``random`` does for SHA-512:
    ``hashlib`` loads OpenSSL's libcrypto, some 3.7 MB and 3 ms."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    for name in ("_sha2", "_sha256"):  # Python 3.12+, 3.10-3.11
        try:
            sha256 = importlib.import_module(name).sha256
            break
        except ImportError:
            continue
    else:
        from hashlib import sha256
    return sha256(canonical.encode()).hexdigest()


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
    from .encoding import dfs_report, encode
    from .noise import sample_noisy_channel
    register, ops, ideal = run["register"], run["sequence"], run["ideal"]
    inputs = [format(k, "02b") for k in range(4)]
    psi = np.stack([encode(register, bits) for bits in inputs])
    rhos = sample_noisy_channel(ops, psi[:, :, None] * psi[:, None, :].conj(),
                                run["noise"])
    reports = []
    for k, rho in enumerate(rhos):  # input k's ideal is column k of the unitary
        try:
            perm, fid, overall, rho_l = dfs_report(rho, ideal[:, k], register)
            reports.append((perm, fid, overall, linalg.matrix_to_json(rho_l)))
        except EmptySubspaceError as exc:  # no logical state to judge
            reports.append((exc.permanence, None, None, None))
    perm, fid, overall, logical = map(list, zip(*reports))
    metrics = dict(inputs=inputs, fidelity=fid, permanence=perm, overall=overall)
    return metrics, dict(zip([f"bell_{b}_logical" for b in inputs], logical)), []


def run_cnot_tomo(run: dict, seed: int) -> tuple:
    from . import linalg
    from .encoding import embed_in_dfs
    from .noise import sample_noisy_channel
    from .tomography import (chi_basis_labels, chi_from_unitary, haar_report,
                             process_fidelity, process_tomography,
                             project_chi_cp)
    register, shots = run["register"], run["shots"]

    def channel(rho_l):
        return sample_noisy_channel(run["sequence"],
                                    embed_in_dfs(rho_l, register), run["noise"])

    chi, permanences = process_tomography(channel, register, shots=shots,
                                          seed=seed)
    chi_ideal = chi_from_unitary(run["ideal"])
    chi_cp, negative_mass = project_chi_cp(chi)
    report = haar_report(chi, chi_ideal)
    gap = abs(report["mean_overall"]
              - report["mean_permanence"] * report["mean_gate_fidelity"])
    metrics = {
        "shots_per_setting": shots,
        "process_fidelity": process_fidelity(chi, chi_ideal),
        "input_permanences": [float(p) for p in permanences],
        "consistency_gap": gap,
        "chi_negative_mass": negative_mass,
        **report,
    }
    matrices = {name: {"basis": chi_basis_labels(),
                       "entries": linalg.matrix_to_json(m)}
                for name, m in (("chi", chi_cp), ("chi_ideal", chi_ideal))}
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


def run_scan(run: dict, seed: int) -> tuple:
    from . import motional
    spin_phase, kind = run["spin_phase"], run["experiment"].removesuffix("-scan")
    rows = motional.off_resonant_error_scan(spin_phase, run["timing_fractions"])
    metrics = {"spin_phase": spin_phase,
               "rows": [{"fraction": f, "infidelity": i} for f, i in rows]}
    return metrics, {}, [(f"{kind}_scan.csv", motional.scan_csv_text(rows))]


#: Each experiment's row, ``Experiment(fields=..., circuit=..., run=...)``: the
#: fields it reads besides ``COMMON_FIELDS`` (what each must be and its default;
#: an object is a nested table of the sub-fields read, and any other field is
#: refused), its gate list on ``(control, target)`` or ``None``, and its run
#: function.  A namespace: a named-tuple class would add 0.1 MB of peak RSS.
EXPERIMENTS = {
    "bell": Experiment(fields=_CNOT_FIELDS, circuit=lambda c, t: [
        ("x", c, math.pi / 2), ("cnot", c, t)], run=run_bell),
    "cnot-tomo": Experiment(fields={
        **_CNOT_FIELDS, "shots": FieldSpec(lambda v: v is None or _COUNT.test(v),
                                           f"null or {_COUNT.what}", 100),
        # n_haar_samples is range-checked but read by nothing: the Haar figures
        # are exact.  perfbench/workloads.request_config still sets it, so
        # refusing it waits for the benchmark to drop the field.
        "n_haar_samples": _integers(1000, 2 ** 20)._replace(default=200_000),
    }, circuit=lambda c, t: [("cnot", c, t)], run=run_cnot_tomo),
    "coherence": Experiment(fields={"phi_std": FieldSpec(
        lambda v: _real(v) and v >= 0, "a number >= 0", math.pi)},
        circuit=None, run=run_coherence),
    "ms-scan": Experiment(fields=_SCAN_FIELDS, circuit=None, run=run_scan),
    "cp-scan": Experiment(fields=_SCAN_FIELDS, circuit=None, run=run_scan),
}


def run_experiment(run: dict, seed: int) -> tuple:
    return EXPERIMENTS[run["experiment"]].run(run, seed)


def cmd_run(config: str, seed: int | None = None) -> int:
    run = load_config(config)
    if seed is not None and seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {seed}")
    seed = seed if seed is not None else run["seed"]
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
    _print(f"wrote {os.path.join(out_dir, 'report.json')}")
    return 0


def cmd_dump_sequence(control: int = 0, target: int = 1) -> int:
    from .encoding import LogicalRegister
    from .gates import compile_circuit
    register = LogicalRegister(2)
    with _field("--control/--target"):
        ops = compile_circuit([("cnot", control, target)], register)
    doc = {"register": register.to_json(), "ops": [op.to_json() for op in ops],
           "total_duration_us": float(sum(op.duration for op in ops)) * 1e6}
    _print(json.dumps(doc, indent=2))
    return 0


def cmd_validate(config: str) -> int:
    load_config(config)
    _print("config ok")
    return 0


#: Each command's function, its positional arguments and its integer
#: options, all passed by name: an option left out takes its default there.
COMMANDS = {
    "run": (cmd_run, ("config",), ("--seed",)),
    "dump-sequence": (cmd_dump_sequence, (), ("--control", "--target")),
    "validate": (cmd_validate, ("config",), ()),
}

USAGE = """\
usage: dfsqc run <config.json> [--seed N]
       dfsqc dump-sequence [--control N --target M]
       dfsqc validate <config.json>
       dfsqc -h | --help | --version

Simulate and characterize encoded trapped-ion gates: run an experiment
config (--seed N overrides its seed), print the compiled CNOT pulse
sequence, or check a config.  Scan experiments emit CSV files with
columns (fraction, infidelity); bell and cnot-tomo write matrices.json
with row-major [re, im] matrix entries."""


def parse_args(argv: list) -> tuple:
    """The function of the command ``argv`` names in ``COMMANDS`` and the
    keyword arguments to call it with.  A usage error (no command, an
    unknown command or option, a missing or extra argument, a missing or
    non-integer option value) raises :class:`ConfigError` naming the
    option or argument at fault."""
    words, positional, options = list(argv), [], {}
    while words:
        word = words.pop(0)
        if word.startswith("-"):
            name, given, value = word.partition("=")
            if not positional or name not in COMMANDS[positional[0]][2]:
                raise ConfigError(f"{name}: not an option of "
                                  f"{positional[0] if positional else 'dfsqc'}")
            if not (given or words):
                raise ConfigError(f"{name}: needs an integer value")
            value = value if given else words.pop(0)
            try:
                options[name[2:]] = int(value)
            except ValueError:
                raise ConfigError(f"{name}: must be an integer, "
                                  f"got {_shown(repr(value))}") from None
        elif positional or word in COMMANDS:
            positional.append(word)
        else:
            raise ConfigError(f"{word}: unknown command, expected one of "
                              + ", ".join(COMMANDS))
    if not positional:
        raise ConfigError("no command given, expected one of " + ", ".join(COMMANDS))
    command, args = positional[0], positional[1:]
    fn, names, _ = COMMANDS[command]
    if len(args) > len(names):
        raise ConfigError(f"{args[len(names)]}: unexpected argument to {command}")
    if len(args) < len(names):
        raise ConfigError(f"{command}: missing the {names[len(args)]} argument")
    return fn, {**dict(zip(names, args)), **options}


def _print(text: str) -> None:
    """Print a line on stdout and flush it, so that a stdout that cannot
    take it (a full device, a closed pipe) raises :class:`DfsqcError` inside
    :func:`main`.  Stdout then points at ``os.devnull``, so that a later
    write (an ``atexit`` hook's, say) raises no second error.  A closed
    stdout (``None``) takes nothing and raises nothing."""
    try:
        print(text, flush=True)
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        with contextlib.suppress(OSError, ValueError):  # no file descriptor
            os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise DfsqcError(f"stdout: {exc}") from exc


def main(argv=None) -> int:
    """Run the command ``argv`` (default ``sys.argv[1:]``) and return its
    exit code: 0 done, 2 a usage error or an invalid config, 1 any other
    refusal, such as a stdout that cannot be written."""
    argv = sys.argv[1:] if argv is None else argv
    asked = [word for word in argv if word in ("-h", "--help", "--version")]
    try:
        if asked:  # answered wherever it stands, the first one asked
            _print(f"dfsqc {__version__}" if asked[0] == "--version" else USAGE)
            return 0
        fn, kwargs = parse_args(argv)
        return fn(**kwargs)
    except DfsqcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


def entry() -> None:
    """Run :func:`main` and exit with its code, freezing every object still
    tracked first: teardown's garbage collections then visit none of them
    (about 13 ms of a ``bell`` request), and it still flushes stdio and runs
    the ``atexit`` callbacks.  In-process callers of :func:`main` never
    freeze."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
