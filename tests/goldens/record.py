"""Golden corpus of ``dfsqc`` commands: what each one prints and writes.

Usage: ``PYTHONPATH=src python tests/goldens/record.py`` writes
``corpus.json`` next to this file again and prints each entry whose
record changed, with its largest figure change.  Do that only when a
change means to move outputs, and list those entries with the change.

Each entry is one command line, run in process through ``cli.main`` in
a directory of its own, with its config (if any) written there as
``config.json`` and every ``output_dir`` the same relative ``out``,
since ``config_hash`` covers it.  :func:`record` keeps the exit code,
stderr, the SHA-256 of stdout and of each file written, and the figures:
every number of the report's metrics, or of a JSON stdout, and of
``matrices.json``.  The SHA-256s hold only for the numpy, BLAS, machine
and CPU stored with them (:func:`platform_key`); ``tests/test_goldens.py``
checks everything else on every host.  ``corpus.json`` keeps one figure
a line, so that its diff shows each figure that moved.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import re
import sys
import tempfile
from hashlib import sha256
from pathlib import Path

import numpy as np

from dfsqc import cli
from dfsqc.noise import CALIBRATED_NOISE

CORPUS = Path(__file__).resolve().with_name("corpus.json")
OUT = "out"


def _entry(name: str, argv: list, config: dict | None = None) -> dict:
    return {"name": name, "argv": argv, "config": config}


def _run(name: str, experiment: str, *options: str, **fields) -> dict:
    config = {"experiment": experiment, "seed": 7, "output_dir": OUT, **fields}
    return _entry(name, ["run", "config.json", *options], config)


def _entries() -> list:
    entries = [_run(experiment, experiment) for experiment in cli.EXPERIMENTS]
    noises = {"ideal": {}, "calibrated": {"noise": CALIBRATED_NOISE._asdict()}}
    shifted = {"register": {"n_logical": 2, "pairs": [[1, 2], [3, 4]]}}
    for experiment in ("bell", "cnot-tomo"):
        for noise, noise_fields in noises.items():
            for seed in (7, 8, 9):
                for control, target in ((0, 1), (1, 0)):
                    for where, register in (("", {}), (" shifted", shifted)):
                        entries.append(_run(
                            f"{experiment} {noise} seed {seed} "
                            f"roles {control}{target}{where}", experiment,
                            seed=seed, control=control, target=target,
                            **noise_fields, **register))
    calibrated = noises["calibrated"]
    for experiment, where, pairs in (("bell", "far", [[10, 11], [12, 13]]),
                                     ("bell", "reversed", [[3, 2], [1, 0]]),
                                     ("cnot-tomo", "reversed", [[3, 2], [1, 0]])):
        for seed in (7, 8, 9):
            for control, target in ((0, 1), (1, 0)):
                # seed 7 in roles 01 keeps the name and config it was first
                # recorded with
                roles = ({} if (seed, control) == (7, 0) else
                         {"seed": seed, "control": control, "target": target})
                suffix = f" seed {seed} roles {control}{target}" if roles else ""
                entries.append(_run(
                    f"{experiment} calibrated {where} pairs{suffix}", experiment,
                    **calibrated, **roles, register={"n_logical": 2, "pairs": pairs}))
    bell = {"experiment": "bell", "seed": 7, "output_dir": OUT}
    entries += [
        _run("cnot-tomo shots null", "cnot-tomo", shots=None, **calibrated),
        _run("cnot-tomo shots 100", "cnot-tomo", shots=100, **calibrated),
        _run("cnot-tomo --seed 9 over seed 7", "cnot-tomo", "--seed", "9",
             **calibrated),
        _run("coherence phi_std 0.5", "coherence", phi_std=0.5),
        _run("ms-scan fractions", "ms-scan", timing_fractions=[-0.3, 0.0, 0.25]),
        _run("cp-scan spin_phase", "cp-scan", spin_phase=0.5,
             timing_fractions=[0.1]),
        _entry("dump-sequence", ["dump-sequence"]),
        _entry("dump-sequence roles 10",
               ["dump-sequence", "--control", "1", "--target", "0"]),
        _entry("validate bell", ["validate", "config.json"], bell),
        # refusals
        _run("unread field", "bell", typo_field=3),
        _run("unread nested field", "bell", noise={"typo": 1}),
        _run("field of another experiment", "coherence", phi_std=0.5, shots=3),
        _run("wrong type", "bell", seed="7"),
        _run("unknown experiment", "nope"),
        _run("experiment not a string", ["bell"]),
        _run("shots out of range", "cnot-tomo", shots=0),
        _run("layout overlapping pairs", "bell",
             register={"n_logical": 2, "pairs": [[1, 2], [2, 3]]}),
        _run("layout three qubits", "cnot-tomo",
             register={"n_logical": 3, "pairs": [[0, 1], [2, 3], [4, 5]]}),
        _run("layout reversed pairs", "bell",
             register={"n_logical": 2, "pairs": [[2, 3], [0, 1]]}),
        _run("control equals target", "bell", control=1, target=1),
        _run("noise out of range", "bell", noise={"intensity_imbalance": -3}),
        _run("negative --seed", "bell", "--seed", "-1"),
        _entry("usage unknown command", ["frobnicate"]),
        _entry("usage missing argument", ["run"]),
        _entry("usage unknown option",
               ["validate", "config.json", "--seed", "1"], bell),
        _entry("dump-sequence bad pair",
               ["dump-sequence", "--control", "0", "--target", "0"]),
    ]
    return entries


def _figures(obj, path: str = "") -> list:
    """``[path, number]`` for every number in a JSON value, in order."""
    if isinstance(obj, dict):
        return [f for key in obj for f in _figures(obj[key], f"{path}.{key}")]
    if isinstance(obj, list):
        return [f for k, item in enumerate(obj) for f in _figures(item, f"{path}[{k}]")]
    if type(obj) in (int, float):
        return [[path, obj]]
    return []


def record(entry: dict, workdir: str) -> dict:
    """Run ``entry`` in ``workdir``, which must be empty, and return what
    the corpus keeps of it."""
    here = os.getcwd()
    stdout, stderr = io.StringIO(), io.StringIO()
    os.chdir(workdir)
    try:
        if entry["config"] is not None:
            Path("config.json").write_text(json.dumps(entry["config"]))
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(list(entry["argv"]))
        files = {str(p.relative_to(OUT)): sha256(p.read_bytes()).hexdigest()
                 for p in sorted(Path(OUT).rglob("*")) if p.is_file()}
        if (Path(OUT) / "report.json").exists():
            figures = _figures(json.loads((Path(OUT) / "report.json").read_text())[
                "metrics"])
        elif code == 0 and stdout.getvalue().startswith("{"):
            figures = _figures(json.loads(stdout.getvalue()))
        else:
            figures = []
        if (Path(OUT) / "matrices.json").exists():
            figures += _figures(json.loads((Path(OUT) / "matrices.json").read_text()),
                                "matrices.json")
    finally:
        os.chdir(here)
    return {**entry, "exit": code, "stderr": stderr.getvalue(),
            "stdout_sha256": sha256(stdout.getvalue().encode()).hexdigest(),
            "files": files, "figures": figures}


def platform_key() -> dict:
    """What the SHA-256s of a corpus hold for: the last bits of a float can
    move with numpy, its BLAS build and the vector units its kernels use."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 has no mode
        blas = "unknown"
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        info = Path("/proc/cpuinfo").read_text().splitlines()
        model = next((line for line in info if line.startswith("model name")), "")
        flags = next((line for line in info if line.startswith("flags")), "").split()
        cpu = " ".join([model.partition(":")[2].strip()] + [
            f for f in ("avx", "avx2", "fma", "avx512f") if f in flags])
    return {"numpy": np.__version__, "blas": blas, "machine": platform.machine(),
            "cpu": cpu}


def _change(was: dict | None, now: dict) -> str:
    """What moved between two records of one entry, ``""`` if nothing.
    A figure only added is no change: it reads an output the record
    already held by its SHA-256."""
    if was is None:
        return "new entry"
    after = dict(now["figures"])
    moved = [abs(after[path] - v) for path, v in was["figures"]
             if path in after and after[path] != v]
    gone = [path for path, _ in was["figures"] if path not in after]
    parts = [f"{key} changed" for key in now
             if key != "figures" and now[key] != was.get(key)]
    if moved:
        parts.append(f"{len(moved)} figures moved, the largest by {max(moved):.3g}")
    if gone:
        parts.append(f"{len(gone)} figures gone")
    return "; ".join(parts)


def main() -> int:
    was = ({e["name"]: e for e in json.loads(CORPUS.read_text())["entries"]}
           if CORPUS.exists() else {})
    results = []
    for entry in _entries():
        with tempfile.TemporaryDirectory() as workdir:
            results.append(record(entry, workdir))
    names = {r["name"] for r in results}
    for name in was:
        if name not in names:
            print(f"{name}: entry removed")
    for result in results:
        change = _change(was.get(result["name"]), result)
        if change:
            print(f"{result['name']}: {change}")
    # one [path, number] figure a line
    text = re.sub(r'\[\n\s+("[^"]*"),\n\s+(\S+)\n\s+\]', r"[\1, \2]",
                  json.dumps({**platform_key(), "entries": results}, indent=1))
    CORPUS.write_text(text + "\n")
    print(f"wrote {len(results)} entries to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
