"""Workload inputs and output checks of the dfsqc benchmark.

Each workload turns a request's seed and index into the config of one
``dfsqc run`` request, which runs in a fresh process.  The runner gives
request ``i`` the seed ``base + i``, so no two requests in a run share a
report.  After a request exits, :func:`check_request` reads its outputs from disk
and returns the list of problems found; an empty list means it passed.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

#: ``CALIBRATED_NOISE`` of ``dfsqc.noise``, spelled out so the inputs do
#: not change if the package's constant does.  ``noise.seed`` is left
#: out: the run seed overrides it.
NOISE = {
    "addressing_ratio": 0.05,
    "intensity_imbalance": 0.08,
    "ac_stark_phase_jitter_std": 0.3,
    "collective_phase_std": 0.3,
}

#: 41 timing errors from -0.4 to 0.4 in steps of 0.02, exactly 0.0 in the middle.
SCAN_FRACTIONS = [k / 50 for k in range(-20, 21)]

#: Acceptance band of the calibrated Bell fidelities (README, acceptance tests).
BELL_BAND = (0.85, 0.95)
#: Largest |mean overall - mean permanence * mean gate fidelity| of a
#: shot-based tomography run (README, acceptance tests).
MAX_CONSISTENCY_GAP = 0.02
#: Loop closure: infidelity of the scan row at timing error 0.
MAX_CLOSURE_INFIDELITY = 1e-6

WORKLOADS = ("tomo", "bell", "scan")


def request_config(workload: str, seed: int, index: int, out_dir: str) -> dict:
    """Config of request ``index`` of a run; pure function of its arguments."""
    if workload == "tomo":
        return {"experiment": "cnot-tomo", "seed": seed, "output_dir": out_dir,
                "noise": dict(NOISE), "noise_samples": 300, "shots": 100,
                "n_haar_samples": 200_000}
    if workload == "bell":
        return {"experiment": "bell", "seed": seed, "output_dir": out_dir,
                "noise": dict(NOISE), "noise_samples": 300}
    if workload == "scan":
        kind = "ms-scan" if index % 2 == 0 else "cp-scan"
        return {"experiment": kind, "seed": seed, "output_dir": out_dir,
                "timing_fractions": list(SCAN_FRACTIONS)}
    raise ValueError(f"unknown workload {workload!r}")


def request_argv(config_path: str) -> list:
    """Command of one untraced request, run from the checkout root."""
    return [sys.executable, "-m", "dfsqc.cli", "run", config_path]


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in JSON")


def load_strict_json(path: Path):
    """Parse a JSON file, refusing ``NaN`` and ``Infinity``."""
    return json.loads(Path(path).read_text(), parse_constant=_reject_constant)


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _check_bell(metrics: dict, config: dict, out_dir: Path) -> list:
    fids = metrics.get("fidelity")
    if not isinstance(fids, list) or len(fids) != 4:
        return [f"expected 4 Bell fidelities, got {fids!r}"]
    lo, hi = BELL_BAND
    return [f"Bell fidelity {f!r} outside [{lo}, {hi}]"
            for f in fids if not (_is_real(f) and lo <= f <= hi)]


def _check_tomo(metrics: dict, config: dict, out_dir: Path) -> list:
    problems = []
    for key in ("process_fidelity", "mean_gate_fidelity", "mean_permanence",
                "mean_overall"):
        x = metrics.get(key)
        if not (_is_real(x) and 0.0 <= x <= 1.0):
            problems.append(f"{key} = {x!r} is not a number in [0, 1]")
    gap = metrics.get("consistency_gap")
    if not (_is_real(gap) and gap <= MAX_CONSISTENCY_GAP):
        problems.append(f"consistency_gap = {gap!r} exceeds {MAX_CONSISTENCY_GAP}")
    return problems


def _check_scan(metrics: dict, config: dict, out_dir: Path) -> list:
    fractions = config["timing_fractions"]
    rows = metrics.get("rows")
    if not isinstance(rows, list) or len(rows) != len(fractions):
        return [f"expected {len(fractions)} scan rows, got "
                f"{len(rows) if isinstance(rows, list) else rows!r}"]
    problems = []
    for want, row in zip(fractions, rows):
        if not isinstance(row, dict):
            problems.append(f"scan row {row!r} is not an object")
            continue
        f, infid = row.get("fraction"), row.get("infidelity")
        if f != want:
            problems.append(f"scan row for fraction {want} reads {f!r}")
        elif not (_is_real(infid) and infid >= 0.0):
            problems.append(f"infidelity {infid!r} at fraction {f} is not finite and >= 0")
        elif f == 0.0 and infid >= MAX_CLOSURE_INFIDELITY:
            problems.append(f"loop closure: infidelity {infid!r} at fraction 0")
    csv_path = out_dir / f"{config['experiment'].split('-')[0]}_scan.csv"
    try:
        with open(csv_path, newline="") as fh:
            n_rows = sum(1 for _ in csv.reader(fh)) - 1
    except OSError as exc:
        return problems + [f"scan CSV unreadable: {exc}"]
    if n_rows != len(fractions):
        problems.append(f"{csv_path.name} has {n_rows} rows, expected {len(fractions)}")
    return problems


_CHECKS = {"tomo": _check_tomo, "bell": _check_bell, "scan": _check_scan}


def check_request(workload: str, config: dict, exit_code: int) -> list:
    """Problems with one finished request; an empty list means it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    out_dir = Path(config["output_dir"])
    try:
        report = load_strict_json(out_dir / "report.json")
    except (OSError, ValueError) as exc:
        return [f"report.json unreadable: {exc}"]
    if not isinstance(report, dict) or not isinstance(report.get("metrics"), dict):
        return ["report.json has no metrics object"]
    if report.get("seed") != config["seed"]:
        return [f"report seed {report.get('seed')!r} != request seed {config['seed']}"]
    return _CHECKS[workload](report["metrics"], config, out_dir)
