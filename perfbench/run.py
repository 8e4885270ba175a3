"""Benchmark of the dfsqc command line, one fresh process per request.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tomo --seed 1 --seconds 20 --trace 0

Load shape: a closed loop with one client, one request in flight.  Every
request is a fresh ``python -m dfsqc.cli run <config>`` process, so each
one pays interpreter start, imports and any lazily filled cache, as a
command-line user does.  Children run with BLAS pinned to one thread and without
``DFSQC_THREADS``; no ``--threads`` flag is passed.

``--trace 0`` times requests for ``--seconds`` and prints the end-to-end
metrics.  ``--trace 1`` spends half the time on untraced requests and half
on requests run under ``perfbench/tracer.py``, and prints the per-layer
metrics.  Every request's outputs are checked (see ``workloads.py``), and
the first passing untraced request is repeated and its ``report.json``
compared byte for byte.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give each metric with its unit and
sample count, then the provenance of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
PERFBENCH = ROOT / "perfbench"

#: Fresh import-only processes per run; ``setup_s`` is their median.
SETUP_SAMPLES = 7
MIN_TIMED = 3
MIN_TRACED = 2
#: Hard limit on one run, so that it ends within 180 s even if a request hangs.
RUN_LIMIT_S = 160.0
SEED_STRIDE = 100_000

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

#: Per-layer metrics besides the per-layer ``<layer>.self_s`` totals: the
#: functions named here, with the fields reported for each.  ``request``
#: is the span around the whole traced request.
TRACED_FIELDS = {
    "cli.load_config": ("self_s",),
    "gates.compile_cnot": ("self_s",),
    "noise.channel_superoperator": ("self_s",),
    "noise.sample_noisy_channel": ("self_s",),
    "noise.noisy_op_unitary": ("calls", "self_s"),
    "linalg.tensor": ("calls", "self_s"),
    "linalg.expm_hermitian": ("calls", "self_s"),
    "tomography.linear_inversion": ("calls", "self_s"),
    "tomography.acquire_dataset": ("self_s",),
    "tomography.project_to_physical": ("self_s",),
    "tomography.chi_linear_solve": ("self_s",),
    "tomography.process_tomography": ("self_s",),
    "tomography.haar_report": ("self_s", "peak_mb"),
    "encoding.decode_in_dfs": ("self_s",),
    "motional.propagate": ("calls", "self_s"),
    "request": ("peak_mb",),
}
FIELD_UNITS = {"calls": "count", "self_s": "s", "peak_mb": "MB"}


def per_layer_units() -> dict:
    units = {f"{layer}.self_s": "s" for layer in tracer.LAYERS}
    for name, fields in TRACED_FIELDS.items():
        for f in fields:
            units[f"{name}.{f}"] = FIELD_UNITS[f]
    units["trace.overhead_s"] = "s"
    return units


@dataclass
class Exit:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Request:
    index: int
    config: dict
    argv: list
    exit: Exit = None
    problems: list = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DFSQC_THREADS", None)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def launch(argv: list, log_path: Path, timeout_s: float) -> Exit:
    """Run one child to completion: wall time from launch to exit, and
    its CPU time and peak RSS from ``wait4``."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(max(timeout_s, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss * 1024 / 1e6)


class Run:
    """One benchmark run: its work directory, deadline and requests."""

    def __init__(self, workload: str, seed: int, run_dir: Path):
        self.workload = workload
        self.base_seed = seed * SEED_STRIDE
        self.dir = run_dir
        self.hard_deadline = time.perf_counter() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0

    def _remaining(self) -> float:
        return self.hard_deadline - time.perf_counter()

    def prepare(self, index: int, mode: str = "plain") -> Request:
        """Write the config of request ``index``.  ``mode`` is ``plain``
        (untraced), ``spans`` (traced) or ``memory`` (traced under
        tracemalloc)."""
        out_dir = self.dir / f"req{index}"
        config = workloads.request_config(self.workload, self.base_seed + index,
                                          index, str(out_dir))
        config_path = self.dir / f"req{index}.json"
        config_path.write_text(json.dumps(config))
        if mode == "plain":
            argv = workloads.request_argv(str(config_path))
        else:
            argv = [sys.executable, str(PERFBENCH / "tracer.py"),
                    *(["--memory"] if mode == "memory" else []),
                    str(config_path), str(self.trace_path(index))]
        return Request(index, config, argv)

    def trace_path(self, index: int) -> Path:
        return self.dir / f"req{index}.trace.json"

    def execute(self, req: Request, same_as: bytes = None) -> Request:
        """Run and check one request; with ``same_as``, its report.json
        must also equal those bytes."""
        log = self.dir / f"req{req.index}.log"
        req.exit = launch(req.argv, log, self._remaining())
        req.problems = workloads.check_request(self.workload, req.config,
                                               req.exit.code)
        report = Path(req.config["output_dir"]) / "report.json"
        if same_as is not None and not req.problems and report.read_bytes() != same_as:
            req.problems.append("report.json differs from the first run of "
                                "the same config and seed")
        self.attempted += 1
        if req.problems:
            self.failed += 1
            print(f"request {req.index} (seed {req.config['seed']}) failed: "
                  f"{'; '.join(req.problems)}\n"
                  f"{log.read_text(errors='replace')[-2000:]}", file=sys.stderr)
        return req

    def loop(self, first_index: int, seconds: float, min_count: int,
             mode: str = "plain") -> list:
        """Closed loop: the next request starts when the last has exited."""
        done = []
        end = time.perf_counter() + seconds
        while ((len(done) < min_count or time.perf_counter() < end)
               and self._remaining() > 0):
            done.append(self.execute(self.prepare(first_index + len(done), mode)))
        return done

    def repeat_identical(self, req: Request) -> Request:
        """Run ``req`` again with the same config and seed; its report.json
        must come out byte-identical."""
        before = (Path(req.config["output_dir"]) / "report.json").read_bytes()
        return self.execute(Request(req.index, req.config, req.argv), same_as=before)

    def setup_times(self) -> list:
        times = []
        for k in range(SETUP_SAMPLES):
            ex = launch([sys.executable, "-c", "import dfsqc.cli"],
                        self.dir / f"setup{k}.log", self._remaining())
            if ex.code != 0:
                raise RuntimeError(f"importing dfsqc.cli failed with exit code {ex.code}")
            times.append(ex.wall_s)
        return times


PROBE = r"""
import json, os, platform
import numpy
import dfsqc, dfsqc.cli
try:
    import scipy
    scipy_version = scipy.__version__
except ImportError:
    scipy_version = None
blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
print(json.dumps({
    "dfsqc_file": os.path.realpath(dfsqc.__file__),
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy_version,
    "blas": {"name": blas.get("name"), "version": blas.get("version")},
}))
"""


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        return f"unknown ({ref})"


def provenance(run: Run) -> dict:
    """Host, versions and BLAS settings, from a child with the request
    environment.  Also the untimed warm-up that writes bytecode caches."""
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import dfsqc from {SRC}:\n{proc.stderr}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(info["dfsqc_file"]).is_relative_to(SRC.resolve()):
        raise RuntimeError(f"dfsqc was imported from {info['dfsqc_file']}, not {SRC}")
    env = child_env()
    info.update({
        "host": platform.node(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "workload": run.workload,
        "base_seed": run.base_seed,
    })
    return info


def end_to_end(run: Run, seconds: float, prov: dict) -> tuple:
    setup = run.setup_times()
    timed = run.loop(0, seconds, MIN_TIMED)
    ok = [r for r in timed if not r.problems]
    repeat = [run.repeat_identical(ok[0])] if ok else []
    # If every request failed, time them all; the result reads incorrect.
    sample = ok or timed
    values = {
        "run_s": statistics.median([r.exit.wall_s for r in sample]),
        "cpu_s": statistics.median([r.exit.cpu_s for r in sample]),
        "peak_rss_mb": max(r.exit.rss_mb for r in timed + repeat),
        "setup_s": statistics.median(setup),
    }
    notes = {"run_s": f"median of {len(sample)} requests, max "
                      f"{max(r.exit.wall_s for r in sample):.4f}",
             "cpu_s": f"median of {len(sample)} requests",
             "peak_rss_mb": f"largest of {len(timed) + len(repeat)} requests",
             "setup_s": f"median of {len(setup)} imports"}
    prov["requests"] = {"timed": len(timed), "byte_identity_repeat": len(repeat)}
    return values, END_TO_END, notes


def layer_metrics(timed: list, peaks: dict) -> dict:
    """Per-layer values from the span summaries of traced requests
    (``timed``) and of the one request under tracemalloc (``peaks``).
    A function that was never called, or no longer exists, reads 0."""
    values = {}
    for layer in tracer.LAYERS:
        values[f"{layer}.self_s"] = statistics.median([
            sum((st["self_s"] for name, st in layers.items()
                 if name.startswith(layer + ".")), 0.0) for layers in timed])
    empty = {"calls": 0, "self_s": 0.0, "peak_mb": 0.0}
    for name, fields in TRACED_FIELDS.items():
        if "calls" in fields:
            values[f"{name}.calls"] = timed[0].get(name, empty)["calls"]
        if "self_s" in fields:
            values[f"{name}.self_s"] = statistics.median(
                [layers.get(name, empty)["self_s"] for layers in timed])
        if "peak_mb" in fields:
            values[f"{name}.peak_mb"] = peaks.get(name, empty)["peak_mb"]
    return values


def per_layer(run: Run, seconds: float, prov: dict) -> tuple:
    """Untraced requests, then traced ones for self times and counts, then
    one request under tracemalloc for the memory peaks."""
    plain = run.loop(0, seconds / 2, MIN_TIMED)
    spans = run.loop(len(plain), seconds / 2, MIN_TRACED, mode="spans")
    memory = run.execute(run.prepare(len(plain) + len(spans), mode="memory"))
    plain_ok = [r for r in plain if not r.problems]
    repeat = [run.repeat_identical(plain_ok[0])] if plain_ok else []
    # Failed requests still count when every one failed, as in end_to_end;
    # a traced request counts if it left its span summary.
    plain_ok = plain_ok or plain
    spans_ok = [r for r in spans if run.trace_path(r.index).exists()]
    if not spans_ok or not run.trace_path(memory.index).exists():
        raise RuntimeError("no traced request wrote its span summary")
    summaries = [workloads.load_strict_json(run.trace_path(r.index))
                 for r in spans_ok + [memory]]
    values = layer_metrics([s["layers"] for s in summaries[:-1]],
                           summaries[-1]["layers"])
    values["trace.overhead_s"] = (statistics.median([r.exit.wall_s for r in spans_ok])
                                  - statistics.median([r.exit.wall_s for r in plain_ok]))
    counts = [{name: st["calls"] for name, st in s["layers"].items()}
              for s in summaries]
    wrapped = set(summaries[0]["wrapped"])
    prov["requests"] = {"untraced": len(plain), "traced": len(spans),
                        "memory_traced": 1, "byte_identity_repeat": len(repeat)}
    prov["calls_repeat_exactly"] = all(c == counts[0] for c in counts)
    prov["absent"] = sorted(n for n in TRACED_FIELDS
                            if n != "request" and n not in wrapped)
    prov["spans_per_request"] = summaries[0]["spans"]
    units = per_layer_units()
    notes = {name: f"median of {len(spans_ok)} traced requests"
             for name in units if name.endswith(".self_s")}
    notes.update({name: "one request under tracemalloc"
                  for name in units if name.endswith(".peak_mb")})
    notes["trace.overhead_s"] = (f"median of {len(spans_ok)} traced minus "
                                 f"median of {len(plain_ok)} untraced requests")
    return values, units, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "dfsqc" / "cli.py").is_file():
        print(f"error: no dfsqc sources at {SRC}; run from the root of a "
              "dfsqc checkout", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an interrupt, so the running child is killed and
    # reaped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    WORK.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed, Path(tempfile.mkdtemp(
        prefix=f"{args.workload}-", dir=WORK)))
    try:
        prov = provenance(run)
        measure = per_layer if args.trace else end_to_end
        values, units, notes = measure(run, args.seconds, prov)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    for name, unit in units.items():
        print(f"{name:<36} {values[name]:>14.6g} {unit:<6} {notes.get(name, '')}")
    print(f"{'fail_frac':<36} {run.failed / run.attempted:>14.6g} {'ratio':<6} "
          f"{run.failed} of {run.attempted} requests failed")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
