"""Tests of the benchmark's own code: output checks, span accounting and
the metric names it prints.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _write_request(tmp_path, workload, metrics, seed=7, index=0, raw=None):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    config = workloads.request_config(workload, seed, index, str(out_dir))
    text = raw if raw is not None else json.dumps({"seed": seed, "metrics": metrics})
    (out_dir / "report.json").write_text(text)
    return config, out_dir


def _good_bell():
    return {"fidelity": [0.89, 0.9, 0.91, 0.92]}


def _good_tomo():
    return {"process_fidelity": 0.8, "mean_gate_fidelity": 0.85,
            "mean_permanence": 0.9, "mean_overall": 0.77,
            "consistency_gap": 0.001}


def _good_scan_rows():
    return [{"fraction": f, "infidelity": 0.0 if f == 0.0 else 1e-3}
            for f in workloads.SCAN_FRACTIONS]


def _write_scan_csv(out_dir, n_rows):
    lines = ["fraction,infidelity"] + [f"{f!r},0.001" for f in
                                       workloads.SCAN_FRACTIONS[:n_rows]]
    (out_dir / "ms_scan.csv").write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload, metrics", [
    ("bell", _good_bell()), ("tomo", _good_tomo())])
def test_good_reports_pass(tmp_path, workload, metrics):
    config, _ = _write_request(tmp_path, workload, metrics)
    assert workloads.check_request(workload, config, 0) == []


def test_good_scan_passes(tmp_path):
    config, out_dir = _write_request(tmp_path, "scan", {"rows": _good_scan_rows()})
    _write_scan_csv(out_dir, len(workloads.SCAN_FRACTIONS))
    assert workloads.check_request("scan", config, 0) == []


def test_nonzero_exit_fails(tmp_path):
    config, _ = _write_request(tmp_path, "bell", _good_bell())
    assert workloads.check_request("bell", config, 1)


def test_nan_in_report_fails(tmp_path):
    raw = '{"seed": 7, "metrics": {"fidelity": [0.9, NaN, 0.9, 0.9]}}'
    config, _ = _write_request(tmp_path, "bell", None, raw=raw)
    problems = workloads.check_request("bell", config, 0)
    assert problems and "NaN" in problems[0]


def test_infinity_in_report_fails(tmp_path):
    metrics = _good_tomo()
    raw = json.dumps({"seed": 7, "metrics": {**metrics, "mean_overall": math.inf}})
    config, _ = _write_request(tmp_path, "tomo", None, raw=raw)
    assert workloads.check_request("tomo", config, 0)


def test_out_of_band_bell_fidelity_fails(tmp_path):
    config, _ = _write_request(tmp_path, "bell", {"fidelity": [0.89, 0.9, 0.96, 0.92]})
    problems = workloads.check_request("bell", config, 0)
    assert len(problems) == 1 and "0.96" in problems[0]


def test_tomo_consistency_gap_fails(tmp_path):
    config, _ = _write_request(tmp_path, "tomo", {**_good_tomo(), "consistency_gap": 0.05})
    assert workloads.check_request("tomo", config, 0)


def test_missing_scan_row_fails(tmp_path):
    rows = _good_scan_rows()
    del rows[7]
    config, out_dir = _write_request(tmp_path, "scan", {"rows": rows})
    _write_scan_csv(out_dir, len(workloads.SCAN_FRACTIONS))
    assert workloads.check_request("scan", config, 0)


def test_missing_scan_csv_row_fails(tmp_path):
    config, out_dir = _write_request(tmp_path, "scan", {"rows": _good_scan_rows()})
    _write_scan_csv(out_dir, len(workloads.SCAN_FRACTIONS) - 1)
    assert workloads.check_request("scan", config, 0)


def test_open_scan_loop_fails(tmp_path):
    rows = _good_scan_rows()
    rows[20]["infidelity"] = 1e-5
    config, out_dir = _write_request(tmp_path, "scan", {"rows": rows})
    _write_scan_csv(out_dir, len(workloads.SCAN_FRACTIONS))
    problems = workloads.check_request("scan", config, 0)
    assert len(problems) == 1 and "closure" in problems[0]


def test_wrong_seed_fails(tmp_path):
    config, _ = _write_request(tmp_path, "bell", _good_bell())
    config["seed"] += 1
    assert workloads.check_request("bell", config, 0)


def test_requests_get_distinct_seeds_and_same_inputs_for_same_seed():
    a = [workloads.request_config(w, 100 + i, i, "o") for w in workloads.WORKLOADS
         for i in range(3)]
    b = [workloads.request_config(w, 100 + i, i, "o") for w in workloads.WORKLOADS
         for i in range(3)]
    assert a == b
    assert len({(c.get("experiment"), c["seed"]) for c in a}) == len(a)


def test_self_time_excludes_child_spans():
    spans = [tracer.Span(1, 0, "linalg.tensor", 1.0, 1.5, 0),
             tracer.Span(2, 0, "linalg.tensor", 2.0, 2.25, 0),
             tracer.Span(0, -1, "noise.f", 0.0, 3.0, 4_000_000)]
    out = tracer.summarize(spans)
    assert out["linalg.tensor"]["calls"] == 2
    assert out["linalg.tensor"]["self_s"] == pytest.approx(0.75)
    assert out["noise.f"]["self_s"] == pytest.approx(2.25)
    assert out["noise.f"]["peak_mb"] == pytest.approx(4.0)


def test_wrapper_records_nested_spans():
    t = tracer.Tracer()
    inner = t.wrap("m.inner", lambda x: x + 1)
    outer = t.wrap("m.outer", lambda x: inner(x) * 2)
    with t.span("request"):
        assert outer(1) == 4
    by_name = {s.name: s for s in t.spans}
    assert by_name["m.inner"].parent == by_name["m.outer"].id
    assert by_name["m.outer"].parent == by_name["request"].id
    assert by_name["request"].parent == -1


def _benchmark_json():
    return json.loads(BENCHMARK_JSON.read_text())


def test_end_to_end_names_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert declared == run.END_TO_END


def test_per_layer_names_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert declared == run.per_layer_units()


def test_workloads_match_benchmark_json():
    declared = [w["name"] for w in _benchmark_json()["workloads"]]
    assert sorted(declared) == sorted(workloads.WORKLOADS)


def test_tracer_wraps_named_functions_at_every_binding():
    """In a fresh process, since wrapping patches the dfsqc modules."""
    probe = ("import json, sys, tracer\n"
             "names = tracer.install(tracer.Tracer())\n"
             "import dfsqc.cli, dfsqc.noise\n"
             "print(json.dumps({'names': names, 'rebound': "
             "dfsqc.cli.channel_superoperator is dfsqc.noise.channel_superoperator"
             " and hasattr(dfsqc.cli.channel_superoperator, '__wrapped__')}))\n")
    out = subprocess.run([sys.executable, "-c", probe], cwd=run.PERFBENCH,
                         env=run.child_env(), capture_output=True, text=True,
                         timeout=60, check=True)
    result = json.loads(out.stdout)
    assert {n for n in run.TRACED_FIELDS if n != "request"} <= set(result["names"])
    assert result["rebound"]


def test_absent_function_reads_zero_and_layers_sum_self_time():
    timed = [{"linalg.tensor": {"calls": 5, "self_s": 0.5, "peak_mb": 0.0},
              "linalg.dag": {"calls": 1, "self_s": 0.25, "peak_mb": 0.0}},
             {"linalg.tensor": {"calls": 5, "self_s": 0.75, "peak_mb": 0.0},
              "linalg.dag": {"calls": 1, "self_s": 0.25, "peak_mb": 0.0}}]
    peaks = {"request": {"calls": 1, "self_s": 1.0, "peak_mb": 12.5}}
    values = run.layer_metrics(timed, peaks)
    assert values["linalg.tensor.calls"] == 5
    assert values["linalg.tensor.self_s"] == pytest.approx(0.625)
    assert values["linalg.self_s"] == pytest.approx(0.875)
    assert values["noise.noisy_op_unitary.calls"] == 0
    assert values["noise.noisy_op_unitary.self_s"] == 0.0
    assert values["request.peak_mb"] == 12.5
    assert set(values) | {"trace.overhead_s"} == set(run.per_layer_units())


@pytest.mark.parametrize("stamp, fails", [("0", False), ("time.time_ns()", True)])
def test_byte_identity_repeat(tmp_path, stamp, fails):
    """A repeat whose report.json differs from the first run is a failure."""
    bench = run.Run("bell", 1, tmp_path)
    req = bench.prepare(0)
    writer = (
        "import json, os, sys, time\n"
        "c = json.load(open(sys.argv[1]))\n"
        "os.makedirs(c['output_dir'], exist_ok=True)\n"
        "m = {'fidelity': [0.9, 0.9, 0.9, 0.9], 'stamp': %s}\n"
        "json.dump({'seed': c['seed'], 'metrics': m},"
        " open(os.path.join(c['output_dir'], 'report.json'), 'w'))\n" % stamp)
    req.argv = [sys.executable, "-c", writer, req.argv[-1]]
    assert not bench.execute(req).problems
    again = bench.repeat_identical(req)
    assert bool(again.problems) == fails
    assert (bench.attempted, bench.failed) == (2, int(fails))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bell",
                          "--seed", "1", "--seconds", "1"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
