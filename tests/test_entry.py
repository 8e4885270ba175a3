"""The process entry point, ``dfsqc.cli.entry``, in fresh ``python -m
dfsqc.cli`` processes: it exits with the code and outputs of ``main``,
freezes the garbage collector only after ``main`` returns, and keeps the
``atexit`` callbacks; a stdout that cannot be written ends in one
``error: stdout: ...`` line and exit 1."""

import ast
import errno
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dfsqc import cli
from dfsqc.cli import main

ROOT = Path(__file__).resolve().parents[1]


def launch(args, cwd, stdout=subprocess.PIPE):
    """Run ``python`` with ``args`` in ``cwd`` to completion, BLAS on one
    thread and ``src`` on the path; stdout and stderr come back as bytes."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          stdin=subprocess.DEVNULL, stdout=stdout,
                          stderr=subprocess.PIPE, timeout=60)


def workdir(path, **config):
    """``path``, made, holding ``config.json``: ``config`` with seed 7 and
    the relative ``output_dir`` ``out``, so that it hashes the same
    wherever it runs."""
    path.mkdir()
    (path / "config.json").write_text(
        json.dumps({"seed": 7, "output_dir": "out", **config}))
    return path


def written(path):
    return {f.name: f.read_bytes() for f in sorted((path / "out").iterdir())}


@pytest.mark.parametrize("experiment", ["bell", "ms-scan"])
def test_run_writes_what_main_writes(tmp_path, capsys, monkeypatch, experiment):
    apart = workdir(tmp_path / "process", experiment=experiment)
    proc = launch(["-m", "dfsqc.cli", "run", "config.json"], apart)
    inside = workdir(tmp_path / "in_process", experiment=experiment)
    monkeypatch.chdir(inside)
    assert main(["run", "config.json"]) == 0
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, captured.out.encode(), b"")
    assert proc.stdout == b"wrote out/report.json\n"
    assert "report.json" in written(apart)
    assert written(apart) == written(inside)


def test_invalid_config_exits_2_with_its_error_line(tmp_path, capsys):
    path = workdir(tmp_path / "w", experiment="bell", typo=1)
    proc = launch(["-m", "dfsqc.cli", "validate", "config.json"], path)
    assert main(["validate", str(path / "config.json")]) == 2
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == capsys.readouterr().err.encode() == (
        b"error: typo: not read by the bell experiment\n")


def test_version_exits_0(tmp_path):
    proc = launch(["-m", "dfsqc.cli", "--version"], tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, b"dfsqc 0.1.0\n", b"")


@pytest.mark.parametrize("args", [["--version"], ["run", "config.json"]])
def test_closed_stdout_exits_0(tmp_path, args):
    # the shell's `>&-`: the child starts without file descriptor 1, so
    # its sys.stdout is None and takes every line silently
    path = workdir(tmp_path / "w", experiment="coherence")
    proc = launch(["-c", "import os, sys; os.close(1); "
                   "os.execv(sys.executable, sys.argv[1:])",
                   sys.executable, "-m", "dfsqc.cli", *args], path)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert (path / "out" / "report.json").exists() == (args[0] == "run")


def test_atexit_runs_after_the_freeze(tmp_path):
    # a hook registered before the entry point, as site hooks and coverage
    # are, still runs, and runs after the freeze
    code = ("import atexit, gc, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
            "from dfsqc.cli import entry\n"
            "sys.argv = ['dfsqc', '--version']\n"
            "entry()\n")
    proc = launch(["-c", code], tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, b"dfsqc 0.1.0\nfrozen True\n", b"")


def test_main_in_process_never_freezes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(workdir(tmp_path / "w", experiment="coherence"))
    assert main(["run", "config.json"]) == 0
    assert main(["--version"]) == 0
    assert gc.get_freeze_count() == 0


def full_device():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    return os.open("/dev/full", os.O_WRONLY)


def closed_pipe():
    """The write end of a pipe whose read end is closed, as after ``| head
    -c 1`` has read its byte."""
    read, write = os.pipe()
    os.close(read)
    return write


#: The entry point after an ``atexit`` hook that prints on stdout once
#: ``main`` has returned, as a site hook or coverage report may.
HOOKED_ENTRY = ("import atexit; atexit.register(print, 'after main'); "
                "from dfsqc.cli import entry; entry()")


@pytest.mark.parametrize("args, make_stdout, code", [
    (["run", "config.json"], full_device, errno.ENOSPC),
    (["--version"], full_device, errno.ENOSPC),
    (["--help"], closed_pipe, errno.EPIPE),
    (["dump-sequence"], closed_pipe, errno.EPIPE),
], ids=["run_full", "version_full", "help_pipe", "dump_sequence_pipe"])
def test_unwritable_stdout_exits_1_with_one_error_line(tmp_path, args,
                                                       make_stdout, code):
    # stdout then points at os.devnull, so the hook's line raises nothing
    path = workdir(tmp_path / "w", experiment="bell")
    stdout = make_stdout()
    try:
        proc = launch(["-c", HOOKED_ENTRY, *args], path, stdout=stdout)
    finally:
        os.close(stdout)
    assert proc.returncode == 1
    assert proc.stderr.decode().splitlines() == [
        f"error: stdout: [Errno {code}] {os.strerror(code)}"]
    if args[0] == "run":  # the files come before the line that names them
        assert set(written(path)) == {"report.json", "matrices.json"}


def test_installed_command_and_module_share_the_entry_point():
    # the `dfsqc` script and `python -m dfsqc.cli` take one exit path
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text(
        encoding="utf-8"))["project"]["scripts"]
    module, _, function = scripts["dfsqc"].partition(":")
    assert module == "dfsqc.cli" and callable(getattr(cli, function))
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    blocks = [node.body for node in tree.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [[ast.unparse(s) for s in body] for body in blocks] == [
        [f"{function}()"]]
