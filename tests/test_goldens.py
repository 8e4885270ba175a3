"""Every command of the golden corpus still prints and writes what it
recorded (``tests/goldens/record.py`` says how to record it again).

Exit codes, stderr, the names of the files written and the figures, to
1e-12, are checked on every host.  The SHA-256s of stdout and of each
file, which hold the bytes of every float, are checked only on the numpy,
BLAS, machine and CPU the corpus was recorded on.
"""

import json
import math

from goldens.record import CORPUS, platform_key, record

GOLDENS = json.loads(CORPUS.read_text())


def test_corpus_reproduces(tmp_path):
    same_platform = platform_key() == {k: GOLDENS[k] for k in platform_key()}
    problems = []
    for k, want in enumerate(GOLDENS["entries"]):
        workdir = tmp_path / str(k)
        workdir.mkdir()
        got = record({key: want[key] for key in ("name", "argv", "config")},
                     str(workdir))
        keys = ["exit", "stderr"] + (["stdout_sha256", "files"] if same_platform
                                     else [])
        problems += [f"{want['name']}: {key} {got[key]!r} != {want[key]!r}"
                     for key in keys if got[key] != want[key]]
        if sorted(got["files"]) != sorted(want["files"]):
            problems.append(f"{want['name']}: wrote {sorted(got['files'])}")
        if [p for p, _ in got["figures"]] != [p for p, _ in want["figures"]]:
            problems.append(f"{want['name']}: other figures")
        problems += [f"{want['name']}: {path} {a!r} != {b!r}"
                     for (path, a), (_, b) in zip(got["figures"], want["figures"])
                     if not math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)]
    assert problems == []
