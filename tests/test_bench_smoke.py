"""One short run of each benchmark workload, so that a change which makes the
benchmark's oracles reject the program's output fails here first.

The benchmark is copied next to a link to this tree's `src`, so `run.py`
imports the code under test and writes its scratch files under tmp_path,
never into the checkout's `bench/_work`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_copy(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench_smoke")
    shutil.copytree(ROOT / "bench", root / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return root


@pytest.mark.parametrize("workload, trace", [("ingest", "0"), ("campaign", "1")])
def test_one_second_run_is_correct(bench_copy, workload, trace):
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", trace],
        cwd=bench_copy, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
