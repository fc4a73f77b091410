"""Golden outputs under pytest: every digest and demo pin of `tests/golden.py`,
and one build in a fresh interpreter under another PYTHONHASHSEED.

An intended output change must update the digests in `tests/golden.py`; list
the ones that differ with `PYTHONPATH=src python -m tests.golden`.
"""
import hashlib
import os
import subprocess
import sys

import pytest

from .golden import (
    DEMO_GOLDEN, GOLDEN, build_argv, compute_digests, demo_digest, subprocess_env,
)


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return compute_digests(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_digest(digests, case):
    assert digests[case] == GOLDEN[case]


@pytest.mark.parametrize("name", sorted(DEMO_GOLDEN))
def test_demo_output(name):
    assert demo_digest(name) == DEMO_GOLDEN[name]


def test_golden_under_other_hash_seed(tmp_path):
    """One build in a fresh interpreter with a different PYTHONHASHSEED."""
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    env = subprocess_env(PYTHONHASHSEED=seed)
    outdir = tmp_path / "out"
    code = ("import sys; from pmm.cli import main; "
            "raise SystemExit(main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", code, *build_argv("example3", 7), "--output", str(outdir)],
        env=env, capture_output=True, text=True, timeout=120)
    h = hashlib.sha256(f"rc={proc.returncode}\n{proc.stdout}".encode())
    for path in sorted(outdir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    assert h.hexdigest() == GOLDEN["build:example3:7"], proc.stderr
