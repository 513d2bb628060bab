"""Smoke test of the demos: each one runs as a script with ``src`` on the
path, exits 0 and prints exactly its recorded output in
``tests/demo_output``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = Path(__file__).resolve().parent / "demo_output"


def test_every_demo_has_a_recording():
    assert len(DEMOS) == 6
    assert sorted(p.stem for p in EXPECTED.glob("*.out")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, timeout=120
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (EXPECTED / f"{demo.stem}.out").read_bytes()
