"""Each narrative demo prints exactly its recorded output."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("0*.py")), ids=lambda p: p.stem)
def test_demo_output_is_unchanged(demo):
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, timeout=60,
        env={"PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (GOLDEN / f"demo_{demo.name[:2]}.txt").read_bytes()
