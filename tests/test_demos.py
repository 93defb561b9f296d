import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script",
    [
        "family_gallery.py",
        "generator_tour.py",
        "rank_statistics.py",
        "verification_walkthrough.py",
    ],
)
def test_demo_runs_cleanly(script):
    src = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
