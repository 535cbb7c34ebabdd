import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# Demos 03, 04 and 06 run for 13-23 s each and repeat the paths of
# acceptance criteria 2, 3 and 5, so only the short ones run here.
@pytest.mark.parametrize("name", [
    "01_load_profiles.py", "02_trace_one_request.py", "05_cold_starts_and_scaling.py",
])
def test_demo_runs(name):
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
