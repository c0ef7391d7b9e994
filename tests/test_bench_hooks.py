"""The benchmark's tracer wraps confcal functions by name; renaming or
deleting one of them must fail here, not only under ``bench/run.py --trace 1``."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
from collections import Counter
from tracing import Tracer
import worker
worker._install_tracer(Tracer(), Counter())
"""


def test_tracer_installs_on_every_wrapped_name():
    code = INSTALL.format(bench=str(ROOT / "bench"), src=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
