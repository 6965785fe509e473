"""Importing the serving stack must not pull in SciPy or NetworkX.

Both cost about a second of start-up each, and only the analysis helpers
(``mean_ci``) and the junction-detection application use them.  A fresh
interpreter is the only honest place to look: the test process has
imported everything already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_serving_stack_imports_no_scipy_or_networkx():
    code = (
        "import json, sys\n"
        "import repro, repro.service.service, repro.service.recovery, "
        "repro.sim.simulator\n"
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'networkx'))))\n"
    )
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == []
