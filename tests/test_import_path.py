"""Cold start: what importing ``repro`` loads.

Every experiment run, CLI command, ``--jobs`` worker and service start
pays for the modules ``import repro`` pulls in.  scipy.stats is the
largest of them and nothing in ``repro`` needs it, so it must stay out
of a fresh interpreter, also after a Sobol' draw.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
seen = {}
import repro
seen["import repro"] = "scipy.stats" in sys.modules
import repro.experiments
seen["import repro.experiments"] = "scipy.stats" in sys.modules
import repro.cli
seen["import repro.cli"] = "scipy.stats" in sys.modules
from repro.variability import SobolNormalStream
SobolNormalStream(seed=2007, replicate=1).take(5, 64)
seen["SobolNormalStream.take"] = "scipy.stats" in sys.modules
print(json.dumps(seen))
"""


def test_scipy_stats_is_never_loaded():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    loaded = json.loads(run.stdout)
    assert loaded == {"import repro": False,
                      "import repro.experiments": False,
                      "import repro.cli": False,
                      "SobolNormalStream.take": False}
