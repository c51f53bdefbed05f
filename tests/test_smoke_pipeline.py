"""The scipy-free smoke pipeline, `tests/smoke_pipeline.py`, passes.

It runs in a fresh interpreter, so the package's own imports alone decide
whether a scipy module loads, whatever the pytest process has imported.
"""

import os
import subprocess
import sys
from pathlib import Path

import ratiomarker

SCRIPT = Path(__file__).with_name("smoke_pipeline.py")


def test_smoke_pipeline_exits_zero(tmp_path):
    env = dict(os.environ)
    src = str(Path(ratiomarker.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(SCRIPT)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr[-4000:]
