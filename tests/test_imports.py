"""What importing the CLI loads.

Every CLI call pays for the modules `ratiomarker.cli` imports. scipy is used
only for `scipy.special`; `scipy.stats` alone took about 0.5 s and 45 MB to
import, so these heavy subpackages must stay out of the import graph.
`multiprocessing` is imported only when a command starts a process pool.
"""

import os
import subprocess
import sys
from pathlib import Path

import ratiomarker

HEAVY = ("scipy.stats", "scipy.optimize", "scipy.sparse", "multiprocessing")


def test_cli_import_leaves_out_heavy_scipy_subpackages():
    # A fresh interpreter, since this one has imported scipy.stats for the
    # test references; it imports the same copy of the package.
    src = str(Path(ratiomarker.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys, ratiomarker.cli; "
        f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        env=env,
    )
    assert done.stdout.split() == []
