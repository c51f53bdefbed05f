"""What importing the CLI loads.

Every CLI call pays for the modules `ratiomarker.cli` imports. The package
runs on numpy alone: `scipy.special` took about 0.35 s and 24 MB to import
after numpy, and `scipy.stats` about 0.5 s and 45 MB, so no scipy module may
be loaded; scipy is a test dependency only, the oracle of `special`.
`multiprocessing` is imported only when a command starts a process pool.
"""

import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import ratiomarker
import ratiomarker.learn

HEAVY = ("scipy", "scipy.stats", "scipy.optimize", "scipy.sparse", "multiprocessing")


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


def test_all_lists_the_public_names_of_each_package():
    for package, count in ((ratiomarker, 45), (ratiomarker.learn, 10)):
        names = package.__all__
        assert len(names) == count
        assert names == sorted(set(names))
        for name in names:
            assert not name.startswith("_")
            assert not isinstance(getattr(package, name), ModuleType)
