"""The package imports no symbolic or sparse-matrix machinery, and the
command line reads no configuration files."""

import os
import subprocess
import sys
from pathlib import Path

import vws


def test_import_pulls_in_no_sympy_or_sparse():
    src = str(Path(vws.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "import vws, vws.manufactured, vws.experiments.cli\n"
        "print(' '.join(m for m in ('sympy', 'scipy.sparse', 'scipy.io',"
        " 'configparser')"
        " if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""
