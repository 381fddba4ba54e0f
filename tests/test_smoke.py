"""The CLI smoke script, ci/smoke.sh, run end to end with bash -e."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "ci" / "smoke.sh"


def test_cli_smoke_script_passes(tmp_path):
    # the script calls `python`: make that the interpreter running the suite
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "python").symlink_to(sys.executable)
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
    done = subprocess.run(["bash", "-e", str(SCRIPT)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
