"""Every script in demos/ runs to completion against the live library, so
that a public name a demo uses cannot be deleted or renamed without
failing here."""

import glob
import os
import subprocess
import sys

import pytest

import slmcoint

DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(slmcoint.__file__)))


@pytest.mark.parametrize("script", sorted(
    os.path.basename(p) for p in glob.glob(os.path.join(DEMOS, "*.py"))))
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, script)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    if script == "ckc_workflow.py":  # its synthetic country is a temp file
        assert os.listdir(tmp_path) == []
