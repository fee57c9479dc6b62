from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import condctc

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves_once():
    assert len(condctc.__all__) == len(set(condctc.__all__))
    for name in condctc.__all__:
        assert hasattr(condctc, name), name


def test_benchmark_tracer_installs():
    # `bench/tracing.py` wraps functions across the package, so a change that
    # renames or removes one of them fails here, not only under `--trace 1`.
    src = str(ROOT / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c",
                           "import tracing; tracing.install(tracing.Tracer())"],
                          cwd=ROOT / "bench", env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
