"""Memory guards: what a run maps and what the padded sup norm allocates.

``import hashlib`` maps OpenSSL (about 3.7 MB resident) and multiprocessing
adds about 0.7 MB; neither is needed to run, verify or read a trajectory
back.  ``GridSpec.sup_norm`` pads a block a few rows at a time through
192 KiB of buffers, never the whole padded block.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

from fswl.grid import make_grid

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from fswl.cli import canonical_config, main, parse_config, read_trajectory

HEAVY = ("_hashlib", "hashlib", "multiprocessing")

config = canonical_config()
config["grid"]["N"] = 64
config["time"]["T"] = 0.05
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    path, out = Path(tmp) / "tiny.json", Path(tmp) / "out"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    _, params, run, *_ = parse_config(config)
    read_trajectory(out / "trajectory.jsonl", params, run)
    loaded = [name for name in HEAVY if name in sys.modules]
    assert not loaded, ("run", loaded)
    # numpy.random, which the verify suites draw from, loads hashlib
    # through secrets and hmac; multiprocessing stays out
    assert main(["verify", "--suite", "all"]) == 0
    assert "multiprocessing" not in sys.modules, "verify"
"""


def test_run_and_verify_leave_openssl_and_multiprocessing_unloaded():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_sup_norm_of_a_block_allocates_one_padded_chunk():
    # the whole padded block of [16, 512] alone is 16 x 4096 x 16 B = 1 MiB
    grid = make_grid(16.0, 512)
    rng = np.random.default_rng(5)
    block = rng.standard_normal((16, 512)) + 1j * rng.standard_normal((16, 512))
    grid.sup_norm(block)
    tracemalloc.start()
    try:
        grid.sup_norm(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 * 1024, peak
