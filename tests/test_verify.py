"""Every row of the ``fswl verify`` table passes.

The suites in ``fswl.verify`` are the one implementation of these checks and
their thresholds; this module runs all of them once, as
``fswl verify --suite all --seed 1234`` does, and pins the row names to the
benchmark's reference report.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from fswl.verify import run_suite

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference" / "verify_all.json"


@pytest.fixture(scope="module")
def report():
    return run_suite("all", seed=1234)


def test_every_row_passes(report):
    failed = [json.dumps(row, sort_keys=True) for row in report["checks"] if not row["passed"]]
    assert not failed, "failed verify rows:\n" + "\n".join(failed)
    assert report["passed"]


def test_row_names_match_reference(report):
    names = sorted(row["name"] for row in report["checks"])
    assert names == json.loads(REFERENCE.read_text())["checks"]
