"""The three benchmark workloads and the checks on their outputs.

Every invocation is checked; any failed check makes it a failed operation.
The checks read the artifacts themselves rather than trusting the CLI's own
verdict, and compare them with references that ``record_reference.py``
recorded from the code this benchmark was written against.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
REFERENCE = BENCH / "reference"
SWEEP_CONFIG = BENCH / "configs" / "eps_sweep.json"

# Paper gates (ROADMAP aim 3; acceptance criteria 1, 5 and 9).
MASS_DRIFT_MAX = 1e-8
SUP_EXCESS_MAX = 1e-8
CROSS_DEFINITION_GAP_MAX = 1e-5
CROSS_DEFINITION_CHECK = "operators.cross_definition_gaussian"

# Reference tolerances.  The Picard fixed point is solved to an H^1 distance
# of 1e-10 per step, so a change of iteration scheme may move the stored
# spectra by ~1e-10 relative; any real defect moves them by far more than
# 1e-7.  The viscosity table holds differences of nearby runs (the smallest
# is 2.8e-5), which magnifies the same perturbation, hence 1e-4 there.
TRAJECTORY_RTOL = 1e-7
TABLE_RTOL = 1e-4


@dataclass
class Invocation:
    out_dir: Path
    rc: int
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    stdout: str
    stderr: str
    killed: bool


@dataclass(frozen=True)
class Workload:
    cli_args: Callable[[Path, int], list[str]]
    setup_code: str
    check: Callable[[Invocation, int], tuple[list[str], dict]]


def child_env() -> dict:
    """Environment for child interpreters: the checkout's sources first."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def fswl_cli():
    """The program's CLI module, imported from the checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fswl.cli

    return fswl.cli


def _load_json(path: Path):
    return json.loads(path.read_text())


def _common_failures(inv: Invocation) -> list[str]:
    failures = []
    if inv.killed:
        failures.append("killed at the time limit")
    if inv.rc != 0:
        failures.append(f"exit code {inv.rc}")
    fail_lines = [ln for ln in inv.stdout.splitlines() if ln.startswith("FAIL")]
    if fail_lines:
        failures.append(f"FAIL lines: {fail_lines[:3]}")
    return failures


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def compare_trajectory(times, u_specs, v_specs, ref) -> float:
    """Largest relative deviation from the reference: the full spectra at
    the reference's sample indices and the L^2 norm of every sample."""
    if u_specs.shape != (len(ref["times"]), ref["u_specs"].shape[1]):
        return float("inf")
    if not np.allclose(times, ref["times"], rtol=0.0, atol=1e-12):
        return float("inf")
    idx = ref["sample_idx"]
    errs = [
        _rel(u_specs[idx], ref["u_specs"]),
        _rel(v_specs[idx], ref["v_specs"]),
        float(np.max(np.abs(np.linalg.norm(u_specs, axis=1) - ref["u_l2"]) / ref["u_l2"])),
        float(np.max(np.abs(np.linalg.norm(v_specs, axis=1) - ref["v_l2"]) / ref["v_l2"])),
    ]
    return max(errs)


def compare_table(rows: list[dict], ref_rows: list[dict]) -> float:
    """Largest relative deviation of the viscosity table from the reference."""
    if [(r["eps_coarse"], r["eps_fine"]) for r in rows] != [
        (r["eps_coarse"], r["eps_fine"]) for r in ref_rows
    ]:
        return float("inf")
    return max(
        abs(r[key] - ref[key]) / abs(ref[key])
        for r, ref in zip(rows, ref_rows)
        for key in ("u_l2_diff", "v_l2_diff")
    )


def load_trajectory_reference() -> dict:
    with np.load(REFERENCE / "canonical_run.npz", allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


def check_canonical_run(inv: Invocation, seed: int, ref: dict | None = None):
    failures = _common_failures(inv)
    info = {}
    try:
        cli = fswl_cli()
        summary = _load_json(inv.out_dir / "summary.json")
        config = _load_json(inv.out_dir / "config.json")["config"]
        if config.get("seed") != seed:
            failures.append(f"seed {config.get('seed')} recorded, {seed} passed")
        if summary.get("status") != "completed" or summary.get("passed") is not True:
            failures.append(f"summary: status {summary.get('status')}, passed {summary.get('passed')}")
        info["mass_drift_rel"] = summary["mass_drift_rel"]
        if not summary["mass_drift_rel"] <= MASS_DRIFT_MAX:
            failures.append(f"mass drift {summary['mass_drift_rel']:.3e} > {MASS_DRIFT_MAX}")
        if not summary["v_sup_excess"] <= SUP_EXCESS_MAX:
            failures.append(f"maximum principle: sup excess {summary['v_sup_excess']:.3e}")
        _grid, params, run, *_ = cli.parse_config(config)
        start = time.perf_counter()
        traj = cli.read_trajectory(inv.out_dir / "trajectory.jsonl", params, run)
        info["read_trajectory_s"] = time.perf_counter() - start
        err = compare_trajectory(traj.times, traj.u_specs, traj.v_specs,
                                 ref or load_trajectory_reference())
        info["ref_rel_err"] = err
        if not err <= TRAJECTORY_RTOL:
            failures.append(f"trajectory deviates from reference by {err:.3e} > {TRAJECTORY_RTOL}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        failures.append(f"artifacts unreadable: {exc!r}")
    return failures, info


def check_eps_sweep(inv: Invocation, seed: int, ref: list | None = None):
    failures = _common_failures(inv)
    info = {}
    try:
        cli = fswl_cli()
        report = _load_json(inv.out_dir / "sweep_report.json")
        config = _load_json(SWEEP_CONFIG)
        config["seed"] = seed
        if report.get("config_hash") != cli.config_hash(config):
            failures.append("config hash does not match the config with the passed seed")
        rows = report["viscosity_table"]
        if any(r.get("status") != "ok" for r in rows):
            failures.append(f"rung failed: {[r.get('status') for r in rows]}")
        for key in ("u", "v"):
            seq = [r[f"{key}_l2_diff"] for r in rows]
            strictly = all(b < a for a, b in zip(seq, seq[1:]))
            if not (strictly and report.get(f"{key}_diffs_decreasing") is True):
                failures.append(f"{key} differences not strictly decreasing: {seq}")
        err = compare_table(rows, ref or _load_json(REFERENCE / "eps_sweep.json")["viscosity_table"])
        info["ref_rel_err"] = err
        if not err <= TABLE_RTOL:
            failures.append(f"viscosity table deviates from reference by {err:.3e} > {TABLE_RTOL}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        failures.append(f"artifacts unreadable: {exc!r}")
    return failures, info


def check_verify_all(inv: Invocation, seed: int, ref: list | None = None):
    failures = _common_failures(inv)
    info = {}
    try:
        report = _load_json(inv.out_dir / "verify_all.json")
        if report.get("seed") != seed:
            failures.append(f"seed {report.get('seed')} recorded, {seed} passed")
        if report.get("passed") is not True:
            failures.append("report passed: false")
        failed = [c["name"] for c in report["checks"] if c.get("passed") is not True]
        if failed:
            failures.append(f"checks failed: {failed}")
        names = sorted(c["name"] for c in report["checks"])
        if names != (ref or _load_json(REFERENCE / "verify_all.json")["checks"]):
            failures.append("the set of checks differs from the reference")
        gap = next(c["max_abs_gap"] for c in report["checks"] if c["name"] == CROSS_DEFINITION_CHECK)
        info["cross_definition_gap"] = gap
        if not gap <= CROSS_DEFINITION_GAP_MAX:
            failures.append(f"cross-definition gap {gap:.3e} > {CROSS_DEFINITION_GAP_MAX}")
    except (OSError, ValueError, KeyError, TypeError, StopIteration) as exc:
        failures.append(f"artifacts unreadable: {exc!r}")
    return failures, info


WORKLOADS = {
    "canonical_run": Workload(
        cli_args=lambda out, seed: ["run", "--out", str(out), "--seed", str(seed)],
        setup_code="from fswl.cli import canonical_config, parse_config; "
                   "parse_config(canonical_config())",
        check=check_canonical_run,
    ),
    "eps_sweep": Workload(
        cli_args=lambda out, seed: ["sweep", "--config", str(SWEEP_CONFIG.relative_to(ROOT)),
                                    "--workers", "2", "--out", str(out), "--seed", str(seed)],
        setup_code="import json; from fswl.cli import parse_config; "
                   f"parse_config(json.load(open({str(SWEEP_CONFIG.relative_to(ROOT))!r})))",
        check=check_eps_sweep,
    ),
    "verify_all": Workload(
        cli_args=lambda out, seed: ["verify", "--suite", "all", "--out", str(out),
                                    "--seed", str(seed)],
        setup_code="import fswl.cli",
        check=check_verify_all,
    ),
}
