"""Record the output references the benchmark checks against.

Usage: python bench/record_reference.py

Runs the canonical run, the eps sweep and the verify suite once with the
code in src/ and writes bench/reference/.  Run it only when a change alters
these outputs on purpose, and say so in the change.
"""

import json
import shutil
import subprocess
import sys

import numpy as np

from workloads import REFERENCE, ROOT, WORKLOADS, child_env, fswl_cli

SAMPLE_STRIDE = 40  # full spectra at every 40th of the 201 samples
SEED = 1234


def _run(name: str, out) -> None:
    argv = [sys.executable, "-m", "fswl.cli", *WORKLOADS[name].cli_args(out, SEED)]
    subprocess.run(argv, cwd=ROOT, env=child_env(), check=True,
                   stdout=subprocess.DEVNULL)


def main() -> None:
    cli = fswl_cli()
    work = ROOT / ".bench_runs" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    REFERENCE.mkdir(exist_ok=True)
    try:
        _run("canonical_run", work / "run")
        _grid, params, run, *_ = cli.parse_config(cli.canonical_config())
        traj = cli.read_trajectory(work / "run" / "trajectory.jsonl", params, run)
        idx = np.arange(0, len(traj), SAMPLE_STRIDE)
        np.savez_compressed(
            REFERENCE / "canonical_run.npz",
            times=traj.times, sample_idx=idx,
            u_specs=traj.u_specs[idx], v_specs=traj.v_specs[idx],
            u_l2=np.linalg.norm(traj.u_specs, axis=1),
            v_l2=np.linalg.norm(traj.v_specs, axis=1),
        )

        _run("eps_sweep", work / "sweep")
        report = json.loads((work / "sweep" / "sweep_report.json").read_text())
        table = [{k: r[k] for k in ("eps_coarse", "eps_fine", "u_l2_diff", "v_l2_diff")}
                 for r in report["viscosity_table"]]
        (REFERENCE / "eps_sweep.json").write_text(
            json.dumps({"viscosity_table": table}, indent=1) + "\n")

        _run("verify_all", work / "verify")
        report = json.loads((work / "verify" / "verify_all.json").read_text())
        names = sorted(c["name"] for c in report["checks"])
        (REFERENCE / "verify_all.json").write_text(
            json.dumps({"checks": names}, indent=1) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
