from __future__ import annotations

import contextlib
import io
import json
import math
import re
import tempfile
import time
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fswl.cli as cli
from fswl.cli import (
    ConfigError,
    canonical_config,
    config_hash,
    do_run,
    do_sweep,
    do_verify,
    main,
    parse_config,
    read_trajectory,
)
from fswl.diagnostics import COLUMNS, theta_envelope
from fswl.grid import BLOCK_SAMPLES, make_grid
from fswl.propagators import EXPONENT_A, EXPONENT_B
import fswl.solver as solver
from fswl.solver import (
    ConvergenceTable, SolverError, Trajectory, _Stepper,
    l2_spacetime_diff, solve_perturbed, vanishing_viscosity_sweep,
)


def tiny_config(**overrides) -> dict:
    cfg = {
        "grid": {"L": 16.0, "N": 64},
        "system": {"alpha": 0.1, "beta": 0.1, "s": 0.75, "gamma": 1.0,
                   "g": {"kind": "tanh_blend", "m": 0.2, "M": 1.0}},
        "perturbation": {"eps": 0.1, "a": 4, "b": 7},
        "time": {"T": 0.1, "dt": 0.005},
        "initial": {
            "u0": {"kind": "gaussian", "amplitude": 0.35, "width": 1.0, "mode": 3},
            "v0": {"kind": "gaussian", "amplitude": 0.4, "width": 1.5},
        },
        "diagnostics": {"store_every": 2},
        "seed": 11,
    }
    for key, val in overrides.items():
        cfg[key] = val
    return cfg


class TestConfig:
    def test_canonical_config_parses(self):
        cfg = canonical_config()
        grid, params, run, u0, v0, extras = parse_config(cfg)
        assert grid.n_points == 512
        assert params.gamma == 1.0 and params.alpha == 0.1
        assert (cfg["perturbation"]["a"], cfg["perturbation"]["b"]) == (EXPONENT_A, EXPONENT_B)

    def test_power_of_two_rule_named(self):
        cfg = tiny_config(grid={"L": 16.0, "N": 100})
        with pytest.raises(ConfigError, match="power of two"):
            parse_config(cfg)

    def test_integer_fields_take_integral_floats_only(self):
        cfg = tiny_config(grid={"L": 16.0, "N": 64.0}, seed=11.0)
        cfg["perturbation"]["a"] = 4.0
        grid, _, run, _, _, extras = parse_config(cfg)
        assert (grid.n_points, extras["seed"]) == (64, 11)
        assert all(type(n) is int for n in (grid.n_points, extras["seed"]))
        cfg["perturbation"]["a"] = 4.5
        with pytest.raises(ConfigError, match="a must be an integer, got 4.5"):
            parse_config(cfg)

    def test_unknown_nonlinearity_rejected(self):
        cfg = tiny_config()
        cfg["system"]["g"] = {"kind": "cubic"}
        with pytest.raises(ConfigError, match="cubic"):
            parse_config(cfg)

    def test_system_range_enforced(self):
        cfg = tiny_config()
        cfg["system"]["s"] = 0.4
        with pytest.raises(ConfigError):
            parse_config(cfg)

    def test_hash_is_stable_and_sensitive(self):
        a = config_hash(tiny_config())
        b = config_hash(tiny_config())
        c = config_hash(tiny_config(seed=12))
        assert a == b and a != c


class TestRunVerb:
    def test_run_writes_artifacts_and_passes(self, tmp_path):
        code = do_run(tiny_config(), tmp_path / "out")
        assert code == 0
        out = tmp_path / "out"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["checks"]["mass_conservation"]
        assert summary["checks"]["max_principle"]
        assert summary["mass_drift_rel"] < 1e-10
        # every artifact embeds hash and version
        chash = summary["config_hash"]
        for name in ("trajectory.jsonl", "diagnostics.jsonl"):
            header = json.loads((out / name).read_text().splitlines()[0])
            assert header["config_hash"] == chash
            assert header["artifact_version"].startswith("fswl-")

    def test_run_writes_one_row_of_columns_per_sample(self, tmp_path):
        out = tmp_path / "out"
        assert do_run(tiny_config(), out) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "config.json", "diagnostics.jsonl", "summary.json",
            "trajectory.jsonl", "trajectory.npy"]
        _, params, run, *_ = parse_config(tiny_config())
        series = theta_envelope(read_trajectory(out / "trajectory.jsonl", params, run))
        header, *rows = map(json.loads, (out / "diagnostics.jsonl").read_text().splitlines())
        assert header["kind"] == "diagnostics_header"
        assert len(rows) == len(series.t) == run.n_samples
        spelled = {math.inf: "Infinity", -math.inf: "-Infinity"}
        for i, row in enumerate(rows):
            assert sorted(row) == sorted(COLUMNS)
            for name in COLUMNS:
                value = float(getattr(series, name)[i])
                assert row[name] == (value if math.isfinite(value)
                                     else spelled.get(value, "NaN")), (i, name)
        # the residuals lack a neighbor at both ends
        assert rows[0]["energy_balance_residual"] == rows[-1]["v_balance_residual"] == "NaN"

    def test_trajectory_round_trip(self, tmp_path):
        # at N = 256 the row width 3K+2 = 257 differs from N
        for N in (64, 256):
            cfg = tiny_config(grid={"L": 16.0, "N": N})
            do_run(cfg, tmp_path / str(N))
            grid, params, run, u0, v0, extras = parse_config(cfg)
            solved = solve_perturbed(u0, v0, params, run)
            traj = read_trajectory(tmp_path / str(N) / "trajectory.jsonl", params, run)
            assert len(traj) >= 2
            assert traj.grid == grid
            assert np.array_equal(traj.times, solved.times)
            assert np.array_equal(traj.u_specs, solved.u_specs)
            assert np.array_equal(traj.v_specs, solved.v_specs)
            assert not traj.u_specs.flags.writeable and not traj.v_specs.flags.writeable
            sidecar = tmp_path / str(N) / "trajectory.npy"
            assert sidecar.stat().st_size == 128 + len(traj) * (3 * (N // 3) + 2) * 16

    def test_read_trajectory_rejects_flipped_byte(self, tmp_path):
        cfg = tiny_config()
        do_run(cfg, tmp_path / "out")
        _, params, run, *_ = parse_config(cfg)
        sidecar = tmp_path / "out" / "trajectory.npy"
        blob = bytearray(sidecar.read_bytes())
        blob[-9] ^= 0x01
        sidecar.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="sha256"):
            read_trajectory(tmp_path / "out" / "trajectory.jsonl", params, run)

    def test_read_trajectory_rejects_other_schema(self, tmp_path):
        cfg = tiny_config()
        do_run(cfg, tmp_path / "out")
        _, params, run, *_ = parse_config(cfg)
        path = tmp_path / "out" / "trajectory.jsonl"
        header = json.loads(path.read_text())
        header["schema"] = 1
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(ValueError, match="schema 1"):
            read_trajectory(path, params, run)

    def test_determinism_byte_identical(self, tmp_path):
        do_run(tiny_config(), tmp_path / "a")
        do_run(tiny_config(), tmp_path / "b")
        for path in (tmp_path / "a").iterdir():
            assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()

    def test_zero_data_trivial_pass(self, tmp_path):
        cfg = tiny_config(initial={"u0": {"kind": "zero"}, "v0": {"kind": "zero"}})
        assert do_run(cfg, tmp_path / "out") == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["passed"]

    def test_envelopes_asserted_inside_frontier(self, tmp_path):
        # alpha = 0 satisfies the smallness condition for any data, so the
        # theta/H envelope bounds join the asserted checks
        cfg = tiny_config()
        cfg["system"]["alpha"] = 0.0
        assert do_run(cfg, tmp_path / "out") == 0
        checks = json.loads((tmp_path / "out" / "summary.json").read_text())["checks"]
        assert checks["theta_envelope"] is True and checks["H_envelope"] is True

    def test_blowup_exit_code(self, tmp_path, monkeypatch):
        # focusing self-interaction with a tight ceiling trips the blow-up
        # guard long before the grid runs out of resolution
        monkeypatch.setattr(solver, "BLOWUP_FACTOR", 1.5)
        cfg = tiny_config()
        cfg["system"] = {"alpha": 0.0, "beta": 0.0, "s": 0.75, "gamma": -30.0,
                        "g": {"kind": "zero"}}
        cfg["initial"]["u0"] = {"kind": "gaussian", "amplitude": 2.0, "width": 1.0}
        cfg["time"] = {"T": 0.5, "dt": 0.001}
        del cfg["diagnostics"]
        code = do_run(cfg, tmp_path / "out")
        assert code == 3
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == "blowup"


def _banded_trajectory(N: int, n: int) -> Trajectory:
    """n random band rows at N points, v_0 real, stored as a run with a
    matching sample count."""
    grid = make_grid(16.0, N)
    _, params, run, *_ = parse_config(tiny_config())
    run = replace(run, T=0.01 * (n - 1), dt=0.01, store_every=1)
    rng = np.random.default_rng(N + n)
    width = 3 * (N // 3) + 2
    bands = rng.standard_normal((n, width)) + 1j * rng.standard_normal((n, width))
    bands[:, 2 * (N // 3) + 1] = bands[:, 2 * (N // 3) + 1].real
    return Trajectory(grid=grid, params=params, run=run, times=0.01 * np.arange(n), bands=bands)


def _traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTrajectorySidecar:
    @pytest.mark.parametrize("channel, row, j", [
        ("u", 0, 22),       # first mode above the band at N = 64
        ("u", 3, -22),
        ("u", 5, 32),       # the Nyquist mode
        ("v", 2, 40),
    ])
    def test_writer_refuses_a_coefficient_outside_the_band(self, tmp_path, channel, row, j):
        # a trajectory is frozen and its expanded spectra and band rows are
        # read-only, so once built it cannot take a coefficient outside the
        # band; one built with a row one slot wider is refused by the
        # constructor, before the writer is reached
        traj = _banded_trajectory(64, 8)
        with pytest.raises(ValueError, match="read-only"):
            getattr(traj, f"{channel}_specs")[row, j] = 1e-300
        wide = np.zeros((len(traj), traj.bands.shape[1] + 1), dtype=complex)
        wide[:, :-1] = traj.bands
        wide[row, -1] = 1e-300
        with pytest.raises(FrozenInstanceError):
            traj.bands = wide
        with pytest.raises(ValueError, match="read-only"):
            traj.bands[row, -1] = 1e-300
        with pytest.raises(ValueError, match=r"expected \(8, 65\): one row per sample time"):
            cli.write_trajectory(tmp_path / "t.jsonl", replace(traj, bands=wide), "h")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("row, j, delta", [(1, 5, 1e-15j), (6, -3, 1e-15), (4, 0, 1e-15j)])
    def test_writer_refuses_a_non_hermitian_v(self, tmp_path, row, j, delta):
        # a row stores v_j for j >= 0 only, so v_{-j} = conj(v_j) holds for
        # j != 0 by construction and the expanded v is read-only; what a row
        # can hold wrongly is a v_0 that is not real, and the constructor
        # refuses it, before the writer is reached
        traj = _banded_trajectory(64, 8)
        with pytest.raises(ValueError, match="read-only"):
            traj.v_specs[row, j] += delta * abs(traj.v_specs[row, j])
        v0 = 2 * (64 // 3) + 1
        with pytest.raises(ValueError, match="read-only"):
            traj.bands[row, v0] += 1j * abs(delta) * abs(traj.bands[row, v0])
        bands = traj.bands.copy()
        bands[row, v0] += 1j * abs(delta) * abs(bands[row, v0])
        with pytest.raises(ValueError, match="^a v_0 is not real, so v is not exactly Hermitian$"):
            cli.write_trajectory(tmp_path / "t.jsonl", replace(traj, bands=bands), "h")
        assert list(tmp_path.iterdir()) == []

    def test_round_trip_of_a_multi_block_trajectory(self, tmp_path):
        n = 2 * BLOCK_SAMPLES + 3
        traj = _banded_trajectory(256, n)
        cli.write_trajectory(tmp_path / "t.jsonl", traj, "h")
        assert (tmp_path / "t.npy").stat().st_size == 128 + n * 257 * 16
        back = read_trajectory(tmp_path / "t.jsonl", traj.params, traj.run)
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.bands, traj.bands)
        assert not back.bands.flags.writeable

    def test_read_holds_at_most_a_few_blocks_beyond_its_result(self, tmp_path):
        traj = _banded_trajectory(512, 10 * BLOCK_SAMPLES)
        cli.write_trajectory(tmp_path / "t.jsonl", traj, "h")
        got = []
        peak = _traced_peak(lambda: got.append(
            read_trajectory(tmp_path / "t.jsonl", traj.params, traj.run)))
        result = got[0].bands.nbytes
        block = BLOCK_SAMPLES * (3 * (512 // 3) + 2) * 16
        assert peak - result <= 3 * block

    @pytest.mark.parametrize("field, change", [
        ("eps", {"eps": 0.5}),
        ("n_samples", {"store_every": 1}),
    ])
    def test_reader_refuses_another_run(self, tmp_path, field, change):
        cfg = canonical_config()
        do_run(cfg, tmp_path / "out")
        _, params, run, *_ = parse_config(cfg)
        with pytest.raises(ValueError, match=f"{field} .* in the header"):
            read_trajectory(tmp_path / "out" / "trajectory.jsonl", params, replace(run, **change))

    def _written(self, tmp_path) -> tuple[Path, Trajectory]:
        traj = _banded_trajectory(64, 8)
        cli.write_trajectory(tmp_path / "t.jsonl", traj, "h")
        return tmp_path / "t.jsonl", traj

    def _assert_refused_cheaply(self, path, traj, match):
        def refused():
            with pytest.raises(ValueError, match=match):
                read_trajectory(path, traj.params, traj.run)

        start = time.perf_counter()
        assert _traced_peak(refused) < 1 << 20
        assert time.perf_counter() - start < 1.0

    def test_forged_sample_count_is_refused_unallocated(self, tmp_path):
        path, traj = self._written(tmp_path)
        header = json.loads(path.read_text())
        header["n_samples"] = 10**9
        path.write_text(json.dumps(header) + "\n")
        self._assert_refused_cheaply(path, traj, "times for 1000000000 samples")

    @pytest.mark.parametrize("layout", [
        {"descr": "<c16", "fortran_order": False, "shape": (10**9, 23)},
        {"descr": "<c16", "fortran_order": False, "shape": (8, 64)},
        {"descr": "<c8", "fortran_order": False, "shape": (8, 23)},
        {"descr": "<c16", "fortran_order": True, "shape": (8, 23)},
    ])
    def test_forged_npy_header_is_refused_unallocated(self, tmp_path, layout):
        path, traj = self._written(tmp_path)
        head = io.BytesIO()
        np.lib.format.write_array_header_1_0(head, layout)
        sidecar = path.with_suffix(".npy")
        blob = sidecar.read_bytes()
        assert len(head.getvalue()) == 128
        sidecar.write_bytes(head.getvalue() + blob[128:])
        self._assert_refused_cheaply(path, traj, "expected")

    def test_truncated_sidecar_is_refused_unallocated(self, tmp_path):
        path, traj = self._written(tmp_path)
        sidecar = path.with_suffix(".npy")
        sidecar.write_bytes(sidecar.read_bytes()[:-16])
        self._assert_refused_cheaply(path, traj, "bytes, expected")


class TestSweepVerb:
    def test_eps_ladder_table(self, tmp_path):
        cfg = tiny_config()
        cfg["sweep"] = {"eps_ladder": [0.2, 0.1, 0.05]}
        assert do_sweep(cfg, tmp_path / "out", workers=1) == 0
        report = json.loads((tmp_path / "out" / "sweep_report.json").read_text())
        assert len(report["viscosity_table"]) == 2
        assert report["u_diffs_decreasing"] and report["v_diffs_decreasing"]

    def test_alpha_grid_frontier(self, tmp_path):
        cfg = tiny_config()
        cfg["sweep"] = {"alpha_grid": [0.0, 0.1]}
        assert do_sweep(cfg, tmp_path / "out", workers=1) == 0
        report = json.loads((tmp_path / "out" / "sweep_report.json").read_text())
        cells = {c["alpha"]: c for c in report["stability_map"]}
        assert cells[0.0]["smallness_satisfied"]
        assert not cells[0.0]["blowup"]
        assert report["no_blowup_inside_frontier"]

    def test_sweep_requires_ladder_or_grid(self, tmp_path):
        with pytest.raises(ConfigError):
            do_sweep(tiny_config(), tmp_path / "out")

    def test_worker_pool_matches_serial(self, tmp_path):
        cfg = tiny_config()
        # a numeric string is a valid rung and is reported as given
        cfg["sweep"] = {"eps_ladder": ["0.2", 0.1], "alpha_grid": [0.0, 0.1]}
        assert do_sweep(cfg, tmp_path / "serial", workers=1) == 0
        assert do_sweep(cfg, tmp_path / "pool", workers=2) == 0
        serial = (tmp_path / "serial" / "sweep_report.json").read_bytes()
        assert serial == (tmp_path / "pool" / "sweep_report.json").read_bytes()
        assert json.loads(serial)["viscosity_table"][0]["eps_coarse"] == "0.2"

    @staticmethod
    def _serial_pool(monkeypatch) -> list:
        """Replace the fork pool by one that runs its jobs in this process;
        the returned list collects the size of each pool asked for."""
        sizes = []

        class SerialPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(cli, "get_context", lambda method: SimpleNamespace(Pool=SerialPool))
        return sizes

    def test_pool_capped_at_job_count(self, tmp_path, monkeypatch):
        sizes = self._serial_pool(monkeypatch)
        cfg = tiny_config()
        cfg["sweep"] = {"eps_ladder": [0.2, 0.1]}
        assert do_sweep(cfg, tmp_path / "out", workers=8) == 0
        assert sizes == [2]

    @pytest.mark.parametrize("cpus,expected", [(2, [2]), (None, [])])
    def test_pool_capped_at_cpu_count(self, tmp_path, monkeypatch, cpus, expected):
        # four jobs and eight workers asked for: the pool has one process a
        # CPU, and none at all (a serial run) when the count is unknown
        sizes = self._serial_pool(monkeypatch)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        cfg = tiny_config()
        cfg["sweep"] = {"eps_ladder": [0.2, 0.1], "alpha_grid": [0.0, 0.1]}
        assert do_sweep(cfg, tmp_path / "out", workers=8) == 0
        assert sizes == expected

    def test_failed_rung_exits_1(self, tmp_path, monkeypatch):
        def solve(u0, v0, params, run):
            if run.eps == 0.1:
                raise SolverError("injected")
            return solve_perturbed(u0, v0, params, run)

        monkeypatch.setattr(cli, "solve_perturbed", solve)
        cfg = tiny_config()
        cfg["sweep"] = {"eps_ladder": [0.2, 0.1, 0.05, 0.025]}
        assert do_sweep(cfg, tmp_path / "out", workers=1) == 1
        rows = json.loads((tmp_path / "out" / "sweep_report.json").read_text())["viscosity_table"]
        assert [r["status"] for r in rows] == [
            "completed / failed: injected", "failed: injected / completed", "ok"]
        assert all("u_l2_diff" not in r and "v_l2_diff" not in r for r in rows[:2])
        assert rows[2]["u_l2_diff"] > 0 and rows[2]["v_l2_diff"] > 0

    def test_rung_files_removed_on_every_exit(self, tmp_path, monkeypatch):
        # the rung trajectories live in a temporary directory that goes away
        # after a failed rung and after an exception alike
        root = tmp_path / "tmp-root"
        root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(root))

        def solve(u0, v0, params, run):
            if run.eps == 0.1:
                raise SolverError("injected")
            return solve_perturbed(u0, v0, params, run)

        monkeypatch.setattr(cli, "solve_perturbed", solve)
        cfg = tiny_config()
        cfg["sweep"] = {"eps_ladder": [0.2, 0.1, 0.05]}
        assert do_sweep(cfg, tmp_path / "out", workers=1) == 1
        assert list(root.iterdir()) == []

        def unreadable(path, run):
            raise ValueError("injected read failure")

        monkeypatch.setattr(cli, "TrajectoryFile", unreadable)
        with pytest.raises(ValueError, match="injected read failure"):
            do_sweep(cfg, tmp_path / "out", workers=2)
        assert list(root.iterdir()) == []

    def test_parent_holds_no_rung(self, tmp_path, monkeypatch):
        # with the solves in two workers, the parent's table phase compares
        # the rung files block by block and allocates less than one rung
        peaks = []

        class TracedTable(ConvergenceTable):
            def __init__(self, *args):
                tracemalloc.start()
                try:
                    super().__init__(*args)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()

        monkeypatch.setattr(cli, "ConvergenceTable", TracedTable)
        cfg = tiny_config(grid={"L": 16.0, "N": 2048}, time={"T": 0.2, "dt": 0.001},
                          diagnostics={"store_every": 1})
        cfg["sweep"] = {"eps_ladder": [0.2, 0.1, 0.05]}
        assert do_sweep(cfg, tmp_path / "out", workers=2) == 0
        rung_bytes = 201 * (3 * (2048 // 3) + 2) * 16
        assert len(peaks) == 1 and peaks[0] < rung_bytes

    def test_at_most_two_rungs_on_disk_per_pair_row(self, tmp_path, monkeypatch):
        # a rung's files go once its pair row with the next rung is formed,
        # so each row is formed beside two rungs, a header and a sidecar each
        root = tmp_path / "tmp-root"
        root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(root))
        files = []

        def counted(t1, t2):
            files.append(sorted(p.name for p in root.glob("*/*")))
            return l2_spacetime_diff(t1, t2)

        monkeypatch.setattr(solver, "l2_spacetime_diff", counted)
        cfg = tiny_config()
        cfg["sweep"] = {"eps_ladder": [0.2, 0.1, 0.05, 0.025]}
        assert do_sweep(cfg, tmp_path / "out", workers=1) == 0
        assert files == [[f"rung{i}.jsonl", f"rung{i}.npy", f"rung{i + 1}.jsonl",
                          f"rung{i + 1}.npy"] for i in range(3)]
        assert list(root.iterdir()) == []

    @pytest.mark.parametrize("bad", [0.2, 0.1, 0.05], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_corrupted_rung_is_refused_before_the_report(self, tmp_path, monkeypatch, bad,
                                                         workers):
        root = tmp_path / "tmp-root"
        root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(root))
        write = cli.write_trajectory

        def corrupting(path, traj, chash):
            write(path, traj, chash)
            if traj.run.eps == bad:
                sidecar = Path(path).with_suffix(".npy")
                blob = bytearray(sidecar.read_bytes())
                blob[len(blob) // 2] ^= 1
                sidecar.write_bytes(blob)

        monkeypatch.setattr(cli, "write_trajectory", corrupting)
        cfg = tiny_config()
        cfg["sweep"] = {"eps_ladder": [0.2, 0.1, 0.05]}
        with pytest.raises(ValueError, match="rung[0-2].npy: sha256 does not match the header"):
            do_sweep(cfg, tmp_path / "out", workers=workers)
        assert not (tmp_path / "out" / "sweep_report.json").exists()
        assert list(root.iterdir()) == []

    def test_streamed_differences_are_bit_equal_to_in_memory(self, tmp_path):
        # rung files read block by block, a partial last block among them,
        # give the very floats of the same rungs held in memory, alone and
        # in a whole sweep
        t1 = _banded_trajectory(256, 2 * BLOCK_SAMPLES + 3)
        t2 = replace(t1, bands=t1.bands[::-1])
        files = []
        for i, traj in enumerate((t1, t2)):
            cli.write_trajectory(tmp_path / f"t{i}.jsonl", traj, "h")
            files.append(cli.TrajectoryFile(tmp_path / f"t{i}.jsonl", traj.run))
        expected = l2_spacetime_diff(t1, t2)
        assert l2_spacetime_diff(*files) == expected
        assert l2_spacetime_diff(files[0], t2) == expected

        cfg = tiny_config(time={"T": 0.2, "dt": 0.005}, diagnostics={"store_every": 1})
        cfg["sweep"] = {"eps_ladder": [0.2, 0.1, 0.05]}
        assert do_sweep(cfg, tmp_path / "out", workers=1) == 0
        report = json.loads((tmp_path / "out" / "sweep_report.json").read_text())
        _, params, run, u0, v0, extras = parse_config(cfg)
        table = vanishing_viscosity_sweep(u0, v0, params, extras["eps_ladder"], run)
        assert report["viscosity_table"] == table.rows()

    @pytest.mark.parametrize("workers", [0, -3])
    def test_nonpositive_workers_is_config_error(self, tmp_path, capsys, workers):
        config = _dump(tmp_path, dict(tiny_config(), sweep={"eps_ladder": [0.2, 0.1]}))
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o"),
                     "--workers", str(workers)]) == 2
        assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestVerifyVerb:
    def test_gronwall_suite_passes(self, tmp_path):
        assert do_verify("gronwall", seed=1, out_dir=tmp_path) == 0
        report = json.loads((tmp_path / "verify_gronwall.json").read_text())
        assert report["passed"]

    def test_unknown_suite_exit_code(self, capsys):
        assert do_verify("nonsense", seed=1, out_dir=None) == 2
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nonsense"])
        assert exc.value.code == 2

    def test_unknown_suite_named_before_any_output(self, tmp_path, capsys):
        assert do_verify("nonsense", seed=1, out_dir=tmp_path / "o") == 2
        out, err = capsys.readouterr()
        assert "--suite 'nonsense'" in err
        assert out == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("suite", ["gronwall", "operators"])
    def test_negative_seed_refused_before_any_suite_runs(self, tmp_path, capsys, suite):
        assert main(["verify", "--suite", suite, "--seed", "-1",
                     "--out", str(tmp_path / "o")]) == 2
        out, err = capsys.readouterr()
        assert "--seed" in err
        assert out == ""
        assert not (tmp_path / "o").exists()

    def test_out_naming_a_file_refused_before_any_suite_runs(self, tmp_path, capsys,
                                                             monkeypatch):
        import fswl.verify as V

        monkeypatch.setitem(V.SUITES, "gronwall", lambda seed: pytest.fail("a suite ran"))
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        assert main(["verify", "--suite", "gronwall", "--out", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert f"--out {out}" in err
        assert stdout == ""

    def test_key_error_inside_a_suite_propagates(self, monkeypatch):
        import fswl.verify as V

        def broken(seed):
            raise KeyError("a bug inside the suite")

        monkeypatch.setitem(V.SUITES, "gronwall", broken)
        with pytest.raises(KeyError, match="a bug inside the suite"):
            do_verify("gronwall", seed=1, out_dir=None)

    def test_seeded_report_byte_identical(self, tmp_path):
        do_verify("gronwall", seed=7, out_dir=tmp_path / "a")
        do_verify("gronwall", seed=7, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "verify_gronwall.json").read_bytes() == \
            (tmp_path / "b" / "verify_gronwall.json").read_bytes()


def _refuse(token):
    raise ValueError(f"non-standard JSON token {token}")


def _strict_loads(text: str):
    """JSON text parsed as RFC 8259 JSON, which has no NaN or Infinity."""
    return json.loads(text, parse_constant=_refuse)


def test_every_artifact_is_strict_json(tmp_path):
    config = _dump(tmp_path, dict(tiny_config(), sweep={"eps_ladder": [0.2, 0.1]}))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "sweep")]) == 0
    assert main(["verify", "--suite", "gronwall", "--out", str(tmp_path / "verify")]) == 0
    files = sorted(tmp_path.glob("*/*.json"))
    assert [p.name for p in files] == ["config.json", "summary.json", "sweep_report.json",
                                       "verify_gronwall.json"]
    for path in files:
        _strict_loads(path.read_text())
    lines = [line for path in sorted(tmp_path.glob("*/*.jsonl"))
             for line in path.read_text().splitlines()]
    # the two headers and one diagnostics row per sample
    assert len(lines) == 2 + parse_config(tiny_config())[2].n_samples
    for line in lines:
        _strict_loads(line)


def test_main_entry_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(tiny_config(grid={"L": 16.0, "N": 100})))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("verb", ["run", "sweep", "verify"])
def test_out_naming_a_file_is_config_error(tmp_path, capsys, verb):
    config = _dump(tmp_path, dict(tiny_config(), sweep={"eps_ladder": [0.2, 0.1]}))
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    given = ["--suite", "gronwall"] if verb == "verify" else ["--config", str(config)]
    assert main([verb, *given, "--out", str(out)]) == 2
    assert f"--out {out}" in capsys.readouterr().err
    assert out.read_text() == "not a directory\n"


def _directory(tmp_path: Path) -> Path:
    path = tmp_path / "a-directory.json"
    path.mkdir()
    return path


@pytest.mark.parametrize("verb", ["run", "sweep"])
@pytest.mark.parametrize("make", [
    lambda tmp: tmp / "missing.json",
    _directory,
    lambda tmp: _write(tmp / "malformed.json", b'{"grid": {"L": 16.0,'),
    lambda tmp: _write(tmp / "list.json", b"[1, 2]"),
    lambda tmp: _write(tmp / "number.json", b"7"),
    lambda tmp: _write(tmp / "latin1.json", b'{"seed": "\xe9"}'),
    lambda tmp: _write(tmp / "duplicate.json",
                       b'{"grid": {"L": 16, "N": 512}, "grid": {"L": 8, "N": 64}}'),
], ids=["missing", "directory", "malformed", "list", "number", "not-utf8", "duplicate-key"])
def test_config_file_faults_are_config_errors(tmp_path, capsys, verb, make):
    config = make(tmp_path)
    assert main([verb, "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert f"--config {config}" in capsys.readouterr().err


def _write(path: Path, blob: bytes) -> Path:
    path.write_bytes(blob)
    return path


@pytest.mark.parametrize("spec", [
    {"kind": "gaussian", "amplitude": 0.0, "mode": 4.5, "width": "x"},
    {"kind": "gaussian", "amplitude": 0.0, "mode": 4.5},
    {"kind": "gaussian", "amplitude": 0.0, "width": "x"},
    {"kind": "gaussian", "amplitude": 0.0, "width": 0.0},
    {"kind": "gaussian", "amplitude": 0.0, "center": math.nan},
    {"kind": "mode", "amplitude": 0.0, "mode": "3"},
    {"kind": "bump", "amplitude": 0.0},
])
def test_zero_amplitude_keys_still_validated(spec):
    # zero data takes a shortcut to the zero field, but not past validation
    cfg = tiny_config()
    cfg["initial"]["u0"] = spec
    with pytest.raises(ConfigError):
        parse_config(cfg)


def test_canonical_regression_run(tmp_path):
    # the bundled default config completes with every asserted invariant green
    assert do_run(canonical_config(), tmp_path / "out") == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["passed"]
    assert summary["mass_drift_rel"] <= 1e-8
    assert summary["v_sup_excess"] <= 1e-8
    assert summary["theta_margin_min"] > 0
    assert summary["H_margin_min"] > 0


def test_invariant_failure_exit_code(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "SUP_TOL", -1.0)
    assert do_run(tiny_config(), tmp_path / "out") == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert not summary["passed"]


def test_all_suite_aggregates(monkeypatch):
    import fswl.verify as V

    fake = {
        "one": lambda seed: [{"name": "a", "passed": True}],
        "two": lambda seed: [{"name": "b", "passed": True}],
    }
    monkeypatch.setattr(V, "SUITES", fake)
    report = V.run_suite("all", seed=3)
    names = {c["name"] for c in report["checks"]}
    assert names == {"one.a", "two.b"}
    assert report["passed"]


def test_non_divisible_time_grid_is_config_error(tmp_path):
    cfg = tiny_config()
    cfg["time"] = {"T": 1.0, "dt": 0.3}
    with pytest.raises(ConfigError, match="integer multiple"):
        parse_config(cfg)
    assert main(["run", "--config", str(_dump(tmp_path, cfg)),
                 "--out", str(tmp_path / "o")]) == 2


def _dump(tmp_path, cfg):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return p


def test_unreachable_contraction_cap_fails_fast(tmp_path):
    # large data shrink the a-priori contraction cap below dt/2^MAX_HALVINGS;
    # the run must stop at once instead of taking ~10^5 sub-steps per dt
    cfg = canonical_config()
    cfg["initial"]["u0"]["amplitude"] = 1e3
    cfg["time"]["T"] = 0.2
    start = time.perf_counter()
    assert do_run(cfg, tmp_path / "out") == 3
    assert time.perf_counter() - start < 30.0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["status"] == "solver_failure"
    assert "contraction cap" in summary["detail"]


def test_unaffordable_substep_count_fails_fast(tmp_path, monkeypatch):
    # amplitude 64 gets a contraction cap of dt/512; T = 100 would take
    # 10^5 base steps of 512 sub-steps each, hours of work, so the run must
    # stop before its first step
    monkeypatch.setattr(_Stepper, "step", lambda *args: pytest.fail("a step was taken"))
    cfg = canonical_config()
    cfg["initial"]["u0"]["amplitude"] = 64.0
    cfg["time"]["T"] = 100.0
    start = time.perf_counter()
    assert main(["run", "--config", str(_dump(tmp_path, cfg)), "--out", str(tmp_path / "o")]) == 3
    assert time.perf_counter() - start < 1.0
    detail = json.loads((tmp_path / "o" / "summary.json").read_text())["detail"]
    assert detail.startswith("51200000 sub-steps (100000 base steps of dt/512 under the "
                             "a-priori contraction cap ")
    assert "R = 2.7" in detail and detail.endswith("exceed the limit of 1000000")


def test_tolerance_below_roundoff_collapse_names_picard_tol(tmp_path, capsys, monkeypatch):
    # the Picard distances stall at roundoff, far above 1e-300, so every
    # step diverges and halves down to a collapse; the message must name the
    # stall and the tolerance, not only the step size
    monkeypatch.setattr(solver, "PICARD_TOL", 1e-300)
    cfg = canonical_config()
    cfg["time"]["T"] = 0.01
    start = time.perf_counter()
    assert main(["run", "--config", str(_dump(tmp_path, cfg)), "--out", str(tmp_path / "o")]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert re.search(r"Picard stalled \(last distance \S+ after \d+ sweeps, "
                     r"picard_tol = 1e-300\); step collapsed below dt/2\^12 near t=", err)


@pytest.mark.parametrize("path, value", [
    (("grid", "L"), math.nan),
    (("grid", "N"), math.inf),
    (("system", "alpha"), math.inf),
    (("system", "g", "M"), math.nan),
    (("perturbation", "eps"), math.nan),
    (("time", "T"), math.inf),
    (("time", "picard_tol"), math.nan),
    (("initial", "u0", "amplitude"), math.nan),
    (("initial", "v0", "width"), 0.0),
    (("diagnostics", "blowup_factor"), -math.inf),
    (("system", "gamma"), math.nan),
    (("sweep", "eps_ladder"), [0.2, math.nan]),
    (("time", "picard_tol"), -1.0),
    (("time", "picard_max_iter"), 0),
    (("time", "dt"), 1e-300),
    (("sweep", "eps_ladder"), ["0.1", 0.2]),
    (("sweep", "eps_ladder"), [1.5, 0.1]),
    # integer fields take an int or an integral float, never a truncation
    (("grid", "N"), 64.5),
    (("grid", "N"), "64"),
    (("perturbation", "a"), 4.5),
    (("perturbation", "b"), True),
    (("perturbation", "b"), "7"),
    (("time", "picard_max_iter"), "50"),
    (("time", "picard_max_iter"), 50.5),
    (("diagnostics", "store_every"), True),
    (("diagnostics", "store_every"), 1.5),
    (("initial", "u0", "mode"), 4.5),
    (("initial", "u0", "mode"), True),
    (("seed",), 1.5),
    (("seed",), "11"),
    (("seed",), True),
    # a bool is not a number
    (("grid", "L"), True),
    (("system", "gamma"), True),
])
def test_invalid_number_is_config_error(tmp_path, path, value):
    cfg = tiny_config()
    _set(cfg, path, value)
    with pytest.raises(ConfigError):
        parse_config(cfg)
    assert main(["run", "--config", str(_dump(tmp_path, cfg)),
                 "--out", str(tmp_path / "o")]) == 2


def _set(cfg: dict, path: tuple, value) -> None:
    node = cfg
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value


# Numeric leaves of the canonical config and the hostile values written
# into them: non-finite, signed, zero and out-of-type replacements.
_LEAVES = [
    ("grid", "L"), ("grid", "N"),
    ("system", "alpha"), ("system", "beta"), ("system", "s"), ("system", "gamma"),
    ("system", "g", "m"), ("system", "g", "M"),
    ("perturbation", "eps"), ("perturbation", "a"), ("perturbation", "b"),
    ("time", "T"), ("time", "dt"), ("time", "picard_tol"), ("time", "picard_max_iter"),
    ("initial", "u0", "amplitude"), ("initial", "u0", "width"),
    ("initial", "u0", "center"), ("initial", "u0", "mode"),
    ("initial", "v0", "amplitude"), ("initial", "v0", "width"),
    ("diagnostics", "store_every"), ("diagnostics", "blowup_factor"),
]
_HOSTILE = [math.nan, math.inf, -math.inf, -1.0, 0.0, 0.5, 2.0, 1e-300, "x", None]


@given(st.lists(st.tuples(st.sampled_from(_LEAVES), st.sampled_from(_HOSTILE)),
                min_size=1, max_size=3))
@settings(max_examples=100)
def test_mutated_config_ends_in_documented_exit_code(mutations):
    cfg = canonical_config()
    cfg["grid"]["N"] = 32
    cfg["time"]["T"] = 0.02
    for path, value in mutations:
        _set(cfg, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = tmp / "cfg.json"
        config.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(config), "--out", str(tmp / "o")]) in {0, 1, 2, 3}


ROOT = Path(__file__).resolve().parent.parent

# Config faults, each with what its message must say.
_SCHEMA_FAULTS = {
    "unknown-key": (lambda c: c["time"].update(picard_tl=1e-10),
                    "unknown key time.picard_tl"),
    "misspelled-section": (lambda c: c.update(intial=c.pop("initial")), "unknown key intial"),
    "g-key-of-other-kind": (lambda c: c["system"].update(g={"kind": "zero", "c": 1.0}),
                            "unknown key system.g.c"),
    "amplitude-under-zero": (lambda c: c["initial"].update(u0={"kind": "zero", "amplitude": 0.0}),
                             "unknown key initial.u0.amplitude"),
    "width-under-mode": (
        lambda c: c["initial"].update(u0={"kind": "mode", "amplitude": 0.3, "mode": 2, "width": 1.0}),
        "unknown key initial.u0.width"),
    # a mode is not shifted: a center would be stated and not applied
    "center-under-mode": (
        lambda c: c["initial"].update(u0={"kind": "mode", "amplitude": 0.3, "mode": 2, "center": 5.0}),
        "unknown key initial.u0.center"),
    "section-not-object": (lambda c: c.update(diagnostics=5),
                           "diagnostics must be an object, got int"),
    "ladder-not-list": (lambda c: c.update(sweep={"eps_ladder": "0.2"}),
                        "sweep.eps_ladder must be a list"),
    "gate-changed": (lambda c: c.update(diagnostics={"mass_rtol": 0.5}),
                     "diagnostics.mass_rtol is fixed at 1e-08"),
    "missing-required": (lambda c: c["grid"].pop("N"), "missing key grid.N"),
    # T/dt overflows to inf: the step limit must catch it before round() does
    "step-count-overflow": (lambda c: c["time"].update(T=1e308, dt=1e-308),
                            "time.T/dt = inf steps exceeds the limit of 1000000"),
    "unknown-kind": (lambda c: c["initial"]["v0"].update(kind="bump"),
                     "initial.v0.kind must be one of"),
    # the Picard tolerance, the sweep cap and the blow-up factor are fixed
    # gates too, each read as its type first
    "picard-max-iter-above-bound": (lambda c: c["time"].update(picard_max_iter=1001),
                                    "time.picard_max_iter is fixed at 50"),
    "picard-tol-other": (lambda c: c["time"].update(picard_tol=1e-12),
                         "time.picard_tol is fixed at 1e-10"),
    "picard-max-iter-other": (lambda c: c["time"].update(picard_max_iter=49),
                              "time.picard_max_iter is fixed at 50"),
    "blowup-factor-other": (lambda c: c["diagnostics"].update(blowup_factor=1e5),
                            "diagnostics.blowup_factor is fixed at 1000000.0"),
    "picard-max-iter-fractional": (lambda c: c["time"].update(picard_max_iter=50.5),
                                   "time.picard_max_iter must be an integer, got 50.5"),
    "picard-max-iter-string": (lambda c: c["time"].update(picard_max_iter="50"),
                               "time.picard_max_iter must be an integer, got '50'"),
    "picard-max-iter-bool": (lambda c: c["time"].update(picard_max_iter=True),
                             "time.picard_max_iter must be an integer, got True"),
    # a range fault found by a constructor: its message is led by the field,
    # which parse_config replaces by the dotted key
    "grid-L-range": (lambda c: c["grid"].update(L=-1.0),
                     "grid.L must give a spacing 2L/N that is positive and finite, "
                     "got -1.0 at N = 64"),
    "grid-N-range": (lambda c: c["grid"].update(N=100),
                     "grid.N must be a power of two in [8, 65536], got 100"),
    "s-below-range": (lambda c: c["system"].update(s=0.4),
                      "system.s must lie in (1/2, 1), got 0.4"),
    "s-above-range": (lambda c: c["system"].update(s=1.5),
                      "system.s must lie in (1/2, 1), got 1.5"),
    "eps-range": (lambda c: c["perturbation"].update(eps=1.5),
                  "perturbation.eps must lie in (0, 1), got 1.5"),
    # the exponents are fixed gates: a config may only restate them, and
    # each is read as an integer first
    "a-range": (lambda c: c["perturbation"].update(a=8), "perturbation.a is fixed at 4"),
    "b-range": (lambda c: c["perturbation"].update(b=-2), "perturbation.b is fixed at 7"),
    "a-other-exponent": (lambda c: c["perturbation"].update(a=7), "perturbation.a is fixed at 4"),
    "b-integral-float": (lambda c: c["perturbation"].update(b=4.0), "perturbation.b is fixed at 7"),
    "a-fractional": (lambda c: c["perturbation"].update(a=4.5),
                     "perturbation.a must be an integer, got 4.5"),
    "b-bool": (lambda c: c["perturbation"].update(b=True),
               "perturbation.b must be an integer, got True"),
    "b-string": (lambda c: c["perturbation"].update(b="7"),
                 "perturbation.b must be an integer, got '7'"),
    # a mode is compared as an int with the band K = 64 // 3 = 21: beyond
    # the float range, aliased in floats, and one past the band
    "u0-mode-beyond-float": (lambda c: c["initial"]["u0"].update(mode=10**400),
                             f"initial.u0.mode must lie in [-21, 21] at grid.N = 64, "
                             f"got {10**400}"),
    "u0-mode-aliased": (lambda c: c["initial"]["u0"].update(mode=10**300),
                        f"initial.u0.mode must lie in [-21, 21] at grid.N = 64, "
                        f"got {10**300}"),
    "v0-mode-above-band": (lambda c: c["initial"]["v0"].update(mode=22),
                           "initial.v0.mode must lie in [-21, 21] at grid.N = 64, got 22"),
    "T-range": (lambda c: c["time"].update(T=-1.0), "time.T must be positive, got -1.0"),
    "dt-range": (lambda c: c["time"].update(dt=-1.0), "time.dt must be positive, got -1.0"),
    "picard-tol-range": (lambda c: c["time"].update(picard_tol=-1.0),
                         "time.picard_tol is fixed at 1e-10"),
    "picard-max-iter-zero": (lambda c: c["time"].update(picard_max_iter=0),
                             "time.picard_max_iter is fixed at 50"),
    "store-every-range": (lambda c: c["diagnostics"].update(store_every=0),
                          "diagnostics.store_every must be at least 1, got 0"),
    "blowup-factor-range": (lambda c: c["diagnostics"].update(blowup_factor=0.0),
                            "diagnostics.blowup_factor is fixed at 1000000.0"),
    # a negative c gives m = M = c < 0
    "g-linear-negative": (lambda c: c["system"].update(g={"kind": "linear", "c": -1.0}),
                          "system.g must have 0 <= m <= M < inf, got m=-1.0, M=-1.0"),
    "g-tanh-blend-m-above-M": (
        lambda c: c["system"].update(g={"kind": "tanh_blend", "m": 0.5, "M": 0.2}),
        "system.g must have 0 <= m <= M < inf, got m=0.5, M=0.2"),
    "eps-ladder-entry-range": (lambda c: c.update(sweep={"eps_ladder": [1.5, 0.1]}),
                               "sweep.eps_ladder entries must lie in (0, 1), got [1.5, 0.1]"),
    "eps-ladder-increasing": (lambda c: c.update(sweep={"eps_ladder": [0.1, 0.2]}),
                              "sweep.eps_ladder must be strictly decreasing, got [0.1, 0.2]"),
}


@pytest.mark.parametrize("edit, named", _SCHEMA_FAULTS.values(), ids=list(_SCHEMA_FAULTS))
def test_schema_fault_exits_2_naming_the_key(tmp_path, capsys, edit, named):
    cfg = tiny_config()
    edit(cfg)
    with pytest.raises(ConfigError) as fault:
        parse_config(cfg)
    assert str(fault.value).startswith(named)
    assert main(["run", "--config", str(_dump(tmp_path, cfg)),
                 "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {named}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mode", [-21, 21])
def test_mode_at_the_band_edge_is_kept(mode):
    # +-K is the last resolved mode: accepted, and the band projection keeps it
    cfg = tiny_config()
    cfg["initial"]["u0"] = {"kind": "mode", "amplitude": 0.3, "mode": mode}
    cfg["initial"]["v0"] = {"kind": "mode", "amplitude": 0.3, "mode": mode}
    grid, _, _, u0, v0, _ = parse_config(cfg)
    mask = grid.dealias_mask()
    for f in (u0, v0):
        assert np.linalg.norm(f.spectrum * mask) == pytest.approx(np.linalg.norm(f.spectrum))


# Configs with a value whose use leaves the float range, each with its exit
# code and what stderr must say; the canonical config at time.T 0.01.
_FLOAT_RANGE_FAULTS = {
    "a-beyond-float": ("run", ("perturbation", "a"), 10**400, 2,
                       f"perturbation.a must be a finite number, got {10**400}"),
    "b-beyond-float": ("run", ("perturbation", "b"), 10**400, 2,
                       f"perturbation.b must be a finite number, got {10**400}"),
    "a-beyond-float-sweep": ("sweep", ("perturbation", "a"), 10**400, 2,
                             f"perturbation.a must be a finite number, got {10**400}"),
    "b-beyond-float-sweep": ("sweep", ("perturbation", "b"), 10**400, 2,
                             f"perturbation.b must be a finite number, got {10**400}"),
    "L-spacing-underflow": ("run", ("grid", "L"), 5e-324, 2,
                            "grid.L must give a spacing 2L/N that is positive and finite, "
                            "got 5e-324 at N = 512"),
    "L-spacing-overflow": ("run", ("grid", "L"), 1e308, 2,
                           "grid.L must give a spacing 2L/N that is positive and finite, "
                           "got 1e+308 at N = 512"),
    **{f"L-wavenumber-overflow-{L}": (
        "run", ("grid", "L"), L, 2,
        f"grid.L must give a largest squared wavenumber (pi N / (2L))**2 that is finite, "
        f"got {L!r} at N = 512") for L in (1e-200, 1e-300, 1e-310)},
    "beta-square-overflow": ("run", ("system", "beta"), 1e308, 3,
                             "a-priori contraction cap 0.000e+00"),
    "M-square-overflow": ("run", ("system", "g", "M"), 1e308, 3,
                          "a-priori contraction cap 0.000e+00"),
}


@pytest.mark.parametrize("verb, path, value, code, said", _FLOAT_RANGE_FAULTS.values(),
                         ids=list(_FLOAT_RANGE_FAULTS))
def test_float_range_fault_ends_in_its_exit_code(tmp_path, capsys, verb, path, value, code,
                                                said):
    cfg = canonical_config()
    cfg["time"]["T"] = 0.01
    cfg["sweep"] = {"eps_ladder": [0.2, 0.1]}  # two rungs, for the sweep case
    _set(cfg, path, value)
    out = tmp_path / "o"
    assert main([verb, "--config", str(_dump(tmp_path, cfg)), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert said in err and "Traceback" not in err
    if code == 2:
        assert err.startswith(f"config error: {'.'.join(path)} ")
        assert not out.exists()


@pytest.mark.parametrize("key", ["alpha", "beta"])
def test_coupling_beyond_float_range_on_zero_data(tmp_path, capsys, key):
    # the squared coupling constant of the theta and H envelopes is inf, and
    # the data norm it multiplies is 0: the term reads 0, not NaN
    cfg = canonical_config()
    cfg["time"]["T"] = 0.01
    cfg["initial"] = {"u0": {"kind": "zero"}, "v0": {"kind": "zero"}}
    cfg["system"][key] = 1e200
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(_dump(tmp_path, cfg)), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((out / "summary.json").read_text())
    assert summary["theta_margin_min"] == 0.0 and summary["H_margin_min"] == 0.0
    assert summary["passed"]


def test_envelope_past_the_exp_range_has_finite_margins(tmp_path, capsys, monkeypatch):
    # at time.T 720, exp(T) overflows to inf: against alpha = 0 and against
    # the accumulated integrals at t = 0 it reads 0, not NaN.  The trajectory
    # holds the data still at the run's sample times, so no 72,000-step
    # solve is taken.
    cfg = canonical_config()
    cfg["grid"]["N"] = 16
    cfg["system"]["alpha"] = 0.0
    cfg["time"].update(T=720.0, dt=0.01)
    cfg["diagnostics"]["store_every"] = 10000

    def held_still(u0, v0, params, run):
        band, K = solver._band(u0.grid)
        row = np.concatenate((u0.spectrum[band], v0.spectrum[: K + 1]))
        steps = np.minimum(np.arange(run.n_samples) * run.store_every, run.n_steps)
        return Trajectory(grid=u0.grid, params=params, run=run, times=steps * run.dt,
                          bands=np.tile(row, (run.n_samples, 1)))

    monkeypatch.setattr(cli, "solve_perturbed", held_still)
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(_dump(tmp_path, cfg)), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    summary = _strict_loads((out / "summary.json").read_text())
    assert set(summary["checks"]) >= {"theta_envelope", "H_envelope"}
    assert summary["theta_margin_min"] > 0.0 and float(summary["H_margin_min"]) == math.inf


@pytest.mark.parametrize("initial, key, value", [
    ("u0", "width", 1e-300), ("v0", "width", 1e-300), ("u0", "center", 1e300)])
def test_gaussian_tail_beyond_float_range_is_zero(tmp_path, capsys, initial, key, value):
    # the squared scaled offset overflows to inf away from the center, and
    # exp(-inf) = 0 is the value meant: no warning, no traceback
    cfg = canonical_config()
    cfg["time"]["T"] = 0.01
    cfg["initial"][initial][key] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(_dump(tmp_path, cfg)),
                     "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("a, b", [(4, 7), (4.0, 7.0), (None, None)])
def test_exponent_gates_accept_the_fixed_exponents(a, b):
    # a config may restate a = 4 and b = 7, as an int or an integral float,
    # or leave them out; either way the run is the same
    cfg = tiny_config()
    for key, value in (("a", a), ("b", b)):
        if value is None:
            del cfg["perturbation"][key]
        else:
            cfg["perturbation"][key] = value
    assert parse_config(cfg)[2] == parse_config(tiny_config())[2]


def test_every_field_key_has_a_range_case():
    # a constructor check whose field gets a key must also get a case above
    named = [named for _, named in _SCHEMA_FAULTS.values()]
    assert [key for key in cli._FIELD_KEYS.values()
            if not any(n.startswith(key + " ") for n in named)] == []


def test_unaffordable_storage_is_refused_before_any_file(tmp_path, capsys):
    # 10^6 base steps at N = 65536, each one stored: 977 GiB of band rows,
    # refused by parse_config before anything is allocated or written
    cfg = canonical_config()
    cfg["grid"]["N"] = 65536
    cfg["time"].update(T=1000.0, dt=1e-3)
    cfg["diagnostics"]["store_every"] = 1
    start = time.perf_counter()
    assert main(["run", "--config", str(_dump(tmp_path, cfg)), "--out", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - start < 1.0
    assert ("config error: grid.N = 65536, time.T/dt = 1000000 and diagnostics.store_every = 1 "
            "store 1048593048592 B of samples, over the limit of 536870912 B"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("verb", ["run", "sweep"])
@pytest.mark.parametrize("rungs, alphas, named", [
    (1001, 0, "sweep.eps_ladder give 1001 runs"),
    (0, 1001, "sweep.alpha_grid give 1001 runs"),
    (999, 2, "sweep.eps_ladder and sweep.alpha_grid give 1001 runs"),
])
def test_unaffordable_sweep_is_refused_before_any_file(tmp_path, capsys, verb, rungs, alphas,
                                                      named):
    # the canonical run takes 1000 base steps, so 1001 runs of it are over
    # the 10^6 base steps a sweep may take in all
    cfg = canonical_config()
    cfg["sweep"] = {"eps_ladder": [0.5 - 1e-4 * i for i in range(rungs)],
                    "alpha_grid": [0.1] * alphas}
    assert main([verb, "--config", str(_dump(tmp_path, cfg)), "--out", str(tmp_path / "o")]) == 2
    assert (f"config error: {named} of time.T/dt = 1000 base steps, 1001000 in all, "
            f"over the limit of 1000000" in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


def test_sweep_steps_limit_is_inclusive():
    cfg = canonical_config()
    cfg["sweep"] = {"eps_ladder": [0.5 - 1e-4 * i for i in range(999)], "alpha_grid": [0.1]}
    parse_config(cfg)


def test_stored_bytes_limit_is_inclusive(monkeypatch):
    # the canonical run stores 201 samples of 3K + 2 = 512 complex modes
    cfg = canonical_config()
    monkeypatch.setattr(cli, "MAX_STORED_BYTES", 201 * 512 * 16)
    parse_config(cfg)
    monkeypatch.setattr(cli, "MAX_STORED_BYTES", 201 * 512 * 16 - 1)
    with pytest.raises(ConfigError, match="store 1646592 B of samples, over the limit"):
        parse_config(cfg)


def test_duplicate_key_is_named(tmp_path, capsys):
    config = _write(tmp_path / "cfg.json", b'{"seed": 1, "grid": {"L": 16, "L": 8, "N": 64}}')
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "duplicate key 'L'" in capsys.readouterr().err


def test_gate_keys_accepted_only_at_the_fixed_gates():
    # each gate key may restate its fixed value, an int gate also as an
    # integral float, and the run is the one without the keys; the schema
    # faults above refuse any other value
    plain = parse_config(tiny_config())[2]
    for value in (solver.PICARD_MAX_ITER, float(solver.PICARD_MAX_ITER)):
        cfg = tiny_config()
        cfg["perturbation"].update(a=EXPONENT_A, b=EXPONENT_B)
        cfg["time"].update(picard_tol=solver.PICARD_TOL, picard_max_iter=value)
        cfg["diagnostics"].update(blowup_factor=solver.BLOWUP_FACTOR, mass_rtol=cli.MASS_RTOL,
                                  sup_tol=cli.SUP_TOL)
        assert parse_config(cfg)[2] == plain


def test_missing_initial_data_and_kind_share_the_default():
    # a missing u0 and a u0 without kind are both a gaussian of amplitude 0
    cfg = tiny_config()
    del cfg["initial"]["u0"]
    assert not np.any(parse_config(cfg)[3].values)
    del cfg["initial"]["v0"]["kind"]
    cfg["initial"]["u0"] = {"amplitude": 0.35, "mode": 3}
    _, _, _, u0, v0, _ = parse_config(cfg)
    _, _, _, u0_gauss, v0_gauss, _ = parse_config(tiny_config())
    assert np.array_equal(u0.values, u0_gauss.values)
    assert np.array_equal(v0.values, v0_gauss.values)


# Every committed config: the bundled ones and those the benchmark runs.
_COMMITTED_CONFIGS = sorted([*(ROOT / "src" / "fswl" / "configs").glob("*.json"),
                             *(ROOT / "bench" / "configs").glob("*.json")])


def test_committed_configs_are_found():
    assert {p.stem for p in _COMMITTED_CONFIGS} >= {"canonical", "eps_sweep"}


@pytest.mark.parametrize("path", _COMMITTED_CONFIGS, ids=lambda p: p.stem)
def test_bundled_configs_parse(path):
    # read only: a schema change that refuses a committed config fails here
    grid, *_, extras = parse_config(cli._load_config(path))
    assert grid.n_points in (512, 2048) and extras["seed"] == 1234


def test_readme_config_example_parses():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("A config is a single JSON file", 1)[1]
    block = block.split("```json\n", 1)[1].split("```", 1)[0]
    grid, params, run, u0, v0, extras = parse_config(json.loads(block))
    assert extras["eps_ladder"] and extras["alpha_grid"]


def _key_paths(node: dict, path: tuple = ()):
    for key, value in node.items():
        yield path + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, path + (key,))


def _node(cfg: dict, path: tuple):
    for key in path:
        cfg = cfg[key]
    return cfg


@st.composite
def _structural_edits(draw):
    """A small canonical config after one to three structural edits, and the
    dotted paths the edits touched: a key deleted or renamed, an unknown key
    inserted, or a section replaced by a list, a number or null."""
    cfg = canonical_config()
    cfg["grid"]["N"] = 32
    cfg["time"]["T"] = 0.02
    touched = []
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["delete", "rename", "insert", "replace"]))
        sections = [()] + [p for p in _key_paths(cfg) if isinstance(_node(cfg, p), dict)]
        keys = list(_key_paths(cfg))
        if op == "insert":
            path = draw(st.sampled_from(sections)) + ("extra",)
            _node(cfg, path[:-1])[path[-1]] = 1.0
        elif op == "replace":
            path = draw(st.sampled_from(sections[1:]))
            _node(cfg, path[:-1])[path[-1]] = draw(st.sampled_from([[], [1.0], 7, None]))
        else:
            path = draw(st.sampled_from(keys))
            parent = _node(cfg, path[:-1])
            value = parent.pop(path[-1])
            if op == "rename":
                path = path[:-1] + (path[-1] + "x",)
                parent[path[-1]] = value
        touched.append(path)
    return cfg, touched


@given(_structural_edits())
@settings(max_examples=60)
def test_structural_edit_ends_in_documented_exit_code(edited):
    cfg, touched = edited
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = tmp / "cfg.json"
        config.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(config), "--out", str(tmp / "o")])
    assert code in {0, 1, 2, 3}
    if code == 2:
        # the message names a touched key or the section that holds it
        named = {".".join(p[:n]) for p in touched for n in (len(p) - 1, len(p)) if n}
        assert any(name in err.getvalue() for name in named), (err.getvalue(), touched)
