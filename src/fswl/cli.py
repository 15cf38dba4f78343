"""Experiment orchestration: configured runs, sweeps, verification suites.

One JSON config describes a run end to end; every output file embeds the
config hash and the artifact version, and identical config + seed produces
byte-identical files (no timestamps, sorted keys, repr-stable floats).
Every JSON artifact is strict JSON: a non-finite float is written as the
string "NaN", "Infinity" or "-Infinity", which float() reads back.

Exit codes: 0 pass, 1 invariant failure, 2 config error, 3 solver blow-up.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import asdict, replace
from multiprocessing import get_context
from pathlib import Path
from typing import Iterator

import numpy as np

from .diagnostics import COLUMNS, smallness_condition, theta_envelope
from .grid import BLOCK_SAMPLES, Field, make_grid
from .propagators import EXPONENT_A, EXPONENT_B
from .solver import (
    BLOWUP_FACTOR,
    MAX_STEPS,
    MAX_STORED_BYTES,
    PICARD_MAX_ITER,
    PICARD_TOL,
    BlowupError,
    ConvergenceTable,
    PerturbedRun,
    SolverError,
    SystemParams,
    Trajectory,
    _band,
    g_linear,
    g_tanh_blend,
    g_zero,
    solve_perturbed,
)
from .verify import SUITES, run_suite

__all__ = [
    "ConfigError",
    "canonical_config",
    "config_hash",
    "parse_config",
    "write_trajectory",
    "TrajectoryFile",
    "read_trajectory",
    "do_run",
    "do_sweep",
    "do_verify",
    "main",
]

ARTIFACT_VERSION = "fswl-0.2.0"
TRAJECTORY_SCHEMA = 3

# The paper-facing gates of ``fswl run``: the largest relative mass drift
# and the largest rise of sup|v| over its initial value.  Fixed, so that no
# config can loosen them.
MASS_RTOL = 1e-8
SUP_TOL = 1e-8


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def _finite(raw, name: str) -> float:
    """A config number as a float: a number or a numeric string; a bool,
    NaN and the infinities are rejected."""
    with suppress(TypeError, ValueError, OverflowError):
        if not isinstance(raw, bool) and math.isfinite(value := float(raw)):
            return value
    raise ValueError(f"{name} must be a finite number, got {raw!r}")


def _integer(raw, name: str) -> int:
    """A config integer: an int or an integral float; a bool, a string or a
    fractional value is rejected rather than truncated."""
    if isinstance(raw, float) and raw.is_integer():
        return int(raw)
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ValueError(f"{name} must be an integer, got {raw!r}")
    return raw


def _finite_list(raw, name: str) -> list:
    """A config list of finite numbers, returned as given."""
    if not isinstance(raw, list):
        raise ValueError(f"{name} must be a list of numbers, got {raw!r}")
    for value in raw:
        _finite(value, f"{name} entry")
    return raw


def _fixed(value):
    """The reader of a gate key, which may only restate ``value`` and sets
    nothing; the key of an int gate is read through ``_integer`` first."""
    number = _integer if isinstance(value, int) else _finite

    def gate(raw, name: str) -> None:
        if _finite(number(raw, name), name) != value:
            raise ValueError(f"{name} is fixed at {value!r}")
    return gate


# Every key a config may hold, as nested sections of (reader, default); a
# reader takes the raw value and its dotted path.  A default of ... marks a
# required key.  A default of None, or a reader returning None, passes nothing
# on: the constructor that takes the key keeps its default.  A section
# {"kind": {kind: table}} takes the keys of its kind's table, the first kind
# by default.
_INITIAL = {"kind": {
    "gaussian": {"amplitude": (_finite, 0.0), "center": (_finite, 0.0),
                 "width": (_finite, 1.0), "mode": (_integer, 0)},
    "mode": {"amplitude": (_finite, 0.0), "mode": (_integer, 1)},
    "zero": {},
}}
_SCHEMA = {
    "grid": {"L": (_finite, ...), "N": (_integer, ...)},
    "system": {"alpha": (_finite, ...), "beta": (_finite, ...), "s": (_finite, ...),
               "gamma": (_finite, None),
               "g": {"kind": {"zero": {}, "linear": {"c": (_finite, None)},
                              "tanh_blend": {"m": (_finite, None), "M": (_finite, None)}}}},
    # configs may restate the fixed exponents, method constants and gates,
    # never change them
    "perturbation": {"eps": (_finite, 0.1), "a": (_fixed(EXPONENT_A), None),
                     "b": (_fixed(EXPONENT_B), None)},
    "time": {"T": (_finite, ...), "dt": (_finite, ...),
             "picard_tol": (_fixed(PICARD_TOL), None),
             "picard_max_iter": (_fixed(PICARD_MAX_ITER), None)},
    "diagnostics": {"store_every": (_integer, None),
                    "blowup_factor": (_fixed(BLOWUP_FACTOR), None),
                    "mass_rtol": (_fixed(MASS_RTOL), None), "sup_tol": (_fixed(SUP_TOL), None)},
    "initial": {"u0": _INITIAL, "v0": _INITIAL},
    "sweep": {"eps_ladder": (_finite_list, ()), "alpha_grid": (_finite_list, ())},
    "seed": (_integer, 1234),
}
_NONLINEARITIES = {"zero": g_zero, "linear": g_linear, "tanh_blend": g_tanh_blend}
# The dotted key of each field whose range a constructor checks; the message
# starts with the field, and parse_config puts the key in its place.
_FIELD_KEYS = {
    "half_length": "grid.L", "n_points": "grid.N", "s": "system.s", "g": "system.g",
    "eps": "perturbation.eps",
    "T": "time.T", "dt": "time.dt", "T/dt": "time.T/dt", "store_every": "diagnostics.store_every",
    "eps_ladder": "sweep.eps_ladder"}


def _read(raw, table: dict, prefix: str) -> dict:
    """Config section ``raw`` read through ``table``, ``prefix`` its dotted path
    and a dot; an unknown or missing key and a non-object section name it."""
    if not isinstance(raw, dict):
        raise ValueError(f"{prefix[:-1] or 'config'} must be an object, got {type(raw).__name__}")
    out, kinds = {}, table.get("kind")
    if kinds:
        kind = out["kind"] = raw.get("kind", next(iter(kinds)))
        if not (isinstance(kind, str) and kind in kinds):
            raise ValueError(f"{prefix}kind must be one of {sorted(kinds)}, got {kind!r}")
        table = kinds[kind]
    for key in raw:
        if key not in table and not (kinds and key == "kind"):
            raise ValueError(f"unknown key {prefix}{key}")
    for key, entry in table.items():
        if isinstance(entry, dict):
            out[key] = _read(raw.get(key, {}), entry, f"{prefix}{key}.")
            continue
        reader, default = entry
        value = reader(raw[key], prefix + key) if key in raw else default
        if value is ...:
            raise ValueError(f"missing key {prefix}{key}")
        if value is not None:
            out[key] = value
    return out


def canonical_config() -> dict:
    """The bundled default configuration (the repository's regression run)."""
    return json.loads((Path(__file__).parent / "configs" / "canonical.json").read_text())


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _initial_field(grid, spec: dict, flavor: str, name: str) -> Field:
    """The initial field of a read ``initial`` entry; ``name`` is its path.
    A mode outside the resolved band |j| <= N // 3, which the solver's band
    projection would drop, is refused; it is compared as an int, before a
    float conversion could overflow or alias it."""
    kind, K = spec["kind"], grid.n_points // 3
    if kind != "zero" and not -K <= spec["mode"] <= K:
        raise ValueError(f"{name}.mode must lie in [{-K}, {K}] at grid.N = {grid.n_points}, "
                         f"got {spec['mode']}")
    if kind == "gaussian" and spec["width"] == 0.0:
        raise ValueError(f"{name}.width must be nonzero")
    if kind == "zero" or spec["amplitude"] == 0.0:
        return Field.zero(grid, flavor=flavor)
    x, amp, kappa = grid.x, spec["amplitude"], np.pi * spec["mode"] / grid.half_length
    if kind == "gaussian":
        # a tail beyond the float range overflows to inf, and exp(-inf) is 0
        with np.errstate(over="ignore"):
            amp = amp * np.exp(-(((x - spec["center"]) / spec["width"]) ** 2))
        if flavor == "real":
            return Field(grid, amp, flavor=flavor)
    carrier = np.cos(kappa * x) if flavor == "real" else np.exp(1j * kappa * x)
    return Field(grid, amp * carrier, flavor=flavor)


def parse_config(config: dict):
    """Validate a config dict against ``_SCHEMA``; returns (grid, params,
    run, u0, v0, extras).  Every fault is a ConfigError that names its key."""
    try:
        c = _read(config, _SCHEMA, "")
        grid = make_grid(**c["grid"])
        g = c["system"].pop("g")
        params = SystemParams(**c["system"], g=_NONLINEARITIES[g.pop("kind")](**g))
        run = PerturbedRun(**c["perturbation"], **c["time"], **c["diagnostics"])
        if (size := run.n_samples * 16 * (3 * _band(grid)[1] + 2)) > MAX_STORED_BYTES:
            raise ValueError(f"grid.N = {grid.n_points}, time.T/dt = {run.n_steps} and "
                             f"diagnostics.store_every = {run.store_every} store {size} B of "
                             f"samples, over the limit of {MAX_STORED_BYTES} B")
        u0 = _initial_field(grid, c["initial"]["u0"], "complex", "initial.u0")
        v0 = _initial_field(grid, c["initial"]["v0"], "real", "initial.v0")
        ConvergenceTable.check_ladder(c["sweep"]["eps_ladder"])
        lists = {key: len(c["sweep"][key]) for key in ("eps_ladder", "alpha_grid")}
        if (steps := sum(lists.values()) * run.n_steps) > MAX_STEPS:
            raise ValueError(
                " and ".join(f"sweep.{key}" for key, n in lists.items() if n)
                + f" give {sum(lists.values())} runs of time.T/dt = {run.n_steps} base steps, "
                f"{steps} in all, over the limit of {MAX_STEPS}")
    except (TypeError, ValueError, OverflowError) as exc:
        field, sep, rest = str(exc).partition(" ")
        raise ConfigError(_FIELD_KEYS.get(field, field) + sep + rest) from exc
    return grid, params, run, u0, v0, {"seed": c["seed"], **c["sweep"]}


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

_NON_FINITE = {math.inf: "Infinity", -math.inf: "-Infinity"}


def _strict(obj):
    """``obj`` with every non-finite float, at any depth, replaced by its
    string spelling "NaN", "Infinity" or "-Infinity"."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return _NON_FINITE.get(obj, "NaN")
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_strict(value) for value in obj]
    return obj


def _write_json(path: Path, *objs, indent: int | None = None) -> None:
    """Write each of ``objs`` to ``path`` as strict JSON with sorted keys,
    each ending in a newline; ``indent`` as for ``json.dumps``."""
    path.write_text("".join(
        json.dumps(_strict(obj), sort_keys=True, indent=indent, allow_nan=False) + "\n"
        for obj in objs))


def write_trajectory(path: Path, traj: Trajectory, chash: str) -> None:
    """A one-line JSON header at ``path`` and the band rows ``traj.bands``
    in a binary sidecar next to it (``path`` with suffix ``.npy``): one
    complex128 array of shape [n_samples, 3K+2], each row u_j for
    j = 0..K, -K..-1, then v_j for j = 0..K, whose file bytes the header
    pins by sha256.  The rows were checked when ``traj`` was built."""
    path = Path(path)
    sidecar = path.with_suffix(".npy")
    grid = traj.grid
    K = _band(grid)[1]
    head = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        head, {"descr": "<c16", "fortran_order": False, "shape": traj.bands.shape})
    digest = hashlib.sha256(head.getvalue())
    digest.update(traj.bands)
    with sidecar.open("wb") as fh:
        fh.write(head.getvalue())
        fh.write(traj.bands)
    header = {
        "artifact_version": ARTIFACT_VERSION,
        "config_hash": chash,
        "schema": TRAJECTORY_SCHEMA,
        "kind": "trajectory_header",
        "grid": {"L": grid.half_length, "N": grid.n_points},
        "eps": traj.run.eps,
        "n_samples": len(traj),
        "times": traj.times.tolist(),
        "spectra_file": sidecar.name,
        "spectra_sha256": digest.hexdigest(),
        "spectra_layout": f"complex128 [n_samples, 3K+2], K = {K}: "
                          "u_j for j = 0..K, -K..-1, then v_j for j = 0..K",
    }
    _write_json(path, header)


class TrajectoryFile:
    """What ``write_trajectory`` wrote for the run ``run``, opened for a
    pass over its band rows: like a Trajectory it gives ``grid``, ``times``
    and ``blocks()``, so ``l2_spacetime_diff`` compares two files without
    loading either.  Opening raises ValueError when the header is not this
    schema or its eps or sample count is not ``run``'s, or when the
    sidecar's npy header or size does not match the JSON header; all of it
    is checked before any row is read or allocated."""

    def __init__(self, path: Path, run: PerturbedRun):
        path = Path(path)
        with path.open() as fh:
            header = json.loads(fh.readline())
        schema = header.get("schema") if isinstance(header, dict) else None
        if schema != TRAJECTORY_SCHEMA:
            raise ValueError(f"{path}: trajectory schema {schema!r}, expected {TRAJECTORY_SCHEMA}")
        try:
            self.grid = make_grid(header["grid"]["L"], header["grid"]["N"])
            eps = header["eps"]
            n = int(header["n_samples"])
            self.times = np.array(header["times"], dtype=np.float64)
            name = header["spectra_file"]
            self._digest = header["spectra_sha256"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{path}: malformed trajectory header: {exc!r}") from exc
        if Path(name).name != name:
            raise ValueError(f"{path}: spectra_file must be a file name, got {name!r}")
        if self.times.shape != (n,):
            raise ValueError(f"{path}: {self.times.size} times for {n} samples")
        if eps != run.eps:
            raise ValueError(f"{path}: eps {eps!r} in the header, {run.eps!r} in the run")
        if n != run.n_samples:
            raise ValueError(f"{path}: n_samples {n} in the header, {run.n_samples} for the run")
        self.sidecar = sidecar = path.parent / name
        self.shape = (n, 3 * _band(self.grid)[1] + 2)
        with sidecar.open("rb") as fh:
            if np.lib.format.read_magic(fh) != (1, 0):
                raise ValueError(f"{sidecar}: not a version 1.0 npy file")
            layout = np.lib.format.read_array_header_1_0(fh)
            expected = (self.shape, False, np.dtype("<c16"))
            if layout != expected:
                raise ValueError(f"{sidecar}: shape, fortran_order and dtype {layout}, "
                                 f"expected {expected}")
            self._offset = fh.tell()
        size, self._size = sidecar.stat().st_size, self._offset + n * self.shape[1] * 16
        if size != self._size:
            raise ValueError(f"{sidecar}: {size} bytes, expected {self._size}")

    def __len__(self) -> int:
        return self.shape[0]

    def blocks(self, out: np.ndarray | None = None) -> Iterator[np.ndarray]:
        """The band rows, BLOCK_SAMPLES samples at a time, each read into one
        reused block buffer, or into its rows of ``out`` when given.  The
        file is hashed from the same bytes, and a hash that does not match
        the header is a ValueError after the last block."""
        n = len(self)
        if out is None:
            buffer = np.empty((BLOCK_SAMPLES, self.shape[1]), dtype="<c16")
        with self.sidecar.open("rb") as fh:
            sha = hashlib.sha256(fh.read(self._offset))
            for lo in range(0, n, BLOCK_SAMPLES):
                rows = min(BLOCK_SAMPLES, n - lo)
                block = buffer[:rows] if out is None else out[lo : lo + rows]
                if fh.readinto(memoryview(block).cast("B")) != block.nbytes:
                    raise ValueError(f"{self.sidecar}: shorter than {self._size} bytes")
                sha.update(block)
                yield block
        if sha.hexdigest() != self._digest:
            raise ValueError(f"{self.sidecar}: sha256 does not match the header")


def read_trajectory(path: Path, params: SystemParams, run: PerturbedRun) -> Trajectory:
    """Load what ``write_trajectory`` wrote for the run ``run`` of the system
    ``params``: the sidecar is read through ``TrajectoryFile`` into the
    trajectory's band rows, returned read-only.  Raises ValueError as
    opening a TrajectoryFile does, or when the hash does not match."""
    source = TrajectoryFile(path, run)
    bands = np.empty(source.shape, dtype="<c16")
    for _ in source.blocks(out=bands):
        pass
    return Trajectory(grid=source.grid, params=params, run=run, times=source.times, bands=bands)


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------

def _make_out_dir(out_dir: Path) -> None:
    """Create the ``--out`` directory; a path that cannot be one, such as an
    existing file, is a ConfigError."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out_dir} cannot be a directory: {exc.strerror}") from exc


def do_run(config: dict, out_dir: Path) -> int:
    _, params, run, u0, v0, _ = parse_config(config)
    chash = config_hash(config)
    _make_out_dir(out_dir)
    _write_json(out_dir / "config.json",
                {"artifact_version": ARTIFACT_VERSION, "config_hash": chash,
                 "config": config}, indent=1)
    try:
        traj = solve_perturbed(u0, v0, params, run)
    except SolverError as exc:
        status = "blowup" if isinstance(exc, BlowupError) else "solver_failure"
        _write_json(out_dir / "summary.json",
                    {"artifact_version": ARTIFACT_VERSION, "config_hash": chash,
                     "status": status, "detail": str(exc)}, indent=1)
        print(f"{status}: {exc}", file=sys.stderr)
        return 3

    series = theta_envelope(traj)
    small = smallness_condition(params, u0, v0, run.T, run.eps)

    mass0, sup0 = float(series.mass[0]), float(series.v_sup[0])
    mass_drift = float(np.max(np.abs(series.mass - mass0))) / max(mass0, 1e-300)
    sup_excess = float(np.max(series.v_sup)) - sup0

    checks = {
        "mass_conservation": bool(mass_drift <= MASS_RTOL),
        "max_principle": bool(sup_excess <= SUP_TOL),
    }
    # the envelope bounds are guaranteed only under the smallness condition;
    # outside it they are reported, not asserted
    if small.satisfied:
        checks["theta_envelope"] = series.theta_ok
        checks["H_envelope"] = series.H_ok

    summary = {
        "artifact_version": ARTIFACT_VERSION,
        "config_hash": chash,
        "status": "completed",
        "mass_drift_rel": mass_drift,
        "v_sup_initial": sup0,
        "v_sup_excess": sup_excess,
        "theta_margin_min": series.theta_margin_min,
        "H_margin_min": series.H_margin_min,
        "smallness": asdict(small),
        "checks": checks,
        "passed": all(checks.values()),
    }
    write_trajectory(out_dir / "trajectory.jsonl", traj, chash)
    rows = zip(*(getattr(series, name).tolist() for name in COLUMNS))
    _write_json(out_dir / "diagnostics.jsonl",
                {"artifact_version": ARTIFACT_VERSION, "config_hash": chash,
                 "kind": "diagnostics_header"},
                *(dict(zip(COLUMNS, row)) for row in rows))
    _write_json(out_dir / "summary.json", summary, indent=1)

    for name, ok in sorted(checks.items()):
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return 0 if summary["passed"] else 1


def _sweep_worker(job):
    """Solve one sweep job ``(u0, v0, params, run, path, chash)``.  A ladder
    rung, whose path is not None, is written there with ``write_trajectory``.
    Returns the status and that path, None when the solve failed or the job
    has no path."""
    *problem, path, chash = job
    try:
        traj = solve_perturbed(*problem)
    except BlowupError as exc:
        return f"blowup: {exc}", None
    except SolverError as exc:
        return f"failed: {exc}", None
    if path is not None:
        write_trajectory(path, traj, chash)
    return "completed", path


@contextmanager
def _fork_pool(workers: int):
    """A fork pool, terminated on exit.  When the block raises an Exception
    the pool first lets its jobs finish: terminating a worker while it sends
    a result can leave ``Pool.terminate`` waiting forever on the queue lock
    that worker held."""
    with get_context("fork").Pool(workers) as pool:
        try:
            yield pool
        except Exception:
            pool.close()
            pool.join()
            raise


def do_sweep(config: dict, out_dir: Path, workers: int = 1) -> int:
    _, params, run, u0, v0, extras = parse_config(config)
    if workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {workers}")
    chash = config_hash(config)
    ladder, alpha_grid = extras["eps_ladder"], extras["alpha_grid"]
    if not ladder and not alpha_grid:
        raise ConfigError("sweep needs sweep.eps_ladder or sweep.alpha_grid")
    _make_out_dir(out_dir)

    keys = [("eps", eps) for eps in ladder] + [("alpha", alpha) for alpha in alpha_grid]
    alpha_params = [replace(params, alpha=float(alpha)) for alpha in alpha_grid]
    rung_runs = [replace(run, eps=float(eps)) for eps in ladder]
    report = {"artifact_version": ARTIFACT_VERSION, "config_hash": chash}
    statuses = []
    with ExitStack() as stack:
        # Each ladder rung comes back as a trajectory file in a temporary
        # directory, and the table compares consecutive rungs block by block
        # from their files, so the parent holds no rung.
        tmp = Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="fswl-sweep-")))
        jobs = [(u0, v0, params, r, tmp / f"rung{i}.jsonl", chash)
                for i, r in enumerate(rung_runs)]
        jobs += [(u0, v0, sp, run, None, chash) for sp in alpha_params]
        workers = min(workers, len(jobs), os.cpu_count() or 1)
        if workers > 1:
            results = stack.enter_context(_fork_pool(workers)).imap(_sweep_worker, jobs)
        else:
            results = map(_sweep_worker, jobs)

        def rungs():
            previous = None
            for r, (status, path) in zip(rung_runs, results):
                statuses.append(status)
                yield status, None if path is None else TrajectoryFile(path, r)
                # the table asks for the next rung only after the pair row of
                # this one and the previous one, whose files are then done with
                if previous is not None:
                    previous.unlink()
                    previous.with_suffix(".npy").unlink()
                previous = path

        if ladder:
            table = ConvergenceTable(ladder, rungs())
            report["viscosity_table"] = table.rows()
            report["u_diffs_decreasing"], report["v_diffs_decreasing"] = (
                table.strictly_decreasing())
        statuses += [status for status, _ in results]

    if alpha_grid:
        cells = []
        for alpha, sp, status in zip(alpha_grid, alpha_params, statuses[len(ladder):]):
            small = smallness_condition(sp, u0, v0, run.T, run.eps)
            cells.append({
                "alpha": alpha,
                "status": status,
                "blowup": status.startswith("blowup"),
                "smallness_satisfied": small.satisfied,
                "smallness_lhs": small.lhs,
            })
        report["stability_map"] = cells
        report["no_blowup_inside_frontier"] = all(
            not c["blowup"] for c in cells if c["smallness_satisfied"]
        )

    _write_json(out_dir / "sweep_report.json", report, indent=1)
    for key, status in sorted(zip(keys, statuses), key=lambda r: repr(r[0])):
        print(f"{key}: {status}")
    return 1 if any(status != "completed" for status in statuses[:len(ladder)]) else 0


def do_verify(suite: str, seed: int, out_dir: Path | None) -> int:
    """Run one suite, or all.  An unknown suite, a negative seed and an
    ``--out`` that cannot be a directory exit 2 before any suite runs."""
    try:
        if suite != "all" and suite not in SUITES:
            raise ConfigError(f"--suite {suite!r} is unknown; choose from {[*SUITES, 'all']}")
        if seed < 0:
            raise ConfigError(f"--seed must be nonnegative, got {seed}")
        if out_dir is not None:
            _make_out_dir(out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    report = run_suite(suite, seed=seed)
    for row in report["checks"]:
        print(f"{'PASS' if row['passed'] else 'FAIL'} {row['name']}")
    if out_dir is not None:
        _write_json(out_dir / f"verify_{suite}.json", report, indent=1)
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------

def _unique_keys(pairs: list) -> dict:
    """The JSON object of ``pairs``; a key given twice is a ValueError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _load_config(path: Path) -> dict:
    """The JSON object in the ``--config`` file; a file that cannot be read,
    is not JSON, repeats a key or whose top level is not an object is a
    ConfigError."""
    try:
        config = json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"--config {path} cannot be read: {exc.strerror}") from exc
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"--config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(
            f"--config {path} must hold a JSON object, got {type(config).__name__}")
    return config


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fswl",
        description="Spectral solver and verification suite for the coupled "
                    "fractional short-wave/long-wave system.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="execute one configured run")
    p_sweep = sub.add_parser("sweep", help="eps-ladder and/or alpha-grid fan-out")
    for p in (p_run, p_sweep):
        p.add_argument("--config", type=Path, default=None,
                       help="JSON config (defaults to the bundled canonical run)")
        p.add_argument("--out", type=Path, required=True)
        p.add_argument("--seed", type=int, default=None,
                       help="replaces the config's seed, which only enters config.json and "
                            "the config hash: the solver draws no random numbers")
    p_sweep.add_argument("--workers", type=int, default=1)

    p_ver = sub.add_parser("verify", help="run a property suite")
    p_ver.add_argument("--suite", required=True, choices=[*SUITES, "all"])
    p_ver.add_argument("--seed", type=int, default=1234)
    p_ver.add_argument("--out", type=Path, default=None)

    args = parser.parse_args(argv)
    try:
        if args.verb in ("run", "sweep"):
            config = canonical_config() if args.config is None else _load_config(args.config)
            if args.seed is not None:
                config["seed"] = args.seed
            if args.verb == "run":
                return do_run(config, args.out)
            return do_sweep(config, args.out, workers=args.workers)
        return do_verify(args.suite, args.seed, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BlowupError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
