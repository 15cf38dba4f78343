"""Which fswl functions the traced run wraps, and the per-layer metrics
computed from the spans they record.

Each target is wrapped in its defining module and in every fswl module that
imported the same object under any name, so a call through an imported
alias (``verify`` calling ``frac_power_pointwise``, ``diagnostics`` calling
``cns_constant``) is recorded too.  Methods are wrapped on their class.
"""

from __future__ import annotations

import importlib
import math
import sys
from pathlib import Path

from tracer import Tracer, outermost, self_times

FSWL_MODULES = [
    "fswl", "fswl.grid", "fswl.fractional", "fswl.sobolev", "fswl.propagators",
    "fswl.gronwall", "fswl.solver", "fswl.diagnostics", "fswl.entropy",
    "fswl.verify", "fswl.cli",
]


def _step_attrs(args, kwargs, result):
    # _Stepper.step(self, u_spec, v_spec, dt) -> (u, v, sweeps): the sweep
    # count is only visible in this return value.
    dt = args[3] if len(args) > 3 else kwargs["dt"]
    return {"sweeps": int(result[2]), "dt": float(dt)}


def _fft_attrs(args, kwargs, result):
    arr = args[1]
    n = int(arr.shape[-1])
    return {"n": n, "rows": int(arr.size // n)}


def _traj_attrs(args, kwargs, result):
    traj = args[0]
    return {"traj": id(traj), "samples": len(traj)}


def _write_attrs(args, kwargs, result):
    return {"bytes": Path(args[0]).stat().st_size}


FUNCTIONS = [  # (module, attribute, attrs)
    ("fswl.cli", "main", None),
    ("fswl.cli", "parse_config", None),
    ("fswl.cli", "write_trajectory", _write_attrs),
    ("fswl.cli", "read_trajectory", None),
    ("fswl.cli", "do_run", None),
    ("fswl.cli", "do_sweep", None),
    ("fswl.cli", "do_verify", None),
    ("fswl.cli", "_sweep_worker", None),
    ("fswl.solver", "solve_perturbed", None),
    ("fswl.solver", "l2_spacetime_diff", None),
    ("fswl.diagnostics", "diagnose_trajectory", _traj_attrs),
    ("fswl.diagnostics", "theta_envelope", _traj_attrs),
    ("fswl.diagnostics", "record_diagnostics", None),
    ("fswl.diagnostics", "smallness_condition", None),
    ("fswl.fractional", "frac_laplacian_singular", None),
    ("fswl.fractional", "pair_correlation_integral", None),
    ("fswl.fractional", "cns_constant", None),
    ("fswl.sobolev", "hs_norm", None),
    ("fswl.sobolev", "random_band_limited", None),
    ("fswl.sobolev", "check_linf_interp", None),
    ("fswl.sobolev", "check_product_bound", None),
    ("fswl.sobolev", "check_chain_rule", None),
    ("fswl.sobolev", "check_algebra", None),
    ("fswl.entropy", "frac_power_pointwise", None),
    ("fswl.entropy", "remainder_Rk", None),
]

METHODS = [  # (module, class, method, attrs)
    ("fswl.solver", "_Stepper", "step", _step_attrs),
    ("fswl.grid", "GridSpec", "to_spectrum", _fft_attrs),
    ("fswl.grid", "GridSpec", "from_spectrum", _fft_attrs),
    ("fswl.fractional", "PeriodicInterpolant", "__call__", None),
]

SUITE_NAMES = ["operators", "inequalities", "propagators", "gronwall", "entropy", "weakform"]

STEP = "solver._Stepper.step"
FFTS = {"grid.GridSpec.to_spectrum", "grid.GridSpec.from_spectrum"}
SPLINE = "fractional.PeriodicInterpolant.__call__"
DIAGNOSTICS = {
    "diagnostics.diagnose_trajectory", "diagnostics.theta_envelope",
    "diagnostics.record_diagnostics", "diagnostics.smallness_condition",
}
SOBOLEV_ENSEMBLE = {
    "sobolev.hs_norm", "sobolev.random_band_limited", "sobolev.check_linf_interp",
    "sobolev.check_product_bound", "sobolev.check_chain_rule", "sobolev.check_algebra",
}
ENTROPY_POINTWISE = {"entropy.frac_power_pointwise", "entropy.remainder_Rk"}


def _span_name(module: str, *attrs: str) -> str:
    return ".".join([module.removeprefix("fswl.")] + list(attrs))


def install(tracer: Tracer) -> None:
    """Wrap every target; call after importing fswl, before running it."""
    modules = [importlib.import_module(m) for m in FSWL_MODULES]
    for modname, attr, attrs in FUNCTIONS:
        orig = getattr(sys.modules[modname], attr)
        wrapped = tracer.wrap(_span_name(modname, attr), orig, attrs)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
    for modname, cls_name, meth, attrs in METHODS:
        cls = getattr(sys.modules[modname], cls_name)
        setattr(cls, meth, tracer.wrap(_span_name(modname, cls_name, meth),
                                       cls.__dict__[meth], attrs))
    suites = sys.modules["fswl.verify"].SUITES
    for key, fn in list(suites.items()):
        suites[key] = tracer.wrap(f"verify.suite.{key}", fn)


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics of one traced invocation.

    ``*_s`` metrics sum the durations of the outermost spans of a layer, so
    they include callees in other layers and, for the sweep, add up the
    busy time of parallel workers.  ``*_self_s`` metrics exclude children.
    A layer that did not run reports 0.
    """
    selfs = self_times(spans)

    def named(*names):
        return [s for s in spans if s[2] in names]

    def busy(*names):
        return float(sum(end - start for _, _, _, start, end, _ in outermost(spans, set(names))))

    def attr_sum(found, key):
        return sum(s[5][key] for s in found if s[5] and key in s[5])

    steps = named(STEP)
    sweeps = attr_sum(steps, "sweeps")
    dt_changes = 0
    by_solve: dict = {}
    for s in sorted(steps, key=lambda s: s[3]):
        by_solve.setdefault(s[1], []).append(s[5]["dt"] if s[5] else None)
    for dts in by_solve.values():
        dt_changes += sum(1 for a, b in zip(dts, dts[1:]) if a != b)

    ffts = named(*FFTS)
    gflop = sum(5.0 * s[5]["n"] * math.log2(s[5]["n"]) * s[5]["rows"] for s in ffts if s[5]) / 1e9

    diag_trajs = {s[5]["traj"]: s[5]["samples"] for s in named(
        "diagnostics.diagnose_trajectory", "diagnostics.theta_envelope") if s[5]}
    samples = sum(diag_trajs.values())
    records = len(named("diagnostics.record_diagnostics"))

    main_pids = {s[0].split(".")[0] for s in named("cli.main")}
    pids = {s[0].split(".")[0] for s in spans}

    metrics = {
        "cli.parse_config_s": busy("cli.parse_config"),
        "cli.write_trajectory_s": busy("cli.write_trajectory"),
        "cli.write_trajectory_bytes": float(attr_sum(named("cli.write_trajectory"), "bytes")),
        "cli.do_run_self_s": float(sum(selfs[s[0]] for s in named("cli.do_run"))),
        "cli.do_sweep_self_s": float(sum(selfs[s[0]] for s in named("cli.do_sweep"))),
        "solver.solve_s": busy("solver.solve_perturbed"),
        "solver.steps": float(len(steps)),
        "solver.sweeps_per_step": sweeps / len(steps) if steps else 0.0,
        "solver.sweep_us": 1e6 * sum(s[4] - s[3] for s in steps) / sweeps if sweeps else 0.0,
        "solver.dt_changes": float(dt_changes),
        "grid.fft_calls": float(len(ffts)),
        "grid.fft_s": busy(*FFTS),
        "grid.fft_gflop_computed": gflop,
        "diagnostics.diagnose_s": busy(*DIAGNOSTICS),
        "diagnostics.records_per_sample": records / samples if samples else 0.0,
        "diagnostics.theta_envelope_calls": float(len(named("diagnostics.theta_envelope"))),
        "fractional.singular_s": busy("fractional.frac_laplacian_singular"),
        "fractional.pair_s": busy("fractional.pair_correlation_integral"),
        "fractional.spline_evals": float(len(named(SPLINE))),
        "fractional.spline_s": busy(SPLINE),
        "fractional.cns_constant_calls": float(len(named("fractional.cns_constant"))),
        "sobolev.ensemble_check_s": busy(*SOBOLEV_ENSEMBLE),
        "entropy.pointwise_s": busy(*ENTROPY_POINTWISE),
        "trace.worker_processes": float(len(pids - main_pids)),
    }
    for suite in SUITE_NAMES:
        metrics[f"verify.suite_s.{suite}"] = busy(f"verify.suite.{suite}")
    return metrics
