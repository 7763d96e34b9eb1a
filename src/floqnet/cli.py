"""Command-line interface.

Subcommands::

    floqnet limit-cycle   find a period and sampled orbit, emit CSV + JSON
    floqnet floquet       monodromy multipliers and determinant check, JSON
    floqnet msf           master-stability-function sweep, CSV (+ gnuplot)
    floqnet simulate      coupled-network run, CSV + JSON summary
    floqnet verify        run the built-in check suite, table + JSON

Experiments are described either by inline flags or by a JSON config file
(schema in ``docs/config.md``; unknown keys are rejected).  Configs named
like the shipped ones (``fig2_full.json`` ...) resolve from package data
when no such file exists on disk.

Exit codes: 0 success, 1 numerical failure, 2 config/validation error.
All output files are written atomically (temp file + rename).  Identical
config and seed give byte-identical outputs.
"""
from __future__ import annotations

import argparse
import functools
import importlib.resources
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import checks
from .exceptions import ConfigError, FloqnetError, NumericalError
from .floquet import _resolve_mask, _trace_sides, monodromy
from .limit_cycle import find_limit_cycle
from .models import MODEL_NAMES, get_model
from .msf import _resolve_kappa_grid, default_kappa_grid, msf_sweep
from .network import CouplingSpec, complete_graph, from_adjacency, \
    ring_graph, simulate_network
from .ode import IntegratorConfig

__all__ = ["main", "run_subcommand", "verify_all", "load_config"]

SYNC_THRESHOLD = 1e-3

# ---------------------------------------------------------------------------
# config handling

_SCHEMA = {
    "model": {"name": str, "params": dict},
    "initial": list,
    "graph": {"kind": str, "n": int, "adjacency": list},
    "coupling": {"K": (int, float), "mask": list,
                 "activation_time": (int, float)},
    "integrator": {"rel_tol": (int, float), "abs_tol": (int, float)},
    "run": {"t_end": (int, float), "output_grid_points": int},
    "msf": {"kappa_min": (int, float), "kappa_max": (int, float),
            "points": int, "spacing": str},
    "seed": int,
}


def _check_keys(section, spec, path):
    if isinstance(spec, dict):
        if not isinstance(section, dict):
            raise ConfigError(f"config key '{path}' must be an object")
        for key, val in section.items():
            if key not in spec:
                raise ConfigError(f"unknown config key '{path}.{key}'"
                                  if path else f"unknown config key '{key}'")
            _check_keys(val, spec[key], f"{path}.{key}" if path else key)
    elif spec is list:
        if not isinstance(section, list):
            raise ConfigError(f"config key '{path}' must be an array")
    elif spec is dict:
        if not isinstance(section, dict):
            raise ConfigError(f"config key '{path}' must be an object")
    else:
        if not isinstance(section, spec) or isinstance(section, bool):
            raise ConfigError(f"config key '{path}' has the wrong type")


def load_config(path: str) -> dict:
    """Load and validate an experiment config from disk or shipped data."""
    text = None
    try:
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            name = os.path.basename(path)
            resource = importlib.resources.files("floqnet") / "configs" / name
            if resource.is_file():
                text = resource.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if text is None:
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(cfg, _SCHEMA, "")
    return cfg


def _parse_params(pairs):
    params = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--param expects name=value, got {pair!r}")
        name, _, value = pair.partition("=")
        try:
            params[name.strip()] = float(value)
        except ValueError as exc:
            raise ConfigError(f"--param {name}: {value!r} is not a number") \
                from exc
    return params


def _given(section, **flags):
    """A copy of the config ``section`` (a dict or None) with every flag
    that was given (not None) copied over its key."""
    merged = dict(section or {})
    merged.update((key, val) for key, val in flags.items() if val is not None)
    return merged


def _model_from(args, config):
    # --model replaces the config's whole model section, parameters included.
    section = {"name": args.model} if args.model else config.get("model")
    if section is None:
        raise ConfigError("no model given; use --model or a config with a "
                          "'model' section")
    params = _given(section.get("params"), **_parse_params(args.param))
    return get_model(section.get("name", ""), params)


def _integrator_from(args, config):
    return IntegratorConfig(**_given(config.get("integrator"),
                                     rel_tol=args.rel_tol,
                                     abs_tol=args.abs_tol))


def _floats_from(values, what):
    """Float vector from a list or an "a,b,..." string."""
    if isinstance(values, str):
        values = values.split(",")
    try:
        return np.asarray(values, dtype=float).ravel()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be a list of numbers") from exc


def _coupling_from(config, dim, **flags):
    """The config's coupling section, each given flag over its key, as a
    :class:`CouplingSpec`, which applies the library's rules to it."""
    section = _given(config.get("coupling"), **flags)
    mask = section.get("mask", "full")
    mask = None if mask == "full" else _floats_from(mask, "mask")
    return CouplingSpec(K=section.get("K", 0.0),
                        mask=_resolve_mask(mask, dim),
                        activation_time=section.get("activation_time", 0.0))


def _graph_from(config):
    section = config.get("graph")
    if section is None:
        raise ConfigError("config is missing the 'graph' section")
    kind = section.get("kind", "complete")
    if kind == "complete":
        return complete_graph(int(section.get("n", 0)))
    if kind == "ring":
        return ring_graph(int(section.get("n", 0)))
    if kind == "adjacency":
        if "adjacency" not in section:
            raise ConfigError("graph.kind=adjacency requires graph.adjacency")
        return from_adjacency(section["adjacency"])
    raise ConfigError(f"unknown graph.kind {kind!r}; "
                      "expected complete | ring | adjacency")


# ---------------------------------------------------------------------------
# output helpers

def _write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path, header, table):
    # 17 significant digits round-trip any double; plain '.' decimal.
    # One %-format per row, each row's Python floats made as it is
    # written, so no second copy of the whole table is held.
    row = ",".join(["%.17g"] * table.shape[1])
    lines = [",".join(header)]
    lines += [row % tuple(values.tolist()) for values in table]
    _write_atomic(path, "\n".join(lines) + "\n")


def _write_json(path, obj):
    _write_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_limit_cycle(args, config):
    model = _model_from(args, config)
    cfg = _integrator_from(args, config)
    # A config's ``initial`` is a network state for ``simulate``.
    x0 = None if args.x0 is None else _floats_from(args.x0, "--x0")
    lc = find_limit_cycle(model, x0=x0, cfg=cfg)

    out = args.out or "limit_cycle"
    header = ["t"] + [f"x{j + 1}" for j in range(model.dim)]
    _write_csv(out + ".csv", header, np.column_stack([lc.times, lc.samples]))
    summary = {"model": model.name, "period": lc.period,
               "closure_residual": lc.closure_residual}
    _write_json(out + ".json", summary)
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_floquet(args, config):
    model = _model_from(args, config)
    cfg = _integrator_from(args, config)
    coupling = _coupling_from(config, model.dim, K=args.kappa, mask=args.mask)
    kappa, mask = coupling.K, coupling.mask
    lc = find_limit_cycle(model, cfg=cfg)
    mon = monodromy(model, lc, kappa=kappa, mask=mask, cfg=cfg)
    # The monodromy's pass already holds det phi, the identity's left side.
    lhs, rhs = mon.det, _trace_sides(model, lc, [kappa], mon.mask)[0]

    result = {
        "model": model.name,
        "period": lc.period,
        "kappa": kappa,
        "mask": mask.tolist(),
        "multipliers": [
            {"re": float(m.real), "im": float(m.imag), "abs": float(abs(m))}
            for m in mon.multipliers
        ],
        "det_check": {"lhs": lhs, "rhs": rhs},
    }
    out = args.out or "floquet"
    _write_json(out + ".json", result)
    print(json.dumps({"period": lc.period, "kappa": kappa,
                      "mu_abs": [float(abs(m)) for m in mon.multipliers]},
                     sort_keys=True))
    return 0


_GNUPLOT_TEMPLATE = """\
# Master stability function: effective coupling vs largest multiplier
set datafile separator ','
set xlabel 'kappa = K*lambda'
set ylabel 'mu_max'
set key off
f(x) = 1.0
plot '{csv}' using 1:2 skip 1 with linespoints, f(x) with lines dashtype 2
"""


def _cmd_msf(args, config):
    model = _model_from(args, config)
    cfg = _integrator_from(args, config)
    section = _given(config.get("msf"), kappa_min=args.kappa_min,
                     kappa_max=args.kappa_max, points=args.points,
                     spacing=args.spacing)
    if not section:
        grid = default_kappa_grid()
    else:
        missing = [k for k in ("kappa_min", "kappa_max", "points")
                   if k not in section]
        if missing:
            raise ConfigError(f"msf sweep needs {', '.join(missing)} "
                              "(flags or config 'msf' section)")
        lo, hi = float(section["kappa_min"]), float(section["kappa_max"])
        points = int(section["points"])
        if points < 1:
            raise ConfigError(f"msf sweep needs points >= 1, got {points}")
        spacing = section.get("spacing", "linear")
        if spacing == "linear":
            grid = np.linspace(lo, hi, points)
        elif spacing == "log":
            if not (lo > 0 and hi > 0):
                raise ConfigError("log spacing needs kappa_min, kappa_max > 0")
            grid = np.geomspace(lo, hi, points)
        else:
            raise ConfigError(f"unknown msf.spacing {spacing!r}")
        grid = _resolve_kappa_grid(grid)

    mask = _coupling_from(config, model.dim, mask=args.mask).mask
    lc = find_limit_cycle(model, cfg=cfg)
    curve = msf_sweep(model, lc, mask, grid, cfg=cfg)

    header = ["kappa", "mu_max"]
    for j in range(model.dim):
        header += [f"mult_{j + 1}_re", f"mult_{j + 1}_im"]
    out = args.out or "msf"
    # Complex multipliers viewed as floats interleave re, im.
    _write_csv(out + ".csv", header, np.column_stack([
        curve.kappas, curve.mu_max,
        np.array([point.multipliers for point in curve.points]).view(float)]))
    if args.emit_plot_script:
        _write_atomic(out + ".gp", _GNUPLOT_TEMPLATE.format(
            csv=os.path.basename(out + ".csv")))
    print(json.dumps({"model": model.name, "points": grid.size,
                      "mu_max_first": curve.points[0].mu_max,
                      "mu_max_last": curve.points[-1].mu_max},
                     sort_keys=True))
    return 0


def _cmd_simulate(args, config):
    if not args.config:
        raise ConfigError("simulate requires --config")
    model = _model_from(args, config)
    cfg = _integrator_from(args, config)
    graph = _graph_from(config)
    if "coupling" not in config:
        raise ConfigError("config is missing the 'coupling' section")
    coupling = _coupling_from(config, model.dim)
    run_cfg = config.get("run")
    if run_cfg is None or "t_end" not in run_cfg:
        raise ConfigError("config is missing run.t_end")
    if "initial" not in config:
        raise ConfigError("config is missing 'initial' "
                          f"(length {graph.n * model.dim} state)")
    x0 = _floats_from(config["initial"], "initial")

    run = simulate_network(
        model, graph, coupling, x0, float(run_cfg["t_end"]), cfg=cfg,
        output_points=int(run_cfg.get("output_grid_points", 2000)),
    )

    # settled[i]: the error stays below threshold from sample i onwards.
    below = run.sync.error < SYNC_THRESHOLD
    settled = np.logical_and.accumulate(below[::-1])[::-1]
    t_converged = float(run.times[settled.argmax()]) if settled[-1] else None
    summary = {
        "final_error": run.sync.final,
        "converged": bool(run.sync.final < SYNC_THRESHOLD),
        "threshold": SYNC_THRESHOLD,
        "t_converged": t_converged,
    }

    header = ["t"] + [f"x_{i + 1}_{j + 1}" for i in range(graph.n)
                      for j in range(model.dim)] + ["sync_error"]
    out = args.out or "simulate"
    _write_csv(out + ".csv", header,
               np.column_stack([run.times, run.states, run.sync.error]))
    _write_json(out + ".json", summary)
    print(json.dumps(summary, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# verify

def verify_all(config=None, quick=False, seed=None):
    """Run the built-in consistency suite; returns (reports, all_passed).

    Each row of the table below pairs a measurement from
    :mod:`floqnet.checks` with the bound it must meet; ``quick`` runs only
    the rows marked for it.  ``seed`` overrides the config's ``seed``
    (default 0).  The checks use no other config value.
    """
    config = _given(config, seed=seed)
    seed = int(config.get("seed", 0))
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    # Building the configured model validates its name and parameters.
    if "model" in config:
        get_model(config["model"].get("name", ""),
                  config["model"].get("params"))

    @functools.cache
    def cycle(name):
        model = get_model(name)
        return model, find_limit_cycle(model)

    def on(name, check, *args):
        """The catalogue ``check`` on the cycle of model ``name``."""
        return lambda: check(*cycle(name), *args)

    def agreement(name, x0, t_end):
        model, lc = cycle(name)
        return [checks.predicate_and_simulation(
                    model, lc, complete_graph(3), 1.0, mask, x0, t_end)
                for mask in (np.ones(model.dim),
                             checks.partial_mask(model.dim))]

    def agrees(cases):
        return all(c.synchronizes == (c.final_error < SYNC_THRESHOLD)
                   for c in cases)

    vdp_x0 = np.array([0., 1., 2., 3., 4., 5.])
    rep_x0 = np.array([0., 1., 0., 3., 0., 5., 0., 7., 0., 9., 0., 11.,
                       0., 13., 15., 17., 4., 6.])

    # (name, in --quick, measurement, bound on the measurement)
    table = [
        ("linalg-eig-det-product", True,
         lambda: checks.eig_det_product_error(seed), lambda v: v < 1e-8),
        ("laplacian-spectra", True,
         lambda: max(map(checks.complete_graph_spectrum_error, (3, 4, 5))),
         lambda v: v < 1e-10),
    ]
    for name in ("vdp", "repressilator"):
        table += [
            (f"unity-multiplier-{name}", name == "vdp",
             on(name, checks.unity_multipliers),
             lambda r: r.count == 1 and r.max_other < 1.0),
            (f"shift-law-{name}", name == "vdp",
             on(name, checks.shift_law_error, (0.25, 0.5, 1.0, 2.0)),
             lambda v: v < 1e-6),
            (f"ajl-identity-{name}", name == "vdp",
             on(name, checks.determinant_identity_error, (0.0, 1.0, 2.0)),
             lambda v: v < 1e-6),
        ]
    table += [
        # P(t) periodicity is checked where double precision can represent
        # it; the repressilator's transition matrix condition number (~1e19)
        # puts its residual out of reach of any f64 route (see README).
        ("lf-periodicity-vdp", True,
         on("vdp", checks.lf_residual), lambda v: v < 1e-4),
        ("lf-periodicity-rotation", False,
         on("linear_rotation", checks.lf_residual), lambda v: v < 1e-4),
        ("predicate-vs-simulation-vdp", True,
         lambda: agreement("vdp", vdp_x0, 100.0), agrees),
        ("predicate-vs-simulation-repressilator", False,
         lambda: agreement("repressilator", rep_x0, 140.0), agrees),
        # Every transverse mode unstable, and the error grows tenfold and
        # stays above 0.1 (or the run ends in an integrator failure).
        ("necessity-negative-coupling", False,
         on("vdp", checks.negative_coupling, vdp_x0),
         lambda r: r.mu_min > 1.0 and r.growth > 10.0 and r.floor > 0.1),
    ]

    reports = []
    for name, in_quick, measure, bound in table:
        if quick and not in_quick:
            continue
        start = time.perf_counter()
        try:
            value = measure()
            passed = bool(bound(value))
            note = format(value, ".3g") if isinstance(value, float) \
                else str(value)
        except FloqnetError as exc:
            passed, note = False, f"{type(exc).__name__}: {exc}"
        reports.append({"check": name, "passed": passed, "detail": note})
        print(f"  [{'pass' if passed else 'FAIL'}] {name:<38s} "
              f"({time.perf_counter() - start:5.1f}s)  {note}")
    return reports, all(r["passed"] for r in reports)


def _cmd_verify(args, config):
    print("floqnet verify" + (" --quick" if args.quick else ""))
    reports, ok = verify_all(config=config, quick=args.quick,
                             seed=args.seed)
    out = args.out or "verify"
    _write_json(out + ".json", {"checks": reports, "all_passed": ok})
    print(f"{sum(r['passed'] for r in reports)}/{len(reports)} checks passed")
    return 0 if ok else 1


# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="floqnet",
        description="Floquet multipliers, master stability functions, and "
                    "synchronization tests for coupled oscillator networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_model=True):
        p.add_argument("--config", help="JSON experiment config")
        if needs_model:
            p.add_argument("--model", choices=MODEL_NAMES)
            p.add_argument("--param", action="append", metavar="NAME=VALUE",
                           help="model parameter override (repeatable)")
            p.add_argument("--rel-tol", type=float, dest="rel_tol")
            p.add_argument("--abs-tol", type=float, dest="abs_tol")
        p.add_argument("--out", help="output path prefix")

    p = sub.add_parser("limit-cycle", help="find a limit cycle and period")
    common(p)
    p.add_argument("--x0", help="comma-separated initial state")
    p.set_defaults(func=_cmd_limit_cycle)

    p = sub.add_parser("floquet",
                       help="Floquet multipliers and determinant check")
    common(p)
    p.add_argument("--kappa", type=float, help="effective coupling K*lambda")
    p.add_argument("--mask", help="'full' or 0/1 list like '0,1'")
    p.set_defaults(func=_cmd_floquet)

    p = sub.add_parser("msf", help="master stability function sweep")
    common(p)
    p.add_argument("--mask", help="'full' or 0/1 list like '0,1'")
    p.add_argument("--kappa-min", type=float, dest="kappa_min")
    p.add_argument("--kappa-max", type=float, dest="kappa_max")
    p.add_argument("--points", type=int)
    p.add_argument("--spacing", choices=("linear", "log"))
    p.add_argument("--emit-plot-script", action="store_true",
                   help="write a standalone gnuplot script next to the CSV")
    p.set_defaults(func=_cmd_msf)

    p = sub.add_parser("simulate", help="simulate a coupled network")
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run the built-in check suite")
    common(p, needs_model=False)
    p.add_argument("--quick", action="store_true",
                   help="skip the repressilator, rotation and "
                        "negative-coupling rows")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_verify)

    return parser


def run_subcommand(argv) -> int:
    """Parse ``argv`` (without the program name) and run one subcommand."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, load_config(args.config) if args.config
                         else {})
    except ConfigError as exc:
        print(f"floqnet: config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"floqnet: numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1


def main() -> int:
    return run_subcommand(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
