"""The three workloads: set-up (models built, configs written) and one
pass over a workload's fixed task list.

Tasks reach floqnet only through its public API and the ``floqnet`` CLI
entry (``floqnet.cli.run_subcommand``, in-process).  Names are looked up
on the package at call time, so a traced pass sees the tracer's wrappers.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass

import numpy as np

import gates


@dataclass
class Task:
    id: str
    model: object
    mask: list
    spec: dict
    config_path: str | None = None


def prepare(fq, spec, workdir):
    """Set-up: build each distinct model once and write the generated
    configs into ``workdir``."""
    models = {}

    def model_for(name, params):
        key = (name, tuple(sorted(params.items())))
        if key not in models:
            models[key] = fq.get_model(name, params)
        return models[key]

    tasks = []
    for item in spec["tasks"]:
        config = item.get("config")
        if config is None:
            tasks.append(Task(item["id"], model_for(item["model"],
                                                    item["params"]),
                              item["mask"], item))
            continue
        path = os.path.join(workdir, item["id"] + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=2)
        tasks.append(Task(item["id"], model_for(config["model"]["name"],
                                                config["model"]["params"]),
                          config["coupling"]["mask"], item, path))
    return tasks


def _msf_curve(fq, task, tracer, outdir, cycles):
    model = tracer.model(task.model)
    lc = fq.find_limit_cycle(model)
    curve = fq.msf_sweep(model, lc, task.mask, fq.msf.default_kappa_grid())
    record = {"period": lc.period, "liouville_err": gates.liouville(curve)}
    if all(m == 1.0 for m in task.mask):
        record["shift_law_err"] = gates.shift_law(curve)
    record["mu_max"] = curve.mu_max.tolist()
    return record


def _network_sync(fq, task, tracer, outdir, cycles):
    config = task.spec["config"]
    model = tracer.model(task.model)
    name = config["model"]["name"]
    if name not in cycles:  # one cycle per model and pass
        cycles[name] = fq.find_limit_cycle(model)
    coupling = config["coupling"]
    verdict = fq.sync_predicate(model, cycles[name],
                                fq.complete_graph(config["graph"]["n"]),
                                coupling["K"], mask=coupling["mask"])
    out = os.path.join(outdir, task.id)
    with contextlib.redirect_stdout(io.StringIO()):
        code = fq.cli.run_subcommand(["simulate", "--config",
                                      task.config_path, "--out", out])
    if code != 0:
        raise gates.GateFailure("cli_exit_code",
                                f"floqnet simulate exited with {code}")
    with open(out + ".json", encoding="utf-8") as fh:
        summary = json.load(fh)
    tracer.count("cli.bytes_written", os.path.getsize(out + ".csv")
                 + os.path.getsize(out + ".json"))
    gates.verdict_agrees(verdict.synchronizes, summary["converged"])
    return {"synchronizes": verdict.synchronizes,
            "converged": summary["converged"],
            "final_error": summary["final_error"],
            "t_converged": summary["t_converged"]}


def _cycle_scan(fq, task, tracer, outdir, cycles):
    model = tracer.model(task.model)
    lc = fq.find_limit_cycle(model)
    mon = fq.monodromy(model, lc, kappa=0.0)
    det_phi, rhs = fq.ajl_determinant(model, lc, kappa=1.0, mask=task.mask)
    lf = fq.lf_decomposition(model, lc)
    record = {"period": lc.period,
              "multipliers_abs": np.abs(mon.multipliers).tolist(),
              "unity_err": gates.unity_multiplier(mon),
              "determinant_err": gates.determinant_identity(det_phi, rhs)}
    record["lf_residual"], record["lf_gated"] = gates.lf_residual(lf, mon)
    return record


RUNNERS = {"msf_curve": _msf_curve, "network_sync": _network_sync,
           "cycle_scan": _cycle_scan}


def run_pass(fq, workload, tasks, tracer, outdir):
    """Run every task once.  A task fails on a typed floqnet error or a
    gate; either is recorded by name and the pass goes on."""
    runner = RUNNERS[workload]
    cycles = {}
    outcomes = []
    for task in tasks:
        start = time.perf_counter()
        with tracer.task_span(task.id):
            try:
                record = runner(fq, task, tracer, outdir, cycles)
                failure = None
            except gates.GateFailure as exc:
                record, failure = {"detail": str(exc)}, exc.gate
            except fq.FloqnetError as exc:
                record, failure = {"detail": str(exc)}, type(exc).__name__
        outcomes.append({"id": task.id, "failure": failure,
                         "wall_s": time.perf_counter() - start, **record})
    return outcomes
