"""Seeded inputs of each workload.

Everything a workload computes on is drawn here from ``--seed`` and
returned as plain JSON data, which the run record stores, so any run can
be replayed from its record or its seed.
"""
from __future__ import annotations

import numpy as np

VDP_PARTIAL = [0.0, 1.0]
REPRESSILATOR_PARTIAL = [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]
PARTIAL = {"vdp": VDP_PARTIAL, "repressilator": REPRESSILATOR_PARTIAL}
DIM = {"vdp": 2, "repressilator": 6}
DEFAULT_PARAMS = {"vdp": {"mu": 1.0}, "repressilator": {"alpha": 1000.0}}

ACTIVATION_TIME = 20.0
OUTPUT_POINTS = 2000

# network_sync scenarios: (name, model, nodes, K, t_end).
SCENARIOS = (
    ("vdp-n3", "vdp", 3, 1.0, 100.0),
    ("repressilator-n3", "repressilator", 3, 1.0, 140.0),
    ("vdp-n32", "vdp", 32, 0.05, 100.0),
)
# Initial-state box of each node.
INITIAL_BOX = {"vdp": (-2.0, 2.0), "repressilator": (0.0, 20.0)}


def _uniform(rng, lo, hi, size=None):
    out = rng.uniform(lo, hi, size)
    return float(out) if size is None else [float(v) for v in out]


def msf_curve(rng):
    mu = _uniform(rng, 0.8, 1.25)
    alpha = _uniform(rng, 800.0, 1250.0)
    return [
        {"id": "vdp-partial", "model": "vdp", "params": {"mu": mu},
         "mask": VDP_PARTIAL},
        {"id": "vdp-full", "model": "vdp", "params": {"mu": mu},
         "mask": [1.0, 1.0]},
        {"id": "repressilator-partial", "model": "repressilator",
         "params": {"alpha": alpha}, "mask": REPRESSILATOR_PARTIAL},
    ]


def network_sync(rng):
    tasks = []
    for name, model, n, gain, t_end in SCENARIOS:
        for mask_name in ("full", "partial"):
            mask = [1.0] * DIM[model] if mask_name == "full" else PARTIAL[model]
            config = {
                "model": {"name": model, "params": DEFAULT_PARAMS[model]},
                "initial": _uniform(rng, *INITIAL_BOX[model],
                                    size=n * DIM[model]),
                "graph": {"kind": "complete", "n": n},
                "coupling": {"K": gain, "mask": mask,
                             "activation_time": ACTIVATION_TIME},
                "run": {"t_end": t_end, "output_grid_points": OUTPUT_POINTS},
            }
            tasks.append({"id": f"{name}-{mask_name}", "config": config})
    return tasks


def cycle_scan(rng):
    tasks = [{"id": f"vdp-{i}", "model": "vdp",
              "params": {"mu": _uniform(rng, 0.5, 2.0)}} for i in range(6)]
    tasks += [{"id": f"repressilator-{i}", "model": "repressilator",
               "params": {"alpha": _uniform(rng, 500.0, 2000.0)}}
              for i in range(2)]
    for task in tasks:
        task["mask"] = PARTIAL[task["model"]]
    return tasks


GENERATORS = {"msf_curve": msf_curve, "network_sync": network_sync,
              "cycle_scan": cycle_scan}


def generate(workload, seed):
    """Task inputs of ``workload`` for ``seed``, as JSON-ready data."""
    rng = np.random.default_rng(seed)
    return {"workload": workload, "seed": seed,
            "tasks": GENERATORS[workload](rng)}
