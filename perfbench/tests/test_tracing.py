"""The tracing shim: counts repeat exactly for the same seed, patches come
off cleanly, and BENCHMARK.json lists exactly the metrics the benchmark
reports."""
import json
import os
import subprocess
import sys

import pytest

import inputs
import tracing
import workloads
from conftest import BENCH_DIR, ROOT


def _traced_counts(fq, workload, task_ids, tmp_path):
    spec = inputs.generate(workload, seed=0)
    spec["tasks"] = [t for t in spec["tasks"] if t["id"] in task_ids]
    os.makedirs(tmp_path, exist_ok=True)
    tasks = workloads.prepare(fq, spec, str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install(fq)
    try:
        outcomes = workloads.run_pass(fq, workload, tasks, tracer,
                                      str(tmp_path))
    finally:
        tracer.uninstall()
    assert [o["failure"] for o in outcomes] == [None] * len(task_ids)
    return tracer.layer_metrics(1.0, 1.0), tracer


@pytest.fixture(scope="module")
def network_runs(fq, tmp_path_factory):
    base = tmp_path_factory.mktemp("network")
    return [_traced_counts(fq, "network_sync", {"vdp-n3-partial"},
                           base / str(i)) for i in range(2)]


def test_counts_repeat_for_same_seed(fq, tmp_path, network_runs):
    scan = [_traced_counts(fq, "cycle_scan", {"vdp-0"}, tmp_path / str(i))[0]
            for i in range(2)]
    network = [metrics for metrics, _ in network_runs]
    for first, second in (scan, network):
        for name in tracing.DETERMINISTIC:
            assert first[name] == second[name], name
    assert scan[0]["ode.steps_accepted"] > 0
    assert scan[0]["floquet.monodromy_calls"] == 1
    assert scan[0]["network.coupled_calls"] == 0


def test_network_layer_counts(network_runs):
    metrics, tracer = network_runs[0]
    assert metrics["network.fanout"] == 3.0
    assert metrics["cli.bytes_written"] > 0
    # complete_graph(3): lambda = {0, 3, 3} gives two distinct kappas.
    assert tracer.counts["msf.predicate_kappas"] == 2
    assert metrics["msf.predicate_reuse"] > 0
    assert tracer.spans and all(end >= start for _, start, end, _, _
                                in tracer.spans)


def test_uninstall_restores_every_name(fq, tmp_path):
    before = {name: vars(mod).copy() for name, mod in sys.modules.items()
              if name.startswith("floqnet")}
    tracer = tracing.Tracer()
    tracer.install(fq)
    assert fq.msf.monodromy is not before["floqnet.msf"]["monodromy"]
    assert fq.cli.simulate_network is not \
        before["floqnet.cli"]["simulate_network"]
    tracer.uninstall()
    for name, saved in before.items():
        module = sys.modules[name]
        for attr, value in saved.items():
            assert getattr(module, attr) is value, f"{name}.{attr}"


def test_distinct_kappas():
    assert tracing.distinct_kappas([0.0, 32.0, 32.0 * (1 + 1e-14), 1.6]) == 3
    assert tracing.distinct_kappas([1.0, 1.0 + 1e-9]) == 2


def test_benchmark_json_lists_the_reported_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert per_layer == {name: unit for name, (unit, _)
                         in tracing.PER_LAYER.items()}
    assert {m["name"] for m in bench["end_to_end"]} == {
        "wall_s", "cpu_s", "setup_s", "peak_rss_mb", "ok_frac"}
    assert {w["name"] for w in bench["workloads"]} == set(inputs.GENERATORS)


def test_inputs_repeat_for_same_seed():
    for workload in inputs.GENERATORS:
        assert inputs.generate(workload, 3) == inputs.generate(workload, 3)
        assert inputs.generate(workload, 3) != inputs.generate(workload, 4)
    mus = [t["params"]["mu"] for t in inputs.generate("cycle_scan", 0)["tasks"]
           if t["model"] == "vdp"]
    assert len(mus) == 6 and all(0.5 <= mu <= 2.0 for mu in mus)


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "inputs.py", "gates.py", "tracing.py",
                 "workloads.py"):
        (bench / name).write_bytes((BENCH_DIR / name).read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cycle_scan",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
