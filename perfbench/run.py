"""floqnet benchmark: both synchronization routes, end to end and per layer.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload msf_curve --seed 0 --seconds 40 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen): ``msf_curve``
(the spectral route), ``network_sync`` (the time-domain route against the
spectral verdict) and ``cycle_scan`` (Floquet characterisation over a
parameter scan).

A run sets up once (imports, models, seeded inputs, generated configs),
then repeats the workload's fixed task list while another pass fits in
``--seconds``, always finishing at least one pass.  ``--trace 0`` reports
the end-to-end metrics as medians over the passes; set-up time is the
median over separate set-up-only processes, started one at a time between
passes, never during one.  ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics of the first traced pass.  The
last line of stdout is one JSON object; a record of inputs, per-task
results and (traced) spans is written to ``.perfbench_out/``.
"""
import time

_PROCESS_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

# Each workload is one process with one thread of computation: pin the
# BLAS pools before numpy loads, and keep floqnet's sweep serial.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("FLOQNET_THREADS", None)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("msf_curve", "network_sync", "cycle_scan")
SETUP_REPEATS = 7
PROBE_TIMEOUT_S = 60


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def load_floqnet():
    """Import floqnet from this checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import floqnet
    import floqnet.cli
    if Path(floqnet.__file__).resolve().parent != SRC / "floqnet":
        raise BenchError(f"imported floqnet from {floqnet.__file__}, "
                         f"not from {SRC}")
    return floqnet


def set_up(workload, seed, workdir):
    """Everything before the first task: imports, models, seeded inputs
    and the configs written to disk."""
    fq = load_floqnet()
    import inputs
    import workloads
    spec = inputs.generate(workload, seed)
    return fq, spec, workloads.prepare(fq, spec, workdir)


def probe_set_up(workload, seed):
    """Seconds from starting a fresh set-up-only process to its inputs
    being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - start


def _threads():
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _run_pass(fq, workload, tasks, tracer, workdir):
    import workloads
    outdir = tempfile.mkdtemp(prefix="pass-", dir=workdir)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    outcomes = workloads.run_pass(fq, workload, tasks, tracer, outdir)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    shutil.rmtree(outdir)
    return {"wall_s": wall, "cpu_s": cpu, "outcomes": outcomes}


def measure(args, workdir):
    fq, spec, tasks = set_up(args.workload, args.seed, workdir)
    own_setup_s = time.monotonic() - _PROCESS_START
    import tracing

    start = time.monotonic()
    passes, tracers, setup_samples = [], [], []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer = tracing.Tracer() if traced else tracing.NullTracer()
        if traced:
            tracer.install(fq)
        try:
            passes.append({"traced": traced, **_run_pass(
                fq, args.workload, tasks, tracer, workdir)})
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            tracers.append(tracer)
        elif not args.trace:
            # Spread the set-up samples over the run, so they do not all
            # fall in one phase of the machine's load.
            for _ in range(min(2, SETUP_REPEATS - len(setup_samples))):
                setup_samples.append(probe_set_up(args.workload, args.seed))
        done = not args.trace or tracers
        if done and (time.monotonic() - start + passes[-1]["wall_s"]
                     > args.seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    threads = _threads()
    while not args.trace and len(setup_samples) < SETUP_REPEATS:
        setup_samples.append(probe_set_up(args.workload, args.seed))

    outcomes = [o for p in passes for o in p["outcomes"]]
    failures = Counter(o["failure"] for o in outcomes if o["failure"])
    attempted, failed = len(outcomes), sum(failures.values())
    untraced = [p for p in passes if not p["traced"]]
    wall_s = statistics.median(p["wall_s"] for p in untraced)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "inputs": spec, "passes": passes,
              "own_setup_s": own_setup_s, "setup_s_samples": setup_samples,
              "threads": threads, "failures": dict(failures)}

    if args.trace:
        traced_walls = [p["wall_s"] for p in passes if p["traced"]]
        metrics = tracers[0].layer_metrics(
            traced_walls[0], statistics.median(traced_walls) / wall_s)
        units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
        record["counts_repeat"] = all(
            t.counts == tracers[0].counts for t in tracers[1:])
        record["trace"] = tracers[0].dump()
    else:
        metrics = {
            "wall_s": wall_s,
            "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - failed / attempted,
        }
        units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                 "peak_rss_mb": "MB", "ok_frac": "ratio"}
    record["metrics"] = metrics

    record_path = OUT_DIR / (f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload} seed={args.seed} passes={len(passes)} "
          f"attempted={attempted} failed={failed} threads={threads}")
    for name, value in metrics.items():
        print(f"  {name:<24s} {value:<14.6g} {units[name]}")
    if not args.trace:
        print(f"  {'fail_frac':<24s} {failed / attempted:<14.6g} ratio")
    for name, n in sorted(failures.items()):
        print(f"  failed: {name} x{n}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        if not (SRC / "floqnet" / "__init__.py").is_file():
            raise BenchError(f"no floqnet sources under {SRC}; run from a "
                             "checkout of the repository")
        OUT_DIR.mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
        try:
            if args.setup_probe:
                set_up(args.workload, args.seed, workdir)
                print(repr(time.monotonic()))
            else:
                measure(args, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
