#!/usr/bin/env python3
"""oqcsim benchmark: one seeded workload, measured end to end or traced.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload rds_sweep --seed 1 --seconds 20 --trace 0

One process runs the workload as a closed loop with a single client: each
job starts when the previous one has returned.  Whole passes over the
workload's jobs run until ``--seconds`` have elapsed.  Every job's output
is checked; a nonzero exit or a failed check counts as a failed job.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see README.md).  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  The
program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
TRACES = ROOT / ".perfbench_traces"

WORKLOADS = ("rds_sweep", "rds_logic", "fock_oracle", "gate_oracle")
# One BLAS thread (nproc is 2 on the reference machine): the Fock oracle's
# dense expm is the only BLAS-heavy layer, and a single thread keeps its
# timings steady on a shared machine.
BLAS_THREADS = 1
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
IMPORT_MODULES = ("cli", "jones", "rds", "spin", "squeezed", "truthtable")
TAIL_BEYOND = 10  # samples beyond the reported tail percentile


class NotRunnable(Exception):
    """The checkout has no oqcsim sources to benchmark."""


def prepare():
    """Pin BLAS threads, put ``src/`` first on the path and import oqcsim."""
    if not (SRC / "oqcsim" / "__init__.py").is_file():
        raise NotRunnable(f"no oqcsim package under {SRC}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import oqcsim

    if Path(oqcsim.__file__).resolve().parent != SRC / "oqcsim":
        raise NotRunnable(f"imported oqcsim from {oqcsim.__file__}, not from {SRC}")
    return oqcsim


def _import_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def measure_setup(repeats=SETUP_REPEATS):
    """Wall times of ``import oqcsim`` in fresh interpreters, run one at a time.

    One untimed import first writes the bytecode caches, which users pay
    once per install, not once per command.
    """
    cmd = [sys.executable, "-c", "import oqcsim"]
    subprocess.run(cmd, env=_import_env(), cwd=ROOT, check=True, timeout=120)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, env=_import_env(), cwd=ROOT, check=True, timeout=120)
        samples.append(time.perf_counter() - start)
    return samples


def import_times(repeats=IMPORTTIME_REPEATS):
    """Per-module import times from ``python -X importtime``, median of repeats.

    oqcsim modules report their self time; numpy, scipy.linalg and the
    whole package report cumulative time.
    """
    runs = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import oqcsim"],
            env=_import_env(), cwd=ROOT, check=True, timeout=120, capture_output=True, text=True,
        )
        table = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, cumulative_us, name = line[len("import time:"):].split("|")
            table[name.strip()] = (int(self_us), int(cumulative_us))
        runs.append(table)

    def median(name, column):
        return statistics.median(t.get(name, (0, 0))[column] for t in runs) / 1e6

    metrics = {f"{m}.import_s": (median(f"oqcsim.{m}", 0), "s") for m in IMPORT_MODULES}
    metrics["oqcsim.import_s"] = (median("oqcsim", 1), "s")
    metrics["numpy.import_s"] = (median("numpy", 1), "s")
    metrics["scipy.linalg.import_s"] = (median("scipy.linalg", 1), "s")
    return metrics


# ---------------------------------------------------------------- the loop


class Tally:
    """Latency, items and failures of the jobs run so far."""

    def __init__(self):
        self.latencies = []
        self.pass_rates = []
        self.pass_busy = []
        self.attempted = 0
        self.failures = []


def run_job(job, tally, tracer=None, job_id=None):
    """Run one job; returns (latency, items verified)."""
    if tracer is not None:
        tracer.begin_job(job_id)
    tally.attempted += 1
    start = time.perf_counter()
    try:
        out = job.call()
    except Exception as exc:  # a failed job is counted, the loop goes on
        latency = time.perf_counter() - start
        tally.failures.append(f"{job.kind}: {type(exc).__name__}: {exc}")
        return latency, 0
    latency = time.perf_counter() - start
    try:
        job.check(out)
    except Exception as exc:  # a wrong or malformed output fails the job
        tally.failures.append(f"{job.kind}: {type(exc).__name__}: {exc}")
        return latency, 0
    return latency, job.items


def run_passes(workload, tally, first, deadline, tracer=None, min_passes=1):
    """Run whole passes from pass ``first`` until ``deadline``; returns the next pass."""
    k = first
    while k - first < min_passes or time.perf_counter() < deadline:
        busy = items = 0
        for i, job in enumerate(workload.jobs(k)):
            latency, verified = run_job(job, tally, tracer, (k, i))
            tally.latencies.append(latency)
            busy += latency
            items += verified
        tally.pass_rates.append(items / busy)
        tally.pass_busy.append(busy)
        k += 1
    return k


def check_golden(workload, golden, tally):
    """Run the workload's golden jobs and compare their outputs with golden.json."""
    from workloads import compare_tables

    for key, produce in workload.golden.items():
        tally.attempted += 1
        try:
            table = produce()
        except Exception as exc:  # counted as a failed job
            tally.failures.append(f"golden {key}: {type(exc).__name__}: {exc}")
            continue
        if key not in golden:
            tally.failures.append(f"golden {key}: no recorded output")
            continue
        problems = compare_tables(table, golden[key])
        if problems:
            tally.failures.append(f"golden {key}: {'; '.join(problems)}")


def tail(latencies):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    n = len(latencies)
    if n < 2 * TAIL_BEYOND:
        return None
    ordered = sorted(latencies)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


# ---------------------------------------------------------------- metadata


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _package_version():
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"]["version"]


def metadata():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "oqcsim": _package_version(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


# ---------------------------------------------------------------- main


def run(name, seed, seconds, trace):
    """Measure one workload; returns (result dict, report lines)."""
    oqcsim = prepare()
    setup = measure_setup()
    imports = import_times() if trace else {}

    import workloads
    from tracer import Tracer

    with open(BENCH / "golden.json") as f:
        golden = json.load(f)[name]
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    tracer = None
    try:
        with open(os.devnull, "w") as sink:
            workload = workloads.build(name, seed, workdir, sink)
            check_golden(workload, golden, tally)
            start = time.perf_counter()
            deadline = start + seconds
            if not trace:
                run_passes(workload, tally, 0, deadline)
            else:
                run_passes(workload, tally, 0, start)  # one untraced pass
                untraced_busy = tally.pass_busy[0]
                tracer = Tracer()
                tracer.install(oqcsim)
                try:
                    first_traced = len(tally.pass_busy)
                    run_passes(workload, tally, 1, deadline, tracer)
                finally:
                    tracer.uninstall()
                traced_busy = tally.pass_busy[first_traced:]
            elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    fail_ratio = len(tally.failures) / tally.attempted
    lines = [f"workload {name} seed {seed} seconds {seconds:g} trace {trace} elapsed {elapsed:.3f} s"]
    lines += [f"failure: {m}" for m in tally.failures]
    lines.append(f"meta {json.dumps(metadata(), sort_keys=True)}")
    t = tail(tally.latencies)
    lines.append(
        f"job_tail_s {t[0]:.6f} s (p{t[1]:.1f}, n={len(tally.latencies)})" if t
        else f"job_tail_s omitted: n={len(tally.latencies)} < {2 * TAIL_BEYOND}"
    )
    lines.append(f"fail_ratio {fail_ratio:.6f} ratio (failed {len(tally.failures)} / attempted {tally.attempted})")

    if not trace:
        metrics = {
            "setup_s": (statistics.median(setup), "s", len(setup)),
            "items_per_s": (statistics.median(tally.pass_rates), "1/s", len(tally.pass_rates)),
            "job_p50_s": (statistics.median(tally.latencies), "s", len(tally.latencies)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        }
        lines += [f"{k} {v:.6f} {u} (n={n})" for k, (v, u, n) in metrics.items()]
        values = {k: (v, u) for k, (v, u, _) in metrics.items()}
    else:
        TRACES.mkdir(exist_ok=True)
        tracer.write(TRACES / f"{name}-seed{seed}.jsonl")
        values = tracer.layer_metrics(len(traced_busy))
        values["squeezed.small_state_share"] = (workload.small_state_share, "ratio")
        values.update(imports)
        values["trace.overhead_ratio"] = (statistics.median(traced_busy) / untraced_busy, "ratio")
        lines.append(f"traced passes {len(traced_busy)}; per-layer figures are per pass")
        lines += [f"{k} {v:.6g} {u}" for k, (v, u) in values.items()]

    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        result, lines = run(args.workload, args.seed, args.seconds, args.trace)
    except NotRunnable as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
