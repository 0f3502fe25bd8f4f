"""cubesteiner benchmark: seeded job lists run in one process, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload exact_mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One job runs at a time on one core. Each job is an in-process
`cubesteiner.cli.main([..., "--format", "json"])` call (or a public API call
where the CLI has no path), timed on its own, and its output is checked
against the values pinned in pins.json. The package is imported from src/,
so the benchmark measures the source tree it sits in.

With --trace 0 the last stdout line reports the end-to-end metrics:

    setup_s      median over SETUP_SAMPLES fresh interpreters of the time to
                 start and import cubesteiner.cli, which every CLI call pays
    jobs_per_s   median over passes of jobs completed per second of job time
    job_s.p50    median time per job
    job_s.p90    90th-percentile time per job (at least MIN_JOBS jobs, so ten
                 or more lie beyond it)
    peak_rss_mb  peak resident memory of this process

Times are host adjusted: each is scaled by YARDSTICK_S over the current time
of a fixed pure-Python yardstick, sampled after every job (see
host_adjusted). The unadjusted wall-clock figures and the host speed go to
the run record.

A run does a fixed number of passes of its job list, derived from --seconds
and the nominal pass time below, so two runs with the same arguments do
identical work. Jobs that raise, exit non-zero or print a value other than
the pinned one are counted in "failed".

With --trace 1 the run does one pass in which every job runs once untraced
and once with the tracer's wrappers installed (see tracing.py), and reports
the per-layer metrics, unadjusted. The spans go to
perfbench/out/trace-<workload>.bin. Every run writes its record (machine,
Python, commit, seed, metrics, failures) to perfbench/out/.

--workload all runs the three workloads one after another, each in its own
process, and prints every metric with its unit plus failed_ratio.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from jobs import check, describe, execute, job_list, load_pins
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("exact_mix", "symmetry", "sandwich")
# Seconds one pass of each job list took, with the program as it stood when
# this benchmark was written, on a 2-core Intel Xeon; --seconds / nominal
# gives the pass count.
NOMINAL_PASS_S = {"exact_mix": 10.5, "symmetry": 6.0, "sandwich": 5.6}
MIN_JOBS = 100
SETUP_SAMPLES = 15
# Adjusted times are seconds at the host speed where yardstick() takes
# YARDSTICK_S (its median on the host named above, in an otherwise idle run);
# REF_WINDOW neighbouring samples set the host speed around each job.
YARDSTICK_S = 0.0175
REF_WINDOW = 9


def yardstick() -> float:
    """Seconds taken by a fixed pure-Python breadth-first search of Q_12 (set,
    list and int work like the program's, but no cubesteiner code). Its time
    tracks the host's current speed; see host_adjusted."""
    t0 = time.perf_counter()
    for _ in range(2):
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for v in frontier:
                for b in range(12):
                    u = v ^ (1 << b)
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
            frontier = nxt
    return time.perf_counter() - t0


def host_adjusted(times: list[float], refs: list[float]) -> list[float]:
    """Scale each time to the host speed at which the yardstick takes
    YARDSTICK_S, using the median of the REF_WINDOW yardstick samples taken
    around it. The shared host runs this code up to twice as slowly for tens
    of seconds at a time, which moves the yardstick and the jobs largely in
    step."""
    half = REF_WINDOW // 2
    return [
        t * YARDSTICK_S / statistics.median(refs[max(0, i - half) : i + half + 1])
        for i, t in enumerate(times)
    ]


def measure_setup() -> tuple[float, float]:
    """Median time for a fresh interpreter to import cubesteiner.cli, host
    adjusted and as measured on the wall clock."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples, refs = [], []
    for _ in range(SETUP_SAMPLES):
        refs.append(yardstick())
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import cubesteiner.cli"], env=env, cwd=ROOT, check=True
        )
        samples.append(time.perf_counter() - t0)
    wall = statistics.median(samples)
    return wall * YARDSTICK_S / statistics.median(refs), wall


def timed(job: dict, package) -> tuple[float, tuple]:
    """Wall time and raw output of one job."""
    t0 = time.perf_counter()
    raw = execute(job, package)
    return time.perf_counter() - t0, raw


def check_pass(job_list: list[dict], raws: list[tuple]) -> list[str]:
    failures = []
    for job, raw in zip(job_list, raws):
        reason = check(job, raw)
        if reason is not None:
            failures.append(f"{describe(job)}: {reason}")
    return failures


def percentiles(times: list[float]) -> tuple[float, float]:
    return statistics.median(times), statistics.quantiles(times, n=10)[8]


def timed_run(workload: str, seed: int, seconds: int, pins: dict, package) -> dict:
    """Fixed passes; a yardstick sample follows every job, outside its time."""
    slots = len(pins[workload]["slots"])
    passes = max(math.ceil(MIN_JOBS / slots), round(seconds / NOMINAL_PASS_S[workload]))
    times, refs, sizes, failures = [], [], [], []
    for p in range(passes):
        jobs = job_list(pins, workload, seed, p)
        raws = []
        for job in jobs:
            t, raw = timed(job, package)
            times.append(t)
            raws.append(raw)
            refs.append(yardstick())
        sizes.append(len(jobs))
        failures += check_pass(jobs, raws)
    adjusted = host_adjusted(times, refs)
    bounds = [sum(sizes[:i]) for i in range(len(sizes) + 1)]

    def pass_rates(ts: list[float]) -> list[float]:
        return [n / sum(ts[lo : lo + n]) for lo, n in zip(bounds, sizes)]

    p50, p90 = percentiles(adjusted)
    wall_p50, wall_p90 = percentiles(times)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "attempted": len(times),
        "failures": failures,
        "passes": passes,
        "host_speed": YARDSTICK_S / statistics.median(refs),
        "wall": {
            "jobs_per_s": statistics.median(pass_rates(times)),
            "job_s.p50": wall_p50,
            "job_s.p90": wall_p90,
        },
        "metrics": {
            "jobs_per_s": (statistics.median(pass_rates(adjusted)), "jobs/s"),
            "job_s.p50": (p50, "s"),
            "job_s.p90": (p90, "s"),
            "peak_rss_mb": (peak_kib / 1024, "MB"),
        },
    }


def traced_run(workload: str, seed: int, pins: dict, package, header: dict) -> dict:
    """One pass where every job runs twice, untraced and traced. Which side
    goes first alternates every two jobs, so that within each alternating
    family both sides go first equally often."""
    jobs = job_list(pins, workload, seed, 0)
    tracer = Tracer()
    wall = {False: 0.0, True: 0.0}
    failures = []
    for i, job in enumerate(jobs):
        for traced in (False, True) if i // 2 % 2 == 0 else (True, False):
            if traced:
                tracer.install()
            try:
                t, raw = timed(job, package)
            finally:
                tracer.uninstall()
            wall[traced] += t
            failures += check_pass([job], [raw])
    metrics = tracer.layer_metrics()
    metrics["trace.untraced_wall_s"] = (wall[False], "s")
    metrics["trace.traced_wall_s"] = (wall[True], "s")
    metrics["trace.overhead_ratio"] = (wall[True] / wall[False], "ratio")
    metrics["trace.top_span_coverage"] = (metrics["trace.top_span_s"][0] / wall[True], "ratio")
    tracer.write(OUT / f"trace-{workload}.bin", header)
    return {"attempted": 2 * len(jobs), "failures": failures, "passes": 1, "metrics": metrics}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "unknown (not a git checkout)"
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cubesteiner").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; print every metric and failed_ratio."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[workload] = json.loads(lines[-1])
    for workload, res in results.items():
        print(f"{workload}: attempted {res['attempted']}, failed {res['failed']}")
        print(f"  {'failed_ratio':40s} {res['failed'] / res['attempted']:.6g} ratio")
        for name, m in res["metrics"].items():
            print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cubesteiner" / "__init__.py").is_file():
        print(f"error: no cubesteiner sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    setup_s, setup_wall_s = measure_setup() if not args.trace else (None, None)
    sys.path.insert(0, str(SRC))
    import cubesteiner.cli
    pins = load_pins()
    record = run_record(args)
    if args.trace:
        result = traced_run(args.workload, args.seed, pins, cubesteiner, record)
    else:
        result = timed_run(args.workload, args.seed, args.seconds, pins, cubesteiner)
        result["metrics"] = {"setup_s": (setup_s, "s"), **result["metrics"]}
        result["wall"]["setup_s"] = setup_wall_s

    failures = result["failures"]
    record.update(
        passes=result["passes"],
        host_speed=result.get("host_speed"),
        wall=result.get("wall"),
        attempted=result["attempted"],
        failed=len(failures),
        failures=failures[:20],
        metrics={k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    )
    OUT.mkdir(exist_ok=True)
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({k: v for k, v in record.items() if k not in ("metrics", "failures")}), file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": result["attempted"],
                "failed": len(failures),
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
