"""Benchmark of condctc training and decoding; see bench/README.md.

    python3 bench/run.py --workload train-alternate --seed 1 --seconds 30 --trace 0

Runs one round of the workload in each of a series of fresh worker processes,
started one after another with OPENBLAS_NUM_THREADS=1, until the workers'
wall time fills `--seconds`.  With `--trace 1` every second worker is traced.
`--workload all` runs every workload in turn.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and `metrics`;
the full record of the run, with the environment it ran in, goes to
.bench_runs/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
WORKLOADS = ("train-alternate", "train-baseline", "decode-long")
MIN_WORKERS = 3
# Set-up times per untraced run: workers that set up and stop add samples
# until there are this many, as set-up varies by about 20% from process to
# process and a training run has only three rounds.
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170.0
# Thread settings of every worker: one BLAS thread, so runs measure the
# single-threaded engine and do not compete with each other for cores.
WORKER_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = None
    return {
        "python": sys.version,
        "numpy": np.__version__,
        "blas": blas,
        "worker_threads": WORKER_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "src_sha256": hashlib.sha256(b"".join(
            p.relative_to(ROOT).as_posix().encode() + p.read_bytes()
            for p in sorted(SRC.rglob("*.py")))).hexdigest(),
    }


def git_sha() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
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
    return None


def run_worker(workload: str, seed: int, trace: bool, check: bool, deadline: float,
               spans: Path, setup_only: bool = False) -> dict:
    """Runs one worker in a work directory of its own, so its output checks
    see only the files it wrote, and removes the directory afterwards."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1", **WORKER_THREADS)
    work = Path(tempfile.mkdtemp(prefix=f"work-{workload}-", dir=RUNS))
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--check", str(int(check)), "--src", str(SRC),
           "--work", str(work)]
    if trace:
        cmd += ["--spans", str(spans)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        return {"error": f"worker exceeded the {RUN_LIMIT_S:.0f}s run limit"}
    finally:
        shutil.rmtree(work)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited with code {proc.returncode}"}
    return {**json.loads(lines[-1]), "traced": trace, "wall_s": time.monotonic() - t0}


def run_workload(workload: str, seed: int, seconds: float, trace: int, env: dict,
                 units: dict[str, str]) -> dict:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    stem = f"{workload}-seed{seed}-trace{trace}"
    # Start workers until their wall time is nearest `seconds` (at least
    # MIN_WORKERS, so frames/s is a median of several rounds), while the slowest
    # worker so far would still fit twice before the deadline.  The first
    # worker checks its outputs against the reference; the others must
    # reproduce its output digest bit for bit.
    workers: list[dict] = []
    while True:
        spent = sum(w["wall_s"] for w in workers)
        if len(workers) >= MIN_WORKERS and (
                spent + 0.5 * spent / len(workers) > seconds
                or time.monotonic() + 2 * max(w["wall_s"] for w in workers) > deadline):
            break
        traced = bool(trace) and len(workers) % 2 == 1
        w = run_worker(workload, seed, traced, not workers, deadline,
                       RUNS / f"{stem}.w{len(workers)}.spans.jsonl")
        workers.append(w)
        if "error" in w:
            break
    setups: list[dict] = []
    while (not trace and not any("error" in w for w in workers + setups)
           and len(workers) + len(setups) < SETUP_SAMPLES
           and time.monotonic() + 2 * max(w["wall_s"] for w in workers) <= deadline):
        setups.append(run_worker(workload, seed, False, False, deadline, None, setup_only=True))

    errors = [w["error"] for w in workers + setups if "error" in w]
    if not errors and len({w["digest"] for w in workers}) != 1:
        workers[0]["failures"].append("workers disagree on their outputs: "
                                      + ", ".join(str(w["digest"])[:12] for w in workers))
    if errors:
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}, "errors": errors}
    else:
        result = {
            "correct": not any(w["failures"] for w in workers),
            "attempted": sum(w["attempted"] for w in workers),
            "failed": sum(w["failed"] for w in workers),
        }
        plain = [w for w in workers if not w["traced"]]
        fps = statistics.median(w["frames"] / w["seconds"] for w in plain)
        if trace:
            traced = [w for w in workers if w["traced"]]
            metrics = {k: statistics.median(w["layers"][k] for w in traced)
                       for k in traced[0]["layers"]}
            metrics["trace.overhead_pct"] = 100.0 * (fps / statistics.median(
                w["frames"] / w["seconds"] for w in traced) - 1.0)
        else:
            metrics = {
                "setup_s": statistics.median(w["setup_s"] for w in plain + setups),
                "frames_per_s": fps,
                "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in plain),
            }
        result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env, "wall_s": time.monotonic() - started, "workers": workers,
              "setup_workers": setups,
              "result": result}
    (RUNS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    for w in workers:
        for msg in w.get("failures", []):
            print(f"{workload}: check failed: {msg}", file=sys.stderr)
    return result


def metric_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "condctc" / "__init__.py").is_file():
        print(f"no program source at {SRC / 'condctc'}; run from a full checkout",
              file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)
    env, units = environment(), metric_units()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace, env, units)
        if len(names) > 1:
            print(json.dumps({"workload": name, **results[name]}))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps({k: final[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
