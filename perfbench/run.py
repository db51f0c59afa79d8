"""Benchmark of stoseg: ensemble training, evaluation from disk and the
gradient suite, each workload in its own process.

    python3 perfbench/run.py --workload train_sto --seed 1 --seconds 30 --trace 0

Run from the repository root. With ``--trace 0`` the result carries the
end-to-end metrics of BENCHMARK.json, measured untraced; with ``--trace 1``
it carries the per-layer metrics from a traced run that follows an untraced
one. Without ``--workload`` every workload runs, one process each. The last
line of standard output is the result as JSON; the lines before it name
each metric with its unit and give the environment. Full results and spans
are also written under ``.bench_out/``.
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
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
# One BLAS thread: on a shared 2-core host a second thread made repeated
# runs differ by up to 30%, against about 15% with one.
BLAS_THREADS = 1
# Set-up repeats at least this often and for at least this long; its median is reported.
SETUP_REPEATS, SETUP_SECONDS = 3, 2.0

# Units of the report lines that are not metrics of BENCHMARK.json.
REPORT_UNITS = {"train_sample_epochs_per_s": "1/s", "eval_images_per_s": "1/s",
                "checks_per_s": "1/s", "fused_dice": "dice", "dice_gain": "dice",
                "failed_frac": "share"}


def parse_args(argv, names, default_seconds):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=names, help="default: every workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=default_seconds,
                   help="measuring time of one run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def run_all(args, names) -> int:
    worst = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT, timeout=900).returncode)
    return worst


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int, threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "nproc": os.cpu_count(),
        "blas_threads": threads,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def time_setup(wl) -> list[float]:
    times = []
    start = perf_counter()
    while len(times) < SETUP_REPEATS or perf_counter() - start < SETUP_SECONDS:
        t = perf_counter()
        wl.setup()
        times.append(perf_counter() - t)
    return times


def measure(wl, seconds: float, tracer=None) -> tuple[list, list]:
    """Repeat the timed phase for about ``seconds`` (at least once), checking
    each repetition's outputs outside the timed and traced region. Returns
    (wall_s, items_per_s) per repetition and the checks."""
    reps, checks = [], []
    start = perf_counter()
    while True:
        if tracer is not None:
            tracer.install()
        try:
            rep = wl.run()
        finally:
            if tracer is not None:
                tracer.restore()
        checks.append(wl.check(rep))
        reps.append((rep.wall_s, rep.items / rep.items_s))
        del rep  # so peak RSS does not depend on the number of repetitions
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(reps) > seconds:
            return reps, checks


def end_to_end_metrics(setup_s: list[float], reps: list[tuple[float, float]],
                       peak_rss_mb: float) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(r[0] for r in reps),
        "items_per_s": statistics.median(r[1] for r in reps),
        "peak_rss_mb": peak_rss_mb,
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    args = parse_args(argv, names, bench["run_seconds"])
    if not (ROOT / "src" / "stoseg" / "__init__.py").is_file():
        print(f"error: no stoseg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args, names)

    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import stoseg

    if Path(stoseg.__file__).resolve().parent != ROOT / "src" / "stoseg":
        print(f"error: imported stoseg from {stoseg.__file__}", file=sys.stderr)
        return 2
    from perfbench import layers, workloads
    from perfbench.tracer import Tracer

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    annotate = layers.annotators(stoseg.NetworkConfig())
    try:
        if args.trace:
            setup_tracer = Tracer("stoseg", layers.TRACED_MODULES, annotate)
            with setup_tracer.installed():
                wl.setup()
        else:
            setup_s = time_setup(wl)
        reps, checks = measure(wl, args.seconds)
        if args.trace:
            tracer = Tracer("stoseg", layers.TRACED_MODULES, annotate)
            traced, traced_checks = measure(wl, args.seconds, tracer)
            checks += traced_checks
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    quality = checks[-1].quality
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        wall_s = statistics.median(r[0] for r in reps)
        overhead = statistics.median(r[0] for r in traced) / wall_s - 1.0
        values = layers.per_layer_metrics(
            tracer.spans, len(traced), setup_tracer.spans, quality, overhead,
            layers.activation_sweep(args.seed))
        declared = bench["per_layer"]
    else:
        values = end_to_end_metrics(setup_s, reps, peak_rss_mb)
        declared = bench["end_to_end"]
    if list(values) != [m["name"] for m in declared]:
        raise RuntimeError("emitted metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ {m['name'] for m in declared})}")

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units |= REPORT_UNITS
    report = {
        "wall_s": statistics.median(r[0] for r in reps),
        wl.item_metric: statistics.median(r[1] for r in reps),
        "peak_rss_mb": peak_rss_mb,
        **quality,
        "failed_frac": failed / attempted,
    }
    for name, value in report.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    env = environment(args.seed, threads)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"env": env, "report": report, "result": result}, indent=1) + "\n")
    if args.trace:
        tracer.dump(OUT_DIR / f"spans-{stem}.jsonl")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
