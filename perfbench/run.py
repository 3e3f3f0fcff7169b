"""gmfs benchmark driver.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 40 --trace 0

Runs repetitions of one workload, each in a fresh process with
GMFS_THREADS=1, until the next one would end after ``--seconds``. With
``--trace 0`` it reports the end-to-end metrics: the fastest repetition's
wall time, the median set-up time and the median peak resident set. With
``--trace 1`` it alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones. Every repetition's outputs are
checked; the last line of standard output is one JSON object with keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("paper-sweep", "learn-marginal", "sweep-joint")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# every run must end within 180 s, whatever --seconds asks
HARD_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["GMFS_THREADS"] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(spec: dict, timeout: float) -> dict | None:
    """Run one worker; its parsed result, or None if it crashed or timed out."""
    try:
        proc = subprocess.run([sys.executable, str(WORKER), json.dumps(spec)], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        print(f"perfbench: repetition timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        print(f"perfbench: repetition exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repetitions(workload: str, seed: int, seconds: float, trace: bool, size: str):
    """The repetitions, each {"traced", "result"}.

    Untraced runs repeat the body; traced runs alternate untraced and traced
    repetitions of it.
    """
    start = time.perf_counter()
    spec = {"workload": workload, "seed": seed, "size": size}
    reps, durations = [], {}

    def following():
        plain = sum(not r["traced"] for r in reps)
        return trace and plain > len(reps) - plain

    while True:
        traced = following()
        t0 = time.perf_counter()
        remaining = start + HARD_LIMIT_S - t0
        result = run_child(dict(spec, trace=int(traced)), remaining)
        reps.append({"traced": traced, "result": result})
        durations.setdefault(traced, []).append(time.perf_counter() - t0)
        done = len(reps) >= (2 if trace else 1)
        predicted = statistics.median(durations.get(following(), durations[traced]))
        now = time.perf_counter()
        if done and now + predicted > start + seconds:
            break
        if now + predicted > start + HARD_LIMIT_S:
            break
    return reps


def operations(reps, planned: int):
    """(attempted, failures) over all repetitions, each planning ``planned``
    operations. A repetition whose output digest differs from the first one
    fails every operation it ran."""
    attempted, failures, first = 0, [], None
    for k, rep in enumerate(reps):
        res = rep["result"]
        if res is None:
            attempted += planned
            failures += [(f"repetition {k}", "crashed")] * planned
            continue
        if "digest" in res and first is None:
            first = res["digest"]
        mismatch = "digest" in res and res["digest"] != first
        for label, reasons in res["ops"]:
            attempted += 1
            if mismatch:
                reasons = reasons + ["outputs differ from the first repetition at this seed"]
            if reasons:
                failures.append((f"repetition {k} {label}", "; ".join(reasons)))
    return attempted, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gmfs" / "__init__.py").is_file():
        print(f"perfbench: no gmfs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    from gmfs import harness

    import workloads

    cfg = harness.parse_config(workloads.config_text(args.workload, args.seed, args.size))
    planned = workloads.operation_count(args.workload, cfg, args.size)
    reps = repetitions(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    attempted, failures = operations(reps, planned)
    timed = {True: [], False: []}
    for rep in reps:
        if rep["result"] is not None and "wall_s" in rep["result"]:
            timed[rep["traced"]].append(rep["result"])
    if not timed[False] or (args.trace and not timed[True]):
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1

    plain = timed[False]
    if args.trace:
        from layers import metric_units

        units = metric_units()
        traced = timed[True]
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in units if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (values["trace.wall_s"]
                                      - statistics.median(r["wall_s"] for r in plain))
        runs = f"medians of {len(traced)} traced repetitions"
    else:
        units = END_TO_END
        # the fastest repetition: on a shared machine slowdowns only add time
        values = {"wall_s": min(r["wall_s"] for r in plain),
                  "setup_s": statistics.median(r["setup_s"] for r in plain),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain)}
        runs = f"{len(plain)} repetitions"
    profile = {name: statistics.median(r["profile"][name] for r in group)
               for group in (timed[True], plain) if group
               for name in group[0]["profile"]}

    print(f"{args.workload} seed={args.seed} size={args.size}: {runs}")
    for traced, group in timed.items():
        if group:
            kind = "traced" if traced else "untraced"
            for key in ("wall_s", "cpu_s"):
                print(f"  {key} per {kind} repetition: "
                      + " ".join(f"{r[key]:.4g}" for r in group))
    for name, unit in units.items():
        print(f"  {name:40s} {values[name]:.6g} {unit}")
    for name, share in profile.items():
        print(f"  {name:40s} {share:.3f} of the body (profile check, not a metric)")
    print(f"  {'fail_rate':40s} {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} operations)")
    for where, why in failures[:20]:
        print(f"  FAILED {where}: {why}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
