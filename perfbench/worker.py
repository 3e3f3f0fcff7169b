"""One repetition of a workload in a fresh process, so that every gmfs cache
starts cold as it does for a CLI invocation.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the workload, seed, size and whether to trace. The result is
printed as one JSON line: set-up time, body wall and CPU time, peak resident
set, per-operation check results and an output digest (and per-layer metrics
when traced).
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    spec = json.loads(argv[1])
    name, size, traced = spec["workload"], spec["size"], bool(spec["trace"])

    t0 = time.perf_counter()
    import gmfs
    from gmfs import harness

    source = (ROOT / "src").resolve()
    if source not in Path(gmfs.__file__).resolve().parents:
        print(f"gmfs imported from {gmfs.__file__}, not from {source}", file=sys.stderr)
        return 2
    layers = None
    if traced:
        from layers import LayerTrace

        layers = LayerTrace()
        layers.install()
    cfg = harness.parse_config(workloads.config_text(name, spec["seed"], size))
    env = harness.build_environment(cfg)
    harness.build_weights(harness.build_graphon(cfg), harness.build_assignment(cfg))
    result = {"setup_s": time.perf_counter() - t0}

    out = ROOT / ".bench_out" / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        t1, c1 = time.perf_counter(), time.process_time()
        outputs = workloads.run(name, harness, cfg, env, out, size)
        wall = time.perf_counter() - t1
        result["wall_s"] = wall
        result["cpu_s"] = time.process_time() - c1
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["profile"] = workloads.train_share(name, out, wall)
        if layers is not None:
            cutoff = len(layers.tracer.span_start)
            probes = layers.probe_value_iteration()
            result["layers"] = layers.metrics(cutoff, wall, probes)
            result["profile"].update(layers.shares(result["layers"]))
            layers.tracer.save(out / "spans.npz", cutoff)
        reference = workloads.load_reference(name, cfg, spec["seed"])
        ops, result["digest"] = workloads.check(name, outputs, cfg, env, out, reference)
    except Exception:  # the repetition failed: every planned operation counts as failed
        traceback.print_exc()
        reason = "raised " + traceback.format_exc().strip().splitlines()[-1]
        ops = [(f"operation {i}", [reason])
               for i in range(workloads.operation_count(name, cfg, size))]
    finally:
        if layers is not None:
            layers.tracer.restore()
    result["ops"] = ops
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
