"""Digests of the program's deterministic outputs, and their regenerator.

Every output below is recomputed and its bytes hashed with sha256:

- ``sweep-zero``: the zero-config sweep with 10 evaluation seeds;
- ``sweep-joint``: joint mode at kappa 1 and 2, two sweeps each, pmf start;
- ``sweep-greedy``: the greedy neighbor rule at kappa 6 and 12;
- ``exact``: the exact-operator fixed point on the warehouse at kappa 6;
- ``offpolicy``: off-policy tables, uniform and state-dependent behavior;
- ``diagnose``: the CSVs of ``gmfs diagnose contraction lipschitz offpolicy``.

``tests/test_golden.py`` compares them with ``tests/golden.json``. Run
``python tests/golden.py --write`` to rewrite that file after a change that
is meant to change outputs; it also prints each sweep group's per-kappa
means, old -> new, for the change log.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden.json"

SWEEPS = {
    "sweep-zero": "[execute]\nseeds = 10\n",
    "sweep-joint": ("[train]\nmode = joint\nkappa_list = 1 2\niterations = 2\n"
                    "epsilon = 1e-12\n[execute]\nseeds = 10\ninit = 0.4 0.3 0.3\n"),
    "sweep-greedy": ("[train]\nkappa_list = 6 12\nneighbor_action_rule = greedy\n"
                     "[execute]\nseeds = 10\n"),
}
GROUPS = (*SWEEPS, "exact", "offpolicy", "diagnose")


def _digests(directory: Path) -> dict:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.iterdir()) if path.name != "timings.json"}


def _table_digest(q) -> str:
    from gmfs.bellman import save_qtable

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "q.bin"
        save_qtable(q, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def sweep_means(directory: Path) -> dict:
    """{kappa: mean return} read back from a sweep's ``sweep.csv``."""
    with open(directory / "sweep.csv") as fh:
        rows = csv.DictReader(line for line in fh if not line.startswith("#"))
        return {row["kappa"]: row["mean_return"] for row in rows}


def compute(group: str) -> tuple[dict, dict]:
    """(digests by output name, per-kappa mean returns) of one group; the
    means are empty for a group that runs no sweep."""
    from gmfs.bellman import OffPolicyConfig, off_policy_learn, value_iteration
    from gmfs.env import warehouse_env
    from gmfs.harness import parse_config, run_diagnostics, run_sweep

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        if group in SWEEPS:
            run_sweep(parse_config(SWEEPS[group]), out_dir=str(out))
            return _digests(out), sweep_means(out)
        if group == "diagnose":
            run_diagnostics(parse_config(""), ["contraction", "lipschitz", "offpolicy"],
                            out_dir=str(out))
            return _digests(out), {}
    env = warehouse_env()
    if group == "exact":
        q = value_iteration(env, 6, 1, operator="exact")
        return {"q_exact_kappa06.bin": _table_digest(q)}, {}
    if group == "offpolicy":
        behavior = OffPolicyConfig(learning_rate=0.1, decay=1e-3,
                                   behavior_policy=lambda s, g: np.arange(1.0, 4.0) + s + g % 2)
        return {"q_offpolicy_uniform.bin": _table_digest(off_policy_learn(env, 3, 20_000)),
                "q_offpolicy_behavior.bin": _table_digest(
                    off_policy_learn(env, 3, 20_000, 1, config=behavior))}, {}
    raise ValueError(f"unknown group {group!r}")


def environment() -> dict:
    """What the digests depend on besides the program."""
    return {"numpy": np.__version__, "machine": platform.machine()}


def mean_changes(old: dict, new: dict) -> list[str]:
    """One line per sweep group of ``new``: each kappa's mean return, as
    recorded in ``old`` -> as computed now ("-" where a side has none)."""
    lines = []
    for group, means in new.items():
        before = old.get(group, {})
        pairs = ", ".join(f"kappa {k} {_mean(before.get(k))} -> {_mean(v)}"
                          for k, v in means.items())
        lines.append(f"{group}: {pairs}")
    return lines


def _mean(value) -> str:
    return "-" if value is None else f"{float(value):.4f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help=f"rewrite {GOLDEN.name} from the current program")
    args = parser.parse_args(argv)
    record = {**environment(), "digests": {}, "means": {}}
    for group in GROUPS:
        record["digests"][group], means = compute(group)
        if means:
            record["means"][group] = means
    if args.write:
        old = json.loads(GOLDEN.read_text())["means"] if GOLDEN.exists() else {}
        GOLDEN.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {GOLDEN}")
        print("\n".join(mean_changes(old, record["means"])))
    else:
        print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN.parents[1] / "src"))
    sys.exit(main())
