"""The benchmark's workloads: the gmfs config each runs, the body that is
timed, and the correctness checks on what the body produced.

Each workload is a closed loop: one caller runs its operations one after
another and waits for each to return. The workload seed reaches gmfs only as
``[system] master_seed``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent

# The zero-config benchmark (warehouse env, n=25, radial graphon, the nine
# paper kappas, horizon 100, uniform neighbor rule) with 10 evaluation seeds
# instead of 30, so that one run holds more than one repetition; execution
# stays most of the time.
PAPER_SWEEP = {
    "full": "[execute]\nseeds = 10\n",
    "tiny": "[train]\nkappa_list = 1 3\niterations = 30\n[execute]\nseeds = 2\nhorizon = 10\n",
}
# Joint mode on the per-entry reference path, exactly two sweeps per kappa.
# The pmf start makes the population move, so returns vary across seeds.
SWEEP_JOINT = {
    "full": ("[train]\nmode = joint\nkappa_list = 1 2\niterations = 2\nepsilon = 1e-12\n"
             "[execute]\nseeds = 10\ninit = 0.4 0.3 0.3\n"),
    "tiny": ("[train]\nmode = joint\nkappa_list = 1\niterations = 2\nepsilon = 1e-12\n"
             "mc_samples = 5\n[execute]\nseeds = 2\nhorizon = 10\ninit = 0.4 0.3 0.3\n"),
}
# Training only: the paper kappas with the uniform neighbor rule, two kappas
# with the greedy rule, then the off-policy diagnostic suite.
LEARN_MARGINAL = {
    "full": ("", (6, 12)),
    "tiny": ("[train]\nkappa_list = 1 3\niterations = 30\n", (3,)),
}


def config_text(workload: str, seed: int, size: str) -> str:
    body = {"paper-sweep": PAPER_SWEEP[size], "sweep-joint": SWEEP_JOINT[size],
            "learn-marginal": LEARN_MARGINAL[size][0]}[workload]
    return body + f"[system]\nmaster_seed = {seed}\n"


def operation_count(workload: str, cfg, size: str) -> int:
    if workload != "learn-marginal":
        return len(cfg.kappa_list)
    return len(cfg.kappa_list) + len(LEARN_MARGINAL[size][1]) + 1


# -- bodies ------------------------------------------------------------------


def run(workload: str, harness, cfg, env, out: Path, size: str):
    """The timed body. Calls go through the ``harness`` module object so
    that the traced run sees them."""
    if workload != "learn-marginal":
        return harness.run_sweep(cfg, out_dir=str(out))
    tables = [("uniform", k, harness.train_kappa(cfg, env, k)) for k in cfg.kappa_list]
    greedy = dataclasses.replace(cfg, neighbor_action_rule="greedy")
    tables += [("greedy", k, harness.train_kappa(greedy, env, k))
               for k in LEARN_MARGINAL[size][1]]
    diagnostic = harness.run_diagnostics(cfg, ["offpolicy"], out_dir=str(out))["offpolicy"]
    return tables, diagnostic


def train_share(workload: str, out: Path, wall: float) -> dict:
    """The share of a sweep's wall time spent training, from the per-kappa
    times ``run_sweep`` writes to timings.json; empty for other bodies."""
    if workload == "learn-marginal":
        return {}
    timings = json.loads((out / "timings.json").read_text())
    return {"harness.train.share": sum(timings["train_wall_time_s"].values()) / wall}


# -- checks ------------------------------------------------------------------


def load_reference(workload: str, cfg, seed: int):
    """Per-kappa (mean, stderr) recorded at the seed commit, when this run
    uses the recorded config at the recorded seed; otherwise None."""
    recorded = json.loads((HERE / "reference.json").read_text()).get(workload)
    if (recorded is None or seed != recorded["seed"]
            or list(cfg.kappa_list) != [int(k) for k in recorded["kappa"]]
            or len(cfg.seed_list) != recorded["seeds"]):
        return None
    return {int(k): tuple(v) for k, v in recorded["kappa"].items()}


def check(workload: str, outputs, cfg, env, out: Path, reference) -> tuple[list, str]:
    """(operations, digest): one (label, reasons) per operation, and a
    digest of the deterministic outputs for the cross-repetition check."""
    digest = hashlib.sha256()
    if workload == "learn-marginal":
        tables, diagnostic = outputs
        ops = []
        for rule, kappa, q in tables:
            ops.append((f"train {rule} kappa={kappa}", checks.check_table(
                q, kappa=kappa, n_states=env.n_states, n_actions=env.n_actions,
                epsilon=cfg.epsilon, iterations=cfg.iterations,
                reward_bound=env.reward_bound)))
            digest.update(q.values.tobytes())
        ops.append(("diagnostic offpolicy", checks.check_diagnostic(diagnostic)))
        digest.update((out / "diagnostic_offpolicy.csv").read_bytes())
        return ops, digest.hexdigest()

    report = outputs
    for name in ("sweep.csv", "episodes.csv"):
        digest.update((out / name).read_bytes())
    rows = {int(r["kappa"]): r for r in checks.read_report(out / "sweep.csv")}
    returns: dict = {}
    for r in checks.read_report(out / "episodes.csv"):
        returns.setdefault(int(r["kappa"]), []).append(float(r["discounted_return"]))
    ops = []
    for kappa in cfg.kappa_list:
        table = report.tables.get(kappa)
        ops.append((f"sweep kappa={kappa}", checks.check_sweep_row(
            rows.get(kappa), returns.get(kappa, []), mode=cfg.mode,
            n_states=env.n_states, n_actions=env.n_actions, gamma=cfg.gamma,
            epsilon=cfg.epsilon, iterations=cfg.iterations, seeds=len(cfg.seed_list),
            reward_bound=env.reward_bound,
            residual_history=None if table is None else table.residual_history,
            reference=None if reference is None else reference.get(kappa))))
    return ops, digest.hexdigest()
