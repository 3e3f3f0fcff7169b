"""Correctness checks behind the benchmark's failed-operation count.

Each check returns a list of reasons; an empty list means the operation
passed. None of them pins output bytes: they hold for any draw scheme, so a
change that redraws random numbers but keeps the guarantees still passes.
"""

from __future__ import annotations

import csv
import math

# float rounding slack on gamma * residual in the contraction check
CONTRACTION_SLACK = 1e-12
# a recorded mean is matched within this many pooled standard errors ...
REFERENCE_STDERRS = 4.0
# ... plus this share of its magnitude
REFERENCE_RELATIVE = 1e-9


def expected_table_size(mode: str, kappa: int, n_states: int, n_actions: int) -> int:
    """|S| |A| C(kappa + a - 1, a - 1) with a = |S| (marginal) or |S| |A| (joint)."""
    a = n_states * n_actions if mode == "joint" else n_states
    return n_states * n_actions * math.comb(kappa + a - 1, a - 1)


def read_report(path) -> list[dict]:
    """Rows of a gmfs CSV report, skipping its '#' provenance lines."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def check_sweep_row(row: dict | None, returns: list, *, mode: str, n_states: int,
                    n_actions: int, gamma: float, epsilon: float, iterations: int,
                    seeds: int, reward_bound: float, residual_history=None,
                    reference=None) -> list[str]:
    """One sweep.csv row and its episodes.csv returns.

    ``reference`` is (mean, stderr) recorded at the seed commit for this
    kappa at the default seed, or None to skip that comparison.
    """
    if row is None:
        return ["row missing from sweep.csv"]
    why = []
    kappa = int(row["kappa"])
    if row["status"] != "ok":
        why.append(f"status {row['status']!r}")
        return why
    if int(row["train_iterations"]) < iterations and not float(row["train_residual"]) < epsilon:
        why.append(f"stopped early with residual {row['train_residual']} >= {epsilon}")
    size = expected_table_size(mode, kappa, n_states, n_actions)
    if int(row["table_size"]) != size:
        why.append(f"table_size {row['table_size']} != {size}")
    if mode == "joint":
        why += check_contraction(residual_history, gamma)
    if len(returns) != seeds:
        why.append(f"{len(returns)} episodes for {seeds} seeds")
    why += check_bounded(returns, reward_bound / (1.0 - gamma), "return")
    if reference is not None:
        why += check_reference(float(row["mean_return"]), float(row["stderr_return"]),
                               *reference)
    return why


def check_contraction(history, gamma: float) -> list[str]:
    """Frozen-sample value iteration contracts: r[1] <= gamma * r[0]."""
    if history is None or len(history) < 2:
        return ["fewer than two residuals recorded"]
    if not history[1] <= gamma * history[0] * (1.0 + CONTRACTION_SLACK):
        return [f"residual {history[1]!r} > gamma * {history[0]!r}"]
    return []


def check_bounded(values, bound: float, what: str) -> list[str]:
    bad = [v for v in values if not (math.isfinite(v) and abs(v) <= bound)]
    if bad:
        return [f"{len(bad)} {what}(s) outside [-{bound}, {bound}], e.g. {bad[0]!r}"]
    return []


def check_reference(mean: float, stderr: float, ref_mean: float, ref_stderr: float) -> list[str]:
    """Mean return within 4 pooled standard errors of the recorded mean."""
    tolerance = (REFERENCE_STDERRS * math.hypot(stderr, ref_stderr)
                 + REFERENCE_RELATIVE * abs(ref_mean))
    if not abs(mean - ref_mean) <= tolerance:
        return [f"mean return {mean!r} is {abs(mean - ref_mean):.3g} from the "
                f"recorded {ref_mean!r} (tolerance {tolerance:.3g})"]
    return []


def check_table(q, *, kappa: int, n_states: int, n_actions: int, epsilon: float,
                iterations: int, reward_bound: float) -> list[str]:
    """A table returned by train_kappa (marginal mode)."""
    why = []
    size = expected_table_size(q.mode, kappa, n_states, n_actions)
    if q.values.size != size:
        why.append(f"table has {q.values.size} entries, expected {size}")
    if q.iterations < iterations and not q.residual < epsilon:
        why.append(f"stopped early with residual {q.residual!r} >= {epsilon}")
    why += check_bounded(q.values.ravel().tolist(), reward_bound / (1.0 - q.gamma), "value")
    return why


def check_diagnostic(result) -> list[str]:
    if not result.passed:
        return [f"suite {result.name} failed: {result.detail}"]
    return []
