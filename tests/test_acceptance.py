"""Acceptance criteria for the benchmark artifact.

Each test prints one PASS/FAIL line (visible under ``pytest -v -s``). The
benchmark sweep (criteria 1, 2, 3, 5) runs once per session at the full
configuration: warehouse environment, marginal mode, gamma 0.95, 50
Monte-Carlo samples per backup, kappa in {1,3,6,9,12,15,18,21,24}, 30
evaluation seeds, horizon 100.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from gmfs.bellman import (
    QTable,
    _FrozenEngine,
    exact_sweep,
    off_policy_learn,
    OffPolicyConfig,
    value_iteration,
)
from gmfs.diagnostics import concentration_suite, ht_suite, small_env
from gmfs.graphon import build_weights
from gmfs.harness import (
    ExperimentConfig,
    build_assignment,
    build_environment,
    build_graphon,
    evaluate_table,
    run_sweep,
)
from gmfs.histograms import get_index
from gmfs.rng import stream

GAMMA = 0.95
WAREHOUSE_BOUND = 20.0 / (1.0 - GAMMA)  # reward_bound / (1 - gamma) = 400


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="session")
def paper_sweep(tmp_path_factory):
    cfg = ExperimentConfig()
    out = tmp_path_factory.mktemp("paper_sweep")
    return run_sweep(cfg, out_dir=out), cfg


def test_criterion_1_convergence_at_paper_settings(paper_sweep):
    report_obj, _ = paper_sweep
    worst = max(r.train_residual for r in report_obj.rows)
    iters = {r.kappa: r.train_iterations for r in report_obj.rows}
    ok = report_obj.ok() and worst < 1e-4 and all(t <= 250 for t in iters.values())
    report("criterion 1 (convergence, residual < 1e-4 within 250 sweeps)", ok,
           f"max residual {worst:.2e}, sweeps used {iters}")


def test_criterion_2_table_size_scaling(paper_sweep):
    report_obj, _ = paper_sweep
    expected = {r.kappa: 9 * math.comb(r.kappa + 2, 2) for r in report_obj.rows}
    got = {r.kappa: r.table_size for r in report_obj.rows}
    ok = got == expected and got[24] == 2925
    report("criterion 2 (table size = |S||A| C(kappa+2,2), exact)", ok,
           f"sizes {got}")


def test_criterion_3_performance_shape(paper_sweep):
    report_obj, _ = paper_sweep
    rows = report_obj.rows
    means = {r.kappa: r.mean_return for r in rows}
    ses = {r.kappa: r.stderr_return for r in rows}
    monotone = True
    worst_pair = ""
    for lo, hi in zip(rows, rows[1:]):
        pooled = math.hypot(lo.stderr_return, hi.stderr_return)
        if hi.mean_return < lo.mean_return - pooled - 1e-9:
            monotone = False
            worst_pair = f"kappa {lo.kappa}->{hi.kappa}"
    pooled_9_24 = math.hypot(ses[9], ses[24])
    near_optimal = abs(means[24] - means[9]) <= 2.0 * pooled_9_24 + 1e-9
    ok = monotone and near_optimal
    report("criterion 3 (mean return non-decreasing in kappa; kappa=9 near kappa=24)",
           ok,
           f"means {[f'{means[k]:.2f}' for k in sorted(means)]}, "
           f"|mean24-mean9|={abs(means[24] - means[9]):.3f} vs 2*pooled="
           f"{2 * pooled_9_24:.3f}" + (f"; violated at {worst_pair}" if worst_pair else ""))


def test_criterion_3b_performance_shape_with_variance(paper_sweep):
    # from the all-idle start every kappa >= 6 returns the same value with
    # stderr ~1e-14, so criterion 3 holds as 0 <= 0; a pmf start moves the
    # agents and gives every kappa a curve with real spread
    report_obj, cfg = paper_sweep
    cfg = replace(cfg, init=(0.34, 0.33, 0.33), seed_list=tuple(range(300)))
    env = build_environment(cfg)
    weights = build_weights(build_graphon(cfg), build_assignment(cfg))
    kappas = sorted(report_obj.tables)
    runs = {k: evaluate_table(cfg, env, weights, report_obj.tables[k]) for k in kappas}
    means = {k: runs[k].mean for k in kappas}
    ses = {k: runs[k].std_error for k in kappas}
    drops = [f"kappa {lo}->{hi}" for lo, hi in zip(kappas, kappas[1:])
             if means[hi] < means[lo] - math.hypot(ses[lo], ses[hi]) - 1e-9]
    pooled_9_24 = math.hypot(ses[9], ses[24])
    near_optimal = abs(means[24] - means[9]) <= 2.0 * pooled_9_24 + 1e-9
    # a flat curve passes both checks above; the smallest kappa must trail
    rises = means[24] - means[kappas[0]] > 2.0 * math.hypot(ses[24], ses[kappas[0]])
    report("criterion 3b (from init 0.34 0.33 0.33 over 300 seeds: mean return "
           "non-decreasing and rising in kappa; kappa=9 near kappa=24)",
           not drops and near_optimal and rises,
           f"means {[f'{means[k]:.2f}' for k in kappas]}, stderr "
           f"{[f'{ses[k]:.2f}' for k in kappas]}, |mean24-mean9|="
           f"{abs(means[24] - means[9]):.3f} vs 2*pooled={2 * pooled_9_24:.3f}"
           + (f"; violated at {', '.join(drops)}" if drops else ""))


def test_criterion_4_contraction_suite():
    env = small_env(gamma=0.9)
    gamma, kappa, pairs = 0.9, 2, 100
    rng = stream(0, "acceptance-contraction")
    scale = env.reward_bound / (1.0 - gamma)
    shape = (2, 2, get_index(4, kappa).total)
    worst = 0.0
    for _ in range(pairs):
        q1 = QTable("joint", kappa, 2, 2, rng.uniform(-scale, scale, shape), gamma)
        q2 = QTable("joint", kappa, 2, 2, rng.uniform(-scale, scale, shape), gamma)
        t1 = exact_sweep(env, q1, neighbor_action_rule="uniform")
        t2 = exact_sweep(env, q2, neighbor_action_rule="uniform")
        num = float(np.abs(t1 - t2).max())
        den = float(np.abs(q1.values - q2.values).max())
        worst = max(worst, num / den)
    ok = worst <= gamma + 1e-12
    report("criterion 4 (gamma-contraction over 100 random table pairs)", ok,
           f"max ratio {worst:.6f} vs gamma {gamma}")


def test_criterion_5_boundedness(paper_sweep):
    report_obj, _ = paper_sweep
    peaks = {r.kappa: r.sup_peak for r in report_obj.rows}
    worst = max(peaks.values())
    ok = worst <= WAREHOUSE_BOUND + 1e-9
    report("criterion 5 (every iterate bounded by reward_bound/(1-gamma) = 400)", ok,
           f"max sup-norm over all runs {worst:.3f}")


def test_criterion_6_geometric_residual_decay():
    env = small_env(gamma=0.9)
    q = value_iteration(env, 2, 1, 250, seed=0, mode="marginal", gamma=0.9,
                        epsilon=0.0, operator="exact", neighbor_action_rule="uniform")
    res = q.residual_history
    # numerical floor: once residuals shrink to where 64-bit rounding of the
    # table entries (eps * ||Q||) exceeds a tenth of the 1e-9 ratio slack,
    # the measured ratio is rounding noise, not operator behavior
    floor = 10.0 * np.finfo(float).eps * max(q.sup_history) / 1e-9
    worst = 0.0
    checked = 0
    for t in range(len(res) - 1):
        if res[t] <= floor:
            break
        worst = max(worst, res[t + 1] / res[t])
        checked += 1
    ok = checked >= 50 and worst <= 0.9 + 1e-9
    report("criterion 6 (exact-operator residual ratio <= gamma until floor)", ok,
           f"max residual ratio {worst:.10f} over {checked} sweeps above the "
           f"rounding floor {floor:.1e}")


def test_criterion_7_empirical_operator_consistency():
    env = small_env(gamma=0.9)
    kappa, m = 2, 100_000
    span = 2.0 * env.reward_bound / (1.0 - 0.9)
    tol = 3.0 * span / math.sqrt(m)
    rng = stream(1, "acceptance-empirical")
    q = QTable.zeros("marginal", kappa, 2, 2, 0.9)
    q.values = rng.uniform(-env.reward_bound / 0.1, env.reward_bound / 0.1,
                           q.values.shape)
    engine = _FrozenEngine(env, kappa, m, seed=77, mode="marginal",
                           neighbor_action_rule="uniform", aggregate_rule="leave_one_out")
    empirical = (engine.rewards + 0.9 * engine.sweep(q.values)).reshape(q.values.shape)
    exact = exact_sweep(env, q, neighbor_action_rule="uniform")
    worst = float(np.abs(empirical - exact).max())
    ok = worst <= tol
    report("criterion 7 (empirical vs exact operator at m=1e5)", ok,
           f"max |empirical - exact| {worst:.4f} vs 3*span/sqrt(m) = {tol:.4f}")


def test_criterion_8_concentration():
    result = concentration_suite(kappas=(10, 50, 200), delta=0.05, trials=10_000)
    rates = {row[0]: row[4] for row in result.rows}
    report("criterion 8 (TV concentration bound at kappa in {10,50,200})",
           result.passed, f"violation rates {rates} vs delta 0.05 + 3 sigma")


def test_criterion_9_ht_unbiasedness():
    result = ht_suite(n=10, kappa=5, replications=100_000)
    worst = max(row[4] for row in result.rows)
    report("criterion 9 (Horvitz-Thompson unbiasedness within 5 sigma)",
           result.passed, f"max per-cell |mean - exact| {worst:.5f}")


def test_criterion_10_off_policy_agreement():
    env = small_env(gamma=0.9)
    fixed = value_iteration(env, 2, 1, 2000, seed=0, mode="marginal", gamma=0.9,
                            epsilon=1e-13, operator="exact",
                            neighbor_action_rule="uniform")
    learned = off_policy_learn(env, 2, 1_000_000, seed=0, gamma=0.9,
                               config=OffPolicyConfig(learning_rate=0.05))
    gap = float(np.abs(learned.values - fixed.values).max())
    norm = float(np.abs(fixed.values).max())
    ok = gap <= 0.05 * norm
    report("criterion 10 (off-policy Q-learning within 5% of the fixed point)", ok,
           f"sup gap {gap:.4f} vs 5% of ||Q|| = {0.05 * norm:.4f}")


def test_criterion_11_stochastic_reward_averaging():
    env = small_env(gamma=0.9)
    det = {seed: value_iteration(env, 2, 10, 80, seed=seed, mode="marginal", gamma=0.9,
                                 neighbor_action_rule="uniform")
           for seed in range(10)}
    medians = {}
    for xi in (1, 10, 100):
        gaps = []
        for seed in range(10):
            sto = value_iteration(
                env, 2, 10, 80, seed=seed, mode="marginal", gamma=0.9,
                neighbor_action_rule="uniform", reward_noise=1.0, xi=xi)
            gaps.append(float(np.abs(sto.values - det[seed].values).max()))
        medians[xi] = float(np.median(gaps))
    ok = medians[1] >= medians[10] >= medians[100]
    report("criterion 11 (median stochastic-reward error non-increasing in Xi)", ok,
           f"medians {medians}")


def test_criterion_12_sweep_determinism(tmp_path, monkeypatch):
    cfg = ExperimentConfig()
    cfg = replace(cfg, kappa_list=(1, 3), seed_list=tuple(range(5)),
                  iterations=60, mc_samples=10, horizon=20)
    digests = {}
    for threads in ("1", "8"):
        monkeypatch.setenv("GMFS_THREADS", threads)
        out = tmp_path / f"threads_{threads}"
        run_sweep(cfg, out_dir=out)
        digests[threads] = {
            name: (out / name).read_bytes() for name in ("sweep.csv", "episodes.csv")
        }
    ok = digests["1"] == digests["8"]
    report("criterion 12 (byte-identical sweep CSVs for GMFS_THREADS 1 and 8)", ok,
           "sweep.csv and episodes.csv identical" if ok else "outputs differ")
