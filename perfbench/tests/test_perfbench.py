"""Tests of the benchmark itself: tracer arithmetic and patching, metric
names, the correctness checks and a tiny run of every workload.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads
from layers import LayerTrace, metric_units
from tracer import Tracer, self_times

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- tracer ------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_child_intervals():
    # 0: root [0, 10]; 1, 2: overlapping children [1, 4] and [3, 6];
    # 3: grandchild [1, 2] under 1; 4: child [9, 12] running past its parent;
    # 5: a second root [20, 21] with no children
    parent = np.array([-1, 0, 0, 1, 0, -1])
    start = np.array([0.0, 1.0, 3.0, 1.0, 9.0, 20.0])
    end = np.array([10.0, 4.0, 6.0, 2.0, 12.0, 21.0])
    own = self_times(parent, start, end)
    # root: covered by [1, 6] and [9, 10] -> 10 - 5 - 1
    np.testing.assert_allclose(own, [4.0, 2.0, 3.0, 1.0, 3.0, 1.0])


def test_self_time_of_children_of_several_parents_does_not_mix():
    parent = np.array([-1, -1, 0, 1, 1])
    start = np.array([0.0, 5.0, 1.0, 5.0, 6.0])
    end = np.array([4.0, 9.0, 3.0, 6.0, 7.0])
    np.testing.assert_allclose(self_times(parent, start, end), [2.0, 2.0, 2.0, 1.0, 1.0])


def test_tracer_records_nested_spans_and_hooks():
    tracer = Tracer()
    seen = []
    inner = tracer.wrap(lambda x: x + 1, "inner", lambda sid, a, k, r: seen.append((a, r)))
    outer = tracer.wrap(lambda x: inner(x) * 2, "outer")
    assert outer(3) == 8
    names, parent, start, end = tracer.arrays()
    assert [tracer.names[i] for i in names] == ["outer", "inner"]
    assert parent.tolist() == [-1, 0]
    assert start[0] <= start[1] <= end[1] <= end[0]
    assert seen == [((3,), 4)]


def _bindings():
    """Every callable bound in a gmfs module, plus the wrapped methods."""
    from gmfs import execution, histograms

    mods = {name: mod for name, mod in sys.modules.items()
            if name == "gmfs" or name.startswith("gmfs.")}
    snap = {(name, attr): value for name, mod in mods.items()
            for attr, value in vars(mod).items() if callable(value)}
    snap[("HistogramIndex", "rank_rows")] = histograms.HistogramIndex.rank_rows
    snap[("Policy", "greedy_table")] = execution.Policy.greedy_table
    return snap


def test_layer_trace_rebinds_every_importer_and_restores_them():
    from gmfs import bellman, diagnostics, execution, harness, histograms, rng

    before = _bindings()
    original_stream = rng.stream
    trace = LayerTrace()
    trace.install()
    try:
        for module in (rng, bellman, execution, diagnostics):
            assert module.stream is not original_stream
            assert module.stream.__wrapped__ is original_stream
        assert diagnostics.value_iteration is bellman.value_iteration is harness.value_iteration
        assert diagnostics.off_policy_learn is bellman.off_policy_learn
        assert hasattr(histograms.HistogramIndex.rank_rows, "__wrapped__")
        assert hasattr(harness.evaluate_policy, "__wrapped__")
        assert not hasattr(execution.evaluate_policy, "__wrapped__")
    finally:
        trace.tracer.restore()
    after = _bindings()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert changed == []


# -- metric names ----------------------------------------------------------------


def test_metric_names_and_units_match_benchmark_json():
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert metric_units() == per_layer
    assert run.END_TO_END == end_to_end
    for name in list(per_layer) + list(end_to_end):
        assert pattern.fullmatch(name), name
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


# -- correctness checks fail on corrupted outputs ------------------------------


GOOD_ROW = {"kappa": "2", "table_size": "405", "train_iterations": "2",
            "train_residual": "19.0", "mean_return": "121.9",
            "stderr_return": "1.7", "status": "ok"}
GOOD = dict(mode="joint", n_states=3, n_actions=3, gamma=0.95, epsilon=1e-12,
            iterations=2, seeds=3, reward_bound=20.0, residual_history=[20.0, 19.0],
            reference=(121.9, 1.7))


def test_a_good_sweep_row_passes():
    assert checks.check_sweep_row(dict(GOOD_ROW), [100.0, 120.0, 140.0], **GOOD) == []


@pytest.mark.parametrize("corrupt", [
    {"row": {"status": "error"}},
    {"row": {"train_iterations": "1", "train_residual": "0.5"}},  # stopped early, not converged
    {"row": {"table_size": "406"}},
    {"kw": {"residual_history": [20.0, 19.5]}},                  # no contraction
    {"kw": {"residual_history": [20.0]}},
    {"returns": [100.0, 120.0, 401.0]},                          # |return| > 20 / 0.05
    {"returns": [100.0, float("nan"), 120.0]},
    {"returns": [100.0, 120.0]},                                  # an episode missing
    {"row": {"mean_return": "150.0"}},                            # far from the reference
])
def test_each_sweep_check_fails_on_a_corrupted_output(corrupt):
    row = dict(GOOD_ROW, **corrupt.get("row", {}))
    kw = dict(GOOD, **corrupt.get("kw", {}))
    returns = corrupt.get("returns", [100.0, 120.0, 140.0])
    assert checks.check_sweep_row(row, returns, **kw) != []


def test_a_missing_sweep_row_fails():
    assert checks.check_sweep_row(None, [], **GOOD) != []


def test_marginal_mode_skips_the_joint_contraction_check():
    row = dict(GOOD_ROW, kappa="3", table_size="90", train_iterations="219",
               train_residual="9e-5")
    kw = dict(GOOD, mode="marginal", epsilon=1e-4, iterations=250, residual_history=None,
              reference=None)
    assert checks.check_sweep_row(row, [100.0, 120.0, 140.0], **kw) == []


def test_table_and_diagnostic_checks_fail_on_corrupted_outputs():
    from gmfs.bellman import QTable

    q = QTable.zeros("marginal", 3, 3, 3, 0.95)
    q.iterations, q.residual = 10, 1e-5
    kw = dict(kappa=3, n_states=3, n_actions=3, epsilon=1e-4, iterations=250,
              reward_bound=20.0)
    assert checks.check_table(q, **kw) == []
    q.values[0, 0, 0] = 401.0
    assert checks.check_table(q, **kw) != []
    q.values[0, 0, 0] = 0.0
    q.residual = 1e-3
    assert checks.check_table(q, **kw) != []
    assert checks.check_table(q, **dict(kw, kappa=4, iterations=10)) != []

    class Result:
        name, detail = "offpolicy", "relative gap 0.2"
        passed = False

    assert checks.check_diagnostic(Result()) != []


def test_a_differing_digest_fails_that_repetition():
    ops = [["sweep kappa=1", []], ["sweep kappa=3", []]]

    def rep(digest):
        result = None if digest is None else {"digest": digest, "ops": ops}
        return {"traced": False, "result": result}

    assert run.operations([rep("x"), rep("x"), rep("x")], 2) == (6, [])
    attempted, failures = run.operations([rep("x"), rep("z"), rep(None)], 2)
    assert attempted == 6 and len(failures) == 4


def test_a_corrupted_sweep_csv_fails_its_check(tmp_path):
    from gmfs import harness

    cfg = harness.parse_config(workloads.config_text("paper-sweep", 0, "tiny"))
    env = harness.build_environment(cfg)
    report = workloads.run("paper-sweep", harness, cfg, env, tmp_path, "tiny")
    ops, _ = workloads.check("paper-sweep", report, cfg, env, tmp_path, None)
    assert all(not why for _, why in ops)
    text = (tmp_path / "episodes.csv").read_text().splitlines()
    text[-1] = text[-1].rsplit(",", 1)[0] + ",1e6"
    (tmp_path / "episodes.csv").write_text("\n".join(text) + "\n")
    ops, _ = workloads.check("paper-sweep", report, cfg, env, tmp_path, None)
    assert [bool(why) for _, why in ops] == [False, True]


# -- whole runs ------------------------------------------------------------------


def _run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(["--workload", "paper-sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
