"""Which gmfs callables the traced run wraps, and the per-layer metrics
computed from the spans and counters they record.

Layers are the package modules. ``cli`` is a thin front end over
``harness`` and ``diagnostics`` is reached through
``harness.run_diagnostics``, so neither gets its own spans.
"""

from __future__ import annotations

import inspect
import time

from tracer import Tracer, self_times

# span name -> metrics taken from its spans
SPAN_METRICS = {
    "harness.run_sweep": ("s", "self_s"),
    "harness.train_kappa": ("s", "self_s"),
    "harness.evaluate": ("s", "self_s"),
    "harness.run_diagnostics": ("s", "self_s"),
    "bellman.value_iteration": ("calls", "s", "self_s"),
    "bellman.off_policy_learn": ("calls", "s", "self_s"),
    "bellman.surrogate_step": ("calls",),
    "bellman.empirical_operator": ("calls", "s"),
    "bellman.exact_operator": ("calls",),
    "bellman.fiber_ranks": ("calls",),
    "execution.run_episode": ("calls", "s", "self_s"),
    "execution.greedy_table": ("s",),
    "rng.stream": ("s",),
    "sampler.row_alias": ("calls", "s"),
    "histograms.rank_rows": ("calls", "s"),
    "histograms.get_index": ("calls",),
    "env.step_distribution": ("calls", "s", "self_s"),
    "env.local_reward": ("calls",),
    "env.transition": ("calls",),
    "env.reward": ("calls",),
    "graphon.build_weights": ("s",),
}

STREAM_TAGS = ("exec", "exec-init", "vi-frozen", "off-policy", "reward-noise")
VI_RULES = ("uniform", "greedy", "joint")

COUNTER_METRICS = {
    "bellman.value_iteration.sweeps": "count",
    "bellman.value_iteration.entry_sweeps": "count",
    "bellman.frozen_bytes": "bytes-computed",
    "execution.agent_steps": "count",
    "histograms.rank_rows.rows": "count",
    **{f"rng.stream.calls.{tag}": "count" for tag in STREAM_TAGS},
}

DERIVED_METRICS = {
    "execution.us_per_agent_step": "us",
    "bellman.offpolicy_us_per_step": "us",
    **{f"bellman.build_s.{rule}": "s" for rule in ("uniform", "greedy")},
    **{f"bellman.sweep_us_per_entry.{rule}": "us" for rule in VI_RULES},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

_SPAN_UNITS = {"s": "s", "self_s": "s", "calls": "count"}


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{name}.{kind}": _SPAN_UNITS[kind]
             for name, kinds in SPAN_METRICS.items() for kind in kinds}
    units.update(COUNTER_METRICS)
    units.update(DERIVED_METRICS)
    return units


def _vi_rule(args: dict) -> str | None:
    """Which engine a value_iteration call ran on, or None for the exact
    operator (not split into build and sweeps)."""
    if args["operator"] != "empirical":
        return None
    if args["mode"] == "joint":
        return "joint"
    return args["neighbor_action_rule"]


class LayerTrace:
    """Installs the tracer on gmfs and turns what it records into metrics."""

    def __init__(self):
        from gmfs import bellman, execution

        self.tracer = Tracer()
        self.vi_original = bellman.value_iteration
        self._vi_signature = inspect.signature(bellman.value_iteration)
        self._episode_signature = inspect.signature(execution.run_episode)
        self.vi_calls: list[tuple] = []  # (span id, bound arguments, sweeps, entries)
        self.offpolicy_steps = 0

    def install(self) -> None:
        from gmfs import bellman, execution, graphon, harness, histograms, rng, sampler
        from gmfs import env as env_module

        t = self.tracer

        def stream_hook(sid, args, kwargs, result):
            if len(args) > 1 and isinstance(args[1], str):
                t.counts[f"rng.stream.calls.{args[1]}"] += 1

        def rank_rows_hook(sid, args, kwargs, result):
            t.counts["histograms.rank_rows.rows"] += len(result)

        def run_episode_hook(sid, args, kwargs, result):
            n = self._episode_signature.bind(*args, **kwargs).arguments["n"]
            t.counts["execution.agent_steps"] += len(result.stage_rewards) * n

        def vi_hook(sid, args, kwargs, q):
            bound = self._vi_signature.bind(*args, **kwargs)
            bound.apply_defaults()
            arguments = dict(bound.arguments)
            entries = q.values.size
            t.counts["bellman.value_iteration.sweeps"] += q.iterations
            t.counts["bellman.value_iteration.entry_sweeps"] += q.iterations * entries
            if arguments["mode"] == "marginal" and arguments["operator"] == "empirical":
                # the marginal engine's frozen uniforms: E * m * (kappa + 1) float64
                frozen = entries * arguments["m"] * (arguments["kappa"] + 1) * 8
                t.counts["bellman.frozen_bytes"] = max(t.counts["bellman.frozen_bytes"], frozen)
            self.vi_calls.append((sid, arguments, q.iterations, entries))

        def offpolicy_hook(sid, args, kwargs, q):
            self.offpolicy_steps += q.iterations

        t.patch_attr(harness, "run_sweep", "harness.run_sweep")
        t.patch_attr(harness, "train_kappa", "harness.train_kappa")
        t.patch_attr(harness, "evaluate_policy", "harness.evaluate")
        t.patch_attr(harness, "run_diagnostics", "harness.run_diagnostics")
        t.patch_everywhere(bellman.value_iteration, "bellman.value_iteration", vi_hook)
        t.patch_everywhere(bellman.off_policy_learn, "bellman.off_policy_learn", offpolicy_hook)
        for name in ("surrogate_step", "empirical_operator", "exact_operator", "fiber_ranks"):
            t.patch_everywhere(getattr(bellman, name), f"bellman.{name}")
        t.patch_everywhere(execution.run_episode, "execution.run_episode", run_episode_hook)
        t.patch_attr(execution.Policy, "greedy_table", "execution.greedy_table")
        t.patch_everywhere(rng.stream, "rng.stream", stream_hook)
        t.patch_everywhere(sampler.row_alias, "sampler.row_alias")
        t.patch_attr(histograms.HistogramIndex, "rank_rows", "histograms.rank_rows", rank_rows_hook)
        t.patch_everywhere(histograms.get_index, "histograms.get_index")
        t.patch_everywhere(env_module.step_distribution, "env.step_distribution")
        t.patch_everywhere(env_module.local_reward, "env.local_reward")
        t.patch_everywhere(graphon.build_weights, "graphon.build_weights")
        t.patch_env_factory(harness, "build_environment")

    def probe_value_iteration(self) -> list[tuple]:
        """Re-run each recorded empirical value_iteration with iterations=1.

        Returns (rule, t_full, t_one, sweeps, entries) per call with at least
        two sweeps; the probes run after the workload body, still traced, so
        both timings carry the same tracing cost.
        """
        tracer = self.tracer
        body_counts = tracer.counts.copy()
        probes = []
        for sid, arguments, sweeps, entries in list(self.vi_calls):
            rule = _vi_rule(arguments)
            if rule is None or sweeps < 2:
                continue
            t_full = tracer.span_end[sid] - tracer.span_start[sid]
            t0 = time.perf_counter()
            self.vi_original(**dict(arguments, iterations=1))
            probes.append((rule, t_full, time.perf_counter() - t0, sweeps, entries))
        tracer.counts = body_counts
        return probes

    def metrics(self, upto: int, body_wall: float, probes) -> dict:
        """Per-layer metric values from the first ``upto`` spans (the
        workload body and its set-up) and the probe timings."""
        name_ids, parent, start, end = self.tracer.arrays(upto)
        own = self_times(parent, start, end)
        duration = end - start
        by_name = {name: name_ids == i for i, name in enumerate(self.tracer.names)}
        values = {}
        for name, kinds in SPAN_METRICS.items():
            mask = by_name.get(name)
            for kind in kinds:
                if mask is None:
                    values[f"{name}.{kind}"] = 0.0 if kind != "calls" else 0
                elif kind == "calls":
                    values[f"{name}.{kind}"] = int(mask.sum())
                elif kind == "s":
                    values[f"{name}.{kind}"] = float(duration[mask].sum())
                else:
                    values[f"{name}.{kind}"] = float(own[mask].sum())
        for name in COUNTER_METRICS:
            values[name] = int(self.tracer.counts.get(name, 0))

        steps = values["execution.agent_steps"]
        values["execution.us_per_agent_step"] = (
            values["execution.run_episode.s"] / steps * 1e6 if steps else 0.0)
        values["bellman.offpolicy_us_per_step"] = (
            values["bellman.off_policy_learn.s"] / self.offpolicy_steps * 1e6
            if self.offpolicy_steps else 0.0)

        build = {rule: 0.0 for rule in VI_RULES}
        sweep_s = {rule: 0.0 for rule in VI_RULES}
        entry_sweeps = {rule: 0 for rule in VI_RULES}
        for rule, t_full, t_one, sweeps, entries in probes:
            # t_one = build + one sweep; t_full = build + sweeps * one sweep
            per_sweep = (t_full - t_one) / (sweeps - 1)
            build[rule] += t_one - per_sweep
            sweep_s[rule] += t_full - t_one
            entry_sweeps[rule] += (sweeps - 1) * entries
        for rule in ("uniform", "greedy"):
            values[f"bellman.build_s.{rule}"] = build[rule]
        for rule in VI_RULES:
            values[f"bellman.sweep_us_per_entry.{rule}"] = (
                sweep_s[rule] / entry_sweeps[rule] * 1e6 if entry_sweeps[rule] else 0.0)

        values["trace.wall_s"] = body_wall
        return values

    @staticmethod
    def shares(values: dict) -> dict:
        """The workload's share profile over the traced body. A share falls
        when another layer gets slower, so these are printed as a check of
        the profile and are not metrics."""
        wall = values["trace.wall_s"]
        return {
            "execution.run_episode.share": values["execution.run_episode.s"] / wall,
            "bellman.share": (values["bellman.value_iteration.s"]
                              + values["bellman.off_policy_learn.s"]) / wall,
            "bellman.empirical_operator.share": values["bellman.empirical_operator.s"] / wall,
        }
