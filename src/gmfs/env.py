"""Environment abstraction and the warehouse benchmark.

An environment is one kernel pair, a transition kernel P(s' | s, a, g) and a
local reward r(s, a, g), both conditioned on a neighborhood state marginal g
(a pmf over states), plus metadata. Both functions are batched: they take
integer arrays ``s`` and ``a`` of one shape and marginals ``g`` of that shape
plus a trailing state axis, and return the pmfs (trailing state axis) or the
rewards elementwise. Functions rather than tables because g ranges over a
continuum; the learning core tabulates them at the histogram points in one
call, and the simulator evaluates them for the whole population in one call.
``step_distribution`` and ``local_reward`` validate and read one point, and
``team_reward`` validates the rewards it averages; a non-finite pmf or
reward entry is invalid.

All functions are stateless; RNG is passed explicitly, so everything here is
safe under arbitrary concurrent use with per-worker streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Environment:
    name: str
    n_states: int
    n_actions: int
    transition: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    reward: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    reward_bound: float
    discount: float = 0.95
    lipschitz_p: float | None = None  # None means "unknown"
    marginal_sufficient: bool = False

    def __post_init__(self):
        if not 0 < self.discount < 1:
            raise ValueError("discount must lie in (0, 1)")
        if self.n_states < 1 or self.n_actions < 1:
            raise ValueError("state and action spaces must be non-empty")


def _check_ids(env: Environment, s: int, a: int) -> None:
    if not 0 <= s < env.n_states:
        raise ValueError(f"state id {s} out of range [0, {env.n_states})")
    if not 0 <= a < env.n_actions:
        raise ValueError(f"action id {a} out of range [0, {env.n_actions})")


def _check_marginal(env: Environment, g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (env.n_states,):
        raise ValueError(f"marginal shape {g.shape} != ({env.n_states},)")
    if abs(float(g.sum()) - 1.0) > 1e-9 or np.any(g < -1e-12):
        raise ValueError("neighborhood marginal is not a probability vector")
    return g


def step_distribution(env: Environment, s: int, a: int, g) -> np.ndarray:
    """Next-state pmf P(. | s, a, g); validated to sum to 1."""
    g = _check_marginal(env, g)
    _check_ids(env, s, a)
    pmf = transitions(env, s, a, g)
    if pmf.shape != (env.n_states,):
        raise ValueError("transition kernel returned a malformed pmf")
    if invalid_pmfs(pmf):
        raise ValueError(f"transition kernel returned an invalid pmf at (s={s}, a={a}), g = {g}")
    return pmf


def local_reward(env: Environment, s: int, a: int, g) -> float:
    g = _check_marginal(env, g)
    _check_ids(env, s, a)
    value = float(rewards(env, s, a, g))
    if not np.isfinite(value):
        raise ValueError(f"reward kernel returned a non-finite reward at (s={s}, a={a}), g = {g}")
    return value


def invalid_pmfs(pmf: np.ndarray) -> np.ndarray:
    """Where a row on the last axis of ``pmf`` is no pmf: a NaN entry fails
    pmf >= 0, an infinite one the sum."""
    return (_sum_error(pmf) > 1e-12) | ~np.all(pmf >= 0, axis=-1)


def _sum_error(pmf: np.ndarray) -> np.ndarray:
    # a product with ones sums the short last axis faster than sum(axis=-1)
    return np.abs(pmf @ np.ones(pmf.shape[-1]) - 1.0)


def refuse_invalid_pmfs(pmf: np.ndarray, s, a, g) -> None:
    """Refuse the first point (s, a, g) of a batch whose pmf is no pmf (see
    ``invalid_pmfs``); two whole-batch reductions pass a valid batch."""
    if not (pmf.min() >= 0 and _sum_error(pmf).max() <= 1e-12):  # NaN fails both
        _refuse_first(invalid_pmfs(pmf), "transition kernel returned an invalid pmf", s, a, g)


def transitions(env: Environment, s, a, g) -> np.ndarray:
    """Next-state pmfs P(. | s, a, g) elementwise over same-shaped state and
    action arrays; ``g`` carries a trailing state axis, as does the result."""
    return np.asarray(env.transition(np.asarray(s, dtype=np.int64),
                                     np.asarray(a, dtype=np.int64),
                                     np.asarray(g, dtype=np.float64)), dtype=np.float64)


def rewards(env: Environment, s, a, g) -> np.ndarray:
    """Local rewards r(s, a, g) elementwise over same-shaped state and action
    arrays; ``g`` carries a trailing state axis."""
    return np.asarray(env.reward(np.asarray(s, dtype=np.int64),
                                 np.asarray(a, dtype=np.int64),
                                 np.asarray(g, dtype=np.float64)), dtype=np.float64)


def _refuse_first(invalid: np.ndarray, what: str, s, a, g) -> None:
    """Refuse the first point (s, a, g) of a batch where ``invalid`` holds,
    worded as ``step_distribution`` and ``local_reward`` word one point
    (ValueError)."""
    if invalid.any():
        i = tuple(np.argwhere(invalid)[0])
        raise ValueError(f"{what} at (s={s[i]}, a={a[i]}), g = {g[i]}")


def team_reward(env: Environment, states, actions, aggregates):
    """Arithmetic mean of the agents' local rewards over the last (agent)
    axis: a float for one population, an array for a batch of them. A
    non-finite local reward is a ValueError."""
    states = np.asarray(states)
    actions = np.asarray(actions)
    aggregates = np.asarray(aggregates, dtype=np.float64)
    if (states.ndim == 0 or actions.shape != states.shape
            or aggregates.shape[:-1] != states.shape):
        raise ValueError("states, actions, and aggregates must share length n")
    local = rewards(env, states, actions, aggregates)
    total = local.sum(axis=-1) / states.shape[-1]
    if not np.isfinite(total).all():  # as is every mean with a non-finite term
        _refuse_first(~np.isfinite(local), "reward kernel returned a non-finite reward",
                      states, actions, aggregates)
    return float(total) if total.ndim == 0 else total


# ---------------------------------------------------------------------------
# Warehouse benchmark: 3 states (idle, transit, working), actions target the
# intended next state; working transitions degrade with congestion.
# ---------------------------------------------------------------------------

IDLE, TRANSIT, WORKING = 0, 1, 2

WAREHOUSE_DEFAULTS = dict(
    state_values=(10.0, 5.0, 20.0),
    action_costs=(0.0, 0.0, 5.0),
    congestion_sensitivity=5.0,
    min_utility=0.4,
    base_success=0.9,
    min_work_success=0.1,
    congestion_slope=0.8,
    discount=0.95,
)


def _warehouse_vector(params: dict, key: str) -> np.ndarray:
    values = np.atleast_1d(np.asarray(params[key], dtype=np.float64))
    if values.shape != (3,):
        raise ConfigError(f"warehouse parameter {key} must hold 3 values, got {params[key]!r}")
    return values


def _warehouse_scalar(params: dict, key: str, low=-np.inf, high=np.inf) -> float:
    value = np.asarray(params[key], dtype=np.float64)
    if value.ndim != 0 or not (np.isfinite(value) and low <= value <= high):
        within = "" if np.isinf(low) else f" in [{low}, {high}]"
        raise ConfigError(f"warehouse parameter {key} = {params[key]!r} "
                          f"must be one finite number{within}")
    return float(value)


def warehouse_env(**overrides) -> Environment:
    """The congestion-sensitive warehouse robot environment.

    Working attempts succeed with probability max(0.1, 0.9 - 0.8 * g(2)) and
    fail into transit; idle/transit attempts succeed with probability 0.9 and
    fail in place. Reward is V(s) * max(0.4, 1 - 5 * g(2)) - C(a).
    Parameters under which some g gives an invalid pmf are refused
    (ConfigError).
    """
    params = dict(WAREHOUSE_DEFAULTS)
    unknown = set(overrides) - set(params)
    if unknown:
        raise ConfigError(f"unknown warehouse parameter(s): {sorted(unknown)}")
    params.update(overrides)
    values = _warehouse_vector(params, "state_values")
    costs = _warehouse_vector(params, "action_costs")
    sens = _warehouse_scalar(params, "congestion_sensitivity")
    floor = _warehouse_scalar(params, "min_utility")
    base = _warehouse_scalar(params, "base_success", 0.0, 1.0)
    min_work = _warehouse_scalar(params, "min_work_success", 0.0, 1.0)
    slope = _warehouse_scalar(params, "congestion_slope")
    # the work success probability max(min_work, base - slope * g(2)) stays
    # in [0, 1] for every g(2) in [0, 1] exactly when this holds
    if base - slope > 1:
        raise ConfigError(f"warehouse parameters base_success = {base!r} and "
                          f"congestion_slope = {slope!r} give a work success "
                          "probability above 1 (base_success - congestion_slope > 1)")

    eye = np.eye(3)

    def transition(s: np.ndarray, a: np.ndarray, g: np.ndarray) -> np.ndarray:
        work = a == WORKING
        success = np.where(work, np.maximum(min_work, base - slope * g[..., WORKING]), base)
        # a failed work attempt lands in transit, any other stays in place;
        # both terms are >= 0, so each cell adds 0.0 to at most one of them
        fail_to = np.where(work, TRANSIT, s)
        return (eye.take(a, axis=0) * success[..., None]
                + eye.take(fail_to, axis=0) * (1.0 - success)[..., None])

    def reward(s: np.ndarray, a: np.ndarray, g: np.ndarray) -> np.ndarray:
        return values[s] * np.maximum(floor, 1.0 - sens * g[..., WORKING]) - costs[a]

    # the utility max(floor, 1 - sens * g(2)) is monotone in g(2), so it
    # ranges between its values at g(2) = 0 and 1, and |V(s) u - C(a)|, convex
    # in u, peaks at one of them
    utility = np.maximum(floor, [1.0, 1.0 - sens])
    bound = float(np.abs(values[:, None, None] * utility - costs[None, :, None]).max())
    return Environment(
        name="warehouse",
        n_states=3,
        n_actions=3,
        transition=transition,
        reward=reward,
        reward_bound=bound,
        discount=_warehouse_scalar(params, "discount"),
        # the kernel is affine in g(2) with slope -congestion_slope before
        # clipping and |g(2) - g'(2)| <= 2 TV(g, g'), so
        # TV(P, P') <= 2 |congestion_slope| TV(g, g')
        lipschitz_p=2.0 * abs(slope),
        marginal_sufficient=True,
    )


# ---------------------------------------------------------------------------
# Linear-in-g tabular environments, loadable from plain text. The kernel and
# reward are mixtures of per-congestion-state coefficients:
#     P(. | s, a, g) = sum_x g(x) K[s, a, x, .]      r(s, a, g) = sum_x g(x) R[s, a, x]
# Each K[s, a, x, .] row is a pmf, so mixtures are automatically valid and
# 1-Lipschitz in TV(g, g').
# ---------------------------------------------------------------------------


def linear_env(name: str, kernel: np.ndarray, rewards: np.ndarray,
               discount: float = 0.95, marginal_sufficient: bool = True) -> Environment:
    kernel = np.asarray(kernel, dtype=np.float64)
    rewards = np.asarray(rewards, dtype=np.float64)
    ns, na, nx, ns2 = kernel.shape
    if nx != ns or ns2 != ns:
        raise ValueError("kernel must have shape (S, A, S, S)")
    if rewards.shape != (ns, na, ns):
        raise ValueError("rewards must have shape (S, A, S)")
    rows_sum_to_one = np.allclose(kernel.sum(axis=3), 1.0, rtol=0, atol=1e-12)
    if np.any(kernel < 0) or not rows_sum_to_one:
        raise ValueError("every kernel coefficient row must be a pmf")

    def transition(s: np.ndarray, a: np.ndarray, g: np.ndarray) -> np.ndarray:
        return (g[..., None, :] @ kernel[s, a])[..., 0, :]

    def reward(s: np.ndarray, a: np.ndarray, g: np.ndarray) -> np.ndarray:
        return (g[..., None, :] @ rewards[s, a][..., None])[..., 0, 0]

    return Environment(
        name=name,
        n_states=ns,
        n_actions=na,
        transition=transition,
        reward=reward,
        reward_bound=float(np.max(np.abs(rewards))),
        discount=discount,
        lipschitz_p=1.0,
        marginal_sufficient=marginal_sufficient,
    )


def load_tabular_env(text: str, name: str = "custom") -> Environment:
    """Parse a plain-text linear-in-g environment.

    Format (one entry per line, '#' comments allowed):

        states 2
        actions 2
        discount 0.9
        kernel S A X : p0 p1 ...
        reward S A X : value
    """
    ns = na = None
    discount = 0.95
    kernel_rows: dict = {}
    reward_rows: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "states":
                ns = int(parts[1])
            elif parts[0] == "actions":
                na = int(parts[1])
            elif parts[0] == "discount":
                discount = float(parts[1])
            elif parts[0] in ("kernel", "reward"):
                s, a, x = int(parts[1]), int(parts[2]), int(parts[3])
                if parts[4] != ":":
                    raise ValueError("missing ':'")
                vals = [float(v) for v in parts[5:]]
                if not np.all(np.isfinite(vals)):
                    raise ValueError("values must be finite")
                if parts[0] == "kernel" and (min(vals, default=0.0) < 0
                                             or not abs(float(np.sum(vals)) - 1.0) <= 1e-12):
                    raise ValueError(f"kernel row {vals} is not a pmf")
                target = kernel_rows if parts[0] == "kernel" else reward_rows
                if (s, a, x) in target:
                    raise ValueError(f"{parts[0]} (s={s}, a={a}, x={x}) repeats line "
                                     f"{target[(s, a, x)][0]}")
                target[(s, a, x)] = (lineno, vals)
            else:
                raise ValueError(f"unknown directive {parts[0]!r}")
        except (IndexError, ValueError) as exc:
            raise ConfigError(f"environment spec line {lineno}: {exc}") from exc
    if ns is None or na is None:
        raise ConfigError("environment spec must declare states and actions")
    for kind, rows in (("kernel", kernel_rows), ("reward", reward_rows)):
        for (s, a, x), (lineno, _) in rows.items():
            if not (0 <= s < ns and 0 <= a < na and 0 <= x < ns):
                raise ConfigError(f"environment spec line {lineno}: {kind} (s={s}, a={a}, "
                                  f"x={x}) lies outside the {ns} states and {na} actions")
    kernel = np.zeros((ns, na, ns, ns))
    rewards = np.zeros((ns, na, ns))
    for s in range(ns):
        for a in range(na):
            for x in range(ns):
                if (s, a, x) not in kernel_rows:
                    raise ConfigError(f"missing kernel row for (s={s}, a={a}, x={x})")
                row = kernel_rows[(s, a, x)][1]
                if len(row) != ns:
                    raise ConfigError(f"kernel row (s={s}, a={a}, x={x}) must list {ns} probabilities")
                kernel[s, a, x] = row
                rw = reward_rows.get((s, a, x), (None, [0.0]))[1]
                if len(rw) != 1:
                    raise ConfigError(f"reward row (s={s}, a={a}, x={x}) must list one value")
                rewards[s, a, x] = rw[0]
    return linear_env(name, kernel, rewards, discount=discount)


def make_env(name: str, **overrides) -> Environment:
    if name == "warehouse":
        return warehouse_env(**overrides)
    raise ConfigError(f"unknown environment {name!r}")
