"""Experiment orchestration: config files, kappa sweeps, reports.

Configs are sectioned INI-style text. Every training hyperparameter defaults
to the benchmark values (gamma 0.95, 250 iterations, 50 Monte-Carlo samples
per backup, kappa in {1,3,...,24}, 30 evaluation seeds, horizon 100), so an
empty config runs the warehouse experiment.

Sweep outputs: sweep.csv (one row per kappa) and episodes.csv (one row per
episode), both byte-identical across repeated runs with the same config and
master seed for any GMFS_THREADS setting; wall-clock timings go to
timings.json, which is deliberately outside the determinism contract: per
kappa, the training wall time and the evaluation's agent-steps (seeds x n x
horizon), and the wall time of the one batched evaluation of every trained
kappa, so that time over the summed agent-steps is the time per agent-step.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .bellman import (ACTION_RULES, AGGREGATE_RULES, MAX_TABLE_ENTRIES, MODES, QTable,
                      save_qtable, table_size, value_iteration)
from .env import Environment, load_tabular_env, make_env, WAREHOUSE_DEFAULTS
from .errors import BudgetError, ConfigError, GmfsError
from .execution import (BASELINE_POLICY_INPUTS, REWARD_AGGREGATES, Policy, PolicyEvaluation,
                        evaluate_policies, evaluate_policy, read_init)
from .graphon import Graphon, LatentAssignment, WeightMatrix, build_weights

PAPER_KAPPAS = (1, 3, 6, 9, 12, 15, 18, 21, 24)
MAX_SEEDS = 1_000_000  # one episode per seed; a larger count or range is refused


def check_kappa(kappa: int, n: int) -> None:
    """Refuse a subsample size that ``n`` agents cannot give: each agent
    draws kappa of its n - 1 neighbors (ConfigError)."""
    if not 1 <= kappa <= n - 1:
        raise ConfigError(
            f"kappa {kappa} outside the valid range [1, n-1] = [1, {n - 1}] for n = {n}")


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    if isinstance(value, tuple):
        return " ".join(_fmt(v) for v in value)
    return str(value)


def _number(kind, raw: str):
    try:
        value = kind(raw)
    except ValueError:
        raise ValueError(f"expected {kind.__name__}") from None
    if value != value:  # a config holding nan equals no config, itself included
        raise ValueError("expected a number, not nan")
    return value


def _numbers(kind, raw: str) -> tuple:
    """Whitespace-separated numbers, each read by ``_number``."""
    return tuple(_number(kind, token) for token in raw.split())


def _number_or_floats(kind, raw: str):
    """One number of ``kind``, or two or more floats."""
    return _number(kind, raw) if len(raw.split()) == 1 else _numbers(float, raw)


def _parse_seeds(raw: str) -> tuple:
    """The one seed grammar: a count N (seeds 0..N-1), a half-open range
    'lo..hi', or a list of two or more seeds separated by spaces or commas."""
    if ".." in raw:
        lo, hi = (_number(int, end) for end in raw.split("..", 1))
    else:
        seeds = _numbers(int, raw.replace(",", " "))
        if len(seeds) != 1:
            return seeds  # an empty list is refused by ExperimentConfig
        lo, hi = 0, seeds[0]
    if hi - lo > MAX_SEEDS:  # checked before the tuple is built
        raise ValueError(f"more than {MAX_SEEDS} seeds")
    return tuple(range(lo, hi))


def _read_blocks(raw: str) -> tuple:
    """Boundaries | value matrix rows, e.g. '0.5 | 0.9 0.1 ; 0.1 0.7'."""
    if "|" not in raw:
        raise ValueError("expected '<boundaries> | <rows ; ...>'")
    bounds, rows = raw.split("|", 1)
    return _numbers(float, bounds), tuple(_numbers(float, row) for row in rows.split(";"))


def _read_noise(raw: str):
    if raw == "none":
        return None
    parts = raw.split()
    if len(parts) != 2 or parts[0] != "uniform":
        raise ValueError("expected 'uniform <half_width>' or 'none'")
    return _number(float, parts[1])


class _Key(NamedTuple):
    """One config key, which sets the ExperimentConfig ``field`` of its name
    unless told otherwise. The canonical text writes it when it holds a value
    (neither None nor empty) and ``kind`` is unset or the configured kind."""
    section: str
    name: str
    read: Callable = str         # text -> value; its ValueError names what it expected
    write: Callable = _fmt       # value -> text
    field: str | tuple = ""
    kind: str | None = None
    legal: tuple = ()


_FLOAT, _INT = partial(_number, float), partial(_number, int)

# Every config key, in the order of the canonical text.
CONFIG_KEYS = (
    _Key("env", "name", field="env_name"),
    _Key("env", "file", field="env_file"),
    # sweeps train and evaluate with [train] gamma, so the warehouse discount is no key
    *(_Key("env", key, partial(_number_or_floats, float), field="env_overrides")
      for key in sorted(WAREHOUSE_DEFAULTS) if key != "discount"),
    _Key("graphon", "kind", field="graphon_kind"),
    _Key("graphon", "radius", _FLOAT, kind="radial"),
    _Key("graphon", "beta", _FLOAT, kind="expdecay"),
    _Key("graphon", "blocks", _read_blocks,
         lambda blocks: f"{_fmt(blocks[0])} | " + " ; ".join(map(_fmt, blocks[1])),
         field=("boundaries", "block_values"), kind="block"),
    _Key("graphon", "latent", legal=("sequential", "grid", "explicit")),
    # one token per agent: a number, or coordinates joined by commas; a point of
    # fewer than two coordinates keeps a comma, so that it reads back as a point
    _Key("graphon", "coords",
         lambda raw: tuple(_numbers(float, token.replace(",", " ")) if "," in token
                           else _number(float, token) for token in raw.split()),
         lambda coords: " ".join(",".join(repr(float(x)) for x in pt) + "," * (len(pt) < 2)
                                 if isinstance(pt, tuple) else repr(float(pt)) for pt in coords)),
    _Key("system", "n", _INT),
    _Key("system", "master_seed", _INT),
    _Key("train", "gamma", _FLOAT),
    _Key("train", "iterations", _INT),
    _Key("train", "mc_samples", _INT),
    _Key("train", "kappa_list", partial(_numbers, int)),
    _Key("train", "mode", legal=MODES),
    _Key("train", "epsilon", _FLOAT),
    _Key("train", "neighbor_action_rule", legal=ACTION_RULES),
    _Key("train", "surrogate_aggregate", legal=AGGREGATE_RULES),
    _Key("train", "xi", _INT),
    _Key("train", "reward_noise", _read_noise, lambda width: f"uniform {_fmt(width)}"),
    _Key("execute", "horizon", _INT),
    # contiguous seeds as a range; the test builds at most len(seeds) items,
    # however far apart the seeds are
    _Key("execute", "seeds", _parse_seeds,
         lambda s: f"{s[0]}..{s[-1] + 1}" if s == tuple(range(s[0], s[0] + len(s))) else _fmt(s),
         field="seed_list"),
    # idle (state 0), a state id, or a pmf or per-agent state list
    _Key("execute", "init", lambda raw: 0 if raw == "idle" else _number_or_floats(int, raw)),
    _Key("execute", "reward_aggregates", legal=REWARD_AGGREGATES),
    _Key("execute", "baseline", legal=tuple(BASELINE_POLICY_INPUTS)),
    _Key("output", "dir", field="out_dir"),
)
_KEY_NAMES = {(key.section, key.name) for key in CONFIG_KEYS}
_ENV_OVERRIDES = tuple(key.name for key in CONFIG_KEYS if key.field == "env_overrides")


def _value(cfg: ExperimentConfig, key: _Key):
    """What ``key`` holds in ``cfg``; None for an unset warehouse parameter or blocks."""
    field = key.field or key.name
    if field == "env_overrides":
        return dict(cfg.env_overrides).get(key.name)
    if isinstance(field, tuple):
        parts = tuple(getattr(cfg, name) for name in field)
        return parts if any(parts) else None
    return getattr(cfg, field)


def _read_value(section: str, name: str, raw: str, read):
    try:
        return read(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {name} = {raw!r}: {exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """A valid experiment: building one, also by ``replace``, refuses what no text could give."""
    env_name: str = "warehouse"
    env_file: str | None = None
    env_overrides: tuple = ()
    graphon_kind: str = "radial"
    radius: float = 0.3
    beta: float = 1.0
    boundaries: tuple = ()
    block_values: tuple = ()
    latent: str = "grid"
    coords: tuple = ()
    n: int = 25
    master_seed: int = 0
    gamma: float = 0.95
    iterations: int = 250
    mc_samples: int = 50
    kappa_list: tuple = PAPER_KAPPAS
    mode: str = "marginal"
    epsilon: float = 1e-4
    neighbor_action_rule: str = "uniform"
    surrogate_aggregate: str = "leave_one_out"
    xi: int | None = None
    reward_noise: float | None = None
    horizon: int = 100
    seed_list: tuple = tuple(range(30))
    init: object = 0
    reward_aggregates: str = "exact"
    baseline: str = "none"
    out_dir: str = "out"

    def __post_init__(self):
        for key in CONFIG_KEYS:
            value = _value(self, key)
            if (isinstance(value, str) and not value) or (key.legal and value not in key.legal):
                raise ConfigError(f"[{key.section}] {key.name} = {value}: expected "
                                  + (" or ".join(key.legal) or "a value"))
        names = [name for name, _ in self.env_overrides]
        for i, name in enumerate(names):
            if name not in _ENV_OVERRIDES:
                raise ConfigError(f"[env] {name}: not an [env] key")
            if name in names[:i]:
                raise ConfigError(f"[env] {name}: given twice")
        # the order of the key table, which the canonical text writes
        object.__setattr__(self, "env_overrides", tuple(
            sorted(self.env_overrides, key=lambda pair: _ENV_OVERRIDES.index(pair[0]))))
        if self.coords and self.latent != "explicit":
            raise ConfigError(f"[graphon] coords: no effect under latent = {self.latent}; "
                              "only latent = explicit reads it")
        if self.n < 2:
            raise ConfigError("system.n must be at least 2")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError(f"[system] master_seed = {self.master_seed}: "
                              "expected an integer in [0, 2^64)")
        if not self.kappa_list or len(set(self.kappa_list)) != len(self.kappa_list):
            raise ConfigError("train.kappa_list must name at least one kappa, none twice")
        for k in self.kappa_list:
            check_kappa(k, self.n)
        if not 0 < self.gamma < 1:
            raise ConfigError("train.gamma must lie in (0, 1)")
        if self.iterations < 1 or self.mc_samples < 1 or self.horizon < 0:
            raise ConfigError("iterations, mc_samples must be >= 1 and horizon >= 0")
        if self.xi is not None and self.xi < 1:
            raise ConfigError("train.xi must be >= 1 when given")
        if self.reward_noise is not None and not 0 <= self.reward_noise < np.inf:
            raise ConfigError(f"train.reward_noise = uniform {_fmt(self.reward_noise)}: "
                              "the half-width must be finite and >= 0")
        if not self.seed_list:
            raise ConfigError("execute.seeds must name at least one seed")


def parse_config(text: str) -> ExperimentConfig:
    """Parse a sectioned key-value config. Unknown sections and keys, empty
    values and graphon parameters of another kind are refused, so that every
    accepted text round-trips through ``serialize_config``."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    for section in parser.sections():
        if section not in {key.section for key in CONFIG_KEYS}:
            raise ConfigError(f"unknown config section [{section}]")
        for name in parser[section]:
            if (section, name) not in _KEY_NAMES:
                hint = ("; sweeps train and evaluate with [train] gamma"
                        if (section, name) == ("env", "discount") else "")
                raise ConfigError(f"unknown key {name!r} in section [{section}]{hint}")

    fields = {}
    for key in CONFIG_KEYS:
        raw = parser.get(key.section, key.name, fallback=None)
        if raw is None:
            continue
        prefix = f"[{key.section}] {key.name} = "
        if not raw:
            raise ConfigError(prefix + ": empty value; leave the key out for its default")
        value = _read_value(key.section, key.name, raw, key.read)
        kind = fields.get("graphon_kind", ExperimentConfig.graphon_kind)
        if key.kind not in (None, kind):
            raise ConfigError(f"{prefix}{raw!r}: no effect under kind = {kind}; "
                              f"only kind = {key.kind} reads it")
        field = key.field or key.name
        if field == "env_overrides":
            value = fields.get(field, ()) + ((key.name, value),)
        fields.update(zip(field, value) if isinstance(field, tuple) else [(field, value)])
    return ExperimentConfig(**fields)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form: fixed section and key order, defaults made
    explicit. parse(serialize(parse(x))) == parse(x)."""
    lines, section = [], ""
    for key in CONFIG_KEYS:
        if key.section != section:
            section = key.section
            lines.append(f"\n[{section}]" if lines else f"[{section}]")
        value = _value(cfg, key)
        if key.kind in (None, cfg.graphon_kind) and value is not None and value != ():
            # a line break inside a value continues on an indented line
            lines.append(f"{key.name} = " + key.write(value).replace("\n", "\n\t"))
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()[:16]


def build_environment(cfg: ExperimentConfig) -> Environment:
    """The configured environment; parameters or an environment file that
    give no valid environment are a ConfigError."""
    if cfg.env_file:
        text = Path(cfg.env_file).read_text()
        try:
            return load_tabular_env(text, name=cfg.env_name)
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"[env] file {cfg.env_file}: {exc}") from exc
    try:
        return make_env(cfg.env_name, **dict(cfg.env_overrides))
    except ValueError as exc:
        raise ConfigError(f"[env] {exc}") from exc


def build_graphon(cfg: ExperimentConfig) -> Graphon:
    if cfg.graphon_kind == "radial":
        latent_dim = 2 if cfg.latent == "grid" or (
            cfg.coords and isinstance(cfg.coords[0], tuple)) else 1
        return Graphon.radial_graphon(cfg.radius, latent_dim=latent_dim)
    if cfg.graphon_kind == "expdecay":
        return Graphon.expdecay_graphon(cfg.beta)
    if cfg.graphon_kind == "block":
        return Graphon.block_graphon(cfg.boundaries, cfg.block_values)
    return Graphon(cfg.graphon_kind)  # uniform; any other kind is a ValueError


def build_assignment(cfg: ExperimentConfig) -> LatentAssignment:
    # the uniform graphon reads no coordinates, so its grid needs no square n
    if cfg.latent == "sequential" or (cfg.latent == "grid" and cfg.graphon_kind == "uniform"):
        return LatentAssignment.sequential(cfg.n)
    if cfg.latent == "grid":
        return LatentAssignment.grid(cfg.n)
    if not cfg.coords:
        raise ConfigError("explicit latent assignment needs graphon.coords")
    return LatentAssignment.explicit(np.asarray(cfg.coords, dtype=np.float64))


def build_system_weights(cfg: ExperimentConfig) -> WeightMatrix:
    """The interaction weights of the configured graphon and ``cfg.n``
    agents; ``[graphon]`` values that give none are a ConfigError. The
    weights are a dense n x n matrix, so an n whose n * n entries pass the
    table budget is a BudgetError before anything is built."""
    if cfg.n * cfg.n > MAX_TABLE_ENTRIES:
        raise BudgetError(
            f"[system] n = {cfg.n} needs {cfg.n * cfg.n} interaction weights, "
            f"past the table budget ({MAX_TABLE_ENTRIES})"
        )
    try:
        assignment = build_assignment(cfg)
        if assignment.n != cfg.n:
            raise ValueError(f"coords place {assignment.n} agents but [system] n = {cfg.n}")
        return build_weights(build_graphon(cfg), assignment)
    except ValueError as exc:
        raise ConfigError(f"[graphon] {exc}") from exc


def worker_count() -> int:
    """Training threads: ``GMFS_THREADS``, or the cores up to 8 where it is
    unset; a value that is no integer of at least 1 is a ConfigError."""
    raw = os.environ.get("GMFS_THREADS", "")
    if not raw:
        return min(8, os.cpu_count() or 1)
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ConfigError(f"GMFS_THREADS must be an integer of at least 1, got {raw!r}")
    return count


def episode_seed(master_seed: int, seed_index: int) -> int:
    return master_seed * 1_000_003 + seed_index


@dataclass
class SweepRow:
    kappa: int
    table_size: int
    train_iterations: int
    train_residual: float
    train_wall_time: float
    mean_return: float
    stderr_return: float
    status: str = "ok"
    error: str = ""
    returns: np.ndarray | None = None
    sup_peak: float = 0.0
    qtable: QTable | None = None
    agent_steps: int = 0  # seeds x n x horizon of the evaluation


@dataclass
class SweepReport:
    rows: list
    config_hash: str
    tables: dict = field(default_factory=dict)

    def ok(self) -> bool:
        return all(r.status == "ok" for r in self.rows)


def train_kappa(cfg: ExperimentConfig, env: Environment, kappa: int) -> QTable:
    return value_iteration(env, kappa, cfg.mc_samples, cfg.iterations, seed=cfg.master_seed,
                           mode=cfg.mode, gamma=cfg.gamma, epsilon=cfg.epsilon,
                           neighbor_action_rule=cfg.neighbor_action_rule,
                           aggregate_rule=cfg.surrogate_aggregate,
                           reward_noise=cfg.reward_noise or 0.0, xi=cfg.xi or 1)


def check_init(cfg: ExperimentConfig, env: Environment) -> None:
    """Refuse an ``[execute] init`` that is no initial state, pmf or
    per-agent state list of ``env`` and ``cfg.n`` agents (ConfigError)."""
    try:
        read_init(cfg.init, cfg.n, env.n_states)
    except ValueError as exc:
        raise ConfigError(f"[execute] init = {_fmt(cfg.init)}: {exc}") from exc


def _evaluation_settings(cfg: ExperimentConfig) -> dict:
    """The configured episodes, one per seed of ``cfg.seed_list``, and how they run."""
    return dict(seeds=[episode_seed(cfg.master_seed, idx) for idx in cfg.seed_list],
                init=cfg.init, reward_aggregates=cfg.reward_aggregates,
                policy_inputs=BASELINE_POLICY_INPUTS[cfg.baseline])


def evaluate_table(cfg: ExperimentConfig, env: Environment, weights,
                   q: QTable) -> PolicyEvaluation:
    """Run the configured episodes under the greedy policy of ``q``."""
    return evaluate_policy(env, weights, Policy(q), cfg.n, cfg.horizon, cfg.gamma,
                           **_evaluation_settings(cfg))


def _train_one(cfg: ExperimentConfig, env: Environment, weights, kappa: int) -> SweepRow:
    """Train one kappa; a kappa refused with a gmfs error (histogram codes
    past 64 bits among them, which ``tabulate`` refuses before training) is
    recorded, and the other kappas still run."""
    size = table_size(cfg.mode, kappa, env.n_states, env.n_actions)
    try:
        t0 = time.perf_counter()
        q = train_kappa(cfg, env, kappa)
        train_wall_time = time.perf_counter() - t0
    except GmfsError as exc:
        return SweepRow(kappa=kappa, table_size=size, train_iterations=0,
                        train_residual=float("nan"), train_wall_time=0.0,
                        mean_return=float("nan"), stderr_return=float("nan"),
                        status="error", error=f"{type(exc).__name__}: {exc}")
    return SweepRow(kappa=kappa, table_size=size, train_iterations=q.iterations,
                    train_residual=q.residual, train_wall_time=train_wall_time,
                    mean_return=float("nan"), stderr_return=float("nan"),
                    sup_peak=max(q.sup_history) if q.sup_history else q.sup_norm(),
                    qtable=q)


def run_sweep(cfg: ExperimentConfig, out_dir: str | None = None) -> SweepReport:
    """Train every kappa in the config, evaluate every trained table in one
    batch, and write CSV reports. One worker trains in the calling thread."""
    workers = min(worker_count(), len(cfg.kappa_list))
    env = build_environment(cfg)
    check_init(cfg, env)
    weights = build_system_weights(cfg)
    directory = Path(out_dir if out_dir is not None else cfg.out_dir)
    directory.mkdir(parents=True, exist_ok=True)

    train = partial(_train_one, cfg, env, weights)
    if workers == 1:
        rows = [train(k) for k in cfg.kappa_list]
    else:
        from concurrent.futures import ThreadPoolExecutor  # only where work runs in parallel

        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(train, cfg.kappa_list))
    rows.sort(key=lambda r: r.kappa)
    trained = [r for r in rows if r.status == "ok"]
    t0 = time.perf_counter()
    if trained:
        evaluations = evaluate_policies(env, weights, [Policy(r.qtable) for r in trained],
                                        cfg.n, cfg.horizon, cfg.gamma,
                                        **_evaluation_settings(cfg))
        for row, evaluation in zip(trained, evaluations):
            row.mean_return, row.stderr_return = evaluation.mean, evaluation.std_error
            row.returns = evaluation.returns
            row.agent_steps = len(cfg.seed_list) * cfg.n * cfg.horizon
    evaluate_wall_time = time.perf_counter() - t0

    report = SweepReport(rows=rows, config_hash=config_hash(cfg))
    for row in trained:
        report.tables[row.kappa] = row.qtable
        save_qtable(row.qtable, directory / f"q_kappa{row.kappa:02d}.bin")

    _write_sweep_csv(report, cfg, directory / "sweep.csv")
    write_episodes_csv(directory / "episodes.csv", cfg,
                       {r.kappa: r.returns for r in trained})
    timings = {"config_hash": report.config_hash,
               "train_wall_time_s": {str(r.kappa): r.train_wall_time for r in rows},
               "evaluate_wall_time_s": evaluate_wall_time,
               "agent_steps": {str(r.kappa): r.agent_steps for r in rows}}
    (directory / "timings.json").write_text(json.dumps(timings, indent=2) + "\n")
    return report


def _write_csv(path, cfg: ExperimentConfig, header, rows) -> None:
    """The provenance comment lines, then ``header`` and ``rows`` as CSV
    of ``_fmt`` values."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_hash={config_hash(cfg)}\n# version={__version__}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def _write_sweep_csv(report: SweepReport, cfg: ExperimentConfig, path: Path) -> None:
    _write_csv(path, cfg, ["kappa", "table_size", "train_iterations", "train_residual",
                           "mean_return", "stderr_return", "status", "error"],
               ((r.kappa, r.table_size, r.train_iterations, r.train_residual,
                 r.mean_return, r.stderr_return, r.status, r.error) for r in report.rows))


def write_episodes_csv(path, cfg: ExperimentConfig, returns_by_kappa: dict) -> None:
    """One row per episode, the returns of each kappa listed in the order
    of ``cfg.seed_list``."""
    _write_csv(path, cfg, ["kappa", "seed", "horizon", "discounted_return"],
               ((kappa, idx, cfg.horizon, float(value))
                for kappa, returns in returns_by_kappa.items()
                for idx, value in zip(cfg.seed_list, returns)))


def run_diagnostics(cfg: ExperimentConfig, suites, out_dir: str | None = None) -> dict:
    """Run the named property suites and write one CSV each.

    Valid names: contraction, concentration, lipschitz, ht_unbiasedness,
    offpolicy. Returns {name: DiagnosticResult}.
    """
    from . import diagnostics

    names = tuple(suites)
    if not names or len(set(names)) != len(names):
        raise ConfigError("diagnose needs at least one suite name, none twice")
    unknown = set(names) - set(diagnostics.SUITES)
    if unknown:
        raise ConfigError(f"unknown diagnostic suite(s): {sorted(unknown)}")
    directory = Path(out_dir if out_dir is not None else cfg.out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    results = {}
    for name in names:
        result = diagnostics.SUITES[name]()
        _write_csv(directory / f"diagnostic_{name}.csv", cfg, result.columns, result.rows)
        results[name] = result
    return results
