"""Experiment orchestration: config files, kappa sweeps, reports.

Configs are sectioned INI-style text. Every training hyperparameter defaults
to the benchmark values (gamma 0.95, 250 iterations, 50 Monte-Carlo samples
per backup, kappa in {1,3,...,24}, 30 evaluation seeds, horizon 100), so an
empty config runs the warehouse experiment.

Sweep outputs: sweep.csv (one row per kappa) and episodes.csv (one row per
episode), both byte-identical across repeated runs with the same config and
master seed for any GMFS_THREADS setting; wall-clock timings go to
timings.json, which is deliberately outside the determinism contract: per
kappa, the training and the evaluation wall time and the evaluation's
agent-steps (seeds x n x horizon), so their quotient is the time per
agent-step.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import io
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .bellman import QTable, save_qtable, table_size, value_iteration
from .env import Environment, load_tabular_env, make_env, WAREHOUSE_DEFAULTS
from .errors import ConfigError, GmfsError
from .execution import Policy, PolicyEvaluation, evaluate_policy, read_init
from .graphon import Graphon, LatentAssignment, WeightMatrix, build_weights

PAPER_KAPPAS = (1, 3, 6, 9, 12, 15, 18, 21, 24)
MAX_SEEDS = 1_000_000  # one episode per seed; a larger count or range is refused

_ENV_KEYS = {"name", "file"} | set(WAREHOUSE_DEFAULTS)
_GRAPHON_KEYS = {"kind", "radius", "beta", "blocks", "latent", "coords"}
_SYSTEM_KEYS = {"n", "master_seed"}
_TRAIN_KEYS = {"gamma", "iterations", "mc_samples", "kappa_list", "mode", "epsilon",
               "neighbor_action_rule", "surrogate_aggregate", "xi", "reward_noise"}
_EXECUTE_KEYS = {"horizon", "seeds", "init", "reward_aggregates", "baseline"}
_OUTPUT_KEYS = {"dir"}


def check_kappa(kappa: int, n: int) -> None:
    """Refuse a subsample size that ``n`` agents cannot give: each agent
    draws kappa of its n - 1 neighbors (ConfigError)."""
    if not 1 <= kappa <= n - 1:
        raise ConfigError(
            f"kappa {kappa} outside the valid range [1, n-1] = [1, {n - 1}] for n = {n}")


@dataclass(frozen=True)
class ExperimentConfig:
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

    def validate(self) -> "ExperimentConfig":
        if self.n < 2:
            raise ConfigError("system.n must be at least 2")
        for k in self.kappa_list:
            check_kappa(k, self.n)
        if len(set(self.kappa_list)) != len(self.kappa_list):
            raise ConfigError("kappa_list contains duplicates")
        if not 0 < self.gamma < 1:
            raise ConfigError("train.gamma must lie in (0, 1)")
        if self.iterations < 1 or self.mc_samples < 1 or self.horizon < 0:
            raise ConfigError("iterations, mc_samples must be >= 1 and horizon >= 0")
        if self.mode not in ("joint", "marginal"):
            raise ConfigError("train.mode must be 'joint' or 'marginal'")
        if self.neighbor_action_rule not in ("greedy", "uniform"):
            raise ConfigError("train.neighbor_action_rule must be 'greedy' or 'uniform'")
        if self.surrogate_aggregate not in ("leave_one_out", "shared"):
            raise ConfigError("train.surrogate_aggregate must be 'leave_one_out' or 'shared'")
        if self.xi is not None and self.xi < 1:
            raise ConfigError("train.xi must be >= 1 when given")
        if self.reward_noise is not None and not 0 <= self.reward_noise < np.inf:
            raise ConfigError(f"train.reward_noise = uniform {_fmt(self.reward_noise)}: "
                              "the half-width must be finite and >= 0")
        if self.reward_aggregates not in ("exact", "sampled"):
            raise ConfigError("execute.reward_aggregates must be 'exact' or 'sampled'")
        if self.baseline not in ("none", "exact"):
            raise ConfigError("execute.baseline must be 'none' or 'exact'")
        if not self.seed_list:
            raise ConfigError("execute.seeds must name at least one seed")
        if self.latent not in ("sequential", "grid", "explicit"):
            raise ConfigError("graphon.latent must be sequential, grid, or explicit")
        return self


def _parse_number(section: str, key: str, raw: str, kind):
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: expected {kind.__name__}") from exc


def _parse_numbers(section: str, key: str, raw: str, kind) -> tuple:
    """Whitespace-separated numbers, each checked by ``_parse_number``."""
    return tuple(_parse_number(section, key, tok, kind) for tok in raw.split())


def _parse_seeds(raw: str, section: str = "execute", key: str = "seeds") -> tuple:
    """The one seed grammar: a count N (seeds 0..N-1), a half-open range
    'lo..hi', or a list of two or more seeds separated by spaces or commas."""
    raw = raw.strip()
    if ".." in raw:
        lo, hi = (_parse_number(section, key, end, int) for end in raw.split("..", 1))
    else:
        seeds = _parse_numbers(section, key, raw.replace(",", " "), int)
        if len(seeds) != 1:
            return seeds  # empty fails validate()
        lo, hi = 0, seeds[0]
    if hi - lo > MAX_SEEDS:  # checked before the tuple is built
        raise ConfigError(f"[{section}] {key} = {raw!r}: more than {MAX_SEEDS} seeds")
    return tuple(range(lo, hi))


def _parse_init(raw: str):
    raw = raw.strip()
    if raw == "idle":
        return 0
    parts = raw.split()
    if len(parts) == 1:
        return _parse_number("execute", "init", parts[0], int)
    return _parse_numbers("execute", "init", raw, float)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a sectioned key-value config; unknown keys are
    rejected with field-precise messages."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    allowed = {"env": _ENV_KEYS, "graphon": _GRAPHON_KEYS, "system": _SYSTEM_KEYS,
               "train": _TRAIN_KEYS, "execute": _EXECUTE_KEYS, "output": _OUTPUT_KEYS}
    for section in parser.sections():
        if section not in allowed:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in allowed[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    def get(section, key, default=None):
        if parser.has_section(section) and key in parser[section]:
            return parser[section][key]
        return default

    cfg = ExperimentConfig()
    overrides = {}
    if parser.has_section("env"):
        for key in parser["env"]:
            if key in WAREHOUSE_DEFAULTS:
                raw = parser["env"][key]
                vals = _parse_numbers("env", key, raw, float)
                if not vals:
                    raise ConfigError(f"[env] {key} = {raw!r}: expected float")
                overrides[key] = vals if len(vals) > 1 else vals[0]
    kwargs = dict(
        env_name=get("env", "name", cfg.env_name),
        env_file=get("env", "file"),
        env_overrides=tuple(sorted(overrides.items())),
        graphon_kind=get("graphon", "kind", cfg.graphon_kind),
        latent=get("graphon", "latent", cfg.latent),
        n=_parse_number("system", "n", get("system", "n", str(cfg.n)), int),
        master_seed=_parse_number("system", "master_seed",
                                  get("system", "master_seed", str(cfg.master_seed)), int),
        gamma=_parse_number("train", "gamma", get("train", "gamma", str(cfg.gamma)), float),
        iterations=_parse_number("train", "iterations",
                                 get("train", "iterations", str(cfg.iterations)), int),
        mc_samples=_parse_number("train", "mc_samples",
                                 get("train", "mc_samples", str(cfg.mc_samples)), int),
        mode=get("train", "mode", cfg.mode),
        epsilon=_parse_number("train", "epsilon", get("train", "epsilon", str(cfg.epsilon)), float),
        neighbor_action_rule=get("train", "neighbor_action_rule", cfg.neighbor_action_rule),
        surrogate_aggregate=get("train", "surrogate_aggregate", cfg.surrogate_aggregate),
        horizon=_parse_number("execute", "horizon",
                              get("execute", "horizon", str(cfg.horizon)), int),
        reward_aggregates=get("execute", "reward_aggregates", cfg.reward_aggregates),
        baseline=get("execute", "baseline", cfg.baseline),
        out_dir=get("output", "dir", cfg.out_dir),
    )
    raw_kappas = get("train", "kappa_list")
    kwargs["kappa_list"] = (_parse_numbers("train", "kappa_list", raw_kappas, int)
                            if raw_kappas else cfg.kappa_list)
    raw_xi = get("train", "xi")
    kwargs["xi"] = _parse_number("train", "xi", raw_xi, int) if raw_xi not in (None, "") else None
    raw_noise = get("train", "reward_noise")
    if raw_noise not in (None, "", "none"):
        parts = raw_noise.split()
        if parts[0] != "uniform" or len(parts) != 2:
            raise ConfigError("train.reward_noise must be 'uniform <half_width>' or 'none'")
        kwargs["reward_noise"] = _parse_number("train", "reward_noise", parts[1], float)
    raw_seeds = get("execute", "seeds")
    kwargs["seed_list"] = _parse_seeds(raw_seeds) if raw_seeds else cfg.seed_list
    raw_init = get("execute", "init")
    kwargs["init"] = _parse_init(raw_init) if raw_init else cfg.init

    raw_radius = get("graphon", "radius")
    if raw_radius:
        kwargs["radius"] = _parse_number("graphon", "radius", raw_radius, float)
    raw_beta = get("graphon", "beta")
    if raw_beta:
        kwargs["beta"] = _parse_number("graphon", "beta", raw_beta, float)
    raw_blocks = get("graphon", "blocks")
    if raw_blocks:
        # boundaries | value matrix rows, e.g. "0.5 | 0.9 0.1 ; 0.1 0.7"
        if "|" not in raw_blocks:
            raise ConfigError("graphon.blocks must be '<boundaries> | <rows ; ...>'")
        bounds_part, values_part = raw_blocks.split("|", 1)
        kwargs["boundaries"] = _parse_numbers("graphon", "blocks", bounds_part, float)
        kwargs["block_values"] = tuple(
            _parse_numbers("graphon", "blocks", row, float) for row in values_part.split(";"))
    raw_coords = get("graphon", "coords")
    if raw_coords:
        pts = []
        for token in raw_coords.split():
            if "," in token:
                pts.append(_parse_numbers("graphon", "coords", token.replace(",", " "), float))
            else:
                pts.append(_parse_number("graphon", "coords", token, float))
        kwargs["coords"] = tuple(pts)

    return ExperimentConfig(**kwargs).validate()


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    if isinstance(value, tuple):
        return " ".join(_fmt(v) for v in value)
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form: fixed section and key order, defaults made
    explicit. parse(serialize(parse(x))) == parse(x)."""
    out = io.StringIO()
    out.write("[env]\n")
    out.write(f"name = {cfg.env_name}\n")
    if cfg.env_file:
        out.write(f"file = {cfg.env_file}\n")
    for key, value in cfg.env_overrides:
        out.write(f"{key} = {_fmt(value)}\n")
    out.write("\n[graphon]\n")
    out.write(f"kind = {cfg.graphon_kind}\n")
    if cfg.graphon_kind == "radial":
        out.write(f"radius = {_fmt(cfg.radius)}\n")
    elif cfg.graphon_kind == "expdecay":
        out.write(f"beta = {_fmt(cfg.beta)}\n")
    elif cfg.graphon_kind == "block":
        out.write(f"blocks = {_fmt(cfg.boundaries)} | "
                  + " ; ".join(_fmt(row) for row in cfg.block_values) + "\n")
    out.write(f"latent = {cfg.latent}\n")
    if cfg.coords:
        tokens = [",".join(repr(float(x)) for x in pt) if isinstance(pt, tuple) else repr(float(pt))
                  for pt in cfg.coords]
        out.write("coords = " + " ".join(tokens) + "\n")
    out.write("\n[system]\n")
    out.write(f"n = {cfg.n}\nmaster_seed = {cfg.master_seed}\n")
    out.write("\n[train]\n")
    out.write(f"gamma = {_fmt(cfg.gamma)}\n")
    out.write(f"iterations = {cfg.iterations}\n")
    out.write(f"mc_samples = {cfg.mc_samples}\n")
    out.write(f"kappa_list = {_fmt(cfg.kappa_list)}\n")
    out.write(f"mode = {cfg.mode}\n")
    out.write(f"epsilon = {_fmt(cfg.epsilon)}\n")
    out.write(f"neighbor_action_rule = {cfg.neighbor_action_rule}\n")
    out.write(f"surrogate_aggregate = {cfg.surrogate_aggregate}\n")
    if cfg.xi is not None:
        out.write(f"xi = {cfg.xi}\n")
    if cfg.reward_noise is not None:
        out.write(f"reward_noise = uniform {_fmt(cfg.reward_noise)}\n")
    out.write("\n[execute]\n")
    out.write(f"horizon = {cfg.horizon}\n")
    seeds = cfg.seed_list
    # builds at most len(seeds) items, however far apart the seeds are
    contiguous = seeds == tuple(range(seeds[0], seeds[0] + len(seeds)))
    out.write(f"seeds = {seeds[0]}..{seeds[-1] + 1}\n" if contiguous
              else "seeds = " + " ".join(str(s) for s in seeds) + "\n")
    out.write(f"init = {_fmt(cfg.init)}\n")
    out.write(f"reward_aggregates = {cfg.reward_aggregates}\n")
    out.write(f"baseline = {cfg.baseline}\n")
    out.write("\n[output]\n")
    out.write(f"dir = {cfg.out_dir}\n")
    return out.getvalue()


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
    agents; ``[graphon]`` values that give none are a ConfigError."""
    try:
        assignment = build_assignment(cfg)
        if assignment.n != cfg.n:
            raise ValueError(f"coords place {assignment.n} agents but [system] n = {cfg.n}")
        return build_weights(build_graphon(cfg), assignment)
    except ValueError as exc:
        raise ConfigError(f"[graphon] {exc}") from exc


def worker_count() -> int:
    raw = os.environ.get("GMFS_THREADS", "")
    if raw:
        try:
            return max(1, int(raw))
        except ValueError as exc:
            raise ConfigError(f"GMFS_THREADS must be an integer, got {raw!r}") from exc
    return min(8, os.cpu_count() or 1)


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
    evaluate_wall_time: float = 0.0
    agent_steps: int = 0  # seeds x n x horizon of the evaluation


@dataclass
class SweepReport:
    rows: list
    config_hash: str
    version: str
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


def evaluate_table(cfg: ExperimentConfig, env: Environment, weights,
                   q: QTable) -> PolicyEvaluation:
    """Run the configured episodes, one per seed of ``cfg.seed_list``, under
    the greedy policy of ``q``."""
    seeds = [episode_seed(cfg.master_seed, idx) for idx in cfg.seed_list]
    return evaluate_policy(
        env, weights, Policy(q), cfg.n, q.kappa, cfg.horizon, cfg.gamma, seeds,
        init=cfg.init,
        reward_aggregates=cfg.reward_aggregates,
        policy_inputs="exact" if cfg.baseline == "exact" else "sampled",
    )


def _sweep_one(cfg: ExperimentConfig, env: Environment, weights, kappa: int) -> SweepRow:
    size = table_size(cfg.mode, kappa, env.n_states, env.n_actions)
    try:
        t0 = time.perf_counter()
        q = train_kappa(cfg, env, kappa)
        t1 = time.perf_counter()
        evaluation = evaluate_table(cfg, env, weights, q)
        return SweepRow(kappa=kappa, table_size=size, train_iterations=q.iterations,
                        train_residual=q.residual, train_wall_time=t1 - t0,
                        evaluate_wall_time=time.perf_counter() - t1,
                        agent_steps=len(cfg.seed_list) * cfg.n * cfg.horizon,
                        mean_return=evaluation.mean, stderr_return=evaluation.std_error,
                        returns=evaluation.returns,
                        sup_peak=max(q.sup_history) if q.sup_history else q.sup_norm(),
                        qtable=q)
    except GmfsError as exc:  # a refused kappa is recorded; other kappas still run
        return SweepRow(kappa=kappa, table_size=size, train_iterations=0,
                        train_residual=float("nan"), train_wall_time=0.0,
                        mean_return=float("nan"), stderr_return=float("nan"),
                        status="error", error=f"{type(exc).__name__}: {exc}")


def run_sweep(cfg: ExperimentConfig, out_dir: str | None = None,
              save_tables: bool = True) -> SweepReport:
    """Train and evaluate every kappa in the config; write CSV reports."""
    env = build_environment(cfg)
    check_init(cfg, env)
    weights = build_system_weights(cfg)
    directory = Path(out_dir if out_dir is not None else cfg.out_dir)
    directory.mkdir(parents=True, exist_ok=True)

    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        rows = list(pool.map(lambda k: _sweep_one(cfg, env, weights, k), cfg.kappa_list))
    rows.sort(key=lambda r: r.kappa)

    report = SweepReport(rows=rows, config_hash=config_hash(cfg), version=__version__)
    for row in rows:
        if row.status == "ok":
            report.tables[row.kappa] = row.qtable
            if save_tables:
                save_qtable(row.qtable, directory / f"q_kappa{row.kappa:02d}.bin")

    _write_sweep_csv(report, cfg, directory / "sweep.csv")
    write_episodes_csv(directory / "episodes.csv", cfg,
                       {r.kappa: r.returns for r in rows if r.returns is not None})
    timings = {"config_hash": report.config_hash,
               "train_wall_time_s": {str(r.kappa): r.train_wall_time for r in rows},
               "evaluate_wall_time_s": {str(r.kappa): r.evaluate_wall_time for r in rows},
               "agent_steps": {str(r.kappa): r.agent_steps for r in rows}}
    (directory / "timings.json").write_text(json.dumps(timings, indent=2) + "\n")
    return report


def _provenance_lines(cfg: ExperimentConfig) -> str:
    return (f"# config_hash={config_hash(cfg)}\n"
            f"# version={__version__}\n")


def _write_sweep_csv(report: SweepReport, cfg: ExperimentConfig, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(_provenance_lines(cfg))
        rows = csv.writer(fh, lineterminator="\n")
        rows.writerow(["kappa", "table_size", "train_iterations", "train_residual",
                       "mean_return", "stderr_return", "status", "error"])
        for r in report.rows:
            rows.writerow([r.kappa, r.table_size, r.train_iterations,
                           repr(r.train_residual), repr(r.mean_return),
                           repr(r.stderr_return), r.status, r.error])


def write_episodes_csv(path, cfg: ExperimentConfig, returns_by_kappa: dict) -> None:
    """One row per episode, the returns of each kappa listed in the order
    of ``cfg.seed_list``."""
    with open(path, "w", newline="") as fh:
        fh.write(_provenance_lines(cfg))
        fh.write("kappa,seed,horizon,discounted_return\n")
        for kappa, returns in returns_by_kappa.items():
            for idx, value in zip(cfg.seed_list, returns):
                fh.write(f"{kappa},{idx},{cfg.horizon},{float(value)!r}\n")


def run_diagnostics(cfg: ExperimentConfig, suites, out_dir: str | None = None) -> dict:
    """Run the named property suites and write one CSV each.

    Valid names: contraction, concentration, lipschitz, ht_unbiasedness,
    offpolicy. Returns {name: DiagnosticResult}.
    """
    from . import diagnostics

    names = tuple(suites)
    if not names:
        raise ConfigError("diagnose needs at least one suite name")
    unknown = set(names) - set(diagnostics.SUITES)
    if unknown:
        raise ConfigError(f"unknown diagnostic suite(s): {sorted(unknown)}")
    directory = Path(out_dir if out_dir is not None else cfg.out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    results = {}
    for name in names:
        result = diagnostics.SUITES[name](cfg)
        csv_path = directory / f"diagnostic_{name}.csv"
        with open(csv_path, "w", newline="") as fh:
            fh.write(_provenance_lines(cfg))
            fh.write(",".join(result.columns) + "\n")
            for row in result.rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        results[name] = result
    return results
