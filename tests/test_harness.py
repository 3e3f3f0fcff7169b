import csv
import json
import os
import string
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmfs import harness
from gmfs.env import linear_env, local_reward, step_distribution
from gmfs.errors import BudgetError, ConfigError
from gmfs.harness import (
    ExperimentConfig,
    PAPER_KAPPAS,
    config_hash,
    build_environment,
    build_graphon,
    build_assignment,
    build_system_weights,
    episode_seed,
    parse_config,
    run_diagnostics,
    run_sweep,
    serialize_config,
    worker_count,
)


class TestParseConfig:
    def test_empty_train_section_gets_benchmark_defaults(self):
        cfg = parse_config("[train]\n")
        assert cfg.gamma == 0.95
        assert cfg.iterations == 250
        assert cfg.mc_samples == 50
        assert cfg.kappa_list == PAPER_KAPPAS
        assert cfg.mode == "marginal"
        assert cfg.horizon == 100
        assert len(cfg.seed_list) == 30

    def test_zero_config_is_benchmark(self):
        cfg = parse_config("")
        assert cfg.env_name == "warehouse"
        assert cfg.graphon_kind == "radial"
        assert cfg.radius == 0.3
        assert cfg.latent == "grid"
        assert cfg.n == 25

    def test_kappa_equal_n_rejected(self):
        with pytest.raises(ConfigError, match="kappa"):
            parse_config("[system]\nn = 25\n\n[train]\nkappa_list = 25\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="pressure"):
            parse_config("[train]\npressure = 9\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="plots"):
            parse_config("[plots]\nx = 1\n")

    def test_round_trip_idempotent(self):
        text = """
[system]
n = 9
master_seed = 3

[graphon]
kind = expdecay
beta = 2.5
latent = sequential

[train]
gamma = 0.9
kappa_list = 2 4
iterations = 40

[execute]
seeds = 5
horizon = 12
"""
        cfg = parse_config(text)
        canon = serialize_config(cfg)
        cfg2 = parse_config(canon)
        assert cfg2 == cfg
        assert serialize_config(cfg2) == canon
        assert config_hash(cfg2) == config_hash(cfg)

    def test_seed_range_expression(self):
        cfg = parse_config("[execute]\nseeds = 3..7\n")
        assert cfg.seed_list == (3, 4, 5, 6)

    def test_explicit_coords(self):
        cfg = parse_config(
            "[system]\nn = 3\n\n[graphon]\nkind = expdecay\nlatent = explicit\n"
            "coords = 0.1 0.5 0.9\n\n[train]\nkappa_list = 1 2\n")
        a = build_assignment(cfg)
        assert np.allclose(a.coords, [0.1, 0.5, 0.9])

    def test_env_override_flows_through(self):
        cfg = parse_config("[env]\nname = warehouse\ncongestion_slope = 0.5\n")
        env = build_environment(cfg)
        pmf = step_distribution(env, 0, 2, np.array([0.0, 0.0, 1.0]))
        assert pmf[2] == pytest.approx(0.4)  # max(0.1, 0.9 - 0.5)

    def test_vector_env_override(self):
        cfg = parse_config("[env]\nstate_values = 8 4 16\n")
        env = build_environment(cfg)
        assert local_reward(env, 2, 0, np.array([1.0, 0.0, 0.0])) == pytest.approx(16.0)
        cfg2 = parse_config(serialize_config(cfg))
        assert cfg2 == cfg

    def test_block_graphon_config(self):
        cfg = parse_config(
            "[graphon]\nkind = block\nblocks = 0.5 | 0.9 0.1 ; 0.1 0.7\n"
            "latent = sequential\n")
        g = build_graphon(cfg)
        assert g.kind == "block"
        assert g.block_values == ((0.9, 0.1), (0.1, 0.7))
        # canonical round trip keeps the single blocks key
        cfg2 = parse_config(serialize_config(cfg))
        assert cfg2 == cfg

    def test_uniform_graphon_takes_every_latent_assignment(self):
        base = "[graphon]\nkind = uniform\n"  # 25 agents, a square
        expected = build_system_weights(parse_config(base + "latent = sequential\n"))
        pairs = " ".join(f"{i / 24},{1 - i / 24}" for i in range(25))
        for latent in ("", "latent = grid\n", f"latent = explicit\ncoords = {pairs}\n"):
            got = build_system_weights(parse_config(base + latent))
            assert np.array_equal(got.normalized, expected.normalized)

    def test_seed_list_accepts_commas(self):
        assert parse_config("[execute]\nseeds = 0, 2,5\n").seed_list == (0, 2, 5)
        assert parse_config("[execute]\nseeds = 4\n").seed_list == (0, 1, 2, 3)

    @pytest.mark.parametrize("section, line", [
        ("train", "kappa_list = 1 x"),
        ("env", "congestion_slope = abc"),
        ("execute", "seeds = 1 y"),
        ("execute", "init = 0.5 z"),
        ("execute", "init = half"),
        ("execute", "seeds = 0..ten"),
        ("train", "xi = 2.5"),
        ("train", "reward_noise = uniform wide"),
        ("env", "state_values = 8 four 16"),
        ("graphon", "radius = r"),
        ("graphon", "beta = b"),
        ("graphon", "blocks = 0.5 | 0.9 x ; 0.1 0.7"),
        ("graphon", "coords = 0.1 0.5,y 0.9"),
        ("env", "congestion_slope = "),
    ])
    def test_malformed_number_is_a_config_error(self, section, line):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key} = "):
            parse_config(f"[{section}]\n{line}\n")

    def test_malformed_blocks_rejected(self):
        with pytest.raises(ConfigError, match="blocks"):
            parse_config("[graphon]\nkind = block\nblocks = 0.5 0.9 0.1\n")

    def test_seed_count_is_capped_before_it_is_built(self):
        for raw in ("10000000000000", "0..10000000000000", "-5..999999"):
            with pytest.raises(ConfigError, match="more than"):
                parse_config(f"[execute]\nseeds = {raw}\n")
        assert len(parse_config("[execute]\nseeds = 5..1000005\n").seed_list) == 1_000_000


_SECTION_KEYS = {}
for _key in harness.CONFIG_KEYS:
    _SECTION_KEYS.setdefault(_key.section, set()).add(_key.name)
_ALL_KEYS = sorted(set().union(*_SECTION_KEYS.values()))
_ENV_OVERRIDES = sorted(k.name for k in harness.CONFIG_KEYS if k.field == "env_overrides")
_NUMBERISH = st.from_regex(r"-?[0-9]{1,3}(\.[0-9]{1,3})?([eE]-?[0-9])?", fullmatch=True)
_VALUE = st.one_of(st.text(max_size=12), _NUMBERISH,
                   st.lists(_NUMBERISH, min_size=1, max_size=4).map(" ".join),
                   st.sampled_from(["..", "1..x", "uniform", "uniform 0.5", "idle", " | ",
                                    "0.5 | 0.9 0.1 ; 0.1 0.7", "0,1 0.5", ",", "nan", "inf"]))
_LINE = st.one_of(
    st.sampled_from(sorted(_SECTION_KEYS) + ["DEFAULT", "plots"]).map("[{}]".format),
    st.builds("{} = {}".format, st.sampled_from(_ALL_KEYS), _VALUE),
    st.text(max_size=20),
)
_CONFIG_TEXT = st.one_of(st.text(), st.lists(_LINE, max_size=14).map("\n".join))

_NAME = st.text(string.ascii_letters + string.digits + "_-./", min_size=1, max_size=10)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_FLOATS = st.lists(_FINITE, min_size=2, max_size=4).map(tuple)


@st.composite
def _configs(draw):
    """Valid configs whose every field the text form can carry."""
    n = draw(st.integers(2, 300))
    kind = draw(st.sampled_from(["radial", "expdecay", "block", "uniform"]))
    latent = draw(st.sampled_from(["sequential", "grid", "explicit"]))
    fields = dict(
        env_name=draw(_NAME),
        env_file=draw(st.none() | _NAME),
        env_overrides=tuple(sorted(draw(st.dictionaries(
            st.sampled_from(_ENV_OVERRIDES), _FINITE | _FLOATS)).items())),
        graphon_kind=kind,
        latent=latent,
        # only an explicit assignment reads coords
        coords=draw(st.just(()) | st.lists(_FINITE, min_size=1, max_size=4).map(tuple)
                    | st.lists(st.tuples(_FINITE, _FINITE), min_size=1, max_size=4).map(tuple))
        if latent == "explicit" else (),
        n=n,
        master_seed=draw(st.integers(0, 2 ** 64 - 1)),
        gamma=draw(st.floats(0, 1, exclude_min=True, exclude_max=True)),
        iterations=draw(st.integers(1, 10 ** 6)),
        mc_samples=draw(st.integers(1, 10 ** 6)),
        kappa_list=tuple(draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=5,
                                       unique=True))),
        mode=draw(st.sampled_from(["joint", "marginal"])),
        epsilon=draw(_FINITE.map(abs)),
        neighbor_action_rule=draw(st.sampled_from(["greedy", "uniform"])),
        surrogate_aggregate=draw(st.sampled_from(["leave_one_out", "shared"])),
        xi=draw(st.none() | st.integers(1, 1000)),
        reward_noise=draw(st.none() | _FINITE.map(abs)),
        horizon=draw(st.integers(0, 10 ** 6)),
        seed_list=tuple(draw(st.lists(st.integers(-10 ** 9, 10 ** 9), min_size=1,
                                      max_size=6))),
        init=draw(st.integers(-5, 5) | _FLOATS),
        reward_aggregates=draw(st.sampled_from(["exact", "sampled"])),
        baseline=draw(st.sampled_from(["none", "exact"])),
        out_dir=draw(_NAME),
    )
    if kind == "radial":
        fields["radius"] = draw(_FINITE)
    elif kind == "expdecay":
        fields["beta"] = draw(_FINITE)
    elif kind == "block":
        fields["boundaries"] = tuple(draw(st.lists(_FINITE, max_size=3)))
        fields["block_values"] = tuple(draw(st.lists(
            st.lists(_FINITE, min_size=1, max_size=3).map(tuple), min_size=1, max_size=3)))
    return ExperimentConfig(**fields)


class TestParseConfigProperties:
    @given(_CONFIG_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_any_text_is_a_valid_config_or_a_config_error(self, text):
        try:
            cfg = parse_config(text)
        except ConfigError:
            return
        assert isinstance(cfg, ExperimentConfig)
        assert parse_config(serialize_config(cfg)) == cfg

    @given(_configs())
    @settings(max_examples=150, deadline=None)
    def test_serialized_config_parses_back_equal(self, cfg):
        assert parse_config(serialize_config(cfg)) == cfg

    def test_sparse_seed_list_serializes_without_its_span(self):
        # the contiguity test must not materialize range(first, last + 1)
        cfg = replace(ExperimentConfig(), seed_list=(-10 ** 15, 10 ** 15))
        text = serialize_config(cfg)
        assert f"seeds = {-10 ** 15} {10 ** 15}\n" in text
        assert parse_config(text) == cfg


_ZERO_TEXT = """[env]
name = warehouse

[graphon]
kind = radial
radius = 0.3
latent = grid

[system]
n = 25
master_seed = 0

[train]
gamma = 0.95
iterations = 250
mc_samples = 50
kappa_list = 1 3 6 9 12 15 18 21 24
mode = marginal
epsilon = 0.0001
neighbor_action_rule = uniform
surrogate_aggregate = leave_one_out

[execute]
horizon = 100
seeds = 0..30
init = 0
reward_aggregates = exact
baseline = none

[output]
dir = out
"""
# (fields that differ from the zero config, the lines of the zero text they change)
_CANONICAL = {
    "zero": ({}, {}),
    "radial": (
        dict(env_file="toy.env", env_overrides=(("congestion_slope", 0.5),
                                                ("state_values", (8.0, 4.0, 16.0))),
             radius=0.25, latent="explicit", coords=((0.1, 0.2), (0.5, 0.5), (0.9, 0.7)),
             n=3, kappa_list=(1, 2)),
        {"name = warehouse\n": "name = warehouse\nfile = toy.env\ncongestion_slope = 0.5\n"
                               "state_values = 8.0 4.0 16.0\n",
         "radius = 0.3\nlatent = grid\n": "radius = 0.25\nlatent = explicit\n"
                                           "coords = 0.1,0.2 0.5,0.5 0.9,0.7\n",
         "n = 25\n": "n = 3\n", "kappa_list = 1 3 6 9 12 15 18 21 24\n": "kappa_list = 1 2\n"}),
    "expdecay": (
        dict(graphon_kind="expdecay", beta=2.5, latent="sequential"),
        {"kind = radial\nradius = 0.3\nlatent = grid\n":
         "kind = expdecay\nbeta = 2.5\nlatent = sequential\n"}),
    "block": (
        dict(graphon_kind="block", boundaries=(0.5,), block_values=((0.9, 0.1), (0.1, 0.7)),
             latent="sequential"),
        {"kind = radial\nradius = 0.3\nlatent = grid\n":
         "kind = block\nblocks = 0.5 | 0.9 0.1 ; 0.1 0.7\nlatent = sequential\n"}),
    "uniform": (
        dict(graphon_kind="uniform", n=10, kappa_list=(1, 3, 9)),
        {"kind = radial\nradius = 0.3\n": "kind = uniform\n", "n = 25\n": "n = 10\n",
         "kappa_list = 1 3 6 9 12 15 18 21 24\n": "kappa_list = 1 3 9\n"}),
    "joint": (
        dict(mode="joint", kappa_list=(1, 2), neighbor_action_rule="greedy",
             surrogate_aggregate="shared", init=(0.4, 0.3, 0.3), reward_aggregates="sampled",
             baseline="exact"),
        {"kappa_list = 1 3 6 9 12 15 18 21 24\nmode = marginal\n":
         "kappa_list = 1 2\nmode = joint\n",
         "neighbor_action_rule = uniform\nsurrogate_aggregate = leave_one_out\n":
         "neighbor_action_rule = greedy\nsurrogate_aggregate = shared\n",
         "init = 0\nreward_aggregates = exact\nbaseline = none\n":
         "init = 0.4 0.3 0.3\nreward_aggregates = sampled\nbaseline = exact\n"}),
    "stochastic rewards": (
        dict(xi=4, reward_noise=0.5),
        {"surrogate_aggregate = leave_one_out\n":
         "surrogate_aggregate = leave_one_out\nxi = 4\nreward_noise = uniform 0.5\n"}),
    "sparse seeds": (
        dict(seed_list=(0, 2, 5), master_seed=7),
        {"master_seed = 0\n": "master_seed = 7\n", "seeds = 0..30\n": "seeds = 0 2 5\n"}),
}


class TestCanonicalText:
    """The canonical text heads every output CSV through its hash, so these
    bytes may change only together with every recorded ``config_hash``."""

    @pytest.mark.parametrize("fields, changes", _CANONICAL.values(), ids=_CANONICAL.keys())
    def test_canonical_text_is_pinned(self, fields, changes):
        expected = _ZERO_TEXT
        for old, new in changes.items():
            assert old in expected
            expected = expected.replace(old, new)
        cfg = replace(ExperimentConfig(), **fields)
        assert serialize_config(cfg) == expected
        assert parse_config(expected) == cfg

    def test_zero_config_hash_is_pinned(self):
        assert config_hash(ExperimentConfig()) == "39d0692646c38546"
        assert config_hash(parse_config("")) == "39d0692646c38546"


class TestConfigRefusals:
    # `[env] file = `, `radius` under `kind = expdecay` and `blocks` under
    # `kind = radial` used to parse, to a config whose canonical text parsed
    # back to a different config with the same config_hash
    @pytest.mark.parametrize("section, key", [
        ("env", "file"), ("graphon", "radius"), ("system", "n"),
        ("train", "kappa_list"), ("train", "xi"), ("train", "reward_noise"),
        ("execute", "seeds"), ("execute", "init"), ("output", "dir"),
    ])
    def test_empty_value_is_refused(self, section, key):
        for text in (f"[{section}]\n{key} = \n", f"[{section}]\n{key} =\n"):
            with pytest.raises(ConfigError, match=rf"^\[{section}\] {key} = : empty value"):
                parse_config(text)

    @pytest.mark.parametrize("kind, key, value", [
        ("radial", "beta", "2"), ("radial", "blocks", "0.5 | 1 0 ; 0 1"),
        ("expdecay", "radius", "0.5"), ("block", "beta", "2"), ("uniform", "radius", "0.3"),
    ])
    def test_graphon_parameter_of_another_kind_is_refused(self, kind, key, value):
        with pytest.raises(ConfigError, match=rf"^\[graphon\] {key} = .*no effect under "
                                              rf"kind = {kind}"):
            parse_config(f"[graphon]\nkind = {kind}\n{key} = {value}\n")

    def test_empty_kappa_list_is_refused(self):
        with pytest.raises(ConfigError, match="must name at least one kappa"):
            replace(ExperimentConfig(), kappa_list=())

    def test_every_instance_is_valid(self):
        for fields, match in ((dict(mode="both"), r"\[train\] mode = both: expected joint or "),
                              (dict(latent="ring"), r"\[graphon\] latent = ring"),
                              (dict(out_dir=""), r"\[output\] dir = : expected a value"),
                              (dict(n=1), "at least 2"), (dict(kappa_list=(25,)), "kappa 25"),
                              # sweeps discount with [train] gamma, so no text sets it
                              (dict(env_overrides=(("discount", 0.5),)),
                               r"^\[env\] discount: not an \[env\] key"),
                              # a text gives each key once
                              (dict(env_overrides=(("congestion_slope", 0.5),
                                                   ("congestion_slope", 0.7))),
                               r"^\[env\] congestion_slope: given twice")):
            with pytest.raises(ConfigError, match=match):
                replace(ExperimentConfig(), **fields)

    def test_env_overrides_keep_the_order_of_the_key_table(self):
        # given out of order, the overrides used to read back sorted from
        # their canonical text: another config with the same config_hash
        cfg = replace(ExperimentConfig(),
                      env_overrides=(("min_utility", 0.3), ("congestion_slope", 0.5)))
        assert cfg.env_overrides == (("congestion_slope", 0.5), ("min_utility", 0.3))
        assert parse_config(serialize_config(cfg)) == cfg

    def test_coords_need_an_explicit_latent_assignment(self):
        for latent in ("sequential", "grid"):
            with pytest.raises(ConfigError, match=rf"^\[graphon\] coords: no effect under "
                                                  rf"latent = {latent}"):
                parse_config(f"[graphon]\nlatent = {latent}\ncoords = 0.1 0.5 0.9\n")
            with pytest.raises(ConfigError, match=r"^\[graphon\] coords"):
                replace(ExperimentConfig(), latent=latent, coords=(0.1, 0.5))
        cfg = parse_config("[graphon]\nlatent = explicit\ncoords = 0.1 0.5 0.9\n")
        assert cfg.coords == (0.1, 0.5, 0.9)

    def test_nan_is_refused(self):
        for line in ("[train]\nepsilon = nan", "[graphon]\nradius = nan",
                     "[env]\nstate_values = 1 nan 2", "[execute]\ninit = nan 0.5 0.5"):
            with pytest.raises(ConfigError, match="not nan"):
                parse_config(line + "\n")

    def test_values_that_span_lines_or_short_points_round_trip(self):
        for text in ("[output]\ndir = out\n  more\n\n  last\n",
                     "[graphon]\nlatent = explicit\ncoords = 1, , 0.5\n",
                     "[graphon]\nkind = block\n"):
            cfg = parse_config(text)
            assert parse_config(serialize_config(cfg)) == cfg


class TestWorkerCount:
    def test_env_var_respected(self):
        os.environ["GMFS_THREADS"] = "3"
        try:
            assert worker_count() == 3
        finally:
            del os.environ["GMFS_THREADS"]

    def test_invalid_env_var(self):
        os.environ["GMFS_THREADS"] = "many"
        try:
            with pytest.raises(ConfigError):
                worker_count()
        finally:
            del os.environ["GMFS_THREADS"]

    @pytest.mark.parametrize("raw", ["0", "-2"])
    def test_fewer_than_one_thread_is_refused(self, raw, monkeypatch):
        # used to be read as one thread without a word
        monkeypatch.setenv("GMFS_THREADS", raw)
        with pytest.raises(ConfigError, match=rf"GMFS_THREADS .* got '{raw}'"):
            worker_count()


def small_sweep_config(**over):
    cfg = ExperimentConfig()
    fields = dict(kappa_list=(1, 2), seed_list=tuple(range(4)),
                  iterations=40, mc_samples=10, horizon=15)
    fields.update(over)
    return replace(cfg, **fields)


class TestRunSweep:
    def test_table_sizes_and_csvs(self, tmp_path):
        cfg = small_sweep_config()
        report = run_sweep(cfg, out_dir=tmp_path)
        assert report.ok()
        sizes = {r.kappa: r.table_size for r in report.rows}
        assert sizes == {1: 9 * 3, 2: 9 * 6}
        assert (tmp_path / "sweep.csv").exists()
        assert (tmp_path / "episodes.csv").exists()
        assert (tmp_path / "timings.json").exists()
        assert (tmp_path / "q_kappa01.bin").exists()
        header = (tmp_path / "sweep.csv").read_text().splitlines()
        assert header[0] == f"# config_hash={report.config_hash}"

    def test_timings_record_evaluation_time_and_agent_steps(self, tmp_path, monkeypatch):
        real = harness.train_kappa

        def refuse(cfg, env, kappa):
            if kappa == 2:
                raise BudgetError("synthetic refusal")
            return real(cfg, env, kappa)

        monkeypatch.setattr(harness, "train_kappa", refuse)
        run_sweep(small_sweep_config(n=9), out_dir=tmp_path)
        timings = json.loads((tmp_path / "timings.json").read_text())
        assert set(timings) == {"config_hash", "train_wall_time_s", "evaluate_wall_time_s",
                                "agent_steps"}
        for key in ("train_wall_time_s", "agent_steps"):
            assert set(timings[key]) == {"1", "2"}, key
        # 4 seeds x 9 agents x horizon 15; a refused kappa runs no episode
        assert timings["agent_steps"] == {"1": 4 * 9 * 15, "2": 0}
        assert timings["train_wall_time_s"]["1"] > 0
        assert timings["train_wall_time_s"]["2"] == 0
        # every trained kappa is evaluated in one batch, timed once
        assert isinstance(timings["evaluate_wall_time_s"], float)
        assert timings["evaluate_wall_time_s"] > 0

    def test_benchmark_table_size_column(self):
        from gmfs.bellman import table_size
        assert table_size("marginal", 24, 3, 3) == 2925

    def test_failure_isolation(self, tmp_path, monkeypatch):
        real = harness.train_kappa

        def refuse(cfg, env, kappa):
            if kappa == 2:
                raise BudgetError("synthetic refusal, with a comma")
            return real(cfg, env, kappa)

        monkeypatch.setattr(harness, "train_kappa", refuse)
        report = run_sweep(small_sweep_config(), out_dir=tmp_path)
        by_kappa = {r.kappa: r for r in report.rows}
        assert by_kappa[1].status == "ok"
        assert by_kappa[2].status == "error"
        assert by_kappa[2].error == "BudgetError: synthetic refusal, with a comma"
        lines = (tmp_path / "sweep.csv").read_text().splitlines()[2:]
        assert lines[1].startswith("1,") and lines[1].endswith(",ok,")
        assert lines[2].endswith(',error,"BudgetError: synthetic refusal, with a comma"')
        rows = list(csv.DictReader(lines))
        assert [r["error"] for r in rows] == ["", by_kappa[2].error]

    def test_a_kappa_refused_past_64_bits_leaves_the_others_byte_identical(
            self, tmp_path, monkeypatch):
        # 41 states: the histogram codes of kappas 1 and 2 fit in 64 bits, kappa 3's
        # do not, so training refuses kappa 3 before it tabulates the kernel
        S, A = 41, 2
        rng = np.random.default_rng(5)
        kernel = rng.dirichlet(np.ones(S), size=(S, A, S))
        env = linear_env("wide", kernel, rng.standard_normal((S, A, S)))
        monkeypatch.setattr(harness, "build_environment", lambda cfg: env)
        cfg = small_sweep_config(kappa_list=(1, 2, 3), n=6, graphon_kind="uniform",
                                 iterations=2, mc_samples=2)
        report = run_sweep(cfg, out_dir=tmp_path / "all")
        assert [r.status for r in report.rows] == ["ok", "ok", "error"]
        assert report.rows[2].error.startswith("BudgetError: histogram codes")
        run_sweep(replace(cfg, kappa_list=(1, 2)), out_dir=tmp_path / "without")

        def data_lines(run, name):  # the lines after the two provenance comments
            return (tmp_path / run / name).read_text().splitlines()[2:]

        with_refusal = data_lines("all", "sweep.csv")
        assert with_refusal[:3] == data_lines("without", "sweep.csv")
        assert with_refusal[3].startswith("3,")
        episodes = data_lines("all", "episodes.csv")
        assert episodes == data_lines("without", "episodes.csv")
        assert len(episodes) == 1 + 2 * len(cfg.seed_list)
        assert len({line.rsplit(",", 1)[1] for line in episodes[1:]}) == len(episodes) - 1
        for kappa in (1, 2):
            name = f"q_kappa{kappa:02d}.bin"
            assert (tmp_path / "all" / name).read_bytes() == (
                tmp_path / "without" / name).read_bytes()
        assert not (tmp_path / "all" / "q_kappa03.bin").exists()

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        def broken(cfg, env, kappa):
            raise RuntimeError("synthetic bug")

        monkeypatch.setattr(harness, "train_kappa", broken)
        with pytest.raises(RuntimeError, match="synthetic bug"):
            run_sweep(small_sweep_config(), out_dir=tmp_path)

    def test_byte_identical_across_thread_counts(self, tmp_path, monkeypatch):
        cfg = small_sweep_config()
        monkeypatch.setenv("GMFS_THREADS", "1")
        run_sweep(cfg, out_dir=tmp_path / "a")
        monkeypatch.setenv("GMFS_THREADS", "8")
        run_sweep(cfg, out_dir=tmp_path / "b")
        for name in ("sweep.csv", "episodes.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_one_worker_trains_in_the_calling_thread(self, tmp_path, monkeypatch):
        import threading

        def refuse(thread):
            raise AssertionError("the sweep started a thread")

        monkeypatch.setenv("GMFS_THREADS", "1")
        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert run_sweep(small_sweep_config(), out_dir=tmp_path).ok()

    def test_joint_mode_sweep(self, tmp_path):
        from gmfs.histograms import num_histograms

        cfg = small_sweep_config(kappa_list=(2,), mode="joint", iterations=25,
                                 seed_list=tuple(range(2)), horizon=8)
        report = run_sweep(cfg, out_dir=tmp_path)
        assert report.ok()
        assert report.rows[0].table_size == 9 * num_histograms(9, 2)

    def test_sampled_reward_ablation(self, tmp_path):
        cfg = small_sweep_config(kappa_list=(2,), reward_aggregates="sampled")
        report = run_sweep(cfg, out_dir=tmp_path)
        assert report.ok()
        assert np.isfinite(report.rows[0].mean_return)

    def test_custom_env_file(self, tmp_path):
        env_file = tmp_path / "toy_env.txt"
        env_file.write_text(
            "states 2\nactions 2\ndiscount 0.9\n"
            + "".join(f"kernel {s} {a} {x} : 0.5 0.5\n"
                      for s in range(2) for a in range(2) for x in range(2))
            + "".join(f"reward {s} {a} {x} : {s + a + x}\n"
                      for s in range(2) for a in range(2) for x in range(2)))
        cfg = parse_config(
            f"[env]\nname = toy\nfile = {env_file}\n\n[system]\nn = 6\n\n"
            "[graphon]\nkind = uniform\nlatent = sequential\n\n"
            "[train]\nkappa_list = 2\niterations = 30\nmc_samples = 5\n\n"
            "[execute]\nseeds = 2\nhorizon = 6\n")
        report = run_sweep(cfg, out_dir=tmp_path)
        assert report.ok()
        assert report.rows[0].table_size == 2 * 2 * 3

    def test_stochastic_training_config(self, tmp_path):
        cfg = small_sweep_config(kappa_list=(2,), xi=4, reward_noise=0.5)
        report = run_sweep(cfg, out_dir=tmp_path)
        assert report.ok()
        # with noisy rewards the frozen operator keeps converging, just to a
        # perturbed fixed point
        assert report.rows[0].train_iterations <= cfg.iterations

    def test_exact_baseline_config(self, tmp_path):
        cfg = small_sweep_config(kappa_list=(2,), baseline="exact")
        report = run_sweep(cfg, out_dir=tmp_path)
        assert report.ok()
        assert np.isfinite(report.rows[0].mean_return)

    def test_polynomial_time_scaling(self):
        # log-log slope of train time against table size is near linear;
        # fit over table sizes 819 to 11025 (kappa 12 to 48). Since runs stop
        # on the span bound after 9-21 sweeps, train time is mostly the
        # engine build, whose per-entry work grows a little faster than the
        # table (kappa uniforms per neighbor sample); at kappa 6 fixed
        # per-run costs would pull the slope towards the lower bound.
        # An untimed call first takes the one-time costs (numpy.random is
        # imported lazily). Each kappa keeps the fastest of three timings,
        # taken in rounds over the kappas, so that a slow or fast phase of
        # the machine lands on every kappa rather than on one of them.
        import time

        from gmfs.bellman import table_size
        from gmfs.harness import build_environment, train_kappa

        cfg = ExperimentConfig()
        env = build_environment(cfg)
        train_kappa(cfg, env, 6)
        kappas = (12, 24, 48)
        times = {kappa: [] for kappa in kappas}
        for _ in range(3):
            for kappa in kappas:
                t0 = time.perf_counter()
                train_kappa(cfg, env, kappa)
                times[kappa].append(time.perf_counter() - t0)
        sizes = [table_size(cfg.mode, kappa, 3, 3) for kappa in kappas]
        fastest = [min(times[kappa]) for kappa in kappas]
        slope = np.polyfit(np.log(sizes), np.log(fastest), 1)[0]
        assert 0.8 <= slope <= 1.5, f"log-log slope {slope:.3f}"


class TestDiagnosticsDispatch:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError):
            run_diagnostics(ExperimentConfig(), ["spectral"])

    def test_empty_suite_rejected(self):
        with pytest.raises(ConfigError):
            run_diagnostics(ExperimentConfig(), [])

    def test_concentration_writes_csv(self, tmp_path):
        cfg = ExperimentConfig()
        results = run_diagnostics(cfg, ["concentration"], out_dir=tmp_path)
        assert results["concentration"].passed
        lines = (tmp_path / "diagnostic_concentration.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[2] == "kappa,delta,bound,empirical_quantile,violation_rate"
        assert len(lines) == 6


class TestEpisodeSeed:
    def test_distinct(self):
        seen = {episode_seed(m, i) for m in range(3) for i in range(30)}
        assert len(seen) == 90
