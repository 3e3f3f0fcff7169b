import re
from pathlib import Path

import pytest

from gmfs import __version__
from gmfs.bellman import load_qtable
from gmfs.cli import main


SMALL_CONFIG = """
[system]
n = 9

[graphon]
kind = uniform
latent = sequential

[train]
iterations = 40
mc_samples = 10
kappa_list = 2 3

[execute]
horizon = 10
seeds = 3
"""


def write_config(tmp_path, text=SMALL_CONFIG):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return str(path)


def test_the_package_version_is_the_project_version():
    # the version every output file records is the one the package declares
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.findall(r'^version = "([^"]*)"$', project, re.M) == [__version__]


class TestTrain:
    def test_train_writes_qtable(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "q.bin"
        assert main(["train", "--config", cfg, "--kappa", "2", "--out", str(out)]) == 0
        q = load_qtable(out)
        assert q.kappa == 2 and q.env_name == "warehouse"
        assert "trained kappa=2" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[train]\nwarp = 9\n")
        code = main(["train", "--config", str(bad), "--out", str(tmp_path / "q.bin")])
        assert code == 2

    @pytest.mark.parametrize("section, line", [
        ("train", "kappa_list = 1 x"),
        ("env", "congestion_slope = abc"),
        ("execute", "seeds = 1 y"),
        ("execute", "init = 0.5 z"),
    ])
    def test_malformed_number_exit_code(self, tmp_path, capsys, section, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"[{section}]\n{line}\n")
        code = main(["train", "--config", str(bad), "--out", str(tmp_path / "q.bin")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_budget_error_exit_code(self, tmp_path, capsys):
        # joint mode at this kappa needs a table beyond the memory budget
        big = tmp_path / "big.cfg"
        big.write_text("[system]\nn = 200\n\n[graphon]\nkind = uniform\n"
                       "latent = sequential\n\n[train]\nmode = joint\n"
                       "kappa_list = 150\n")
        code = main(["train", "--config", str(big), "--out", str(tmp_path / "q.bin")])
        assert code == 3


class TestExecuteAndInspect:
    def test_execute_writes_episode_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        qpath = tmp_path / "q.bin"
        main(["train", "--config", cfg, "--kappa", "2", "--out", str(qpath)])
        out = tmp_path / "episodes.csv"
        code = main(["execute", "--config", cfg, "--qtable", str(qpath),
                     "--seeds", "0..4", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == f"# version={__version__}"
        assert lines[2] == "kappa,seed,horizon,discounted_return"
        assert [line.split(",")[:3] for line in lines[3:]] == [
            ["2", str(s), "10"] for s in range(4)]
        assert " s, mean discounted return" in capsys.readouterr().out

    def test_execute_seed_count_matches_config_grammar(self, tmp_path, capsys):
        # '--seeds 3' means seeds 0, 1, 2, as 'seeds = 3' does in a config
        cfg = write_config(tmp_path)
        qpath = tmp_path / "q.bin"
        main(["train", "--config", cfg, "--kappa", "2", "--out", str(qpath)])
        out = tmp_path / "episodes.csv"
        assert main(["execute", "--config", cfg, "--qtable", str(qpath),
                     "--seeds", "3", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[3:]
        assert [row.split(",")[1] for row in rows] == ["0", "1", "2"]
        # the returns are those of the sweep's episodes.csv for the same seeds
        assert main(["sweep", "--config", cfg, "--out-dir", str(tmp_path / "sweep")]) == 0
        sweep_rows = (tmp_path / "sweep" / "episodes.csv").read_text().splitlines()[3:]
        assert rows == [r for r in sweep_rows if r.startswith("2,")]

    def test_execute_bad_seeds_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        qpath = tmp_path / "q.bin"
        main(["train", "--config", cfg, "--kappa", "2", "--out", str(qpath)])
        # an empty value names no seed, as an empty '[execute] seeds =' does
        for bad in ("0..x", "5..2", ""):
            assert main(["execute", "--config", cfg, "--qtable", str(qpath),
                         "--seeds", bad, "--out", str(tmp_path / "e.csv")]) == 2

    def test_execute_rejects_table_of_other_dimensions(self, tmp_path, capsys):
        # a 2-state, 2-action table on the 3-state, 3-action warehouse
        from gmfs.bellman import QTable, save_qtable

        qpath = tmp_path / "q.bin"
        save_qtable(QTable.zeros("marginal", 2, 2, 2, 0.95, env_name="warehouse"), qpath)
        out = tmp_path / "e.csv"
        assert main(["execute", "--config", write_config(tmp_path), "--qtable", str(qpath),
                     "--out", str(out)]) == 2
        assert "|S|=2, |A|=2" in capsys.readouterr().err
        assert not out.exists()

    def test_execute_rejects_kappa_above_n_minus_one(self, tmp_path, capsys):
        # a kappa-24 table on 4 agents: each agent has only 3 neighbors
        from gmfs.bellman import QTable, save_qtable

        qpath = tmp_path / "q.bin"
        save_qtable(QTable.zeros("marginal", 24, 3, 3, 0.95, env_name="warehouse"), qpath)
        cfg = write_config(tmp_path, "[system]\nn = 4\n\n[graphon]\nkind = uniform\n"
                                     "latent = sequential\n\n[train]\nkappa_list = 1\n")
        out = tmp_path / "e.csv"
        assert main(["execute", "--config", cfg, "--qtable", str(qpath),
                     "--seeds", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "kappa 24" in err and "n = 4" in err
        assert not out.exists()

    def test_damaged_qtable_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        qpath = tmp_path / "q.bin"
        main(["train", "--config", cfg, "--kappa", "2", "--out", str(qpath)])
        blob = qpath.read_bytes()
        for damaged in (blob[:-9], blob[:30] + bytes([blob[30] ^ 0xFF]) + blob[31:]):
            qpath.write_bytes(damaged)
            capsys.readouterr()
            assert main(["inspect", str(qpath)]) == 5
            assert "format error" in capsys.readouterr().err
            out = tmp_path / "e.csv"
            assert main(["execute", "--config", cfg, "--qtable", str(qpath),
                         "--out", str(out)]) == 5
            assert "format error" in capsys.readouterr().err
            assert not out.exists()

    def test_huge_header_dims_exit_code(self, tmp_path, capsys, huge_header_qtable):
        qpath = tmp_path / "q.bin"
        qpath.write_bytes(huge_header_qtable)
        assert main(["inspect", str(qpath)]) == 5
        assert "format error: q-table payload holds 1 values" in capsys.readouterr().err

    def test_inspect_prints_header(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        qpath = tmp_path / "q.bin"
        main(["train", "--config", cfg, "--kappa", "3", "--out", str(qpath)])
        capsys.readouterr()
        assert main(["inspect", str(qpath)]) == 0
        text = capsys.readouterr().out
        assert "kappa=3" in text and "sup_norm" in text


    def test_execute_budget_exit_code_for_codes_past_64_bits(self, tmp_path, capsys):
        # 42 states at kappa 2: the largest histogram code, 2 * 3^40, exceeds 64 bits
        from gmfs.bellman import QTable, save_qtable

        S = 42
        lines = [f"states {S}", "actions 1"]
        for s in range(S):
            for x in range(S):
                lines.append(f"kernel {s} 0 {x} : " + " ".join("1" if y == s else "0"
                                                               for y in range(S)))
                lines.append(f"reward {s} 0 {x} : 0")
        env_file = tmp_path / "long.env"
        env_file.write_text("\n".join(lines) + "\n")
        qpath = tmp_path / "q.bin"
        save_qtable(QTable.zeros("marginal", 2, S, 1, 0.95, env_name="long"), qpath)
        cfg = write_config(tmp_path, SMALL_CONFIG + f"[env]\nname = long\nfile = {env_file}\n")
        out = tmp_path / "e.csv"
        assert main(["execute", "--config", cfg, "--qtable", str(qpath),
                     "--out", str(out)]) == 3
        assert "budget error: histogram codes" in capsys.readouterr().err
        assert not out.exists()

    def test_dense_weights_past_the_budget_exit_code(self, tmp_path, capsys):
        # 90000 is a square, so the default grid takes it; the dense weights
        # would hold n * n = 8.1e9 entries (121 GiB)
        from gmfs.bellman import QTable, save_qtable

        cfg = write_config(tmp_path, "[system]\nn = 90000\n")
        qpath = tmp_path / "q.bin"
        save_qtable(QTable.zeros("marginal", 2, 3, 3, 0.95, env_name="warehouse"), qpath)
        for argv in (["sweep", "--config", cfg, "--out-dir", str(tmp_path / "sweep")],
                     ["execute", "--config", cfg, "--qtable", str(qpath),
                      "--out", str(tmp_path / "e.csv")]):
            assert main(argv) == 3, argv[0]
            err = capsys.readouterr().err
            assert err.startswith("budget error: [system] n = 90000 needs 8100000000 "
                                  "interaction weights, past the table budget (50000000)")
            assert "Traceback" not in err


class TestSweep:
    def test_refused_kappa_exit_code(self, tmp_path, capsys, monkeypatch):
        from gmfs import harness
        from gmfs.errors import BudgetError

        real = harness.train_kappa

        def refuse(cfg, env, kappa):
            if kappa == 3:
                raise BudgetError("synthetic refusal")
            return real(cfg, env, kappa)

        monkeypatch.setattr(harness, "train_kappa", refuse)
        assert main(["sweep", "--config", write_config(tmp_path),
                     "--out-dir", str(tmp_path / "sweep")]) == 3
        assert "kappa=  3 FAILED: BudgetError: synthetic refusal" in capsys.readouterr().out

    def test_sweep_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(["sweep", "--config", cfg, "--out-dir", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "sweep.csv").exists()
        text = capsys.readouterr().out
        assert "kappa=  2" in text and "kappa=  3" in text

    def test_fewer_than_one_thread_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GMFS_THREADS", "0")
        assert main(["sweep", "--config", write_config(tmp_path),
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert "GMFS_THREADS must be an integer of at least 1, got '0'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("old, new, named", [
        ("[system]", "[env]\nfile = \n\n[system]", "[env] file = "),
        ("kind = uniform", "kind = expdecay\nradius = 0.5", "[graphon] radius = "),
        ("kind = uniform", "kind = radial\nblocks = 0.5 | 0.9 0.1 ; 0.1 0.7",
         "[graphon] blocks = "),
    ], ids=["empty file", "radius under expdecay", "blocks under radial"])
    def test_key_the_canonical_text_leaves_out_exit_code(self, tmp_path, capsys, old, new,
                                                         named):
        cfg = write_config(tmp_path, SMALL_CONFIG.replace(old, new))
        assert main(["sweep", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {named}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("latent", ["sequential", "grid"])
    def test_coords_without_explicit_latent_exit_code(self, tmp_path, capsys, latent):
        # 2-D points under latent = sequential used to fail on a latent_dim
        # mismatch that did not name coords; under latent = grid they were
        # ignored, yet entered the config hash
        points = " ".join(f"{i / 8!r},{1 - i / 8!r}" for i in range(9))
        cfg = write_config(tmp_path, SMALL_CONFIG.replace(
            "kind = uniform\nlatent = sequential",
            f"kind = radial\nlatent = {latent}\ncoords = {points}"))
        assert main(["sweep", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [graphon] coords: no effect under latent = {latent}")
        assert not (tmp_path / "out").exists()


class TestUniformGraphonOnTheGrid:
    """The uniform graphon reads no coordinates: under the default
    ``latent = grid`` it takes a non-square n, with the weights of
    ``latent = sequential``."""

    @staticmethod
    def configs(tmp_path):
        paths = []
        for name, latent in (("grid", ""), ("sequential", "latent = sequential")):
            text = SMALL_CONFIG.replace("n = 9", "n = 10").replace("latent = sequential", latent)
            path = tmp_path / f"{name}.cfg"
            path.write_text(text)
            paths.append(str(path))
        return paths

    def test_sweep(self, tmp_path, capsys):
        outputs = []
        for name, cfg in zip(("grid", "sequential"), self.configs(tmp_path)):
            assert main(["sweep", "--config", cfg, "--out-dir", str(tmp_path / name)]) == 0
            # past the two provenance lines, whose config hash names the latent
            outputs.append([(tmp_path / name / f).read_text().splitlines()[2:]
                            for f in ("sweep.csv", "episodes.csv")])
        assert outputs[0] == outputs[1]
        assert len(outputs[0][1]) == 1 + 2 * 3

    def test_execute(self, tmp_path, capsys):
        grid, sequential = self.configs(tmp_path)
        qpath = tmp_path / "q.bin"
        assert main(["train", "--config", grid, "--kappa", "3", "--out", str(qpath)]) == 0
        rows = []
        for name, cfg in (("grid", grid), ("sequential", sequential)):
            out = tmp_path / f"{name}.csv"
            assert main(["execute", "--config", cfg, "--qtable", str(qpath),
                         "--out", str(out)]) == 0
            rows.append(out.read_text().splitlines()[2:])
        assert rows[0] == rows[1] and len(rows[0]) == 1 + 3


class TestDiagnose:
    def test_diagnose_passes(self, tmp_path, capsys):
        code = main(["diagnose", "concentration", "--out-dir", str(tmp_path)])
        assert code == 0
        assert "[PASS] concentration" in capsys.readouterr().out

    def test_diagnose_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        import gmfs.diagnostics as diag

        def fake(cfg=None, **kw):
            return diag.DiagnosticResult("concentration", False,
                                         ("status",), [("fail",)])

        monkeypatch.setitem(diag.SUITES, "concentration", fake)
        code = main(["diagnose", "concentration", "--out-dir", str(tmp_path)])
        assert code == 4

    def test_repeated_suite_exit_code(self, tmp_path, capsys, monkeypatch):
        import gmfs.diagnostics as diag

        def refuse(cfg=None, **kw):
            raise AssertionError("suite ran")

        monkeypatch.setitem(diag.SUITES, "offpolicy", refuse)
        code = main(["diagnose", "offpolicy", "offpolicy", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "none twice" in capsys.readouterr().err


class TestIOErrors:
    """A path that cannot be read or written exits 6 and names the path."""

    def assert_io_error(self, capsys, argv, path):
        capsys.readouterr()
        assert main(argv) == 6
        err = capsys.readouterr().err
        assert err.startswith("I/O error:") and str(path) in err

    def test_missing_qtable(self, tmp_path, capsys):
        path = tmp_path / "nonexistent.bin"
        self.assert_io_error(capsys, ["inspect", str(path)], path)

    def test_missing_config(self, tmp_path, capsys):
        path = tmp_path / "nonexistent.cfg"
        self.assert_io_error(capsys, ["train", "--config", str(path),
                                      "--out", str(tmp_path / "q.bin")], path)

    def test_missing_environment_file(self, tmp_path, capsys):
        path = tmp_path / "nonexistent_env.txt"
        cfg = write_config(tmp_path, SMALL_CONFIG + f"\n[env]\nfile = {path}\n")
        self.assert_io_error(capsys, ["train", "--config", cfg,
                                      "--out", str(tmp_path / "q.bin")], path)

    def test_output_in_missing_directory(self, tmp_path, capsys):
        path = tmp_path / "missing" / "q.bin"
        self.assert_io_error(capsys, ["train", "--config", write_config(tmp_path),
                                      "--kappa", "2", "--out", str(path)], path)

    def test_train_output_directory_is_checked_before_training(self, tmp_path, capsys,
                                                               monkeypatch):
        from gmfs import cli

        def refuse(*args, **kwargs):
            raise AssertionError("training reached")

        monkeypatch.setattr(cli, "train_kappa", refuse)
        path = tmp_path / "missing" / "q.bin"
        self.assert_io_error(capsys, ["train", "--config", write_config(tmp_path),
                                      "--kappa", "2", "--out", str(path)], path)

    def test_execute_output_directory_is_checked_before_evaluating(self, tmp_path, capsys,
                                                                   monkeypatch):
        from gmfs import cli
        from gmfs.bellman import QTable, save_qtable

        def refuse(*args, **kwargs):
            raise AssertionError("evaluation reached")

        monkeypatch.setattr(cli, "evaluate_table", refuse)
        qpath = tmp_path / "q.bin"
        save_qtable(QTable.zeros("marginal", 2, 3, 3, 0.95, env_name="warehouse"), qpath)
        path = tmp_path / "missing" / "e.csv"
        self.assert_io_error(capsys, ["execute", "--config", write_config(tmp_path),
                                      "--qtable", str(qpath), "--out", str(path)], path)


class TestMalformedInit:
    """An [execute] init that names no state, pmf or per-agent state list of
    the warehouse (3 states) and n = 9 agents is a config error, found
    before any training."""

    CASES = {
        "state id out of range": "5",
        "negative state id": "-1",
        "vector of no recognized shape": "0.5 0.5 0.5",
        "pmf with a negative entry": "1.5 -0.5 0",
        "per-agent id out of range": "0 1 2 0 1 2 0 1 3",
    }

    @pytest.mark.parametrize("init", CASES.values(), ids=CASES.keys())
    def test_sweep_refuses_before_training(self, tmp_path, capsys, monkeypatch, init):
        from gmfs import harness

        def refuse(*args, **kwargs):
            raise AssertionError("training reached")

        monkeypatch.setattr(harness, "train_kappa", refuse)
        cfg = write_config(tmp_path, SMALL_CONFIG + f"init = {init}\n")
        assert main(["sweep", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        assert "config error: [execute] init" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("init", CASES.values(), ids=CASES.keys())
    def test_execute_refuses(self, tmp_path, capsys, init):
        from gmfs.bellman import QTable, save_qtable

        qpath = tmp_path / "q.bin"
        save_qtable(QTable.zeros("marginal", 2, 3, 3, 0.95, env_name="warehouse"), qpath)
        cfg = write_config(tmp_path, SMALL_CONFIG + f"init = {init}\n")
        out = tmp_path / "e.csv"
        assert main(["execute", "--config", cfg, "--qtable", str(qpath),
                     "--out", str(out)]) == 2
        assert "config error: [execute] init" in capsys.readouterr().err
        assert not out.exists()

    def test_valid_forms_still_run(self, tmp_path, capsys):
        for init in ("idle", "2", "0.4 0.3 0.3", "0 1 2 0 1 2 0 1 2"):
            cfg = write_config(tmp_path, SMALL_CONFIG.replace("kappa_list = 2 3", "kappa_list = 2")
                               + f"init = {init}\n")
            assert main(["sweep", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 0


class TestMalformedEnvironment:
    """Environment parameters that name no valid environment, or that give
    an invalid pmf at some marginal, and other out-of-range values, exit 2
    before any training, with a message naming the key or the environment
    file line."""

    CONFIG_CASES = {
        "two state values": ("[env]\n", "state_values = 1 2", "state_values"),
        "one state value": ("[env]\n", "state_values = 5", "state_values"),
        "discount above 1": ("[env]\n", "discount = 1.5", "discount"),
        "discount, which sweeps take from gamma": ("[env]\n", "discount = 0.5", "[train] gamma"),
        "base success above 1": ("[env]\n", "base_success = 1.5", "base_success"),
        "negative congestion slope": ("[env]\n", "congestion_slope = -2", "congestion_slope"),
        "negative reward noise": ("[train]\n", "reward_noise = uniform -1", "reward_noise"),
        "negative master seed": ("[system]\n", "master_seed = -1", "master_seed"),
        "master seed past 64 bits": ("[system]\n", f"master_seed = {2**64}", "master_seed"),
    }
    SPEC = ("states 2\nactions 1\ndiscount 0.9\nkernel 0 0 0 : 1.0 0.0\n"
            "kernel 0 0 1 : 0.5 0.5\nkernel 1 0 0 : 0.25 0.75\nkernel 1 0 1 : 0.0 1.0\n")
    FILE_CASES = {
        "discount above 1": (SPEC.replace("discount 0.9", "discount 1.5"), "discount"),
        "kernel row not a pmf": (SPEC.replace("0.25 0.75", "0.25 0.5"), "line 6"),
        "kernel state outside the states": (SPEC + "kernel 7 0 0 : 1.0 0.0\n", "line 8"),
        "reward action outside the actions": (SPEC + "reward 0 1 0 : 1.0\n", "line 8"),
        "repeated kernel line": (SPEC + "kernel 0 0 1 : 0.5 0.5\n", "line 8"),
        "repeated reward line": (SPEC + "reward 0 0 0 : 1.0\nreward 0 0 0 : 5.0\n", "line 9"),
    }

    @staticmethod
    def refuse_training(monkeypatch):
        from gmfs import cli, harness

        def refuse(*args, **kwargs):
            raise AssertionError("training reached")

        monkeypatch.setattr(harness, "train_kappa", refuse)
        monkeypatch.setattr(cli, "train_kappa", refuse)

    def assert_refused(self, tmp_path, capsys, cfg, named):
        for argv in (["train", "--config", cfg, "--out", str(tmp_path / "q.bin")],
                     ["sweep", "--config", cfg, "--out-dir", str(tmp_path / "out")]):
            capsys.readouterr()
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and named in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, line, named", CONFIG_CASES.values(),
                             ids=CONFIG_CASES.keys())
    def test_config_value(self, tmp_path, capsys, monkeypatch, section, line, named):
        self.refuse_training(monkeypatch)
        text = (SMALL_CONFIG.replace(section, f"{section}{line}\n") if section in SMALL_CONFIG
                else SMALL_CONFIG + f"{section}{line}\n")
        self.assert_refused(tmp_path, capsys, write_config(tmp_path, text), named)

    @pytest.mark.parametrize("spec, named", FILE_CASES.values(), ids=FILE_CASES.keys())
    def test_environment_file(self, tmp_path, capsys, monkeypatch, spec, named):
        self.refuse_training(monkeypatch)
        env_file = tmp_path / "env.txt"
        env_file.write_text(spec)
        cfg = write_config(tmp_path, SMALL_CONFIG + f"[env]\nname = toy\nfile = {env_file}\n")
        self.assert_refused(tmp_path, capsys, cfg, named)


class TestMalformedGraphon:
    """[graphon] values that give no interaction weights for the configured
    n agents exit 2, naming [graphon], before any training or evaluation."""

    CASES = {
        "radius outside (0, 1]": (9, "kind = radial\nradius = 1.5"),
        "beta not positive": (9, "kind = expdecay\nbeta = 0\nlatent = sequential"),
        "non-symmetric blocks": (9, "kind = block\nblocks = 0.5 | 0.9 0.2 ; 0.1 0.7\n"
                                    "latent = sequential"),
        "non-square n on the grid": (10, "kind = radial\nradius = 0.3"),
        "non-radial kind on the grid": (9, "kind = expdecay\nbeta = 1.0"),
        "coords for fewer agents than n": (9, "kind = expdecay\nlatent = explicit\n"
                                              "coords = 0.1 0.5 0.9"),
        "unknown kind": (9, "kind = foo\nlatent = sequential"),
    }

    @staticmethod
    def config(tmp_path, n, graphon):
        text = (SMALL_CONFIG.replace("n = 9", f"n = {n}")
                .replace("kind = uniform\nlatent = sequential", graphon))
        return write_config(tmp_path, text)

    @pytest.mark.parametrize("n, graphon", CASES.values(), ids=CASES.keys())
    def test_sweep_refuses_before_training(self, tmp_path, capsys, monkeypatch, n, graphon):
        TestMalformedEnvironment.refuse_training(monkeypatch)
        cfg = self.config(tmp_path, n, graphon)
        assert main(["sweep", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        assert "config error: [graphon]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n, graphon", CASES.values(), ids=CASES.keys())
    def test_execute_refuses(self, tmp_path, capsys, monkeypatch, n, graphon):
        from gmfs import cli
        from gmfs.bellman import QTable, save_qtable

        def refuse(*args, **kwargs):
            raise AssertionError("evaluation reached")

        monkeypatch.setattr(cli, "evaluate_table", refuse)
        qpath = tmp_path / "q.bin"
        save_qtable(QTable.zeros("marginal", 2, 3, 3, 0.95, env_name="warehouse"), qpath)
        out = tmp_path / "e.csv"
        assert main(["execute", "--config", self.config(tmp_path, n, graphon),
                     "--qtable", str(qpath), "--out", str(out)]) == 2
        assert "config error: [graphon]" in capsys.readouterr().err
        assert not out.exists()
