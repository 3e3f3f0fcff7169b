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
        for bad in ("0..x", "5..2"):
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

    def test_inspect_prints_header(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        qpath = tmp_path / "q.bin"
        main(["train", "--config", cfg, "--kappa", "3", "--out", str(qpath)])
        capsys.readouterr()
        assert main(["inspect", str(qpath)]) == 0
        text = capsys.readouterr().out
        assert "kappa=3" in text and "sup_norm" in text


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
