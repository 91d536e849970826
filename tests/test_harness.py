import json
import os

import pytest

from alignlab import ParameterError, load_config
from alignlab.cli import main
from alignlab.harness import (
    ExperimentConfig,
    _atomic_write,
    cmd_drift_test,
    cmd_projected_test,
    cmd_report,
    cmd_simulate,
    cmd_sweep_gap,
)
from alignlab.spectrum import write_problem_json
from alignlab.state import state_to_json


def tiny_config(tmp_path, **kw):
    base = dict(
        d=24,
        k=4,
        m_list=(8.0,),
        eta=0.02,
        T=300,
        sigma2=1.0,
        init_scale=1.0,
        seeds=(42,),
        n_mc=2000,
        record_every=10,
        output_dir=str(tmp_path / "out"),
    )
    base.update(kw)
    return ExperimentConfig(**base)


@pytest.fixture
def fixa_files(tmp_path, fixa):
    spec, noise, state = fixa
    problem = tmp_path / "problem.json"
    write_problem_json(problem, spec, noise)
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(state_to_json(state)))
    return problem, state_path


class TestConfig:
    def test_defaults(self):
        cfg = load_config()
        assert cfg.d == 500 and cfg.k == 50
        assert cfg.eta == 0.003 and cfg.T == 30000
        assert cfg.m_list == (5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 300.0, 400.0, 500.0)
        assert cfg.seeds == (42, 87, 568, 1101, 12138, 70425, 4008001)
        assert cfg.resolved_t_start == 15000

    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"d": 100, "k": 10, "eta": 0.01}))
        cfg = load_config(path, {"eta": 0.02, "seeds": [1, 2]})
        assert (cfg.d, cfg.k, cfg.eta) == (100, 10, 0.02)
        assert cfg.seeds == (1, 2)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dd": 100}))
        with pytest.raises(ParameterError):
            load_config(path)

    def test_validation(self):
        with pytest.raises(ParameterError):
            load_config(None, {"m_list": [0.5]})
        with pytest.raises(ParameterError):
            load_config(None, {"seeds": []})
        with pytest.raises(ParameterError):
            load_config(None, {"eta": -1.0})

    def test_parse_error_has_line_context(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        with pytest.raises(ParameterError, match=r":1:"):
            load_config(path)


class TestAtomicWrite:
    def test_failed_writer_leaves_no_part_file(self, tmp_path):
        target = tmp_path / "table.csv"
        target.write_text("old\n")

        def writer(tmp):
            tmp.write_text("half a tab")
            raise RuntimeError("writer failed")

        with pytest.raises(RuntimeError, match="writer failed"):
            _atomic_write(target, writer)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]
        assert target.read_text() == "old\n"


class TestSimulate:
    def test_outputs_and_summary(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = cmd_simulate(cfg)
        assert (out / "traj_m8_seed42.csv").exists()
        assert (out / "alignment_m8_seed42.svg").exists()
        assert (out / "loss_m8_seed42.svg").exists()
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == "m,seed,t_star,theta_inf,late_mean,late_std"
        assert len(lines) == 2
        traj_lines = (out / "traj_m8_seed42.csv").read_text().splitlines()
        assert traj_lines[0] == "step,theta,loss"
        assert traj_lines[1].startswith("0,")
        assert traj_lines[-1].startswith("300,")

    def test_no_nan_cells_and_undef_token(self, tmp_path):
        # eta too large for the assumption caps -> t_star is undefined
        cfg = tiny_config(tmp_path, eta=0.2, m_list=(30.0,), T=100)
        out = cmd_simulate(cfg)
        body = (out / "summary.csv").read_text()
        assert "nan" not in body.lower()
        assert "undef" in body

    def test_byte_identical_across_thread_counts(self, tmp_path):
        files = {}
        for threads, sub in (("1", "a"), ("4", "b")):
            cfg = tiny_config(tmp_path / sub, m_list=(8.0, 12.0), seeds=(42, 87))
            os.environ["ALIGNLAB_THREADS"] = threads
            try:
                out = cmd_simulate(cfg)
            finally:
                del os.environ["ALIGNLAB_THREADS"]
            files[sub] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert files["a"] == files["b"]


class TestSweepGap:
    def test_sweep_outputs(self, tmp_path):
        cfg = tiny_config(tmp_path, m_list=(5.0, 20.0), T=400)
        out = cmd_sweep_gap(cfg)
        lines = (out / "alignment_vs_m.csv").read_text().splitlines()
        assert lines[0] == "m,mean,std,theta_inf_prediction"
        assert len(lines) == 3
        fit = (out / "alignment_vs_m_logfit.csv").read_text().splitlines()
        assert fit[0] == "slope,intercept,r2"
        assert (out / "alignment_vs_m.svg").exists()

    def test_duplicate_m_rows_identical(self, tmp_path):
        cfg = tiny_config(tmp_path, m_list=(8.0, 8.0), T=200)
        out = cmd_sweep_gap(cfg)
        lines = (out / "alignment_vs_m.csv").read_text().splitlines()
        assert lines[1] == lines[2]

    def test_needs_two_points(self, tmp_path):
        with pytest.raises(ParameterError):
            cmd_sweep_gap(tiny_config(tmp_path))


class TestDriftTestCommand:
    def test_verdict_table_and_no_contradiction(self, tmp_path):
        cfg = tiny_config(tmp_path, n_mc=20_000)
        out, contradicted = cmd_drift_test(cfg, theta_targets=("0.3*ggap", "high"), eta_factors=(0.5, 2.0))
        assert not contradicted
        lines = (out / "drift_verdicts.csv").read_text().splitlines()
        assert lines[0] == "test,theta,eta,eta_star,predicted,mean,stderr,z,verdict"
        # 2 targets x 2 factors x 2 quantities
        assert len(lines) == 9
        assert "contradicted" not in (out / "drift_verdicts.csv").read_text()

    def test_absolute_target(self, tmp_path):
        cfg = tiny_config(tmp_path, n_mc=5_000)
        out, contradicted = cmd_drift_test(cfg, theta_targets=(0.4,), eta_factors=(0.5,))
        assert not contradicted
        rows = (out / "drift_verdicts.csv").read_text().splitlines()[1:]
        assert all(row.split(",")[1].startswith("0.4") for row in rows)


class TestProjectedTestCommand:
    def test_runs_clean(self, tmp_path):
        cfg = tiny_config(tmp_path, n_mc=20_000)
        out, failed = cmd_projected_test(cfg, n_states=3)
        assert not failed
        lines = (out / "projected_verdicts.csv").read_text().splitlines()
        assert lines[0] == "test,theta,eta,eta_star,predicted,mean,stderr,z,verdict"
        assert len(lines) == 7  # 3 states x 2 blocks


class TestReport:
    def test_fixture_report(self, fixa_files):
        problem, state_path = fixa_files
        report = cmd_report(problem, problem, state_path, 0.1)
        assert report["eta_star"] == pytest.approx(2.0 / 3.0)
        assert report["g_gap"] == pytest.approx(0.8)
        assert report["theta_star"] == pytest.approx(0.9479696304861925)
        assert report["theta_crit"] == pytest.approx(0.86332495807108)
        assert report["eta_loss_d"] == pytest.approx(0.8)
        assert report["eta_loss_b"] == pytest.approx(1.0)
        assert report["csgd"]["t_star"] == 3
        assert report["csgd"]["theta_inf"] == pytest.approx(0.6785714285714285)

    def test_missing_file_raises(self, fixa_files, tmp_path):
        problem, state_path = fixa_files
        with pytest.raises(OSError):
            cmd_report(tmp_path / "nope.json", problem, state_path, 0.1)


class TestCli:
    def test_report_exit_codes(self, fixa_files, tmp_path, capsys):
        problem, state_path = fixa_files
        code = main([
            "report", "--spectrum", str(problem), "--noise", str(problem),
            "--state", str(state_path), "--eta", "0.1",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["eta_star"] == pytest.approx(2.0 / 3.0)
        code = main([
            "report", "--spectrum", str(tmp_path / "missing.json"), "--noise", str(problem),
            "--state", str(state_path), "--eta", "0.1",
        ])
        assert code == 2

    def test_print_config_roundtrip(self, capsys):
        code = main(["print-config", "--d", "64", "--k", "8", "--m", "5", "--m", "9", "--seed", "3"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["d"] == 64 and doc["k"] == 8
        assert doc["m_list"] == [5.0, 9.0]
        assert doc["seeds"] == [3]

    def test_print_config_flag_short_circuits(self, tmp_path, capsys):
        out_dir = tmp_path / "never"
        code = main(["simulate", "--d", "16", "--k", "2", "--out", str(out_dir), "--print-config"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["d"] == 16
        assert not out_dir.exists()

    def test_simulate_cli(self, tmp_path):
        out = tmp_path / "runs"
        code = main([
            "simulate", "--d", "24", "--k", "4", "--m", "8", "--eta", "0.02",
            "--steps", "200", "--seed", "42", "--out", str(out), "--record-every", "10",
        ])
        assert code == 0
        assert (out / "traj_m8_seed42.csv").exists()

    def test_bad_config_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["simulate", "--config", str(bad)])
        assert code == 2

    def test_drift_test_cli(self, tmp_path):
        out = tmp_path / "drift"
        code = main([
            "drift-test", "--d", "24", "--k", "4", "--m", "8", "--eta", "0.02",
            "--seed", "42", "--n-mc", "5000", "--out", str(out),
            "--theta-target", "0.3*ggap", "--eta-factor", "0.5",
        ])
        assert code == 0
        assert (out / "drift_verdicts.csv").exists()

    SIM_ARGS = ["simulate", "--d", "24", "--k", "4", "--eta", "0.02", "--steps", "200", "--seed", "42"]

    def _usage_error(self, argv, capsys):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("alignlab: error: ")
        return err

    @pytest.mark.parametrize("threads", ["abc", "0", "-2", "1.5"])
    def test_bad_thread_count_is_usage_error(self, threads, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ALIGNLAB_THREADS", threads)
        out = tmp_path / "runs"
        err = self._usage_error([*self.SIM_ARGS, "--m", "8", "--out", str(out)], capsys)
        assert "ALIGNLAB_THREADS" in err
        assert not list(out.glob("traj_*"))

    def test_t_start_not_before_last_step_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "runs"
        err = self._usage_error([*self.SIM_ARGS, "--m", "8", "--t-start", "200", "--out", str(out)], capsys)
        assert "T_start=200" in err
        assert not out.exists()

    def test_colliding_m_stems_are_usage_error(self, tmp_path, capsys):
        out = tmp_path / "runs"
        argv = [*self.SIM_ARGS, "--m", "100.0001", "--m", "100.0002", "--out", str(out)]
        err = self._usage_error(argv, capsys)
        assert "'m100'" in err
        assert not out.exists()
