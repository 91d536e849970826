import argparse
import json
import os
from pathlib import Path

import numpy as np
import pytest

from alignlab import ParameterError, load_config, theory
from alignlab.cli import build_parser, main
from alignlab.harness import (
    _STREAM_INIT,
    _STREAM_MC,
    ExperimentConfig,
    _atomic_write,
    _cell,
    _problem_for,
    _state_above_theta_star,
    _stream,
    _stream_int,
    cmd_drift_test,
    cmd_projected_test,
    cmd_report,
    cmd_simulate,
    cmd_sweep_gap,
)
from alignlab.montecarlo import drift_verdicts, projected_verdicts
from alignlab.state import block_stats, random_init, rescale_to_alignment
from alignlab.theory import g_gap, loss_threshold, theta_star

from helpers import random_problem, stop_at_pairs


def csv_rows(rows):
    """Verdict rows as the cells a verdict table writes."""
    return [[_cell(c) for c in row.cells()] for row in rows]


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
def fixa_files(tmp_path):
    """The conftest fixa problem and state as report input files."""
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"lambdas": [2.0, 1.0], "k": 1, "kappa2": [1.0, 1.0]}))
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps({"c": [1.0, 1.0], "t": 0}))
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
        with pytest.raises(ParameterError, match="seeds"):
            load_config(None, {"seeds": [1, -1]})  # SeedSequence takes no negative entropy
        with pytest.raises(ParameterError):
            load_config(None, {"eta": -1.0})
        # z_crit <= 0 or nan would make every verdict significant
        for z_crit in (-1.0, 0.0, float("nan")):
            with pytest.raises(ParameterError, match="z_crit"):
                load_config(None, {"z_crit": z_crit})

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
        out, diverged = cmd_simulate(cfg)
        assert not diverged
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
        out, diverged = cmd_simulate(cfg)
        assert not diverged
        body = (out / "summary.csv").read_text()
        assert "nan" not in body.lower()
        assert "undef" in body

    def test_byte_identical_across_thread_counts(self, tmp_path):
        files = {}
        for threads, sub in (("1", "a"), ("4", "b")):
            cfg = tiny_config(tmp_path / sub, m_list=(8.0, 12.0), seeds=(42, 87))
            os.environ["ALIGNLAB_THREADS"] = threads
            try:
                out, _ = cmd_simulate(cfg)
            finally:
                del os.environ["ALIGNLAB_THREADS"]
            files[sub] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert files["a"] == files["b"]


class TestSweepGap:
    def test_sweep_outputs(self, tmp_path):
        cfg = tiny_config(tmp_path, m_list=(5.0, 20.0), T=400)
        out, diverged = cmd_sweep_gap(cfg)
        assert not diverged
        lines = (out / "alignment_vs_m.csv").read_text().splitlines()
        assert lines[0] == "m,mean,std,theta_inf_prediction"
        assert len(lines) == 3
        fit = (out / "alignment_vs_m_logfit.csv").read_text().splitlines()
        assert fit[0] == "slope,intercept,r2"
        assert (out / "alignment_vs_m.svg").exists()

    def test_duplicate_m_rows_identical(self, tmp_path):
        cfg = tiny_config(tmp_path, m_list=(8.0, 8.0), T=200)
        out, diverged = cmd_sweep_gap(cfg)
        assert not diverged
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
        assert lines[0] == "test,theta,eta,eta_star,predicted,mean,stderr,pairs,z,verdict"
        # 2 targets x 2 factors x 2 quantities
        assert len(lines) == 9
        assert "contradicted" not in (out / "drift_verdicts.csv").read_text()

    def test_rows_equal_separate_per_eta_calls(self, tmp_path, monkeypatch):
        # drift-test draws once per target for all step sizes; each step
        # size's rows must equal a drift_verdicts call at that step size alone
        # with the same seed, stopped at the same look (alone it may settle
        # sooner, never later); eta* itself keeps the shared draw going
        cfg = tiny_config(tmp_path, n_mc=20_001)
        out, _ = cmd_drift_test(cfg, theta_targets=("0.3*ggap",), eta_factors=(0.5, 1.0, 2.0))
        rows = [line.split(",") for line in (out / "drift_verdicts.csv").read_text().splitlines()[1:]]
        m, seed = cfg.m_list[0], cfg.seeds[0]
        spec, noise = _problem_for(cfg, m, seed)
        base = random_init(cfg.d, cfg.init_scale, seed=_stream(seed, m, _STREAM_INIT))
        state = rescale_to_alignment(base, spec, 0.3 * g_gap(spec, noise), which="dominant")
        mc_seed = _stream_int(seed, m, _STREAM_MC, 0)
        pairs = int(rows[0][7])
        assert pairs > 1024 and {int(row[7]) for row in rows} == {pairs}
        etas = [float(row[2]) for row in rows[::2]]
        stats = block_stats(state, spec, noise)
        alone = [drift_verdicts([(state, stats, [eta])], spec, noise, cfg.n_mc, mc_seed, cfg.z_crit) for eta in etas]
        assert all(row.estimate.n <= pairs for call in alone for row in call)
        stop_at_pairs(monkeypatch, pairs)
        expected = []
        for eta in etas:
            expected += csv_rows(drift_verdicts([(state, stats, [eta])], spec, noise, cfg.n_mc, mc_seed, cfg.z_crit))
        assert len(rows) == 6
        assert rows == expected

    def test_rows_equal_separate_calls_per_target(self, tmp_path, monkeypatch):
        # drift-test draws once for every target; each target's rows must
        # equal a drift_verdicts call on that target's state alone with the
        # shared seed, stopped at the same look
        cfg = tiny_config(tmp_path, n_mc=20_001)
        out, _ = cmd_drift_test(cfg, theta_targets=("0.3*ggap", "0.9*ggap", "high"), eta_factors=(0.5, 2.0))
        rows = [line.split(",") for line in (out / "drift_verdicts.csv").read_text().splitlines()[1:]]
        m, seed = cfg.m_list[0], cfg.seeds[0]
        spec, noise = _problem_for(cfg, m, seed)
        base = random_init(cfg.d, cfg.init_scale, seed=_stream(seed, m, _STREAM_INIT))
        states = [rescale_to_alignment(base, spec, f * g_gap(spec, noise), which="dominant") for f in (0.3, 0.9)]
        states.append(_state_above_theta_star(base, spec, noise))
        mc_seed = _stream_int(seed, m, _STREAM_MC, 0)
        stop_at_pairs(monkeypatch, int(rows[0][7]))
        expected = []
        for t_idx, state in enumerate(states):
            etas = [float(row[2]) for row in rows[4 * t_idx : 4 * t_idx + 4 : 2]]
            job = (state, block_stats(state, spec, noise), etas)
            expected += csv_rows(drift_verdicts([job], spec, noise, cfg.n_mc, mc_seed, cfg.z_crit))
        assert len(rows) == 12
        assert rows == expected

    def test_high_target_bisection_stops_at_adjacent_floats(self, tmp_path, monkeypatch):
        # once the bisection interval holds two adjacent floats neither bound
        # can move, so the search stops there instead of running 200 steps
        cfg = tiny_config(tmp_path)
        m, seed = cfg.m_list[0], cfg.seeds[0]
        spec, noise = _problem_for(cfg, m, seed)
        base = random_init(cfg.d, cfg.init_scale, seed=_stream(seed, m, _STREAM_INIT))
        # the search solves the auxiliary quadratic once in theta_star and
        # once per gap evaluation: the two bracket ends, then one per halving
        # of [-40, 40], some 60 of which reach adjacent floats
        solves = []
        root = theory._stable_positive_root
        monkeypatch.setattr(theory, "_stable_positive_root", lambda *a: solves.append(a) or root(*a))
        state = _state_above_theta_star(base, spec, noise)
        assert 50 < len(solves) < 100
        stats = block_stats(state, spec, noise)
        assert stats.theta == pytest.approx(0.5 * (theta_star(stats, spec, noise).theta_star + 1.0), rel=1e-12)

    def test_high_target_meets_its_definition(self):
        # the search reads theta and theta_star off the base state's block
        # energies; the full block_stats of the state it returns must agree
        rng = np.random.default_rng(18)
        for _ in range(20):
            spec, noise, base = random_problem(rng)
            state = _state_above_theta_star(base, spec, noise)
            assert np.array_equal(state.c[: spec.k], base.c[: spec.k])
            stats = block_stats(state, spec, noise)
            assert stats.theta == pytest.approx(0.5 * (theta_star(stats, spec, noise).theta_star + 1.0), rel=1e-12)

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
        assert lines[0] == "test,theta,eta,eta_star,predicted,mean,stderr,pairs,z,verdict"
        assert len(lines) == 7  # 3 states x 2 blocks

    def test_rows_equal_separate_per_block_calls(self, tmp_path, monkeypatch):
        # projected-test draws once for every state and both blocks; each
        # state's rows must equal a projected_verdicts call on that state alone
        # with the same seed, stopped at the same look
        cfg = tiny_config(tmp_path, n_mc=20_001)
        out, _ = cmd_projected_test(cfg, n_states=3)
        rows = [line.split(",") for line in (out / "projected_verdicts.csv").read_text().splitlines()[1:]]
        m, seed = cfg.m_list[0], cfg.seeds[0]
        spec, noise = _problem_for(cfg, m, seed)
        stop_at_pairs(monkeypatch, int(rows[0][7]))
        expected = []
        for i in range(3):
            state = random_init(cfg.d, cfg.init_scale, seed=_stream(seed, m, _STREAM_INIT, i))
            stats = block_stats(state, spec, noise)
            eta = 0.5 * sum(loss_threshold(stats, b) for b in ("D", "B"))
            mc_seed = _stream_int(seed, m, _STREAM_MC, 1000)
            expected += csv_rows(projected_verdicts([(state, stats, eta)], spec, noise, cfg.n_mc, mc_seed, cfg.z_crit))
        assert len(rows) == 6
        assert rows == expected


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

    @pytest.mark.parametrize("eta", ["inf", "1e400", "nan", "0", "-1"])
    def test_report_eta_not_finite_and_positive_is_usage_error(self, eta, fixa_files, capsys):
        problem, state_path = fixa_files
        code = main([
            "report", "--spectrum", str(problem), "--noise", str(problem),
            "--state", str(state_path), "--eta", eta,
        ])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "eta must be finite and > 0" in err

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

    @pytest.mark.parametrize("flags", [[], ["--d", "30"]])
    def test_config_not_an_object_is_usage_error(self, flags, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('["d"]')
        err = self._usage_error(["print-config", "--config", str(bad), *flags], capsys)
        assert f"{bad}: config document must be a JSON object" in err

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

    # 5000 digits: more than int() converts
    @pytest.mark.parametrize("threads", ["abc", "0", "-2", "1.5", pytest.param("1" * 5000, id="5000-digits")])
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

    def test_negative_t_start_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "runs"
        err = self._usage_error([*self.SIM_ARGS, "--m", "8", "--t-start", "-10", "--out", str(out)], capsys)
        assert "T_start=-10" in err
        assert not out.exists()

    # 1e-300: (1 - eta lambda_1)^2 rounds to 1 and t_star has 303 digits;
    # 3e-307: t_star passes the float range; 2e-307: delta's denominator does
    @pytest.mark.parametrize("eta, defined", [("1e-300", True), ("3e-307", False), ("2e-307", False)])
    def test_tiny_step_size_runs_cleanly(self, eta, defined, tmp_path, capsys):
        out = tmp_path / "runs"
        argv = ["simulate", "--d", "24", "--k", "4", "--eta", eta, "--steps", "50", "--m", "5", "--seed", "1"]
        assert main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        t_star = (out / "summary.csv").read_text().splitlines()[1].split(",")[2]
        assert t_star.isdigit() if defined else t_star == "undef"

    def test_set_up_overflow_is_one_divergence_line(self, tmp_path, capsys):
        out = tmp_path / "runs"
        argv = ["simulate", "--d", "24", "--k", "4", "--steps", "50", "--m", "1e308", "--seed", "1"]
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == ["simulate: job (m=1e+308, seed=1) diverged at step 1"]

    DRIFT_ARGS = ["drift-test", "--d", "24", "--k", "4", "--m", "8", "--eta", "0.02", "--seed", "42", "--n-mc", "5000"]

    @pytest.mark.parametrize("flags, detail", [
        (["--theta-target", "bogus"], "theta target must be"),
        (["--eta-factor", "0"], "eta factors must be > 0"),
        (["--eta-factor", "-1"], "eta factors must be > 0"),
        (["--eta-factor", "nan"], "eta factors must be > 0"),
        (["--eta-factor", "inf"], "finite"),
        (["--eta-factor", "1e308"], "closed-form drift at eta="),
    ])
    def test_bad_drift_input_is_usage_error(self, flags, detail, tmp_path, capsys):
        out = tmp_path / "drift"
        err = self._usage_error([*self.DRIFT_ARGS, *flags, "--out", str(out)], capsys)
        assert detail in err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_overflowing_monte_carlo_sums_are_usage_error(self, threads, tmp_path, monkeypatch, capsys):
        # the closed-form drift (~1e202) is finite; the sums of squares are not
        monkeypatch.setenv("ALIGNLAB_THREADS", threads)
        out = tmp_path / "drift"
        argv = ["drift-test", "--d", "24", "--k", "4", "--m", "8", "--n-mc", "1000",
                "--eta-factor", "1e100", "--out", str(out)]
        err = self._usage_error(argv, capsys)
        assert "Monte-Carlo sum of squares is not finite" in err
        assert not out.exists()

    def test_colliding_m_stems_are_usage_error(self, tmp_path, capsys):
        out = tmp_path / "runs"
        argv = [*self.SIM_ARGS, "--m", "100.0001", "--m", "100.0002", "--out", str(out)]
        err = self._usage_error(argv, capsys)
        assert "'m100'" in err
        assert not out.exists()

    @pytest.mark.parametrize("doc, field", [
        ({"d": "500"}, "'d'"),
        ({"seeds": 42}, "'seeds'"),
        # raw JSON text: numbers that are non-finite or outside the float range
        ('{"top_spread": 1e999}', "'top_spread'"),
        ('{"bulk_range": [0.5, Infinity]}', "'bulk_range'"),
        ('{"m_list": [5, -Infinity]}', "'m_list'"),
        ('{"eta": 1e999}', "'eta'"),
        ('{"z_crit": NaN}', "'z_crit'"),
        pytest.param('{"sigma2": 1' + "0" * 400 + "}", "'sigma2'", id="oversized-int-sigma2"),
    ])
    def test_mistyped_config_field_is_usage_error(self, doc, field, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        err = self._usage_error(["print-config", "--config", str(path)], capsys)
        assert f"config field {field} must be" in err

    def test_d_outside_int64_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"d": 1000000000000000000000, "k": 4}')
        for command in ("print-config", "simulate"):
            err = self._usage_error([command, "--config", str(path), "--out", str(tmp_path / "runs")], capsys)
            assert "config field 'd' must be" in err

    @pytest.mark.skipif(
        not Path("/proc/sys/vm/overcommit_memory").is_file()
        or Path("/proc/sys/vm/overcommit_memory").read_text().strip() == "1",
        reason="needs a kernel that refuses an 8 TiB allocation up front",
    )
    def test_d_too_large_to_allocate_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"d": 1000000000000, "k": 4}')
        err = self._usage_error(["simulate", "--config", str(path), "--out", str(tmp_path / "runs")], capsys)
        assert "Unable to allocate" in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep-gap", "drift-test", "projected-test"])
    def test_failed_command_creates_no_output_directory(self, command, tmp_path, capsys):
        # the bulk range passes config validation and fails when the spectrum
        # is built, after the command has started its work
        path = tmp_path / "cfg.json"
        path.write_text('{"bulk_range": [1.0, 0.5]}')
        argv = [command, "--config", str(path), "--d", "24", "--k", "4", "--steps", "50", "--m", "5", "--m", "8",
                "--n-mc", "1000", "--out"]
        err = self._usage_error([*argv, str(tmp_path / "new" / "runs")], capsys)
        assert "bulk_range" in err
        assert not (tmp_path / "new").exists()
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "notes.txt").write_text("mine")
        self._usage_error([*argv, str(kept)], capsys)
        assert [p.name for p in kept.iterdir()] == ["notes.txt"]

    def test_diverged_job_keeps_the_rest_of_the_grid(self, tmp_path, capsys):
        out = tmp_path / "runs"
        code = main([
            "simulate", "--d", "24", "--k", "4", "--eta", "0.02", "--steps", "300",
            "--m", "5", "--m", "300", "--seed", "1", "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines() == ["simulate: job (m=300, seed=1) diverged at step 204"]
        assert sorted(p.name for p in out.iterdir()) == [
            "alignment_m5_seed1.svg", "loss_m5_seed1.svg", "summary.csv", "traj_m5_seed1.csv",
        ]
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == "m,seed,t_star,theta_inf,late_mean,late_std"
        healthy, diverged = (line.split(",") for line in lines[1:])
        assert healthy[:2] == ["5.0", "1"] and "undef" not in healthy[4:]
        assert diverged[:2] == ["300.0", "1"] and diverged[4:] == ["undef", "undef"]

    def test_diverged_job_keeps_the_rest_of_the_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main([
            "sweep-gap", "--d", "24", "--k", "4", "--eta", "0.02", "--steps", "300",
            "--m", "5", "--m", "300", "--seed", "1", "--seed", "2", "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines() == [
            "sweep-gap: job (m=300, seed=1) diverged at step 204",
            "sweep-gap: job (m=300, seed=2) diverged at step 202",
        ]
        lines = (out / "alignment_vs_m.csv").read_text().splitlines()
        assert lines[0] == "m,mean,std,theta_inf_prediction"
        healthy, diverged = (line.split(",") for line in lines[1:])
        assert healthy[0] == "5.0" and "undef" not in healthy[1:3]
        assert diverged[0] == "300.0" and diverged[1:3] == ["undef", "undef"]
        # one measured m leaves nothing to fit
        assert (out / "alignment_vs_m_logfit.csv").read_text().splitlines()[1] == "undef,undef,undef"
        assert (out / "alignment_vs_m.svg").exists()

    def test_overflowing_start_diverges_instead_of_failing_the_grid(self, tmp_path, capsys):
        # c0^2 overflows: the plan has no t_star and each job diverges at its
        # first step, one stderr line each, and the summary is still written
        out = tmp_path / "runs"
        code = main([*self.SIM_ARGS, "--steps", "100", "--init-scale", "1e200", "--m", "5", "--m", "8",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "simulate: job (m=5, seed=42) diverged at step 1",
            "simulate: job (m=8, seed=42) diverged at step 1",
        ]
        assert [p.name for p in out.iterdir()] == ["summary.csv"]
        for line in (out / "summary.csv").read_text().splitlines()[1:]:
            cells = line.split(",")
            assert cells[2] == "undef" and cells[4:] == ["undef", "undef"]

    def test_projected_test_with_no_state_left_is_usage_error(self, tmp_path, capsys):
        # at this scale every block energy underflows to 0, so every state is
        # skipped and there is nothing to test
        out = tmp_path / "proj"
        argv = ["projected-test", "--d", "24", "--k", "4", "--m", "8", "--n-mc", "1000", "--n-states", "2",
                "--init-scale", "1e-200", "--out", str(out)]
        err = self._usage_error(argv, capsys)
        assert "no state left to test" in err and "a block carries no energy" in err
        assert not out.exists()

    def test_sweep_pools_only_finished_seeds(self, tmp_path, capsys):
        # at this step size m = 300 is unstable for seed 4's spectrum only, so
        # its cells pool seed 1 alone and equal a sweep over seed 1 alone
        grid = ["sweep-gap", "--d", "24", "--k", "4", "--eta", "0.0062", "--steps", "3000", "--m", "5", "--m", "300"]
        assert main([*grid, "--seed", "1", "--seed", "4", "--out", str(tmp_path / "both")]) == 1
        assert capsys.readouterr().err.splitlines() == ["sweep-gap: job (m=300, seed=4) diverged at step 1761"]
        assert main([*grid, "--seed", "1", "--out", str(tmp_path / "one")]) == 0
        both = (tmp_path / "both" / "alignment_vs_m.csv").read_text().splitlines()
        one = (tmp_path / "one" / "alignment_vs_m.csv").read_text().splitlines()
        assert both[2].split(",")[:3] == one[2].split(",")[:3]
        assert "undef" not in both[2]

    def test_malformed_report_input_names_line_and_column(self, fixa_files, tmp_path, capsys):
        problem, state_path = fixa_files
        bad = tmp_path / "bad.json"
        bad.write_text('{"lambdas": [2.0,\n')
        argv = ["report", "--spectrum", str(bad), "--noise", str(problem), "--state", str(state_path), "--eta", "0.1"]
        err = self._usage_error(argv, capsys)
        assert f"{bad}:2:1: " in err

    # each document is a fixa input with one bad value (1e400 parses as inf)
    @pytest.mark.parametrize("role, text, detail", [
        pytest.param("spectrum", '{"lambdas": "abc", "k": 1}', "'lambdas' must be a list", id="lambdas-str"),
        pytest.param("spectrum", '{"lambdas": [4, "x", 1], "k": 1}', "'lambdas' must be a list", id="lambdas-item"),
        pytest.param("spectrum", '{"lambdas": [2, 1], "k": 1e400}', "'k' must be an int64", id="k-inf"),
        pytest.param("spectrum", '{"lambdas": [2, 1], "k": "1"}', "'k' must be an int64", id="k-str"),
        pytest.param("spectrum", '{"lambdas": [2, 1], "k": 1.7}', "'k' must be an int64", id="k-float"),
        pytest.param("spectrum", '{"lambdas": [2, 1], "k": true}', "'k' must be an int64", id="k-bool"),
        pytest.param("spectrum", '[2, 1]', "must be a JSON object", id="array"),
        pytest.param("spectrum", '{"lambdas": [2, 1]}', "missing keys ['k']", id="k-missing"),
        pytest.param("noise", '{"kappa2": {"a": 1}}', "'kappa2' must be a list", id="kappa2-object"),
        pytest.param("noise", '{"kappa2": [1, 1], "s_min": "x"}', "'s_min' must be a finite number", id="s_min-str"),
        pytest.param("state", '{"c": "abc"}', "'c' must be a list", id="c-str"),
        pytest.param("state", '{"c": [1, 1], "t": "x"}', "'t' must be an int64", id="t-str"),
        pytest.param("state", '{"c": [1, 1], "t": 1.5}', "'t' must be an int64", id="t-float"),
    ])
    def test_malformed_report_value_is_usage_error(self, role, text, detail, fixa_files, tmp_path, capsys):
        problem, state_path = fixa_files
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        paths = {"spectrum": problem, "noise": problem, "state": state_path, role: bad}
        argv = ["report", *(arg for r, path in paths.items() for arg in (f"--{r}", str(path))), "--eta", "0.1"]
        err = self._usage_error(argv, capsys)
        assert f"{bad}: {role}" in err and detail in err

    # with filterwarnings = error, a numpy overflow warning would raise out
    # of main instead of leaving the one stderr line
    @pytest.mark.parametrize("problem, detail", [
        pytest.param({"lambdas": [1e-300, 1e-301], "k": 1, "kappa2": [1, 1]}, "rounds to 0", id="squares-underflow"),
        # no bulk noise, so theta_star is skipped and eta_star_lower_bound is reached
        pytest.param({"lambdas": [1e-100, 1e-170], "k": 1, "kappa2": [1, 0]}, "rounds to 0", id="min-square-underflow"),
        pytest.param({"lambdas": [1e300, 1], "k": 1, "kappa2": [1, 1]}, "float range", id="lambdas-overflow"),
        pytest.param({"lambdas": [2, 1], "k": 1, "kappa2": [1e308, 1e308]}, "float range", id="kappa2-overflow"),
    ])
    def test_report_past_the_float_range_is_usage_error(self, problem, detail, fixa_files, tmp_path, capsys):
        _, state_path = fixa_files
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(problem))
        argv = ["report", "--spectrum", str(bad), "--noise", str(bad), "--state", str(state_path), "--eta", "0.1"]
        assert detail in self._usage_error(argv, capsys)

    def test_drift_test_on_underflowing_squares_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bulk_range": [1e-200, 1e-200]}))
        out = tmp_path / "drift"
        argv = [*self.DRIFT_ARGS, "--config", str(config), "--out", str(out)]
        assert "rounds to 0" in self._usage_error(argv, capsys)
        assert not out.exists()

    def test_verdicts_past_the_first_look_equal_across_threads(self, tmp_path, monkeypatch):
        # at 0.98 eta* the f drift is small enough that the draw stops at the
        # 8192-pair look, whose batches 3 and 4 run together on the pool
        argv = ["drift-test", "--d", "24", "--k", "4", "--m", "8", "--seed", "3", "--n-mc", "20001",
                "--theta-target", "0.3*ggap", "--eta-factor", "0.98"]
        tables = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("ALIGNLAB_THREADS", threads)
            out = tmp_path / threads
            assert main([*argv, "--out", str(out)]) == 0
            tables.append((out / "drift_verdicts.csv").read_bytes())
        assert tables[0] == tables[1] == tables[2]
        pairs = {line.split(b",")[7] for line in tables[0].splitlines()[1:]}
        assert pairs == {b"8192"}

    # the flags of every subcommand, as (option strings, dest)
    CONFIG_FLAGS = [
        (("-h", "--help"), "help"), (("--config",), "config"), (("--d",), "d"), (("--k",), "k"),
        (("--m",), "m_list"), (("--eta",), "eta"), (("--steps",), "T"), (("--sigma2",), "sigma2"),
        (("--init-scale",), "init_scale"), (("--seed",), "seeds"), (("--n-mc",), "n_mc"),
        (("--record-every",), "record_every"), (("--t-start",), "T_start"), (("--out",), "output_dir"),
        (("--print-config",), "print_config"),
    ]
    SUBCOMMAND_FLAGS = {
        "simulate": CONFIG_FLAGS,
        "sweep-gap": CONFIG_FLAGS,
        "drift-test": [*CONFIG_FLAGS, (("--theta-target",), "theta_targets"), (("--eta-factor",), "eta_factors")],
        "projected-test": [*CONFIG_FLAGS, (("--n-states",), "n_states")],
        "print-config": CONFIG_FLAGS,
        "report": [(("-h", "--help"), "help"), (("--spectrum",), "spectrum"), (("--noise",), "noise"),
                   (("--state",), "state"), (("--eta",), "eta")],
    }

    def test_subcommand_flags(self):
        (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        flags = {
            name: [(tuple(action.option_strings), action.dest) for action in parser._actions]
            for name, parser in subparsers.choices.items()
        }
        assert flags == self.SUBCOMMAND_FLAGS

    @pytest.mark.parametrize("command", ["print-config", "simulate"])
    def test_k_not_below_d_is_usage_error(self, command, tmp_path, capsys):
        out = tmp_path / "runs"
        err = self._usage_error([command, "--d", "10", "--k", "10", "--m", "8", "--out", str(out)], capsys)
        assert "k=10 must be < d=10" in err
        assert not out.exists()
