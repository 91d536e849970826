import _pyio
import argparse
import dataclasses
import io
import json
import os
import subprocess
import sys
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from alignlab import (
    ConstructionError,
    NoiseProfile,
    ParameterError,
    Spectrum,
    State,
    build_spectrum,
    load_config,
    svgplot,
    theory,
)
from alignlab.cli import build_parser, main
from alignlab.harness import (
    _STREAM_INIT,
    _STREAM_MC,
    ExperimentConfig,
    _cell,
    _problem_for,
    _state_above_theta_star,
    _stream,
    _stream_int,
    _write,
    cmd_drift_test,
    cmd_projected_test,
    cmd_report,
    cmd_simulate,
    cmd_sweep_gap,
)
from alignlab.montecarlo import drift_verdicts, projected_verdicts
from alignlab.state import block_stats, random_init, rescale_to_alignment
from alignlab.theory import g_gap, loss_threshold, theta_star

from helpers import decimal_aux_root, random_problem, stop_at_pairs


def strict_json(text):
    """The JSON document text, rejecting Infinity and NaN, which strict JSON
    does not have."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


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

    # a config built in Python passes the same kind checks as one read from JSON
    @pytest.mark.parametrize("field, value", [
        ("seeds", (1.5,)),
        ("seeds", (True,)),
        ("d", 24.0),
        ("m_list", 8.0),
    ])
    def test_python_built_config_is_kind_checked(self, field, value):
        with pytest.raises(ParameterError, match=f"config field '{field}' must be"):
            ExperimentConfig(**{field: value})

    def test_numpy_integer_seed_builds(self):
        cfg = ExperimentConfig(seeds=(np.int64(3),))
        assert cfg.seeds == (3,) and type(cfg.seeds[0]) is int

    def test_fields_are_stored_in_one_normal_form(self):
        cfg = ExperimentConfig(m_list=[8], eta=1, bulk_range=[1, 2], seeds=[5])
        assert cfg == ExperimentConfig(m_list=(8.0,), eta=1.0, bulk_range=(1.0, 2.0), seeds=(5,))
        assert type(cfg.m_list[0]) is float and type(cfg.eta) is float

    def test_frozen(self):
        cfg = ExperimentConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.d = 24

    def test_repeated_seed_refused(self):
        with pytest.raises(ParameterError, match="seeds must not repeat"):
            ExperimentConfig(seeds=(1, 2, 1))


class TestAtomicWrite:
    def test_failed_writer_leaves_no_part_file(self, tmp_path, monkeypatch):
        target = tmp_path / "table.csv"
        target.write_text("old\n")

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            _write(target, "new\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]
        assert target.read_bytes() == b"old\n"

    def test_text_is_written_as_utf8(self, tmp_path):
        target = tmp_path / "new" / "t.csv"
        _write(target, "θ,η\r\n")
        assert target.read_bytes() == "θ,η\r\n".encode("utf-8")


class TestSvgBytes:
    def test_no_newline_translation(self, tmp_path, monkeypatch):
        # _pyio's text files read os.linesep, as io's do on a platform whose
        # line separator it is; pathlib opens its files through io.open
        monkeypatch.setattr(os, "linesep", "\r\n")
        monkeypatch.setattr(io, "open", _pyio.open)
        path = tmp_path / "plot.svg"
        _write(path, svgplot.line_plot([([1.0, 2.0, 3.0], [0.5, 0.2, 0.1], "a")], title="t", xlog=True))
        data = path.read_bytes()
        assert b"\n" in data and b"\r" not in data

    def test_line_plot_returns_text_and_writes_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        text = svgplot.line_plot([([1.0, 2.0, 3.0], [0.5, 0.2, 0.1], "a")], title="t", ylog=True)
        assert isinstance(text, str)
        assert text.startswith("<svg ") and text.endswith("</svg>\n") and not text.endswith("\n\n")
        assert list(tmp_path.iterdir()) == []


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

    def test_trajectory_csv_bytes(self, tmp_path):
        # two equal runs write equal bytes: repr floats, CRLF line ends
        data = [
            (cmd_simulate(tiny_config(tmp_path / sub))[0] / "traj_m8_seed42.csv").read_bytes() for sub in ("a", "b")
        ]
        assert data[0] == data[1]
        lines = data[0].split(b"\r\n")
        assert lines[0] == b"step,theta,loss"
        assert lines[-1] == b"" and len(lines) == 33
        assert not set(b"\r\n") & set(data[0].replace(b"\r\n", b""))

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
        state = rescale_to_alignment(base, spec, 0.3 * g_gap(spec, noise))
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
        states = [rescale_to_alignment(base, spec, f * g_gap(spec, noise)) for f in (0.3, 0.9)]
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

    def test_high_target_meets_its_definition(self):
        # the scale factor comes from the base state's block energies alone;
        # the full block_stats of the state it returns must agree
        rng = np.random.default_rng(18)
        for _ in range(20):
            spec, noise, base = random_problem(rng)
            state = _state_above_theta_star(base, spec, noise)
            assert np.array_equal(state.c[: spec.k], base.c[: spec.k])
            stats = block_stats(state, spec, noise)
            assert stats.theta == pytest.approx(0.5 * (theta_star(stats, spec, noise).theta_star + 1.0), rel=1e-12)

    @pytest.mark.parametrize("degenerate", [False, True])
    def test_high_target_is_the_root_of_the_scaled_quadratic(self, degenerate):
        # s_D/s_B = 1 + u, u the positive root of theta_star's auxiliary
        # quadratic with the weights (a_aux, 2 s_D spread2, 2 h_aux), solved
        # to 60 digits from the base state's weights
        rng = np.random.default_rng(25)
        for _ in range(200):
            spec, noise, base = random_problem(rng, degenerate_blocks=degenerate)
            stats = block_stats(base, spec, noise)
            rt = theta_star(stats, spec, noise)
            high = block_stats(_state_above_theta_star(base, spec, noise), spec, noise)
            with localcontext(prec=60):
                exact = 1 + decimal_aux_root(rt.a_aux, 2 * stats.s_d * spec.spread2, 2 * rt.h_aux)
                assert abs(Decimal(high.s_d) / Decimal(high.s_b) / exact - 1) <= Decimal("1e-14")

    @pytest.mark.parametrize("empty", [slice(None, 3), slice(3, None)], ids=["dominant", "bulk"])
    def test_high_target_needs_both_blocks(self, empty):
        spec = build_spectrum(12, 3, 8.0, (0.5, 1.0), seed=5)
        c = random_init(12, 1.0, seed=6).c.copy()
        c[empty] = 0.0
        with pytest.raises(ConstructionError, match="both blocks must be nonzero"):
            _state_above_theta_star(State(c=c), spec, NoiseProfile(kappa2=np.ones(12)))

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
            expected += csv_rows(projected_verdicts([(stats, eta)], spec, noise, cfg.n_mc, mc_seed, cfg.z_crit))
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

    @pytest.mark.parametrize("flags, doc", [
        (["--d", "64", "--k", "8", "--m", "5", "--seed", "3"], None),
        ([], {"d": 30, "k": 3, "m_list": [8, 20], "eta": 1, "sigma2": 2, "bulk_range": [1, 2], "T": 7}),
    ], ids=["flags", "json"])
    def test_print_config_is_a_fixed_point(self, flags, doc, tmp_path, capsys):
        # print-config's output, fed back as --config, prints the same bytes
        if doc is not None:
            first = tmp_path / "first.json"
            first.write_text(json.dumps(doc))
            flags = ["--config", str(first)]
        assert main(["print-config", *flags]) == 0
        printed = capsys.readouterr().out
        again = tmp_path / "again.json"
        again.write_text(printed)
        assert main(["print-config", "--config", str(again)]) == 0
        assert capsys.readouterr().out == printed

    def test_integer_m_in_a_config_file_writes_the_flag_bytes(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"m_list": [8], "eta": 0.02, "T": 200, "seeds": [42]}))
        flags = ["--m", "8", "--eta", "0.02", "--steps", "200", "--seed", "42"]
        written = {}
        for name, given in (("file", ["--config", str(path)]), ("flags", flags)):
            out = tmp_path / name
            assert main(["simulate", "--d", "24", "--k", "4", *given, "--out", str(out)]) == 0
            written[name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert len(written["file"]) == 4
        assert written["file"] == written["flags"]

    @pytest.mark.parametrize("command", ["simulate", "sweep-gap"])
    def test_repeated_seed_is_usage_error(self, command, tmp_path, capsys):
        # a repeated seed would run its jobs again, and count twice in a pooled mean
        out = tmp_path / "runs"
        argv = [command, "--d", "24", "--k", "4", "--eta", "0.02", "--steps", "200", "--m", "8", "--m", "20",
                "--seed", "1", "--seed", "1", "--out", str(out)]
        assert "seeds must not repeat, got [1, 1]" in self._usage_error(argv, capsys)
        assert not out.exists()

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

    @pytest.mark.parametrize("command", ["print-config", "simulate"])
    def test_config_not_utf8_is_usage_error(self, command, tmp_path, capsys):
        bad, out = tmp_path / "bad.json", tmp_path / "out"
        bad.write_bytes(b'\xff\xfe{"d": 5}')
        err = self._usage_error([command, "--config", str(bad), "--out", str(out)], capsys)
        assert f"{bad}: not UTF-8 text" in err
        assert not out.exists()

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

    def test_n_states_past_int64_is_usage_error(self, tmp_path, capsys):
        # checked like every integer config field, before any state is drawn
        out = tmp_path / "projected"
        argv = ["projected-test", "--d", "24", "--k", "4", "--m", "5", "--seed", "1",
                "--n-states", str(10**20), "--out", str(out)]
        assert "n_states must be an int64 integer" in self._usage_error(argv, capsys)
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

    def test_repeated_m_is_usage_error(self, tmp_path, capsys):
        # a repeated m would run its jobs again and write their files twice
        out = tmp_path / "runs"
        err = self._usage_error([*self.SIM_ARGS, "--m", "8", "--m", "20", "--m", "8", "--out", str(out)], capsys)
        assert "m values 8.0 and 8.0 would share the output file stem 'm8'" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["drift-test", "projected-test"])
    def test_verdict_preset_names_the_problem_it_runs(self, command, tmp_path, capsys):
        argv = [command, "--d", "24", "--k", "4", "--n-mc", "2000", "--m", "8", "--seed", "3"]
        assert main([*argv, "--out", str(tmp_path / "one")]) == 0
        assert capsys.readouterr().err == ""
        assert main([*argv, "--m", "20", "--seed", "4", "--seed", "5", "--out", str(tmp_path / "more")]) == 0
        err = capsys.readouterr().err
        assert err == f"{command}: ran m=8 and seed 3 only, the first of 2 m values and 3 seeds\n"
        # the line changes no output byte
        (name,) = [p.name for p in (tmp_path / "one").iterdir()]
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "more" / name).read_bytes()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--eta", "0.02", "--steps", "200", "--m", "8"],
        ["sweep-gap", "--eta", "0.02", "--steps", "200", "--m", "5", "--m", "20"],
        ["drift-test", "--n-mc", "2000", "--m", "8"],
        ["projected-test", "--n-mc", "2000", "--m", "8"],
    ], ids=lambda argv: argv[0])
    def test_preset_writes_its_bytes_whatever_the_locale_encoding(self, argv, tmp_path):
        # every output file is written as UTF-8 bytes, so a run in which a
        # locale-dependent text file raises writes what the in-process run writes
        argv = [*argv, "--d", "24", "--k", "4", "--seed", "42", "--out"]
        assert main([*argv, str(tmp_path / "in")]) == 0
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-m", "alignlab.cli",
             *argv, str(tmp_path / "cli")],
            env=env, capture_output=True, encoding="utf-8", timeout=300,
        )
        assert (run.returncode, run.stderr) == (0, "")
        written = {
            name: {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())} for name in ("in", "cli")
        }
        assert written["in"] and written["cli"] == written["in"]

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

    def test_report_input_not_utf8_is_usage_error(self, fixa_files, tmp_path, capsys):
        problem, state_path = fixa_files
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'\xff\xfe{"lambdas": [2.0, 1.0], "k": 1}')
        argv = ["report", "--spectrum", str(bad), "--noise", str(problem), "--state", str(state_path), "--eta", "0.1"]
        assert f"{bad}: not UTF-8 text" in self._usage_error(argv, capsys)

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
        pytest.param("noise", '{"kappa2": [1, 1], "s_mx": 9}', "unknown keys ['s_mx']", id="noise-unknown-key"),
        pytest.param("spectrum", '{"lambdas": [2, 1], "k": 1, "K": 1, "kappa": [1]}', "unknown keys ['K', 'kappa']",
                     id="spectrum-unknown-keys"),
        pytest.param("state", '{"c": [1, 1], "time": 0}', "unknown keys ['time']", id="state-unknown-key"),
        pytest.param("noise", '{"kappa2": {"a": 1}}', "'kappa2' must be a list", id="kappa2-object"),
        pytest.param("noise", '{"kappa2": [1, 1], "s_min": "x"}', "'s_min' must be a finite number", id="s_min-str"),
        pytest.param("state", '{"c": "abc"}', "'c' must be a list", id="c-str"),
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

    def test_report_on_a_tiny_spectrum(self, tmp_path, capsys):
        # the auxiliary quadratic's b is about -2.9e-298: b*b underflows
        # unless the coefficients are scaled before the discriminant
        spectrum, noise, state = (tmp_path / f"{name}.json" for name in ("spectrum", "noise", "state"))
        lambdas = [8e-150, 7e-150, 6e-150, 5e-150] + [1e-150 * (1.0 - 0.03 * i) for i in range(20)]
        spectrum.write_text(json.dumps({"lambdas": lambdas, "k": 4}))
        noise.write_text(json.dumps({"kappa2": [1.0] * 24}))
        state.write_text(json.dumps({"c": [1.0] * 24}))
        argv = ["report", "--spectrum", str(spectrum), "--noise", str(noise), "--state", str(state), "--eta", "1e140"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["theta_star"] == pytest.approx(0.941441270837504, rel=1e-12)

    TINY_LAMBDAS = [8e-160, 7e-160, 6e-160, 5e-160] + [1e-160 * (1.0 - 0.03 * i) for i in range(20)]

    def _tiny_report_argv(self, tmp_path, eta):
        spectrum, noise, state = (tmp_path / f"{name}.json" for name in ("spectrum", "noise", "state"))
        spectrum.write_text(json.dumps({"lambdas": self.TINY_LAMBDAS, "k": 4}))
        noise.write_text(json.dumps({"kappa2": [1.0] * 24}))
        state.write_text(json.dumps({"c": [1.0] * 24}))
        return ["report", "--spectrum", str(spectrum), "--noise", str(noise), "--state", str(state), "--eta", eta]

    def test_report_on_a_tiny_crossover(self, tmp_path, capsys):
        # theta_crit's weights are about 1e-160: its discriminant underflows
        # unless they are scaled before it, as theta_star's are (the step
        # keeps csgd's stationary variances, about eta / lambda, in range)
        lambdas = self.TINY_LAMBDAS
        assert main(self._tiny_report_argv(tmp_path, "1e140")) == 0
        stats = block_stats(State(c=np.ones(24)), Spectrum(lambdas=lambdas, k=4), NoiseProfile(kappa2=np.ones(24)))
        alpha = Decimal(stats.s) * (Decimal(stats.mu_d) - Decimal(stats.mu_b))
        r = decimal_aux_root(stats.n_loss_b, alpha, stats.n_loss_d)
        assert json.loads(capsys.readouterr().out)["theta_crit"] == pytest.approx(float(r / (1 + r)), rel=1e-14)

    def test_report_past_the_stationary_variance_range(self, tmp_path, capsys):
        # at eta = 1e150 csgd's stationary variances, about eta / lambda, pass
        # the float range: the plan is an error entry, with no numpy warning,
        # and the report stays JSON with no Infinity or NaN in it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(self._tiny_report_argv(tmp_path, "1e150")) == 0
        report = strict_json(capsys.readouterr().out)
        assert list(report["csgd"]) == ["error"] and "passes the float range" in report["csgd"]["error"]

    def test_report_delta_on_a_tiny_spectrum(self, tmp_path, capsys):
        # s_max psi_D lam_1^2 and lam_min^2 lam_k^2 (2 gap1 / eta - spread2)
        # both underflow to 0 here, while delta itself, about 3e302, is in
        # range: it is formed from ratios to lam_1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(self._tiny_report_argv(tmp_path, "1e140")) == 0
        delta = strict_json(capsys.readouterr().out)["csgd"]["delta"]
        with localcontext(prec=60):
            lam, eta = [Decimal(x) for x in self.TINY_LAMBDAS], Decimal(1e140)
            gap1, spread2 = lam[3] - lam[4], lam[0] ** 2 - lam[-1] ** 2
            psi_d = sum(x * x for x in lam[:4])
            exact = psi_d * lam[0] ** 2 / (lam[-1] ** 2 * lam[3] ** 2 * (2 * gap1 / eta - spread2))
        assert delta == pytest.approx(float(exact), rel=1e-14)

    def test_report_at_the_gap_cap(self, tmp_path, capsys):
        # the golden report problem at eta = 2 gap1 / spread2 exactly, where
        # delta's denominator is 0: delta is undefined, null in the report
        problem, state = tmp_path / "problem.json", tmp_path / "state.json"
        spec = build_spectrum(24, 4, 8.0, (0.5, 1.0), seed=5)
        problem.write_text(json.dumps({"lambdas": spec.lambdas.tolist(), "k": 4, "kappa2": [1.0] * 24}))
        state.write_text(json.dumps({"c": random_init(24, 3.0, seed=6).c.tolist()}))
        eta = theory._gap_step(spec)
        assert eta == 0.21977893265592469
        argv = ["report", "--spectrum", str(problem), "--noise", str(problem), "--state", str(state)]
        assert main([*argv, "--eta", repr(eta)]) == 0
        csgd = strict_json(capsys.readouterr().out)["csgd"]
        assert csgd["delta"] is None and csgd["t_star"] is None
        assert csgd["assumption_ok"] == {"step_size": False, "init_coords": True, "init_energy": False}

    def test_drift_test_on_underflowing_monte_carlo_squares_is_usage_error(self, tmp_path, capsys):
        # theta_star is found; then the shifted f rows (~1e-298) square to 0
        # while their sum does not, which would read as a zero stderr
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bulk_range": [1e-160, 1e-150]}))
        out = tmp_path / "drift"
        argv = ["drift-test", "--d", "24", "--k", "4", "--seed", "1", "--n-mc", "2000", "--m", "8",
                "--config", str(config), "--out", str(out)]
        assert "sum of squares underflows" in self._usage_error(argv, capsys)
        assert not out.exists()

    def test_drift_test_where_theta_star_rounds_to_one_is_usage_error(self, tmp_path, capsys):
        # at m = 1e50 the auxiliary quadratic's b*b (b ~ -7.9e200) would
        # overflow; its root 6.2e199 is finite, so theta_star rounds to 1 and
        # no state lies above it
        out = tmp_path / "drift"
        argv = ["drift-test", "--d", "24", "--k", "4", "--seed", "1", "--n-mc", "2000", "--m", "1e50",
                "--out", str(out)]
        assert "no bulk rescaling reaches the high-alignment regime" in self._usage_error(argv, capsys)
        assert not out.exists()

    def test_verdicts_past_the_first_look_equal_across_threads(self, tmp_path, monkeypatch):
        # at 0.99 eta* the f drift is too small to decide, so the draw runs to
        # the cap of 15001 pairs, a look whose batches 5 (8192 to 12288 pairs)
        # and 6 (to 15001) run together on the pool
        argv = ["drift-test", "--d", "24", "--k", "4", "--m", "8", "--seed", "3", "--n-mc", "30001",
                "--theta-target", "0.3*ggap", "--eta-factor", "0.99"]
        tables = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("ALIGNLAB_THREADS", threads)
            out = tmp_path / threads
            assert main([*argv, "--out", str(out)]) == 0
            tables.append((out / "drift_verdicts.csv").read_bytes())
        assert tables[0] == tables[1] == tables[2]
        pairs = {line.split(b",")[7] for line in tables[0].splitlines()[1:]}
        assert pairs == {b"15001"}

    def test_huge_cap_sets_up_like_a_small_one(self, tmp_path):
        # the looks are read off the cap of 5e17 pairs, and every row settles
        # at the first of them
        out = tmp_path / "drift"
        argv = ["drift-test", "--d", "24", "--k", "4", "--m", "8", "--n-mc", str(10**18), "--out", str(out)]
        assert main(argv) == 0
        pairs = {line.split(",")[7] for line in (out / "drift_verdicts.csv").read_text().splitlines()[1:]}
        assert pairs == {"512"}

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_benchmark_presets_settle_at_the_first_look(self, seed, tmp_path):
        # the verdict presets at perfbench's verdicts config: every row is
        # decided or band-settled after the first look's 512 pairs
        common = ["--seed", str(seed), "--n-mc", "16384"]
        presets = {
            "drift_verdicts.csv": ["drift-test", "--d", "500", "--k", "50", "--m", "20", *common],
            "projected_verdicts.csv": ["projected-test", "--d", "60", "--k", "6", "--m", "8", "--n-states", "10",
                                       *common],
        }
        for name, argv in presets.items():
            out = tmp_path / name
            assert main([*argv, "--out", str(out)]) == 0
            rows = [line.split(",") for line in (out / name).read_text().splitlines()[1:]]
            assert rows and {row[7] for row in rows} == {"512"}
            assert all(row[9] != "contradicted" for row in rows)

    # each preset's flags, and float-range edges: eigenvalues whose squares
    # (1e200, 1e155) or fourth powers (1e100) pass it, noise and starts near
    # it, and step sizes that diverge at once or underflow the update
    PRESET_ARGS = {
        "simulate": ["simulate", "--steps", "50"],
        "sweep-gap": ["sweep-gap", "--steps", "50", "--m", "5"],
        "drift-test": ["drift-test", "--n-mc", "2000"],
        "projected-test": ["projected-test", "--n-mc", "2000", "--n-states", "2"],
    }
    FLOAT_EDGES = {
        "m1e200-eta1e-210": ["--m", "1e200", "--eta", "1e-210"],
        "m1e308": ["--m", "1e308"],
        "m1e155-eta1e-160": ["--m", "1e155", "--eta", "1e-160"],
        "m1e100-init1e149": ["--m", "1e100", "--init-scale", "1e149"],
        "sigma2-1e300": ["--m", "8", "--sigma2", "1e300"],
        "eta1e300": ["--m", "8", "--eta", "1e300"],
        "bulk1e150": ["--m", "8", "--config", "BULK"],
    }

    @pytest.mark.parametrize("edge", sorted(FLOAT_EDGES))
    @pytest.mark.parametrize("command", sorted(PRESET_ARGS))
    def test_float_range_edge_exits_cleanly(self, command, edge, tmp_path, capsys):
        # exit 0, 1 or 2 with no traceback or warning (both would raise out of
        # main here); exit 2 is one line and writes nothing; no CSV cell is nan
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bulk_range": [1e150, 1e150]}))
        out = tmp_path / "out"
        flags = [str(config) if flag == "BULK" else flag for flag in self.FLOAT_EDGES[edge]]
        argv = [*self.PRESET_ARGS[command], "--d", "24", "--k", "4", "--seed", "1", *flags, "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        assert "Traceback" not in err and "Warning" not in err
        if code == 2:
            assert len(err.splitlines()) == 1 and err.startswith("alignlab: error: ")
            assert not out.exists()
        written = list(out.rglob("*.csv")) if out.exists() else []
        assert not any("nan" in path.read_text() for path in written)

    @pytest.mark.parametrize("argv", [
        ["drift-test", "--d", "24", "--k", "4", "--m", "1e200", "--n-mc", "2000"],
        ["simulate", "--d", "24", "--k", "4", "--m", "1e200", "--eta", "1e-210", "--steps", "50", "--seed", "1"],
        ["sweep-gap", "--d", "24", "--k", "4", "--m", "5", "--m", "1e200", "--eta", "1e-210", "--steps", "50",
         "--seed", "1"],
    ], ids=["drift-test", "simulate", "sweep-gap"])
    def test_squares_past_the_float_range_are_usage_error(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert "float range" in self._usage_error([*argv, "--out", str(out)], capsys)
        assert not out.exists()

    # the flags of every subcommand, as (option strings, dest)
    CONFIG_FLAGS = [
        (("-h", "--help"), "help"), (("--config",), "config"), (("--d",), "d"), (("--k",), "k"),
        (("--m",), "m_list"), (("--eta",), "eta"), (("--steps",), "T"), (("--sigma2",), "sigma2"),
        (("--init-scale",), "init_scale"), (("--seed",), "seeds"), (("--n-mc",), "n_mc"),
        (("--record-every",), "record_every"), (("--t-start",), "T_start"), (("--out",), "output_dir"),
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
