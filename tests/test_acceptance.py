"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -v -s` to stream them).

Shared random families:
  * general triples: spread eigenvalue blocks, isotropic or per-direction
    noise, Gaussian states (helpers.random_problem);
  * degenerate-block triples: every dominant eigenvalue equals lambda_k and
    every bulk eigenvalue equals lambda_{k+1} -- the family on which the
    stated upper-bound and crossover-rate inequalities are provable (their
    derivations need the block third-over-second moments to collapse to
    lambda_k and lambda_{k+1}; with spread blocks the inequalities genuinely
    fail, so the families below are the honest scope of those claims).
"""

import csv
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from alignlab import (
    State,
    block_stats,
    build_spectrum,
    crossover,
    crossover_gap_bounds,
    csgd_plan,
    drift_quadratic,
    eta_star_lower_bound,
    eta_star_upper_bound,
    expected_drift,
    expected_next_block_energy,
    expected_second_moment,
    g_gap,
    isotropic_noise,
    loss_threshold,
    one_step_estimates,
    projected_verdicts,
    random_init,
    rescale_to_alignment,
    run_trajectory,
    theta_star,
    theta_star_rate_fit,
)
from alignlab.harness import ExperimentConfig, cmd_drift_test, cmd_simulate

from helpers import random_problem


def report(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{tag}: {detail}"


@pytest.fixture(scope="module")
def one_step_sweep():
    """1000 random triples at d in {10, 50, 200}: Monte-Carlo one-step
    estimates (n = 1e5, shared draws across the three step sizes) next to the
    exact conditional expectations. Feeds criteria 1 and 2."""
    rng = np.random.default_rng(20260811)
    f_viol = 0
    energy_viol = 0
    comparisons = 0
    grid_from_eta_star = 0
    t0 = time.time()
    for _ in range(1000):
        spec, noise, state = random_problem(rng)
        stats = block_stats(state, spec, noise)
        dq = drift_quadratic(stats)
        if dq.eta_star is not None and dq.eta_star > 0:
            etas = [0.1 * dq.eta_star, dq.eta_star, 3.0 * dq.eta_star]
            grid_from_eta_star += 1
        else:
            ref = 2.0 * spec.gap1 / (spec.lambda_max**2 - spec.lambda_min**2)
            etas = [0.1 * ref, ref, 3.0 * ref]
        out = one_step_estimates(state, spec, noise, etas, 100_000, seed=int(rng.integers(2**31)))
        for eta in etas:
            est = out[eta]
            comparisons += 1
            if abs(est["f"].mean - expected_drift(dq, eta)) > 5.0 * est["f"].stderr:
                f_viol += 1
            for blk, key in (("D", "sD_next"), ("B", "sB_next")):
                target = expected_next_block_energy(stats, eta, blk)
                if abs(est[key].mean - target) > 5.0 * est[key].stderr:
                    energy_viol += 1
    return {
        "f_viol": f_viol,
        "energy_viol": energy_viol,
        "comparisons": comparisons,
        "eta_star_grids": grid_from_eta_star,
        "wall": time.time() - t0,
    }


def test_c01_exact_drift_identity(one_step_sweep):
    s = one_step_sweep
    ok = s["f_viol"] == 0 and s["wall"] < 600.0
    report(
        "AC1",
        ok,
        f"E[f] within 5*stderr of p*eta^2+q*eta in {s['comparisons']}/{s['comparisons']} "
        f"comparisons over 1000 triples ({s['eta_star_grids']} eta*-grids), "
        f"{s['f_viol']} violations, {s['wall']:.0f}s (< 600s)",
    )


def test_c02_block_energy_oracle(one_step_sweep):
    s = one_step_sweep
    report(
        "AC2",
        s["energy_viol"] == 0,
        f"E[s_next] per block within 5*stderr of the closed form on the same "
        f"triples, {s['energy_viol']} violations in {2 * s['comparisons']} comparisons",
    )


def test_c03_regime_sign_tests(tmp_path):
    cfg = ExperimentConfig(
        d=500, k=50, m_list=(20.0,), eta=0.003, T=100, sigma2=1.0, init_scale=1.0,
        seeds=(42,), n_mc=100_000, record_every=10, output_dir=str(tmp_path / "drift"),
        z_crit=5.0,
    )
    out, contradicted = cmd_drift_test(
        cfg, theta_targets=("0.3*ggap", "0.9*ggap", "high"), eta_factors=(0.5, 2.0)
    )
    rows = list(csv.DictReader(open(out / "drift_verdicts.csv")))
    f_rows = [r for r in rows if r["test"] == "f_drift"]
    t_rows = [r for r in rows if r["test"] == "theta_drift"]
    f_bad = [r for r in f_rows if r["verdict"] == "contradicted"]
    t_bad = [r for r in t_rows if r["verdict"] == "contradicted"]
    f_confirmed = sum(r["verdict"] == "confirmed" for r in f_rows)
    ok = not contradicted and not f_bad and not t_bad and len(f_rows) == 6
    report(
        "AC3",
        ok,
        f"drift-test at d=500, theta in {{0.3g, 0.9g, (theta*+1)/2}} x eta in "
        f"{{0.5, 2}}*eta*: {f_confirmed}/6 f-drift confirmed, 0 contradicted "
        f"(theta-drift slack 5*stderr+0.005)",
    )


def test_c04_threshold_ordering():
    rng = np.random.default_rng(4)
    violations = 0
    for _ in range(10_000):
        spec, noise, state = random_problem(rng)
        rt = theta_star(block_stats(state, spec, noise), spec, noise)
        if not rt.g_gap < rt.theta_star:
            violations += 1
    report("AC4", violations == 0, f"g_gap < theta_star on 10^4 random triples, {violations} violations")


def test_c05_eta_star_bounds(fixa):
    rng = np.random.default_rng(5)
    violations = 0
    lower_checked = upper_checked = 0
    for _ in range(10_000):
        spec, noise, state = random_problem(rng, degenerate_blocks=True, dominant_noise_only=True)
        stats = block_stats(state, spec, noise)
        dq = drift_quadratic(stats)
        if dq.p > 0:
            if eta_star_lower_bound(stats, spec, noise, state.norm2) > dq.eta_star * (1 + 1e-12):
                violations += 1
            lower_checked += 1
            upper = eta_star_upper_bound(stats, spec)
            if upper is None or dq.eta_star > upper * (1 + 1e-12):
                violations += 1
            upper_checked += 1
    spec, noise, state = fixa
    stats = block_stats(state, spec, noise)
    dq = drift_quadratic(stats)
    upper = eta_star_upper_bound(stats, spec)
    fixa_ok = (
        dq.eta_star == pytest.approx(2.0 / 3.0, rel=1e-12)
        and upper == pytest.approx(2.0 / 3.0, rel=1e-12)
        and eta_star_lower_bound(stats, spec, noise, state.norm2) <= dq.eta_star
    )
    report(
        "AC5",
        violations == 0 and fixa_ok,
        f"bounds bracket eta* on 10^4 triples (lower checked {lower_checked}, "
        f"upper {upper_checked}, {violations} violations); fixture eta* = 2/3 "
        f"with tight upper bound 2/3",
    )


def test_c06_crossover(fixa):
    rng = np.random.default_rng(6)
    sign_viol = bound_viol = 0
    for _ in range(10_000):
        spec, noise, state = random_problem(rng, degenerate_blocks=True)
        stats = block_stats(state, spec, noise)
        cq = crossover(stats)
        diff = loss_threshold(stats, "D") - loss_threshold(stats, "B")
        if math.copysign(1.0, diff) != math.copysign(1.0, stats.theta - cq.theta_crit):
            sign_viol += 1
        lo, hi = crossover_gap_bounds(stats, spec)
        if not (lo <= cq.theta_crit_gap <= hi):
            bound_viol += 1
    spec, noise, state = fixa
    stats = block_stats(state, spec, noise)
    cq = crossover(stats)
    fixa_ok = (
        abs(cq.theta_crit - (2.0 + math.sqrt(44.0)) / 10.0) <= 1e-9
        and abs(loss_threshold(stats, "D") - 0.8) <= 1e-9
        and abs(loss_threshold(stats, "B") - 1.0) <= 1e-9
    )
    report(
        "AC6",
        sign_viol == 0 and bound_viol == 0 and fixa_ok,
        f"sign(eta_loss_D - eta_loss_B) = sign(theta - theta_crit) exactly and "
        f"the two-sided 1-theta_crit bound holds on 10^4 states "
        f"({sign_viol} sign, {bound_viol} bound violations); fixture values to 1e-9",
    )


def test_c07_projected_loss_reproduction():
    rng = np.random.default_rng(7)
    spec = build_spectrum(60, 6, 8.0, (0.5, 1.0), 0.3, seed=707)
    noise = isotropic_noise(60, 1.0)
    failures = 0
    min_abs_z = math.inf
    for i in range(100):
        state = random_init(60, 1.0, seed=int(rng.integers(2**31)))
        stats = block_stats(state, spec, noise)
        cq = crossover(stats)
        if stats.theta >= cq.theta_crit:
            state = rescale_to_alignment(state, spec, 0.5 * cq.theta_crit, "dominant")
            stats = block_stats(state, spec, noise)
        lo = loss_threshold(stats, "D")
        hi = loss_threshold(stats, "B")
        assert lo < hi  # low-alignment ordering
        eta = 0.5 * (lo + hi)
        seed = int(rng.integers(2**31))
        job = (state, block_stats(state, spec, noise), eta)
        rows = projected_verdicts([job], spec, noise, 50_000, seed, z_crit=3.0)
        for v, want in zip(rows, ("+", "-")):
            min_abs_z = min(min_abs_z, abs(v.z))
            if v.predicted != want or v.verdict != "confirmed" or not v.target_ok:
                failures += 1
    report(
        "AC7",
        failures == 0,
        f"100 low-alignment states at the midpoint step: dominant-projected "
        f"loss up, bulk-projected loss down at 3 sigma, means on closed-form "
        f"targets within 5*stderr ({failures} failures, min |z| = {min_abs_z:.0f})",
    )


def test_c08_csgd_closed_forms(fixa):
    t0 = time.time()
    # (a) per-coordinate second moments against the closed form
    rng = np.random.default_rng(8)
    moment_viol = 0
    for lam, kappa2, eta, c0 in ((2.0, 1.0, 0.1, 1.0), (0.5, 2.0, 0.3, -2.0), (1.0, 0.5, 0.8, 3.0)):
        n = 60_000
        c = np.full(n, c0)
        decay = 1.0 - eta * lam
        checkpoints = {1, 10, 100}
        for t in range(1, 101):
            c = decay * c - eta * math.sqrt(kappa2) * rng.standard_normal(n)
            if t in checkpoints:
                sq = c * c
                target = expected_second_moment(c0, lam, kappa2, eta, t)
                stderr = sq.std(ddof=1) / math.sqrt(n)
                if abs(sq.mean() - target) > 5.0 * stderr:
                    moment_viol += 1

    # (b) the 2-d fixture plan
    spec, noise, state = fixa
    plan = csgd_plan(spec, noise, state, 0.1)
    fixa_ok = plan.t_star == 3 and plan.theta_inf == pytest.approx(0.6785714285714285, abs=1e-5)

    # (c) two-phase run at d=200, k=20, m=50 under the step/init assumptions
    spec200 = build_spectrum(200, 20, 50.0, (0.5, 1.0), 0.2, seed=7)
    noise200 = isotropic_noise(200, 1.0)
    eta = 0.008
    init = random_init(200, 100.0, seed=1)
    plan200 = csgd_plan(spec200, noise200, init, eta)
    assert plan200.flags.all_ok and plan200.t_star and plan200.t_star >= 2
    T, t_start = 4000, 2500
    early = np.empty((64, plan200.t_star + 1))
    late = np.empty(64)
    for i in range(64):
        traj = run_trajectory(spec200, noise200, init, eta, T, 1, seed=10_000 + i)
        early[i] = traj.thetas[: plan200.t_star + 1]
        late[i] = float(np.mean(traj.thetas[traj.times >= t_start]))
    diffs = np.diff(early, axis=1)
    decreasing = all(
        diffs[:, t].mean() <= 2.0 * diffs[:, t].std(ddof=1) / 8.0 for t in range(plan200.t_star)
    )
    late_gap = abs(late.mean() - plan200.theta_inf)
    wall = time.time() - t0
    ok = moment_viol == 0 and fixa_ok and decreasing and late_gap < 0.05 and wall < 600.0
    report(
        "AC8",
        ok,
        f"second moments match at t in {{1,10,100}} ({moment_viol} violations); "
        f"fixture t*=3, theta_inf=0.67857; d=200 run: mean alignment over 64 "
        f"seeds decreasing for all t < t*={plan200.t_star}, late mean within "
        f"{late_gap:.4f} of theta_inf={plan200.theta_inf:.4f}; {wall:.0f}s (< 600s)",
    )


def test_c09_full_scale_reproduction(tmp_path):
    t0 = time.time()
    cfg = ExperimentConfig(
        d=500, k=50, m_list=(5.0, 20.0, 50.0, 200.0), eta=0.003, T=30000,
        sigma2=1.0, init_scale=1.0, seeds=(42,), record_every=10,
        output_dir=str(tmp_path / "sim"),
    )
    out, _ = cmd_simulate(cfg)
    dips_ok = True
    late_means = []
    for m in (5, 20, 50, 200):
        rows = list(csv.DictReader(open(out / f"traj_m{m}_seed42.csv")))
        t = np.array([int(r["step"]) for r in rows])
        th = np.array([float(r["theta"]) for r in rows])
        if not th[t < cfg.T // 10].min() < th[0]:
            dips_ok = False
        late_means.append(float(th[t >= cfg.resolved_t_start].mean()))
    increasing = all(a < b for a, b in zip(late_means, late_means[1:]))
    separated = late_means[-1] - late_means[0] >= 0.05
    wall = time.time() - t0
    ok = dips_ok and increasing and separated and wall < 1800.0
    report(
        "AC9",
        ok,
        f"simulate d=500,k=50,eta=0.003,T=30000,seed=42: initial dip at every "
        f"m, late means {np.round(late_means, 3).tolist()} increasing in m "
        f"with m=200 above m=5 by {late_means[-1] - late_means[0]:.3f} (>= 0.05); "
        f"{wall:.0f}s (< 1800s)",
    )


def test_c10_rate_regressions():
    ms = (5.0, 10.0, 20.0, 50.0, 100.0, 200.0)
    d, k = 60, 6
    noise = isotropic_noise(d, 1.0)
    base = random_init(d, 1.0, seed=10)
    star_sweep = []
    crit_gaps = []
    for m in ms:
        spec = build_spectrum(d, k, m, (1.0, 1.0), 0.0, seed=0)
        # fix the total gradient energy s across the sweep
        w = (spec.lambdas * base.c) ** 2
        state = State(c=base.c * math.sqrt(100.0 / float(np.sum(w))))
        stats = block_stats(state, spec, noise)
        assert stats.s == pytest.approx(100.0, rel=1e-9)
        star_sweep.append((m, theta_star(stats, spec, noise).theta_star))
        crit_gaps.append(crossover(stats).theta_crit_gap)
    star_slope, _ = theta_star_rate_fit(star_sweep)
    crit_slope, _ = np.polyfit(np.log(np.asarray(ms) - 1.0), np.log(crit_gaps), 1)
    ok = -2.5 <= star_slope <= -1.5 and -1.4 <= crit_slope <= -0.6
    report(
        "AC10",
        ok,
        f"closed-form rate fits at fixed s: log(1-theta*) vs log m slope "
        f"{star_slope:.3f} in [-2.5, -1.5]; log(1-theta_crit) vs log(m-1) "
        f"slope {crit_slope:.3f} in [-1.4, -0.6]",
    )


def test_c11_determinism(tmp_path):
    def run(sub, threads):
        cfg = ExperimentConfig(
            d=30, k=5, m_list=(6.0, 15.0), eta=0.02, T=400, sigma2=1.0,
            init_scale=1.0, seeds=(42, 87), n_mc=20_000, record_every=10,
            output_dir=str(tmp_path / sub),
        )
        old = os.environ.get("ALIGNLAB_THREADS")
        os.environ["ALIGNLAB_THREADS"] = threads
        try:
            out, _ = cmd_simulate(cfg)
            cfg2 = ExperimentConfig(
                d=30, k=5, m_list=(6.0,), eta=0.02, T=100, sigma2=1.0,
                init_scale=1.0, seeds=(42,), n_mc=20_000, record_every=10,
                output_dir=str(tmp_path / sub),
            )
            cmd_drift_test(cfg2, theta_targets=("0.3*ggap",), eta_factors=(0.5, 2.0))
        finally:
            if old is None:
                del os.environ["ALIGNLAB_THREADS"]
            else:
                os.environ["ALIGNLAB_THREADS"] = old
        return {p.name: p.read_bytes() for p in sorted(Path(out).iterdir())}

    runs = {name: run(name, threads) for name, threads in (("a", "1"), ("b", "8"), ("c", "3"))}
    ok = runs["a"] == runs["b"] == runs["c"]
    n_files = len(runs["a"])
    report(
        "AC11",
        ok,
        f"byte-identical outputs across repeated runs under ALIGNLAB_THREADS in "
        f"{{1, 8, 3}} ({n_files} files compared, trajectories + verdict tables)",
    )
