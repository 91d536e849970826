"""Experiment presets: configuration, deterministic seeding, worker pool, and
the CSV/SVG emitting commands behind the CLI.

Determinism contract: every output file's bytes depend only on (config,
seeds). Jobs fan out over a thread pool capped by ALIGNLAB_THREADS, results
are assembled in job order, and files are written atomically
(write-then-rename), so the pool size never changes the outputs.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import svgplot, theory
from ._pool import run_jobs
from .dynamics import late_phase_statistic, run_trajectory, write_trajectory_csv
from .errors import AlignlabError, ConstructionError, DivergenceError, ParameterError
from .montecarlo import VERDICT_COLUMNS, drift_verdicts, projected_verdicts
from .spectrum import NoiseProfile, Spectrum, build_spectrum, isotropic_noise
from .state import State, block_stats, random_init, rescale_to_alignment

__all__ = [
    "ExperimentConfig",
    "load_config",
    "cmd_simulate",
    "cmd_sweep_gap",
    "cmd_drift_test",
    "cmd_projected_test",
    "cmd_report",
]

DEFAULT_M_LIST = (5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 300.0, 400.0, 500.0)
DEFAULT_SEEDS = (42, 87, 568, 1101, 12138, 70425, 4008001)

# stream labels for deriving independent generators from (seed, m)
_STREAM_SPECTRUM, _STREAM_INIT, _STREAM_TRAJECTORY, _STREAM_MC = range(4)


@dataclass
class ExperimentConfig:
    """Resolved experiment parameters; every CLI flag overrides one field.

    bulk_range and top_spread are conventions (the target setting specifies
    only the gap ratio); top_spread defaults low enough that the default sweep
    up to m = 500 keeps eta * lambda_1 < 2 at eta = 0.003.
    """

    d: int = 500
    k: int = 50
    m_list: tuple = DEFAULT_M_LIST
    eta: float = 0.003
    T: int = 30000
    sigma2: float = 1.0
    init_scale: float = 1.0
    seeds: tuple = DEFAULT_SEEDS
    n_mc: int = 100_000
    record_every: int = 10
    T_start: int | None = None
    output_dir: str = "out"
    bulk_range: tuple = (0.5, 1.0)
    top_spread: float = 0.2
    z_crit: float = 3.0

    def validate(self) -> None:
        if self.d < 2 or self.k < 1 or self.T < 1 or self.record_every < 1 or self.n_mc < 1:
            raise ParameterError("counts must be >= 1 (and d >= 2)")
        if self.k >= self.d:
            raise ParameterError(f"k={self.k} must be < d={self.d}")
        if not self.eta > 0 or not self.sigma2 > 0 or not self.init_scale > 0:
            raise ParameterError("eta, sigma2 and init_scale must be > 0")
        if not self.m_list or any(m <= 1 for m in self.m_list):
            raise ParameterError("m values must be > 1 and non-empty")
        if not self.seeds or min(self.seeds) < 0:
            raise ParameterError("seeds must be non-empty and >= 0")
        if self.T_start is not None and not 0 <= self.T_start < self.T:
            raise ParameterError(f"T_start={self.T_start} must be >= 0 and < T={self.T}")
        if not self.z_crit > 0:
            raise ParameterError(f"z_crit={self.z_crit} must be > 0")

    @property
    def resolved_t_start(self) -> int:
        return self.T // 2 if self.T_start is None else self.T_start

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["m_list"] = list(self.m_list)
        doc["seeds"] = list(self.seeds)
        doc["bulk_range"] = list(self.bulk_range)
        doc["T_start"] = self.resolved_t_start
        return doc


def _is_int(value) -> bool:
    """An int that fits numpy's int64, so no array shape or seed overflows."""
    return isinstance(value, int) and not isinstance(value, bool) and -(2**63) <= value < 2**63


def _is_number(value) -> bool:
    """An int or float within the float range: no bool, inf, nan or
    oversized int (the comparison is exact, so that one cannot overflow)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _list_of(check, length=None):
    return lambda value: (
        isinstance(value, (list, tuple))
        and all(check(v) for v in value)
        and (length is None or len(value) == length)
    )


_INTEGER = (_is_int, "an int64 integer")
_NUMBER = (_is_number, "a finite number")
_NUMBERS = (_list_of(_is_number), "a list of finite numbers")
# (check, description) of the JSON value each config field accepts
_FIELD_TYPES = {
    "d": _INTEGER,
    "k": _INTEGER,
    "m_list": _NUMBERS,
    "eta": _NUMBER,
    "T": _INTEGER,
    "sigma2": _NUMBER,
    "init_scale": _NUMBER,
    "seeds": (_list_of(_is_int), "a list of int64 integers"),
    "n_mc": _INTEGER,
    "record_every": _INTEGER,
    "T_start": (lambda v: v is None or _is_int(v), "an int64 integer or null"),
    "output_dir": (lambda v: isinstance(v, str), "a string"),
    "bulk_range": (_list_of(_is_number, 2), "a list of two finite numbers"),
    "top_spread": _NUMBER,
    "z_crit": _NUMBER,
}
_OPTIONAL_NUMBER = (lambda v: v is None or _is_number(v), "a finite number or null")
# the class each `report` input builds, and the same for each of its fields
_REPORT_INPUTS = {
    "spectrum": (Spectrum, {"lambdas": _NUMBERS, "k": _INTEGER}),
    "noise": (NoiseProfile, {"kappa2": _NUMBERS, "s_min": _OPTIONAL_NUMBER, "s_max": _OPTIONAL_NUMBER}),
    "state": (State, {"c": _NUMBERS, "t": _INTEGER}),
}


def _check_fields(doc: dict, types: dict, what: str) -> dict:
    """doc, once every value that types names passes its check."""
    for key, value in doc.items():
        if key in types and not types[key][0](value):
            raise ParameterError(f"{what} field {key!r} must be {types[key][1]}, got {value!r}")
    return doc


def _read_json(path, what: str) -> dict:
    """The JSON object in the file; a syntax error is a ParameterError naming
    path:line:col."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParameterError(f"{path}: {what} document must be a JSON object")
    return doc


def _read_input(path, what: str):
    """The Spectrum, NoiseProfile or State (`what`) that the JSON object in
    the file describes, once each of its fields passes its check."""
    cls, types = _REPORT_INPUTS[what]
    doc = _check_fields(_read_json(path, what), types, f"{path}: {what}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in doc]
    if missing:
        raise ParameterError(f"{path}: {what} document missing keys {missing}")
    return cls(**{key: doc[key] for key in types if key in doc})


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Defaults, then the JSON config file, then explicit overrides."""
    doc = {} if path is None else _read_json(path, "config")
    if overrides:
        doc.update({k: v for k, v in overrides.items() if v is not None})
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(doc) - known
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    _check_fields(doc, _FIELD_TYPES, "config")
    for key in ("m_list", "seeds", "bulk_range"):
        if key in doc:
            doc[key] = tuple(doc[key])
    cfg = ExperimentConfig(**doc)
    cfg.validate()
    return cfg


def _m_token(m: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", float(m)))[0]


def _m_stem(m: float) -> str:
    return f"m{m:g}"


def _stream(seed: int, m: float, label: int, *extra: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(seed), _m_token(m), label, *extra])


def _stream_int(seed: int, m: float, label: int, *extra: int) -> int:
    return int(_stream(seed, m, label, *extra).generate_state(1)[0])


def _atomic_write(path: Path, writer) -> None:
    """writer(tmp), then rename tmp to path. The directory is made here, at
    the first file written into it, so a command that fails before it has
    anything to write leaves no empty directory behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".part")
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _cell(value) -> str:
    if value is None:
        return "undef"
    if isinstance(value, float):
        if math.isnan(value):
            return "undef"
        return repr(value)
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    def writer(tmp):
        with open(tmp, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for row in rows:
                w.writerow([_cell(v) for v in row])

    _atomic_write(path, writer)


def _write_verdicts(path: Path, rows) -> bool:
    """Write a verdict table; returns whether any row failed."""
    _write_csv(path, VERDICT_COLUMNS, [row.cells() for row in rows])
    return any(row.failed for row in rows)


def _problem_for(config: ExperimentConfig, m: float, seed: int) -> tuple[Spectrum, NoiseProfile]:
    spec = build_spectrum(
        config.d, config.k, m, config.bulk_range, config.top_spread,
        seed=_stream(seed, m, _STREAM_SPECTRUM),
    )
    return spec, isotropic_noise(config.d, config.sigma2)


def _simulate_one(config: ExperimentConfig, m: float, seed: int) -> dict:
    spec, noise = _problem_for(config, m, seed)
    init = random_init(config.d, config.init_scale, seed=_stream(seed, m, _STREAM_INIT))
    traj, diverged = None, None
    try:
        traj = run_trajectory(
            spec, noise, init, config.eta, config.T, config.record_every,
            seed=_stream(seed, m, _STREAM_TRAJECTORY),
        )
    except DivergenceError as exc:
        diverged = exc
    try:
        plan = theory.csgd_plan(spec, noise, init, config.eta)
        t_star, theta_inf = plan.t_star, plan.theta_inf
    except AlignlabError:
        t_star, theta_inf = None, None
    late_mean, late_std = (None, None) if diverged else late_phase_statistic(traj, config.resolved_t_start)
    return {
        "m": m,
        "seed": seed,
        "traj": traj,
        "diverged": diverged,
        "t_star": t_star,
        "theta_inf": theta_inf,
        "late_mean": late_mean,
        "late_std": late_std,
    }


def _run_grid(config: ExperimentConfig, command: str) -> tuple[list[dict], bool]:
    """_simulate_one for every (m, seed), in grid order, spread over the job
    pool; prints one stderr line per diverged job. Returns the results and
    whether any job diverged."""
    jobs = [(m, seed) for m in config.m_list for seed in config.seeds]
    results = list(run_jobs(lambda job: _simulate_one(config, *job), jobs))
    for res in results:
        if res["diverged"] is not None:
            print(
                f"{command}: job (m={res['m']:g}, seed={res['seed']}) diverged at step {res['diverged'].step}",
                file=sys.stderr,
            )
    return results, any(res["diverged"] is not None for res in results)


def cmd_simulate(config: ExperimentConfig) -> tuple[Path, bool]:
    """One constant-step trajectory per (m, seed): trajectory CSV, a loss/
    alignment SVG pair, and a summary CSV of two-phase predictions vs the
    measured late phase. A diverged job writes no trajectory files, gets
    undef late-phase cells and one stderr line; the other jobs are kept.
    Returns the output directory and whether any job diverged."""
    config.validate()
    stems = {}
    for m in config.m_list:
        other = stems.setdefault(_m_stem(m), m)
        if other != m:
            raise ParameterError(f"m values {other!r} and {m!r} would share the output file stem {_m_stem(m)!r}")
    out = Path(config.output_dir)
    results, diverged = _run_grid(config, "simulate")

    for res in results:
        m, seed, traj = res["m"], res["seed"], res["traj"]
        if res["diverged"] is not None:
            continue
        stem = f"{_m_stem(m)}_seed{seed}"
        _atomic_write(out / f"traj_{stem}.csv", lambda tmp, tr=traj: write_trajectory_csv(tmp, tr))
        _atomic_write(
            out / f"alignment_{stem}.svg",
            lambda tmp, tr=traj, s=stem: svgplot.line_plot(
                tmp, [(tr.times, tr.thetas, "")], title=f"alignment {s}",
                xlabel="step", ylabel="alignment", xlog=True,
            ),
        )
        _atomic_write(
            out / f"loss_{stem}.svg",
            lambda tmp, tr=traj, s=stem: svgplot.line_plot(
                tmp, [(tr.times, tr.losses, "")], title=f"loss {s}",
                xlabel="step", ylabel="loss", ylog=True,
            ),
        )
    _write_csv(
        out / "summary.csv",
        ["m", "seed", "t_star", "theta_inf", "late_mean", "late_std"],
        [
            [res["m"], res["seed"], res["t_star"], res["theta_inf"], res["late_mean"], res["late_std"]]
            for res in results
        ],
    )
    return out, diverged


def cmd_sweep_gap(config: ExperimentConfig) -> tuple[Path, bool]:
    """Late-phase alignment mean/std per gap ratio, pooled across the seeds
    whose trajectory finished, with the predicted late-time alignment and a
    reported log fit of mean vs m. A diverged job gets one stderr line; an m
    with no finished seed gets undef mean/std cells and is left out of the
    fit. Returns the output directory and whether any job diverged."""
    config.validate()
    if len(config.m_list) < 2:
        raise ParameterError("sweep needs at least two m values")
    out = Path(config.output_dir)
    results, diverged = _run_grid(config, "sweep-gap")

    t_start = config.resolved_t_start
    rows = []
    for m in config.m_list:
        per_m = [r for r in results if r["m"] == m]
        finished = [r["traj"] for r in per_m if r["diverged"] is None]
        mean = std = None
        if finished:
            pooled = np.concatenate([tr.thetas[tr.times >= t_start] for tr in finished])
            mean, std = float(np.mean(pooled)), float(np.std(pooled))
        predictions = [r["theta_inf"] for r in per_m if r["theta_inf"] is not None]
        prediction = float(np.mean(predictions)) if predictions else None
        rows.append([m, mean, std, prediction])

    _write_csv(out / "alignment_vs_m.csv", ["m", "mean", "std", "theta_inf_prediction"], rows)

    measured_rows = [r for r in rows if r[1] is not None]
    ms = np.array([r[0] for r in measured_rows], dtype=float)
    means = np.array([r[1] for r in measured_rows], dtype=float)
    if np.unique(ms).size >= 2:
        slope, intercept = np.polyfit(np.log(ms), means, 1)
        fit = slope * np.log(ms) + intercept
        ss_tot = float(np.sum((means - means.mean()) ** 2))
        r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum((means - fit) ** 2)) / ss_tot
        fit_row = [float(slope), float(intercept), r2]
    else:
        fit_row = [None, None, None]
    _write_csv(out / "alignment_vs_m_logfit.csv", ["slope", "intercept", "r2"], [fit_row])
    series = [(ms, means, "measured")]
    if all(r[3] is not None for r in rows):
        series.append(([r[0] for r in rows], [r[3] for r in rows], "predicted"))
    _atomic_write(
        out / "alignment_vs_m.svg",
        lambda tmp: svgplot.line_plot(
            tmp, series, title="late-phase alignment vs gap ratio",
            xlabel="m", ylabel="alignment", xlog=True,
        ),
    )
    return out, diverged


def _parse_theta_target(token, spec: Spectrum, noise: NoiseProfile) -> tuple[str, float | None]:
    """Target forms: a float in (0,1); 'X*ggap' for a multiple of the
    low-alignment threshold; 'high' for the self-referential point
    theta = (theta_star + 1)/2 (resolved during construction)."""
    if isinstance(token, (int, float)):
        return "absolute", float(token)
    text = str(token).strip().lower()
    if text == "high":
        return "high", None
    try:
        if text.endswith("*ggap"):
            return "absolute", float(text[: -len("*ggap")]) * theory.g_gap(spec, noise)
        return "absolute", float(text)
    except ValueError:
        raise ParameterError(f"theta target must be a float, 'X*ggap' or 'high', got {token!r}") from None


def _state_above_theta_star(base: State, spec: Spectrum, noise: NoiseProfile) -> State:
    """Shrink the bulk block until theta = (theta_star + 1)/2 at the resulting
    state. Scaling the bulk coordinates by h changes only s_B, to h^2 s_B, so
    theta(h) = s_D / (s_D + h^2 s_B), and theta_star reads s only through
    m_aux = s (lambda_max^2 - lambda_min^2). The search therefore takes the
    block stats and the thresholds of base once and bisects on log h in
    floats, re-solving the auxiliary quadratic for r0 at each step, down to
    adjacent floats. theta(h) falls and theta_star(h) rises with h, so the gap
    function is strictly decreasing and bisection is safe. (Growing the
    dominant block instead cannot cross theta_star: both sides then approach 1
    at the same 1/scale^2 rate and the inequality locks.)"""
    stats = block_stats(base, spec, noise)
    rt = theory.theta_star(stats, spec, noise)
    spread = spec.lambda_max**2 - spec.lambda_min**2

    def gap(log_h: float) -> float:
        h = math.exp(log_h)
        s = stats.s_d + h * h * stats.s_b
        theta = stats.s_d / s if s > 0 else 0.0
        r0 = theory._stable_positive_root(rt.a_aux, rt.a_aux - s * spread - rt.h_aux, -rt.h_aux)
        return theta - 0.5 * (r0 / (1.0 + r0) + 1.0)

    lo, hi = -40.0, 40.0
    if gap(lo) <= 0 or gap(hi) >= 0:
        raise ConstructionError("no bulk rescaling reaches the high-alignment regime")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break  # adjacent floats: neither bound can move again
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    c = base.c.copy()
    c[spec.k :] *= math.exp(0.5 * (lo + hi))
    return State(c=c, t=base.t)


def cmd_drift_test(
    config: ExperimentConfig,
    theta_targets=("0.3*ggap", "0.9*ggap", "high"),
    eta_factors=(0.5, 2.0),
) -> tuple[Path, bool]:
    """Sign tests of the one-step drift on states constructed at the requested
    alignments, at step sizes relative to the critical one. Returns the output
    directory and whether any verdict was contradicted."""
    config.validate()
    if not theta_targets or not eta_factors:
        raise ParameterError("need at least one theta target and one eta factor")
    if not all(factor > 0 for factor in eta_factors):
        raise ParameterError(f"eta factors must be > 0, got {list(eta_factors)}")
    out = Path(config.output_dir)
    m, seed = config.m_list[0], config.seeds[0]
    spec, noise = _problem_for(config, m, seed)
    base = random_init(config.d, config.init_scale, seed=_stream(seed, m, _STREAM_INIT))
    # asymptotic claim on theta itself: allow absolute slack at moderate d
    theta_slack = 0.005 if config.d >= 200 else 0.0
    eta_fallback = theory._gap_step(spec)

    jobs = []
    for token in theta_targets:
        kind, value = _parse_theta_target(token, spec, noise)
        if kind == "high":
            state = _state_above_theta_star(base, spec, noise)
        else:
            state = rescale_to_alignment(base, spec, value, which="dominant")
        stats = block_stats(state, spec, noise)
        eta_star = theory.drift_quadratic(stats).eta_star
        eta_ref = eta_star if eta_star is not None and eta_star > 0 else eta_fallback
        jobs.append((state, stats, [factor * eta_ref for factor in eta_factors]))
    # one draw serves every target and step size
    rows = drift_verdicts(
        jobs, spec, noise, config.n_mc, _stream_int(seed, m, _STREAM_MC, 0), config.z_crit, theta_slack
    )
    return out, _write_verdicts(out / "drift_verdicts.csv", rows)


def cmd_projected_test(config: ExperimentConfig, n_states: int = 10) -> tuple[Path, bool]:
    """For random states, step with the midpoint of the two per-block loss
    thresholds and check that the block with the smaller threshold increases
    the loss while the other decreases it. A state with an empty block or
    equal thresholds is skipped with one stderr line; when every state is
    skipped the command fails before drawing. Returns (out_dir, any_failure)."""
    config.validate()
    if n_states < 1:
        raise ParameterError("n_states must be >= 1")
    out = Path(config.output_dir)
    m, seed = config.m_list[0], config.seeds[0]
    spec, noise = _problem_for(config, m, seed)

    chosen, skipped = [], []
    for i in range(n_states):
        state = random_init(config.d, config.init_scale, seed=_stream(seed, m, _STREAM_INIT, i))
        stats = block_stats(state, spec, noise)
        if stats.s_d == 0.0 or stats.s_b == 0.0:
            skipped.append((i, "a block carries no energy"))
            continue
        thresholds = {b: theory.loss_threshold(stats, b) for b in ("D", "B")}
        lo, hi = sorted(thresholds.values())
        if lo == hi:
            skipped.append((i, "equal thresholds"))
            continue
        chosen.append((state, stats, 0.5 * (lo + hi)))
    if not chosen:
        reasons = "; ".join(sorted({reason for _, reason in skipped}))
        raise ParameterError(f"no state left to test: every state was skipped ({reasons})")
    for i, reason in skipped:
        print(f"projected-test: state {i} skipped ({reason})", file=sys.stderr)
    # one draw serves every state and both blocks
    rows = projected_verdicts(
        chosen, spec, noise, config.n_mc, _stream_int(seed, m, _STREAM_MC, 1000), config.z_crit
    )
    return out, _write_verdicts(out / "projected_verdicts.csv", rows)


def cmd_report(spectrum_path, noise_path, state_path, eta: float) -> dict:
    """Full closed-form report for inputs loaded from JSON files."""
    if not 0 < eta < math.inf:
        raise ParameterError(f"eta must be finite and > 0, got {eta}")
    spec = _read_input(spectrum_path, "spectrum")
    noise = _read_input(noise_path, "noise")
    state = _read_input(state_path, "state")
    return theory.theory_report(spec, noise, state, eta)
