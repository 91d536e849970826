"""Experiment presets: configuration, deterministic seeding, and the CSV/SVG
emitting commands behind the CLI.

Determinism contract: every output file's bytes depend only on (config,
seeds). `_run_grid` builds the problems of the (m, seed) jobs of `simulate`
and `sweep-gap` in grid order, runs all their trajectories in one
`dynamics.run_trajectories` call, which groups them onto the job pool, and
forms their plans and late-window statistics. Results are assembled in grid
order, and a job's trajectory is the same bits in any group, so neither the
pool size nor the group size changes the outputs. The renderers return
text (`svgplot` its SVG, `csv.writer` its tables) and `_write` is the one
place a file is written: UTF-8 bytes, whatever the locale, with no newline
translation, written to a part file and renamed into place.

`drift-test`'s `high` target, the state at theta = (theta_star + 1)/2, is
the base state with its bulk block scaled by a factor found in closed form,
from one root of theta_star's auxiliary quadratic (`_state_above_theta_star`).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import struct
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import svgplot, theory
from .dynamics import late_phase_statistic, run_trajectories
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

# projected-test holds each state's statistics and verdict rows until its
# table is written, about 4 KB and 0.12 ms per state at d = 24 (measured at
# 20 000 and 40 000 states), so the limit caps a run near 0.4 GB
_MAX_STATES = 100_000


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment parameters; every CLI flag overrides one field.
    A config checks itself when it is built, from flags, a JSON file or
    Python, and stores each field in one normal form: floats as float, ints
    as int, lists as tuples.

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

    def __post_init__(self):
        _check_fields(vars(self), _FIELD_TYPES, "config")
        for key, (_, _, normal) in _FIELD_TYPES.items():
            object.__setattr__(self, key, normal(getattr(self, key)))
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
        if len(set(self.seeds)) < len(self.seeds):
            raise ParameterError(f"seeds must not repeat, got {list(self.seeds)}")
        if self.T_start is not None and not 0 <= self.T_start < self.T:
            raise ParameterError(f"T_start={self.T_start} must be >= 0 and < T={self.T}")
        if not self.z_crit > 0:
            raise ParameterError(f"z_crit={self.z_crit} must be > 0")

    @property
    def resolved_t_start(self) -> int:
        return self.T // 2 if self.T_start is None else self.T_start

    def to_dict(self) -> dict:
        return {**asdict(self), "T_start": self.resolved_t_start}


def _plain(value):
    """value, with a numpy int or float scalar turned into its Python one."""
    return value.item() if isinstance(value, (np.integer, np.floating)) else value


def _is_int(value) -> bool:
    """A Python or numpy int that fits numpy's int64, so no array shape or
    seed overflows."""
    value = _plain(value)
    return isinstance(value, int) and not isinstance(value, bool) and -(2**63) <= value < 2**63


def _is_number(value) -> bool:
    """A Python or numpy int or float within the float range: no bool, inf,
    nan or oversized int (the comparison is exact, so that one cannot
    overflow)."""
    value = _plain(value)
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _list_of(check, length=None):
    return lambda value: (
        isinstance(value, (list, tuple))
        and all(check(v) for v in value)
        and (length is None or len(value) == length)
    )


def _tuple_of(kind):
    return lambda value: tuple(map(kind, value))


# (check, description, normal form) of the value each config field accepts;
# a report input reads only the check and the description
_INTEGER = (_is_int, "an int64 integer", int)
_NUMBER = (_is_number, "a finite number", float)
_NUMBERS = (_list_of(_is_number), "a list of finite numbers", _tuple_of(float))
_FIELD_TYPES = {
    "d": _INTEGER,
    "k": _INTEGER,
    "m_list": _NUMBERS,
    "eta": _NUMBER,
    "T": _INTEGER,
    "sigma2": _NUMBER,
    "init_scale": _NUMBER,
    "seeds": (_list_of(_is_int), "a list of int64 integers", _tuple_of(int)),
    "n_mc": _INTEGER,
    "record_every": _INTEGER,
    "T_start": (
        lambda v: v is None or _is_int(v), "an int64 integer or null", lambda v: None if v is None else int(v)
    ),
    "output_dir": (lambda v: isinstance(v, str), "a string", str),
    "bulk_range": (_list_of(_is_number, 2), "a list of two finite numbers", _tuple_of(float)),
    "top_spread": _NUMBER,
    "z_crit": _NUMBER,
}
_OPTIONAL_NUMBER = (lambda v: v is None or _is_number(v), "a finite number or null")
# the class each `report` input builds, and the same for each of its fields
_REPORT_INPUTS = {
    "spectrum": (Spectrum, {"lambdas": _NUMBERS, "k": _INTEGER}),
    "noise": (NoiseProfile, {"kappa2": _NUMBERS, "s_min": _OPTIONAL_NUMBER, "s_max": _OPTIONAL_NUMBER}),
    "state": (State, {"c": _NUMBERS}),
}
# the keys a `report` input may hold: one problem file may serve as both
# spectrum and noise, and a state's "t" (once its time index) is ignored
_REPORT_KEYS = {key for _, types in _REPORT_INPUTS.values() for key in types} | {"t"}


def _check_fields(doc: dict, types: dict, what: str) -> dict:
    """doc, once every value that types names passes its check."""
    for key, value in doc.items():
        if key in types and not types[key][0](value):
            raise ParameterError(f"{what} field {key!r} must be {types[key][1]}, got {value!r}")
    return doc


def _read_json(path, what: str) -> dict:
    """The JSON object in the file, read as UTF-8 whatever the locale; a
    syntax error is a ParameterError naming path:line:col, and bytes that
    are not UTF-8 one naming the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise ParameterError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    if not isinstance(doc, dict):
        raise ParameterError(f"{path}: {what} document must be a JSON object")
    return doc


def _read_input(path, what: str):
    """The Spectrum, NoiseProfile or State (`what`) that the JSON object in
    the file describes, once each of its fields passes its check and it
    holds no key that no report input reads."""
    cls, types = _REPORT_INPUTS[what]
    doc = _check_fields(_read_json(path, what), types, f"{path}: {what}")
    unknown = sorted(set(doc) - _REPORT_KEYS)
    if unknown:
        raise ParameterError(f"{path}: {what} document has unknown keys {unknown}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in doc]
    if missing:
        raise ParameterError(f"{path}: {what} document missing keys {missing}")
    return cls(**{key: doc[key] for key in types if key in doc})


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Defaults, then the JSON config file, then explicit overrides; an
    override of None leaves the key as it is."""
    doc = {} if path is None else _read_json(path, "config")
    if overrides:
        doc.update({k: v for k, v in overrides.items() if v is not None})
    unknown = set(doc) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**doc)


def _m_token(m: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", float(m)))[0]


def _m_stem(m: float) -> str:
    return f"m{m:g}"


def _stream(seed: int, m: float, label: int, *extra: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(seed), _m_token(m), label, *extra])


def _stream_int(seed: int, m: float, label: int, *extra: int) -> int:
    return int(_stream(seed, m, label, *extra).generate_state(1)[0])


def _write(path: Path, text: str) -> None:
    """Write text to path as UTF-8 bytes, with no newline translation, then
    rename: the one place an output file is written. The directory is made
    here, at the first file written into it, so a command that fails before
    it has anything to write leaves no empty directory behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".part")
    try:
        tmp.write_bytes(text.encode())
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
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *([_cell(v) for v in row] for row in rows)])
    _write(path, buf.getvalue())


def _write_verdicts(path: Path, rows, config: ExperimentConfig, command: str) -> bool:
    """Write a verdict table; returns whether any row failed. A verdict
    preset runs the first m and the first seed only; when the config gives
    more, one stderr line says so, after the table, so that a failed run
    still prints one line."""
    _write_csv(path, VERDICT_COLUMNS, [row.cells() for row in rows])
    if len(config.m_list) > 1 or len(config.seeds) > 1:
        given = f"{len(config.m_list)} m values and {len(config.seeds)} seeds"
        print(f"{command}: ran m={config.m_list[0]:g} and seed {config.seeds[0]} only, the first of {given}",
              file=sys.stderr)
    return any(row.failed for row in rows)


def _problem_for(config: ExperimentConfig, m: float, seed: int) -> tuple[Spectrum, NoiseProfile]:
    spec = build_spectrum(
        config.d, config.k, m, config.bulk_range, config.top_spread,
        seed=_stream(seed, m, _STREAM_SPECTRUM),
    )
    return spec, isotropic_noise(config.d, config.sigma2)


def _run_grid(config: ExperimentConfig, command: str) -> tuple[list[dict], bool]:
    """The result of every (m, seed), in grid order: its problem, its
    trajectory (one `run_trajectories` call runs the grid), its two-phase
    plan and its late-window statistics; prints one stderr line per diverged
    job. A diverged job keeps its DivergenceError and the others run on. Any
    other error of a job, in building its problem or in its records, fails
    the grid with the error of the first job that has one; the jobs after a
    problem that cannot be built are not built. Returns the results and
    whether any job diverged."""
    grid = [(m, seed) for m in config.m_list for seed in config.seeds]
    problems, unbuilt = [], None
    for m, seed in grid:
        try:
            spec, noise = _problem_for(config, m, seed)
            init = random_init(config.d, config.init_scale, seed=_stream(seed, m, _STREAM_INIT))
        except AlignlabError as exc:
            unbuilt = exc
            break
        problems.append((spec, noise, init, _stream(seed, m, _STREAM_TRAJECTORY)))
    trajs = run_trajectories(problems, config.eta, config.T, config.record_every)
    results = []
    for (m, seed), (spec, noise, init, _), traj in zip(grid, problems, trajs):
        if isinstance(traj, AlignlabError) and not isinstance(traj, DivergenceError):
            raise traj
        diverged = traj if isinstance(traj, DivergenceError) else None
        try:
            plan = theory.csgd_plan(spec, noise, init, config.eta)
            t_star, theta_inf = plan.t_star, plan.theta_inf
        except AlignlabError:
            t_star, theta_inf = None, None
        late_mean, late_std = (None, None) if diverged else late_phase_statistic(traj, config.resolved_t_start)
        results.append({
            "m": m,
            "seed": seed,
            "traj": None if diverged else traj,
            "diverged": diverged,
            "t_star": t_star,
            "theta_inf": theta_inf,
            "late_mean": late_mean,
            "late_std": late_std,
        })
    if unbuilt is not None:
        raise unbuilt
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
    undef late-phase cells and one stderr line; the other jobs are kept. An
    m whose file stem an earlier m takes, the same m given twice too, is
    refused before any job runs. Returns the output directory and whether
    any job diverged."""
    stems = {}
    for m in config.m_list:
        if (stem := _m_stem(m)) in stems:
            raise ParameterError(f"m values {stems[stem]!r} and {m!r} would share the output file stem {stem!r}")
        stems[stem] = m
    out = Path(config.output_dir)
    results, diverged = _run_grid(config, "simulate")

    for res in results:
        m, seed, traj = res["m"], res["seed"], res["traj"]
        if res["diverged"] is not None:
            continue
        stem = f"{_m_stem(m)}_seed{seed}"
        # floats as repr and CRLF line ends, the bytes csv.writer gives
        rows = zip(traj.times.tolist(), traj.thetas.tolist(), traj.losses.tolist())
        table = "step,theta,loss\r\n" + "".join(f"{t},{th!r},{lo!r}\r\n" for t, th, lo in rows)
        _write(out / f"traj_{stem}.csv", table)
        for name, values in (("alignment", traj.thetas), ("loss", traj.losses)):
            _write(out / f"{name}_{stem}.svg", svgplot.line_plot(
                [(traj.times, values, "")], title=f"{name} {stem}", xlabel="step", ylabel=name,
                xlog=name == "alignment", ylog=name == "loss",
            ))
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
    _write(out / "alignment_vs_m.svg", svgplot.line_plot(
        series, title="late-phase alignment vs gap ratio", xlabel="m", ylabel="alignment", xlog=True,
    ))
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
    """base with its bulk block scaled by h so that theta = (theta_star + 1)/2
    at the resulting state. Scaling keeps s_D and sets r = theta/(1 - theta)
    = s_D/(h^2 s_B), and theta_star reads s only through m_aux = s spread2,
    so the target is r = 1 + 2 r0, r0 being theta_star's root at the scaled
    state. With s = s_D (1 + 1/r), the cubic in u = r - 1 that this leaves
    is (u + 2) times the auxiliary quadratic with the weights
    (a_aux, 2 s_D spread2, 2 h_aux), so u is that quadratic's positive root
    and h = sqrt(s_D / ((1 + u) s_B)). Where theta_star is within rounding of
    1 the state's alignment rounds to 1, and it is refused with a
    ConstructionError, as is a base with an empty block. (Growing the dominant block instead
    cannot cross theta_star: both sides then approach 1 at the same
    1/scale^2 rate and the inequality locks.)"""
    stats = block_stats(base, spec, noise)
    if stats.s_d == 0.0 or stats.s_b == 0.0:
        raise ConstructionError("both blocks must be nonzero to reach the high-alignment regime")
    rt = theory.theta_star(stats, spec, noise)
    u = theory._aux_root(rt.a_aux, 2.0 * stats.s_d * spec.spread2, 2.0 * rt.h_aux)
    c = base.c.copy()
    c[spec.k :] *= math.sqrt(stats.s_d / ((1.0 + u) * stats.s_b))
    state = State(c=c)
    if not block_stats(state, spec, noise).theta < 1.0:
        raise ConstructionError("no bulk rescaling reaches the high-alignment regime")
    return state


def cmd_drift_test(
    config: ExperimentConfig,
    theta_targets=("0.3*ggap", "0.9*ggap", "high"),
    eta_factors=(0.5, 2.0),
) -> tuple[Path, bool]:
    """Sign tests of the one-step drift on states constructed at the requested
    alignments, at step sizes relative to the critical one. Returns the output
    directory and whether any verdict was contradicted."""
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
            state = rescale_to_alignment(base, spec, value)
        stats = block_stats(state, spec, noise)
        eta_star = theory.drift_quadratic(stats).eta_star
        eta_ref = eta_star if eta_star is not None and eta_star > 0 else eta_fallback
        jobs.append((state, stats, [factor * eta_ref for factor in eta_factors]))
    # one draw serves every target and step size
    rows = drift_verdicts(
        jobs, spec, noise, config.n_mc, _stream_int(seed, m, _STREAM_MC, 0), config.z_crit, theta_slack
    )
    return out, _write_verdicts(out / "drift_verdicts.csv", rows, config, "drift-test")


def cmd_projected_test(config: ExperimentConfig, n_states: int = 10) -> tuple[Path, bool]:
    """For random states, step with the midpoint of the two per-block loss
    thresholds and check that the block with the smaller threshold increases
    the loss while the other decreases it. A state with an empty block or
    equal thresholds is skipped with one stderr line; when every state is
    skipped the command fails before drawing. More than _MAX_STATES states
    are refused before any is built. Returns (out_dir, any_failure)."""
    if not (_is_int(n_states) and n_states >= 1):
        raise ParameterError(f"n_states must be an int64 integer >= 1, got {n_states!r}")
    if n_states > _MAX_STATES:
        raise ParameterError(f"n_states={n_states} is past the limit of {_MAX_STATES} states")
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
        chosen.append((stats, 0.5 * (lo + hi)))
    if not chosen:
        reasons = "; ".join(sorted({reason for _, reason in skipped}))
        raise ParameterError(f"no state left to test: every state was skipped ({reasons})")
    for i, reason in skipped:
        print(f"projected-test: state {i} skipped ({reason})", file=sys.stderr)
    # one draw serves every state and both blocks
    rows = projected_verdicts(
        chosen, spec, noise, config.n_mc, _stream_int(seed, m, _STREAM_MC, 1000), config.z_crit
    )
    return out, _write_verdicts(out / "projected_verdicts.csv", rows, config, "projected-test")


def cmd_report(spectrum_path, noise_path, state_path, eta: float) -> dict:
    """Full closed-form report for inputs loaded from JSON files."""
    if not 0 < eta < math.inf:
        raise ParameterError(f"eta must be finite and > 0, got {eta}")
    spec = _read_input(spectrum_path, "spectrum")
    noise = _read_input(noise_path, "noise")
    state = _read_input(state_path, "state")
    return theory.theory_report(spec, noise, state, eta)
