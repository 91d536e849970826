"""One workload iteration in a fresh process.

Runs the workload through alignlab's public entry points (``alignlab.cli.main``
for the presets, the ``alignlab`` API for the oracle), checks and hashes its
outputs and reads the peak resident memory. Around the workload it times the
normal-draw floor for the workload's nominal normal count on one thread.
Prints one JSON line.

    python3 perfbench/child.py '{"workload": "simulate", "seed": 1, "size": "full",
                                 "out": "DIR", "trace": false}'
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import resource
import sys
from pathlib import Path
from time import perf_counter

# Run lengths; the shapes (d, k, m, step sizes, targets) are fixed per workload.
SIZES = {
    "full": {"steps": 3000, "n_mc": 16384, "n_states": 10, "triples_per_d": 1, "oracle_n": 100_000},
    "tiny": {"steps": 200, "n_mc": 2048, "n_states": 2, "triples_per_d": 1, "oracle_n": 2000},
}
SIM_MS = ("5", "20", "50", "200")
SIM_D = 500
DRIFT_D, DRIFT_CALLS = 500, 3 * 2  # default 3 targets x 2 step sizes, one draw set each
PROJ_D = 60
ORACLE_DIMS = (10, 50, 200)
ORACLE_ETA_FACTORS = (0.1, 1.0, 3.0)
FLOOR_BLOCK = 1 << 18  # normals per standard_normal call when timing the floor


def sim_seeds(seed: int) -> tuple[int, int]:
    return seed, seed + 1


def preset_argvs(workload: str, seed: int, size: dict, out: Path) -> list[list[str]]:
    """The CLI argv of each preset the workload runs, in order."""
    if workload == "simulate":
        argv = ["simulate", "--d", str(SIM_D), "--k", "50", "--eta", "0.003", "--steps", str(size["steps"])]
        for m in SIM_MS:
            argv += ["--m", m]
        for s in sim_seeds(seed):
            argv += ["--seed", str(s)]
        return [argv + ["--out", str(out)]]
    if workload == "verdicts":
        common = ["--seed", str(seed), "--n-mc", str(size["n_mc"])]
        return [
            ["drift-test", "--d", str(DRIFT_D), "--k", "50", "--m", "20", *common, "--out", str(out / "drift")],
            ["projected-test", "--d", str(PROJ_D), "--k", "6", "--m", "8", "--n-states", str(size["n_states"]),
             *common, "--out", str(out / "projected")],
        ]
    return []


def setup_argv(workload: str, seed: int, size: dict, out: Path) -> list[str]:
    """Interpreter arguments that import alignlab and resolve the config, the
    set-up every run of the workload pays."""
    argvs = preset_argvs(workload, seed, size, out)
    if not argvs:
        return ["-c", "import alignlab"]
    return ["-m", "alignlab.cli", "print-config", *argvs[0][1:]]


def nominal_work(workload: str, size: dict) -> tuple[int, int]:
    """(work units, normals drawn) of one full iteration: SGD steps summed over
    jobs for simulate, one-step MC samples (one per draw and step size) else."""
    if workload == "simulate":
        jobs = len(SIM_MS) * len(sim_seeds(0))
        return jobs * size["steps"], jobs * size["steps"] * SIM_D
    if workload == "verdicts":
        n, proj_calls = size["n_mc"], 2 * size["n_states"]
        return n * (DRIFT_CALLS + proj_calls), n * (DRIFT_CALLS * DRIFT_D + proj_calls * PROJ_D)
    n, triples = size["oracle_n"], size["triples_per_d"]
    return triples * len(ORACLE_DIMS) * len(ORACLE_ETA_FACTORS) * n, triples * sum(ORACLE_DIMS) * n


def random_problem(rng, d: int):
    """A (spectrum, noise, state) triple from the distribution of the test
    suite's random triples (tests/helpers.random_problem with default flags),
    restated here so the benchmark's inputs stay fixed if the tests change."""
    import alignlab
    import numpy as np

    k = int(rng.integers(1, d))
    m = float(np.exp(rng.uniform(np.log(1.5), np.log(300.0))))
    lo = float(rng.uniform(0.2, 1.0))
    bulk_range = (lo, lo * (1.0 + float(rng.uniform(0.0, 1.0))))
    top_spread = float(rng.uniform(0.0, 1.0))
    spec = alignlab.build_spectrum(d, k, m, bulk_range, top_spread, seed=int(rng.integers(2**63)))
    if rng.random() < 0.5:
        kappa2 = np.full(d, float(np.exp(rng.uniform(np.log(0.1), np.log(10.0)))))
    else:
        kappa2 = np.exp(rng.normal(0.0, 1.0, d))
    scale = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
    state = alignlab.random_init(d, scale, seed=int(rng.integers(2**63)))
    return spec, alignlab.NoiseProfile(kappa2=kappa2), state


def run_oracle(seed: int, size: dict) -> dict:
    """AC1/AC2 traffic: one-step estimates at 0.1, 1 and 3 x eta* on shared
    draws, each compared within 5 stderr with the exact expectations."""
    import alignlab
    import numpy as np

    rng = np.random.default_rng(seed)
    attempted = failed = 0
    means = []
    for _ in range(size["triples_per_d"]):
        for d in ORACLE_DIMS:
            spec, noise, state = random_problem(rng, d)
            stats = alignlab.block_stats(state, spec, noise)
            dq = alignlab.drift_quadratic(stats)
            if dq.eta_star is not None and dq.eta_star > 0:
                ref = dq.eta_star
            else:
                ref = 2.0 * spec.gap1 / (spec.lambda_max**2 - spec.lambda_min**2)
            etas = [f * ref for f in ORACLE_ETA_FACTORS]
            out = alignlab.one_step_estimates(
                state, spec, noise, etas, size["oracle_n"], seed=int(rng.integers(2**31))
            )
            for eta in etas:
                est = out[eta]
                targets = {
                    "f": alignlab.expected_drift(dq, eta),
                    "sD_next": alignlab.expected_next_block_energy(stats, eta, "D"),
                    "sB_next": alignlab.expected_next_block_energy(stats, eta, "B"),
                }
                for key, target in targets.items():
                    attempted += 1
                    failed += abs(est[key].mean - target) > 5.0 * est[key].stderr
                    means.append((est[key].mean, est[key].stderr))
    return {"attempted": attempted, "failed": int(failed), "digest_text": repr(means), "notes": {}}


def run_presets(workload: str, seed: int, size: dict, out: Path) -> dict:
    from alignlab import cli

    codes, messages = [], []
    for argv in preset_argvs(workload, seed, size, out):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            codes.append(cli.main(argv))
        messages.append(err.getvalue().strip())
    return {"codes": codes, "messages": messages}


def _rows(path: Path) -> list[dict]:
    if not path.is_file():
        return []
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def check_simulate(seed: int, size: dict, out: Path, ran: dict) -> dict:
    """A job succeeded when its trajectory CSV and both SVGs exist and its
    summary row has finite late-phase values. A DivergenceError aborts the
    whole grid today, so it fails every job."""
    jobs = [(m, s) for m in SIM_MS for s in sim_seeds(seed)]
    rows = {(r["m"], r["seed"]): r for r in _rows(out / "summary.csv")}
    ok = []
    for m, s in jobs:
        stem = f"m{float(m):g}_seed{s}"
        row = rows.get((repr(float(m)), str(s)))
        files = all((out / f"{kind}_{stem}.{ext}").is_file()
                    for kind, ext in (("traj", "csv"), ("alignment", "svg"), ("loss", "svg")))
        ok.append(files and row is not None and _finite(row["late_mean"]) and _finite(row["late_std"]))
    # AC9: late-phase alignment increases with the gap ratio, per seed
    monotone = {}
    if all(ok):
        for s in sim_seeds(seed):
            means = [float(rows[(repr(float(m)), str(s))]["late_mean"]) for m in SIM_MS]
            monotone[str(s)] = all(a < b for a, b in zip(means, means[1:]))
    return {
        "attempted": len(jobs),
        "failed": len(jobs) - sum(ok),
        "work": sum(ok) * size["steps"],
        "notes": {"exit_codes": ran["codes"], "stderr": ran["messages"], "ac9_late_mean_increasing_in_m": monotone},
    }


def check_verdicts(_seed: int, size: dict, out: Path, ran: dict) -> dict:
    """Every expected verdict row must be present; a contradicted verdict
    fails. target_ok is not written to the table, so an exit code of 1 that no
    contradicted projected row explains counts as one failure."""
    drift = _rows(out / "drift" / "drift_verdicts.csv")
    proj = _rows(out / "projected" / "projected_verdicts.csv")
    expected = {"drift": 2 * DRIFT_CALLS, "projected": 2 * size["n_states"]}
    failed = 0
    for name, rows, code in (("drift", drift, ran["codes"][0]), ("projected", proj, ran["codes"][1])):
        contradicted = sum(r["verdict"] == "contradicted" for r in rows)
        if code not in (0, 1):
            failed += expected[name]
        elif name == "projected" and code == 1 and not contradicted:
            failed += 1 + max(0, expected[name] - len(rows))
        else:
            failed += contradicted + max(0, expected[name] - len(rows))
    verdicts = [r["verdict"] for r in drift + proj]
    return {
        "attempted": sum(expected.values()),
        "failed": failed,
        "work": size["n_mc"] * (len(drift) // 2 + len(proj)),
        "notes": {
            "exit_codes": ran["codes"],
            "stderr": ran["messages"],
            "verdicts": {v: verdicts.count(v) for v in sorted(set(verdicts))},
        },
    }


def digest_dir(out: Path) -> tuple[str, int]:
    """sha256 over every output file (sorted relative names), and total bytes."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest(), total


def time_floor(count: int, rng) -> float:
    """Seconds to draw `count` standard normals in FLOOR_BLOCK blocks."""
    t0 = perf_counter()
    left = count
    while left > 0:
        rng.standard_normal(min(FLOOR_BLOCK, left))
        left -= FLOOR_BLOCK
    return perf_counter() - t0


def main(spec: dict) -> dict:
    root = Path(__file__).resolve().parent.parent
    import alignlab
    import numpy as np

    if Path(alignlab.__file__).resolve().parent != root / "src" / "alignlab":
        raise SystemExit(f"alignlab imported from {alignlab.__file__}, not from this checkout")
    workload, seed, size = spec["workload"], spec["seed"], SIZES[spec["size"]]
    out = Path(spec["out"])
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    # Half the floor is drawn before the workload and half after, so that it
    # sees the same machine speed as the workload it is the floor of.
    work, normals = nominal_work(workload, size)
    floor_rng = np.random.default_rng(seed)
    floor_s = time_floor(normals // 2, floor_rng)
    t0 = perf_counter()
    ran = run_oracle(seed, size) if workload == "oracle" else run_presets(workload, seed, size, out)
    wall = perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    floor_s += time_floor(normals - normals // 2, floor_rng)

    if workload == "oracle":
        result = ran
        digest, out_bytes = hashlib.sha256(result.pop("digest_text").encode()).hexdigest(), 0
    else:
        check = check_simulate if workload == "simulate" else check_verdicts
        result = check(seed, size, out, ran)
        work = result.pop("work")
        digest, out_bytes = digest_dir(out)
    result.update(wall_s=wall, work=work, normals=normals, floor_s=floor_s, peak_rss_mb=peak_rss_mb,
                  digest=digest, out_bytes=out_bytes)
    if tracer:
        metrics, absent, layer_self = tracer.layer_metrics(wall, floor_s, normals)
        metrics["harness.io.bytes"] = out_bytes
        metrics["fail_share"] = result["failed"] / result["attempted"]
        result["trace"] = {"metrics": metrics, "absent": absent, "layer_self_s": layer_self,
                           "counted_normals": tracer.counts["dynamics_normals"] + tracer.counts["mc_normals"]}
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
