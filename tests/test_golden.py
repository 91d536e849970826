"""Byte-identity gate: sha256 of every file the four presets write at tiny
sizes (`simulate` also at one record per step) and of the verdict tables at
the benchmark's verdict configurations, and of the JSON that `report`
prints for a fixed problem and state. A change that must leave output bytes
alone (a refactor, a faster kernel) keeps these hashes; a change that means
to alter outputs records new ones and says why.

The hashes were recorded with numpy 2.4.6; another numpy release may draw
or sum differently, so the test is skipped there rather than failing on
bytes this code does not control.
"""

import hashlib
import json

import numpy as np
import pytest

from alignlab.cli import main
from alignlab.spectrum import build_spectrum
from alignlab.state import random_init

NUMPY_VERSION = "2.4.6"

COMMON = ["--d", "24", "--k", "4"]
PRESETS = {
    "simulate": ["simulate", *COMMON, "--eta", "0.02", "--steps", "300", "--m", "8", "--m", "20",
                 "--seed", "1", "--seed", "2"],
    # one record per step: the runs take the SGD step path, whose bytes no
    # change to the jump law may move
    "simulate_step": ["simulate", *COMMON, "--eta", "0.02", "--steps", "300", "--m", "8", "--m", "20",
                      "--seed", "1", "--seed", "2", "--record-every", "1"],
    "sweep": ["sweep-gap", *COMMON, "--eta", "0.02", "--steps", "300", "--m", "8", "--m", "20",
              "--seed", "1", "--seed", "2"],
    # 20_001 samples cap the sign tests at 10_001 antithetic pairs: six
    # Monte-Carlo batches and six looks; every row settles at the first
    "drift": ["drift-test", *COMMON, "--m", "8", "--seed", "3", "--n-mc", "20001"],
    "projected": ["projected-test", *COMMON, "--m", "8", "--seed", "3", "--n-mc", "20001", "--n-states", "3"],
    # the benchmark's verdict configurations at one seed: only d >= 200 gives
    # the theta rows their slack, and the `high` target's root is taken at d = 500
    "drift_d500": ["drift-test", "--d", "500", "--k", "50", "--m", "20", "--seed", "1", "--n-mc", "16384"],
    "projected_d60": ["projected-test", "--d", "60", "--k", "6", "--m", "8", "--seed", "1", "--n-mc", "16384",
                      "--n-states", "10"],
}

SHA256 = {
    "simulate": {
        "alignment_m20_seed1.svg": "7f34f9106fc9d7a52f23304d5f2f3c54d46c652ef05673d0ef36efbef6ecfaaa",
        "alignment_m20_seed2.svg": "22c2b5f65da4178915b980da3e15c50bd8c78eda421d9113123aea0296375d71",
        "alignment_m8_seed1.svg": "7dd805fee61782e1bdf0f94604719738d176c6ea5f5b99e00e8bd5b163d4f714",
        "alignment_m8_seed2.svg": "7c9fb10c90fbeb01b19a84857aaa6f7c2ff4dd2a7f76e1fe5a7731688e4acc8b",
        "loss_m20_seed1.svg": "e69f92d7134e956172616cb345df5d90c8f2c84f88b5c1832977d252e7ea3c4d",
        "loss_m20_seed2.svg": "1152bbffcfe065ffe5b6d00e23e6b90b4d7d55896873175ec9cfade27dd364fe",
        "loss_m8_seed1.svg": "090ac23cf02ef16ff7fc7108b2071e09859c13a09f0ab32676c0788812e2728c",
        "loss_m8_seed2.svg": "056819a9f177153a2fabad4bab67c79c54074aeab4397e9d81c09edfd5bef587",
        "summary.csv": "aff05dcfedc7d83ba6fa107f2e02087187426e49aac5049539fd9102e519ad31",
        "traj_m20_seed1.csv": "f753bb1f25ebadb2e18900b03e87d92f723aa86121745d55e0794b4171da9dba",
        "traj_m20_seed2.csv": "64e59dbbf14505847c1be5fca44f0ee6ef324837031421e7e8170a67754572b6",
        "traj_m8_seed1.csv": "2fea4e78e0c4e87d72e4121511b86755108b05de4c53108d7825238af8f78b1d",
        "traj_m8_seed2.csv": "4358320a1bf3ad9607641b1c668f6d7704c2b1a36ef5298d0c7b222cd5c68b6e",
    },
    "simulate_step": {
        "alignment_m20_seed1.svg": "1ea7d6c728c0f5d385246edf4723f77052d23af5193a5653bd36e84b314c67ed",
        "alignment_m20_seed2.svg": "29082b4c08e724d18e76f63f261d84f841f6dde0ea51eb1f1ca57d4dc6d44217",
        "alignment_m8_seed1.svg": "be4a7329f8e44a96df601850801c22eee79d0cb00b742fc714ff8fe03f99f8a6",
        "alignment_m8_seed2.svg": "6ab7d1debc35a87c338fe0751addf813c00e738e764d607f21e9d9251c40c2c3",
        "loss_m20_seed1.svg": "b9f2f60cde1b238cf9648b7f5f4b3c797db348a76b40d6b2b4d4d9669146056d",
        "loss_m20_seed2.svg": "c10cbaab946f798b4b8f8858b10e8bd7b385a63d197d4afa01ddc0e801cf9429",
        "loss_m8_seed1.svg": "cc7023001d29d02852c265b2c5f361a4a97e9aef69718549f938017fa0978c9b",
        "loss_m8_seed2.svg": "63c9dff2f71158eda7341fa03b0cb439c508d692bb016ae91fbc72a0ebd31d19",
        "summary.csv": "2b616ce6ce11c3fa95aaadfa444fe09e1b78b075e82f1f4eaa91e189e1b0be13",
        "traj_m20_seed1.csv": "d2f4830515756c23191c5fa815add15b5dceeebad74786b4835782a4fb8f7a20",
        "traj_m20_seed2.csv": "b0514c3577663a0faf2d98e06bdc97d71c9d7673d33894b92d0b3f224ddea79e",
        "traj_m8_seed1.csv": "699b0bccfa81564afab9b29abeae7f9fbb01109cc1f9a5ed79b52e26e7e4e657",
        "traj_m8_seed2.csv": "4249a3c048010f281731272470fdd07149a37e740f6b4aacd9f29665a5f969ae",
    },
    "sweep": {
        "alignment_vs_m.csv": "48e69b6019fefda7470590a918d8aa35f90a8776fce635b9dbb0a3d53769429f",
        "alignment_vs_m.svg": "2ce888c1c8d209340b236fd4daec7783bf4ba569c434f8f9275954e991df6c51",
        "alignment_vs_m_logfit.csv": "b33164d0517c400f93b81e4b119c3c0d2aaa5e42eb31b6c3cacbeb738af24caf",
    },
    "drift": {
        "drift_verdicts.csv": "4680663c487e302884d9a41734083323b4a5475391087b104e862a061e3d95b5",
    },
    "projected": {
        "projected_verdicts.csv": "c6d4eb882b12e1310735ab84240b30f0acc8e67dc9d2140b2c37d43a0993a138",
    },
    "drift_d500": {
        "drift_verdicts.csv": "85315e207e1ae319d6df6691ed8511f94f683f090fb7c699668cba441722e613",
    },
    "projected_d60": {
        "projected_verdicts.csv": "f810ffef31de348d4eb61d14f0a140a917186263f9be9e3673799a9ca2111d43",
    },
}


@pytest.mark.skipif(np.__version__ != NUMPY_VERSION, reason=f"hashes recorded with numpy {NUMPY_VERSION}")
@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("preset", list(PRESETS))
def test_preset_output_bytes(preset, threads, tmp_path, monkeypatch):
    monkeypatch.setenv("ALIGNLAB_THREADS", threads)
    out = tmp_path / preset
    assert main([*PRESETS[preset], "--out", str(out)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == SHA256[preset]


# the printed report holds csgd.beta_coeffs, t_star and theta_inf, so this
# hash pins every closed form of the per-mode law
REPORT_SHA256 = "7ac89d7343d72db82e2de1d4b671c7780edc06520bd092c48e5725cb33e8c276"


@pytest.mark.skipif(np.__version__ != NUMPY_VERSION, reason=f"hashes recorded with numpy {NUMPY_VERSION}")
def test_report_output_bytes(tmp_path, capsys):
    problem, state = tmp_path / "problem.json", tmp_path / "state.json"
    lambdas = build_spectrum(24, 4, 8.0, (0.5, 1.0), seed=5).lambdas.tolist()
    problem.write_text(json.dumps({"lambdas": lambdas, "k": 4, "kappa2": [1.0] * 24}))
    state.write_text(json.dumps({"c": random_init(24, 3.0, seed=6).c.tolist(), "t": 0}))
    argv = ["report", "--spectrum", str(problem), "--noise", str(problem), "--state", str(state), "--eta", "0.02"]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == REPORT_SHA256
