"""Byte-identity gate: sha256 of every file the four presets write at tiny
sizes, and of the JSON that `report` prints for a fixed problem and state. A
change that must leave output bytes alone (a refactor, a faster kernel) keeps
these hashes; a change that means to alter outputs records new ones and says
why.

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
    "sweep": ["sweep-gap", *COMMON, "--eta", "0.02", "--steps", "300", "--m", "8", "--m", "20",
              "--seed", "1", "--seed", "2"],
    # 20_001 samples cap the sign tests at 10_001 antithetic pairs: five
    # Monte-Carlo batches and five looks; every row settles at the first
    "drift": ["drift-test", *COMMON, "--m", "8", "--seed", "3", "--n-mc", "20001"],
    "projected": ["projected-test", *COMMON, "--m", "8", "--seed", "3", "--n-mc", "20001", "--n-states", "3"],
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
        "summary.csv": "572aacfc8f47e55d751f3ffe7826d49ac02e492ac2d37bbf76620ce84dc04aa5",
        "traj_m20_seed1.csv": "0f44bb8b7f4189591e33457ca1e72101fafcc8a7496c2a353751540f9c20711b",
        "traj_m20_seed2.csv": "2f3f9eb96d1132c9053900bf34335121cef5ab8f62604d09f0a9bd3d44358f2f",
        "traj_m8_seed1.csv": "b7f6ce6ce36aa6f038bffe88ad6094a13a21ea6383f67fce53ae4dbbf890c859",
        "traj_m8_seed2.csv": "4c3401dae637455bea2de7f3670f2e56140e8bba3f12cb88e400db9d75b8c948",
    },
    "sweep": {
        "alignment_vs_m.csv": "452c7a94264f82d433fad0c60a9cd3be871256f579c584b4952fdd6241ce8a96",
        "alignment_vs_m.svg": "2ce888c1c8d209340b236fd4daec7783bf4ba569c434f8f9275954e991df6c51",
        "alignment_vs_m_logfit.csv": "5d751fb78b8b439533e3ff7f0dc8b7401c7c70f2c44cac67c00079b1db0639c4",
    },
    "drift": {
        "drift_verdicts.csv": "ca7c9bc04f1c0b9b39492bee99747be615313811e203e0e3c462df79afce4fc8",
    },
    "projected": {
        "projected_verdicts.csv": "ab26ee6b12f54759e8270738a81bb5961e7ae2df1bd1507ff5079b6e4b558266",
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
REPORT_SHA256 = "65901b40f8960321635e678f30a5c6f56ec422f3effa75b1f3a7280196795504"


@pytest.mark.skipif(np.__version__ != NUMPY_VERSION, reason=f"hashes recorded with numpy {NUMPY_VERSION}")
def test_report_output_bytes(tmp_path, capsys):
    problem, state = tmp_path / "problem.json", tmp_path / "state.json"
    lambdas = build_spectrum(24, 4, 8.0, (0.5, 1.0), seed=5).lambdas.tolist()
    problem.write_text(json.dumps({"lambdas": lambdas, "k": 4, "kappa2": [1.0] * 24}))
    state.write_text(json.dumps({"c": random_init(24, 3.0, seed=6).c.tolist(), "t": 0}))
    argv = ["report", "--spectrum", str(problem), "--noise", str(problem), "--state", str(state), "--eta", "0.02"]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == REPORT_SHA256
