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
    # 20_001 samples = 10_001 antithetic pairs: two full Monte-Carlo batches
    # and a short one
    "drift": ["drift-test", *COMMON, "--m", "8", "--seed", "3", "--n-mc", "20001"],
    "projected": ["projected-test", *COMMON, "--m", "8", "--seed", "3", "--n-mc", "20001", "--n-states", "3"],
}

SHA256 = {
    "simulate": {
        "alignment_m20_seed1.svg": "02b61d90e90275e8ceb16125128121560b7694aeb28ff9d511d3564ffaa44290",
        "alignment_m20_seed2.svg": "3173f9cdbfbe7fb810069667da14f2ae7aa72828f39ed612095d5f5b1dfac8a0",
        "alignment_m8_seed1.svg": "81dadf9c609d501210d2db7aec38777e5064e9b7c0756ad0a559e5bee6a77d88",
        "alignment_m8_seed2.svg": "8d05b81c528a981572a77f687abc38e129d556e4d8aaadea0b47da6b4b4589a6",
        "loss_m20_seed1.svg": "b182af1c6158e48c01f2acc44c3393aa2f11f6e91292f48612e9022270cb3b32",
        "loss_m20_seed2.svg": "94a608d6c1bd2627884279297102a4f286d0e55e59d128ddefc574e50b33e8b7",
        "loss_m8_seed1.svg": "ce644cce7bec7b3650f2927492cbfb221397402f0e85bb433c04567304044062",
        "loss_m8_seed2.svg": "48511466a6c5fdce5793a792ebb71bbf66327dd14026ecad27d819f52c90b7e9",
        "summary.csv": "063fd52010dca9f953514570609bfc15ea4728771566b806d61c1900f03df032",
        "traj_m20_seed1.csv": "e529144aac4f8c0bf21844711a7f2abdce3b8915a01e932a8173e4a31d54c1f0",
        "traj_m20_seed2.csv": "07a485086a868777ca4718cf369f14b623fb8c2628b7c875cb84e3f90b3f1d9e",
        "traj_m8_seed1.csv": "a9b026f7536dd747218365f24d8a7de5759a38cb5ad88e33119041d28cfed223",
        "traj_m8_seed2.csv": "94c789c8ce672d4807eba1c9c253a6fd1635ce103d8fdf0ae8f8c17453f5733e",
    },
    "sweep": {
        "alignment_vs_m.csv": "1b7bdac7c390440149722d37c2e8311b35fc58388ac3687cc21cbc9718dcfc05",
        "alignment_vs_m.svg": "3fa20eafed16080beffda9abaf5f929cd279ba1a7b850b5c2abaeba3e7fce9ac",
        "alignment_vs_m_logfit.csv": "55c8f576bd2495ef5a32f65784fab79ebcddf5d2f88ee6f51a2694ac0d690cd0",
    },
    "drift": {
        "drift_verdicts.csv": "98ff2a949190825ffa3d8c740cd4c12750a20ae760b7b284d231f8129160a9f0",
    },
    "projected": {
        "projected_verdicts.csv": "8cd321608027c8a43404e89ddf29ba3b6b93a1af93857b711730470529deda05",
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
