"""Byte-identity gate: sha256 of every file the four presets write at tiny
sizes. A change that must leave output bytes alone (a refactor, a faster
kernel) keeps these hashes; a change that means to alter outputs records new
ones and says why.

The hashes were recorded with numpy 2.4.6; another numpy release may draw
or sum differently, so the test is skipped there rather than failing on
bytes this code does not control.
"""

import hashlib

import numpy as np
import pytest

from alignlab.cli import main

NUMPY_VERSION = "2.4.6"

COMMON = ["--d", "24", "--k", "4"]
PRESETS = {
    "simulate": ["simulate", *COMMON, "--eta", "0.02", "--steps", "300", "--m", "8", "--m", "20",
                 "--seed", "1", "--seed", "2"],
    "sweep": ["sweep-gap", *COMMON, "--eta", "0.02", "--steps", "300", "--m", "8", "--m", "20",
              "--seed", "1", "--seed", "2"],
    # 20_001 draws: two full Monte-Carlo batches and a short one
    "drift": ["drift-test", *COMMON, "--m", "8", "--seed", "3", "--n-mc", "20001"],
    "projected": ["projected-test", *COMMON, "--m", "8", "--seed", "3", "--n-mc", "20001", "--n-states", "3"],
}

SHA256 = {
    "simulate": {
        "alignment_m20_seed1.svg": "cf97df7a2a849e49857568a32b9c6eff182b53ef51107131be694da45a949b3e",
        "alignment_m20_seed2.svg": "341de7295758294b736a3a76566299da26250216f63354239caf1bf42b48ccbb",
        "alignment_m8_seed1.svg": "b1c206217d52e2af94e4f2024e0bc546b5e09d656dba6461485db2632eca0098",
        "alignment_m8_seed2.svg": "e5aed05ca4d23e761f693a5ec46c6a7b63f537674a7eecca49684c9e9ee5cca4",
        "loss_m20_seed1.svg": "9445b51616798d697e3e4750f0c2a62cb88a62849223ea08c7726fa4e30bf2ef",
        "loss_m20_seed2.svg": "33ce89aa09da4c725b809a48be67f5402fb311820bd017db2a0bac238eda76c3",
        "loss_m8_seed1.svg": "6d282da77dc13d8fbb354327401f62e7b2c041ee28922e33a2787097d62b876b",
        "loss_m8_seed2.svg": "9562d6f02c7265a1b544de247ca1371c41985fbab357ec5218961885bad66ff0",
        "summary.csv": "307a1bbd93f626817e5d27e3e7f895c69f6ebb75b89a07c48a542267a355c873",
        "traj_m20_seed1.csv": "1939b1cdf47ba119f946845422acf3acc1ca4c3ab02c4a1c392c56c64915cff0",
        "traj_m20_seed2.csv": "1a7dff33ef0426f2db7fd806971ad719aa0b548f1604050f3c2e4a4167cb0d91",
        "traj_m8_seed1.csv": "b9ba6586f30e51868611c374f84c46126a27d2452409d74005cf9f4e9ebc462e",
        "traj_m8_seed2.csv": "76b9ecb482b9abd3945e25bb857e06727fb9dbcc51827867a07f069c39983d9d",
    },
    "sweep": {
        "alignment_vs_m.csv": "6354fc461880086316e960a60ad324df02d5e9d448fae4910de03c3beb2f16f3",
        "alignment_vs_m.svg": "050a5db96e37f21ffc4926162daeedc9aaf116cbb5caa82b7588cbe350ba2f9c",
        "alignment_vs_m_logfit.csv": "7114a45a59e225c164d8ff3551c7479f8d3e2ff308492a6fae369598b5c59a6c",
    },
    "drift": {
        "drift_verdicts.csv": "e5b9becfd2e1ddba6ce801a91d17894dd01a96c7fbae4c562f3ce641a528ac0e",
    },
    "projected": {
        "projected_verdicts.csv": "c32e052a5b417c5e32b83e5fedf3e76a7355ceef7be2b4501b121b4415e72013",
    },
}


@pytest.mark.skipif(np.__version__ != NUMPY_VERSION, reason=f"hashes recorded with numpy {NUMPY_VERSION}")
@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("preset", list(PRESETS))
def test_preset_output_bytes(preset, threads, tmp_path, monkeypatch):
    monkeypatch.setenv("ALIGNLAB_THREADS", threads)
    out = tmp_path / preset
    assert main([*PRESETS[preset], "--out", str(out)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == SHA256[preset]
