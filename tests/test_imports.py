"""Importing qdeny loads numpy and the standard library only, and scipy
stays out until the seed-search warden needs it: `scipy.stats` is never
imported, and `scipy.sparse` is imported by one function,
`dcqke.seed_prefix_incidence`.

A fresh interpreter imports every module, `cli` included, and runs one
BB84 session, one naive-denial coercer trial, one key exchange over UE, an
exact warden bias and a count-test warden's set-up, then checks that
neither scipy submodule was loaded. It then builds one incidence matrix,
after which `scipy.sparse` alone must be loaded. The count pmfs and the
incidence matrix must equal the values this process computes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from qdeny import channel, dcqke

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import importlib, json, pkgutil, sys
import qdeny
for info in pkgutil.iter_modules(qdeny.__path__):
    importlib.import_module("qdeny." + info.name)
from qdeny import bb84, channel, dcqke, denial, ue
from qdeny.rng import RandomStream
from test_imports import incidence_digest, pmf_digest

def loaded():
    return sorted(m for m in ("scipy.stats", "scipy.sparse") if m in sys.modules)

config = bb84.Bb84Config(n=14, delta=0.5)
bb84.run_session(config, channel.QubitChannel(), RandomStream(1))
protocol = denial.NaiveBb84DenialProtocol(config, n_decoys=2)
for b in (0, 1):
    denial.JudgeDistinguisher().decide(protocol.view(RandomStream(2), b), RandomStream(4))
params = ue.UeParams(4, 4)
ue.qke_from_ue(params, ue.generate_ue_key(params, RandomStream(5)), RandomStream(6))
channel.warden_bias_exact(channel.TimeBinChannel(64, 0.1, 0.5), 4)
dcqke.CountTestWarden(dcqke.CovertQkeConfig(
    bb84.Bb84Config(n=7, delta=0.5), channel.TimeBinChannel(4096, 0.05, 0.08),
    dcqke.PrngSpec("strong"), n_used=64))
pmfs = pmf_digest(channel)
before = loaded()
incidence = incidence_digest(dcqke)
print(json.dumps({"before": before, "after": loaded(), "pmfs": pmfs, "incidence": incidence}))
"""


def pmf_digest(channel_mod) -> str:
    """Hash of the count pmfs on a small channel."""
    idle, active = channel_mod.count_distributions(channel_mod.TimeBinChannel(64, 0.1, 0.5), 4)
    return hashlib.sha256(idle.tobytes() + active.tobytes()).hexdigest()


def incidence_digest(dcqke_mod) -> list:
    """Type, shape, dtypes and hash of a small seed-prefix incidence matrix."""
    m = dcqke_mod.seed_prefix_incidence(64, 4, 2)
    parts = [m.indices, m.indptr, m.data]
    return [type(m).__module__, type(m).__name__, list(m.shape),
            [str(a.dtype) for a in parts],
            hashlib.sha256(b"".join(a.tobytes() for a in parts)).hexdigest()]


def test_qdeny_imports_no_scipy_submodule_until_it_needs_one():
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, (str(SRC), str(tests), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    assert child.pop("before") == []
    assert child.pop("after") == ["scipy.sparse"]
    assert child == {"pmfs": pmf_digest(channel),
                     "incidence": json.loads(json.dumps(incidence_digest(dcqke)))}
    assert child["incidence"][:2] == ["scipy.sparse._csr", "csr_matrix"]
