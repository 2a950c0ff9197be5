"""Byte-identity of the program's outputs.

A small gen-data, train, sweep, diagnose and theory run goes through the
CLI in a subprocess with single-threaded OpenBLAS, and every file it writes
(train's fig_*.csv figure series included) must hash to the sha256 digest
recorded in ``cli_digests.json``; so must an MLP checkpoint written by
``mlp.save_params``.  An intended output change shows up as a changed
digest, with its reason in CHANGES.md.  Re-record with

    PYTHONPATH=src python tests/test_cli_digests.py

The record names the machine it was taken on (core count, numpy version and
OpenBLAS core type).  Another BLAS kernel may round differently; a mismatch
there is a finding about the contract, not a reason to loosen this test.
"""

import ctypes
import glob
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from risfed import mlp

HERE = Path(__file__).resolve().parent
RECORD = HERE / "cli_digests.json"
SMALL = ["--set", "K=30", "--set", "J=400"]
SEEDS = ["--seed-list", "0,1"]
COMMANDS = (  # (output directory, risfed arguments), run in this order
    ("data", ["gen-data", "--set", "J=400"]),
    ("train", ["train", *SMALL, "--set", "eval_every=3", *SEEDS]),
    ("sweep", ["sweep", "tau=1,5", *SMALL, *SEEDS]),
    ("diagnose", ["diagnose", *SMALL, "--probes", "100"]),
    ("theory", ["theory", "--set", "J=400", "--seed-list", "0", "--probes", "100"]),
)


def _blas_core() -> str:
    """The OpenBLAS core type of numpy's bundled library, or 'unknown'."""
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(ctypes.CDLL(lib), name, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return "unknown"


def environment() -> dict:
    return {"nproc": os.cpu_count(), "numpy": np.__version__, "blas_core": _blas_core(),
            "OPENBLAS_NUM_THREADS": "1"}


def output_digests(out: Path) -> dict[str, str]:
    """Run COMMANDS under ``out`` and hash every file they and save_params write."""
    src = str(HERE.parent / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    for sub, argv in COMMANDS:
        subprocess.run([sys.executable, "-m", "risfed.cli", *argv, "--out-dir", str(out / sub)],
                       env=env, check=True, stdout=subprocess.DEVNULL)
    (out / "checkpoint").mkdir()
    mlp.save_params(mlp.init(np.random.default_rng(0)), str(out / "checkpoint" / "init.bin"))
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


def test_cli_outputs_match_recorded_digests(tmp_path):
    record = json.loads(RECORD.read_text())
    digests = output_digests(tmp_path)
    changed = sorted(k for k in digests.keys() | record["digests"].keys()
                     if digests.get(k) != record["digests"].get(k))
    assert not changed, (f"outputs differ from {RECORD.name}: {changed}; recorded on "
                         f"{record['environment']}, run on {environment()}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        RECORD.write_text(json.dumps({"environment": environment(), "digests": output_digests(Path(tmp))},
                                     indent=1) + "\n")
    print(RECORD)
