"""Nothing in ``repro`` needs SciPy.

A fresh interpreter blocks the import (``sys.modules["scipy"] = None``
makes every ``import scipy...`` raise ``ImportError``), imports every
module under ``src/repro`` (each CLI guards its ``main()``), and then
runs a RowClone on an ideal die, where every latch fight saturates, and
a small NOT measurement on a calibrated die, whose fights are decided
through the bound tables of :mod:`repro.dram.normal`.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
#: Every module and subpackage below ``repro`` itself.
MODULES = len(list(pathlib.Path(SRC, "repro").rglob("*.py"))) - 1

_SCRIPT = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None
sys.path.insert(0, {src!r})
import numpy as np
import repro
modules = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in modules:
    importlib.import_module(name)

from repro import ChipGeometry, SeedTree, ideal_calibration, sk_hynix_chip
from repro.bender import DramBenderHost
from repro.core.addressing import find_pattern_pair
from repro.core.rowclone import rowclone
from repro.core.success import NotSuccessMeasurement
from repro.dram import batch
from repro.dram.decoder import ActivationKind
from repro.dram.module import Module

decisions = []
decide = batch.below_ndtr
batch.below_ndtr = lambda u, z: decisions.append(u.size) or decide(u, z)
geometry = ChipGeometry(banks=2, subarrays_per_bank=4, rows_per_subarray=192, columns=64)

def module(calibration):
    chip = sk_hynix_chip().with_geometry(geometry)
    return Module(chip, chip_count=1, seed_tree=SeedTree(7), calibration=calibration)

host = DramBenderHost(module(ideal_calibration()))
src, dst = geometry.bank_row(0, 17), geometry.bank_row(0, 90)
host.fill_row(0, src, host.random_bits(np.random.default_rng(3)))
rowclone(host, 0, src, dst)
assert np.array_equal(host.read_row(0, dst), host.read_row(0, src))
saturated = len(decisions)

calibrated = module(None)
host = DramBenderHost(calibrated)
pair = find_pattern_pair(
    calibrated.decoder, geometry, 0, 0, 1, 4, ActivationKind.N_TO_N, seed=4, max_tries=20_000
)
NotSuccessMeasurement(host, 0, *pair).run(9, np.random.default_rng(5))
print(len(modules), "scipy" in sys.modules and sys.modules["scipy"] is None, saturated, len(decisions))
""".format(src=SRC)


def test_repro_imports_and_runs_with_scipy_blocked():
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    modules, blocked, saturated, decisions = done.stdout.split()
    assert int(modules) == MODULES and blocked == "True"
    # The RowClone decided every column without the tables; the NOT
    # measurement went through them.
    assert int(saturated) == 0 and int(decisions) > 0
