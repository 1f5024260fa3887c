"""Importing the program loads none of scipy's heavy modules.

``scipy.special`` loads at the first transient curve or Student-t
interval and ``scipy.sparse`` at the first sparse solve; no program
path loads ``scipy.stats`` or ``scipy.optimize``, and both stay listed
so that a change which brings one back fails here.  A fresh interpreter
imports every entry point and reports what it loaded, so the check
needs no timing.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import repro

PROGRAM_MODULES = (
    "repro.runtime",
    "repro.multihop",
    "repro.experiments.simsupport",
    "repro.api",
    "repro.cli",
)

HEAVY_MODULES = ("scipy.stats", "scipy.special", "scipy.optimize", "scipy.sparse")

_PROBE = """\
import importlib, json, sys
sys.path.insert(0, sys.argv[1])
for name in sys.argv[3:]:
    importlib.import_module(name)
print(json.dumps([name for name in json.loads(sys.argv[2]) if name in sys.modules]))
"""


def _loaded_after_import(modules, probed) -> list[str]:
    source = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE, source, json.dumps(probed), *modules],
        capture_output=True,
        check=True,
        text=True,
        timeout=120,
    )
    return json.loads(probe.stdout)


def test_program_import_loads_no_heavy_scipy_module():
    assert _loaded_after_import(PROGRAM_MODULES, HEAVY_MODULES) == []


def test_probe_sees_a_loaded_module():
    # The probe itself must be able to fail: importing the transient
    # kernel's scipy dependency directly shows up.
    assert _loaded_after_import(("scipy.special",), HEAVY_MODULES) == ["scipy.special"]
