from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import txckpt

MODULES = ["dependence", "model", "protocol", "scenario", "sim", "theory"]


def test_package_root_loads_the_modules_and_re_exports_nothing():
    # A fresh interpreter, so that no other test's imports are counted.
    src = str(Path(txckpt.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import txckpt; "
        "print(sorted(n for n in vars(txckpt) if not n.startswith('_'))); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'txckpt'))"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True).stdout
    names, modules = out.splitlines()
    assert names == repr(MODULES)
    assert modules == repr(["txckpt", *(f"txckpt.{m}" for m in MODULES)])
