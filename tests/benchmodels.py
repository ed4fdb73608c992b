"""The benchmark's model generators, ``bench/workloads.py``, loaded from
the checkout under a name of their own."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def workloads():
    # dataclasses look the module up in sys.modules while it executes
    name = "bench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, ROOT / "bench" / "workloads.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]
