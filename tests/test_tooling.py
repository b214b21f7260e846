"""The benchmark's tracer wraps contlogic functions by name; those names must exist."""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parent.parent / "bench" / "layertrace.py"


def test_every_traced_name_is_a_callable():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    missing = []
    for short, attrs in layertrace.WRAPPED.items():
        module = importlib.import_module(f"contlogic.{short}")
        for attr in attrs:
            owner = module
            for part in attr.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"contlogic.{short}.{attr}")
    assert not missing, missing
