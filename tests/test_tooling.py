"""Guards for the benchmark's tooling that lives outside the package."""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_is_defined():
    # the tracer patches owner.__dict__[name]; a renamed or deleted target
    # would fail every traced benchmark repetition
    targets = runpy.run_path(str(TRACER))["TARGETS"]
    assert targets
    for module_name, qualname, _ in targets:
        owner = importlib.import_module(f"cirsim.{module_name}")
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert attr in owner.__dict__, f"{module_name}.{qualname}"
