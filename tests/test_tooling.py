"""Guards for the benchmark's tooling that lives outside the package."""

import importlib
import importlib.util
import runpy
from pathlib import Path

import pytest

from cirsim import harness
from cirsim.config import ExperimentConfig

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


@pytest.mark.parametrize("checkpoint_every, input_builds", [(0, 0), (2, 1)])
def test_traced_analyze_builds_inputs_once_per_checkpoint_pair_run(
    tmp_path, checkpoint_every, input_builds
):
    # the per-layer metric harness.load_inputs.s reads the spans of the
    # name the tracer wraps: analyze must call it by that name, and only
    # when a checkpoint pair needs the dataset
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    out = tmp_path / "out"
    cfg = ExperimentConfig.from_dict({
        "schema_version": 1,
        "dataset": {"kind": "synthetic", "num_classes": 4, "per_class": 20,
                    "dim": 5, "spread": 0.5, "test_fraction": 0.2, "seed": 0},
        "generator": {"kind": "sampling", "n": 6, "s": 30,
                      "first_occurrence": {"kind": "geometric", "param": 0.3},
                      "repetition": {"mode": "constant", "value": 0.4}},
        "strategies": ["naive", "er-rs"],
        "buffer": {"size": 30, "policy": "rs"},
        "model": {"hidden": [8], "activation": "relu"},
        "seeds": [0, 1],
        "output_dir": str(out),
        "checkpoint_every": checkpoint_every,
    })
    assert harness.run(cfg) == harness.EXIT_OK
    modules = {
        name: importlib.import_module(f"cirsim.{name}")
        for name, _, _ in tracer_module.TARGETS
    }
    tracer = tracer_module.Tracer()
    tracer.install(modules)
    try:
        assert harness.analyze(out, force_all=True) == harness.EXIT_OK
    finally:
        tracer.uninstall()
    assert tracer.count("harness.analyze", "") == 1
    assert tracer.count("harness.load_inputs", "") == input_builds
