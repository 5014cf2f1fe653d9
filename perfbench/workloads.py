"""Workload definitions: a cirsim experiment config built from (name, seed).

The parameters live in ``workloads.json`` beside this file. The workload seed
picks the synthetic dataset and the run seeds, so the same seed always gives
the same inputs; the program only ever sees the generated config file.
"""

import copy
import json
from pathlib import Path

WORKLOADS_FILE = Path(__file__).with_name("workloads.json")


def load_definitions(path: Path = WORKLOADS_FILE) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def build_config(spec: dict, seed: int, output_dir: str, smoke: bool = False) -> dict:
    """The raw cirsim config for one workload at one workload seed.

    ``smoke`` shrinks the workload to a few experiences, for self-tests.
    """
    raw = _merge(spec["config"], spec["smoke"]) if smoke else copy.deepcopy(spec["config"])
    raw["dataset"]["seed"] = seed
    raw["seeds"] = [seed]
    raw["output_dir"] = output_dir
    return raw
