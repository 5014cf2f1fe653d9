"""Self-tests for the benchmark.

    python3 -m pytest perfbench -q
"""

import json
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

DEFINITIONS = workloads.load_definitions()
NAMES = sorted(DEFINITIONS["workloads"])


@pytest.fixture(scope="module")
def cirsim_modules():
    run.require_source()
    return run.fresh_cirsim()


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("parent", 0.0, 10.0, -1, "0/run", None),
        ("child", 1.0, 3.0, 0, "0/run", None),
        ("grandchild", 1.5, 2.5, 1, "0/run", None),
        ("child", 5.0, 6.0, 0, "0/run", None),
    ]
    assert tracer.self_times(spans) == pytest.approx([7.0, 1.0, 1.0, 1.0])


def test_tracer_patches_by_name_imports_and_restores(cirsim_modules):
    learner, metrics = cirsim_modules["learner"], cirsim_modules["metrics"]
    buffers = cirsim_modules["buffers"]
    original = learner.predict
    t = tracer.Tracer()
    t.install(cirsim_modules)
    try:
        assert metrics.predict is learner.predict is not original
        t.run_id = "0/run"
        buffers.class_balanced_quotas([3, 1], 5)
    finally:
        t.uninstall()
    assert metrics.predict is learner.predict is original
    stats = t.stats("0/")
    assert stats["buffers.class_balanced_quotas"]["calls"] == 1
    assert t.count("buffers.class_balanced_quotas", "0/run") == 1


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_digest_catches_one_byte_change_and_skips_nondeterministic_bytes(tmp_path):
    _write(tmp_path / "naive" / "seed0" / "metrics.csv", "0,naive,0,0.500000\n")
    _write(tmp_path / "config.json", json.dumps({"output_dir": "/a", "seeds": [0]}))
    _write(tmp_path / "summary.json", json.dumps({"created_unix": 1.0}))
    digest, size = checks.output_digest(tmp_path)
    assert size > 0

    _write(tmp_path / "summary.json", json.dumps({"created_unix": 2.0}))
    _write(tmp_path / "config.json", json.dumps({"output_dir": "/b", "seeds": [0]}))
    assert checks.output_digest(tmp_path)[0] == digest

    _write(tmp_path / "naive" / "seed0" / "metrics.csv", "0,naive,0,0.500001\n")
    assert checks.output_digest(tmp_path)[0] != digest


@pytest.mark.parametrize("name", NAMES)
def test_workload_configs_pass_validation(name, cirsim_modules):
    spec = DEFINITIONS["workloads"][name]
    for smoke in (False, True):
        raw = workloads.build_config(spec, 7, "out", smoke=smoke)
        cfg = cirsim_modules["config"].ExperimentConfig.from_dict(raw)
        assert list(cfg.seeds) == raw["seeds"]
    assert workloads.build_config(spec, 7, "out") == workloads.build_config(spec, 7, "out")


def test_benchmark_json_matches_the_code():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in bench["workloads"]) == NAMES
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)


def test_each_timing_is_scaled_by_its_own_probe():
    ref = run.REFERENCE_PROBE_S

    def rep(traced, **phases):
        out = {"traced": traced, "output_bytes": 10**6}
        for phase, (seconds, probes) in phases.items():
            out[f"{phase}_s"], out[f"{phase}_probe_s"] = seconds, [p * ref for p in probes]
        return out

    reps = [
        rep(False, setup=([2.0], [2.0]), run=([4.0], [2.0]), inspect=([1.0, 3.0], [2.0, 1.0]),
            analyze=([2.0], [2.0])),
        rep(False, setup=([0.5], [0.5]), run=([1.0], [0.5]), inspect=([1.0], [1.0]),
            analyze=([0.5], [0.5])),
        rep(True, setup=([9.0], [0.0]), run=([9.0], [0.0]), inspect=([9.0], [0.0]),
            analyze=([9.0], [0.0])),
    ]
    metrics = run.end_to_end_metrics(reps)
    assert metrics["setup_s"] == (1.0, [1.0, 1.0])
    assert metrics["run_s"] == (2.0, [2.0, 2.0])
    assert metrics["inspect_s"] == (1.0, [0.5, 3.0, 1.0])
    assert metrics["output_mb"] == (1.0, [1.0, 1.0])


def test_probed_call_takes_interior_probes_out_of_its_time():
    def busy():
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        return "done"

    seconds, probe_s, result = run._probed_call(busy, interior=True)
    assert result == "done" and probe_s > 0
    assert seconds < 0.2  # the probes ran inside the 0.2 s the loop spun
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_output_checks_catch_a_missing_metric_row(tmp_path, cirsim_modules):
    spec = DEFINITIONS["workloads"]["replay-grid"]
    out = tmp_path / "out"
    raw = workloads.build_config(spec, 0, str(out), smoke=True)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw))
    rep = run.run_rep(raw, cfg_path, out, 0)
    assert rep["problems"] == []
    metrics_csv = out / "er-fa" / f"seed{raw['seeds'][0]}" / "metrics.csv"
    lines = metrics_csv.read_text().splitlines(keepends=True)
    metrics_csv.write_text("".join(lines[:-1]))
    assert any("metric rows" in p for p in checks.check_outputs(raw, out))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_size_runs_every_workload_end_to_end(name, trace, capsys, tmp_path, monkeypatch,
                                                   cirsim_modules):
    monkeypatch.setattr(run, "WORK", tmp_path)  # keep smoke results out of .perfbench/
    result = run.run_workload(name, seed=1, seconds=0, trace=trace, smoke=True)
    final = run.report(result)
    assert final["correct"], capsys.readouterr().out
    assert final["attempted"] >= run.MIN_REPS and final["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert [(k, v["unit"]) for k, v in final["metrics"].items()] == list(expected)
    assert all(v["value"] > 0 for k, v in final["metrics"].items()
               if k in ("setup_s", "trace.overhead_s"))
