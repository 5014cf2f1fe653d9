import builtins
import ctypes
import hashlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cirsim import analysis, cli, files, harness, learner, pool
from cirsim.config import ConfigError, ExperimentConfig, apply_override, load_config
from cirsim.distributions import PMF_KINDS
from cirsim.metrics import EvalContext, parse_csv
from cirsim.stream import Stream


def small_config(out_dir, **updates):
    raw = {
        "schema_version": 1,
        "dataset": {"kind": "synthetic", "num_classes": 5, "per_class": 30,
                    "dim": 6, "spread": 0.6, "test_fraction": 0.2, "seed": 0},
        "generator": {"kind": "sampling", "n": 8, "s": 40,
                      "first_occurrence": {"kind": "geometric", "param": 0.3},
                      "repetition": {"mode": "constant", "value": 0.4}},
        "strategies": ["naive", "er-rs"],
        "buffer": {"size": 40, "policy": "rs"},
        "train": {"lr": 0.2, "epochs_per_experience": 1, "batch_size": 16,
                  "replay_mix": 0.5},
        "model": {"hidden": [8], "activation": "relu"},
        "seeds": [0, 1, 2],
        "output_dir": str(out_dir),
        "checkpoint_every": 0,
        "analysis": {},
    }
    for key, value in updates.items():
        raw[key] = value
    return raw


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


class _Killed(BaseException):
    """A kill: no handler of the program catches it, and the write it
    interrupts cleans nothing up."""


def _run_killed_after(cfg, strategy, index, out_dir=None) -> None:
    """Run ``cfg`` and kill it right after ``strategy``'s cell of the grid's
    last seed has recorded experience ``index``: its rows, and at a
    checkpoint point its checkpoint and ``state_<index>.json``, have landed.
    Earlier seeds have finished, as in a real run, and no summary is left."""
    step, seed = harness.Cell.step, cfg.seeds[-1]

    def killing_step(cell, exp, ctx):
        step(cell, exp, ctx)
        if (cell.strategy, cell.seed, exp.index) == (strategy, seed, index):
            raise _Killed

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness.Cell, "step", killing_step)
        with pytest.raises(_Killed):
            harness.run(cfg, out_dir=out_dir)
    assert not Path(out_dir or cfg.output_dir, "summary.json").exists()


def _workers(monkeypatch, n: int) -> None:
    """Run each grid of this test in at most ``n`` processes (``n`` - 1
    forked workers), whatever the CPUs of the host; 1 keeps every cell in
    the test's own process, where its patches observe them."""
    monkeypatch.setattr(pool, "worker_count", lambda n_cells: min(n_cells, n))


def test_grid_file_count_contract(tmp_path):
    out = tmp_path / "out"
    cfg = ExperimentConfig.from_dict(small_config(out))
    assert harness.run(cfg) == harness.EXIT_OK
    metrics_files = sorted(out.rglob("metrics.csv"))
    assert len(metrics_files) == 6  # 2 strategies x 3 seeds
    assert (out / "summary.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["strategies"]) == {"naive", "er-rs"}
    for agg in summary["strategies"].values():
        assert agg["final_ta"] is not None
        assert len(agg["final_ta"]["values"]) == 3


def test_rerun_produces_byte_identical_csvs(tmp_path):
    raw = small_config(tmp_path / "a")
    cfg = ExperimentConfig.from_dict(raw)
    assert harness.run(cfg, out_dir=tmp_path / "a") == harness.EXIT_OK
    assert harness.run(cfg, out_dir=tmp_path / "b") == harness.EXIT_OK
    for rel in [p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.csv")]:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_metrics_rows_and_digest_stamp(tmp_path):
    out = tmp_path / "out"
    cfg = ExperimentConfig.from_dict(small_config(out, strategies=["er-cb"], seeds=[0]))
    harness.run(cfg)
    path = out / "er-cb" / "seed0" / "metrics.csv"
    first = path.read_text().splitlines()[0]
    assert first == f"# config_digest={cfg.digest()}"
    rows = parse_csv(path)
    assert [r["experience_index"] for r in rows] == list(range(8))
    assert all(r["strategy"] == "er-cb" for r in rows)
    trace = out / "er-cb" / "seed0" / "buffer_trace.csv"
    lines = trace.read_text().splitlines()
    assert lines[1] == "experience_index,class_id,stored_count,observation_count,quota"
    manifest = json.loads((out / "er-cb" / "seed0" / "stream_manifest.json").read_text())
    assert manifest["config_digest"] == cfg.digest()


def test_buffer_policy_never_perturbs_stream(tmp_path):
    out = tmp_path / "out"
    cfg = ExperimentConfig.from_dict(
        small_config(out, strategies=["er-rs", "er-fa"], seeds=[0])
    )
    harness.run(cfg)
    a = (out / "er-rs" / "seed0" / "stream_manifest.json").read_text()
    b = (out / "er-fa" / "seed0" / "stream_manifest.json").read_text()
    assert a == b


def test_infeasible_slot_config_fails_before_training(tmp_path):
    out = tmp_path / "out"
    raw = small_config(out, generator={"kind": "slot", "n": 5, "k": 11})
    cfg = ExperimentConfig.from_dict(raw)
    with pytest.raises(ConfigError, match="slots_per_experience"):
        harness.run(cfg)
    assert not (out / "summary.json").exists()


def _count_stream_builds(monkeypatch) -> list[int]:
    """Patch ``harness.build_stream`` to record the seed of every call."""
    seeds = []
    original = harness.build_stream

    def counting(cfg, dataset, seed):
        seeds.append(seed)
        return original(cfg, dataset, seed)

    monkeypatch.setattr(harness, "build_stream", counting)
    return seeds


def test_run_builds_each_seed_stream_once(tmp_path, monkeypatch):
    out = tmp_path / "out"
    cfg = ExperimentConfig.from_dict(small_config(out, seeds=[0, 1]))
    seeds = _count_stream_builds(monkeypatch)
    assert harness.run(cfg) == harness.EXIT_OK
    assert sorted(seeds) == [0, 1]  # 2 strategies x 2 seeds, one stream per seed
    for seed in (0, 1):
        a = (out / "naive" / f"seed{seed}" / "stream_manifest.json").read_bytes()
        b = (out / "er-rs" / f"seed{seed}" / "stream_manifest.json").read_bytes()
        assert a == b
        assert json.loads(a)["config_digest"] == cfg.digest()


def _reference_manifest(cfg, seed, path) -> bytes:
    train_set, _ = harness.load_inputs(cfg)
    harness.build_stream(cfg, train_set, seed).save_manifest(path, config_digest=cfg.digest())
    return path.read_bytes()


def _assert_manifests_match_reference(tmp_path, out, cfg) -> None:
    for seed in cfg.seeds:
        expected = _reference_manifest(cfg, seed, tmp_path / f"reference{seed}.json")
        for strategy in cfg.strategies:
            path = out / strategy / f"seed{seed}" / "stream_manifest.json"
            assert path.read_bytes() == expected, path


def test_run_serialises_each_seed_manifest_once(tmp_path, monkeypatch):
    out = tmp_path / "out"
    strategies = ["naive", "er-rs", "er-fa"]
    cfg = ExperimentConfig.from_dict(small_config(out, strategies=strategies, seeds=[0, 1]))
    _workers(monkeypatch, 1)  # the count sees the calls of this process alone
    serialised = []
    manifest_text = Stream.manifest_text

    def counting(self, config_digest=None):
        serialised.append(config_digest)
        return manifest_text(self, config_digest)

    monkeypatch.setattr(Stream, "manifest_text", counting)
    assert harness.run(cfg) == harness.EXIT_OK
    assert serialised == [cfg.digest()] * 2  # one per seed, not per cell
    monkeypatch.undo()
    _assert_manifests_match_reference(tmp_path, out, cfg)


def test_run_builds_one_evaluation_context_per_seed_and_experience(tmp_path, monkeypatch):
    out = tmp_path / "out"
    cfg = ExperimentConfig.from_dict(
        small_config(out, strategies=["naive", "er-rs", "er-fa"], seeds=[0, 1])
    )
    _workers(monkeypatch, 1)  # the count sees the calls of this process alone
    built = []

    def counting(*args):
        built.append(EvalContext(*args))
        return built[-1]

    monkeypatch.setattr(harness.metrics, "EvalContext", counting)
    assert harness.run(cfg) == harness.EXIT_OK
    n = cfg.generator.n
    assert len(built) == 2 * n  # one per seed and experience, not one per cell
    train_set, _ = harness.load_inputs(cfg)
    for seed, contexts in zip(cfg.seeds, (built[:n], built[n:])):
        seen = set()
        for exp, ctx in zip(harness.build_stream(cfg, train_set, seed), contexts):
            seen |= exp.present_classes
            assert ctx == EvalContext(frozenset(seen), exp.present_classes)


def test_resume_rewrites_every_torn_manifest(tmp_path):
    # a run killed mid-stream, whose cells' manifests were then torn (naive's
    # too) and one of whose strategies was removed: every cell, resumed or
    # started afresh, writes the seed's manifest whole
    out = tmp_path / "out"
    strategies = ["naive", "er-rs", "er-fa"]
    cfg = ExperimentConfig.from_dict(
        small_config(out, strategies=strategies, seeds=[0, 1], checkpoint_every=2)
    )
    _run_killed_after(cfg, "er-fa", 3)
    for seed in (0, 1):
        for strategy in strategies[:2]:
            torn = out / strategy / f"seed{seed}" / "stream_manifest.json"
            torn.write_bytes(torn.read_bytes()[:60])
    shutil.rmtree(out / "er-fa")
    assert harness.run(cfg, resume=True) == harness.EXIT_OK
    _assert_manifests_match_reference(tmp_path, out, cfg)
    assert not list(out.rglob("*.tmp"))


def test_resume_refuses_a_changed_csv_dataset(tmp_path, capsys):
    # a CSV dataset's contents are not in the config digest: the manifest's
    # dataset_ref is what shows that the input changed under the resume
    from cirsim.stream import make_synthetic_dataset, save_dataset_csv

    train, test = make_synthetic_dataset(4, 20, 5, 0.4, np.random.default_rng(0))
    save_dataset_csv(train, tmp_path / "train.csv")
    save_dataset_csv(test, tmp_path / "test.csv")
    out = tmp_path / "out"
    raw = small_config(
        out,
        dataset={"kind": "csv", "train_path": str(tmp_path / "train.csv"),
                 "test_path": str(tmp_path / "test.csv")},
        strategies=["naive", "er-rs"], seeds=[0], checkpoint_every=2,
    )
    path = write_config(tmp_path, raw)
    _run_killed_after(ExperimentConfig.from_dict(raw), "er-rs", 3)
    manifest = out / "naive" / "seed0" / "stream_manifest.json"
    before = manifest.read_bytes()
    train_csv = tmp_path / "train.csv"
    original = train_csv.read_text()
    header, first, *rest = original.splitlines(keepends=True)
    label, feature, *others = first.split(",")
    changed = ",".join([label, repr(float(feature) + 0.25), *others])
    train_csv.write_text(header + changed + "".join(rest))
    capsys.readouterr()
    every_byte = _every_byte(out)
    assert cli.main(["run", str(path), "--resume"]) == harness.EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(manifest) in err and "dataset_ref" in err
    assert _every_byte(out) == every_byte
    # the unchanged dataset resumes to the end
    train_csv.write_text(original)
    assert cli.main(["run", str(path), "--resume"]) == harness.EXIT_OK
    assert parse_csv(out / "er-rs" / "seed0" / "metrics.csv")[-1]["experience_index"] == 7
    assert manifest.read_bytes() == before


def test_stopped_and_resumed_grid_writes_the_uninterrupted_summary(tmp_path):
    strategies = ["naive", "er-rs", "er-cb", "er-fa"]
    raw = small_config(tmp_path / "whole", strategies=strategies, seeds=[0, 1],
                       checkpoint_every=2)
    cfg = ExperimentConfig.from_dict(raw)
    resumed = tmp_path / "resumed"
    assert harness.run(cfg, out_dir=tmp_path / "whole") == harness.EXIT_OK
    _run_killed_after(cfg, "er-cb", 3, out_dir=resumed)  # and no summary is left
    assert harness.run(cfg, out_dir=resumed, resume=True) == harness.EXIT_OK
    summaries = []
    for run_dir in (tmp_path / "whole", resumed):
        summary = json.loads((run_dir / "summary.json").read_text())
        summary.pop("created_unix")
        summaries.append(summary)
        assert not list(run_dir.rglob("*.tmp"))
    assert summaries[0] == summaries[1]
    assert set(summaries[1]["strategies"]) == set(strategies)


def _count_input_builds(monkeypatch) -> list[str]:
    """Patch ``harness.load_inputs`` to record the config digest of every call."""
    digests = []
    original = harness.load_inputs

    def counting(cfg):
        digests.append(cfg.digest())
        return original(cfg)

    monkeypatch.setattr(harness, "load_inputs", counting)
    return digests


def test_analyze_builds_streams_only_for_interpolation(tmp_path, monkeypatch):
    _workers(monkeypatch, 2)  # the inputs are built here, before the fork
    out, lone = tmp_path / "out", tmp_path / "lone"
    raw = small_config(out, seeds=[0, 1], checkpoint_every=3,
                       analysis={"block_distance": {"enabled": True},
                                 "cka": {"enabled": True, "probe_size": 16}})
    assert harness.run(ExperimentConfig.from_dict(raw)) == harness.EXIT_OK
    # checkpointed only at the end: one trained checkpoint per cell, no pair
    lone_cfg = ExperimentConfig.from_dict({**raw, "checkpoint_every": 0})
    assert harness.run(lone_cfg, out_dir=lone) == harness.EXIT_OK
    seeds = _count_stream_builds(monkeypatch)
    loads = _count_input_builds(monkeypatch)
    assert harness.analyze(lone, force_all=True) == harness.EXIT_OK
    assert (seeds, loads) == ([], [])  # block distance reads checkpoints alone
    assert harness.analyze(out) == harness.EXIT_OK
    assert seeds == []
    assert len(loads) == 1  # the CKA probe, built once for all four cells
    loads.clear()
    assert harness.analyze(out, force_all=True) == harness.EXIT_OK
    assert sorted(seeds) == [0, 1]  # interpolation: once per seed, not per cell
    assert len(loads) == 1  # one dataset for both seeds' streams and the probe


def _csv_run_without_its_files(tmp_path, analysis) -> tuple[Path, Path]:
    """(run dir, train CSV) of a finished CSV-dataset run with checkpoint
    pairs, after its CSV files and analysis outputs were deleted."""
    from cirsim.stream import make_synthetic_dataset, save_dataset_csv

    train, test = make_synthetic_dataset(4, 20, 5, 0.4, np.random.default_rng(0))
    train_csv, test_csv = tmp_path / "train.csv", tmp_path / "test.csv"
    save_dataset_csv(train, train_csv)
    save_dataset_csv(test, test_csv)
    out = tmp_path / "out"
    raw = small_config(
        out, dataset={"kind": "csv", "train_path": str(train_csv), "test_path": str(test_csv)},
        strategies=["naive"], seeds=[0], checkpoint_every=2, analysis=analysis,
    )
    assert harness.run(ExperimentConfig.from_dict(raw)) == harness.EXIT_OK
    for path in [train_csv, test_csv, *out.glob("*/seed*/analysis/*.csv")]:
        path.unlink()
    return out, train_csv


def test_block_distance_alone_needs_no_dataset_files(tmp_path):
    out, _ = _csv_run_without_its_files(tmp_path, {"block_distance": {"enabled": True}})
    assert cli.main(["analyze", str(out)]) == harness.EXIT_OK
    lines = (out / "naive" / "seed0" / "analysis" / "block_distance.csv").read_text().splitlines()
    assert {line.split(",")[0] for line in lines[2:]} == {"1", "3", "5", "7"}


@pytest.mark.parametrize("analysis", [
    {"interpolation": {"enabled": True}},
    {"cka": {"enabled": True, "probe_size": 16}},
])
def test_analysis_of_a_pair_without_dataset_files_exit_2(tmp_path, capsys, analysis):
    out, train_csv = _csv_run_without_its_files(tmp_path, analysis)
    capsys.readouterr()
    assert cli.main(["analyze", str(out)]) == harness.EXIT_CONFIG
    assert str(train_csv) in capsys.readouterr().err
    assert not (out / "error_report.json").exists()  # not a cell's failure
    assert not list(out.glob("*/seed*/analysis/*"))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_runtime_failure_writes_error_report(tmp_path):
    out = tmp_path / "out"
    raw = small_config(out, train={"lr": 1e9, "epochs_per_experience": 5,
                                   "batch_size": 16, "replay_mix": 0.5})
    cfg = ExperimentConfig.from_dict(raw)
    assert harness.run(cfg) == harness.EXIT_RUNTIME
    report = json.loads((out / "error_report.json").read_text())
    assert report["incomplete"] is True
    assert "TrainingDiverged" in report["error"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_runtime_failure_report_names_the_cell(tmp_path, monkeypatch):
    out = tmp_path / "out"
    raw = small_config(out, seeds=[0, 1], train={"lr": 1e9, "epochs_per_experience": 5,
                                                 "batch_size": 16, "replay_mix": 0.5})
    _workers(monkeypatch, 2)  # naive's cells here, er-rs's in a worker
    assert harness.run(ExperimentConfig.from_dict(raw)) == harness.EXIT_RUNTIME
    report = json.loads((out / "error_report.json").read_text())
    assert "TrainingDiverged" in report["error"]
    # seed 0's cells step together; er-rs is the first whose loss goes non-finite
    assert (report["strategy"], report["seed"]) == ("er-rs", 0)
    assert sorted(p.relative_to(out).as_posix() for p in out.glob("*/seed*")) == [
        "er-rs/seed0", "naive/seed0"
    ]


def test_a_seed_level_failure_names_the_seed_alone(tmp_path, monkeypatch):
    # the stream of seed 1 fails to build after seed 0's cells all finished
    out = tmp_path / "out"
    cfg = ExperimentConfig.from_dict(small_config(out, seeds=[0, 1]))
    build_stream = harness.build_stream

    def failing_on_seed_1(cfg, dataset, seed):
        if seed == 1:
            raise RuntimeError("no stream")
        return build_stream(cfg, dataset, seed)

    monkeypatch.setattr(harness, "build_stream", failing_on_seed_1)
    assert harness.run(cfg) == harness.EXIT_RUNTIME
    report = json.loads((out / "error_report.json").read_text())
    assert report["error"] == "RuntimeError('no stream')"
    assert report["seed"] == 1 and "strategy" not in report


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("resume", [False, True])
def test_successful_run_removes_an_earlier_error_report(tmp_path, resume):
    out = tmp_path / "out"
    diverging = small_config(out, train={"lr": 1e9, "epochs_per_experience": 5,
                                         "batch_size": 16, "replay_mix": 0.5})
    assert harness.run(ExperimentConfig.from_dict(diverging)) == harness.EXIT_RUNTIME
    assert json.loads((out / "error_report.json").read_text())["incomplete"] is True
    # the diverged cell saved no state, so a resume starts every cell afresh
    sane = ExperimentConfig.from_dict(small_config(out))
    assert harness.run(sane, resume=resume) == harness.EXIT_OK
    assert not (out / "error_report.json").exists()


def _cells(out: Path) -> list[str]:
    return sorted(p.relative_to(out).as_posix() for p in out.glob("*/seed*"))


def test_fresh_run_removes_cells_outside_its_grid(tmp_path):
    out = tmp_path / "out"
    wide = ExperimentConfig.from_dict(small_config(out, seeds=[0, 1]))
    narrow = ExperimentConfig.from_dict(small_config(out, strategies=["naive"], seeds=[0]))
    _run_killed_after(narrow, "naive", 3)  # checkpoint_every 0: no state, resumed afresh
    assert harness.run(wide, out_dir=tmp_path / "wide") == harness.EXIT_OK
    for cell in ("er-rs/seed0", "er-rs/seed1", "naive/seed1"):
        shutil.copytree(tmp_path / "wide" / cell, out / cell)
    assert harness.run(narrow, resume=True) == harness.EXIT_OK  # a resume keeps them
    assert _cells(out) == ["er-rs/seed0", "er-rs/seed1", "naive/seed0", "naive/seed1"]
    assert harness.run(narrow) == harness.EXIT_OK
    assert _cells(out) == ["naive/seed0"]
    assert not (out / "er-rs").exists()  # left empty, so removed
    assert harness.analyze(out, force_all=True) == harness.EXIT_OK


def test_fresh_run_leaves_directories_that_are_not_cells(tmp_path):
    out = tmp_path / "out"
    cfg = ExperimentConfig.from_dict(small_config(out, strategies=["naive"], seeds=[0]))
    unrelated = {
        "notes/todo.txt": "read the paper again\n",
        "notes/seed3/metrics.csv": "experience_index,ta\n",  # no config digest
        "er-rs/seed1/summary.txt": "kept\n",  # no metrics.csv
        "er-rs/seedling/metrics.csv": "# config_digest=0\n",  # not seed<k>
    }
    for name, text in unrelated.items():
        (out / name).parent.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text)
    assert harness.run(cfg) == harness.EXIT_OK
    for name, text in unrelated.items():
        assert (out / name).read_text() == text


def test_resume_matches_uninterrupted_run(tmp_path):
    raw = small_config(tmp_path / "full", checkpoint_every=3)
    cfg = ExperimentConfig.from_dict(raw)
    assert harness.run(cfg, out_dir=tmp_path / "full") == harness.EXIT_OK

    _run_killed_after(cfg, "er-rs", 2, out_dir=tmp_path / "resumed")
    assert harness.run(cfg, out_dir=tmp_path / "resumed", resume=True) == harness.EXIT_OK
    for rel in [p.relative_to(tmp_path / "full")
                for p in (tmp_path / "full").rglob("metrics.csv")]:
        full = (tmp_path / "full" / rel).read_bytes()
        resumed = (tmp_path / "resumed" / rel).read_bytes()
        assert full == resumed, rel


def _earlier_and_later_configs(out):
    """A finished run's config and another config for the same directory."""
    raw = small_config(out, seeds=[0, 1], checkpoint_every=2)
    later = {**raw, "train": {**raw["train"], "lr": 0.05}}
    return ExperimentConfig.from_dict(raw), ExperimentConfig.from_dict(later)


def test_a_run_killed_over_a_finished_run_leaves_no_summary(tmp_path):
    # the earlier summary described another config than the config.json and
    # metrics.csv stamps the killed run left beside it
    out = tmp_path / "out"
    earlier, later = _earlier_and_later_configs(out)
    assert harness.run(earlier) == harness.EXIT_OK
    _run_killed_after(later, "er-rs", 3)
    assert json.loads((out / "config.json").read_text())["config_digest"] == later.digest()
    assert harness.run(later, resume=True) == harness.EXIT_OK
    assert harness.run(later, out_dir=tmp_path / "whole") == harness.EXIT_OK
    summaries = []
    for run_dir in (out, tmp_path / "whole"):
        summary = json.loads((run_dir / "summary.json").read_text())
        summary.pop("created_unix")
        summaries.append(summary)
        for entry in summary["strategies"].values():  # no key beyond the aggregates
            assert set(entry) == {"final_ta", "final_sca", "final_mca"}
    assert summaries[0] == summaries[1]
    assert summaries[0]["config_digest"] == later.digest()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("failure", ["config error at seed 1", "runtime failure"])
def test_a_run_that_fails_over_a_finished_run_leaves_no_summary(tmp_path, monkeypatch, failure):
    out = tmp_path / "out"
    earlier, later = _earlier_and_later_configs(out)
    assert harness.run(earlier) == harness.EXIT_OK
    if failure == "runtime failure":
        later = ExperimentConfig.from_dict({**later.raw, "train": {
            "lr": 1e9, "epochs_per_experience": 5, "batch_size": 16, "replay_mix": 0.5}})
        assert harness.run(later) == harness.EXIT_RUNTIME
        assert (out / "error_report.json").exists()
        assert not (out / "summary.json").exists()
    else:
        # a config error is refused before the first write: the earlier run,
        # summary included, stays whole
        before = _every_byte(out)
        build_stream = harness.build_stream

        def refused_at_seed_1(cfg, dataset, seed):
            if seed == 1:
                raise ConfigError("no stream")
            return build_stream(cfg, dataset, seed)

        monkeypatch.setattr(harness, "build_stream", refused_at_seed_1)
        with pytest.raises(ConfigError, match="no stream"):
            harness.run(later)
        assert _every_byte(out) == before


def test_resume_of_completed_run_keeps_summary_whole(tmp_path):
    out = tmp_path / "out"
    raw = small_config(out, checkpoint_every=3)
    cfg = ExperimentConfig.from_dict(raw)
    assert harness.run(cfg) == harness.EXIT_OK
    before = json.loads((out / "summary.json").read_text())
    metrics_bytes = {p: p.read_bytes() for p in out.rglob("metrics.csv")}
    assert harness.run(cfg, resume=True) == harness.EXIT_OK
    after = json.loads((out / "summary.json").read_text())
    before.pop("created_unix"), after.pop("created_unix")
    assert after == before
    assert set(after["strategies"]) == {"naive", "er-rs"}
    for p, data in metrics_bytes.items():
        assert p.read_bytes() == data


def test_resume_refuses_other_configs_state(tmp_path):
    out = tmp_path / "out"
    raw = small_config(out, checkpoint_every=2, strategies=["naive"], seeds=[0])
    cfg = ExperimentConfig.from_dict(raw)
    _run_killed_after(cfg, "naive", 3)
    other = dict(raw)
    other["train"] = {"lr": 0.05, "epochs_per_experience": 1, "batch_size": 16,
                      "replay_mix": 0.5}
    cfg2 = ExperimentConfig.from_dict(other)
    manifest = out / "naive" / "seed0" / "stream_manifest.json"
    manifest.write_bytes(manifest.read_bytes()[:60])  # torn, and left so by a refusal
    with pytest.raises(ConfigError, match="different config"):
        harness.run(cfg2, out_dir=out, resume=True)
    assert len(manifest.read_bytes()) == 60


def test_a_refused_resume_changes_no_byte_of_a_finished_run(tmp_path, capsys):
    path = tmp_path / "a.json"
    assert cli.main(["init", "--out", str(path)]) == harness.EXIT_OK
    raw = json.loads(path.read_text())
    raw["generator"]["n"], raw["seeds"], raw["checkpoint_every"] = 6, [0], 2
    raw["analysis"]["block_distance"]["enabled"] = True
    out = tmp_path / "o"
    raw["output_dir"] = str(out)
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path)]) == harness.EXIT_OK
    before = _every_byte(out)
    capsys.readouterr()
    assert cli.main(["run", str(path), "--resume", "--set", "train.lr=0.05"]) == harness.EXIT_CONFIG
    assert "resume state was produced by a different config" in capsys.readouterr().err
    assert _every_byte(out) == before
    assert cli.main(["analyze", str(out)]) == harness.EXIT_OK


def test_a_fresh_run_refused_at_seed_1_leaves_no_file(tmp_path, capsys, monkeypatch):
    # seed 0's stream is feasible, seed 1's lists more classes than s
    out = tmp_path / "out"
    raw = small_config(out, seeds=[0, 1])
    raw["generator"].update(s=3, repetition={"mode": "constant", "value": 0.4})
    trained = []
    monkeypatch.setattr(learner, "train_group", lambda *args, **kwargs: trained.append(1))
    assert cli.main(["run", str(write_config(tmp_path, raw))]) == harness.EXIT_CONFIG
    assert "at seed 1:" in capsys.readouterr().err
    assert not trained
    assert not list(out.rglob("*"))


def test_resume_rejects_other_state_version(tmp_path):
    out = tmp_path / "out"
    raw = small_config(out, checkpoint_every=2, strategies=["er-cb"], seeds=[0])
    cfg = ExperimentConfig.from_dict(raw)
    _run_killed_after(cfg, "er-cb", 3)
    path = out / "er-cb" / "seed0" / "state" / "state_00003.json"
    state = json.loads(path.read_text())
    state["state_version"] = 2
    path.write_text(json.dumps(state))
    manifest = out / "er-cb" / "seed0" / "stream_manifest.json"
    manifest.write_bytes(manifest.read_bytes()[:60])  # torn, and left so by a refusal
    before = _every_byte(out)
    with pytest.raises(ConfigError, match=r"state_version 2.*state_version 1"):
        harness.run(cfg, resume=True)
    assert _every_byte(out) == before


def test_resume_skips_torn_newest_state_or_checkpoint(tmp_path):
    raw = small_config(tmp_path / "full", checkpoint_every=3,
                       strategies=["er-rs", "er-cb", "er-fa"], seeds=[0])
    cfg = ExperimentConfig.from_dict(raw)
    assert harness.run(cfg, out_dir=tmp_path / "full") == harness.EXIT_OK

    resumed = tmp_path / "resumed"
    _run_killed_after(cfg, "er-fa", 5, out_dir=resumed)
    # each cell falls back to its state after experience 2
    torn = {"er-rs": "state/state_00005.json", "er-cb": "checkpoints/ckpt_00005.npz",
            "er-fa": "state/state_00005.json"}
    for strategy, rel in torn.items():
        newest = resumed / strategy / "seed0" / rel
        newest.write_bytes(newest.read_bytes()[:40])  # torn mid-write
        assert not list((resumed / strategy / "seed0" / "state").glob("*.tmp"))
    assert harness.run(cfg, out_dir=resumed, resume=True) == harness.EXIT_OK
    for strategy in ("er-rs", "er-cb", "er-fa"):
        for name in ("metrics.csv", "buffer_trace.csv"):
            rel = f"{strategy}/seed0/{name}"
            assert (resumed / rel).read_bytes() == (tmp_path / "full" / rel).read_bytes(), rel


def test_resume_drops_a_row_torn_at_any_byte(tmp_path):
    # a torn row is a prefix of the row the stopped run would have written
    # next; a 1-byte prefix "1" of row 12 once passed for an experience index
    raw = small_config(tmp_path / "full", checkpoint_every=1, strategies=["er-rs"], seeds=[0])
    raw["generator"].update(n=13, s=20)
    cfg = ExperimentConfig.from_dict(raw)
    assert harness.run(cfg, out_dir=tmp_path / "full") == harness.EXIT_OK
    _run_killed_after(cfg, "er-rs", 11, out_dir=tmp_path / "stopped")
    full, row12 = {}, {}
    for name in ("metrics.csv", "buffer_trace.csv"):
        full[name] = (tmp_path / "full" / "er-rs" / "seed0" / name).read_bytes()
        head = (tmp_path / "stopped" / "er-rs" / "seed0" / name).read_bytes()
        assert full[name].startswith(head)
        row12[name] = full[name][len(head):].split(b"\n")[0] + b"\n"
        assert row12[name].startswith(b"12,")
    for cut in range(1, max(len(row) for row in row12.values())):
        resumed = tmp_path / f"cut{cut}"
        shutil.copytree(tmp_path / "stopped", resumed)
        for name, row in row12.items():
            with open(resumed / "er-rs" / "seed0" / name, "ab") as f:
                f.write(row[:min(cut, len(row) - 1)])
        assert harness.run(cfg, out_dir=resumed, resume=True) == harness.EXIT_OK
        for name, data in full.items():
            assert (resumed / "er-rs" / "seed0" / name).read_bytes() == data, (cut, name)
        shutil.rmtree(resumed)


def _spy_group_sizes(monkeypatch) -> list[int]:
    sizes = []
    train_group = learner.train_group

    def spy(models, *args, **kwargs):
        sizes.append(len(models))
        return train_group(models, *args, **kwargs)

    monkeypatch.setattr(learner, "train_group", spy)
    return sizes


REPLAY_TRIO = ["er-rs", "er-cb", "er-fa"]


def test_lockstep_cells_equal_each_cell_run_alone(tmp_path, monkeypatch):
    grid = ["naive", *REPLAY_TRIO]
    raw = small_config(tmp_path / "grid", strategies=grid, seeds=[0, 1], checkpoint_every=3)
    cfg = ExperimentConfig.from_dict(raw)
    _workers(monkeypatch, 1)  # the spy sees the groups of this process alone
    sizes = _spy_group_sizes(monkeypatch)
    assert harness.run(cfg) == harness.EXIT_OK
    # per seed: all four stacked at experience 0, where every buffer is
    # empty, then naive alone and the trio stacked at each of the other 7
    assert sizes == ([4] + [1, 3] * 7) * 2
    train_set, test_set = harness.load_inputs(cfg)
    for seed in cfg.seeds:
        stream = harness.build_stream(cfg, train_set, seed)
        for strategy in grid:
            sizes.clear()
            paths = harness.cell_dir(tmp_path / "alone", strategy, seed)
            harness.run_cell(cfg, train_set, test_set, stream, strategy, seed, paths)
            assert set(sizes) == {1}
            grouped = _tree_bytes(harness.cell_dir(tmp_path / "grid", strategy, seed).root)
            assert _tree_bytes(paths.root) == grouped


def test_blocked_evaluation_writes_the_bytes_of_one_block(tmp_path, monkeypatch):
    # a test set of 960 rows (blocks of 256, 256, 448) and experiences of
    # 600 training rows (blocks of 256, 344), which interpolation scores as
    # stacked models: every output byte equals one forward pass per input
    raw = small_config(
        tmp_path / "blocked", strategies=["naive", "er-rs"], seeds=[0], checkpoint_every=1,
        dataset={"kind": "synthetic", "num_classes": 24, "per_class": 100, "dim": 6,
                 "spread": 0.6, "test_fraction": 0.4, "seed": 0},
        generator={"kind": "slot", "n": 4, "k": 8},
        analysis={"interpolation": {"enabled": True, "n_points": 3}},
    )
    cfg = ExperimentConfig.from_dict(raw)
    block_rows, forward = [], learner._forward

    def spy(params, x):
        block_rows.append(len(x))
        return forward(params, x)

    monkeypatch.setattr(learner, "_forward", spy)
    assert harness.run(cfg) == harness.EXIT_OK
    rows = learner._LABEL_BLOCK_ROWS
    assert {rows, 960 - 2 * rows, 600 - rows} <= set(block_rows)
    assert max(block_rows) < 2 * rows
    monkeypatch.setattr(learner, "_LABEL_BLOCK_ROWS", 10**9)
    block_rows.clear()
    assert harness.run(cfg, out_dir=tmp_path / "whole") == harness.EXIT_OK
    assert {960, 600} <= set(block_rows)
    assert _tree_bytes(tmp_path / "whole") == _tree_bytes(tmp_path / "blocked")


_KERNEL_NEEDS = {"Haswell": "AVX2", "Sandybridge": "AVX"}  # the instructions each one runs


@pytest.mark.parametrize("core", sorted(_KERNEL_NEEDS))
def test_lockstep_equals_alone_under_other_openblas_kernels(tmp_path, core):
    # output bytes may differ between OpenBLAS kernels, but under each one a
    # stacked step must equal its models' own steps; a child process forces
    # the kernel through its own environment
    if harness._openblas_core() is None:
        pytest.skip("numpy's BLAS is not the OpenBLAS bundled with numpy")
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy before 2.0
        from numpy.core._multiarray_umath import __cpu_features__
    if not __cpu_features__.get(_KERNEL_NEEDS[core]):
        pytest.skip(f"this CPU lacks {_KERNEL_NEEDS[core]}, which the {core} kernel runs")
    tests = Path(__file__).parent
    args = [
        f"{tests / 'test_harness.py'}::test_lockstep_cells_equal_each_cell_run_alone",
        f"{tests / 'test_learner.py'}::test_stacked_step_equals_per_model_steps_bitwise",
        f"{tests / 'test_harness.py'}::test_blocked_evaluation_writes_the_bytes_of_one_block",
        "-q", "-p", "no:cacheprovider", f"--basetemp={tmp_path / 'child'}",
    ]
    child = (
        "import sys, pytest\n"
        "from cirsim import harness\n"
        "print('blas_core', harness._openblas_core())\n"
        f"sys.exit(pytest.main({args!r}))\n"
    )
    source = str(Path(harness.__file__).parents[1])  # the cirsim imported here
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_CORETYPE": core, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", child], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[0] == f"blas_core {core}"
    assert "3 passed" in done.stdout


def test_resume_of_a_group_standing_at_different_points(tmp_path, monkeypatch):
    raw = small_config(tmp_path / "full", checkpoint_every=2, strategies=REPLAY_TRIO, seeds=[0])
    cfg = ExperimentConfig.from_dict(raw)
    # one process: the kill stops the group in lockstep, and the spy sees it
    _workers(monkeypatch, 1)
    assert harness.run(cfg, out_dir=tmp_path / "full") == harness.EXIT_OK
    resumed = tmp_path / "resumed"
    _run_killed_after(cfg, "er-fa", 5, out_dir=resumed)
    # er-cb falls back to its state after experience 3, the others resume at 6
    (resumed / "er-cb" / "seed0" / "state" / "state_00005.json").unlink()
    sizes = _spy_group_sizes(monkeypatch)
    assert harness.run(cfg, out_dir=resumed, resume=True) == harness.EXIT_OK
    assert sizes == [1, 1, 3, 3]  # er-cb alone at 4-5, then the trio at 6-7
    for strategy in REPLAY_TRIO:
        for name in ("metrics.csv", "buffer_trace.csv", "state/state_00007.json",
                     "checkpoints/ckpt_00007.npz"):
            rel = f"{strategy}/seed0/{name}"
            assert (resumed / rel).read_bytes() == (tmp_path / "full" / rel).read_bytes(), rel


def test_cell_step_puts_its_rows_on_disk(tmp_path):
    # a crash after step() must find the experience's rows in both CSVs
    cfg = ExperimentConfig.from_dict(small_config(tmp_path / "out", strategies=["er-rs"], seeds=[0]))
    train_set, test_set = harness.load_inputs(cfg)
    stream = harness.build_stream(cfg, train_set, 0)
    paths = harness.cell_dir(tmp_path / "out", "er-rs", 0)
    manifest = stream.manifest_text(cfg.digest())
    cell = harness.Cell(cfg, train_set, test_set, stream, "er-rs", 0, paths)
    cell.start(manifest)
    seen = set()
    for exp in stream.experiences[:3]:
        seen |= exp.present_classes
        cell.step(exp, EvalContext(frozenset(seen), exp.present_classes))
        for csv in (paths.metrics_csv, paths.buffer_trace_csv):
            assert csv.read_text().splitlines()[-1].startswith(f"{exp.index},")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_group_member_is_named(tmp_path, monkeypatch):
    out = tmp_path / "out"
    raw = small_config(out, strategies=["er-rs", "er-cb"], seeds=[0],
                       train={"lr": 1e9, "epochs_per_experience": 5,
                              "batch_size": 16, "replay_mix": 0.5})
    _workers(monkeypatch, 2)  # each cell in its own process
    assert harness.run(ExperimentConfig.from_dict(raw)) == harness.EXIT_RUNTIME
    report = json.loads((out / "error_report.json").read_text())
    assert "TrainingDiverged" in report["error"]
    assert (report["strategy"], report["seed"]) == ("er-rs", 0)
    _workers(monkeypatch, 1)  # the two cells stack only in one process

    def last_member_diverges(models, *args, **kwargs):
        raise learner.TrainingDivergedError("non-finite loss", member=len(models) - 1)

    monkeypatch.setattr(learner, "train_group", last_member_diverges)
    assert harness.run(ExperimentConfig.from_dict(raw)) == harness.EXIT_RUNTIME
    report = json.loads((out / "error_report.json").read_text())
    assert (report["strategy"], report["seed"]) == ("er-cb", 0)


# sha256 of each replay cell's outputs for a tiny grid whose buffer (M=5) is
# smaller than its label space (C=8): any change to the results, the buffer's
# RNG draw order or the resume-state bytes shows here
GOLDEN_DIGESTS = {
    "er-rs": {
        "metrics.csv": "57b1fe3f49af73d856f7336e264a48a35595928620dd2b2966f9254e22a639e8",
        "buffer_trace.csv": "05862d7ab83db2c702fbbf5e85ed277b0dd3fa7b974d4a4c8accf4f799be92f8",
        "state/state_00007.json": "4437b482e59a6033acab3c7f77206f5b243df1e0fc61bfba9243cc9af9c551bf",
    },
    "er-cb": {
        "metrics.csv": "66c914e3ad52e629dd70dceea4e1164c1c6c08c6abe09b5e25ffc07c8bc34977",
        "buffer_trace.csv": "f0331f61831884ede277cc739167e7ac8bedf87c03d38d0b68388ffc33715ebc",
        "state/state_00007.json": "944da5768ab11793f41616a41994015d4148736b8e39e3727c8260c457999b1f",
    },
    "er-fa": {
        "metrics.csv": "154dc718afef2452244ff789b93b7a2243a25943e626419f76c97e86248350e4",
        "buffer_trace.csv": "6094119988c28b00c42f1c53d7b4ac02f995a61ba0812d4e19c93e801aab0aa9",
        "state/state_00007.json": "d8ec4e876d61534499b90904fd8caa833d46293d6d800a7e946afab26c10a6d2",
    },
}


def test_replay_outputs_match_golden_digests(tmp_path):
    out = tmp_path / "out"
    raw = small_config(
        out,
        dataset={"kind": "synthetic", "num_classes": 8, "per_class": 20,
                 "dim": 6, "spread": 0.6, "test_fraction": 0.2, "seed": 0},
        strategies=["er-rs", "er-cb", "er-fa"],
        buffer={"size": 5, "policy": "rs"},
        seeds=[0],
        checkpoint_every=3,
    )
    assert harness.run(ExperimentConfig.from_dict(raw)) == harness.EXIT_OK
    for strategy, files in GOLDEN_DIGESTS.items():
        for rel, digest in files.items():
            data = (out / strategy / "seed0" / rel).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, f"{strategy}/{rel}"


# sha256 of each replay cell's outputs for a grid that exercises the training
# loop's edge cases: tanh through two hidden layers, an odd replay share
# (replay_k = 5 of batch 10) and experiences of 36 items, whose last
# mini-batch holds one; the final state pins the learner's RNG state too
TRAINING_GOLDEN_DIGESTS = {
    "er-rs": {
        "metrics.csv": "9070cc939c7b533269c1ac0fc876e9d8b1727c4eff617311e11df19ef6708161",
        "buffer_trace.csv": "e0c1d04379751afb2bc9f9d8e4b1cc1fb1413f5a9cb8c4bad695810693fe64a9",
        "state/state_00007.json": "de195127ed3a80503ac6f5c7d5cc56ede4ef33b24c35493a966ff9e460584137",
    },
    "er-cb": {
        "metrics.csv": "ba59b67116ff6c75b54cea795038edc9f48695189578c2b13fc2c967b6f78bed",
        "buffer_trace.csv": "08f50e036b1758f97e01271e9c528cf8935f98f397b1eae9723488ca42c72bce",
        "state/state_00007.json": "67f6fd2816cbf0e71d13704bc1ff5e2c4dce5c9f3ddf036ea6e69ebdc15097fc",
    },
    "er-fa": {
        "metrics.csv": "2b2096572391eb786659b11cd7b2f369b407c266b1cc87cdb6fb2015ecaa52af",
        "buffer_trace.csv": "5a0f15b05e01eb19ace0055cdb0e131053ebaf941138f5f2657d026f19870570",
        "state/state_00007.json": "dc8c76200c77829bde6c993297bac7a3fbea4dca8534a5258b7a1dcc41fab79a",
    },
}


def test_training_loop_outputs_match_golden_digests(tmp_path):
    out = tmp_path / "out"
    raw = small_config(
        out,
        dataset={"kind": "synthetic", "num_classes": 6, "per_class": 20,
                 "dim": 5, "spread": 0.7, "test_fraction": 0.25, "seed": 1},
        generator={"kind": "sampling", "n": 8, "s": 37,
                   "first_occurrence": {"kind": "geometric", "param": 0.3},
                   "repetition": {"mode": "constant", "value": 0.4}},
        strategies=["er-rs", "er-cb", "er-fa"],
        buffer={"size": 12, "policy": "rs"},
        train={"lr": 0.1, "epochs_per_experience": 2, "batch_size": 10, "replay_mix": 0.5},
        model={"hidden": [7, 5], "activation": "tanh"},
        seeds=[3],
        checkpoint_every=3,
    )
    assert harness.run(ExperimentConfig.from_dict(raw)) == harness.EXIT_OK
    manifest = json.loads((out / "er-rs" / "seed3" / "stream_manifest.json").read_text())
    assert any(len(e["instances"]) % 5 for e in manifest["experiences"])  # a ragged batch
    for strategy, files in TRAINING_GOLDEN_DIGESTS.items():
        for rel, digest in files.items():
            data = (out / strategy / "seed3" / rel).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, f"{strategy}/{rel}"


# sha256 of each cell's `analyze --all` outputs for a grid checkpointed after
# every experience, through two hidden layers; 21 interpolation points per
# pair span more than one stacked chunk of alphas
ANALYSIS_GOLDEN_DIGESTS = {
    "naive": {
        "interpolation.csv": "88689c2b08db3fc41ba8fd992ba847169e07856ac9135d670d29ca0def043f74",
        "block_distance.csv": "49fc235cda700f25a12cf9feda4ab4246d3f1ec9d1437c1bb65efdd0f32c6ef5",
        "cka.csv": "9f1adc03e75a13d9b0a4c7dcfb10259c8d1dfa9b21375bd047582ea9cb155b26",
    },
    "er-fa": {
        "interpolation.csv": "05d0b5506277fa44c223766d7f6a02c79f136e312499e860385762c548ce8382",
        "block_distance.csv": "3fa4a95fa953d7cdde7e0a9343ef8c355a701355debb026363ccd867bdc6dece",
        "cka.csv": "31a2d1fe597525270a6767a6caf828c17ee3577fea1aedb428a4a54b6ae64106",
    },
}


def test_analysis_outputs_match_golden_digests(tmp_path):
    out = tmp_path / "out"
    raw = small_config(
        out,
        strategies=["naive", "er-fa"],
        model={"hidden": [9, 7], "activation": "relu"},
        seeds=[0],
        checkpoint_every=1,
        analysis={"interpolation": {"n_points": 21}, "cka": {"probe_size": 24}},
    )
    assert cli.main(["run", str(write_config(tmp_path, raw))]) == harness.EXIT_OK
    assert cli.main(["analyze", str(out), "--all"]) == harness.EXIT_OK
    for strategy, files in ANALYSIS_GOLDEN_DIGESTS.items():
        for name, digest in files.items():
            data = (out / strategy / "seed0" / "analysis" / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, f"{strategy}/{name}"


# sha256 of `inspect`'s outputs for a sampling, a bimodal and a slot stream:
# the presence matrix CSV and the report, byte for byte
INSPECT_GOLDEN_DIGESTS = {
    "sampling": {
        "occurrence.csv": "d227c564f633dd9ef977b3af83418325b4aae43c8e1155aed9db83635ae81036",
        "inspect.json": "fa0896cb48e03c581ab8802f7a59e33d738745e017e252f8a0473cfdda80ab41",
    },
    "bimodal": {
        "occurrence.csv": "6ab2e507c1bc8d871618348eafab1e4cb4aaa4f4b3cd1e31f3660b3b202b25b5",
        "inspect.json": "53bb011720d372de20b14f60aea91a69562074505b2db60c3ab001f61e73e176",
    },
    "slot": {
        "occurrence.csv": "f54c9763f7b05e30895775792154637989660a4b92b6e64f6ce62075628302c1",
        "inspect.json": "bda47704c533d6c47ac8a63c595970cc728548353e5c12c210ac8f8120732e1d",
    },
}
_INSPECT_DATASET = {"kind": "synthetic", "num_classes": 10, "per_class": 30,
                    "dim": 6, "spread": 0.5, "seed": 0}
_INSPECT_CONFIGS = {
    "sampling": {},
    "bimodal": {
        "dataset": _INSPECT_DATASET,
        "generator": {"kind": "sampling", "n": 10, "s": 40,
                      "first_occurrence": {"kind": "geometric", "param": 0.3},
                      "repetition": {"mode": "bimodal", "fraction_infrequent": 0.3,
                                     "p_low": 0.1, "p_high": 0.9}},
    },
    "slot": {"dataset": _INSPECT_DATASET, "generator": {"kind": "slot", "n": 6, "k": 3}},
}


@pytest.mark.parametrize("name", INSPECT_GOLDEN_DIGESTS)
def test_inspect_outputs_match_golden_digests(tmp_path, name):
    raw = small_config(tmp_path / "out", **_INSPECT_CONFIGS[name])
    harness.inspect(ExperimentConfig.from_dict(raw), tmp_path / "ins")
    for file, digest in INSPECT_GOLDEN_DIGESTS[name].items():
        data = (tmp_path / "ins" / file).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, f"{name}/{file}"


# -- cells dealt over forked workers ------------------------------------------


def _assert_no_child_process() -> None:
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _shard_counts(monkeypatch) -> list[int]:
    """Patch ``pool.run`` to record the number of shards of every call."""
    counts, run = [], pool.run

    def counting(shards, work, running, order):
        counts.append(len(shards))
        run(shards, work, running, order)

    monkeypatch.setattr(pool, "run", counting)
    return counts


def _summary_without_time(run_dir: Path) -> dict:
    summary = json.loads((run_dir / "summary.json").read_text())
    summary.pop("created_unix")
    return summary


def test_golden_grids_write_their_pins_and_one_tree_in_any_number_of_processes(
    tmp_path, monkeypatch
):
    # grids of 3, 3 and 2 cells: with 2 or 3 processes, each pinned cell
    # runs beside cells that another process runs; each golden test checks
    # its pins, and the trees but their configs (which name the output
    # directory) are equal
    trees = []
    for workers in (1, 2, 3):
        _workers(monkeypatch, workers)
        root = tmp_path / f"workers{workers}"
        for golden in (test_replay_outputs_match_golden_digests,
                       test_training_loop_outputs_match_golden_digests,
                       test_analysis_outputs_match_golden_digests):
            (root / golden.__name__).mkdir(parents=True)
            golden(root / golden.__name__)
        _assert_no_child_process()
        trees.append({rel: data for rel, data in _tree_bytes(root).items()
                      if Path(rel).name != "config.json"})
    assert len(trees[0]) > 40 and trees[1] == trees[0] and trees[2] == trees[0]


def test_a_grid_writes_the_same_bytes_in_any_number_of_processes(tmp_path, monkeypatch):
    # 3 seeds x 4 strategies, checkpointed after every experience and
    # analysed every way: 1, 2 and 3 processes write the same tree
    raw = small_config(
        tmp_path, strategies=["naive", *REPLAY_TRIO], seeds=[0, 1, 2], checkpoint_every=1,
        analysis={"interpolation": {"enabled": True, "n_points": 3},
                  "block_distance": {"enabled": True},
                  "cka": {"enabled": True, "probe_size": 16}},
    )
    cfg = ExperimentConfig.from_dict(raw)
    trees, summaries, shards = [], [], _shard_counts(monkeypatch)
    for workers in (1, 2, 3):
        _workers(monkeypatch, workers)
        out = tmp_path / f"workers{workers}"
        assert harness.run(cfg, out_dir=out) == harness.EXIT_OK
        _assert_no_child_process()
        assert len(list(out.glob("*/seed*/analysis/cka.csv"))) == 12
        trees.append(_tree_bytes(out))
        summaries.append(_summary_without_time(out))
        assert summaries[-1].pop("workers") == workers
    assert shards == [1, 1, 2, 2, 3, 3]  # the run's cells, then its analysis's
    assert trees[1] == trees[0] and trees[2] == trees[0]
    assert summaries[1] == summaries[0] and summaries[2] == summaries[0]


def test_a_one_cell_grid_forks_no_worker(tmp_path, monkeypatch):
    _workers(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", None)  # a fork would fail the run
    cfg = ExperimentConfig.from_dict(small_config(tmp_path / "out", strategies=["naive"], seeds=[0]))
    assert harness.run(cfg) == harness.EXIT_OK
    assert _summary_without_time(tmp_path / "out")["workers"] == 1


def test_the_worker_count_follows_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
    assert [pool.worker_count(n) for n in (1, 2, 3, 12)] == [1, 2, 3, 3]
    monkeypatch.delattr(os, "sched_getaffinity")  # as on Windows and macOS
    assert pool.worker_count(12) == 1


def _failing_step(monkeypatch, failures: dict) -> None:
    """Patch ``Cell.step`` to raise ``failures[(strategy, seed, index)]``
    instead of recording that experience."""
    step = harness.Cell.step

    def failing(cell, exp, ctx):
        key = (cell.strategy, cell.seed, exp.index)
        if key in failures:
            raise failures[key]
        step(cell, exp, ctx)

    monkeypatch.setattr(harness.Cell, "step", failing)


def test_a_failure_in_a_worker_is_reported_as_in_one_process(tmp_path, monkeypatch):
    # naive's cells run here, er-rs's in the worker, whose seed-1 cell fails;
    # naive's run on, and the failed cell resumes to the uninterrupted bytes
    raw = small_config(tmp_path / "out", seeds=[0, 1], checkpoint_every=2)
    cfg = ExperimentConfig.from_dict(raw)
    _workers(monkeypatch, 2)
    assert harness.run(cfg, out_dir=tmp_path / "whole") == harness.EXIT_OK
    step = harness.Cell.step
    _failing_step(monkeypatch, {("er-rs", 1, 5): ValueError("injected fault")})
    out = tmp_path / "out"
    assert harness.run(cfg) == harness.EXIT_RUNTIME
    _assert_no_child_process()
    report = json.loads((out / "error_report.json").read_text())
    assert (report["strategy"], report["seed"], report["experience"]) == ("er-rs", 1, 5)
    assert report["error"] == "ValueError('injected fault')"
    # the worker's own frames, chained as the cause of what this process raised
    assert "pool._RemoteTraceback: Traceback" in report["traceback"]
    assert "in failing" in report["traceback"]
    assert not (out / "summary.json").exists()
    assert parse_csv(out / "naive" / "seed1" / "metrics.csv")[-1]["experience_index"] == 7
    assert parse_csv(out / "er-rs" / "seed1" / "metrics.csv")[-1]["experience_index"] == 4
    monkeypatch.setattr(harness.Cell, "step", step)
    assert harness.run(cfg, resume=True) == harness.EXIT_OK
    assert _tree_bytes(out) == _tree_bytes(tmp_path / "whole")


@pytest.mark.parametrize("faults, named", [
    # (strategy, seed, experience) of each failure -> the one reported
    ({("er-rs", 1, 2): "worker", ("naive", 1, 3): "here"}, ("er-rs", 1, 2)),
    ({("er-rs", 1, 5): "worker", ("naive", 1, 3): "here"}, ("naive", 1, 3)),
    ({("er-rs", 0, 6): "worker", ("naive", 1, 0): "here"}, ("er-rs", 0, 6)),
    ({("er-rs", 0, 4): "worker", ("naive", 0, 4): "here"}, ("naive", 0, 4)),
], ids=["earlier-experience", "later-experience", "earlier-seed", "same-experience"])
def test_the_failure_one_process_would_meet_first_is_reported(tmp_path, monkeypatch,
                                                              faults, named):
    _workers(monkeypatch, 2)  # naive's cells here, er-rs's in the worker
    failures = {key: RuntimeError(f"{where} {key}") for key, where in faults.items()}
    _failing_step(monkeypatch, failures)
    out = tmp_path / "out"
    assert harness.run(ExperimentConfig.from_dict(small_config(out, seeds=[0, 1]))) == 3
    _assert_no_child_process()
    report = json.loads((out / "error_report.json").read_text())
    assert (report["strategy"], report["seed"], report["experience"]) == named
    assert report["error"] == repr(failures[named])


class _Unpicklable(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None  # pickle refuses a lambda


class _Unloadable(Exception):
    def __init__(self, message, code):  # pickle loads it as _Unloadable(message)
        super().__init__(message)
        self.code = code


@pytest.mark.parametrize("exc", [_Unpicklable("no pickle"), _Unloadable("no load", 7)],
                         ids=["does-not-pickle", "does-not-load"])
def test_a_worker_exception_that_does_not_pickle_is_reported_as_text(tmp_path, monkeypatch, exc):
    _workers(monkeypatch, 2)
    _failing_step(monkeypatch, {("er-rs", 0, 1): exc})
    out = tmp_path / "out"
    assert harness.run(ExperimentConfig.from_dict(small_config(out, seeds=[0]))) == 3
    _assert_no_child_process()
    report = json.loads((out / "error_report.json").read_text())
    assert (report["strategy"], report["seed"]) == ("er-rs", 0)
    assert report["error"].startswith("RuntimeError(")
    # its message: the exception's repr, then the worker's traceback
    assert f"RuntimeError: {exc!r}\nTraceback (most recent call last):\n" in report["traceback"]
    assert "in failing" in report["error"]


def test_an_interrupt_in_a_worker_propagates_once_every_shard_ends(tmp_path, monkeypatch):
    _workers(monkeypatch, 2)
    _failing_step(monkeypatch, {("er-rs", 1, 3): _Killed()})
    out = tmp_path / "out"
    with pytest.raises(_Killed) as raised:
        harness.run(ExperimentConfig.from_dict(small_config(out, seeds=[0, 1])))
    _assert_no_child_process()
    assert "in failing" in str(raised.value.__cause__)  # the worker's traceback
    assert not (out / "summary.json").exists() and not (out / "error_report.json").exists()
    assert parse_csv(out / "naive" / "seed1" / "metrics.csv")[-1]["experience_index"] == 7


def test_an_interrupt_here_kills_the_workers_first(tmp_path, monkeypatch):
    # the worker would sleep for a minute at its first step; the run's own
    # interrupt ends it at once
    _workers(monkeypatch, 2)
    here, step = os.getpid(), harness.Cell.step

    def step_or_stall(cell, exp, ctx):
        if os.getpid() != here:
            time.sleep(60)
        elif exp.index == 2:
            raise _Killed
        step(cell, exp, ctx)

    monkeypatch.setattr(harness.Cell, "step", step_or_stall)
    start = time.monotonic()
    with pytest.raises(_Killed):
        harness.run(ExperimentConfig.from_dict(small_config(tmp_path / "out", seeds=[0])))
    assert time.monotonic() - start < 30
    _assert_no_child_process()
    with files.lock_dir(tmp_path / "out"):  # no worker holds the lock on
        pass


def test_a_worker_killed_mid_run_exits_3_naming_it_and_resumes_whole(
    tmp_path, monkeypatch, capsys
):
    raw = small_config(tmp_path / "out", strategies=["naive", *REPLAY_TRIO], seeds=[0, 1],
                       checkpoint_every=2)
    path = write_config(tmp_path, raw)
    _workers(monkeypatch, 3)
    whole = harness.run(ExperimentConfig.from_dict(raw), out_dir=tmp_path / "whole")
    assert whole == harness.EXIT_OK
    here, step = os.getpid(), harness.Cell.step

    def killing_step(cell, exp, ctx):
        step(cell, exp, ctx)
        if os.getpid() != here and (cell.strategy, cell.seed, exp.index) == ("er-rs", 1, 4):
            os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(harness.Cell, "step", killing_step)
    capsys.readouterr()
    assert cli.main(["run", str(path)]) == harness.EXIT_RUNTIME
    _assert_no_child_process()
    assert capsys.readouterr().err == f"run failed: see {tmp_path / 'out' / 'error_report.json'}\n"
    report = json.loads((tmp_path / "out" / "error_report.json").read_text())
    # of 8 cells dealt over 3 processes, er-rs/seed1 is the sixth: worker 2's
    assert report["worker"] == 2 and "strategy" not in report and "seed" not in report
    assert "worker 2 (pid " in report["error"] and "signal 9" in report["error"]
    assert not (tmp_path / "out" / "summary.json").exists()
    monkeypatch.setattr(harness.Cell, "step", step)
    assert cli.main(["run", str(path), "--resume"]) == harness.EXIT_OK
    assert _tree_bytes(tmp_path / "out") == _tree_bytes(tmp_path / "whole")


def test_workers_hold_the_run_directory_lock(tmp_path, monkeypatch):
    _workers(monkeypatch, 2)
    out = tmp_path / "out"
    here, step = os.getpid(), harness.Cell.step

    def step_trying_the_lock(cell, exp, ctx):
        step(cell, exp, ctx)
        if os.getpid() != here and exp.index == 0:
            try:
                with files.lock_dir(out):
                    raise RuntimeError("a worker found the run directory unlocked")
            except BlockingIOError:
                pass

    monkeypatch.setattr(harness.Cell, "step", step_trying_the_lock)
    assert harness.run(ExperimentConfig.from_dict(small_config(out, seeds=[0]))) == 0
    _assert_no_child_process()
    with files.lock_dir(out):  # released once run returned
        pass


def _child_env() -> dict:
    """The environment of a child process that imports the cirsim imported
    here, with the BLAS thread variables unset, as in a user's default."""
    source = str(Path(harness.__file__).parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(name, None)
    return env


def test_while_workers_run_each_process_holds_its_share_of_blas_threads(tmp_path):
    # a child process runs a grid in 2 processes, then in 1: in the first,
    # the run process and its worker each read half the run process's
    # threads (at least 1) and the old count comes back after; the second
    # sets nothing
    threads = pool.openblas_function("scipy_openblas_get_num_threads64_", ctypes.c_int)
    if threads is None:
        pytest.skip("numpy's BLAS is not the OpenBLAS bundled with numpy")
    child = "\n".join([
        "import ctypes, json, os, sys",
        "from cirsim import harness, pool",
        "from cirsim.config import ExperimentConfig",
        "threads = pool.openblas_function('scipy_openblas_get_num_threads64_', ctypes.c_int)",
        "step, seen = harness.Cell.step, {}",
        "def recording_step(cell, exp, ctx):",
        "    with open(f'seen{workers}', 'a') as f:",
        "        f.write(f'{os.getpid()} {threads()}\\n')",
        "    step(cell, exp, ctx)",
        "harness.Cell.step = recording_step",
        "cfg = ExperimentConfig.from_dict(json.loads(sys.argv[1]))",
        "before = threads()",
        "for workers in (2, 1):",
        "    pool.worker_count = lambda n_cells: min(n_cells, workers)",
        "    assert harness.run(cfg, out_dir=f'out{workers}') == 0",
        "    seen[workers] = threads()",
        "print(json.dumps({'pid': os.getpid(), 'before': before, 'after': seen}))",
    ])
    raw = small_config(tmp_path / "out", seeds=[0])
    done = subprocess.run([sys.executable, "-c", child, json.dumps(raw)], cwd=tmp_path,
                          env=_child_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    before = result["before"]
    pairs = [(tmp_path / name).read_text().split() for name in ("seen2", "seen1")]
    during = [{(int(pid), int(n)) for pid, n in zip(p[::2], p[1::2])} for p in pairs]
    assert len(during[0]) == 2 and result["pid"] in {pid for pid, _ in during[0]}
    assert {n for _, n in during[0]} == {max(1, before // 2)}
    assert result["after"] == {"2": before, "1": before}
    assert during[1] == {(result["pid"], before)}


def test_a_run_killed_outright_takes_its_workers_with_it(tmp_path):
    # the run process of a 2-process grid, its steps slowed, is killed by
    # SIGKILL mid-run in a child process: its worker ends with it, so the
    # directory lock is free at once, and --resume writes the whole run's bytes
    raw = small_config(tmp_path / "out", seeds=[0, 1], checkpoint_every=2)
    cfg = ExperimentConfig.from_dict(raw)
    assert harness.run(cfg, out_dir=tmp_path / "whole") == harness.EXIT_OK
    child = "\n".join([
        "import json, sys, time",
        "from cirsim import harness, pool",
        "from cirsim.config import ExperimentConfig",
        "pool.worker_count = lambda n_cells: min(n_cells, 2)",
        "step = harness.Cell.step",
        "def slow_step(cell, exp, ctx):",
        "    time.sleep(0.5)",
        "    step(cell, exp, ctx)",
        "harness.Cell.step = slow_step",
        "sys.exit(harness.run(ExperimentConfig.from_dict(json.loads(sys.argv[1]))))",
    ])
    # no pipe to the child: an orphaned worker would hold it open
    with open(tmp_path / "stderr", "w") as stderr:
        run = subprocess.Popen([sys.executable, "-c", child, json.dumps(raw)], cwd=tmp_path,
                               env=_child_env(), stderr=stderr)
    # er-rs's cells run in the worker, for 8 s; kill once one row has landed
    rows = tmp_path / "out" / "er-rs" / "seed0" / "metrics.csv"
    deadline = time.monotonic() + 60
    while not (rows.exists() and rows.read_text().count("\n") >= 3):
        assert run.poll() is None, (tmp_path / "stderr").read_text()
        assert time.monotonic() < deadline
        time.sleep(0.05)
    run.kill()
    run.wait(timeout=30)
    deadline = time.monotonic() + 5
    while True:
        try:
            with files.lock_dir(tmp_path / "out"):
                break
        except BlockingIOError:
            assert time.monotonic() < deadline, "a worker outlived its run and holds the lock"
            time.sleep(0.05)
    assert harness.run(cfg, resume=True) == harness.EXIT_OK
    assert _tree_bytes(tmp_path / "out") == _tree_bytes(tmp_path / "whole")


# -- analyze's cells dealt over forked workers ----------------------------------


def test_analyze_writes_the_same_bytes_in_any_number_of_processes(tmp_path, monkeypatch):
    # 3 seeds x 4 strategies checkpointed after every experience, run once
    # and copied: `analyze --all` deals the 12 cells over 1, 2 and 3
    # processes and writes the same tree
    raw = small_config(tmp_path / "run", strategies=["naive", *REPLAY_TRIO], seeds=[0, 1, 2],
                       checkpoint_every=1,
                       analysis={"interpolation": {"n_points": 3}, "cka": {"probe_size": 16}})
    assert harness.run(ExperimentConfig.from_dict(raw)) == harness.EXIT_OK
    assert not list((tmp_path / "run").glob("*/seed*/analysis"))
    shards, trees = _shard_counts(monkeypatch), []
    for workers in (1, 2, 3):
        _workers(monkeypatch, workers)
        out = tmp_path / f"workers{workers}"
        shutil.copytree(tmp_path / "run", out)
        assert cli.main(["analyze", str(out), "--all"]) == harness.EXIT_OK
        _assert_no_child_process()
        assert len(list(out.glob("*/seed*/analysis/*.csv"))) == 36
        trees.append(_tree_bytes(out))
    assert shards == [1, 2, 3]
    assert trees[1] == trees[0] and trees[2] == trees[0]


@pytest.mark.parametrize("checkpoint_every, argv", [(0, ["--all"]), (2, [])],
                         ids=["no-pair", "block-distance-alone"])
def test_an_analyze_with_no_pair_to_analyse_forks_no_worker(
    tmp_path, monkeypatch, checkpoint_every, argv
):
    # no cell has interpolation or CKA work: checkpointed only at the end,
    # each cell holds its initial and final checkpoints, and block distance
    # reads each checkpoint alone
    out = tmp_path / "out"
    raw = small_config(out, checkpoint_every=checkpoint_every,
                       analysis={"block_distance": {"enabled": True}})
    assert harness.run(ExperimentConfig.from_dict(raw)) == harness.EXIT_OK
    for path in out.glob("*/seed*/analysis/*.csv"):
        path.unlink()
    _workers(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", None)  # a fork would fail the analysis
    shards = _shard_counts(monkeypatch)
    assert cli.main(["analyze", str(out), *argv]) == harness.EXIT_OK
    assert shards == [1]
    assert len(list(out.glob("*/seed*/analysis/block_distance.csv"))) == 6


def _unanalysed_grid(tmp_path) -> Path:
    """The directory of a finished 2 x 2 grid (naive and er-rs, seeds 0 and
    1) checkpointed after every other experience, not yet analysed. In grid
    order its cells are naive/seed0, er-rs/seed0, naive/seed1, er-rs/seed1:
    with 2 processes naive's are analysed here and er-rs's in the worker."""
    out = tmp_path / "out"
    raw = small_config(out, seeds=[0, 1], checkpoint_every=2)
    assert harness.run(ExperimentConfig.from_dict(raw)) == harness.EXIT_OK
    return out


def _analysed_cells(out: Path) -> list[str]:
    return sorted({p.parents[1].relative_to(out).as_posix()
                   for p in out.glob("*/seed*/analysis/*.csv")})


def test_a_damaged_checkpoint_in_a_workers_cell_exits_3_naming_it(tmp_path, monkeypatch, capsys):
    out = _unanalysed_grid(tmp_path)
    _workers(monkeypatch, 2)
    damaged = harness.cell_dir(out, "er-rs", 1).checkpoint_file(3)
    _tear(damaged)
    capsys.readouterr()
    assert cli.main(["analyze", str(out), "--all"]) == harness.EXIT_RUNTIME
    _assert_no_child_process()
    assert capsys.readouterr().err == f"analysis failed: see {out / 'error_report.json'}\n"
    report = json.loads((out / "error_report.json").read_text())
    assert (report["command"], report["strategy"], report["seed"]) == ("analyze", "er-rs", 1)
    assert str(damaged) in report["error"] and "CheckpointError" in report["error"]
    # the worker's own frames, chained as the cause of what this process raised
    assert "pool._RemoteTraceback: Traceback" in report["traceback"]
    assert _analysed_cells(out) == ["er-rs/seed0", "naive/seed0", "naive/seed1"]


@pytest.mark.parametrize("damaged, named, analysed", [
    ([("er-rs", 0), ("naive", 1)], ("er-rs", 0), ["naive/seed0"]),
    ([("naive", 0), ("er-rs", 1)], ("naive", 0), ["er-rs/seed0"]),
], ids=["first-in-the-worker", "first-here"])
def test_damaged_cells_in_two_shards_report_the_first_in_grid_order(
    tmp_path, monkeypatch, damaged, named, analysed
):
    # each shard stops at its own damaged cell; a healthy cell of the other
    # shard, dealt before that shard's damaged one, still gets its CSVs
    out = _unanalysed_grid(tmp_path)
    _workers(monkeypatch, 2)
    for strategy, seed in damaged:
        _tear(harness.cell_dir(out, strategy, seed).checkpoint_file(3))
    assert cli.main(["analyze", str(out), "--all"]) == harness.EXIT_RUNTIME
    _assert_no_child_process()
    report = json.loads((out / "error_report.json").read_text())
    assert (report["strategy"], report["seed"]) == named
    assert str(harness.cell_dir(out, *named).checkpoint_file(3)) in report["error"]
    assert _analysed_cells(out) == analysed
    assert len(list(out.glob("*/seed*/analysis/*.csv"))) == 3


def test_an_analyze_worker_killed_exits_3_naming_it_and_a_second_analyze_writes_all(
    tmp_path, monkeypatch, capsys
):
    out = _unanalysed_grid(tmp_path)
    shutil.copytree(out, tmp_path / "whole")
    _workers(monkeypatch, 1)
    assert cli.main(["analyze", str(tmp_path / "whole"), "--all"]) == harness.EXIT_OK
    _workers(monkeypatch, 2)
    here, load = os.getpid(), harness._load_run_checkpoint

    def killing_load(path, index, digest):
        if os.getpid() != here and index == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return load(path, index, digest)

    monkeypatch.setattr(harness, "_load_run_checkpoint", killing_load)
    capsys.readouterr()
    assert cli.main(["analyze", str(out), "--all"]) == harness.EXIT_RUNTIME
    _assert_no_child_process()
    assert capsys.readouterr().err == f"analysis failed: see {out / 'error_report.json'}\n"
    report = json.loads((out / "error_report.json").read_text())
    assert (report["command"], report["worker"]) == ("analyze", 1)
    assert "strategy" not in report and "seed" not in report
    assert "worker 1 (pid " in report["error"] and "signal 9" in report["error"]
    assert _analysed_cells(out) == ["naive/seed0", "naive/seed1"]
    monkeypatch.setattr(harness, "_load_run_checkpoint", load)
    assert cli.main(["analyze", str(out), "--all"]) == harness.EXIT_OK
    _assert_no_child_process()
    assert _tree_bytes(out) == _tree_bytes(tmp_path / "whole")


def test_cka_window_equals_layer_matrix_bitwise(tmp_path, monkeypatch):
    _workers(monkeypatch, 1)  # the spies count calls in this process
    out = tmp_path / "out"
    raw = small_config(out, strategies=["naive"], seeds=[0], checkpoint_every=1,
                       generator={**small_config(None)["generator"], "n": 5},
                       model={"hidden": [8, 5], "activation": "relu"},
                       analysis={"cka": {"enabled": True, "probe_size": 20}})
    cfg = ExperimentConfig.from_dict(raw)
    assert harness.run(cfg) == harness.EXIT_OK

    prepare, prepared_matrix = analysis.prepare_cka, analysis.cka_prepared_matrix
    prepared_refs, matrices, probes = [], [], []

    def spy_prepare(params, probe_features):
        probes.append(probe_features)
        prepared = prepare(params, probe_features)
        prepared_refs.append(weakref.ref(prepared[0][0]))
        return prepared

    def spy_matrix(prepared_a, prepared_b):
        # a sliding window: only the pair at hand is still alive
        assert sum(ref() is not None for ref in prepared_refs) <= 2
        matrices.append(prepared_matrix(prepared_a, prepared_b))
        return matrices[-1]

    monkeypatch.setattr(analysis, "prepare_cka", spy_prepare)
    monkeypatch.setattr(analysis, "cka_prepared_matrix", spy_matrix)
    assert harness.analyze(out) == harness.EXIT_OK
    monkeypatch.undo()

    paths = harness.cell_dir(out, "naive", 0)
    trained = [learner.load_checkpoint(paths.checkpoint_file(i)) for i in range(5)]
    assert len(prepared_refs) == len(trained)  # each checkpoint prepared once
    probe = probes[0]
    assert probe.shape == (20, 6) and all(p is probe for p in probes)
    expected = [f"# config_digest={cfg.digest()}", "pair_id,layer_x,layer_y,value"]
    for matrix, ck_a, ck_b in zip(matrices, trained[:-1], trained[1:], strict=True):
        reference = analysis.cka_layer_matrix(ck_a.params, ck_b.params, probe)
        assert matrix.tobytes() == reference.tobytes()
        expected += [
            f"{ck_a.experience_index}-{ck_b.experience_index},layer{i},layer{j},{value:.6f}"
            for (i, j), value in np.ndenumerate(reference)
        ]
    assert (paths.analysis_dir / "cka.csv").read_text().splitlines() == expected


@pytest.mark.parametrize("n", [3, 40])
def test_analyze_holds_at_most_two_trained_checkpoints_and_the_initial_one(
    tmp_path, monkeypatch, n
):
    _workers(monkeypatch, 1)  # the spy counts the checkpoints alive in this process
    out = tmp_path / "out"
    raw = small_config(out, strategies=["naive"], seeds=[0], checkpoint_every=1,
                       generator={**small_config(None)["generator"], "n": n})
    assert harness.run(ExperimentConfig.from_dict(raw)) == harness.EXIT_OK
    # a Checkpoint is unhashable (a dataclass with eq), so no WeakSet: weak
    # references to every one loaded, and count those still alive
    load, loaded, held = learner.load_checkpoint, [], []

    def tracking(path):
        ck = load(path)
        loaded.append(weakref.ref(ck))
        alive = [c for c in (ref() for ref in loaded) if c is not None]
        trained = sum(c.experience_index >= 0 for c in alive)
        held.append((trained, len(alive) - trained))
        return ck

    monkeypatch.setattr(learner, "load_checkpoint", tracking)
    assert harness.analyze(out, force_all=True) == harness.EXIT_OK
    assert len(held) == n + 1  # each checkpoint read once
    assert max(trained for trained, _ in held) == 2
    assert max(initial for _, initial in held) == 1


def _stray_checkpoint_names(checkpoints: Path) -> None:
    """Files a run never writes, under names close to a checkpoint's: none
    of them is a readable checkpoint."""
    for name in ["ckpt_final.npz", "ckpt_00003.npz.bak", "ckpt_-1.npz", "old_ckpt_00002.npz",
                 "ckpt_00002.NPZ"]:
        (checkpoints / name).write_bytes(b"not an archive")


def test_analyze_reads_only_the_checkpoint_names_a_run_writes(tmp_path):
    raw = small_config(None, strategies=["naive", "er-rs"], seeds=[0], checkpoint_every=2)
    for name in ("plain", "stray"):
        assert harness.run(ExperimentConfig.from_dict(raw), out_dir=tmp_path / name) == 0
    for checkpoints in (tmp_path / "stray").glob("*/seed0/checkpoints"):
        _stray_checkpoint_names(checkpoints)
    for name in ("plain", "stray"):
        assert cli.main(["analyze", str(tmp_path / name), "--all"]) == harness.EXIT_OK
    analysed = {rel: data for rel, data in _every_byte(tmp_path / "plain").items()
                if "/analysis/" in rel}
    assert len(analysed) == 6
    stray = _every_byte(tmp_path / "stray")
    assert {rel: stray[rel] for rel in analysed} == analysed


@pytest.mark.parametrize("index, copied", [(3, 1), (5, "init")])
def test_a_checkpoint_whose_header_names_another_experience_exits_3(
    tmp_path, capsys, index, copied
):
    out = tmp_path / "out"
    raw = small_config(out, strategies=["naive", "er-rs"], seeds=[0], checkpoint_every=2)
    assert cli.main(["run", str(write_config(tmp_path, raw))]) == harness.EXIT_OK
    paths = harness.cell_dir(out, "er-rs", 0)
    source = paths.checkpoint_file(-1 if copied == "init" else copied)
    shutil.copy(source, paths.checkpoint_file(index))
    capsys.readouterr()
    assert cli.main(["analyze", str(out), "--all"]) == harness.EXIT_RUNTIME
    assert capsys.readouterr().err == f"analysis failed: see {out / 'error_report.json'}\n"
    report = json.loads((out / "error_report.json").read_text())
    assert (report["command"], report["strategy"], report["seed"]) == ("analyze", "er-rs", 0)
    held = -1 if copied == "init" else copied
    assert report["error"] == repr(learner.CheckpointError(
        f"{paths.checkpoint_file(index)} holds experience {held}, not the {index} of its name"
    ))
    assert not paths.analysis_dir.exists()


def test_a_command_keeps_freed_memory_for_the_process(tmp_path):
    # a fresh process, so no earlier command or test moved the thresholds
    try:
        ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        pytest.skip("the C library has no glibc mallopt")
    child = "\n".join([
        "import resource",
        "import numpy as np",
        "from cirsim import cli, harness",
        "def faults():",
        "    def cycle():",
        "        a = np.ones(1 << 17)  # 1 MiB, every page written",
        "        del a",
        "    cycle()",
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
        "    for _ in range(200):",
        "        cycle()",
        "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before",
        "during = []",
        "harness.analyze = lambda run_dir, force_all: during.append(faults()) or 0",
        "assert cli.main(['analyze', 'unread']) == 0",
        "after = faults()",
        "assert cli.main(['analyze', 'unread']) == 0",
        "print(during[0], after, during[1], faults())",
    ])
    source = str(Path(harness.__file__).parents[1])  # the cirsim imported here
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", child], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    # during the first command, after it, during the second and after it
    faults = [int(n) for n in done.stdout.splitlines()[-1].split()]
    assert len(faults) == 4 and max(faults) < 100, faults


def _tear(path):
    path.write_bytes(path.read_bytes()[:50])


def _swap_weights(path):
    # a well-formed file whose weights no longer match its header digest
    with np.load(path) as data:
        arrays = dict(data)
    arrays["w0"] = arrays["w0"] + 1.0
    with open(path, "wb") as f:
        np.savez(f, **arrays)


@pytest.mark.parametrize("damage", [_tear, _swap_weights])
def test_analyze_reports_damaged_checkpoint(tmp_path, capsys, damage):
    out = tmp_path / "out"
    raw = small_config(out, strategies=["naive", "er-fa"], seeds=[0], checkpoint_every=1)
    assert cli.main(["run", str(write_config(tmp_path, raw))]) == 0
    damaged = out / "er-fa" / "seed0" / "checkpoints" / "ckpt_00002.npz"
    damage(damaged)
    assert cli.main(["analyze", str(out), "--all"]) == harness.EXIT_RUNTIME
    assert "analysis failed" in capsys.readouterr().err
    report = json.loads((out / "error_report.json").read_text())
    assert (report["strategy"], report["seed"]) == ("er-fa", 0)
    assert str(damaged) in report["error"]
    assert "CheckpointError" in report["error"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_analyze_removes_only_an_earlier_analyze_report(tmp_path):
    out = tmp_path / "out"
    raw = small_config(out, strategies=["naive"], seeds=[0], checkpoint_every=2)
    assert cli.main(["run", str(write_config(tmp_path, raw))]) == harness.EXIT_OK
    checkpoint = out / "naive" / "seed0" / "checkpoints" / "ckpt_00003.npz"
    whole = checkpoint.read_bytes()
    _tear(checkpoint)
    assert cli.main(["analyze", str(out), "--all"]) == harness.EXIT_RUNTIME
    assert json.loads((out / "error_report.json").read_text())["command"] == "analyze"
    checkpoint.write_bytes(whole)
    assert cli.main(["analyze", str(out), "--all"]) == harness.EXIT_OK
    assert not (out / "error_report.json").exists()

    # a failed run's report marks the outputs analysed as partial
    diverging = small_config(out, seeds=[0], train={"lr": 1e9, "epochs_per_experience": 5,
                                                    "batch_size": 16, "replay_mix": 0.5})
    assert cli.main(["run", str(write_config(tmp_path, diverging))]) == harness.EXIT_RUNTIME
    report = (out / "error_report.json").read_bytes()
    assert json.loads(report)["command"] == "run"
    assert cli.main(["analyze", str(out), "--all"]) == harness.EXIT_OK
    assert (out / "error_report.json").read_bytes() == report


def test_analyze_torn_config_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    raw = small_config(out, strategies=["naive"], seeds=[0], checkpoint_every=4)
    assert cli.main(["run", str(write_config(tmp_path, raw))]) == 0
    capsys.readouterr()
    (out / "config.json").write_text('{"schema')  # torn mid-write
    assert cli.main(["analyze", str(out), "--all"]) == harness.EXIT_CONFIG
    assert f"config error: unreadable {out / 'config.json'}" in capsys.readouterr().err


def test_analysis_failing_mid_file_leaves_no_partial_csv(tmp_path, monkeypatch, capsys):
    _workers(monkeypatch, 1)  # the fault counts calls in this process
    out = tmp_path / "out"
    raw = small_config(out, strategies=["naive", "er-rs"], seeds=[0], checkpoint_every=1)
    assert harness.run(ExperimentConfig.from_dict(raw)) == harness.EXIT_OK
    calls, original = [], analysis._cka

    def failing(side_x, side_y):
        calls.append(None)
        if len(calls) > 8:  # well inside the first cell's CKA matrices
            raise RuntimeError("injected fault")
        return original(side_x, side_y)

    monkeypatch.setattr(analysis, "_cka", failing)
    assert cli.main(["analyze", str(out), "--all"]) == harness.EXIT_RUNTIME
    assert "analysis failed" in capsys.readouterr().err
    report = json.loads((out / "error_report.json").read_text())
    assert (report["strategy"], report["seed"]) == ("naive", 0)
    assert "injected fault" in report["error"]
    adir = out / "naive" / "seed0" / "analysis"
    assert not adir.exists()  # a cell's CSVs are written once its pass ends
    monkeypatch.setattr(analysis, "_cka", original)
    assert cli.main(["analyze", str(out), "--all"]) == harness.EXIT_OK
    lines = (adir / "cka.csv").read_text().splitlines()
    assert len(lines) == 2 + 7 * 4  # 7 pairs of a 2 x 2 layer matrix


def test_failed_atomic_write_keeps_the_old_file_and_removes_its_tmp(tmp_path, monkeypatch):
    path = tmp_path / "summary.json"
    path.write_text("old")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(files.os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        files.write_atomic(path, "new")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["summary.json"]
    assert path.read_text() == "old"


def test_append_adds_its_text_as_utf8_bytes_and_never_creates_a_file(tmp_path):
    path = tmp_path / "metrics.csv"
    files.write_atomic(path, "# header\n")
    files.append(path, "0,\u00e9\n1,x\r\n")
    assert path.read_bytes() == "# header\n0,\u00e9\n1,x\r\n".encode()
    with pytest.raises(FileNotFoundError):
        files.append(tmp_path / "missing.csv", "0,x\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.csv"]


def test_append_goes_on_after_a_short_write(tmp_path, monkeypatch):
    path = tmp_path / "buffer_trace.csv"
    files.write_atomic(path, "")
    write = files.os.write
    monkeypatch.setattr(files.os, "write", lambda fd, data: write(fd, data[:3]))
    text = "".join(f"{i},{i * 7},{i % 3}\n" for i in range(50))
    files.append(path, text)
    assert path.read_text() == text


def test_a_locked_directory_refuses_a_second_lock_until_released(tmp_path):
    # flock belongs to the open file description, so a second open of the
    # directory sees the lock held, in this process as in another
    with files.lock_dir(tmp_path):
        with pytest.raises(BlockingIOError):
            with files.lock_dir(tmp_path):
                pass
    with files.lock_dir(tmp_path):  # released: the first fd was closed
        pass
    assert list(tmp_path.iterdir()) == []  # the lock made no file


@pytest.mark.parametrize("command", ["run", "run --resume", "analyze"])
def test_a_run_directory_locked_by_another_process_exits_2_and_keeps_every_byte(
    tmp_path, capsys, command
):
    out = tmp_path / "out"
    path = write_config(tmp_path, small_config(out, seeds=[0], checkpoint_every=2))
    assert cli.main(["run", str(path)]) == harness.EXIT_OK
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    capsys.readouterr()
    argv = ["analyze", str(out), "--all"] if command == "analyze" else [
        *command.split(), str(path)]
    with files.lock_dir(out):  # what another cirsim process would hold
        assert cli.main(argv) == harness.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: {out} is locked: another cirsim run or analyze is writing it\n"
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def test_a_run_that_analyzes_and_then_an_analyze_in_one_process_both_succeed(tmp_path):
    # run analyzes under its own lock; each command releases it when it ends
    out = tmp_path / "out"
    raw = small_config(out, seeds=[0], checkpoint_every=2,
                       analysis={"block_distance": {"enabled": True}})
    path = write_config(tmp_path, raw)
    assert cli.main(["run", str(path)]) == harness.EXIT_OK
    assert (out / "naive" / "seed0" / "analysis" / "block_distance.csv").is_file()
    assert cli.main(["analyze", str(out), "--all"]) == harness.EXIT_OK
    assert cli.main(["run", str(path), "--resume"]) == harness.EXIT_OK
    with files.lock_dir(out):  # no command left the lock held
        pass


def test_an_analyze_of_a_missing_directory_exits_2(tmp_path, capsys):
    assert cli.main(["analyze", str(tmp_path / "missing")]) == harness.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: no run directory at {tmp_path / 'missing'}\n"
    assert list(tmp_path.iterdir()) == []


def _assert_numeric_env(record: dict) -> None:
    env = record["numeric_env"]
    assert env["numpy"] == np.__version__
    assert set(env["blas"]) == {"name", "version"}
    assert env["blas_core"] is None or (isinstance(env["blas_core"], str) and env["blas_core"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_summary_and_error_report_record_the_numeric_environment(tmp_path):
    # both files are already non-deterministic; no deterministic output changes
    cfg = ExperimentConfig.from_dict(small_config(tmp_path / "ok", seeds=[0]))
    assert harness.run(cfg) == harness.EXIT_OK
    _assert_numeric_env(json.loads((tmp_path / "ok" / "summary.json").read_text()))
    raw = small_config(tmp_path / "bad", seeds=[0], train={
        "lr": 1e9, "epochs_per_experience": 5, "batch_size": 16, "replay_mix": 0.5})
    assert harness.run(ExperimentConfig.from_dict(raw)) == harness.EXIT_RUNTIME
    _assert_numeric_env(json.loads((tmp_path / "bad" / "error_report.json").read_text()))


def _every_byte(root: Path) -> dict[str, bytes]:
    """Every file under ``root``, by its path relative to ``root``."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _tree_bytes(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` but ``summary.json``, which holds a time."""
    return {rel: data for rel, data in _every_byte(root).items() if Path(rel).name != "summary.json"}


def test_a_kill_in_any_whole_file_write_resumes_to_the_uninterrupted_outputs(
    tmp_path, monkeypatch
):
    raw = small_config(tmp_path / "out", strategies=["naive", "er-rs", "er-fa"], seeds=[0],
                       checkpoint_every=1, generator={**small_config(None)["generator"], "n": 3},
                       analysis={"interpolation": {"enabled": True, "n_points": 3},
                                 "block_distance": {"enabled": True}})
    cfg = ExperimentConfig.from_dict(raw)
    _workers(monkeypatch, 1)  # the patches count and kill the writes of this process
    write_atomic, calls = files.write_atomic, []

    def counting(path, data):
        calls.append(path)
        write_atomic(path, data)

    monkeypatch.setattr(files, "write_atomic", counting)
    assert harness.run(cfg, out_dir=tmp_path / "whole") == harness.EXIT_OK
    whole = _tree_bytes(tmp_path / "whole")
    assert len(calls) > len(whole)  # every checkpoint, state, CSV header, ...

    for k in range(len(calls)):
        written = []

        def killed_at_k(path, data):
            written.append(path)
            if len(written) <= k:
                return write_atomic(path, data)
            data = data.encode() if isinstance(data, str) else data
            Path(f"{path}.tmp").write_bytes(data[: len(data) // 2])
            raise _Killed

        out = tmp_path / f"killed{k}"
        monkeypatch.setattr(files, "write_atomic", killed_at_k)
        with pytest.raises(_Killed):
            harness.run(cfg, out_dir=out)
        monkeypatch.setattr(files, "write_atomic", write_atomic)
        assert harness.run(cfg, out_dir=out, resume=True) == harness.EXIT_OK
        resumed = _tree_bytes(out)
        assert sorted(resumed) == sorted(whole), (k, calls[k])
        for name, data in whole.items():
            assert resumed[name] == data, (k, calls[k], name)


def test_a_kill_in_any_csv_row_append_resumes_to_the_uninterrupted_outputs(
    tmp_path, monkeypatch
):
    raw = small_config(tmp_path / "out", strategies=["naive", "er-rs", "er-fa"], seeds=[0, 1],
                       checkpoint_every=2, generator={**small_config(None)["generator"], "n": 4})
    cfg = ExperimentConfig.from_dict(raw)
    _workers(monkeypatch, 1)  # the patches count and kill the appends of this process
    append, calls = files.append, []

    def counting(path, text):
        calls.append(path)
        append(path, text)

    monkeypatch.setattr(files, "append", counting)
    assert harness.run(cfg, out_dir=tmp_path / "whole") == harness.EXIT_OK
    whole = _tree_bytes(tmp_path / "whole")
    # per seed and experience: naive's metrics row, and each replay cell's
    # metrics row and buffer trace rows
    assert len(calls) == 2 * 4 * 5

    for k in range(len(calls)):
        written = []

        def killed_at_k(path, text):
            written.append(path)
            if len(written) <= k:
                return append(path, text)
            append(path, text[: len(text) // 2])
            raise _Killed

        out = tmp_path / f"killed{k}"
        monkeypatch.setattr(files, "append", killed_at_k)
        with pytest.raises(_Killed):
            harness.run(cfg, out_dir=out)
        monkeypatch.setattr(files, "append", append)
        assert harness.run(cfg, out_dir=out, resume=True) == harness.EXIT_OK
        resumed = _tree_bytes(out)
        assert sorted(resumed) == sorted(whole), (k, calls[k])
        for name, data in whole.items():
            assert resumed[name] == data, (k, calls[k], name)


def test_a_kill_inside_the_resume_truncation_loses_no_rows(tmp_path, monkeypatch):
    # the first resume is killed once two lines of metrics.csv's truncated
    # text reach the disk, through whichever file it writes that text to
    cfg = ExperimentConfig.from_dict(
        small_config(tmp_path / "out", strategies=["naive"], seeds=[0], checkpoint_every=2)
    )
    assert harness.run(cfg, out_dir=tmp_path / "whole") == harness.EXIT_OK
    _run_killed_after(cfg, "naive", 5)
    real_open = io.open

    class KilledAfterTwoLines:
        def __init__(self, *args, **kwargs):
            self.file = real_open(*args, **kwargs)

        def write(self, data):
            if isinstance(data, memoryview):  # from Path.write_bytes
                data = data.tobytes()
            self.file.write(data[:0].join(data.splitlines(keepends=True)[:2]))
            self.file.close()
            raise _Killed

        def writelines(self, lines):
            self.write("".join(lines))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.file.close()

    def killing_open(file, mode="r", *args, **kwargs):
        if Path(file).name in ("metrics.csv", "metrics.csv.tmp") and "w" in mode:
            return KilledAfterTwoLines(file, mode, *args, **kwargs)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(io, "open", killing_open)
    monkeypatch.setattr(builtins, "open", killing_open)
    with pytest.raises(_Killed):
        harness.run(cfg, resume=True)
    monkeypatch.undo()
    assert harness.run(cfg, resume=True) == harness.EXIT_OK
    rel = Path("naive", "seed0", "metrics.csv")
    assert (tmp_path / "out" / rel).read_bytes() == (tmp_path / "whole" / rel).read_bytes()


def test_resume_clears_tmp_files_left_by_a_kill(tmp_path):
    out = tmp_path / "out"
    cfg = ExperimentConfig.from_dict(
        small_config(out, strategies=["naive", "er-rs"], seeds=[0], checkpoint_every=2)
    )
    assert harness.run(cfg, out_dir=tmp_path / "whole") == harness.EXIT_OK
    _run_killed_after(cfg, "er-rs", 3)
    planted = [
        out / "naive" / "seed0" / "checkpoints" / "ckpt_00003.npz.tmp",
        out / "er-rs" / "seed0" / "state" / "state_00003.json.tmp",
        out / "summary.json.tmp",
        out / "error_report.json.tmp",  # the one a successful run never rewrites
    ]
    for path in planted:
        path.write_bytes(b"torn")
    assert harness.run(cfg, resume=True) == harness.EXIT_OK
    assert not [path for path in planted if path.exists()]
    assert _tree_bytes(out) == _tree_bytes(tmp_path / "whole")


@pytest.mark.parametrize("damaged, how", [
    (("metrics.csv", "buffer_trace.csv"), "deleted"),
    (("metrics.csv",), "deleted"),
    (("buffer_trace.csv",), "deleted"),
    (("metrics.csv",), "unstamped"),
    (("buffer_trace.csv",), "unstamped"),
], ids=["both-deleted", "metrics-deleted", "trace-deleted", "metrics-unstamped",
        "trace-unstamped"])
def test_a_cell_whose_csv_lost_its_header_resumes_as_a_fresh_cell(tmp_path, damaged, how):
    # rows were once appended to a new file with no header, and the summary
    # then failed to parse the row taken for the header
    out = tmp_path / "out"
    cfg = ExperimentConfig.from_dict(small_config(
        out, strategies=["naive", "er-rs"], seeds=[0], checkpoint_every=2,
        generator={**small_config(None)["generator"], "n": 6},
    ))
    assert harness.run(cfg, out_dir=tmp_path / "whole") == harness.EXIT_OK
    _run_killed_after(cfg, "er-rs", 3)
    for name in damaged:
        path = out / "er-rs" / "seed0" / name
        if how == "deleted":
            path.unlink()
        else:
            path.write_bytes(path.read_bytes().split(b"\n", 1)[1])
    assert harness.run(cfg, resume=True) == harness.EXIT_OK
    assert _tree_bytes(out) == _tree_bytes(tmp_path / "whole")


def test_a_stray_file_in_state_is_neither_read_nor_removed(tmp_path):
    out = tmp_path / "out"
    cfg = ExperimentConfig.from_dict(
        small_config(out, strategies=["naive"], seeds=[0], checkpoint_every=2)
    )
    assert harness.run(cfg, out_dir=tmp_path / "whole") == harness.EXIT_OK
    _run_killed_after(cfg, "naive", 3)
    stray = out / "naive" / "seed0" / "state" / "state_notes.json"
    stray.write_text("{}")
    assert harness.run(cfg, resume=True) == harness.EXIT_OK
    assert stray.read_text() == "{}"
    stray.unlink()
    assert _tree_bytes(out) == _tree_bytes(tmp_path / "whole")
    stray.write_text("{}")
    assert harness.run(cfg) == harness.EXIT_OK  # a fresh cell removes its own states
    assert stray.read_text() == "{}"


def test_a_fresh_rerun_keeps_the_files_its_cell_does_not_name(tmp_path):
    out = tmp_path / "out"
    cfg = ExperimentConfig.from_dict(small_config(
        out, strategies=["naive", "er-rs"], seeds=[0], checkpoint_every=2,
        analysis={"block_distance": {"enabled": True}},
    ))
    assert harness.run(cfg, out_dir=tmp_path / "whole") == harness.EXIT_OK
    assert harness.run(cfg) == harness.EXIT_OK
    for cell in out.glob("*/seed0"):
        _stray_checkpoint_names(cell / "checkpoints")
        (cell / "analysis" / "notes.csv").write_text("my,notes\n")
    strays = {rel: data for rel, data in _every_byte(out).items()
              if rel not in _every_byte(tmp_path / "whole")}
    assert len(strays) == 12
    assert harness.run(cfg) == harness.EXIT_OK
    assert _tree_bytes(out) == {**_tree_bytes(tmp_path / "whole"), **strays}


@pytest.mark.parametrize("analysis", [{}, {"block_distance": {"enabled": True}}],
                         ids=["analysis-off", "block-distance-on"])
def test_a_resume_after_analyze_leaves_no_analysis_from_before_it(
    tmp_path, monkeypatch, analysis
):
    # the analysis of a killed run describes its checkpoints up to the kill;
    # a resume that adds checkpoints once left it standing, stamped with
    # the run's own digest. One process, so that the kill stops naive's
    # cell too: a worker's kill would leave it finished, and its analysis
    # (then of its final checkpoints) would rightly stay.
    _workers(monkeypatch, 1)
    out = tmp_path / "out"
    cfg = ExperimentConfig.from_dict(small_config(
        out, strategies=["naive", "er-rs"], seeds=[0], checkpoint_every=1, analysis=analysis,
    ))
    assert harness.run(cfg, out_dir=tmp_path / "whole") == harness.EXIT_OK
    _run_killed_after(cfg, "er-rs", 3)
    assert cli.main(["analyze", str(out), "--all"]) == harness.EXIT_OK
    assert len(list(out.glob("*/seed0/analysis/*.csv"))) == 6
    assert harness.run(cfg, resume=True) == harness.EXIT_OK
    assert _tree_bytes(out) == _tree_bytes(tmp_path / "whole")
    expected = ["block_distance.csv"] if analysis else []
    for cell in out.glob("*/seed0"):
        assert sorted(p.name for p in (cell / "analysis").glob("*.csv")) == expected


def test_a_resume_of_a_finished_run_keeps_its_analysis(tmp_path):
    out = tmp_path / "out"
    cfg = ExperimentConfig.from_dict(
        small_config(out, strategies=["naive", "er-rs"], seeds=[0], checkpoint_every=2)
    )
    assert harness.run(cfg) == harness.EXIT_OK
    assert cli.main(["analyze", str(out), "--all"]) == harness.EXIT_OK
    before = _tree_bytes(out)
    assert len([rel for rel in before if "/analysis/" in rel]) == 6
    assert harness.run(cfg, resume=True) == harness.EXIT_OK
    assert _tree_bytes(out) == before


def _rerun_configs(out):
    """A 6-experience naive run checkpointed after every experience and
    interpolated, and another config for the same directory that checkpoints
    only at the end and analyses nothing."""
    first = small_config(out, strategies=["naive"], seeds=[0], checkpoint_every=1,
                         generator={**small_config(out)["generator"], "n": 6},
                         analysis={"interpolation": {"enabled": True}})
    second = {**first, "checkpoint_every": 0, "analysis": {},
              "train": {**first["train"], "lr": 0.05}}
    return ExperimentConfig.from_dict(first), ExperimentConfig.from_dict(second)


def test_fresh_run_clears_an_earlier_runs_files(tmp_path):
    out = tmp_path / "out"
    first, second = _rerun_configs(out)
    assert harness.run(first) == harness.EXIT_OK
    (out / "naive" / "seed0" / "state" / "state_00009.json.tmp").write_text("{")
    (out / "naive" / "seed0" / "analysis" / "cka.csv.tmp").write_text("pair_id")
    assert harness.run(second) == harness.EXIT_OK
    cell = out / "naive" / "seed0"
    assert sorted(p.name for p in (cell / "checkpoints").iterdir()) == [
        "ckpt_00005.npz", "ckpt_init.npz"
    ]
    assert sorted(p.name for p in (cell / "state").iterdir()) == ["state_00005.json"]
    assert not list((cell / "analysis").iterdir())  # the first run's interpolation.csv
    assert cli.main(["analyze", str(out), "--all"]) == harness.EXIT_OK
    lines = (cell / "analysis" / "block_distance.csv").read_text().splitlines()
    assert lines[0] == f"# config_digest={second.digest()}"
    assert {line.split(",")[0] for line in lines[2:]} == {"5"}


def test_resume_after_a_fresh_run_over_an_earlier_one(tmp_path):
    # the earlier run's newer states must not stand in the way of the resume;
    # with checkpoint_every 0 the kill leaves no state, so the cell starts afresh
    first, second = _rerun_configs(tmp_path / "out")
    assert harness.run(first) == harness.EXIT_OK
    _run_killed_after(second, "naive", 2)
    assert harness.run(second, resume=True) == harness.EXIT_OK
    assert harness.run(second, out_dir=tmp_path / "whole") == harness.EXIT_OK
    for name in ("metrics.csv", "checkpoints/ckpt_00005.npz", "state/state_00005.json"):
        resumed = (tmp_path / "out" / "naive" / "seed0" / name).read_bytes()
        assert resumed == (tmp_path / "whole" / "naive" / "seed0" / name).read_bytes(), name


def test_analyze_refuses_another_configs_checkpoint(tmp_path, capsys):
    first, second = _rerun_configs(tmp_path / "out")
    assert harness.run(first, out_dir=tmp_path / "other") == harness.EXIT_OK
    assert harness.run(second, out_dir=tmp_path / "out") == harness.EXIT_OK
    foreign = tmp_path / "out" / "naive" / "seed0" / "checkpoints" / "ckpt_00002.npz"
    shutil.copy(tmp_path / "other" / "naive" / "seed0" / "checkpoints" / foreign.name, foreign)
    assert cli.main(["analyze", str(tmp_path / "out"), "--all"]) == harness.EXIT_RUNTIME
    assert "analysis failed" in capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "error_report.json").read_text())
    assert (report["strategy"], report["seed"]) == ("naive", 0)
    assert str(foreign) in report["error"]
    assert first.digest() in report["error"]


def test_non_finite_csv_feature_exit_2(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("label,f0,f1\n0,0.5,1.0\n1,nan,0.0\n")
    raw = small_config(
        tmp_path / "out",
        dataset={"kind": "csv", "train_path": str(data), "test_path": str(data)},
    )
    assert cli.main(["run", str(write_config(tmp_path, raw))]) == harness.EXIT_CONFIG
    assert f"non-finite feature in {data}, line 3" in capsys.readouterr().err
    data.write_text("label,f0,f1\n0,-inf,1.0\n")
    assert cli.main(["run", str(write_config(tmp_path, raw))]) == harness.EXIT_CONFIG
    assert "line 2" in capsys.readouterr().err


def test_malformed_dataset_csv_is_config_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("label,f0\n")  # header only, no instances
    raw = small_config(
        tmp_path / "out",
        dataset={"kind": "csv", "train_path": str(bad), "test_path": str(bad)},
    )
    with pytest.raises(ConfigError, match="dataset"):
        harness.run(ExperimentConfig.from_dict(raw))


@pytest.mark.parametrize("command", ["run", "inspect"])
def test_a_sampling_experience_listing_more_classes_than_s_exits_2(tmp_path, capsys, command):
    # s // classes instances per class would be 0: the experience would hold
    # none of the classes its occurrence column lists
    out = tmp_path / "out"
    generator = {"kind": "sampling", "n": 4, "s": 4,
                 "first_occurrence": {"kind": "geometric", "param": 1.0},
                 "repetition": {"mode": "constant", "value": 1.0}}
    raw = small_config(out, seeds=[4, 0], generator=generator)
    assert cli.main([command, str(write_config(tmp_path, raw))]) == harness.EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: generator.s (4) is below the 5 classes of experience 0 at seed 4: "
        "each class needs at least one instance\n"
    )
    assert not list(tmp_path.rglob("metrics.csv"))
    assert not list(tmp_path.rglob("occurrence.csv"))
    # s equal to the class count gives each class one instance
    raw["generator"]["s"] = 5
    assert cli.main([command, str(write_config(tmp_path, raw))]) == harness.EXIT_OK


@st.composite
def _generators(draw, num_classes):
    """A generator section: slot with N*K >= C, or sampling with any PMF
    kind, any repetition mode, and s below or above an experience's classes."""
    n = draw(st.integers(1, 10))
    p = st.floats(0, 1)
    if draw(st.booleans()):
        k = draw(st.integers(1, num_classes))
        return {"kind": "slot", "n": max(n, -(-num_classes // k)), "k": k}
    kind = draw(st.sampled_from(PMF_KINDS))
    first = {"kind": kind}
    if kind == "zipf":
        first["param"] = draw(st.floats(0, 3))
    elif kind == "poisson":
        first["param"] = draw(st.floats(0, 10))
    elif kind == "geometric":
        first["param"] = draw(st.floats(0.05, 1))
    elif kind == "custom":
        first["weights"] = draw(st.lists(p, min_size=n, max_size=n).filter(any))
    mode = draw(st.sampled_from(["constant", "list", "bimodal"]))
    if mode == "constant":
        repetition = {"mode": mode, "value": draw(p)}
    elif mode == "list":
        repetition = {"mode": mode, "values": draw(st.lists(p, min_size=num_classes,
                                                            max_size=num_classes))}
    else:
        low, high = sorted([draw(p), draw(p)])
        repetition = {"mode": mode, "fraction_infrequent": draw(p), "p_low": low, "p_high": high}
    return {"kind": "sampling", "n": n, "s": draw(st.integers(1, 2 * num_classes)),
            "first_occurrence": first, "repetition": repetition}


@given(num_classes=st.integers(2, 6), per_class=st.integers(1, 6),
       seed=st.integers(0, 2**16), data=st.data())
@settings(max_examples=150, deadline=None)
def test_a_built_stream_has_no_empty_experience_and_holds_every_class(
    num_classes, per_class, seed, data
):
    # inspect and analyze rely on this: build_stream refuses, or every
    # experience holds an instance and every class occurs somewhere
    dataset = {"kind": "synthetic", "num_classes": num_classes, "per_class": per_class,
               "dim": 4, "spread": 0.5, "test_fraction": 0.2, "seed": 0}
    raw = small_config(None, dataset=dataset, generator=data.draw(_generators(num_classes)))
    cfg = ExperimentConfig.from_dict(raw)
    try:
        train_set, _ = harness.load_inputs(cfg)
        stream = harness.build_stream(cfg, train_set, seed)
    except ConfigError:
        return
    assert all(len(exp) > 0 for exp in stream)
    assert frozenset().union(*(exp.present_classes for exp in stream)) == set(range(num_classes))


class TestInspect:
    def test_slot_ci_classification(self, tmp_path):
        raw = small_config(
            tmp_path / "out",
            dataset={"kind": "synthetic", "num_classes": 10, "per_class": 20,
                     "dim": 6, "spread": 0.4, "seed": 0},
            generator={"kind": "slot", "n": 5, "k": 2},
        )
        report = harness.inspect(ExperimentConfig.from_dict(raw), tmp_path / "ins")
        assert report["classification"] == "CI"
        assert (tmp_path / "ins" / "occurrence.csv").exists()

    def test_full_presence_matrix_for_di_like_stream(self, tmp_path):
        raw = small_config(
            tmp_path / "out",
            generator={"kind": "sampling", "n": 6, "s": 30,
                       "first_occurrence": {"kind": "geometric", "param": 1.0},
                       "repetition": {"mode": "constant", "value": 1.0}},
        )
        report = harness.inspect(ExperimentConfig.from_dict(raw), tmp_path / "ins")
        lines = (tmp_path / "ins" / "occurrence.csv").read_text().splitlines()
        for row in lines[2:]:
            assert row.split(",")[1:] == ["1"] * 6
        assert report["codomain_coverage"] == 1.0
        assert all(v == 0 for v in report["first_occurrence"].values())

    @pytest.mark.parametrize("generator", [
        {"n": 8, "s": 40, "repetition": {"mode": "constant", "value": 0.4}},
        {"n": 12, "s": 5, "repetition": {"mode": "constant", "value": 0.7}},  # s // 5 = 1
        {"n": 6, "s": 200, "repetition": {"mode": "constant", "value": 0.9}},  # pools below quota
        {"n": 10, "s": 9, "repetition": {"mode": "bimodal", "fraction_infrequent": 0.4,
                                         "p_low": 0.1, "p_high": 0.9}},
    ])
    def test_sampling_presence_matrix_equals_the_occurrence_matrix(self, tmp_path, generator):
        # every class an occurrence column lists gets at least one instance,
        # so the presence matrix inspect writes is the occurrence matrix
        from cirsim.sampling_generator import build_occurrence_matrix
        from cirsim.seeding import derive_rng

        generator = {"kind": "sampling",
                     "first_occurrence": {"kind": "geometric", "param": 0.3}, **generator}
        cfg = ExperimentConfig.from_dict(small_config(tmp_path / "out", generator=generator))
        harness.inspect(cfg, tmp_path / "ins")
        train_set, _ = harness.load_inputs(cfg)
        seed = cfg.seeds[0]
        occurrence = build_occurrence_matrix(
            cfg.generator.sampling_config(train_set.num_classes, seed), derive_rng(seed, "stream")
        )
        lines = (tmp_path / "ins" / "occurrence.csv").read_text().splitlines()
        written = np.array([[int(v) for v in line.split(",")[1:]] for line in lines[2:]])
        assert np.array_equal(written, occurrence.matrix)

    def test_bimodal_fraction_reported(self, tmp_path):
        raw = small_config(
            tmp_path / "out",
            dataset={"kind": "synthetic", "num_classes": 10, "per_class": 30,
                     "dim": 6, "spread": 0.5, "seed": 0},
            generator={"kind": "sampling", "n": 10, "s": 40,
                       "first_occurrence": {"kind": "geometric", "param": 0.3},
                       "repetition": {"mode": "bimodal", "fraction_infrequent": 0.3,
                                      "p_low": 0.1, "p_high": 0.9}},
        )
        report = harness.inspect(ExperimentConfig.from_dict(raw), tmp_path / "ins")
        assert report["fraction_infrequent"] == pytest.approx(0.3)
        assert len(report["infrequent_classes"]) == 3


def test_analysis_outputs_written_when_enabled(tmp_path):
    out = tmp_path / "out"
    raw = small_config(
        out,
        strategies=["naive"],
        seeds=[0],
        checkpoint_every=3,
        analysis={"interpolation": {"enabled": True, "n_points": 4},
                  "block_distance": {"enabled": True},
                  "cka": {"enabled": True, "probe_size": 16}},
    )
    cfg = ExperimentConfig.from_dict(raw)
    assert harness.run(cfg) == harness.EXIT_OK
    adir = out / "naive" / "seed0" / "analysis"
    for name in ("interpolation.csv", "block_distance.csv", "cka.csv"):
        text = (adir / name).read_text()
        assert text.startswith(f"# config_digest={cfg.digest()}")
        assert len(text.splitlines()) > 2


class TestCli:
    def test_run_and_exit_codes(self, tmp_path, capsys):
        path = write_config(tmp_path, small_config(tmp_path / "out", seeds=[0]))
        assert cli.main(["run", str(path)]) == 0
        assert (tmp_path / "out" / "summary.json").exists()

    def test_validation_failure_exit_2(self, tmp_path, capsys):
        raw = small_config(tmp_path / "out", generator={"kind": "slot", "n": 5, "k": 99})
        path = write_config(tmp_path, raw)
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "slots_per_experience" in err

    def test_slot_config_without_a_slot_per_class_exit_2(self, tmp_path, capsys, monkeypatch):
        raw = small_config(tmp_path / "out", generator={"kind": "slot", "n": 2, "k": 2})
        path = write_config(tmp_path, raw)

        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(learner, "train_group", no_training)
        assert cli.main(["run", str(path)]) == 2
        assert "N*K=4 < C=5" in capsys.readouterr().err
        assert not list((tmp_path / "out").rglob("metrics.csv"))

    def test_missing_config_exit_2(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("argv", [["run", "--seed", "3"], ["inspect", "--set", "a.b=1"]])
    def test_non_object_config_with_an_override_exit_2(self, tmp_path, capsys, argv):
        path = write_config(tmp_path, [1, 2])
        assert cli.main([argv[0], str(path), *argv[1:]]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err

    def test_flag_overrides(self, tmp_path):
        path = write_config(tmp_path, small_config(tmp_path / "ignored", seeds=[0, 1]))
        out = tmp_path / "flagged"
        assert cli.main(["run", str(path), "--seed", "5", "--out", str(out),
                         "--buffer.size", "20"]) == 0
        assert (out / "naive" / "seed5" / "metrics.csv").exists()
        assert not (out / "naive" / "seed0").exists()
        saved = json.loads((out / "config.json").read_text())
        assert saved["buffer"]["size"] == 20
        assert saved["seeds"] == [5]

    @pytest.mark.parametrize("out", ['/x/a"b', "C:\\temp\\new", "\\u0041"])
    def test_out_flag_reaches_config_unchanged(self, tmp_path, monkeypatch, out):
        path = write_config(tmp_path, small_config(tmp_path / "ignored"))
        received = []

        def fake_run(cfg, **kwargs):
            received.append(cfg)
            return harness.EXIT_OK

        monkeypatch.setattr(harness, "run", fake_run)
        assert cli.main(["run", str(path), "--out", out, "--buffer.policy", "fa"]) == 0
        assert received[0].output_dir == out
        assert received[0].buffer_policy == "fa"

    def test_slot_k_and_n_flags(self, tmp_path, capsys):
        raw = small_config(
            tmp_path / "out",
            dataset={"kind": "synthetic", "num_classes": 10, "per_class": 20,
                     "dim": 6, "spread": 0.4, "seed": 0},
            generator={"kind": "slot", "n": 2, "k": 5},
        )
        path = write_config(tmp_path, raw)
        assert cli.main(["inspect", str(path), "--generator.k", "10",
                         "--generator.n", "5"]) == 0
        assert "classification: DI" in capsys.readouterr().out

    def test_inspect_prints_classification(self, tmp_path, capsys):
        raw = small_config(
            tmp_path / "out",
            dataset={"kind": "synthetic", "num_classes": 10, "per_class": 20,
                     "dim": 6, "spread": 0.4, "seed": 0},
            generator={"kind": "slot", "n": 5, "k": 2},
        )
        path = write_config(tmp_path, raw)
        assert cli.main(["inspect", str(path)]) == 0
        assert "classification: CI" in capsys.readouterr().out

    def test_analyze_subcommand(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(
            tmp_path, small_config(out, strategies=["naive"], seeds=[0],
                                   checkpoint_every=4)
        )
        assert cli.main(["run", str(path)]) == 0
        assert cli.main(["analyze", str(out), "--all"]) == 0
        assert (out / "naive" / "seed0" / "analysis" / "block_distance.csv").exists()

    def test_init_writes_valid_config(self, tmp_path):
        target = tmp_path / "example.json"
        assert cli.main(["init", "--out", str(target)]) == 0
        cfg = load_config(target, overrides=[f'output_dir="{tmp_path / "o"}"'])
        assert cfg.strategies


@pytest.mark.parametrize("target, reason", [
    ("nodir/example.json", "No such file or directory"),
    ("adir", "Is a directory"),
])
def test_init_into_a_missing_directory_or_onto_a_directory_exits_2(
    tmp_path, capsys, target, reason
):
    (tmp_path / "adir").mkdir()
    (tmp_path / "adir" / "kept.json").write_text("{}")
    before = _every_byte(tmp_path)
    assert cli.main(["init", "--out", str(tmp_path / target)]) == harness.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: cannot write {tmp_path / target}: {reason}\n"
    assert _every_byte(tmp_path) == before and sorted(os.listdir(tmp_path)) == ["adir"]


@pytest.mark.parametrize("command", ["run", "inspect"])
@pytest.mark.parametrize("under", [False, True])
def test_an_out_path_that_is_a_file_or_lies_under_one_exits_2(tmp_path, capsys, command, under):
    blocker = tmp_path / "afile"
    blocker.write_text("kept\n")
    out = blocker / "sub" if under else blocker
    path = write_config(tmp_path, small_config(tmp_path / "ignored", seeds=[0]))
    before = _every_byte(tmp_path)
    assert cli.main([command, str(path), "--out", str(out)]) == harness.EXIT_CONFIG
    named = out / "inspect" if command == "inspect" else out
    assert capsys.readouterr().err == (
        f"config error: output directory {named} is a file or lies under one\n"
    )
    assert _every_byte(tmp_path) == before


@pytest.mark.parametrize("command, rel", [
    ("inspect", "inspect/occurrence.csv"),
    ("inspect", "inspect/inspect.json"),
    ("run", "config.json"),
    ("run", "summary.json"),
    ("run", "error_report.json"),
])
def test_a_directory_at_an_output_file_path_exits_2(tmp_path, capsys, command, rel):
    out = tmp_path / "out"
    path = write_config(tmp_path, small_config(out, seeds=[0]))
    assert cli.main(["run", str(path)]) == harness.EXIT_OK  # a finished run to keep
    assert cli.main(["inspect", str(path)]) == harness.EXIT_OK
    (out / rel).unlink(missing_ok=True)
    (out / rel).mkdir()
    (out / rel / "kept.txt").write_text("kept\n")
    before = _every_byte(tmp_path)
    capsys.readouterr()
    assert cli.main([command, str(path)]) == harness.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {out / rel} is a directory\n"
    assert _every_byte(tmp_path) == before


class TestConfig:
    def test_override_paths(self):
        raw = small_config("x")
        apply_override(raw, "train.lr=0.7")
        apply_override(raw, 'buffer.policy="fa"')
        apply_override(raw, "seeds=[3,4]")
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.train.lr == 0.7
        assert cfg.buffer_policy == "fa"
        assert cfg.seeds == (3, 4)

    def test_bare_er_strategy_uses_buffer_policy(self, tmp_path):
        out = tmp_path / "out"
        raw = small_config(out, strategies=["er"], seeds=[0],
                           buffer={"size": 40, "policy": "fa"})
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.resolve_policy("er") == "fa"
        assert cfg.resolve_policy("naive") is None
        assert cfg.resolve_policy("er-cb") == "cb"
        assert harness.run(cfg) == harness.EXIT_OK
        trace = (out / "er" / "seed0" / "buffer_trace.csv").read_text().splitlines()
        # fa traces carry integer quotas in the last column
        assert all(row.split(",")[4].isdigit() for row in trace[2:])

    def test_digest_ignores_output_dir_only(self):
        a = ExperimentConfig.from_dict(small_config("one"))
        b = ExperimentConfig.from_dict(small_config("two"))
        assert a.digest() == b.digest()
        c_raw = small_config("one")
        c_raw["train"]["lr"] = 0.9
        assert ExperimentConfig.from_dict(c_raw).digest() != a.digest()

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda r: r.update(schema_version=2), "schema_version"),
            (lambda r: r.update(strategies=[]), "at least one strategy"),
            (lambda r: r.update(strategies=["magic"]), "unknown strategy"),
            (lambda r: r.update(seeds=[]), "at least one seed"),
            (lambda r: r["dataset"].update(num_classes=1), "num_classes"),
            (lambda r: r["generator"].update(kind="wavelet"), "slot or sampling"),
            (lambda r: r["train"].update(lr=0), "train.lr"),
            (lambda r: r["generator"]["repetition"].update(value=1.5), "repetition.value"),
            (lambda r: r.update(buffer={"size": 0}), "buffer.size"),
        ],
    )
    def test_validation_names_violated_constraint(self, mutate, message):
        raw = small_config("x")
        mutate(raw)
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict(raw)

    def test_csv_dataset_roundtrip_through_run(self, tmp_path):
        from cirsim.stream import make_synthetic_dataset, save_dataset_csv

        train, test = make_synthetic_dataset(4, 20, 5, 0.4, np.random.default_rng(0))
        save_dataset_csv(train, tmp_path / "train.csv")
        save_dataset_csv(test, tmp_path / "test.csv")
        raw = small_config(
            tmp_path / "out",
            dataset={"kind": "csv", "train_path": str(tmp_path / "train.csv"),
                     "test_path": str(tmp_path / "test.csv")},
            strategies=["naive"], seeds=[0],
        )
        assert harness.run(ExperimentConfig.from_dict(raw)) == harness.EXIT_OK

    def test_out_root_env_reroots_relative_dirs(self, tmp_path):
        from cirsim.config import resolve_output_dir

        cfg = ExperimentConfig.from_dict(small_config("runs/x"))
        out = resolve_output_dir(cfg, {"CIRSIM_OUT_ROOT": str(tmp_path)})
        assert out == tmp_path / "runs/x"
        absolute = ExperimentConfig.from_dict(small_config(str(tmp_path / "abs")))
        assert resolve_output_dir(absolute, {"CIRSIM_OUT_ROOT": "/elsewhere"}) == tmp_path / "abs"
