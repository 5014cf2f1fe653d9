import json
import numpy as np
import pytest

from cirsim import cli, harness, learner
from cirsim.config import ConfigError, ExperimentConfig, apply_override, load_config
from cirsim.metrics import parse_csv


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


def test_analyze_builds_streams_only_for_interpolation(tmp_path, monkeypatch):
    out = tmp_path / "out"
    raw = small_config(out, seeds=[0, 1], checkpoint_every=3,
                       analysis={"block_distance": {"enabled": True},
                                 "cka": {"enabled": True, "probe_size": 16}})
    assert harness.run(ExperimentConfig.from_dict(raw)) == harness.EXIT_OK
    seeds = _count_stream_builds(monkeypatch)
    assert harness.analyze(out) == harness.EXIT_OK
    assert seeds == []
    assert harness.analyze(out, force_all=True) == harness.EXIT_OK
    assert sorted(seeds) == [0, 1]  # interpolation: once per seed, not per cell


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


def test_resume_matches_uninterrupted_run(tmp_path):
    raw = small_config(tmp_path / "full", checkpoint_every=3)
    cfg = ExperimentConfig.from_dict(raw)
    assert harness.run(cfg, out_dir=tmp_path / "full") == harness.EXIT_OK

    assert harness.run(cfg, out_dir=tmp_path / "resumed", stop_after=2) == harness.EXIT_OK
    assert harness.run(cfg, out_dir=tmp_path / "resumed", resume=True) == harness.EXIT_OK
    for rel in [p.relative_to(tmp_path / "full")
                for p in (tmp_path / "full").rglob("metrics.csv")]:
        full = (tmp_path / "full" / rel).read_bytes()
        resumed = (tmp_path / "resumed" / rel).read_bytes()
        assert full == resumed, rel


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
    harness.run(cfg, stop_after=3)
    other = dict(raw)
    other["train"] = {"lr": 0.05, "epochs_per_experience": 1, "batch_size": 16,
                      "replay_mix": 0.5}
    cfg2 = ExperimentConfig.from_dict(other)
    with pytest.raises(ConfigError, match="different config"):
        harness.run(cfg2, out_dir=out, resume=True)


def test_malformed_dataset_csv_is_config_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("label,f0\n")  # header only, no instances
    raw = small_config(
        tmp_path / "out",
        dataset={"kind": "csv", "train_path": str(bad), "test_path": str(bad)},
    )
    with pytest.raises(ConfigError, match="dataset"):
        harness.run(ExperimentConfig.from_dict(raw))


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

        monkeypatch.setattr(learner, "train_on_experience", no_training)
        assert cli.main(["run", str(path)]) == 2
        assert "N*K=4 < C=5" in capsys.readouterr().err
        assert not list((tmp_path / "out").rglob("metrics.csv"))

    def test_missing_config_exit_2(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "nope.json")]) == 2

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
