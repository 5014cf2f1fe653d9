"""The config reader: one file reader, one typed getter, and the generator
settings parsed once into the objects the generators use."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cirsim import cli, harness
from cirsim.config import ConfigError, ExperimentConfig, default_config, resolve_output_dir
from cirsim.distributions import PmfSpec
from cirsim.sampling_generator import BimodalSpec


def small_config(out_dir, **updates):
    raw = {
        "schema_version": 1,
        "dataset": {"kind": "synthetic", "num_classes": 5, "per_class": 20,
                    "dim": 4, "spread": 0.6, "test_fraction": 0.2, "seed": 0},
        "generator": {"kind": "sampling", "n": 4, "s": 20,
                      "first_occurrence": {"kind": "geometric", "param": 0.3},
                      "repetition": {"mode": "constant", "value": 0.4}},
        "strategies": ["naive", "er-rs"],
        "buffer": {"size": 10, "policy": "rs"},
        "model": {"hidden": [4], "activation": "relu"},
        "seeds": [0],
        "output_dir": str(out_dir),
    }
    raw.update(updates)
    return raw


# -- malformed values exit 2 and name their key ------------------------------


@pytest.mark.parametrize("override, key", [
    ("generator.first_occurrence={}", "generator.first_occurrence.kind"),
    ('generator.first_occurrence="geometric"', "generator.first_occurrence"),
    ('generator.repetition="mode"', "generator.repetition"),
    ('generator.n="abc"', "generator.n"),
    ("generator.n=2.7", "generator.n"),
    ("model.hidden=5", "model.hidden"),
    ("model.hidden=[4, true]", "model.hidden[1]"),
    ("seeds=5", "seeds"),
    ('train.lr="x"', "train.lr"),
    ("train.lr=true", "train.lr"),
    ("train.lr=Infinity", "train.lr"),
    (f"generator.first_occurrence.param={10**400}", "generator.first_occurrence.param"),
    ("buffer=3", "buffer"),
    ("analysis.cka=true", "analysis.cka"),
    ("dataset.num_classes=null", "dataset.num_classes"),
    ('strategies="naive"', "strategies"),
    ("dataset.seed=-1", "dataset.seed"),
    ('analysis.cka={"enabled": true, "probe_seed": -1}', "analysis.cka.probe_seed"),
    ('generator.repetition={"mode": "bimodal", "fraction_infrequent": 0.5, "p_low": 0.1, '
     '"p_high": 0.9, "assignment_seed": -1}', "generator.repetition.assignment_seed"),
])
def test_malformed_value_exits_2_naming_its_key(tmp_path, capsys, override, key):
    out = tmp_path / "out"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(small_config(out)))
    assert cli.main(["run", str(path), "--set", override]) == harness.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} ") or f"key: {key}\n" in err, err
    assert "Traceback" not in err
    assert not list(tmp_path.rglob("metrics.csv"))


@pytest.mark.parametrize("override, message", [
    ("train.batch_size=0", "train: batch_size must be >= 1"),
    ("train.replay_mix=1.5", "train: replay_mix must lie in [0, 1]"),
    ("train.epochs_per_experience=-1", "train: epochs_per_experience must be >= 0"),
    ('generator.first_occurrence.kind="weird"',
     "generator.first_occurrence: unknown pmf kind 'weird'"),
    ('generator.first_occurrence={"kind": "zipf", "param": -1}',
     "generator.first_occurrence: zipf parameter must be >= 0"),
    ('generator.repetition={"mode": "bimodal", "fraction_infrequent": 0.5, "p_low": 0.9, '
     '"p_high": 0.1}', "generator.repetition: p_low must be <= p_high"),
    ('generator.repetition={"mode": "bimodal", "fraction_infrequent": 2, "p_low": 0.1, '
     '"p_high": 0.9}', "generator.repetition: fraction_infrequent must lie in [0, 1]"),
    ("nokey", "override must look like key.path=value, got 'nokey'"),
    ("=1", "override has an empty key path: '=1'"),
    ("train.lr.x=1", "override path 'train.lr.x' crosses a non-object value"),
    ("dataset.test_fraction=-3", "dataset.test_fraction must be >= 0"),
])
def test_a_refused_setting_exits_2_with_its_message(tmp_path, capsys, override, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(small_config(tmp_path / "out", train={"lr": 0.1})))
    assert cli.main(["run", str(path), "--set", override]) == harness.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not list(tmp_path.rglob("metrics.csv"))


# -- a key that no reader takes exits 2 and names it --------------------------


@pytest.mark.parametrize("argv, key", [
    (["--set", "train.learning_rate=0.5"], "train.learning_rate"),
    (["--set", "trian.lr=0.3"], "trian"),
    (["--set", "generator.repetition.vale=0.9"], "generator.repetition.vale"),
    (["--set", "analysis.cka.probesize=64"], "analysis.cka.probesize"),
    (["--generator.k", "3"], "generator.k"),
    (["--set", "generator.first_occurrence.p=0.5"], "generator.first_occurrence.p"),
    (["--set", 'generator={"kind": "slot", "n": 4, "k": 3, "s": 20}'], "generator.s"),
    (["--set", 'dataset.train_path="train.csv"'], "dataset.train_path"),
    (["--set", 'dataset={"kind": "csv", "train_path": "a.csv", "test_path": "b.csv", "dim": 4}'],
     "dataset.dim"),
    (["--set", "buffer.sizes=3"], "buffer.sizes"),
    (["--set", "model.depth=2"], "model.depth"),
    (["--set", "analysis.interpolation.points=3"], "analysis.interpolation.points"),
    (["--set", "analysis.block_distance.on=true"], "analysis.block_distance.on"),
    (["--set", "analysis.probe_size=64"], "analysis.probe_size"),
    (["--set", "generator.first_occurrence.weights=[1,2,3,4]"],
     "generator.first_occurrence.weights"),
    (["--set", 'generator.first_occurrence={"kind": "uniform", "param": 0.7}'],
     "generator.first_occurrence.param"),
])
@pytest.mark.parametrize("command", ["run", "inspect"])
def test_an_unused_config_key_exits_2_naming_it(tmp_path, capsys, command, argv, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(small_config(tmp_path / "out")))
    assert cli.main([command, str(path), *argv]) == harness.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: unused config key: {key}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


# -- each per-key flag reaches the run's config.json, and wins over --set ----


@pytest.mark.parametrize("flag, key, other, value", [
    (["--seed", "7"], "seeds", "[3]", [7]),
    (["--buffer.policy", "fa"], "buffer.policy", '"cb"', "fa"),
    (["--buffer.size", "5"], "buffer.size", "9", 5),
    (["--generator.n", "3"], "generator.n", "6", 3),
    (["--generator.k", "3"], "generator.k", "2", 3),
])
@pytest.mark.parametrize("with_set", [False, True], ids=["flag", "flag-and-set"])
def test_a_per_key_flag_lands_in_the_runs_config_json(tmp_path, flag, key, other, value,
                                                      with_set):
    # _collect_overrides appends the flags after every --set value
    slot = {"kind": "slot", "n": 4, "k": 2}
    raw = small_config(tmp_path / "out", **({"generator": slot} if key == "generator.k" else {}))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    argv = ["run", str(path), *flag, *(["--set", f"{key}={other}"] if with_set else [])]
    assert cli.main(argv) == harness.EXIT_OK
    recorded = json.loads((tmp_path / "out" / "config.json").read_text())
    for part in key.split("."):
        recorded = recorded[part]
    assert recorded == value


@pytest.mark.parametrize("env, output_dir, expected", [
    ({"CIRSIM_OUT_ROOT": "/data"}, "runs/a", "/data/runs/a"),
    ({"CIRSIM_OUT_ROOT": "/data"}, "/abs/a", "/abs/a"),
    ({}, "runs/a", "runs/a"),
    ({"CIRSIM_OUT_ROOT": ""}, "runs/a", "runs/a"),
], ids=["relative", "absolute", "unset", "empty"])
def test_cirsim_out_root_reroots_only_a_relative_output_dir(env, output_dir, expected):
    cfg = ExperimentConfig.from_dict(small_config(output_dir))
    assert resolve_output_dir(cfg, env) == Path(expected)


def _run_and_record(tmp_path):
    """Run a small config into ``first``; the run's own config.json path."""
    first = tmp_path / "first"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(small_config(first, checkpoint_every=1)))
    assert cli.main(["run", str(path)]) == harness.EXIT_OK
    return first / "config.json"


def _cells(root):
    """Every file under ``root`` but its config.json and summary.json."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*")
            if p.is_file() and p.parent != root}


def test_a_rerun_from_a_runs_own_config_json_writes_the_same_cells(tmp_path):
    # config.json adds config_digest, which the reader takes and keeps out
    # of the digest, so every stamp and so every byte of a cell is the same
    recorded = _run_and_record(tmp_path)
    first, second = recorded.parent, tmp_path / "second"
    assert cli.main(["run", str(recorded), "--out", str(second)]) == harness.EXIT_OK
    assert _cells(first) and _cells(second) == _cells(first)
    first_json, second_json = (json.loads((root / "config.json").read_text())
                               for root in (first, second))
    assert second_json == {**first_json, "output_dir": str(second)}


def test_a_resume_from_a_runs_own_config_json_exits_0(tmp_path):
    recorded = _run_and_record(tmp_path)
    before = _cells(recorded.parent)
    assert cli.main(["run", str(recorded), "--resume"]) == harness.EXIT_OK
    assert _cells(recorded.parent) == before


def test_analyze_of_a_run_whose_config_holds_an_unused_key_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(small_config(out, checkpoint_every=1)))
    assert cli.main(["run", str(path)]) == harness.EXIT_OK
    saved = json.loads((out / "config.json").read_text())
    saved["train"] = {"momentum": 0.9}  # as an older cirsim, which ignored the key, wrote it
    (out / "config.json").write_text(json.dumps(saved))
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert cli.main(["analyze", str(out), "--all"]) == harness.EXIT_CONFIG
    assert capsys.readouterr().err == "config error: unused config key: train.momentum\n"
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def test_a_config_whose_keys_are_all_read_keeps_its_raw_dict_and_digest():
    # the readers take keys out of their own copy; the caller's dict, ``raw``
    # and the digest, which config.json records, are what was given
    raw = default_config("out")
    given = json.loads(json.dumps(raw))
    cfg = ExperimentConfig.from_dict(raw)
    assert raw == given and cfg.raw == given
    payload = json.dumps({k: v for k, v in given.items() if k != "output_dir"}, sort_keys=True)
    assert cfg.digest() == hashlib.sha256(payload.encode()).hexdigest()[:16]


def test_er_takes_its_policy_from_buffer_policy(tmp_path):
    out = tmp_path / "out"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(small_config(out, strategies=["er"])))
    assert cli.main(["run", str(path), "--set", "buffer.policy=fa"]) == harness.EXIT_OK
    assert json.loads((out / "config.json").read_text())["buffer"]["policy"] == "fa"
    assert (out / "er" / "seed0" / "buffer_trace.csv").exists()


def test_analyze_of_a_run_with_no_analysis_enabled_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(small_config(out)))
    assert cli.main(["run", str(path)]) == harness.EXIT_OK
    assert cli.main(["analyze", str(out)]) == harness.EXIT_OK
    assert not list(out.rglob("analysis"))


def test_inspect_of_a_bimodal_config_prints_its_infrequent_classes(tmp_path, capsys):
    raw = small_config(tmp_path / "out")
    raw["generator"]["repetition"] = {
        "mode": "bimodal", "fraction_infrequent": 0.4, "p_low": 0.1, "p_high": 0.9}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["inspect", str(path)]) == harness.EXIT_OK
    assert "infrequent classes: 2 (40%)" in capsys.readouterr().out.splitlines()


def test_integer_keys_read_an_integral_float_as_an_int():
    raw = small_config("x", seeds=[3.0], checkpoint_every=2.0)
    raw["generator"]["n"] = 4.0
    cfg = ExperimentConfig.from_dict(raw)
    assert cfg.generator.n == 4 and type(cfg.generator.n) is int
    assert cfg.seeds == (3,) and type(cfg.seeds[0]) is int
    assert cfg.checkpoint_every == 2 and type(cfg.checkpoint_every) is int


def test_generator_settings_are_parsed_once_into_typed_objects():
    raw = small_config("x")
    raw["generator"]["first_occurrence"] = {"kind": "poisson", "param": 2}
    raw["generator"]["repetition"] = {"mode": "bimodal", "fraction_infrequent": 0.4,
                                      "p_low": 0, "p_high": 1}
    gen = ExperimentConfig.from_dict(raw).generator
    assert gen.first_occurrence == PmfSpec("poisson", 4, param=2)
    assert type(gen.first_occurrence.param) is int  # hashed as written
    assert gen.repetition == BimodalSpec(0.4, 0.0, 1.0, 0)
    assert all(not isinstance(v, dict) for v in vars(gen).values())


def test_a_support_len_other_than_n_is_refused():
    raw = small_config("x")
    raw["generator"]["first_occurrence"]["support_len"] = 5
    with pytest.raises(ConfigError, match="generator.first_occurrence.support_len"):
        ExperimentConfig.from_dict(raw)


def test_repetition_values_of_another_length_than_the_classes_exit_2(tmp_path, capsys):
    raw = small_config(tmp_path / "out")
    raw["generator"]["repetition"] = {"mode": "list", "values": [0.1, 0.2]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path)]) == harness.EXIT_CONFIG
    assert "one value per class (5), got 2" in capsys.readouterr().err
    assert not list(tmp_path.rglob("metrics.csv"))


@pytest.mark.parametrize("command", ["run", "inspect"])
def test_a_class_without_training_instances_exits_2_naming_it(tmp_path, capsys, command):
    from cirsim.stream import LabeledDataset, make_synthetic_dataset, save_dataset_csv

    train, test = make_synthetic_dataset(5, 20, 4, 0.4, np.random.default_rng(0))
    keep = train.labels != 2  # labels {0, 1, 3, 4}, so C = 5
    save_dataset_csv(LabeledDataset(train.features[keep], train.labels[keep], 5),
                     tmp_path / "train.csv")
    save_dataset_csv(test, tmp_path / "test.csv")
    raw = small_config(tmp_path / "out", dataset={
        "kind": "csv", "train_path": str(tmp_path / "train.csv"),
        "test_path": str(tmp_path / "test.csv"),
    })
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert cli.main([command, str(path)]) == harness.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "config error: dataset: class 2 has no training instance\n"
    assert not list(tmp_path.rglob("metrics.csv"))
    assert not (tmp_path / "out" / "error_report.json").exists()


@pytest.mark.parametrize("command", ["run", "inspect"])
@pytest.mark.parametrize("train_dim, test_dim", [(4, 3), (0, 4)])
def test_a_csv_dataset_with_the_wrong_feature_count_exits_2_naming_both(
    tmp_path, capsys, command, train_dim, test_dim
):
    # (4, 3) once trained experience 0 and then failed in evaluation; (0, 4),
    # a train CSV of labels alone, ended in a ZeroDivisionError
    from cirsim.stream import LabeledDataset, make_synthetic_dataset, save_dataset_csv

    train, test = make_synthetic_dataset(5, 20, 4, 0.4, np.random.default_rng(0))
    for split, dim, name in ((train, train_dim, "train.csv"), (test, test_dim, "test.csv")):
        save_dataset_csv(
            LabeledDataset(split.features[:, :dim], split.labels, 5), tmp_path / name
        )
    raw = small_config(tmp_path / "out", dataset={
        "kind": "csv", "train_path": str(tmp_path / "train.csv"),
        "test_path": str(tmp_path / "test.csv"),
    })
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert cli.main([command, str(path)]) == harness.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == (
        f"config error: dataset: the train set has {train_dim} features and the test "
        f"set {test_dim}; both need the same number, at least 1\n"
    )
    assert not list(tmp_path.rglob("metrics.csv"))
    assert not (tmp_path / "out" / "error_report.json").exists()


_GOOD_ROWS = "".join(f"{c},0.{c}5,1.{c}\n" for c in range(5))  # C = 5, two features


@pytest.mark.parametrize("bad_file, bad_row, message", [
    # a ragged row once surfaced numpy's "inhomogeneous shape" error, with no line
    ("train.csv", "3,0.5\n", "1 features in {path}, line 7; the rows before it have 2"),
    ("test.csv", "3,0.5,1.0,2.0\n", "3 features in {path}, line 7; the rows before it have 2"),
    # an out-of-range label once read "labels must lie in [0, num_classes)"
    ("test.csv", "7,0.5,1.0\n", "label 7 in {path}, line 7 lies outside [0, 5)"),
    ("train.csv", "-1,0.5,1.0\n", "label -1 in {path}, line 7 lies outside [0, num_classes)"),
    ("train.csv", "x,0.5,1.0\n",
     "invalid literal for int() with base 10: 'x' in {path}, line 7"),
])
def test_a_malformed_csv_dataset_row_exits_2_naming_its_file_and_line(
    tmp_path, capsys, bad_file, bad_row, message
):
    for name in ("train.csv", "test.csv"):
        extra = bad_row if name == bad_file else ""
        (tmp_path / name).write_text("label,f0,f1\n" + _GOOD_ROWS + extra)
    raw = small_config(tmp_path / "out", dataset={
        "kind": "csv", "train_path": str(tmp_path / "train.csv"),
        "test_path": str(tmp_path / "test.csv"),
    })
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path)]) == harness.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: dataset: {message.format(path=tmp_path / bad_file)}\n"
    assert not list(tmp_path.rglob("metrics.csv"))
    assert not (tmp_path / "out" / "error_report.json").exists()


# -- the one file reader ---------------------------------------------------------


def test_run_on_a_config_that_is_not_utf8_exit_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"schema_version": 1, "output_dir": "\xff"}')
    assert cli.main(["run", str(path)]) == harness.EXIT_CONFIG
    assert f"config error: unreadable {path}" in capsys.readouterr().err


def test_analyze_on_a_config_that_is_not_utf8_exit_2(tmp_path, capsys):
    (tmp_path / "config.json").write_bytes(b'{"schema_version": \xff}')
    assert cli.main(["analyze", str(tmp_path), "--all"]) == harness.EXIT_CONFIG
    assert f"config error: unreadable {tmp_path / 'config.json'}" in capsys.readouterr().err


def test_run_on_a_directory_exit_2(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path)]) == harness.EXIT_CONFIG
    assert f"config error: unreadable {tmp_path}" in capsys.readouterr().err


# -- any JSON value at any path: a config or a ConfigError -------------------------


def _paths(node, prefix=()):
    """Every section and leaf path of a JSON document, list elements included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


DEFAULT = default_config("runs/property")
PATHS = list(_paths(DEFAULT))
KEYS = sorted({str(p[-1]) for p in PATHS} | {"support_len", "weights", "values", "mode",
                                             "fraction_infrequent", "p_low", "p_high",
                                             "assignment_seed", "probe_seed", "k"})
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(["constant", "list", "bimodal", "custom", "uniform", "slot", "csv"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), children, max_size=4),
    max_leaves=8,
)


@settings(max_examples=400, deadline=None)
@given(path=st.sampled_from(PATHS), value=json_values)
def test_any_json_value_at_any_path_parses_or_is_a_config_error(path, value):
    raw = json.loads(json.dumps(DEFAULT))
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        ExperimentConfig.from_dict(raw)
    except ConfigError:
        pass


# -- the generators' config hashes, pinned ------------------------------------------

# (generator_config_hash, sha256 of the manifest text) of the streams of run
# seeds 0 and 7, recorded before the generator config was parsed once: int
# "param"/"value"/"weights" and the list and bimodal modes hash as they did
GOLDEN_STREAMS = {
    "slot": ({"kind": "slot", "n": 4, "k": 3}, [
        ("e10e395552049b522a1eb01d5dfe86937afc0e194d553f29e8898b4e22ac26a4",
         "bb756fb1f732dafc2b29f1fadcac8957a10d3fddd26d93faa3395390aee27b9a"),
        ("897ca378af47fcceadd3fbed55f5469e2aa6d26816ad2f119e7249e2c2a263b8",
         "fb45d31444b2cc7441b4f13a494a6c3fb615b4c10522d9196391227fee87cbb8"),
    ]),
    "int-param-value": ({"kind": "sampling", "n": 5, "s": 24,
                         "first_occurrence": {"kind": "poisson", "param": 2},
                         "repetition": {"mode": "constant", "value": 1}}, [
        ("963dd95562344f31245842d16b42940338ecfd59b8920abf246c489328866234",
         "a4919e2b8ec5609d3c6761532e30d6dbfb12f5ffac45b312de64492d00dc25e1"),
        ("9dfddcd3261166d9579a67ce973d76884feab912ad4a842029b895dc95646fa9",
         "38113dd7f2f8de6bd568ad8669fc9ee2611ba161e86e7310119356193a0a171c"),
    ]),
    "custom-int-weights": ({"kind": "sampling", "n": 4, "s": 24,
                            "first_occurrence": {"kind": "custom", "weights": [3, 0, 1, 2],
                                                 "support_len": 4},
                            "repetition": {"mode": "constant", "value": 0}}, [
        ("49295ed49e8087b081995f0ec0a8a14c32a09aae7d0416ae08f49a55e6b3bc95",
         "768bfb62567f7afb69ab2a7db3582154c7b3cdef6181c0b7925ee8eba2dd5f34"),
        ("f6a231f331dc13e0de5700c6ea6c92b87678aafe2b6c3c899435901a4908538f",
         "4baea3d722c0e328ac32db60e5bd7837486c73417c74228cb520555308475ca1"),
    ]),
    "list": ({"kind": "sampling", "n": 6, "s": 24,
              "first_occurrence": {"kind": "zipf", "param": 1.5},
              "repetition": {"mode": "list", "values": [0, 0.25, 1, 0.5, 0.75, 0.1]}}, [
        ("1d08d6dd75adc310011b6a3f45114f1e06763e2019e9481744059c9728c25fd9",
         "d029e96695ccad74a1c55124108afee693d48fb2b4ce916087462ae971cd9f9f"),
        ("479f1ec9556e1c376846389ef5d5e8ac07db09161055c190c5fd10ebfff01b19",
         "201a8718ed4cc84172c7ac6271a52afe12e4d3ae6758a942eaffb0ad47ba1efe"),
    ]),
    "bimodal": ({"kind": "sampling", "n": 6, "s": 24,
                 "first_occurrence": {"kind": "geometric", "param": 0.4},
                 "repetition": {"mode": "bimodal", "fraction_infrequent": 0.5,
                                "p_low": 0, "p_high": 1, "assignment_seed": 3}}, [
        ("fb0871782523aed085a3e30a45ab952beaa95fc6ca744e28fdcfddb3146259b8",
         "2b99f00540a46576322f407b1bad0fa5370e5e0f7280fdd03d8129001766d4c2"),
        ("801de05b5d44edcb00f5aa1325e9cecfd8776f17e29900a693931902794ad7ae",
         "52be3bed8ce7493466b9238f66e58af992b2ee2aca92d946c66b7aca46d261a5"),
    ]),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_STREAMS))
def test_generator_config_hashes_match_golden(name):
    generator, golden = GOLDEN_STREAMS[name]
    cfg = ExperimentConfig.from_dict({
        "schema_version": 1,
        "dataset": {"kind": "synthetic", "num_classes": 6, "per_class": 20,
                    "dim": 4, "spread": 0.5, "test_fraction": 0.2, "seed": 0},
        "generator": generator,
        "strategies": ["naive"], "seeds": [0, 7], "output_dir": "x",
    })
    train, _ = harness.load_inputs(cfg)
    found = []
    for seed in cfg.seeds:
        stream = harness.build_stream(cfg, train, seed)
        text = stream.manifest_text(cfg.digest())
        found.append((stream.generator_config_hash, hashlib.sha256(text.encode()).hexdigest()))
    assert found == golden
