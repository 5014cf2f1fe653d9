"""Experiment runner.

Executes a strategy x seed grid over generated streams, one per run seed
and shared by every strategy of that seed: per cell it trains the learner
across all experiences, evaluates after each one, and writes a
metrics CSV, a buffer trace, the stream manifest and parameter checkpoints.
Metric rows are appended as they are produced (crash-safe), every output
carries the config digest, and runs are resumable at experience granularity
from the latest checkpointed state.

Per-component RNG streams are derived from (run seed, component name), so
the stream a strategy sees never depends on the strategy itself.
"""

import functools
import json
import statistics
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import analysis as ana
from . import learner, metrics
from .buffers import ReplayBuffer
from .config import ConfigError, ExperimentConfig
from .sampling_generator import build_occurrence_matrix, realize_stream
from .seeding import derive_rng
from .slot_generator import generate_slot_stream
from .stream import LabeledDataset, Stream, load_dataset_csv, make_synthetic_dataset
from .stream import verify_scenario_properties

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
STATE_VERSION = 1


# -- inputs ------------------------------------------------------------------


def build_dataset(cfg: ExperimentConfig) -> tuple[LabeledDataset, LabeledDataset]:
    ds = cfg.dataset
    if ds.kind == "csv":
        train = load_dataset_csv(ds.train_path)
        test = load_dataset_csv(ds.test_path, num_classes=train.num_classes)
        return train, test
    rng = np.random.default_rng(ds.seed)
    return make_synthetic_dataset(
        ds.num_classes, ds.per_class, ds.dim, ds.spread, rng, ds.test_fraction
    )


def load_inputs(cfg: ExperimentConfig) -> tuple[LabeledDataset, LabeledDataset]:
    """Build (train, test) and fail fast, as a config error, on infeasible
    generator settings or unreadable dataset files."""
    try:
        train_set, test_set = build_dataset(cfg)
    except ConfigError:
        raise
    except (OSError, ValueError) as exc:
        raise ConfigError(f"dataset: {exc}") from exc
    validate_feasibility(cfg, train_set)
    return train_set, test_set


def build_stream(cfg: ExperimentConfig, dataset: LabeledDataset, seed: int):
    """Returns (stream, occurrence matrix or None) for one run seed."""
    rng = derive_rng(seed, "stream")
    if cfg.generator.kind == "slot":
        # the generator owns its rng; scope the seed so other components
        # never share it
        slot_cfg = replace(
            cfg.generator.slot_config(seed), seed=int(rng.integers(2**63))
        )
        return generate_slot_stream(dataset, slot_cfg), None
    samp_cfg = cfg.generator.sampling_config(dataset.num_classes, seed)
    occurrence = build_occurrence_matrix(samp_cfg, rng)
    return realize_stream(dataset, occurrence, samp_cfg, rng), occurrence


def _stream_per_seed(cfg: ExperimentConfig, dataset: LabeledDataset):
    """seed -> that run seed's stream, built on first use and then shared."""
    return functools.cache(lambda seed: build_stream(cfg, dataset, seed)[0])


def validate_feasibility(cfg: ExperimentConfig, dataset: LabeledDataset) -> None:
    """Generator feasibility checks that need the dataset, run before any
    training so bad configs fail fast with the violated constraint named."""
    try:
        if cfg.generator.kind == "slot":
            cfg.generator.slot_config(cfg.seeds[0]).validate(dataset)
        else:
            cfg.generator.sampling_config(dataset.num_classes, cfg.seeds[0]).validate()
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"generator: {exc}") from exc


# -- cell state (resume support) ----------------------------------------------


def _buffer_to_state(buffer: ReplayBuffer | None) -> dict | None:
    if buffer is None:
        return None
    return {
        "policy": buffer.policy,
        "max_size": buffer.max_size,
        "store": {str(c): list(items) for c, items in buffer.store.items()},
        "seen_order": list(buffer.seen_order),
        "observations": {str(c): n for c, n in buffer.observations.items()},
        "rs_seen_count": buffer.rs_seen_count,
        "rs_items": [list(p) for p in buffer._rs_items],
        "cb_class_seen": {str(c): n for c, n in buffer._cb_class_seen.items()},
    }


def _buffer_from_state(state: dict | None) -> ReplayBuffer | None:
    if state is None:
        return None
    buf = ReplayBuffer(max_size=state["max_size"], policy=state["policy"])
    buf.store = {int(c): list(items) for c, items in state["store"].items()}
    buf.seen_order = list(state["seen_order"])
    buf.observations = {int(c): n for c, n in state["observations"].items()}
    buf.rs_seen_count = state["rs_seen_count"]
    buf._rs_items = [tuple(p) for p in state["rs_items"]]
    buf._cb_class_seen = {int(c): n for c, n in state["cb_class_seen"].items()}
    return buf


def _rng_state(rng: np.random.Generator) -> dict:
    return rng.bit_generator.state


def _restore_rng(state: dict) -> np.random.Generator:
    rng = np.random.default_rng(0)
    rng.bit_generator.state = state
    return rng


# -- cell execution ------------------------------------------------------------


@dataclass
class CellPaths:
    root: Path

    @property
    def metrics_csv(self) -> Path:
        return self.root / "metrics.csv"

    @property
    def buffer_trace_csv(self) -> Path:
        return self.root / "buffer_trace.csv"

    @property
    def manifest(self) -> Path:
        return self.root / "stream_manifest.json"

    @property
    def checkpoints(self) -> Path:
        return self.root / "checkpoints"

    @property
    def states(self) -> Path:
        return self.root / "state"

    @property
    def analysis_dir(self) -> Path:
        return self.root / "analysis"

    def checkpoint_file(self, index: int) -> Path:
        name = "ckpt_init.npz" if index < 0 else f"ckpt_{index:05d}.npz"
        return self.checkpoints / name

    def state_file(self, index: int) -> Path:
        return self.states / f"state_{index:05d}.json"


def cell_dir(out_dir: Path, strategy: str, seed: int) -> CellPaths:
    return CellPaths(out_dir / strategy / f"seed{seed}")


def _latest_state_index(paths: CellPaths) -> int | None:
    if not paths.states.is_dir():
        return None
    indices = sorted(
        int(p.stem.split("_")[1]) for p in paths.states.glob("state_*.json")
    )
    return indices[-1] if indices else None


def _truncate_csv(path: Path, max_experience: int) -> None:
    if not path.exists():
        return
    kept = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            first = line.split(",", 1)[0]
            if line.startswith("#") or not first.isdigit() or int(first) <= max_experience:
                kept.append(line)
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(kept)


def run_cell(
    cfg: ExperimentConfig,
    train_set: LabeledDataset,
    test_set: LabeledDataset,
    stream: Stream,
    strategy: str,
    seed: int,
    paths: CellPaths,
    resume: bool = False,
    stop_after: int | None = None,
) -> list[metrics.RunRecord]:
    """Train one (strategy, seed) cell over ``stream``, the seed's stream
    from ``build_stream``.

    ``stop_after`` ends the cell early after the given experience index
    (used to exercise crash/resume behavior).
    """
    digest = cfg.digest()
    policy = cfg.resolve_policy(strategy)
    n_experiences = len(stream)
    infrequent = cfg.generator.infrequent_classes(train_set.num_classes)

    paths.root.mkdir(parents=True, exist_ok=True)
    paths.checkpoints.mkdir(exist_ok=True)
    paths.states.mkdir(exist_ok=True)

    start_index = 0
    params = None
    buffer = ReplayBuffer(max_size=cfg.buffer_size, policy=policy) if policy else None
    train_rng = derive_rng(seed, "learner")
    buffer_rng = derive_rng(seed, "buffer")
    seen: set[int] = set()

    if resume:
        latest = _latest_state_index(paths)
        if latest is not None:
            state = json.loads(paths.state_file(latest).read_text())
            if state["config_digest"] != digest:
                raise ConfigError(
                    "resume state was produced by a different config "
                    f"(digest {state['config_digest']} != {digest})"
                )
            params = learner.load_checkpoint(paths.checkpoint_file(latest)).params
            buffer = _buffer_from_state(state["buffer"])
            train_rng = _restore_rng(state["train_rng"])
            buffer_rng = _restore_rng(state["buffer_rng"])
            seen = set(state["seen_classes"])
            start_index = state["next_experience"]
            _truncate_csv(paths.metrics_csv, latest)
            _truncate_csv(paths.buffer_trace_csv, latest)

    if params is None:
        params = learner.init_params(
            train_set.dim,
            cfg.model.hidden,
            train_set.num_classes,
            cfg.model.activation,
            derive_rng(seed, "learner-init"),
        )
        stream.save_manifest(paths.manifest, config_digest=digest)
        learner.save_checkpoint(
            learner.snapshot(params, -1, config_digest=digest), paths.checkpoint_file(-1)
        )
        _write_csv_header(paths.metrics_csv, digest, metrics.csv_header(train_set.num_classes))
        if buffer is not None:
            _write_csv_header(
                paths.buffer_trace_csv,
                digest,
                "experience_index,class_id,stored_count,observation_count,quota\n",
            )

    records: list[metrics.RunRecord] = []
    for exp in stream:
        if exp.index < start_index:
            continue
        x = train_set.features[exp.train_instances]
        y = train_set.labels[exp.train_instances]
        if len(exp) > 0:
            learner.train_on_experience(
                params, x, y, cfg.train, train_rng, buffer=buffer, dataset=train_set
            )
        if buffer is not None:
            buffer.update(exp.train_instances, y, buffer_rng)
        seen |= exp.present_classes

        ctx = metrics.EvalContext(
            seen_classes=frozenset(seen),
            present_classes=exp.present_classes,
            infrequent_classes=infrequent,
        )
        record = metrics.evaluate(
            params, test_set, ctx, experience_index=exp.index, strategy=strategy, seed=seed
        )
        records.append(record)
        _append(paths.metrics_csv, metrics.to_csv_row(record))
        if buffer is not None:
            _append(paths.buffer_trace_csv, _trace_rows(buffer, exp.index))

        is_last = exp.index == n_experiences - 1
        at_interval = cfg.checkpoint_every > 0 and (exp.index + 1) % cfg.checkpoint_every == 0
        stopping = stop_after is not None and exp.index >= stop_after
        if is_last or at_interval or stopping:
            learner.save_checkpoint(
                learner.snapshot(params, exp.index, config_digest=digest),
                paths.checkpoint_file(exp.index),
            )
            state = {
                "state_version": STATE_VERSION,
                "config_digest": digest,
                "strategy": strategy,
                "seed": seed,
                "next_experience": exp.index + 1,
                "seen_classes": sorted(seen),
                "train_rng": _rng_state(train_rng),
                "buffer_rng": _rng_state(buffer_rng),
                "buffer": _buffer_to_state(buffer),
            }
            paths.state_file(exp.index).write_text(json.dumps(state))
        if stopping:
            break
    return records


def _trace_rows(buffer: ReplayBuffer, experience_index: int) -> str:
    counts = buffer.counts()
    quotas = buffer.quotas()
    rows = []
    for c in sorted(buffer.observations):
        quota = "" if quotas is None else str(quotas.get(c, 0))
        rows.append(
            f"{experience_index},{c},{counts.get(c, 0)},{buffer.observations[c]},{quota}\n"
        )
    return "".join(rows)


def _write_csv_header(path: Path, digest: str, header: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# config_digest={digest}\n")
        f.write(header)


def _append(path: Path, text: str) -> None:
    with open(path, "a", encoding="utf-8") as f:
        f.write(text)
        f.flush()


# -- grid run -------------------------------------------------------------------


def run(
    cfg: ExperimentConfig,
    out_dir: Path | str | None = None,
    resume: bool = False,
    stop_after: int | None = None,
) -> int:
    """Execute the full strategy x seed grid; returns a process exit code."""
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    train_set, test_set = load_inputs(cfg)

    out.mkdir(parents=True, exist_ok=True)
    digest = cfg.digest()
    (out / "config.json").write_text(
        json.dumps({**cfg.raw, "config_digest": digest}, indent=1, sort_keys=True) + "\n"
    )

    try:
        stream_for = _stream_per_seed(cfg, train_set)
        final_by_strategy: dict[str, list[metrics.RunRecord]] = {}
        for strategy in cfg.strategies:
            for seed in cfg.seeds:
                paths = cell_dir(out, strategy, seed)
                records = run_cell(
                    cfg, train_set, test_set, stream_for(seed), strategy, seed, paths,
                    resume=resume, stop_after=stop_after,
                )
                final = records[-1] if records else _final_record_from_csv(paths, strategy, seed)
                if final is not None:
                    final_by_strategy.setdefault(strategy, []).append(final)
        _write_summary(out, cfg, final_by_strategy)
        if stop_after is None and (
            cfg.analysis.interpolation or cfg.analysis.block_distance or cfg.analysis.cka
        ):
            analyze(out)
    except ConfigError:
        raise
    except Exception as exc:  # runtime failure: structured report, partial outputs marked
        report = {
            "error": repr(exc),
            "traceback": traceback.format_exc(),
            "config_digest": digest,
            "incomplete": True,
        }
        (out / "error_report.json").write_text(json.dumps(report, indent=1) + "\n")
        return EXIT_RUNTIME
    return EXIT_OK


def _final_record_from_csv(paths: CellPaths, strategy: str, seed: int):
    """Final metrics of a cell that was already complete when resumed."""
    if not paths.metrics_csv.exists():
        return None
    rows = metrics.parse_csv(paths.metrics_csv)
    if not rows:
        return None
    last = rows[-1]
    return metrics.RunRecord(
        experience_index=last["experience_index"],
        strategy=strategy,
        seed=seed,
        ta=last["ta"],
        sca=last["sca"],
        mca=last["mca"],
        per_class_acc=np.empty(0),
        infrequent_acc=last["infrequent_acc"],
        frequent_acc=last["frequent_acc"],
    )


def _agg(values: list[float | None]) -> dict | None:
    # 6-decimal precision matches the metrics CSV, the canonical record
    present = [round(v, 6) for v in values if v is not None]
    if not present:
        return None
    return {
        "mean": round(statistics.fmean(present), 6),
        "std": round(statistics.stdev(present), 6) if len(present) > 1 else 0.0,
        "values": present,
    }


def _write_summary(out: Path, cfg: ExperimentConfig, final_by_strategy) -> None:
    summary = {
        "config_digest": cfg.digest(),
        "created_unix": time.time(),
        "seeds": list(cfg.seeds),
        "strategies": {},
    }
    for strategy, records in final_by_strategy.items():
        summary["strategies"][strategy] = {
            "final_ta": _agg([r.ta for r in records]),
            "final_sca": _agg([r.sca for r in records]),
            "final_mca": _agg([r.mca for r in records]),
        }
    (out / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")


# -- stream inspection ------------------------------------------------------------


def inspect(cfg: ExperimentConfig, out_dir: Path | str | None = None) -> dict:
    """Stream statistics without training: occurrence/presence matrix CSV,
    first occurrences, repetition rates, scenario classification, coverage."""
    train_set, _ = load_inputs(cfg)
    seed = cfg.seeds[0]
    stream, occurrence = build_stream(cfg, train_set, seed)
    report_info = verify_scenario_properties(stream, train_set)

    c, n = train_set.num_classes, len(stream)
    presence = np.zeros((c, n), dtype=np.int8)
    for exp in stream:
        presence[sorted(exp.present_classes), exp.index] = 1

    first_occurrence = {}
    repetition_rate = {}
    for cls in range(c):
        hits = np.flatnonzero(presence[cls])
        if hits.size == 0:
            first_occurrence[cls] = None
            repetition_rate[cls] = None
            continue
        foi = int(hits[0])
        first_occurrence[cls] = foi
        later = n - foi - 1
        repetition_rate[cls] = float((hits.size - 1) / later) if later else None

    report = {
        "config_digest": cfg.digest(),
        "seed": seed,
        "classification": report_info.classification,
        "n_experiences": n,
        "num_classes": c,
        "domain_coverage": report_info.covered_instance_fraction,
        "codomain_coverage": report_info.covered_class_fraction,
        "first_occurrence": first_occurrence,
        "repetition_rate": repetition_rate,
        "experience_sizes": [len(e) for e in stream],
        "notes": list(stream.notes),
    }
    infrequent = cfg.generator.infrequent_classes(c)
    if infrequent is not None:
        report["infrequent_classes"] = sorted(infrequent)
        report["fraction_infrequent"] = len(infrequent) / c

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        matrix = occurrence.matrix if occurrence is not None else presence
        _write_matrix_csv(out / "occurrence.csv", matrix, cfg.digest())
        (out / "inspect.json").write_text(json.dumps(report, indent=1) + "\n")
    return report


def _write_matrix_csv(path: Path, matrix: np.ndarray, digest: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# config_digest={digest}\n")
        f.write("class," + ",".join(f"e{i}" for i in range(matrix.shape[1])) + "\n")
        for cls in range(matrix.shape[0]):
            f.write(f"{cls}," + ",".join(str(int(v)) for v in matrix[cls]) + "\n")


# -- post-hoc analysis --------------------------------------------------------------


def analyze(run_dir: Path | str, force_all: bool = False) -> int:
    """Compute checkpoint diagnostics for every cell of a finished run.

    Uses the analyses enabled in the run's config; ``force_all`` computes all
    three. Interpolation curves are evaluated on the training data of the
    pair's earlier experience, CKA on a fixed probe batch from the test set.
    """
    run_dir = Path(run_dir)
    config_path = run_dir / "config.json"
    if not config_path.exists():
        raise ConfigError(f"no config.json in {run_dir}")
    raw = json.loads(config_path.read_text())
    raw.pop("config_digest", None)
    cfg = ExperimentConfig.from_dict(raw)
    digest = cfg.digest()
    spec = cfg.analysis

    do_interp = spec.interpolation or force_all
    do_blocks = spec.block_distance or force_all
    do_cka = spec.cka or force_all
    if not (do_interp or do_blocks or do_cka):
        return EXIT_OK

    train_set, test_set = load_inputs(cfg)
    probe_rng = np.random.default_rng(spec.cka_probe_seed)
    probe_size = min(spec.cka_probe_size, len(test_set))
    probe = test_set.features[probe_rng.choice(len(test_set), size=probe_size, replace=False)]
    stream_for = _stream_per_seed(cfg, train_set)

    for strategy in cfg.strategies:
        for seed in cfg.seeds:
            paths = cell_dir(run_dir, strategy, seed)
            if not paths.checkpoints.is_dir():
                continue
            ckpts = sorted(
                (learner.load_checkpoint(p) for p in paths.checkpoints.glob("ckpt_*.npz")),
                key=lambda ck: ck.experience_index,
            )
            if not ckpts:
                continue
            paths.analysis_dir.mkdir(exist_ok=True)
            trained = [ck for ck in ckpts if ck.experience_index >= 0]
            init = next((ck for ck in ckpts if ck.experience_index < 0), None)

            if do_interp and len(trained) >= 2:
                _write_interpolation(paths, trained, stream_for(seed), train_set, spec, digest)
            if do_blocks and init is not None:
                _write_block_distance(paths, init, trained, digest)
            if do_cka and len(trained) >= 2:
                _write_cka(paths, trained, probe, digest)
    return EXIT_OK


def _write_interpolation(paths, trained, stream, train_set, spec, digest) -> None:
    with open(paths.analysis_dir / "interpolation.csv", "w", encoding="utf-8") as f:
        f.write(f"# config_digest={digest}\n")
        f.write("pair_id,alpha,accuracy,experience_a,experience_b\n")
        for ck_a, ck_b in zip(trained[:-1], trained[1:]):
            exp = stream.experiences[ck_a.experience_index]
            if len(exp) == 0:
                continue
            x = train_set.features[exp.train_instances]
            y = train_set.labels[exp.train_instances]
            curve = ana.interpolate_checkpoints(ck_a, ck_b, spec.interpolation_points, x, y)
            pair = f"{ck_a.experience_index}-{ck_b.experience_index}"
            for alpha, acc in zip(curve.alphas, curve.accuracies):
                f.write(
                    f"{pair},{alpha:.6f},{acc:.6f},"
                    f"{ck_a.experience_index},{ck_b.experience_index}\n"
                )


def _write_block_distance(paths, init, trained, digest) -> None:
    with open(paths.analysis_dir / "block_distance.csv", "w", encoding="utf-8") as f:
        f.write(f"# config_digest={digest}\n")
        f.write("experience_index,block,distance\n")
        for ck in trained:
            report = ana.block_distance(init.params, ck.params)
            for name, dist in zip(report.block_names, report.distances):
                value = "" if dist is None else f"{dist:.6f}"
                f.write(f"{ck.experience_index},{name},{value}\n")


def _write_cka(paths, trained, probe, digest) -> None:
    with open(paths.analysis_dir / "cka.csv", "w", encoding="utf-8") as f:
        f.write(f"# config_digest={digest}\n")
        f.write("pair_id,layer_x,layer_y,value\n")
        for ck_a, ck_b in zip(trained[:-1], trained[1:]):
            matrix = ana.cka_layer_matrix(ck_a.params, ck_b.params, probe)
            pair = f"{ck_a.experience_index}-{ck_b.experience_index}"
            for i in range(matrix.shape[0]):
                for j in range(matrix.shape[1]):
                    f.write(f"{pair},layer{i},layer{j},{matrix[i, j]:.6f}\n")
