"""Experiment runner.

Executes a strategy x seed grid over generated streams, one per run seed
and shared by every strategy of that seed: per cell it trains the learner
across all experiences, evaluates after each one, and writes a
metrics CSV, a buffer trace, the stream manifest and parameter checkpoints.
Cells run seed by seed and experience by experience; a seed's replay cells
train in lockstep, as one stacked model, which changes no output byte.
Metric rows are appended as they are produced (crash-safe), every output
carries the config digest, and runs are resumable at experience granularity
from the latest checkpointed state.

Per-component RNG streams are derived from (run seed, component name), so
the stream a strategy sees never depends on the strategy itself.
"""

import functools
import json
import os
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


def _load_resume_point(paths: CellPaths) -> tuple[int, dict, learner.ModelParams] | None:
    """(index, state, params) of the newest saved state whose JSON parses
    and whose checkpoint loads; a pair torn by a crash yields to the one
    before it."""
    indices = sorted(
        (int(p.stem.split("_")[1]) for p in paths.states.glob("state_*.json")), reverse=True
    )
    for index in indices:
        try:
            state = json.loads(paths.state_file(index).read_text())
            params = learner.load_checkpoint(paths.checkpoint_file(index)).params
        except (OSError, ValueError):  # CheckpointError is a ValueError
            continue
        return index, state, params
    return None


def _truncate_csv(path: Path, max_experience: int) -> None:
    if not path.exists():
        return
    kept = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.endswith("\n"):
                break  # a row torn mid-write
            first = line.split(",", 1)[0]
            if line.startswith("#") or not first.isdigit() or int(first) <= max_experience:
                kept.append(line)
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(kept)


class Cell:
    """One (strategy, seed) cell, trained over ``stream``, the seed's stream
    from ``build_stream``, as a step object.

    ``start()`` resumes the cell from its newest good state, or writes its
    headers and initial checkpoint; either way it writes ``manifest``, the
    text of the stream's manifest, and opens its CSVs. The caller
    then trains ``params`` on each experience from ``start_index`` on, with
    ``train_rng`` and ``buffer``, and hands the experience to ``step(exp)``:
    buffer update, evaluation, CSV rows, and at checkpoint points the
    checkpoint and state. ``finish()`` closes the CSVs.

    ``stop_after`` ends the cell early after the given experience index
    (used to exercise crash/resume behavior).
    """

    def __init__(
        self,
        cfg: ExperimentConfig,
        train_set: LabeledDataset,
        test_set: LabeledDataset,
        stream: Stream,
        strategy: str,
        seed: int,
        paths: CellPaths,
        manifest: str,
        resume: bool = False,
        stop_after: int | None = None,
    ):
        self.cfg, self.train_set, self.test_set, self.stream = cfg, train_set, test_set, stream
        self.strategy, self.seed, self.paths = strategy, seed, paths
        self.manifest, self.resume, self.stop_after = manifest, resume, stop_after
        self.digest = cfg.digest()
        self.infrequent = cfg.generator.infrequent_classes(train_set.num_classes)
        self.last_record: metrics.RunRecord | None = None  # of this call's steps
        self.done = False
        self._metrics_csv = self._trace_csv = None

    def start(self) -> None:
        cfg, paths, seed, digest = self.cfg, self.paths, self.seed, self.digest
        policy = cfg.resolve_policy(self.strategy)
        paths.root.mkdir(parents=True, exist_ok=True)
        paths.checkpoints.mkdir(exist_ok=True)
        paths.states.mkdir(exist_ok=True)

        self.start_index = 0
        self.buffer = ReplayBuffer(max_size=cfg.buffer_size, policy=policy) if policy else None
        self.train_rng = derive_rng(seed, "learner")
        self.buffer_rng = derive_rng(seed, "buffer")
        self.seen: set[int] = set()

        point = _load_resume_point(paths) if self.resume else None
        if point is not None:
            latest, state, self.params = point
            if state.get("state_version") != STATE_VERSION:
                raise ConfigError(
                    f"resume state has state_version {state.get('state_version')}, "
                    f"this version of cirsim reads state_version {STATE_VERSION}"
                )
            if state["config_digest"] != digest:
                raise ConfigError(
                    "resume state was produced by a different config "
                    f"(digest {state['config_digest']} != {digest})"
                )
            _check_dataset_unchanged(paths.manifest, self.stream.dataset_ref)
            _write_atomic(paths.manifest, self.manifest)
            if state["buffer"] is not None:
                self.buffer = ReplayBuffer.from_state(state["buffer"])
            self.train_rng = _restore_rng(state["train_rng"])
            self.buffer_rng = _restore_rng(state["buffer_rng"])
            self.seen = set(state["seen_classes"])
            self.start_index = state["next_experience"]
            _truncate_csv(paths.metrics_csv, latest)
            _truncate_csv(paths.buffer_trace_csv, latest)
            self._open_csvs("a")
            return

        # a fresh start owns the cell's directory: an earlier run's
        # checkpoints, states and analysis would mislead a later analyze,
        # resume or reader
        for stale in [
            *paths.checkpoints.glob("ckpt_*.npz"),
            *paths.states.glob("state_*.json"),
            *paths.analysis_dir.glob("*.csv"),
            *paths.root.glob("*.tmp"),
            *paths.states.glob("*.tmp"),
        ]:
            stale.unlink()
        self.params = learner.init_params(
            self.train_set.dim,
            cfg.model.hidden,
            self.train_set.num_classes,
            cfg.model.activation,
            derive_rng(seed, "learner-init"),
        )
        _write_atomic(paths.manifest, self.manifest)
        learner.save_checkpoint(
            learner.snapshot(self.params, -1, config_digest=digest), paths.checkpoint_file(-1)
        )
        self._open_csvs("w")
        _write_flushed(
            self._metrics_csv,
            f"# config_digest={digest}\n" + metrics.csv_header(self.train_set.num_classes),
        )
        if self.buffer is not None:
            _write_flushed(
                self._trace_csv,
                f"# config_digest={digest}\n"
                "experience_index,class_id,stored_count,observation_count,quota\n",
            )

    def _open_csvs(self, mode: str) -> None:
        self._metrics_csv = open(self.paths.metrics_csv, mode, encoding="utf-8")
        if self.buffer is not None:
            self._trace_csv = open(self.paths.buffer_trace_csv, mode, encoding="utf-8")

    def step(self, exp) -> None:
        """Record experience ``exp``, which the caller has trained ``params`` on."""
        cfg, digest = self.cfg, self.digest
        if self.buffer is not None:
            labels = self.train_set.labels[exp.train_instances]
            self.buffer.update(exp.train_instances, labels, self.buffer_rng)
        self.seen |= exp.present_classes

        ctx = metrics.EvalContext(
            seen_classes=frozenset(self.seen),
            present_classes=exp.present_classes,
            infrequent_classes=self.infrequent,
        )
        record = metrics.evaluate(
            self.params, self.test_set, ctx,
            experience_index=exp.index, strategy=self.strategy, seed=self.seed,
        )
        self.last_record = record
        _write_flushed(self._metrics_csv, metrics.to_csv_row(record))
        if self.buffer is not None:
            _write_flushed(self._trace_csv, _trace_rows(self.buffer, exp.index))

        is_last = exp.index == len(self.stream) - 1
        at_interval = cfg.checkpoint_every > 0 and (exp.index + 1) % cfg.checkpoint_every == 0
        stopping = self.stop_after is not None and exp.index >= self.stop_after
        if is_last or at_interval or stopping:
            paths = self.paths
            learner.save_checkpoint(
                learner.snapshot(self.params, exp.index, config_digest=digest),
                paths.checkpoint_file(exp.index),
            )
            state = {
                "state_version": STATE_VERSION,
                "config_digest": digest,
                "strategy": self.strategy,
                "seed": self.seed,
                "next_experience": exp.index + 1,
                "seen_classes": sorted(self.seen),
                "train_rng": _rng_state(self.train_rng),
                "buffer_rng": _rng_state(self.buffer_rng),
                "buffer": None if self.buffer is None else self.buffer.to_state(),
            }
            _write_atomic(paths.state_file(exp.index), json.dumps(state))
        self.done = is_last or stopping

    def finish(self) -> None:
        for f in (self._metrics_csv, self._trace_csv):
            if f is not None:
                f.close()
        self._metrics_csv = self._trace_csv = None


def run_group(cells: list[Cell], running: dict) -> None:
    """Run one seed's cells experience by experience.

    At each experience, the cells that stand at the same ``start_index``
    and draw the same replay rows train as one stacked model
    (``learner.train_group``); a cell with no such partner trains alone.
    ``running`` is kept naming the (strategy, seed) at work, for the error
    report: a diverged model names its own cell. Every cell's files are
    closed on the way out, also on an error.
    """
    stream, cfg, train_set = cells[0].stream, cells[0].cfg, cells[0].train_set
    try:
        for cell in cells:
            running.update(strategy=cell.strategy, seed=cell.seed)
            cell.start()
        for exp in stream:
            active = [c for c in cells if not c.done and c.start_index <= exp.index]
            if active and len(exp) > 0:
                x = train_set.features[exp.train_instances]
                y = train_set.labels[exp.train_instances]
                groups: dict[tuple[int, int], list[Cell]] = {}
                for cell in active:
                    key = (cell.start_index, learner.replay_rows(cfg.train, cell.buffer))
                    groups.setdefault(key, []).append(cell)
                for group in groups.values():
                    running.update(strategy=group[0].strategy, seed=group[0].seed)
                    try:
                        learner.train_group(
                            [c.params for c in group], x, y, cfg.train,
                            [c.train_rng for c in group], [c.buffer for c in group],
                            dataset=train_set,
                        )
                    except learner.TrainingDivergedError as exc:
                        culprit = group[exc.member]
                        running.update(strategy=culprit.strategy, seed=culprit.seed)
                        raise
            for cell in active:
                running.update(strategy=cell.strategy, seed=cell.seed)
                cell.step(exp)
    finally:
        for cell in cells:
            cell.finish()


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
) -> metrics.RunRecord | None:
    """Run one (strategy, seed) cell on its own, a group of one (see
    ``Cell`` for the arguments); returns the record of the last experience
    it ran, None when it ran none."""
    cell = Cell(
        cfg, train_set, test_set, stream, strategy, seed, paths,
        stream.manifest_text(cfg.digest()), resume=resume, stop_after=stop_after,
    )
    run_group([cell], {})
    return cell.last_record


def _check_dataset_unchanged(manifest: Path, dataset_ref: str) -> None:
    """Refuse to resume a cell whose manifest records another dataset: a CSV
    dataset's contents are not in the config digest. A missing or torn
    manifest records nothing, and is rewritten."""
    try:
        recorded = json.loads(manifest.read_bytes())
    except (OSError, ValueError):
        return
    if isinstance(recorded, dict) and recorded.get("dataset_ref") != dataset_ref:
        raise ConfigError(
            f"{manifest} records dataset_ref {recorded.get('dataset_ref')}, but the "
            f"dataset loaded now has dataset_ref {dataset_ref}: the input changed "
            "since the run started"
        )


def _write_atomic(path: Path, text: str) -> None:
    """Write aside, then rename: a crash leaves the old file or the new one."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_flushed(f, text: str) -> None:
    f.write(text)
    f.flush()


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
    _write_atomic(
        out / "config.json",
        json.dumps({**cfg.raw, "config_digest": digest}, indent=1, sort_keys=True) + "\n",
    )

    running = {}  # the (strategy, seed) being run, for the error report
    try:
        for seed in cfg.seeds:
            stream = build_stream(cfg, train_set, seed)[0]
            manifest = stream.manifest_text(digest)  # the one serialisation per seed
            for strategies in _lockstep_groups(cfg.strategies):
                cells = [
                    Cell(
                        cfg, train_set, test_set, stream, strategy, seed,
                        cell_dir(out, strategy, seed), manifest,
                        resume=resume, stop_after=stop_after,
                    )
                    for strategy in strategies
                ]
                run_group(cells, running)
        running.clear()
        _write_summary(out, cfg)
        if stop_after is None and (
            cfg.analysis.interpolation or cfg.analysis.block_distance or cfg.analysis.cka
        ):
            return analyze(out)
    except ConfigError:
        raise
    except Exception as exc:  # runtime failure: structured report, partial outputs marked
        _write_error_report(out, exc, digest, **running)
        return EXIT_RUNTIME
    return EXIT_OK


def _lockstep_groups(strategies) -> list[list[str]]:
    """The strategies in order, each alone except the replay (``er*``)
    strategies, which form one group in the place of the first of them:
    they share the seed's stream and so its mini-batch shapes."""
    groups, replay = [], []
    for strategy in strategies:
        if not strategy.startswith("er"):
            groups.append([strategy])
        else:
            if not replay:
                groups.append(replay)
            replay.append(strategy)
    return groups


def _write_error_report(out: Path, exc: Exception, digest: str, **cell) -> None:
    report = {
        "error": repr(exc),
        "traceback": "".join(traceback.format_exception(exc)),
        "config_digest": digest,
        "incomplete": True,
        **cell,
    }
    (out / "error_report.json").write_text(json.dumps(report, indent=1) + "\n")


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


def _write_summary(out: Path, cfg: ExperimentConfig) -> None:
    """Aggregate final metrics per strategy from the last row of each cell's
    ``metrics.csv``. A cell that stopped before the last experience of its
    stream (``stop_after``) is listed under ``incomplete_cells`` with the
    last experience it reached; the key is absent when every cell finished."""
    summary = {
        "config_digest": cfg.digest(),
        "created_unix": time.time(),
        "seeds": list(cfg.seeds),
        "strategies": {},
    }
    last_index = cfg.generator.n - 1  # every generator yields generator.n experiences
    for strategy in cfg.strategies:
        csvs = [cell_dir(out, strategy, seed).metrics_csv for seed in cfg.seeds]
        rows = [row for row in map(metrics.last_row, csvs) if row is not None]
        if not rows:
            continue
        entry = {f"final_{m}": _agg([row[m] for row in rows]) for m in ("ta", "sca", "mca")}
        cut_short = [
            {"seed": row["seed"], "incomplete": True,
             "last_experience_index": row["experience_index"]}
            for row in rows
            if row["experience_index"] < last_index
        ]
        if cut_short:
            entry["incomplete_cells"] = cut_short
        summary["strategies"][strategy] = entry
    _write_atomic(out / "summary.json", json.dumps(summary, indent=1) + "\n")


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
    A cell that fails (say, on a torn checkpoint) stops the analysis with
    ``error_report.json`` naming the cell, and returns ``EXIT_RUNTIME``.
    """
    run_dir = Path(run_dir)
    config_path = run_dir / "config.json"
    if not config_path.exists():
        raise ConfigError(f"no config.json in {run_dir}")
    try:
        raw = json.loads(config_path.read_text())
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"unreadable {config_path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{config_path} does not hold a JSON object")
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
    stream_for = functools.cache(lambda seed: build_stream(cfg, train_set, seed)[0])

    for strategy in cfg.strategies:
        for seed in cfg.seeds:
            paths = cell_dir(run_dir, strategy, seed)
            if not paths.checkpoints.is_dir():
                continue
            try:
                ckpts = sorted(
                    (
                        _load_run_checkpoint(p, digest)
                        for p in paths.checkpoints.glob("ckpt_*.npz")
                    ),
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
            except Exception as exc:  # runtime failure of one cell: report it and stop
                _write_error_report(run_dir, exc, digest, strategy=strategy, seed=seed)
                return EXIT_RUNTIME
    return EXIT_OK


def _load_run_checkpoint(path: Path, digest: str) -> learner.Checkpoint:
    """A checkpoint of the run whose config has ``digest``; one that another
    config wrote (say, a run before it in the same directory) is refused."""
    ck = learner.load_checkpoint(path)
    if ck.meta.get("config_digest") != digest:
        raise learner.CheckpointError(
            f"{path} was written by config {ck.meta.get('config_digest')}, "
            f"not by this run's config {digest}"
        )
    return ck


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
        # each checkpoint is prepared once; only the pair at hand is held
        prepared_b = ana.prepare_cka(trained[0].params, probe)
        for ck_a, ck_b in zip(trained[:-1], trained[1:]):
            prepared_a = prepared_b
            prepared_b = ana.prepare_cka(ck_b.params, probe)
            matrix = ana.cka_prepared_matrix(prepared_a, prepared_b)
            pair = f"{ck_a.experience_index}-{ck_b.experience_index}"
            for i in range(matrix.shape[0]):
                for j in range(matrix.shape[1]):
                    f.write(f"{pair},layer{i},layer{j},{matrix[i, j]:.6f}\n")
