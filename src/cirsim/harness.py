"""Experiment runner.

Executes a strategy x seed grid over generated streams, one per run seed
and shared by every strategy of that seed: per cell it trains the learner
across all experiences, evaluates after each one, and writes a
metrics CSV, a buffer trace, the stream manifest and parameter checkpoints.
A seed's cells step together, experience by experience; those that draw
the same replay rows train as one stacked model, which changes no output byte.
Every write goes through ``files``: metric and trace rows are appended as
they are produced (``files.append``), every other file lands whole
(``files.write_atomic``). Every output carries the config digest, and runs
are resumable at experience granularity from the latest checkpointed state.

Per-component RNG streams are derived from (run seed, component name), so
the stream a strategy sees never depends on the strategy itself.
"""

import contextlib
import ctypes
import functools
import json
import re
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis as ana
from . import files, learner, metrics
from .buffers import ReplayBuffer
from .config import ConfigError, ExperimentConfig, read_config_file
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
    generator settings, unreadable dataset files or feature counts that
    differ between them (or are 0)."""
    try:
        train_set, test_set = build_dataset(cfg)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"dataset: {exc}") from exc
    if train_set.dim == 0 or test_set.dim != train_set.dim:
        raise ConfigError(
            f"dataset: the train set has {train_set.dim} features and the test set "
            f"{test_set.dim}; both need the same number, at least 1"
        )
    validate_feasibility(cfg, train_set)
    return train_set, test_set


def build_stream(cfg: ExperimentConfig, dataset: LabeledDataset, seed: int) -> Stream:
    """The stream of one run seed. A sampling experience whose occurrence
    column lists more classes than ``generator.s`` is a config error: each
    class would get ``s // classes`` = 0 instances. Within that bound every
    listed class is drawn, so an experience's classes are its column."""
    rng = derive_rng(seed, "stream")
    if cfg.generator.kind == "slot":
        # the generator owns its rng; scope the seed so other components
        # never share it
        slot_cfg = cfg.generator.slot_config(int(rng.integers(2**63)))
        return generate_slot_stream(dataset, slot_cfg)
    samp_cfg = cfg.generator.sampling_config(dataset.num_classes, seed)
    occurrence = build_occurrence_matrix(samp_cfg, rng)
    counts = occurrence.matrix.sum(axis=0)
    crowded = np.flatnonzero(counts > samp_cfg.experience_size)
    if crowded.size:
        i = int(crowded[0])
        raise ConfigError(
            f"generator.s ({samp_cfg.experience_size}) is below the {int(counts[i])} classes "
            f"of experience {i} at seed {seed}: each class needs at least one instance"
        )
    return realize_stream(dataset, occurrence, samp_cfg, rng)


def validate_feasibility(cfg: ExperimentConfig, dataset: LabeledDataset) -> None:
    """The checks that need the dataset (every class has a training instance,
    and the generator's), run before any training so bad configs fail fast;
    parsing the config ran all the others."""
    gen, c = cfg.generator, dataset.num_classes
    empty = np.flatnonzero(dataset.class_counts == 0)
    if empty.size:
        raise ConfigError(f"dataset: class {empty[0]} has no training instance")
    if gen.kind == "slot":
        try:
            gen.slot_config(0).validate(dataset)
        except ValueError as exc:
            raise ConfigError(f"generator: {exc}") from exc
    elif isinstance(gen.repetition, tuple) and len(gen.repetition) != c:
        raise ConfigError(
            f"generator.repetition.values must list one value per class "
            f"({c}), got {len(gen.repetition)}"
        )


# -- cell state (resume support) ----------------------------------------------


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


def _saved_states(paths: CellPaths) -> dict[int, Path]:
    """index -> path of each ``state/state_<digits>.json``; any other file
    in ``state/`` is not the cell's, and is neither read nor removed. A
    missing ``state/`` lists none."""
    names = (re.fullmatch(r"state_(\d+)\.json", p.name) for p in paths.states.glob("*"))
    return {int(m[1]): paths.states / m[0] for m in names if m}


def _load_resume_point(paths: CellPaths) -> tuple[int, dict, learner.ModelParams] | None:
    """(index, state, params) of the newest saved state whose JSON parses
    and whose checkpoint loads; a pair torn by a crash yields to the one
    before it."""
    for index, path in sorted(_saved_states(paths).items(), reverse=True):
        try:
            state = json.loads(path.read_text())
            params = learner.load_checkpoint(paths.checkpoint_file(index)).params
        except (OSError, ValueError):  # CheckpointError is a ValueError
            continue
        return index, state, params
    return None


def _starts_with(path: Path, stamp: bytes) -> bool:
    """Whether the file ``path`` exists and its bytes begin with ``stamp``."""
    try:
        with open(path, "rb") as f:
            return f.read(len(stamp)) == stamp
    except OSError:
        return False


def _truncate_csv(path: Path, max_experience: int) -> None:
    kept = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.endswith("\n"):
                break  # a row torn mid-write
            first = line.split(",", 1)[0]
            if line.startswith("#") or not first.isdigit() or int(first) <= max_experience:
                kept.append(line)
    files.write_atomic(path, "".join(kept))


class Cell:
    """One (strategy, seed) cell, trained over ``stream``, the seed's stream
    from ``build_stream``, as a step object.

    Constructing a cell with ``resume`` reads and checks its newest good
    resume point and writes nothing, so a refused resume changes no byte. A
    point resumes only if each of the cell's CSVs starts with its digest
    stamp, so rows never land in a file without its header. ``start()``
    removes the ``*.tmp`` files a kill left in the cell, then resumes from
    that point, or writes the headers and initial checkpoint; either way it
    writes ``manifest``, the text of the stream's manifest. The caller then
    trains ``params`` on each experience from ``start_index`` on, with
    ``train_rng`` and ``buffer``, and hands the experience and its
    evaluation context to ``step(exp, ctx)``: buffer update, evaluation, CSV
    rows appended by path, and at checkpoint points the checkpoint and state.
    A cell holds no open file.
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
    ):
        self.cfg, self.train_set, self.test_set, self.stream = cfg, train_set, test_set, stream
        self.strategy, self.seed, self.paths, self.manifest = strategy, seed, paths, manifest
        self.digest = cfg.digest()
        self.policy = cfg.resolve_policy(strategy)
        self.stamp = f"# config_digest={self.digest}\n"  # the first line of each CSV
        self.csvs = [paths.metrics_csv] + ([paths.buffer_trace_csv] if self.policy else [])
        self.point = self._resume_point() if resume else None

    def _resume_point(self) -> tuple[int, dict, learner.ModelParams] | None:
        """The newest good point (``_load_resume_point``), None where a CSV
        lost its header; one of another state version, config or dataset is
        a config error."""
        point = _load_resume_point(self.paths)
        if point is None:
            return None
        state = point[1]
        if state.get("state_version") != STATE_VERSION:
            raise ConfigError(
                f"resume state has state_version {state.get('state_version')}, "
                f"this version of cirsim reads state_version {STATE_VERSION}"
            )
        if state["config_digest"] != self.digest:
            raise ConfigError(
                "resume state was produced by a different config "
                f"(digest {state['config_digest']} != {self.digest})"
            )
        _check_dataset_unchanged(self.paths.manifest, self.stream.dataset_ref)
        if not all(_starts_with(csv, self.stamp.encode()) for csv in self.csvs):
            return None  # the cell starts fresh
        return point

    def start(self) -> None:
        cfg, paths, seed, digest = self.cfg, self.paths, self.seed, self.digest
        paths.root.mkdir(parents=True, exist_ok=True)
        paths.checkpoints.mkdir(exist_ok=True)
        paths.states.mkdir(exist_ok=True)
        for tmp in list(paths.root.rglob("*.tmp")):  # left by a kill
            tmp.unlink()

        self.start_index = 0
        policy = self.policy
        self.buffer = ReplayBuffer(max_size=cfg.buffer_size, policy=policy) if policy else None
        self.train_rng = derive_rng(seed, "learner")
        self.buffer_rng = derive_rng(seed, "buffer")
        if self.point is not None:
            latest, state, self.params = self.point
            if state["buffer"] is not None:
                self.buffer = ReplayBuffer.from_state(state["buffer"])
            self.train_rng = _restore_rng(state["train_rng"])
            self.buffer_rng = _restore_rng(state["buffer_rng"])
            self.start_index = state["next_experience"]
            for csv in self.csvs:
                _truncate_csv(csv, latest)
        else:
            # a fresh start owns the cell's directory: an earlier run's
            # checkpoints, states and analysis would mislead a later analyze,
            # resume or reader
            for stale in [
                *paths.checkpoints.glob("ckpt_*.npz"),
                *_saved_states(paths).values(),
                *paths.analysis_dir.glob("*.csv"),
            ]:
                stale.unlink()
            self.params = learner.init_params(
                self.train_set.dim,
                cfg.model.hidden,
                self.train_set.num_classes,
                cfg.model.activation,
                derive_rng(seed, "learner-init"),
            )
            learner.save_checkpoint(
                learner.snapshot(self.params, -1, config_digest=digest), paths.checkpoint_file(-1)
            )
            files.write_atomic(
                paths.metrics_csv, self.stamp + metrics.csv_header(self.train_set.num_classes)
            )
            if self.buffer is not None:
                files.write_atomic(
                    paths.buffer_trace_csv,
                    self.stamp + "experience_index,class_id,stored_count,observation_count,quota\n",
                )
        files.write_atomic(paths.manifest, self.manifest)

    def step(self, exp, ctx: metrics.EvalContext) -> None:
        """Record experience ``exp``, which the caller has trained ``params``
        on, and evaluate under ``ctx``, the context of the stream at ``exp``."""
        cfg, digest = self.cfg, self.digest
        if self.buffer is not None:
            labels = self.train_set.labels[exp.train_instances]
            self.buffer.update(exp.train_instances, labels, self.buffer_rng)
        record = metrics.evaluate(
            self.params, self.test_set, ctx,
            experience_index=exp.index, strategy=self.strategy, seed=self.seed,
        )
        files.append(self.paths.metrics_csv, metrics.to_csv_row(record))
        if self.buffer is not None:
            files.append(self.paths.buffer_trace_csv, _trace_rows(self.buffer, exp.index))

        is_last = exp.index == len(self.stream) - 1
        at_interval = cfg.checkpoint_every > 0 and (exp.index + 1) % cfg.checkpoint_every == 0
        if is_last or at_interval:
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
                "seen_classes": ctx.seen_index.tolist(),
                "train_rng": self.train_rng.bit_generator.state,
                "buffer_rng": self.buffer_rng.bit_generator.state,
                "buffer": None if self.buffer is None else self.buffer.to_state(),
            }
            files.write_atomic(paths.state_file(exp.index), json.dumps(state))


def run_group(cells: list[Cell], running: dict) -> None:
    """Run one seed's cells experience by experience.

    At each experience, the active cells that draw the same replay rows
    train as one stacked model (``learner.train_group``); a cell with no
    such partner trains alone. Every cell then steps with one evaluation
    context: the cells of a seed see the same stream.
    ``running`` is kept naming the (strategy, seed) at work, for the error
    report: a diverged model names its own cell.
    """
    stream, cfg, train_set = cells[0].stream, cells[0].cfg, cells[0].train_set
    for cell in cells:
        running.update(strategy=cell.strategy, seed=cell.seed)
        cell.start()
    infrequent = cfg.generator.infrequent_classes(train_set.num_classes)
    seen: set[int] = set()  # the classes of every experience so far
    for exp in stream:
        seen |= exp.present_classes
        active = [c for c in cells if c.start_index <= exp.index]
        if active and len(exp) > 0:
            x = train_set.features[exp.train_instances]
            y = train_set.labels[exp.train_instances]
            groups: dict[int, list[Cell]] = {}
            for cell in active:
                groups.setdefault(learner.replay_rows(cfg.train, cell.buffer), []).append(cell)
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
        if active:
            ctx = metrics.EvalContext(frozenset(seen), exp.present_classes, infrequent)
        for cell in active:
            running.update(strategy=cell.strategy, seed=cell.seed)
            cell.step(exp, ctx)


def run_cell(
    cfg: ExperimentConfig,
    train_set: LabeledDataset,
    test_set: LabeledDataset,
    stream: Stream,
    strategy: str,
    seed: int,
    paths: CellPaths,
    resume: bool = False,
) -> None:
    """Run one (strategy, seed) cell on its own, a group of one (see
    ``Cell`` for the arguments)."""
    cell = Cell(
        cfg, train_set, test_set, stream, strategy, seed, paths,
        stream.manifest_text(cfg.digest()), resume=resume,
    )
    run_group([cell], {})


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


def run(cfg: ExperimentConfig, out_dir: Path | str | None = None, resume: bool = False) -> int:
    """Execute the full strategy x seed grid; returns a process exit code.
    The output directory stays locked (``_exclusive``) until it returns.
    Every seed's stream and every cell's resume point are read and checked
    before the first removal or write, so a run refused as a config error
    changes no byte. ``summary.json`` is then removed, and written once
    every cell finished, so a run that stops any other way leaves none."""
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    train_set, test_set = load_inputs(cfg)
    out.mkdir(parents=True, exist_ok=True)
    with _exclusive(out):
        digest = cfg.digest()
        running = {}  # the (strategy, seed) being run, for the error report
        try:
            groups = []
            for seed in cfg.seeds:
                running = {"seed": seed}
                stream = build_stream(cfg, train_set, seed)
                manifest = stream.manifest_text(digest)  # the one serialisation per seed
                cells = []
                for strategy in cfg.strategies:
                    running["strategy"] = strategy
                    paths = cell_dir(out, strategy, seed)
                    cells.append(Cell(
                        cfg, train_set, test_set, stream, strategy, seed, paths, manifest,
                        resume=resume,
                    ))
                groups.append(cells)
            running = {}
            # an earlier run's summary describes its own grid, and its failure
            # report would mark this run's outputs incomplete; a kill leaves
            # <name>.tmp files
            for stale in [out / "summary.json", out / "error_report.json", *out.glob("*.tmp")]:
                stale.unlink(missing_ok=True)
            files.write_atomic(
                out / "config.json",
                json.dumps({**cfg.raw, "config_digest": digest}, indent=1, sort_keys=True) + "\n",
            )
            if not resume:
                _remove_stale_cells(out, cfg)
            for cells in groups:
                run_group(cells, running)
            running.clear()
            _write_summary(out, cfg)
            if cfg.analysis.interpolation or cfg.analysis.block_distance or cfg.analysis.cka:
                return _analyze(out, force_all=False)  # under this run's lock
        except ConfigError:
            raise
        except Exception as exc:  # runtime failure: structured report, partial outputs marked
            _write_error_report(out, "run", exc, digest, **running)
            return EXIT_RUNTIME
        return EXIT_OK


@contextlib.contextmanager
def _exclusive(out: Path):
    """Hold ``out``'s directory lock (``files.lock_dir``) for the block: two
    processes writing one run directory would interleave their rows. A lock
    held elsewhere, or no directory to lock, is a config error."""
    with contextlib.ExitStack() as stack:
        try:
            stack.enter_context(files.lock_dir(out))
        except BlockingIOError:
            raise ConfigError(
                f"{out} is locked: another cirsim run or analyze is writing it"
            ) from None
        except (FileNotFoundError, NotADirectoryError) as exc:
            raise ConfigError(f"no run directory at {out}") from exc
        yield


def _remove_stale_cells(out: Path, cfg: ExperimentConfig) -> None:
    """A fresh run owns its output directory's cells: remove each cell that
    its grid does not list, and a strategy directory that this leaves empty.
    A cell is a ``<name>/seed<k>/`` directory whose ``metrics.csv`` carries
    a config digest; any other directory is left alone."""
    grid = {cell_dir(out, s, seed).root for s in cfg.strategies for seed in cfg.seeds}
    for root in out.glob("*/seed*"):
        if root in grid or not re.fullmatch(r"seed-?\d+", root.name) or root.is_symlink():
            continue
        if not _starts_with(CellPaths(root).metrics_csv, b"# config_digest="):
            continue
        shutil.rmtree(root)
        with contextlib.suppress(OSError):  # the strategy directory holds more
            root.parent.rmdir()


def _write_error_report(out: Path, command: str, exc: Exception, digest: str, **cell) -> None:
    report = {
        "command": command,
        "error": repr(exc),
        "traceback": "".join(traceback.format_exception(exc)),
        "config_digest": digest,
        "incomplete": True,
        "numeric_env": _numeric_environment(),
        **cell,
    }
    files.write_atomic(out / "error_report.json", json.dumps(report, indent=1) + "\n")


def _numeric_environment() -> dict:
    """The numeric stack this process computes with, on which the output
    bytes depend: the numpy version, the BLAS numpy was built with, and the
    kernel OpenBLAS picked for this CPU at runtime (None where unknown)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_core": _openblas_core(),
    }


def _openblas_core() -> str | None:
    """The name of the kernel OpenBLAS runs here (say ``SkylakeX``), read
    from the scipy-openblas library bundled with numpy's wheels; None where
    there is no such library or it lacks ``scipy_openblas_get_corename64_``.
    Opening the library again yields the copy numpy already loaded."""
    package = Path(np.__file__).parent
    for lib in [*package.parent.glob("numpy.libs/*openblas*"), *package.glob(".dylibs/*openblas*")]:
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        name = corename()
        return name.decode() if name else None
    return None


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
    ``metrics.csv``; every cell of the grid has finished."""
    summary = {
        "config_digest": cfg.digest(),
        "created_unix": time.time(),
        "numeric_env": _numeric_environment(),
        "seeds": list(cfg.seeds),
        "strategies": {},
    }
    for strategy in cfg.strategies:
        rows = [metrics.last_row(cell_dir(out, strategy, seed).metrics_csv) for seed in cfg.seeds]
        summary["strategies"][strategy] = {
            f"final_{m}": _agg([row[m] for row in rows]) for m in ("ta", "sca", "mca")
        }
    files.write_atomic(out / "summary.json", json.dumps(summary, indent=1) + "\n")


# -- stream inspection ------------------------------------------------------------


def inspect(cfg: ExperimentConfig, out_dir: Path | str) -> dict:
    """Stream statistics without training: class-by-experience presence
    matrix CSV, first occurrences, repetition rates, scenario classification,
    coverage. Writes ``occurrence.csv`` and ``inspect.json`` into ``out_dir``
    and returns the report."""
    train_set, _ = load_inputs(cfg)
    seed = cfg.seeds[0]
    stream = build_stream(cfg, train_set, seed)
    report_info = verify_scenario_properties(stream, train_set)

    c, n = train_set.num_classes, len(stream)
    presence = np.zeros((c, n), dtype=np.int8)
    for exp in stream:
        presence[sorted(exp.present_classes), exp.index] = 1
    # every class of a build_stream stream occurs in some experience
    first = presence.argmax(axis=1).tolist()
    first_occurrence = dict(enumerate(first))
    repetition_rate = {
        cls: (hits - 1) / (n - foi - 1) if foi < n - 1 else None
        for cls, (foi, hits) in enumerate(zip(first, presence.sum(axis=1).tolist()))
    }

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

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_matrix_csv(out / "occurrence.csv", presence, cfg.digest())
    files.write_atomic(out / "inspect.json", json.dumps(report, indent=1) + "\n")
    return report


def _write_matrix_csv(path: Path, matrix: np.ndarray, digest: str) -> None:
    header = "class," + ",".join(f"e{i}" for i in range(matrix.shape[1]))
    lines = [f"# config_digest={digest}", header]
    lines += [f"{cls}," + ",".join(str(int(v)) for v in row) for cls, row in enumerate(matrix)]
    files.write_atomic(path, "\n".join(lines) + "\n")


# -- post-hoc analysis --------------------------------------------------------------


def analyze(run_dir: Path | str, force_all: bool = False) -> int:
    """Compute checkpoint diagnostics for every cell of a finished run.

    Uses the analyses enabled in the run's config; ``force_all`` computes all
    three. Interpolation curves are evaluated on the training data of the
    pair's earlier experience, CKA on a fixed probe batch from the test set.
    A cell that fails (say, on a torn checkpoint) stops the analysis with
    ``error_report.json`` naming the cell, and returns ``EXIT_RUNTIME``.
    The run directory stays locked (``_exclusive``) until it returns.
    """
    run_dir = Path(run_dir)
    with _exclusive(run_dir):
        return _analyze(run_dir, force_all)


def _analyze(run_dir: Path, force_all: bool) -> int:
    # an earlier analyze's report would outlive this one's success; a run's
    # report stays, as it marks the outputs analysed here as partial
    report_path = run_dir / "error_report.json"
    with contextlib.suppress(OSError, ValueError):
        report = json.loads(report_path.read_bytes())
        if isinstance(report, dict) and report.get("command") == "analyze":
            report_path.unlink()
    raw = read_config_file(run_dir / "config.json")
    raw.pop("config_digest", None)
    cfg = ExperimentConfig.from_dict(raw)
    digest = cfg.digest()
    spec = cfg.analysis

    do_interp = spec.interpolation or force_all
    do_blocks = spec.block_distance or force_all
    do_cka = spec.cka or force_all
    if not (do_interp or do_blocks or do_cka):
        return EXIT_OK

    @functools.cache
    def inputs() -> tuple[LabeledDataset, np.ndarray]:
        # (train set, CKA probe), built when a cell first reads them:
        # block distance reads checkpoints alone
        train_set, test_set = load_inputs(cfg)
        probe_rng = np.random.default_rng(spec.cka_probe_seed)
        probe_size = min(spec.cka_probe_size, len(test_set))
        rows = probe_rng.choice(len(test_set), size=probe_size, replace=False)
        return train_set, test_set.features[rows]

    stream_for = functools.cache(lambda seed: build_stream(cfg, inputs()[0], seed))

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
                    stream, train_set = stream_for(seed), inputs()[0]
                    _write_interpolation(paths, trained, stream, train_set, spec, digest)
                if do_blocks and init is not None:
                    _write_block_distance(paths, init, trained, digest)
                if do_cka and len(trained) >= 2:
                    _write_cka(paths, trained, inputs()[1], digest)
            except ConfigError:  # the inputs could not be built: not a cell's failure
                raise
            except Exception as exc:  # runtime failure of one cell: report it and stop
                _write_error_report(run_dir, "analyze", exc, digest, strategy=strategy, seed=seed)
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
    lines = [f"# config_digest={digest}\n", "pair_id,alpha,accuracy,experience_a,experience_b\n"]
    for ck_a, ck_b in zip(trained[:-1], trained[1:]):
        exp = stream.experiences[ck_a.experience_index]
        x = train_set.features[exp.train_instances]
        y = train_set.labels[exp.train_instances]
        curve = ana.interpolate_checkpoints(ck_a, ck_b, spec.interpolation_points, x, y)
        pair = f"{ck_a.experience_index}-{ck_b.experience_index}"
        for alpha, acc in zip(curve.alphas, curve.accuracies):
            lines.append(
                f"{pair},{alpha:.6f},{acc:.6f},"
                f"{ck_a.experience_index},{ck_b.experience_index}\n"
            )
    files.write_atomic(paths.analysis_dir / "interpolation.csv", "".join(lines))


def _write_block_distance(paths, init, trained, digest) -> None:
    lines = [f"# config_digest={digest}\n", "experience_index,block,distance\n"]
    for ck in trained:
        report = ana.block_distance(init.params, ck.params)
        for name, dist in zip(report.block_names, report.distances):
            value = "" if dist is None else f"{dist:.6f}"
            lines.append(f"{ck.experience_index},{name},{value}\n")
    files.write_atomic(paths.analysis_dir / "block_distance.csv", "".join(lines))


def _write_cka(paths, trained, probe, digest) -> None:
    lines = [f"# config_digest={digest}\n", "pair_id,layer_x,layer_y,value\n"]
    # each checkpoint is prepared once; only the pair at hand is held
    prepared_b = ana.prepare_cka(trained[0].params, probe)
    for ck_a, ck_b in zip(trained[:-1], trained[1:]):
        prepared_a = prepared_b
        prepared_b = ana.prepare_cka(ck_b.params, probe)
        matrix = ana.cka_prepared_matrix(prepared_a, prepared_b)
        pair = f"{ck_a.experience_index}-{ck_b.experience_index}"
        for i in range(matrix.shape[0]):
            for j in range(matrix.shape[1]):
                lines.append(f"{pair},layer{i},layer{j},{matrix[i, j]:.6f}\n")
    files.write_atomic(paths.analysis_dir / "cka.csv", "".join(lines))
