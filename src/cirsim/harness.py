"""Experiment runner: the cells of a strategy x seed grid, the grid run,
its summary and error report, stream inspection and post-hoc analysis.

Each run seed has one generated stream, shared by every strategy of that
seed: per cell the learner trains across all experiences, evaluates after
each one, and writes a metrics CSV, a buffer trace, the stream manifest and
parameter checkpoints. ``run`` deals the grid's cells round-robin into
shards, one per process of ``pool``, which owns the processes; ``analyze``
deals them the same way. In each ``run`` process, a seed's cells step
together, experience by experience; those that draw the same replay rows
train as one stacked model. Neither the dealing nor the stacking changes
an output byte, as no byte of a cell depends on the other cells.
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
from . import files, learner, metrics, pool
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
_STAMP = "# config_digest="  # a stamped CSV's first line: this, then the digest


# -- inputs ------------------------------------------------------------------


def load_inputs(cfg: ExperimentConfig) -> tuple[LabeledDataset, LabeledDataset]:
    """Build (train, test) and fail fast, as a config error, on infeasible
    generator settings, unreadable dataset files or feature counts that
    differ between them (or are 0)."""
    ds = cfg.dataset
    try:
        if ds.kind == "csv":
            train_set = load_dataset_csv(ds.train_path)
            test_set = load_dataset_csv(ds.test_path, num_classes=train_set.num_classes)
        else:
            train_set, test_set = make_synthetic_dataset(
                ds.num_classes, ds.per_class, ds.dim, ds.spread,
                np.random.default_rng(ds.seed), ds.test_fraction,
            )
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

    def saved(self, file_for) -> dict[int, Path]:
        """index -> path of each file in the directory of ``file_for``
        (``checkpoint_file`` or ``state_file``) that it names, the index
        being the first digits of the name, or -1 where it has none (the
        initial checkpoint). One scan; no other file there is the cell's."""
        listed = {}
        for path in file_for(0).parent.glob("*"):
            digits = re.search(r"\d+", path.name)
            index = int(digits[0]) if digits else -1
            if file_for(index) == path:
                listed[index] = path
        return listed

    def analysis_files(self) -> list[Path]:
        """The interpolation, block distance and CKA CSVs, in that order."""
        names = ("interpolation.csv", "block_distance.csv", "cka.csv")
        return [self.analysis_dir / name for name in names]


def cell_dir(out_dir: Path, strategy: str, seed: int) -> CellPaths:
    return CellPaths(out_dir / strategy / f"seed{seed}")


def _load_resume_point(paths: CellPaths) -> tuple[int, dict, learner.ModelParams] | None:
    """(index, state, params) of the newest saved state whose JSON parses
    and whose checkpoint loads; a pair torn by a crash yields to the one
    before it."""
    for index, path in sorted(paths.saved(paths.state_file).items(), reverse=True):
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


def _stamped_csv(digest: str, lines) -> str:
    """The text of a stamped CSV: the digest line, then ``lines`` (its
    header and rows), each ending in a newline."""
    return "".join([_STAMP, digest, "\n", *lines])


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
    stamp, so rows never land in a file without its header.
    ``start(manifest)`` removes the ``*.tmp`` files a kill left in the cell,
    then resumes from that point, or removes the checkpoints and states the
    cell names (``CellPaths.saved``), which would mislead a later analyze or
    resume, and writes the headers and initial checkpoint. A start with
    experiences left removes the cell's analysis CSVs, as their checkpoints
    will change; a file the cell does not name stays. Either way ``start``
    writes ``manifest``, the text of the stream's manifest. The caller then
    trains ``params`` on each experience from ``start_index`` on, with
    ``train_rng`` and ``buffer``, and hands the experience and its
    evaluation context to ``step(exp, ctx)``: buffer update, evaluation,
    CSV rows appended by path, and at checkpoint points the checkpoint and
    state. A cell holds no open file.
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
        *,
        resume: bool = False,
    ):
        self.cfg, self.train_set, self.test_set, self.stream = cfg, train_set, test_set, stream
        self.strategy, self.seed, self.paths = strategy, seed, paths
        self.digest = cfg.digest()
        self.policy = cfg.resolve_policy(strategy)
        self.stamp = _stamped_csv(self.digest, [])  # the first line of each CSV
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

    def start(self, manifest: str) -> None:
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
            for file_for in (paths.checkpoint_file, paths.state_file):
                for stale in paths.saved(file_for).values():
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
            header = metrics.csv_header(self.train_set.num_classes)
            files.write_atomic(paths.metrics_csv, _stamped_csv(digest, [header]))
            if self.buffer is not None:
                files.write_atomic(paths.buffer_trace_csv, _stamped_csv(digest, [_TRACE_HEADER]))
        if self.start_index < len(self.stream):
            for stale in paths.analysis_files():
                stale.unlink(missing_ok=True)
        files.write_atomic(paths.manifest, manifest)

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
    """Run cells of one seed, here those of one process's shard of the
    grid, experience by experience.

    At each experience, the active cells that draw the same replay rows
    train as one stacked model (``learner.train_group``); a cell with no
    such partner trains alone. Every cell then steps with one evaluation
    context: the cells see the same stream, whose manifest text is built
    once for them all. ``running`` is kept naming the (strategy, seed) at
    work and, once the cells have started, the experience, for the error
    report: a diverged model names its own cell.
    """
    stream, cfg, train_set = cells[0].stream, cells[0].cfg, cells[0].train_set
    manifest = stream.manifest_text(cells[0].digest)
    running.pop("experience", None)
    for cell in cells:
        running.update(strategy=cell.strategy, seed=cell.seed)
        cell.start(manifest)
    infrequent = cfg.generator.infrequent_classes(train_set.num_classes)
    seen: set[int] = set()  # the classes of every experience so far
    for exp in stream:
        running["experience"] = exp.index
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
    run_group([Cell(cfg, train_set, test_set, stream, strategy, seed, paths, resume=resume)], {})


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


_TRACE_HEADER = "experience_index,class_id,stored_count,observation_count,quota\n"


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
    every cell finished, so a run that stops any other way leaves none.
    The cells are then dealt round-robin, in grid order, into one shard per
    process (``pool.worker_count``), run by ``pool.run`` in this process and
    in forked workers that share its lock; each process releases a seed's
    cells, and with them its stream, once it has run them. ``summary.json``
    and the config's own analysis come only after every process has succeeded."""
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    train_set, test_set = load_inputs(cfg)
    _make_dir(out)
    with _exclusive(out):
        _refuse_directories(out / "config.json", out / "summary.json", out / "error_report.json")
        digest = cfg.digest()
        running = {}  # the (strategy, seed) being run, for the error report
        try:
            cells = []  # in grid order
            for seed in cfg.seeds:
                running = {"seed": seed}
                stream = build_stream(cfg, train_set, seed)
                for strategy in cfg.strategies:
                    running["strategy"] = strategy
                    paths = cell_dir(out, strategy, seed)
                    cells.append(
                        Cell(cfg, train_set, test_set, stream, strategy, seed, paths, resume=resume)
                    )
            workers = pool.worker_count(len(cells))
            shards = [cells[k::workers] for k in range(workers)]
            del stream, cells  # now only shards holds them, so a seed's end frees them
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
            pool.run(shards, _run_shard, running, functools.partial(_failure_order, cfg))
            _write_summary(out, cfg, workers)
            if cfg.analysis.interpolation or cfg.analysis.block_distance or cfg.analysis.cka:
                return _analyze(out, force_all=False)  # under this run's lock
        except ConfigError:
            raise
        except Exception as exc:  # runtime failure: structured report, partial outputs marked
            _write_error_report(out, "run", exc, digest, **running)
            return EXIT_RUNTIME
        return EXIT_OK


def _run_shard(shard: list[Cell], running: dict) -> None:
    """Run a shard's cells, in grid order, seed by seed, releasing each
    seed's once run."""
    while shard:
        n = sum(cell.seed == shard[0].seed for cell in shard)
        run_group(shard[:n], running)
        del shard[:n]


def _failure_order(cfg: ExperimentConfig, cell: dict) -> tuple:
    """Where one process, running the grid seed by seed with each seed's
    cells in lockstep, would meet a failure in ``cell``: by seed, then
    experience (-1 while the cells start), then strategy. A failure that
    names no cell comes last."""
    if "strategy" not in cell:
        return (len(cfg.seeds),)
    return (
        cfg.seeds.index(cell["seed"]),
        cell.get("experience", -1),
        cfg.strategies.index(cell["strategy"]),
    )


def _make_dir(out: Path) -> None:
    """Make the output directory ``out`` and its parents; a file in its
    place or on its path is a config error."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"output directory {out} is a file or lies under one") from None


def _refuse_directories(*paths: Path) -> None:
    """A directory where a command writes or removes one of its files is a
    config error, met before that command's first write."""
    for path in paths:
        if path.is_dir():
            raise ConfigError(f"{path} is a directory")


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
        if not _starts_with(CellPaths(root).metrics_csv, _STAMP.encode()):
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
    there is no such library or it lacks ``scipy_openblas_get_corename64_``."""
    corename = pool.openblas_function("scipy_openblas_get_corename64_", ctypes.c_char_p)
    name = corename() if corename is not None else None
    return name.decode() if name else None


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


def _write_summary(out: Path, cfg: ExperimentConfig, workers: int) -> None:
    """Aggregate final metrics per strategy from the last row of each cell's
    ``metrics.csv``; every cell of the grid has finished, in ``workers``
    processes."""
    summary = {
        "config_digest": cfg.digest(),
        "created_unix": time.time(),
        "numeric_env": _numeric_environment(),
        "workers": workers,
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
    digest, seed = cfg.digest(), cfg.seeds[0]
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
        "config_digest": digest,
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
    _refuse_directories(out / "occurrence.csv", out / "inspect.json")
    _make_dir(out)
    lines = ["class" + "".join(f",e{i}" for i in range(n)) + "\n"]
    lines += (f"{cls},{','.join(map(str, row))}\n" for cls, row in enumerate(presence.tolist()))
    files.write_atomic(out / "occurrence.csv", _stamped_csv(digest, lines))
    files.write_atomic(out / "inspect.json", json.dumps(report, indent=1) + "\n")
    return report


# -- post-hoc analysis --------------------------------------------------------------


def analyze(run_dir: Path | str, force_all: bool = False) -> int:
    """Compute checkpoint diagnostics for every cell of a finished run.

    Uses the analyses enabled in the run's config; ``force_all`` computes all
    three. Interpolation curves are evaluated on the training data of the
    pair's earlier experience, CKA on a fixed probe batch from the test set.
    A cell's checkpoints are the files that ``CellPaths.saved`` lists,
    read once each in index order; at most the initial one and two trained
    ones are held at a time. The cells are dealt as ``run`` deals them, over
    ``pool`` (see ``_analyze``). A cell that fails (say, on a torn
    checkpoint, or one whose header names another experience than its file
    name) stops its own shard; the analysis then returns ``EXIT_RUNTIME``
    with ``error_report.json`` naming the cell that one process walking the
    grid would have met first.
    The run directory stays locked (``_exclusive``) until it returns.
    """
    run_dir = Path(run_dir)
    with _exclusive(run_dir):
        return _analyze(run_dir, force_all)


def _analyze(run_dir: Path, force_all: bool) -> int:
    """``analyze`` under a lock held by the caller. The cells are listed in
    ``run``'s grid order (seed by seed, each seed's in the order of
    ``strategies``), each with one scan of its checkpoints, and dealt as
    ``run`` deals them: shard k is ``cells[k::W]``, W being
    ``pool.worker_count`` of the cells with interpolation or CKA work (those
    with at least two trained checkpoints), and at least 1. The dataset,
    CKA probe and streams those cells read are built here, before any fork,
    so a config error from them comes before any cell is analysed. A cell's
    bytes depend on no other cell, so every CSV is the same for any W."""
    # an earlier analyze's report would outlive this one's success; a run's
    # report stays, as it marks the outputs analysed here as partial
    report_path = run_dir / "error_report.json"
    with contextlib.suppress(OSError, ValueError):
        report = json.loads(report_path.read_bytes())
        if isinstance(report, dict) and report.get("command") == "analyze":
            report_path.unlink()
    cfg = ExperimentConfig.from_dict(read_config_file(run_dir / "config.json"))
    digest = cfg.digest()
    spec = cfg.analysis

    do_interp = spec.interpolation or force_all
    do_blocks = spec.block_distance or force_all
    do_cka = spec.cka or force_all
    if not (do_interp or do_blocks or do_cka):
        return EXIT_OK

    cells = []  # (strategy, seed, paths, its checkpoints by index), in grid order
    for seed in cfg.seeds:
        for strategy in cfg.strategies:
            paths = cell_dir(run_dir, strategy, seed)
            cells.append((strategy, seed, paths, paths.saved(paths.checkpoint_file)))
    # the seed of each cell with interpolation or CKA work: a pair of trained checkpoints
    paired = [seed for _, seed, _, listed in cells
              if (do_interp or do_cka) and sum(i >= 0 for i in listed) >= 2]
    train_set = probe = None
    streams = {}
    if paired:  # block distance reads checkpoints alone
        train_set, test_set = load_inputs(cfg)
        probe_rng = np.random.default_rng(spec.cka_probe_seed)
        probe_size = min(spec.cka_probe_size, len(test_set))
        probe = test_set.features[probe_rng.choice(len(test_set), size=probe_size, replace=False)]
        del test_set
        if do_interp:
            streams = {seed: build_stream(cfg, train_set, seed) for seed in dict.fromkeys(paired)}

    def analyze_cell(paths: CellPaths, listed: dict[int, Path], seed: int) -> None:
        # one pass over the cell's checkpoints in index order, holding the
        # initial one, the previous trained one and its CKA preparation; the
        # CSV texts are written once the pass ends
        if not listed:
            return
        init_path = listed.pop(-1, None)
        init = None if init_path is None else _load_run_checkpoint(init_path, -1, digest)
        trained = sorted(listed.items())
        pairs = len(trained) >= 2
        interp, blocks, cka = do_interp and pairs, do_blocks and init is not None, do_cka and pairs
        interp_lines = ["pair_id,alpha,accuracy,experience_a,experience_b\n"]
        block_lines = ["experience_index,block,distance\n"]
        cka_lines = ["pair_id,layer_x,layer_y,value\n"]
        prev = prepared_prev = None
        for index, path in trained:
            ck = _load_run_checkpoint(path, index, digest)
            prepared = ana.prepare_cka(ck.params, probe) if cka else None
            if blocks:
                report = ana.block_distance(init.params, ck.params)
                for name, dist in zip(report.block_names, report.distances):
                    value = "" if dist is None else f"{dist:.6f}"
                    block_lines.append(f"{index},{name},{value}\n")
            if prev is not None:
                a = prev.experience_index
                pair = f"{a}-{index}"
                if interp:
                    exp = streams[seed].experiences[a]
                    x = train_set.features[exp.train_instances]
                    y = train_set.labels[exp.train_instances]
                    curve = ana.interpolate_checkpoints(prev, ck, spec.interpolation_points, x, y)
                    for alpha, acc in zip(curve.alphas, curve.accuracies):
                        interp_lines.append(f"{pair},{alpha:.6f},{acc:.6f},{a},{index}\n")
                if cka:
                    matrix = ana.cka_prepared_matrix(prepared_prev, prepared)
                    for (i, j), value in np.ndenumerate(matrix):
                        cka_lines.append(f"{pair},layer{i},layer{j},{value:.6f}\n")
            prev, prepared_prev = ck, prepared
        paths.analysis_dir.mkdir(exist_ok=True)
        csv_lines = (interp_lines, block_lines, cka_lines)
        for path, wanted, lines in zip(paths.analysis_files(), (interp, blocks, cka), csv_lines):
            if wanted:
                files.write_atomic(path, _stamped_csv(digest, lines))

    def analyze_shard(shard: list, running: dict) -> None:
        for strategy, seed, paths, listed in shard:
            running.update(strategy=strategy, seed=seed)
            analyze_cell(paths, listed, seed)

    workers = max(1, pool.worker_count(len(paired)))
    shards = [cells[k::workers] for k in range(workers)]
    running = {}  # the (strategy, seed) being analysed, for the error report
    try:
        pool.run(shards, analyze_shard, running, functools.partial(_failure_order, cfg))
    except Exception as exc:  # runtime failure of a cell: its shard stopped there
        _write_error_report(run_dir, "analyze", exc, digest, **running)
        return EXIT_RUNTIME
    return EXIT_OK


def _load_run_checkpoint(path: Path, index: int, digest: str) -> learner.Checkpoint:
    """The checkpoint of experience ``index`` (-1: the initial one) of the
    run whose config has ``digest``; one that another config wrote (say, a
    run before it in the same directory), or whose header names another
    experience than its file name, is refused."""
    ck = learner.load_checkpoint(path)
    if ck.meta.get("config_digest") != digest:
        raise learner.CheckpointError(
            f"{path} was written by config {ck.meta.get('config_digest')}, "
            f"not by this run's config {digest}"
        )
    if ck.experience_index != index:
        raise learner.CheckpointError(
            f"{path} holds experience {ck.experience_index}, not the {index} of its name"
        )
    return ck
