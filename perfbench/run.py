"""cirsim benchmark: one workload, one process, closed loop.

    python3 perfbench/run.py --workload replay-grid --seed 0 --seconds 40 --trace 0

Each repetition times a new Python process that imports cirsim and loads the
workload's config and inputs (``setup_s``), then runs ``cirsim run``, ``cirsim inspect`` and
``cirsim analyze --all`` through ``cirsim.cli.main`` into a fresh temporary
output root, checks and hashes the outputs, and removes the root.
Repetitions continue for about ``--seconds`` (at least two), and
timings are reported as medians in reference seconds: each call's time is
scaled by how fast a fixed probe loop ran before, during and after it (see
``_probed_call``), so that drift of the shared host's speed cancels out.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones (see tracer.py). The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import contextlib
import functools
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from checks import check_outputs, output_digest
from workloads import build_config, load_definitions

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"  # temporary output roots, result files, span dumps
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PHASE_SECONDS = 1.0  # untraced: repeat each phase of a repetition this long
# Host speed probes (see _probed_call): untraced timings are reported at the
# host speed at which probe() takes REFERENCE_PROBE_S (about its median on a
# 2-vCPU x86-64 VM at 2.1 GHz).
PROBE_LOOPS = 2500
PROBE_PRODUCTS = 30
PROBE_INTERVAL_S = 0.02
EDGE_PROBES = 3
REFERENCE_PROBE_S = 0.0003
MIN_REPS = 2
CIRSIM_MODULES = (
    "config", "stream", "slot_generator", "sampling_generator", "buffers",
    "learner", "metrics", "analysis", "harness", "cli",
)
# what every cirsim command pays before it starts work; argv: source dir, config
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import cirsim; from cirsim import cli, config, harness; "
    "harness.load_inputs(config.load_config(sys.argv[2]))"
)

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("inspect_s", "s"),
    ("analyze_s", "s"),
    ("peak_rss_mb", "MB"),
    ("output_mb", "MB"),
)
# (metric, unit); a metric named <span name>.<stat> reads that stat of the span
PER_LAYER = (
    ("buffers.ReplayBuffer.sample.calls", "count"),
    ("buffers.ReplayBuffer.sample.s", "s"),
    ("buffers.ReplayBuffer.stored_instances_and_labels.calls", "count"),
    ("buffers.ReplayBuffer.update.calls", "count"),
    ("buffers.ReplayBuffer.update.s", "s"),
    ("buffers.frequency_aware_quotas.calls", "count"),
    ("buffers.frequency_aware_quotas.s", "s"),
    ("buffers.class_balanced_quotas.calls", "count"),
    ("buffers.quota_calls_per_update", "ratio"),
    ("learner.train_on_experience.s", "s"),
    ("learner.train_on_experience.self_s", "s"),
    ("learner.loss_and_grads.calls", "count"),
    ("learner.loss_and_grads.s", "s"),
    ("learner.predict.calls", "count"),
    ("learner.predict.s", "s"),
    ("learner.save_checkpoint.calls", "count"),
    ("learner.save_checkpoint.s", "s"),
    ("learner.save_checkpoint.bytes", "B"),
    ("learner.load_checkpoint.calls", "count"),
    ("learner.load_checkpoint.s", "s"),
    ("stream.LabeledDataset.per_class_index.calls", "count"),
    ("stream.LabeledDataset.per_class_index.s", "s"),
    ("stream.verify_scenario_properties.s", "s"),
    ("stream.Stream.save_manifest.s", "s"),
    ("stream.Stream.save_manifest.bytes", "B"),
    ("stream.make_synthetic_dataset.s", "s"),
    ("slot_generator.SlotConfig.validate.calls", "count"),
    ("slot_generator.SlotConfig.validate.s", "s"),
    ("slot_generator.generate_slot_stream.s", "s"),
    ("slot_generator.generate_slot_stream.self_s", "s"),
    ("sampling_generator.build_occurrence_matrix.s", "s"),
    ("sampling_generator.realize_stream.s", "s"),
    ("metrics.evaluate.calls", "count"),
    ("metrics.evaluate.s", "s"),
    ("metrics.evaluate.self_s", "s"),
    ("analysis.interpolate_checkpoints.s", "s"),
    ("analysis.cka_layer_matrix.s", "s"),
    ("analysis.block_distance.s", "s"),
    ("config.load_config.s", "s"),
    ("harness.load_inputs.s", "s"),
    ("harness.build_stream.calls", "count"),
    ("harness.build_stream.s", "s"),
    ("harness.streams_per_seed", "ratio"),
    ("harness.run_cell.self_s", "s"),
    ("harness.analyze.s", "s"),
    ("trace.overhead_s", "s"),
)
# per-layer metrics computed from several spans rather than read from one
DERIVED = {"buffers.quota_calls_per_update", "harness.streams_per_seed", "trace.overhead_s"}


def pin_threads() -> None:
    """Cap BLAS threads before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def require_source() -> None:
    """Fail unless the checkout holds the cirsim source this benchmark runs."""
    if not (SRC / "cirsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cirsim source at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def fresh_cirsim() -> dict:
    """Import cirsim afresh, so the tracer patches unwrapped modules."""
    for name in [m for m in sys.modules if m == "cirsim" or m.startswith("cirsim.")]:
        del sys.modules[name]
    package = importlib.import_module("cirsim")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported cirsim from {package.__file__}, not {SRC}")
    return {name: importlib.import_module(f"cirsim.{name}") for name in CIRSIM_MODULES}


def probe() -> float:
    """Seconds taken by fixed work that uses no cirsim code: an interpreter
    loop and a chain of small matrix products, the two kinds of work cirsim
    does most. Host slowdowns move both about as much as they move cirsim;
    probes of memory bandwidth tracked them far worse."""
    import numpy  # here, not at the top: only after pin_threads()

    a = _probe_matrix()
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    b = a
    for _ in range(PROBE_PRODUCTS):
        b = numpy.tanh(a @ b)
    return time.perf_counter() - start


@functools.cache
def _probe_matrix():
    import numpy

    return numpy.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32)


def _probed_call(fn, interior: bool) -> tuple[float, float, object]:
    """Call ``fn``; return (its seconds, the median probe seconds, its result).

    Probes run just before and just after the call and, if ``interior``,
    every PROBE_INTERVAL_S during it, from a timer signal handled in this
    thread between two steps of cirsim's work. The time spent in interior
    probes is taken out of the call's seconds.
    """
    probes = [probe() for _ in range(EDGE_PROBES)]
    spent = 0.0

    def on_alarm(signum, frame):
        nonlocal spent
        start = time.perf_counter()
        probes.append(probe())
        spent += time.perf_counter() - start

    if interior:
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        if interior:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        elapsed = time.perf_counter() - start - spent
    probes += [probe() for _ in range(EDGE_PROBES)]
    return elapsed, statistics.median(probes), result


def _timed(fn, once: bool, interior: bool = True) -> tuple[list[float], list[float], list]:
    """Call ``fn`` until PHASE_SECONDS have accumulated, or exactly once;
    returns (seconds per call, median probe seconds per call, results).
    Calls made ``once`` (traced) are not probed, and their probe is 0."""
    samples, probes, results = [], [], []
    while not samples or (not once and sum(samples) < PHASE_SECONDS):
        gc.collect()  # start each call with no garbage pending, as a new process would
        if once:
            start = time.perf_counter()
            results.append(fn())
            samples.append(time.perf_counter() - start)
            probes.append(0.0)
            continue
        seconds, probe_s, result = _probed_call(fn, interior)
        samples.append(seconds)
        probes.append(probe_s)
        results.append(result)
    return samples, probes, results


def run_rep(raw: dict, cfg_path: Path, out: Path, rep: int, tracer=None) -> dict:
    """One repetition: setup, run, inspect and analyze, then checks and hash.

    Untraced, each phase repeats until it has taken PHASE_SECONDS, so cheap
    phases get more samples, setup runs in a child process, and each call is
    probed for host speed (``<phase>_probe_s``); traced, each phase runs once
    in this process, so counts are exact.
    """
    once = tracer is not None
    modules = fresh_cirsim()

    def setup():
        if tracer is None:  # a new process, so every sample pays every import
            subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(cfg_path)],
                           check=True)
            return
        tracer.install(modules)
        tracer.run_id = f"{rep}/setup"
        modules["harness"].load_inputs(modules["config"].load_config(cfg_path))

    def command(phase: str, argv: list[str]):
        def call():
            if tracer is not None:
                tracer.run_id = f"{rep}/{phase}"
            with contextlib.redirect_stdout(io.StringIO()):
                return modules["cli"].main(argv)
        return call

    # setup's work runs in a child process, which interior probes would not see
    setup_s, setup_probe_s, _ = _timed(setup, once, interior=False)
    result = {"setup_s": setup_s, "setup_probe_s": setup_probe_s, "traced": once, "problems": []}
    for phase, argv in (
        ("run", ["run", str(cfg_path)]),
        ("inspect", ["inspect", str(cfg_path)]),
        ("analyze", ["analyze", str(out), "--all"]),
    ):
        seconds, probes, codes = _timed(command(phase, argv), once)
        result[f"{phase}_s"], result[f"{phase}_probe_s"] = seconds, probes
        result["problems"] += [f"cirsim {phase} exited with {c}" for c in codes if c != 0]
    if tracer is not None:
        tracer.uninstall()
    result["problems"] += check_outputs(raw, out)
    result["digest"], result["output_bytes"] = output_digest(out)
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Repeat the workload for about ``seconds`` (at least MIN_REPS times): a
    repetition starts only while more than half the mean repetition time is
    left, so a run ends within half a repetition of ``seconds``."""
    definitions = load_definitions()
    spec = definitions["workloads"][name]
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    WORK.mkdir(exist_ok=True)
    reps = []
    start = time.perf_counter()

    def time_for_another() -> bool:  # would it end by ``seconds``, give or take half?
        spent = time.perf_counter() - start
        return spent + spent / len(reps) / 2 < seconds

    while len(reps) < MIN_REPS or time_for_another():
        index = len(reps)
        tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
        try:
            out = tmp / "out"
            raw = build_config(spec, seed, str(out), smoke=smoke)
            cfg_path = tmp / "config.json"
            cfg_path.write_text(json.dumps(raw, indent=1) + "\n")
            traced = tracer if index % 2 == 1 else None
            try:
                reps.append(run_rep(raw, cfg_path, out, index, traced))
            except Exception:  # a crashed repetition counts as failed; keep measuring
                traceback.print_exc()
                if tracer is not None:
                    tracer.uninstall()
                reps.append({"problems": ["raised: " + traceback.format_exc(limit=1)],
                             "digest": None, "traced": traced is not None})
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        gc.collect()

    pinned = spec["pinned_digest"] if seed == definitions["default_seed"] and not smoke else None
    first_digest = reps[0]["digest"]
    for rep in reps:
        if rep["digest"] is None:
            continue
        if rep["digest"] != first_digest:
            rep["problems"].append(f"digest {rep['digest']} differs from repetition 0")
        if pinned is not None and rep["digest"] != pinned:
            rep["problems"].append(f"digest {rep['digest']} != pinned {pinned or '(none)'}")
    return {"workload": name, "seed": seed, "trace": trace, "reps": reps, "tracer": tracer,
            "seeds": raw["seeds"], "call_cost_s": tracer.call_cost() if trace else None}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(reps: list[dict]) -> dict[str, tuple[float, list[float]]]:
    """{metric: (value, samples)} from the untraced repetitions that finished;
    timings in reference seconds."""
    good = [r for r in reps if not r["traced"] and "run_s" in r]
    samples = {
        name: [s * REFERENCE_PROBE_S / p for r in good
               for s, p in zip(r[name], r[name.replace("_s", "_probe_s")])]
        for name in ("setup_s", "run_s", "inspect_s", "analyze_s")
    }
    samples["output_mb"] = [r["output_bytes"] / 1e6 for r in good]
    out = {name: (_median(values), values) for name, values in samples.items()}
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    out["peak_rss_mb"] = (peak, [peak])
    return out


def per_layer_metrics(result: dict) -> dict[str, tuple[float, list[float]]]:
    """{metric: (median over traced repetitions, samples)}."""
    tracer, reps = result["tracer"], result["reps"]
    traced = [i for i, r in enumerate(reps) if r["traced"] and "run_s" in r]
    samples: dict[str, list[float]] = {name: [] for name, _ in PER_LAYER}
    for i in traced:
        stats = tracer.stats(f"{i}/")
        for name, _ in PER_LAYER:
            if name not in DERIVED:
                span, _, stat = name.rpartition(".")
                samples[name].append(stats.get(span, {}).get(stat, 0))
        updates = tracer.count("buffers.ReplayBuffer.update", f"{i}/", notes=("cb", "fa"))
        quota_calls = sum(stats.get(f"buffers.{q}", {}).get("calls", 0)
                          for q in ("frequency_aware_quotas", "class_balanced_quotas"))
        samples["buffers.quota_calls_per_update"].append(quota_calls / updates if updates else 0.0)
        streams = tracer.count("harness.build_stream", f"{i}/run")  # run id "<rep>/run"
        samples["harness.streams_per_seed"].append(streams / len(set(result["seeds"])))
        spans = sum(s["calls"] for s in tracer.stats(f"{i}/run").values())
        samples["trace.overhead_s"].append(spans * result["call_cost_s"])
    return {name: (_median(values), values) for name, values in samples.items()}


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def report(result: dict) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    reps = result["reps"]
    failed = sum(1 for r in reps if r["problems"])
    for i, rep in enumerate(reps):
        for problem in rep["problems"]:
            print(f"repetition {i}: FAIL {problem}")
    if result["trace"]:
        metrics, units = per_layer_metrics(result), dict(PER_LAYER)
    else:
        metrics, units = end_to_end_metrics(reps), dict(END_TO_END)
    for name, unit in units.items():
        value, samples = metrics[name]
        spread = f" (min {min(samples):.6g}, max {max(samples):.6g})" if samples else ""
        if len(samples) >= 100:  # p90 once at least ten samples lie beyond it
            spread += f", p90 {statistics.quantiles(samples, n=10)[-1]:.6g}"
        print(f"{name}: {value:.6g} {unit}, median of {len(samples)}{spread}")
    probes = [p for r in reps if not r["traced"] for k, v in r.items()
              if k.endswith("_probe_s") for p in v]
    if probes:
        print(f"host speed: probe median {_median(probes) * 1e6:.4g} us over {len(probes)} calls "
              f"(min {min(probes) * 1e6:.4g}, max {max(probes) * 1e6:.4g}); "
              f"reference {REFERENCE_PROBE_S * 1e6:g} us")
    print(f"fail_ratio: {failed}/{len(reps)} = {failed / len(reps):.3f}")
    print(f"output digest: {reps[0]['digest']}")
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    final = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in units.items()},
    }
    stem = f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}"
    record = {**final, "environment": env, "workload": result["workload"],
              "seed": result["seed"], "samples": {n: metrics[n][1] for n in units},
              "repetitions": reps}
    (WORK / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if result["tracer"] is not None:
        result["tracer"].write(WORK / f"spans-{stem}.jsonl")
    return final


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(load_definitions()["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_threads()
    require_source()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
