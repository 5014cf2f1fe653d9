"""Output checks for one workload repetition.

cirsim promises byte-deterministic outputs for a fixed config, except for
``summary.json`` (it holds ``created_unix``) and the ``output_dir`` key of
``config.json`` (the benchmark writes into a fresh temporary root each time).
``output_digest`` hashes everything else; ``check_outputs`` checks the shape
of the outputs on any seed.
"""

import csv
import hashlib
import json
from pathlib import Path

NONDETERMINISTIC = {"summary.json"}


def _deterministic_bytes(rel: str, path: Path) -> bytes:
    data = path.read_bytes()
    if rel == "config.json":
        raw = json.loads(data)
        raw.pop("output_dir", None)
        data = json.dumps(raw, indent=1, sort_keys=True).encode()
    return data


def output_digest(root: Path) -> tuple[str, int]:
    """(sha256 over every deterministic output file, bytes hashed)."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        if rel in NONDETERMINISTIC:
            continue
        data = _deterministic_bytes(rel, path)
        h.update(rel.encode() + b"\0" + len(data).to_bytes(8, "little"))
        h.update(data)
        total += len(data)
    return h.hexdigest(), total


def _data_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        lines = [line for line in f if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _trained_checkpoints(n: int, every: int) -> int:
    return len({n - 1} | {i for i in range(n) if every > 0 and (i + 1) % every == 0})


def check_outputs(raw: dict, root: Path) -> list[str]:
    """Problems found in the outputs of run + inspect + analyze --all."""
    root = Path(root)
    problems = []
    n = raw["generator"]["n"]
    m = raw["buffer"]["size"]
    expected_analysis = ["block_distance.csv"]
    if _trained_checkpoints(n, raw["checkpoint_every"]) >= 2:
        expected_analysis += ["interpolation.csv", "cka.csv"]

    summary_path = root / "summary.json"
    summary = json.loads(summary_path.read_text()) if summary_path.exists() else {}
    for strategy in raw["strategies"]:
        if (summary.get("strategies", {}).get(strategy) or {}).get("final_ta") is None:
            problems.append(f"summary.json: no final_ta for {strategy}")
        for seed in raw["seeds"]:
            cell = root / strategy / f"seed{seed}"
            metrics_csv = cell / "metrics.csv"
            if not metrics_csv.exists():
                problems.append(f"{strategy}/seed{seed}: metrics.csv missing")
                continue
            indices = [int(r["experience_index"]) for r in _data_rows(metrics_csv)]
            if indices != list(range(n)):
                problems.append(f"{strategy}/seed{seed}: {len(indices)} metric rows, want {n}")
            if strategy != "naive":
                trace = cell / "buffer_trace.csv"
                stored: dict[int, int] = {}
                for r in _data_rows(trace) if trace.exists() else []:
                    e = int(r["experience_index"])
                    stored[e] = stored.get(e, 0) + int(r["stored_count"])
                if sorted(stored) != list(range(n)):
                    problems.append(f"{strategy}/seed{seed}: buffer trace misses experiences")
                over = [e for e, count in stored.items() if count > m]
                if over:
                    problems.append(f"{strategy}/seed{seed}: buffer holds > {m} at {over[:3]}")
            for name in expected_analysis:
                if not (cell / "analysis" / name).exists():
                    problems.append(f"{strategy}/seed{seed}: analysis/{name} missing")

    inspect_path = root / "inspect" / "inspect.json"
    if not inspect_path.exists():
        problems.append("inspect/inspect.json missing")
    else:
        report = json.loads(inspect_path.read_text())
        if report["n_experiences"] != n:
            problems.append(f"inspect: {report['n_experiences']} experiences, want {n}")
        if raw["generator"]["kind"] == "slot" and report["domain_coverage"] != 1.0:
            problems.append(f"inspect: domain_coverage {report['domain_coverage']} != 1.0")
    return problems
