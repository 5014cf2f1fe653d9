"""Outside-in tracer for the benchmark's traced runs.

It wraps public functions and methods of cirsim from the outside, records one
span per call (name, start, end, parent span, run id, note) in memory, and
restores the originals afterwards. Nothing under ``src/`` knows about it; untraced runs
never import this module. ``call_cost`` measures what one wrapped call adds,
so the benchmark can state the tracer's overhead as span count times that.

A function is patched on its defining module *and* on every cirsim module
that imported it by name (``metrics`` does ``from .learner import predict``),
because the caller looks the name up in its own namespace.
"""

import functools
import json
import os
import statistics
import time
from collections import defaultdict


def _file_size(args) -> int:
    return os.path.getsize(args[1])


def _policy(args) -> str:
    return args[0].policy


# (module, qualified name, note): ``note(args)`` runs after a call returns
# and is stored with its span; an int note is a byte count.
TARGETS = (
    ("config", "load_config", None),
    ("stream", "LabeledDataset.per_class_index", None),
    ("stream", "Stream.save_manifest", _file_size),
    ("stream", "make_synthetic_dataset", None),
    ("stream", "verify_scenario_properties", None),
    ("slot_generator", "SlotConfig.validate", None),
    ("slot_generator", "generate_slot_stream", None),
    ("sampling_generator", "build_occurrence_matrix", None),
    ("sampling_generator", "realize_stream", None),
    ("buffers", "ReplayBuffer.sample", None),
    ("buffers", "ReplayBuffer.stored_instances_and_labels", None),
    ("buffers", "ReplayBuffer.update", _policy),
    ("buffers", "frequency_aware_quotas", None),
    ("buffers", "class_balanced_quotas", None),
    ("learner", "train_on_experience", None),
    ("learner", "loss_and_grads", None),
    ("learner", "predict", None),
    ("learner", "save_checkpoint", _file_size),
    ("learner", "load_checkpoint", None),
    ("metrics", "evaluate", None),
    ("analysis", "interpolate_checkpoints", None),
    ("analysis", "cka_layer_matrix", None),
    ("analysis", "block_distance", None),
    ("harness", "load_inputs", None),
    ("harness", "build_stream", None),
    ("harness", "run_cell", None),
    ("harness", "run", None),
    ("harness", "inspect", None),
    ("harness", "analyze", None),
)


class Tracer:
    def __init__(self):
        # (name, start, end, parent span index or -1, run id, note)
        self.spans: list[tuple | None] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Patch every target in ``modules`` (cirsim submodule name -> module)."""
        for module_name, qualname, note in TARGETS:
            name = f"{module_name}.{qualname}"
            owner = modules[module_name]
            *outer, attr = qualname.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            if isinstance(original, property):
                self._patch(owner, attr, property(self._wrap(name, original.fget, note)))
                continue
            wrapped = self._wrap(name, original, note)
            self._patch(owner, attr, wrapped)
            if outer:
                continue
            for module in modules.values():
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, alias, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            returned = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                value = note(args) if note is not None and returned else None
                spans[index] = (name, start, end, parent, self.run_id, value)

        return traced

    @staticmethod
    def call_cost() -> float:
        """Seconds one wrapped call adds to a bare call: the median over five
        rounds of timing 20000 calls of a no-op, wrapped and bare."""
        def noop():
            return None

        wrapped = Tracer()._wrap("noop", noop, None)
        calls, costs = 20000, []
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(calls):
                noop()
            bare = time.perf_counter() - start
            start = time.perf_counter()
            for _ in range(calls):
                wrapped()
            costs.append((time.perf_counter() - start - bare) / calls)
        return statistics.median(costs)

    # -- results ----------------------------------------------------------

    def stats(self, run_prefix: str) -> dict[str, dict[str, float]]:
        """{name: {calls, s, self_s, bytes}} over spans whose run id starts
        with ``run_prefix``."""
        out: dict[str, dict[str, float]] = {}
        for span, self_s in zip(self.spans, self_times(self.spans)):
            name, start, end, _, run_id, note = span
            if not run_id.startswith(run_prefix):
                continue
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "bytes": 0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += self_s
            if isinstance(note, int):
                entry["bytes"] += note
        return out

    def count(self, name: str, run_prefix: str, notes=None) -> int:
        """Spans of ``name`` under ``run_prefix``, only those with a note in
        ``notes`` when given."""
        return sum(
            1 for span in self.spans
            if span[0] == name and span[4].startswith(run_prefix)
            and (notes is None or span[5] in notes)
        )

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent index, run id, note."""
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, *_) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out
