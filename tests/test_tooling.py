"""Guards for the benchmark's tooling that lives outside the package, for
the package's one write layer, its one allocator setting and its one
process pool, for names bound twice in one scope, for the grammar of the oldest Python the package
declares, and for README's library example."""

import ast
import importlib
import importlib.util
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from cirsim import cli, harness
from cirsim.config import STRATEGIES, ExperimentConfig, load_config

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
PACKAGE = ROOT / "src" / "cirsim"


def test_every_traced_name_is_defined():
    # the tracer patches owner.__dict__[name]; a renamed or deleted target
    # would fail every traced benchmark repetition
    targets = runpy.run_path(str(TRACER))["TARGETS"]
    assert targets
    for module_name, qualname, _ in targets:
        owner = importlib.import_module(f"cirsim.{module_name}")
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert attr in owner.__dict__, f"{module_name}.{qualname}"


@pytest.mark.parametrize("checkpoint_every, input_builds", [(0, 0), (2, 1)])
def test_traced_analyze_builds_inputs_once_per_checkpoint_pair_run(
    tmp_path, checkpoint_every, input_builds
):
    # the per-layer metric harness.load_inputs.s reads the spans of the
    # name the tracer wraps: analyze must call it by that name, and only
    # when a checkpoint pair needs the dataset
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    out = tmp_path / "out"
    cfg = ExperimentConfig.from_dict({
        "schema_version": 1,
        "dataset": {"kind": "synthetic", "num_classes": 4, "per_class": 20,
                    "dim": 5, "spread": 0.5, "test_fraction": 0.2, "seed": 0},
        "generator": {"kind": "sampling", "n": 6, "s": 30,
                      "first_occurrence": {"kind": "geometric", "param": 0.3},
                      "repetition": {"mode": "constant", "value": 0.4}},
        "strategies": ["naive", "er-rs"],
        "buffer": {"size": 30, "policy": "rs"},
        "model": {"hidden": [8], "activation": "relu"},
        "seeds": [0, 1],
        "output_dir": str(out),
        "checkpoint_every": checkpoint_every,
    })
    assert harness.run(cfg) == harness.EXIT_OK
    modules = {
        name: importlib.import_module(f"cirsim.{name}")
        for name, _, _ in tracer_module.TARGETS
    }
    tracer = tracer_module.Tracer()
    tracer.install(modules)
    try:
        assert harness.analyze(out, force_all=True) == harness.EXIT_OK
    finally:
        tracer.uninstall()
    assert tracer.count("harness.analyze", "") == 1
    assert tracer.count("harness.load_inputs", "") == input_builds


@pytest.mark.parametrize("smoke", [False, True])
def test_every_benchmark_config_reads_every_key(tmp_path, smoke):
    # a key no reader takes is a config error, which would fail every
    # repetition of the workload that holds it
    workloads = runpy.run_path(str(WORKLOADS))
    definitions = workloads["load_definitions"]()
    assert definitions["workloads"]
    for name, spec in definitions["workloads"].items():
        raw = workloads["build_config"](spec, definitions["default_seed"], str(tmp_path), smoke)
        assert ExperimentConfig.from_dict(raw).raw == raw, name


def test_the_init_config_reads_every_key(tmp_path):
    target = tmp_path / "example.json"
    assert cli.main(["init", "--out", str(target)]) == harness.EXIT_OK
    cfg = load_config(target)
    assert cfg.raw == json.loads(target.read_text())


def _writes_outside_the_writer(source: str) -> list[str]:
    """Each call in ``source`` that may write a file: ``open`` with a mode
    holding ``w``, ``x``, ``a`` or ``+`` (or a mode it cannot read),
    ``os.open``, ``os.write``, ``write_text``/``write_bytes``, and a numpy
    save into anything but a name bound to an ``io.BytesIO()``."""
    tree = ast.parse(source)
    in_memory = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
        and ast.unparse(node.value.func) == "io.BytesIO"
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = ast.unparse(node.func)
        if func == "open":
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[1:2]
            writes = any(
                not (isinstance(mode, ast.Constant) and isinstance(mode.value, str))
                or set(mode.value) & set("wxa+")
                for mode in modes
            )
        elif func in ("os.open", "os.write") or func.endswith((".write_text", ".write_bytes")):
            writes = True
        elif func.startswith(("np.save", "numpy.save")):
            target = node.args[0] if node.args else None
            writes = not (isinstance(target, ast.Name) and target.id in in_memory)
        else:
            writes = False
        if writes:
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("source, flagged", [
    ("open(p)", False),
    ("open(p, 'rb')", False),
    ("open(p, 'a', encoding='utf-8')", True),
    ("open(p, mode='ab')", True),
    ("open(p, 'w')", True),
    ("open(p, mode='wb')", True),
    ("open(p, 'x')", True),
    ("open(p, 'r+b')", True),
    ("open(p, mode)", True),
    ("p.write_text('x')", True),
    ("p.write_bytes(b'x')", True),
    ("fd = os.open(p, os.O_WRONLY | os.O_APPEND)", True),
    ("os.write(fd, data)", True),
    ("os.read(fd, 10)", False),
    ("np.savez(path, a=a)", True),
    ("f = open(p, 'ab')\nnp.savez(f, a=a)", True),
    ("buf = io.BytesIO()\nnp.savez(buf, a=a)", False),
])
def test_write_scan_flags_each_write_outside_the_writer(source, flagged):
    assert bool(_writes_outside_the_writer(source)) == flagged


def test_whole_files_are_written_only_by_the_atomic_writer():
    # files.write_atomic writes aside and renames: a kill leaves the old file
    # or the new one; files.append adds CSV rows to a file that holds its
    # header. No other module writes.
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "files.py")
    assert modules
    found = {
        p.name: _writes_outside_the_writer(p.read_text(encoding="utf-8")) for p in modules
    }
    assert {name: calls for name, calls in found.items() if calls} == {}


def _mallopt_uses(source: str) -> list[str]:
    """Each name, attribute, import or string in ``source`` that can reach
    the C library's ``mallopt``; a docstring that mentions it is none."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.asname or node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value if node.value.isidentifier() else ""
        else:
            continue
        if "mallopt" in name:
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("source, flagged", [
    ("ctypes.CDLL('libc.so.6').mallopt(-3, 1 << 25)", True),
    ("libc = ctypes.CDLL(None)\nset_option = libc.mallopt", True),
    ("getattr(libc, 'mallopt')(-1, 0)", True),
    ("from .cli import _mallopt", True),
    ("from .cli import _freed_memory_kept as mallopt_scope", True),
    ("cli._keep_freed_memory()", False),
    ("def f():\n    '''Sets glibc's thresholds with mallopt.'''", False),
    ("libc.malloc_trim(0)", False),
])
def test_mallopt_scan_flags_each_use(source, flagged):
    assert bool(_mallopt_uses(source)) == flagged


def test_the_allocator_is_tuned_only_by_the_cli():
    # cli.main sets glibc's thresholds for the rest of its process; a setting
    # made anywhere else would reach callers of cirsim that never run a command
    modules = {p.name: _mallopt_uses(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    assert modules.pop("cli.py")
    assert {name: uses for name, uses in modules.items() if uses} == {}


_PROCESS_CALLS = {"os": {"fork", "pipe", "waitpid", "kill", "_exit"},
                  "signal": {"pthread_sigmask"}}


def _process_calls(source: str) -> list[str]:
    """Each use in ``source`` of a call that makes, signals, waits for or
    leaves a process, or blocks its signals (``_PROCESS_CALLS``): as an
    attribute of its module, or imported from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            flagged = node.attr in _PROCESS_CALLS.get(node.value.id, ())
        elif isinstance(node, ast.ImportFrom):
            flagged = any(a.name in _PROCESS_CALLS.get(node.module, ()) for a in node.names)
        else:
            flagged = False
        if flagged:
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("source, flagged", [
    ("pid = os.fork()", True),
    ("read, write = os.pipe()", True),
    ("os.waitpid(pid, 0)", True),
    ("os.kill(pid, signal.SIGKILL)", True),
    ("os._exit(1)", True),
    ("signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})", True),
    ("from os import fork", True),
    ("from signal import SIGKILL, pthread_sigmask as mask", True),
    ("hasattr(os, 'fork')", False),
    ("os.getpid()", False),
    ("os.read(fd, 10)", False),
    ("signal.SIGKILL", False),
    ("sys.exit(1)", False),
])
def test_process_scan_flags_each_process_call(source, flagged):
    assert bool(_process_calls(source)) == flagged


def test_the_processes_are_made_and_reaped_only_by_the_pool():
    # pool.run reaps every worker it forks on every path, and a worker ends
    # with its run; a fork, kill or reap anywhere else would escape both
    modules = {p.name: _process_calls(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    assert modules.pop("pool.py")
    assert {name: calls for name, calls in modules.items() if calls} == {}


# json.load is allowed in the one config file reader; json.loads in the
# override parser, whose input is a --set value and not a file
_JSON_PARSERS = {"read_config_file": {"json.load"}, "apply_override": {"json.loads"}}


def _untyped_config_reads(source: str) -> list[str]:
    """Each call in ``source`` that reads a config value around the typed
    getter: ``int``/``float``/``bool``/``tuple`` wrapping a ``_get(...)``
    call, and ``json.load``/``json.loads`` outside ``_JSON_PARSERS``."""
    tree = ast.parse(source)
    allowed = {
        id(node): _JSON_PARSERS.get(func.name, set())
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = ast.unparse(node.func)
        if func in ("int", "float", "bool", "tuple"):
            flagged = any(
                isinstance(inner, ast.Call) and ast.unparse(inner.func) == "_get"
                for arg in [*node.args, *(kw.value for kw in node.keywords)]
                for inner in ast.walk(arg)
            )
        else:
            flagged = func in ("json.load", "json.loads") and func not in allowed.get(id(node), ())
        if flagged:
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("source, flagged", [
    ('_get(d, "n", 1, int)', False),
    ("int(x)", False),
    ('int(_get(d, "n", 1))', True),
    ('float(_get(d, "lr", 0.1))', True),
    ('bool(_get(d, "enabled", False))', True),
    ('tuple(int(h) for h in _get(d, "hidden", [32]))', True),
    ('f(x=int(_get(d, "n", 1)))', True),
    ("def read_config_file(path):\n    return json.load(f)", False),
    ("def apply_override(raw, o):\n    return json.loads(v)", False),
    ("def apply_override(raw, o):\n    return json.load(f)", True),
    ("def analyze(run_dir):\n    return json.loads(text)", True),
    ("raw = json.load(f)", True),
])
def test_config_read_scan_flags_each_read_around_the_typed_getter(source, flagged):
    assert bool(_untyped_config_reads(source)) == flagged


def test_config_values_are_read_only_by_the_typed_getter():
    # every value goes through _get, which checks its JSON type and names its
    # key, and every config file through the one reader
    assert _untyped_config_reads((PACKAGE / "config.py").read_text(encoding="utf-8")) == []


def _strategy_name_reads(source: str) -> list[str]:
    """Each place in ``source`` that reads a strategy's name: a string
    constant equal to a ``STRATEGIES`` member, and a ``.startswith`` call
    with a constant prefix that begins with ``er``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            flagged = node.value in STRATEGIES
        elif (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "startswith"
        ):
            flagged = any(
                isinstance(prefix, ast.Constant) and isinstance(prefix.value, str)
                and prefix.value.startswith("er")
                for arg in node.args
                for prefix in ast.walk(arg)
            )
        else:
            flagged = False
        if flagged:
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("source, flagged", [
    ("cfg.resolve_policy(strategy)", False),
    ('line.startswith("#")', False),
    ("strategy.startswith(prefix)", False),
    ('x = "erase"', False),
    ('x = "naive-ish"', False),
    ('strategy.startswith("er")', True),
    ('strategy.startswith("er-")', True),
    ('strategy.startswith(("#", "er-cb"))', True),
    ('if strategy == "naive":\n    pass', True),
    ('policy = {"er-fa": "fa"}[strategy]', True),
    ('strategy in ("er", "er-rs")', True),
])
def test_strategy_name_scan_flags_each_read_of_a_name(source, flagged):
    assert bool(_strategy_name_reads(source)) == flagged


def test_strategy_names_are_read_only_by_the_config():
    # config.py maps a strategy to its buffer policy (resolve_policy); the
    # rest of the package sees the policy, and schedules cells by batch shape
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "config.py")
    assert modules
    found = {p.name: _strategy_name_reads(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: reads for name, reads in found.items() if reads} == {}


def _names_bound_twice(source: str) -> list[str]:
    """Each ``def`` or ``class`` that binds a name already bound by a
    ``def`` or ``class`` of the same module or class body: the later one
    silently replaces the earlier."""
    found = []
    for scope in ast.walk(ast.parse(source)):
        if not isinstance(scope, (ast.Module, ast.ClassDef)):
            continue
        seen = set()
        for node in scope.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name in seen:
                found.append(f"line {node.lineno}: {node.name}")
            seen.add(node.name)
    return found


@pytest.mark.parametrize("source, flagged", [
    ("def f():\n    pass\ndef g():\n    pass", False),
    ("def f():\n    pass\ndef f():\n    pass", True),
    ("class A:\n    pass\nclass A:\n    pass", True),
    ("def A():\n    pass\nclass A:\n    pass", True),
    ("async def f():\n    pass\ndef f():\n    pass", True),
    ("class A:\n    def f(self):\n        pass\n    def f(self):\n        pass", True),
    ("class A:\n    def f(self):\n        pass\nclass B:\n    def f(self):\n        pass",
     False),
    ("def f():\n    pass\nclass A:\n    def f(self):\n        pass", False),
    ("def f():\n    def g():\n        pass\n    def g():\n        pass", False),
    ("if x:\n    def f():\n        pass\nelse:\n    def f():\n        pass", False),
])
def test_twice_bound_scan_flags_each_def_or_class_that_replaces_another(source, flagged):
    assert bool(_names_bound_twice(source)) == flagged


def test_no_module_or_class_binds_a_def_or_class_name_twice():
    # a second definition of a helper replaces the first for every caller,
    # including the ones written next to the first
    modules = sorted(
        p for d in ("src/cirsim", "tests", "perfbench") for p in (ROOT / d).glob("*.py")
    )
    assert len(modules) > 20
    found = {
        p.relative_to(ROOT).as_posix(): _names_bound_twice(p.read_text(encoding="utf-8"))
        for p in modules
    }
    assert {name: names for name, names in found.items() if names} == {}


def _refused_by_the_floor(source: str) -> str | None:
    """Why Python 3.10's grammar, the floor ``pyproject.toml`` declares,
    refuses ``source``; None where it parses."""
    try:
        ast.parse(source, feature_version=(3, 10))
    except SyntaxError as exc:
        return f"line {exc.lineno}: {exc.msg}"
    return None


@pytest.mark.parametrize("source, refused", [
    ("try:\n    pass\nexcept* ValueError:\n    pass", True),
    ("try:\n    pass\nexcept ValueError:\n    pass", False),
    ("match x:\n    case 1:\n        pass", False),
])
def test_floor_scan_refuses_what_python_3_10_cannot_parse(source, refused):
    assert bool(_refused_by_the_floor(source)) == refused


def test_every_module_parses_under_the_declared_python_floor():
    # a grammar check, not a run under 3.10: the suite runs on one interpreter
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {p.name: _refused_by_the_floor(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: why for name, why in found.items() if why} == {}


def test_the_readmes_library_example_runs(tmp_path):
    # the example calls the exported API by name; a rename or a changed
    # signature would leave it silently wrong
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library use", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.S)[1]
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", example], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert 'classification)  # "CIR"' in example and done.stdout.startswith("CIR\n")
