import ast
import importlib
import json
import re
import sys
import types
from pathlib import Path

import cubesteiner
from cubesteiner import cli, domination

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_all_is_duplicate_free():
    assert len(cubesteiner.__all__) == len(set(cubesteiner.__all__))


def test_all_lists_exactly_the_public_bindings():
    # every public non-module name the package binds is exported, and
    # nothing exported is missing from the package
    bound = {
        name
        for name, value in vars(cubesteiner).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(cubesteiner.__all__) == bound


def test_benchmark_tracer_resolves_every_wrapped_name():
    # Tracer() looks up every function the traced benchmark run wraps, so
    # a rename that would break it fails here; the file is only read
    path = PERFBENCH / "tracing.py"
    module = types.ModuleType("perfbench_tracing")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    tracer = module.Tracer()
    wrapped = sum(len(f) for f in (*module.SPANNED.values(), *module.COUNTED.values()))
    assert len(tracer._built) == wrapped + 1  # plus the budget meter


def test_benchmark_pins_are_valid_calls():
    # every pinned job must parse (a missing required flag would fail the job
    # in every run) or name a domination function; the file is only read
    pins = json.loads((PERFBENCH / "pins.json").read_text(encoding="utf-8"))
    jobs = [
        job
        for workload in ("exact_mix", "symmetry", "sandwich")
        for slot in pins[workload]["slots"]
        for job in slot["pool"]
    ]
    parser = cli.build_parser()
    for job in jobs:
        if "api" in job:
            assert callable(getattr(domination, job["api"]))
        else:
            parser.parse_args(job["argv"])
    assert any("api" in job for job in jobs)


def test_benchmark_pin_generator_imports_resolve():
    # collected with ast, so make_pins.py is never executed
    tree = ast.parse((PERFBENCH / "make_pins.py").read_text(encoding="utf-8"))
    imports = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "cubesteiner"
    ]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


def test_runtime_imports_only_the_standard_library():
    # the package promises no runtime dependencies (pyproject: dependencies
    # = []); relative imports stay inside the package
    modules = sorted(Path(cubesteiner.__file__).parent.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


def _documented_names():
    """(where, name) for each backticked `module.name` naming a package
    module, and each backticked `_name`, in README.md and in the package's
    source, whose backticks stand in docstrings and comments only."""
    package = Path(cubesteiner.__file__).parent
    modules = {p.stem for p in package.glob("*.py")} - {"__init__"}
    sources = [package.parent.parent / "README.md", *sorted(package.glob("*.py"))]
    for path in sources:
        for span in re.findall(r"`([^`\n]+)`", path.read_text(encoding="utf-8")):
            span = re.sub(r"\(.*\)$", "", span)
            dotted = re.fullmatch(r"(?:cubesteiner\.)?(\w+)\.(\w+)", span)
            if dotted and dotted[1] in modules:
                yield path.name, dotted[1], dotted[2]
            elif re.fullmatch(r"_\w+", span):
                yield path.name, None, span


def test_documentation_names_resolve():
    # a renamed or deleted helper must not live on in the prose
    package = Path(cubesteiner.__file__).parent
    modules = [
        importlib.import_module(f"cubesteiner.{p.stem}")
        for p in sorted(package.glob("*.py"))
        if p.stem != "__init__"
    ]
    missing = []
    seen = 0
    for where, module, name in _documented_names():
        seen += 1
        if module is not None:
            found = hasattr(importlib.import_module(f"cubesteiner.{module}"), name)
        else:
            found = any(hasattr(m, name) for m in modules)
        if not found:
            missing.append((where, module, name))
    assert missing == []
    assert seen >= 20
