import types
from pathlib import Path

import cubesteiner


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
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    module = types.ModuleType("perfbench_tracing")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    tracer = module.Tracer()
    wrapped = sum(len(f) for f in (*module.SPANNED.values(), *module.COUNTED.values()))
    assert len(tracer._built) == wrapped + 1  # plus the budget meter
